//! `reprice`: one listing with a 2,000-point menu re-priced back to back
//! from seeded, perturbed demand through `Marketplace::republish_pricing`,
//! while one connection keeps an open-loop QUOTE → COMMIT stream on it
//! (re-quoting when a re-price expires its quote). The Algorithm 1 DP and
//! the post-φ arbitrage check dominate; reads continue while snapshots
//! are swapped underneath them; mechanism and journal do almost nothing.

use crate::drive::{self, JobResult, JobSpec};
use crate::fixture::{self, ListingSpec, Ranges};
use crate::outcome::{agreed, Block, Outcome};
use crate::util::{micros, Digest, Rng, Samples};
use nimbus_core::arbitrage::check_arbitrage_free_after_phi;
use nimbus_core::{ErrorCurve, PiecewiseLinearPricing};
use nimbus_market::{Marketplace, PurchaseRequest};
use nimbus_optim::objective::{revenue, satisfies_relaxed_constraints};
use nimbus_optim::RevenueProblem;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Re-prices whose menus enter the digest (a prefix, independent of how
/// many re-prices fit in an episode).
pub const DIGEST_REPRICES: usize = 4;

pub struct Size {
    /// Offered purchase rate of the concurrent stream, per second.
    pub purchase_rate: f64,
    /// Length of one episode: a fresh set-up and server, re-priced back
    /// to back.
    pub episode: Duration,
    /// Re-prices each episode makes, whatever its length.
    pub min_reprices: usize,
    /// Episodes always run, whatever the time budget.
    pub min_episodes: usize,
}

pub const FULL: Size = Size {
    purchase_rate: 200.0,
    episode: Duration::from_secs(5),
    min_reprices: 8,
    min_episodes: 2,
};

/// The `k`-th observed demand: the seller's research with every point's
/// demand mass and valuation perturbed; valuations stay non-decreasing
/// in accuracy, as program (5) assumes.
pub fn perturbed(base: &RevenueProblem, seed: u64, k: usize) -> Result<RevenueProblem, String> {
    let mut rng = Rng::new(seed, 0x5E_0000 + k as u64);
    let level = rng.range(0.8, 1.25);
    let mut v_floor: f64 = 0.0;
    let (mut a, mut b, mut v) = (Vec::new(), Vec::new(), Vec::new());
    for p in base.points() {
        a.push(p.a);
        b.push(p.b * rng.range(0.5, 1.5));
        v_floor = v_floor.max(p.v * level * rng.range(0.95, 1.05));
        v.push(v_floor);
    }
    RevenueProblem::from_slices(&a, &b, &v).map_err(|e| e.to_string())
}

/// The purchase stream: options whose answer survives any re-price (by
/// inverse NCP, or by error budget — the error curve never changes).
pub fn stream(seed: u64, name: &str, ranges: &Ranges, n: usize) -> Vec<JobSpec> {
    let mut rng = Rng::new(seed, 0x5E_FFFF);
    (0..n)
        .map(|i| {
            let request = if rng.unit() < 0.5 {
                PurchaseRequest::AtInverseNcp(rng.range(ranges.x.0, ranges.x.1))
            } else {
                PurchaseRequest::ErrorBudget(
                    rng.range(ranges.error.0, ranges.error.1) * (1.0 + 1e-9),
                )
            };
            JobSpec::Purchase {
                listing: name.to_string(),
                request,
                buyer: 1 + (i % 8) as u64,
                nonce: 1 + i as u64,
            }
        })
        .collect()
}

/// One published menu, kept for the checks.
#[derive(Clone, Debug)]
pub struct Posted {
    pub epoch: u64,
    pub menu: Vec<(f64, f64)>,
    pub problem: RevenueProblem,
    /// Revenue `republish_pricing` reported for it.
    pub revenue: f64,
}

pub fn posted(market: &Marketplace, name: &str, revenue: f64) -> Result<Posted, String> {
    let broker = market.route(name).map_err(|e| e.to_string())?;
    let snap = broker.snapshot().ok_or("listing has no snapshot")?;
    Ok(Posted {
        epoch: snap.epoch(),
        menu: snap.menu(),
        problem: snap.problem().clone(),
        revenue,
    })
}

pub fn run(seed: u64, seconds: f64, size: &Size) -> Result<Outcome, String> {
    let mut out = Outcome::new();
    let spec = fixture::specs("reprice", seed).remove(0);
    let (mut quote_us, mut buy_us, mut late) =
        (Samples::default(), Samples::default(), Samples::default());
    let mut reprice_us = Samples::default();
    let (mut requotes, mut purchases) = (0, 0);
    let mut digests = Vec::new();
    let mut failure = None;
    while out.blocks.len() < size.min_episodes || out.measured.as_secs_f64() < seconds {
        crate::util::release_free_memory();
        let ep = episode(seed, &spec, size, &mut out.setups)?;
        out.add_server(&ep.served.server);
        out.attempted += ep.reprice_us.len() as u64 + ep.failure.is_some() as u64;
        out.failed += ep.failure.is_some() as u64;
        for r in &ep.results {
            out.attempted += 1;
            requotes += r.requotes;
            late.push(micros(r.lateness()));
            if r.ok {
                quote_us.push(micros(r.first_latency()));
                buy_us.push(micros(r.latency()));
            } else {
                out.failed += 1;
            }
        }
        purchases += ep.results.len();
        for v in ep.reprice_us.values() {
            reprice_us.push(*v);
        }
        out.measured += ep.measured;
        out.units += ep.reprice_us.len() as u64;
        out.blocks.push(Block {
            units: ep.reprice_us.len() as u64,
            unit_us: ep.reprice_us,
            measured: ep.measured,
        });
        match ep.check {
            Ok(d) => digests.push(d),
            Err(e) => {
                failure = Some(e);
                break;
            }
        }
    }
    let p50 = reprice_us.pct(0.5);
    out.push_pct(
        "reprice_p50_ms",
        crate::util::Pct {
            value: p50.value / 1e3,
            ..p50
        },
        "ms",
    );
    out.pct("quote_p50_us", &quote_us, 0.5, "us");
    out.pct("quote_p99_us", &quote_us, 0.99, "us");
    out.pct("buy_p50_us", &buy_us, 0.5, "us");
    out.pct("buy_p99_us", &buy_us, 0.99, "us");
    out.pct("loadgen.late_p99_us", &late, 0.99, "us");
    out.figure(
        "loadgen.expired_requotes",
        requotes as f64,
        "count",
        purchases,
    );
    out.figure("menu_points", spec.points as f64, "count", 1);
    out.figure(
        "episodes",
        out.blocks.len() as f64,
        "count",
        out.blocks.len(),
    );
    out.check = agreed(failure, digests);
    Ok(out)
}

/// One episode's outputs, its server still up for its STATS counters.
pub struct Episode {
    pub served: fixture::Served,
    pub measured: Duration,
    pub reprice_us: Samples,
    pub results: Vec<JobResult>,
    pub failure: Option<String>,
    pub check: Result<String, String>,
}

/// Set up the listing, re-price it back to back beside the purchase
/// stream for one episode, and check every menu and sale.
pub fn episode(
    seed: u64,
    spec: &ListingSpec,
    size: &Size,
    setups: &mut Vec<f64>,
) -> Result<Episode, String> {
    let name = spec.name.as_str();
    let served = fixture::timed_serve(std::slice::from_ref(spec), None, setups)?;
    let market = served.market.clone();
    let ranges = fixture::ranges(&market, name)?;
    let broker = market.route(name).map_err(|e| e.to_string())?;
    let snap = broker.snapshot().ok_or("listing has no snapshot")?;
    let base = snap.problem().clone();
    let curve = snap.error_curve().clone();
    let mut menus = vec![posted(&market, name, snap.expected_revenue())?];

    let n = (size.purchase_rate * size.episode.as_secs_f64()).ceil() as usize;
    let gap = Duration::from_secs_f64(1.0 / size.purchase_rate);
    let jobs = stream(seed, name, &ranges, n);
    let due: Vec<Duration> = (0..jobs.len()).map(|i| gap * i as u32).collect();
    let addr = served.server.local_addr();
    let mut reprice_us = Samples::default();
    let mut failure = None;
    let start = Instant::now();
    let results: Vec<JobResult> = std::thread::scope(|s| {
        let client = s.spawn(|| drive::run(addr, &jobs, &due, start));
        let mut k = 0;
        while k < size.min_reprices || start.elapsed() < size.episode {
            let problem = match perturbed(&base, seed, k) {
                Ok(p) => p,
                Err(e) => {
                    failure = Some(e);
                    break;
                }
            };
            let t = Instant::now();
            let r = market.republish_pricing(name, problem);
            reprice_us.push(micros(t.elapsed()));
            match r
                .map_err(|e| e.to_string())
                .and_then(|rev| posted(&market, name, rev))
            {
                Ok(p) => menus.push(p),
                Err(e) => {
                    failure = Some(e);
                    break;
                }
            }
            k += 1;
        }
        client.join().expect("client thread")
    });
    let measured = start.elapsed();
    let ledger: Vec<(u64, u64)> = broker
        .ledger()
        .transactions()
        .iter()
        .map(|t| (t.sequence, t.price.to_bits()))
        .collect();
    let check = match &failure {
        Some(e) => Err(format!("re-price failed: {e}")),
        None => check(&menus, &curve, &results, &ledger),
    };
    Ok(Episode {
        served,
        measured,
        reprice_us,
        results,
        failure,
        check,
    })
}

/// One posted menu: on its problem's grid, feasible for program (5),
/// arbitrage-free after φ, and reporting exactly `objective::revenue`.
fn check_menu(k: usize, p: &Posted, curve: &ErrorCurve) -> Result<PiecewiseLinearPricing, String> {
    let prices: Vec<f64> = p.menu.iter().map(|m| m.1).collect();
    let params = p.problem.parameters();
    if p.menu.len() != params.len()
        || p.menu
            .iter()
            .zip(&params)
            .any(|(m, a)| m.0.to_bits() != a.to_bits())
    {
        return Err(format!("menu {k} is not posted on its problem's grid"));
    }
    let scale = prices.iter().fold(1.0f64, |m, v| m.max(v.abs()));
    if !satisfies_relaxed_constraints(&prices, &params, 1e-9 * scale) {
        return Err(format!("menu {k} (epoch {}) violates program (5)", p.epoch));
    }
    let pricing = PiecewiseLinearPricing::new(p.menu.clone()).map_err(|e| e.to_string())?;
    let report =
        check_arbitrage_free_after_phi(&pricing, curve, 1e-6).map_err(|e| e.to_string())?;
    if !report.is_arbitrage_free() {
        return Err(format!(
            "menu {k} (epoch {}) fails the post-φ arbitrage check",
            p.epoch
        ));
    }
    let want = revenue(&prices, &p.problem).map_err(|e| e.to_string())?;
    if want.to_bits() != p.revenue.to_bits() {
        return Err(format!(
            "menu {k} reported revenue {} but objective::revenue gives {want}",
            p.revenue
        ));
    }
    Ok(pricing)
}

/// Every posted menu satisfies program (5), passes the post-φ arbitrage
/// check and reports the revenue `objective::revenue` gives it; every
/// sale paid its epoch's menu price at its `x`; the ledger is the ACKs.
pub fn check(
    menus: &[Posted],
    curve: &ErrorCurve,
    results: &[JobResult],
    ledger: &[(u64, u64)],
) -> Result<String, String> {
    // The post-φ check is quadratic in the menu size; spread the menus
    // over the machine's cores.
    let threads = fixture::nproc().max(1);
    let per = menus.len().div_ceil(threads).max(1);
    let checked: Vec<Result<PiecewiseLinearPricing, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = menus
            .chunks(per)
            .enumerate()
            .map(|(c, chunk)| {
                s.spawn(move || {
                    chunk
                        .iter()
                        .enumerate()
                        .map(|(i, p)| check_menu(c * per + i, p, curve))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("check thread"))
            .collect()
    });
    let mut digest = Digest::default();
    let mut by_epoch: BTreeMap<u64, PiecewiseLinearPricing> = BTreeMap::new();
    for (k, (p, pricing)) in menus.iter().zip(checked).enumerate() {
        let pricing = pricing?;
        if k <= DIGEST_REPRICES {
            digest.u64(k as u64);
            digest.f64(p.revenue);
            for (_, v) in &p.menu {
                digest.f64(*v);
            }
        }
        by_epoch.insert(p.epoch, pricing);
    }
    let mut acks: Vec<(u64, u64)> = Vec::new();
    for (i, r) in results.iter().enumerate() {
        let (Some(nimbus_server::Response::Commit(sale)), Some(quote)) =
            (&r.answer, r.quotes.last())
        else {
            continue;
        };
        let pricing = by_epoch.get(&quote.snapshot_epoch).ok_or(format!(
            "purchase {i} committed on unknown epoch {}",
            quote.snapshot_epoch
        ))?;
        let menu_price = nimbus_core::PricingFunction::price(
            pricing,
            nimbus_core::InverseNcp::new(sale.inverse_ncp).map_err(|e| e.to_string())?,
        );
        if menu_price.to_bits() != sale.price.to_bits()
            || quote.price.to_bits() != sale.price.to_bits()
        {
            return Err(format!(
                "purchase {i} paid {} at x={} on epoch {}, menu price {menu_price}",
                sale.price, sale.inverse_ncp, quote.snapshot_epoch
            ));
        }
        acks.push((sale.transaction, sale.price.to_bits()));
    }
    acks.sort_unstable();
    let mut ledger = ledger.to_vec();
    ledger.sort_unstable();
    if acks != ledger {
        return Err(format!(
            "{} ACKed sales but {} ledger rows, or they differ",
            acks.len(),
            ledger.len()
        ));
    }
    Ok(digest.hex())
}
