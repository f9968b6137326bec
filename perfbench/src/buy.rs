//! `buy` and `buy_durable`: purchases on one budget-metered listing
//! (YearMSD shape, d = 90, snapped Gaussian noise). One connection runs
//! QUOTE → keyed, buyer-attributed COMMIT; the other runs 16 QUOTEs →
//! BATCH_COMMIT. Every sale pays for the budget charge, dedup claim,
//! snapped sampling and ledger record, so these are the commit-path
//! workloads.
//!
//! `buy` keeps the ledger in memory. `buy_durable` also journals every
//! sale, fsynced before its ACK, and checkpoints; its latency then
//! follows the fsync latency of the disk under the working directory,
//! which on a shared host can double between runs.
//!
//! Purchases arrive on a schedule (many independent buyers, each waiting
//! for its own model), not from a fixed number of clients in a closed
//! loop: the server's event loop can lose a wake-up, and a closed loop
//! whose every request waits on the lost answer stalls for the loop's
//! 500 ms poll cap, which made closed-loop throughput bimodal.
//!
//! A run is a sequence of *episodes*; each sells a fixed number of sales
//! into a fresh journal, so a faster commit path cannot buy itself a
//! bigger ledger and costlier checkpoints.

use crate::drive::{self, JobResult, JobSpec};
use crate::fixture::{self, ListingSpec};
use crate::outcome::{agreed, Block, Outcome};
use crate::util::{micros, Digest, Rng, Samples, ScratchDir};
use nimbus_market::{FaultPlan, Journal, Marketplace};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

pub const BATCH: usize = 16;

pub struct Size {
    /// Single purchases and 16-item batches per episode.
    pub singles: usize,
    pub batches: usize,
    /// Both streams are spread evenly over this much time.
    pub episode: Duration,
    /// Episodes always run, whatever the time budget.
    pub min_episodes: usize,
}

/// 1,024 sales a second, half of them single commits: well below the
/// rate at which two fsync-bound workers start to queue.
pub const FULL: Size = Size {
    singles: 1_024,
    batches: 64,
    episode: Duration::from_secs(2),
    min_episodes: 3,
};

/// The two connections' purchase streams, derived from `seed` and the
/// listing's public menu.
pub fn streams(seed: u64, name: &str, ranges: &fixture::Ranges, size: &Size) -> [Vec<JobSpec>; 2] {
    let mut rng = Rng::new(seed, 0xB_0001);
    let singles = (0..size.singles)
        .map(|i| JobSpec::Purchase {
            listing: name.to_string(),
            request: ranges.request(&mut rng),
            buyer: 1 + (i % 16) as u64,
            nonce: 1 + i as u64,
        })
        .collect();
    let batches = (0..size.batches)
        .map(|b| JobSpec::Batch {
            listing: name.to_string(),
            requests: (0..BATCH).map(|_| ranges.request(&mut rng)).collect(),
            buyers: (0..BATCH).map(|k| 101 + k as u64).collect(),
            nonces: (0..BATCH)
                .map(|k| 1_000_000 + (b * BATCH + k) as u64)
                .collect(),
        })
        .collect();
    [singles, batches]
}

/// One sale as the buyer saw it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Acked {
    pub tx: u64,
    pub x: f64,
    pub price: f64,
    pub buyer: u64,
    pub epoch: u64,
    pub weights: usize,
}

/// Flattens the ACKed sales of both connections.
pub fn acked(streams: &[Vec<JobSpec>], results: &[Vec<JobResult>]) -> Vec<Acked> {
    let mut out = Vec::new();
    for (jobs, rs) in streams.iter().zip(results) {
        for (job, r) in jobs.iter().zip(rs) {
            let buyers: Vec<u64> = match job {
                JobSpec::Purchase { buyer, .. } => vec![*buyer],
                JobSpec::Batch { buyers, .. } => buyers.clone(),
                JobSpec::Read(_) => Vec::new(),
            };
            for ((sale, quote), buyer) in r.sales().into_iter().zip(&r.quotes).zip(buyers) {
                out.push(Acked {
                    tx: sale.transaction,
                    x: sale.inverse_ncp,
                    price: sale.price,
                    buyer,
                    epoch: quote.snapshot_epoch,
                    weights: sale.weights.len(),
                });
            }
        }
    }
    out
}

/// Runs `buy` or `buy_durable`.
pub fn run(workload: &str, seed: u64, seconds: f64, size: &Size) -> Result<Outcome, String> {
    let mut out = Outcome::new();
    let spec = fixture::specs(workload, seed).remove(0);
    let (mut singles_us, mut batch_us) = (Samples::default(), Samples::default());
    let (mut quote_us, mut late) = (Samples::default(), Samples::default());
    let mut sales = 0u64;
    let mut digests: Vec<String> = Vec::new();
    let mut fs = None;
    let mut failure = None;
    while out.setups.len() < size.min_episodes || out.measured.as_secs_f64() < seconds {
        crate::util::release_free_memory();
        let ep = episode(seed, &spec, size)?;
        fs = ep.fs;
        out.setups.push(ep.setup.as_secs_f64());
        for (total, v) in out.server.iter_mut().zip(ep.server) {
            *total += v;
        }
        out.measured += ep.measured;
        let mut block = Block {
            unit_us: Samples::default(),
            units: ep.acked.len() as u64,
            measured: ep.measured,
        };
        for (i, rs) in ep.results.iter().enumerate() {
            for r in rs {
                out.attempted += 1;
                late.push(micros(r.lateness()));
                if !r.ok {
                    out.failed += 1;
                    continue;
                }
                let lat = micros(r.latency());
                if i == 0 {
                    block.unit_us.push(lat);
                    singles_us.push(lat);
                    quote_us.push(micros(r.first_latency()));
                } else {
                    batch_us.push(lat);
                }
            }
        }
        out.blocks.push(block);
        sales += ep.acked.len() as u64;
        match ep.check {
            Ok(d) => digests.push(d),
            Err(e) => {
                failure = Some(e);
                break;
            }
        }
    }
    out.units = sales;
    out.pct("buy_p50_us", &singles_us, 0.5, "us");
    out.pct("buy_p99_us", &singles_us, 0.99, "us");
    out.pct("batch_p50_us", &batch_us, 0.5, "us");
    out.pct("quote_p50_us", &quote_us, 0.5, "us");
    out.pct("loadgen.late_p99_us", &late, 0.99, "us");
    out.figure(
        "sales_per_s",
        sales as f64 / out.measured.as_secs_f64(),
        "1/s",
        sales as usize,
    );
    out.figure(
        "episodes",
        out.setups.len() as f64,
        "count",
        out.setups.len(),
    );
    match fs {
        // The default journal policy: no gathering window, so commits
        // that arrive while a flush is in progress share the next one.
        Some(fs) => {
            out.note(
                "flush_policy",
                "fsync before ACK (group commit, no gathering window)",
            );
            out.note("journal_fs", fs);
        }
        None => out.note("flush_policy", "none: in-memory ledger, no journal"),
    }
    out.check = agreed(failure, digests);
    Ok(out)
}

pub struct Episode {
    pub setup: Duration,
    pub measured: Duration,
    pub server: [u64; 3],
    pub results: Vec<Vec<JobResult>>,
    pub acked: Vec<Acked>,
    /// The live ledger and, for a journalled listing, the journal's
    /// recovery (the self-tests corrupt them to show the check fails).
    #[allow(dead_code)]
    pub books: Option<(Books, Option<Books>)>,
    pub check: Result<String, String>,
    /// The journal's file system, when the listing is journalled.
    pub fs: Option<&'static str>,
}

/// Set up a fresh listing (with a fresh journal when `spec` is
/// journalled), sell the episode's purchases, shut down, and check the
/// books against the ACKs and, if there is one, the journal.
pub fn episode(seed: u64, spec: &ListingSpec, size: &Size) -> Result<Episode, String> {
    let dir = spec
        .journalled
        .then(|| ScratchDir::new("buy"))
        .transpose()
        .map_err(|e| format!("scratch directory: {e}"))?;
    let journal_root = dir.as_ref().map(ScratchDir::path);
    let t = Instant::now();
    let served = fixture::serve(std::slice::from_ref(spec), journal_root)?;
    let setup = t.elapsed();
    let ranges = fixture::ranges(&served.market, &spec.name)?;
    let streams = streams(seed, &spec.name, &ranges, size);
    let addr = served.server.local_addr();
    let spread = |n: usize| -> Vec<Duration> {
        let gap = size.episode / n.max(1) as u32;
        (0..n).map(|i| gap * i as u32).collect()
    };
    let schedules = [spread(size.singles), spread(size.batches)];
    let start = Instant::now();
    let results: Vec<Vec<JobResult>> = std::thread::scope(|s| {
        let handles: Vec<_> = streams
            .iter()
            .zip(&schedules)
            .map(|(jobs, due)| s.spawn(move || drive::run(addr, jobs, due, start)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let measured = start.elapsed();
    let acked = acked(&streams, &results);
    let live = books(&served.market, &spec.name);
    let mut counters = Outcome::new();
    counters.add_server(&served.server);
    let fixture::Served { market, server, .. } = served;
    // Graceful shutdown checkpoints the journal; the marketplace must be
    // gone too before the journal is reopened.
    server.shutdown();
    let priced = prices_match_menu(&market, &spec.name, &acked);
    drop(market);
    let books = live.and_then(|live| {
        let recovered = match journal_root {
            Some(root) => Some(recovered(&Marketplace::journal_path_for(root, &spec.name))?),
            None => None,
        };
        Ok((live, recovered))
    });
    let check = priced.and_then(|()| {
        let (live, recovered) = books.as_ref().map_err(Clone::clone)?;
        check_books(
            &acked,
            live,
            recovered.as_ref(),
            size.singles + size.batches * BATCH,
        )
    });
    Ok(Episode {
        setup,
        measured,
        fs: journal_root.map(crate::util::fs_type),
        server: counters.server,
        results,
        acked,
        books: books.ok(),
        check,
    })
}

/// The books the journal recovers on reopening.
fn recovered(journal: &std::path::Path) -> Result<Books, String> {
    let (_, recovery) = Journal::open(journal, 0, FaultPlan::new()).map_err(|e| e.to_string())?;
    if let Some(t) = &recovery.truncated {
        return Err(format!("journal recovered with a bad tail: {t}"));
    }
    Ok(Books {
        sales: recovery
            .transactions
            .iter()
            .map(|t| (t.sequence, t.price.to_bits(), t.inverse_ncp.to_bits()))
            .collect(),
        spend: recovery.accounts,
    })
}

/// A ledger as `(tx id, price bits, x bits)` rows plus per-buyer spend.
#[derive(Clone, Debug, Default)]
pub struct Books {
    pub sales: Vec<(u64, u64, u64)>,
    pub spend: Vec<(u64, f64)>,
}

fn books(market: &Marketplace, name: &str) -> Result<Books, String> {
    let broker = market.route(name).map_err(|e| e.to_string())?;
    let sales = broker
        .ledger()
        .transactions()
        .iter()
        .map(|t| (t.sequence, t.price.to_bits(), t.inverse_ncp.to_bits()))
        .collect();
    Ok(Books {
        sales,
        spend: broker.accounts().snapshot(),
    })
}

fn prices_match_menu(market: &Marketplace, name: &str, acked: &[Acked]) -> Result<(), String> {
    let broker = market.route(name).map_err(|e| e.to_string())?;
    let snap = broker.snapshot().ok_or("listing has no snapshot")?;
    for a in acked {
        if a.epoch != snap.epoch() {
            return Err(format!(
                "sale {} priced on epoch {} but the menu is epoch {}",
                a.tx,
                a.epoch,
                snap.epoch()
            ));
        }
        let menu_price = snap.price_at(a.x).map_err(|e| e.to_string())?;
        if menu_price.to_bits() != a.price.to_bits() {
            return Err(format!(
                "sale {} charged {} but the menu price at x={} is {menu_price}",
                a.tx, a.price, a.x
            ));
        }
    }
    Ok(())
}

/// The sorted `(tx id, price bits)` of the ACKs equal the live ledger and
/// the journal's recovery (when there is a journal); per-buyer Σx agrees
/// between the ACKs and each of them. Returns the episode digest: the
/// seed-determined multiset of `(buyer, x, price)`.
pub fn check_books(
    acked: &[Acked],
    live: &Books,
    recovered: Option<&Books>,
    expected: usize,
) -> Result<String, String> {
    if acked.len() != expected {
        return Err(format!("{} sales ACKed, {expected} expected", acked.len()));
    }
    if let Some(a) = acked.iter().find(|a| a.weights != 90) {
        return Err(format!(
            "sale {} carried {} weights, not 90",
            a.tx, a.weights
        ));
    }
    let mut from_acks: Vec<(u64, u64, u64)> = acked
        .iter()
        .map(|a| (a.tx, a.price.to_bits(), a.x.to_bits()))
        .collect();
    from_acks.sort_unstable();
    let mut ledger = live.sales.clone();
    ledger.sort_unstable();
    if from_acks != ledger {
        return Err(format!(
            "ACKs ({} sales) and ledger ({} rows) disagree",
            from_acks.len(),
            ledger.len()
        ));
    }
    if let Some(recovered) = recovered {
        let mut journal = recovered.sales.clone();
        journal.sort_unstable();
        if journal != ledger {
            return Err(format!(
                "journal recovery ({} sales) and ledger ({} rows) disagree",
                journal.len(),
                ledger.len()
            ));
        }
    }
    let mut spend: BTreeMap<u64, f64> = BTreeMap::new();
    let mut by_tx: Vec<&Acked> = acked.iter().collect();
    by_tx.sort_by_key(|a| a.tx);
    for a in by_tx {
        *spend.entry(a.buyer).or_default() += a.x;
    }
    let books = std::iter::once(("ledger", live)).chain(recovered.map(|r| ("journal", r)));
    for (what, books) in books {
        let got: BTreeMap<u64, f64> = books.spend.iter().copied().collect();
        if got.len() != spend.len() {
            return Err(format!(
                "{what} meters {} buyers, the ACKs {}",
                got.len(),
                spend.len()
            ));
        }
        for (buyer, want) in &spend {
            let have = got.get(buyer).copied().unwrap_or(f64::NAN);
            // Σx is summed in commit order server-side; allow for the
            // rounding of a different summation order.
            if have.is_nan() || (have - want).abs() > 1e-9 * want.abs().max(1.0) {
                return Err(format!(
                    "{what}: buyer {buyer} spent {have}, the ACKs say {want}"
                ));
            }
        }
    }
    let mut canon: Vec<(u64, u64, u64)> = acked
        .iter()
        .map(|a| (a.buyer, a.x.to_bits(), a.price.to_bits()))
        .collect();
    canon.sort_unstable();
    let mut d = Digest::default();
    for (buyer, x, price) in canon {
        d.u64(buyer);
        d.u64(x);
        d.u64(price);
    }
    Ok(d.hex())
}
