//! `browse`: an open loop of QUOTEs (all three purchase options) and a
//! few MENUs over nine listings, at a fixed rate well below capacity.
//! Transport, codec, routing and snapshot reads do the work; mechanism,
//! journal and DP do none, which makes this the control workload for
//! commit-path and DP changes.

use crate::drive::{self, JobResult, JobSpec};
use crate::fixture::{self, Ranges};
use crate::outcome::{agreed, Block, Outcome};
use crate::util::{micros, Digest, Rng, Samples};
use nimbus_market::Marketplace;
use nimbus_server::wire::{Request, Response};
use std::time::{Duration, Instant};

/// Share of MENU requests in the mix.
const MENU_SHARE: f64 = 0.04;
/// Jobs per connection that enter the digest (a prefix, so the digest
/// does not depend on the episode length).
pub const DIGEST_JOBS: usize = 512;
pub struct Size {
    /// Offered QUOTE/MENU rate of each connection, per second.
    pub rate_per_conn: f64,
    /// Length of one episode: a fresh set-up, server and connections.
    pub episode: Duration,
    /// Episodes always run, whatever the time budget.
    pub min_episodes: usize,
}

/// Episodes re-create the server's and the clients' threads: on a small
/// machine their placement on cores shifts a whole episode's latency, so
/// the run reports the median over many placements.
pub const FULL: Size = Size {
    rate_per_conn: 2_000.0,
    episode: Duration::from_secs(3),
    min_episodes: 2,
};

/// Listing popularity: listing `i` is drawn with weight `1/(i+1)`.
fn skew(n: usize) -> Vec<f64> {
    (0..n).map(|i| 1.0 / (i + 1) as f64).collect()
}

/// The seeded request stream of connection `conn`.
pub fn stream(seed: u64, conn: u64, names: &[String], ranges: &[Ranges], n: usize) -> Vec<JobSpec> {
    let mut rng = Rng::new(seed, 0xB0_0000 + conn);
    let weights = skew(names.len());
    (0..n)
        .map(|_| {
            let l = rng.weighted(&weights);
            let listing = Some(names[l].clone());
            if rng.unit() < MENU_SHARE {
                JobSpec::Read(Request::Menu { listing })
            } else {
                JobSpec::Read(Request::Quote {
                    listing,
                    request: ranges[l].request(&mut rng),
                })
            }
        })
        .collect()
}

pub fn run(seed: u64, seconds: f64, size: &Size) -> Result<Outcome, String> {
    run_on(&fixture::specs("browse", seed), seed, seconds, size)
}

/// The browse loop over the listings of `specs`.
pub fn run_on(
    specs: &[fixture::ListingSpec],
    seed: u64,
    seconds: f64,
    size: &Size,
) -> Result<Outcome, String> {
    let mut out = Outcome::new();
    let (mut quotes, mut late) = (Samples::default(), Samples::default());
    let mut digests = Vec::new();
    let mut failure = None;
    while out.blocks.len() < size.min_episodes || out.measured.as_secs_f64() < seconds {
        crate::util::release_free_memory();
        let served = fixture::timed_serve(specs, None, &mut out.setups)?;
        let ranges = served
            .names
            .iter()
            .map(|n| fixture::ranges(&served.market, n))
            .collect::<Result<Vec<_>, _>>()?;
        let conns = fixture::nproc() as u64;
        let per_conn = (size.rate_per_conn * size.episode.as_secs_f64()).ceil() as usize;
        let gap = Duration::from_secs_f64(1.0 / size.rate_per_conn);
        let streams: Vec<Vec<JobSpec>> = (0..conns)
            .map(|c| stream(seed, c, &served.names, &ranges, per_conn))
            .collect();
        let addr = served.server.local_addr();
        let start = Instant::now();
        let results: Vec<Vec<JobResult>> = std::thread::scope(|s| {
            let handles: Vec<_> = streams
                .iter()
                .enumerate()
                .map(|(c, jobs)| {
                    // Connections are offset by a fraction of a gap so
                    // their requests interleave instead of arriving in pairs.
                    let offset = gap.mul_f64(c as f64 / conns as f64);
                    let due: Vec<Duration> =
                        (0..jobs.len()).map(|i| offset + gap * i as u32).collect();
                    s.spawn(move || drive::run(addr, jobs, &due, start))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread"))
                .collect()
        });
        let measured = start.elapsed();
        let mut block = Block {
            unit_us: Samples::default(),
            units: 0,
            measured,
        };
        for r in results.iter().flatten() {
            out.attempted += 1;
            late.push(micros(r.lateness()));
            if !r.ok {
                out.failed += 1;
                continue;
            }
            block.units += 1;
            block.unit_us.push(micros(r.latency()));
            if matches!(r.answer, Some(Response::Quote(_))) {
                quotes.push(micros(r.latency()));
            }
        }
        out.measured += measured;
        out.units += block.units;
        out.blocks.push(block);
        out.add_server(&served.server);
        match check(&served.market, &streams, &results) {
            Ok(d) => digests.push(d),
            Err(e) => {
                failure = Some(e);
                break;
            }
        }
    }
    out.pct("quote_p50_us", &quotes, 0.5, "us");
    out.pct("quote_p99_us", &quotes, 0.99, "us");
    out.pct("loadgen.late_p99_us", &late, 0.99, "us");
    out.figure(
        "offered_per_s",
        size.rate_per_conn * fixture::nproc() as f64,
        "1/s",
        out.attempted as usize,
    );
    out.figure(
        "episodes",
        out.blocks.len() as f64,
        "count",
        out.blocks.len(),
    );
    out.check = agreed(failure, digests);
    Ok(out)
}

/// Every wire answer equals, bit for bit, what the marketplace answers
/// in-process for the same request on the same epoch (browse never
/// re-prices, so the epoch is the one published at set-up).
pub fn check(
    market: &Marketplace,
    streams: &[Vec<JobSpec>],
    results: &[Vec<JobResult>],
) -> Result<String, String> {
    let mut digest = Digest::default();
    for (c, (jobs, rs)) in streams.iter().zip(results).enumerate() {
        if jobs.len() != rs.len() {
            return Err(format!(
                "connection {c}: {} answers for {} requests",
                rs.len(),
                jobs.len()
            ));
        }
        for (i, (job, r)) in jobs.iter().zip(rs).enumerate() {
            let JobSpec::Read(request) = job else {
                return Err("browse streams hold only reads".to_string());
            };
            let Some(answer) = &r.answer else {
                return Err(format!(
                    "connection {c} request {i}: no answer ({:?})",
                    r.error
                ));
            };
            expect_answer(market, request, answer)
                .map_err(|e| format!("connection {c} request {i}: {e}"))?;
            if i < DIGEST_JOBS {
                digest_answer(&mut digest, answer);
            }
        }
    }
    Ok(digest.hex())
}

fn expect_answer(market: &Marketplace, request: &Request, answer: &Response) -> Result<(), String> {
    match (request, answer) {
        (Request::Quote { listing, request }, Response::Quote(got)) => {
            let name = listing.as_deref().unwrap_or_default();
            let want = market
                .quote_request(name, *request)
                .map_err(|e| e.to_string())?;
            let same = got.x.to_bits() == want.x.to_bits()
                && got.delta.to_bits() == want.delta.to_bits()
                && got.price.to_bits() == want.price.to_bits()
                && got.expected_error.to_bits() == want.expected_error.to_bits()
                && got.metric == want.metric
                && got.snapshot_epoch == want.snapshot_epoch
                && got.listing == name;
            if same {
                Ok(())
            } else {
                Err(format!(
                    "wire quote {got:?} differs from in-process {want:?}"
                ))
            }
        }
        (Request::Menu { listing }, Response::Menu(got)) => {
            let name = listing.as_deref().unwrap_or_default();
            let broker = market.route(name).map_err(|e| e.to_string())?;
            let snap = broker.snapshot().ok_or("listing has no snapshot")?;
            let want = snap.menu();
            let same =
                got.epoch == snap.epoch()
                    && got.metric == snap.metric_name()
                    && got.points.len() == want.len()
                    && got.points.iter().zip(&want).all(|(a, b)| {
                        a.0.to_bits() == b.0.to_bits() && a.1.to_bits() == b.1.to_bits()
                    });
            if same {
                Ok(())
            } else {
                Err(format!("wire menu of {name} differs from the posted menu"))
            }
        }
        (req, ans) => Err(format!("{} answered with {ans:?}", req.op_name())),
    }
}

fn digest_answer(d: &mut Digest, answer: &Response) {
    match answer {
        Response::Quote(q) => {
            d.str(&q.listing);
            d.f64(q.x);
            d.f64(q.price);
            d.f64(q.expected_error);
            d.u64(q.snapshot_epoch);
        }
        Response::Menu(m) => {
            d.u64(m.epoch);
            for (x, p) in &m.points {
                d.f64(*x);
                d.f64(*p);
            }
        }
        other => d.str(&format!("{other:?}")),
    }
}
