//! The traced run (`--trace 1`): per-layer metrics.
//!
//! It has three parts. A shortened untraced socket run of the workload
//! supplies the client-observed figures the layer table is reconciled
//! against, the server's STATS counters and the generator's lateness.
//! An in-process replay of the workload's seeded request stream then
//! records one span per public call, with no sockets: wire decode and
//! encode, `Marketplace::route`, `Broker::quote_request` per option and,
//! for purchases, the commit calls. Last, probes time the public calls
//! of the layers the replay does not reach, on the same market: budget
//! charge and refund, the listing's noise mechanism, a scratch journal,
//! re-pricing (DP and post-φ arbitrage check) and set-up (materialize,
//! train, error curve). The agents layer comes from `sim` episodes.
//!
//! Spans stay in memory and are written to `.perfbench_out/` when the
//! run ends. The stream's QUOTEs are replayed again with spans off and on,
//! alternating; the difference is the tracing overhead.

use crate::drive::JobSpec;
use crate::fixture::{self, ListingSpec};
use crate::outcome::Outcome;
use crate::util::{Rng, Samples, ScratchDir};
use crate::{browse, buy, reprice, sim};
use nimbus_core::arbitrage::check_arbitrage_free_after_phi;
use nimbus_core::{
    CurveProvider, GaussianMechanism, InverseNcp, RandomizedMechanism, SnappedGaussianMechanism,
};
use nimbus_market::{
    BatchCommitItem, BuyerAccounts, FaultPlan, Journal, Marketplace, PurchaseRequest, SaleRecord,
    Transaction,
};
use nimbus_ml::{
    ErrorMetric, LinearRegressionTrainer, LogisticRegressionTrainer, LossMetric,
    SquareDistanceMetric, Trainer,
};
use nimbus_optim::solve_revenue_dp;
use nimbus_server::wire::{
    self, BatchCommitMsg, BatchOutcomeMsg, QuoteMsg, Request, Response, SaleMsg,
};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

/// Every per-layer metric, in report order, with its unit.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("wire.quote_decode_ns", "ns"),
    ("wire.quote_encode_ns", "ns"),
    ("wire.sale_encode_ns", "ns"),
    ("wire.sale_decode_ns", "ns"),
    ("wire.batch_encode_us", "us"),
    ("server.transport_us", "us"),
    ("server.busy_rejections", "count"),
    ("server.timeout_sheds", "count"),
    ("server.requests", "count"),
    ("marketplace.route_ns", "ns"),
    ("broker.quote_ns.at_x", "ns"),
    ("broker.quote_ns.error_budget", "ns"),
    ("broker.quote_ns.price_budget", "ns"),
    ("broker.commit_us", "us"),
    ("broker.commit_batch_us", "us"),
    ("broker.self_us", "us"),
    ("account.charge_refund_ns", "ns"),
    ("mechanism.perturb_us", "us"),
    ("journal.append_us", "us"),
    ("journal.append16_us", "us"),
    ("journal.checkpoint_ms", "ms"),
    ("journal.checkpoint_bytes", "bytes"),
    ("broker.republish_ms", "ms"),
    ("dp.solve_ms", "ms"),
    ("arbitrage.check_ms", "ms"),
    ("curve_provider.curve_ms", "ms"),
    ("trainer.train_ms", "ms"),
    ("dataset.materialize_ms", "ms"),
    ("engine.tick_ms", "ms"),
    ("engine.expired", "count"),
    ("engine.commits_per_quote", "ratio"),
    ("reprice.count", "count"),
    ("reprice.mean_us", "us"),
    ("loadgen.late_p99_us", "us"),
    ("loadgen.expired_requotes", "count"),
    ("trace.overhead_pct", "%"),
];

/// Requests per connection stream that the replay re-executes.
const REPLAY_JOBS: usize = 2_048;
/// Commits (and 16-item batches) the commit-path probe makes on
/// workloads whose stream has no purchases.
const PROBE_COMMITS: usize = 256;
const PROBE_BATCHES: usize = 8;
const PROBE_CALLS: usize = 512;
const PROBE_APPENDS: usize = 128;
const PROBE_REPRICES: usize = 6;
const CHECKPOINTS: usize = 3;
/// Alternating untraced/traced replays behind the overhead figure.
const OVERHEAD_ROUNDS: usize = 5;

struct Span {
    name: &'static str,
    start: u64,
    end: u64,
    /// Index + 1 of the enclosing span; 0 for a root.
    parent: u32,
    req: u64,
}

/// In-memory span recorder. With `on == false` it only runs the closures,
/// which is the baseline the tracing overhead is measured against.
pub struct Tracer {
    origin: Instant,
    on: bool,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Tracer {
    fn new(on: bool) -> Tracer {
        Tracer {
            origin: Instant::now(),
            on,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn span<R>(&mut self, name: &'static str, req: u64, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len() as u32;
        let parent = self.stack.last().map_or(0, |p| p + 1);
        let start = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent,
            req,
        });
        self.stack.push(idx);
        let r = f(self);
        self.stack.pop();
        self.spans[idx as usize].end = self.origin.elapsed().as_nanos() as u64;
        r
    }

    /// Durations of every span named one of `names`, in ns.
    fn durations(&self, names: &[&str]) -> Samples {
        let mut s = Samples::default();
        for sp in self.spans.iter().filter(|sp| names.contains(&sp.name)) {
            s.push((sp.end - sp.start) as f64);
        }
        s
    }

    fn median(&self, name: &str) -> f64 {
        self.durations(&[name]).pct(0.5).value
    }

    fn total(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|sp| sp.name == name)
            .map(|sp| (sp.end - sp.start) as f64)
            .sum()
    }

    /// Self time per layer (the span name up to its first `.`): each
    /// span's duration minus the part its children cover.
    fn self_time_by_layer(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for sp in &self.spans {
            if sp.parent > 0 {
                child_ns[sp.parent as usize - 1] += sp.end - sp.start;
            }
        }
        let mut by_layer: BTreeMap<&'static str, f64> = BTreeMap::new();
        for (sp, child) in self.spans.iter().zip(child_ns) {
            let layer = sp.name.split('.').next().unwrap_or(sp.name);
            *by_layer.entry(layer).or_default() += (sp.end - sp.start).saturating_sub(child) as f64;
        }
        by_layer
    }

    fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut text = String::from("id\tparent\treq\tname\tstart_ns\tend_ns\n");
        for (i, sp) in self.spans.iter().enumerate() {
            let _ = writeln!(
                text,
                "{}\t{}\t{}\t{}\t{}\t{}",
                i + 1,
                sp.parent,
                sp.req,
                sp.name,
                sp.start,
                sp.end
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, text)
    }
}

fn quote_span(request: &PurchaseRequest) -> &'static str {
    match request {
        PurchaseRequest::AtInverseNcp(_) => "broker.quote.at_x",
        PurchaseRequest::ErrorBudget(_) => "broker.quote.error_budget",
        PurchaseRequest::PriceBudget(_) => "broker.quote.price_budget",
    }
}

fn quote_path(
    market: &Marketplace,
    name: &str,
    request: PurchaseRequest,
    corr: u64,
    t: &mut Tracer,
) -> Result<QuoteMsg, String> {
    let frame = Request::Quote {
        listing: Some(name.to_string()),
        request,
    }
    .encode_with_corr(corr);
    let (corr, decoded) = t
        .span("wire.quote_decode", corr, |_| {
            Request::decode_framed(black_box(&frame))
        })
        .map_err(|e| e.to_string())?;
    let Request::Quote { listing, request } = decoded else {
        return Err("QUOTE frame decoded to another request".to_string());
    };
    let listing = listing.unwrap_or_default();
    let broker = t
        .span("marketplace.route", corr, |_| {
            market.route(black_box(&listing))
        })
        .map_err(|e| e.to_string())?;
    let q = t
        .span(quote_span(&request), corr, |_| {
            broker.quote_request(black_box(request))
        })
        .map_err(|e| e.to_string())?;
    let msg = QuoteMsg {
        x: q.x,
        delta: q.delta,
        price: q.price,
        expected_error: q.expected_error,
        metric: q.metric.to_string(),
        snapshot_epoch: q.snapshot_epoch,
        listing,
    };
    let response = Response::Quote(msg.clone());
    let bytes = t.span("wire.quote_encode", corr, |_| {
        response.encode_versioned(wire::VERSION, corr)
    });
    match Response::decode_framed(&bytes) {
        Ok((c, back)) if c == corr && back == response => Ok(msg),
        other => Err(format!(
            "QUOTE answer does not survive the codec: {other:?}"
        )),
    }
}

fn sale_msg(sale: &nimbus_market::Sale) -> SaleMsg {
    SaleMsg {
        inverse_ncp: sale.inverse_ncp,
        price: sale.price,
        expected_error: sale.expected_error,
        metric: sale.metric.to_string(),
        transaction: sale.transaction.sequence,
        weights: sale.model.weights().as_slice().to_vec(),
    }
}

fn commit_path(
    market: &Marketplace,
    q: &QuoteMsg,
    buyer: u64,
    nonce: u64,
    corr: u64,
    t: &mut Tracer,
) -> Result<(), String> {
    let frame = Request::Commit {
        listing: Some(q.listing.clone()),
        x: q.x,
        snapshot_epoch: q.snapshot_epoch,
        payment: q.price,
        nonce: Some(nonce),
        buyer: Some(buyer),
    }
    .encode_with_corr(corr);
    let (corr, decoded) = t
        .span("wire.commit_decode", corr, |_| {
            Request::decode_framed(black_box(&frame))
        })
        .map_err(|e| e.to_string())?;
    let Request::Commit {
        listing: Some(listing),
        x,
        snapshot_epoch,
        payment,
        nonce: Some(nonce),
        buyer,
    } = decoded
    else {
        return Err("COMMIT frame decoded to another request".to_string());
    };
    let broker = market.route(&listing).map_err(|e| e.to_string())?;
    let sale = t
        .span("broker.commit", corr, |_| {
            broker.commit_at_idempotent_for(x, snapshot_epoch, payment, nonce, buyer)
        })
        .map_err(|e| e.to_string())?;
    if sale.price.to_bits() != q.price.to_bits() {
        return Err(format!(
            "in-process sale charged {} for a quote of {}",
            sale.price, q.price
        ));
    }
    let response = Response::Commit(sale_msg(&sale));
    let bytes = t.span("wire.sale_encode", corr, |_| {
        response.encode_versioned(wire::VERSION, corr)
    });
    let back = t.span("wire.sale_decode", corr, |_| {
        Response::decode_framed(black_box(&bytes))
    });
    match back {
        Ok((c, back)) if c == corr && back == response => Ok(()),
        other => Err(format!(
            "COMMIT answer does not survive the codec: {other:?}"
        )),
    }
}

fn batch_path(
    market: &Marketplace,
    quotes: &[QuoteMsg],
    buyers: &[u64],
    nonces: &[u64],
    corr: u64,
    t: &mut Tracer,
) -> Result<(), String> {
    let broker = market
        .route(&quotes[0].listing)
        .map_err(|e| e.to_string())?;
    let items: Vec<BatchCommitItem> = quotes
        .iter()
        .zip(buyers.iter().zip(nonces))
        .map(|(q, (b, n))| BatchCommitItem {
            x: q.x,
            snapshot_epoch: q.snapshot_epoch,
            payment: q.price,
            nonce: Some(*n),
            buyer: Some(*b),
        })
        .collect();
    let sales = t.span("broker.commit_batch", corr, |_| {
        broker.commit_batch_at(black_box(&items))
    });
    let mut outcomes = Vec::with_capacity(sales.len());
    for s in sales {
        outcomes.push(BatchOutcomeMsg::Sale(sale_msg(
            &s.map_err(|e| e.to_string())?,
        )));
    }
    let response = Response::BatchCommit(BatchCommitMsg { items: outcomes });
    let bytes = t.span("wire.batch_encode", corr, |_| {
        response.encode_versioned(wire::VERSION, corr)
    });
    match Response::decode_framed(&bytes) {
        Ok((_, back)) if back == response => Ok(()),
        other => Err(format!(
            "BATCH_COMMIT answer does not survive the codec: {other:?}"
        )),
    }
}

/// Re-executes `jobs` in-process, one root span per job.
fn replay(
    market: &Marketplace,
    jobs: &[JobSpec],
    first_corr: u64,
    t: &mut Tracer,
) -> Result<(), String> {
    for (i, job) in jobs.iter().enumerate() {
        let corr = first_corr + i as u64;
        t.span("job", corr, |t| -> Result<(), String> {
            match job {
                JobSpec::Read(Request::Quote { listing, request }) => {
                    quote_path(
                        market,
                        listing.as_deref().unwrap_or_default(),
                        *request,
                        corr,
                        t,
                    )?;
                }
                JobSpec::Read(Request::Menu { listing }) => {
                    let name = listing.as_deref().unwrap_or_default();
                    let broker = t
                        .span("marketplace.route", corr, |_| market.route(name))
                        .map_err(|e| e.to_string())?;
                    let menu = t.span("broker.menu", corr, |_| broker.posted_menu());
                    black_box(menu.map_err(|e| e.to_string())?);
                }
                JobSpec::Read(other) => return Err(format!("no replay for {}", other.op_name())),
                JobSpec::Purchase {
                    listing,
                    request,
                    buyer,
                    nonce,
                } => {
                    let q = quote_path(market, listing, *request, corr, t)?;
                    commit_path(market, &q, *buyer, *nonce, corr, t)?;
                }
                JobSpec::Batch {
                    listing,
                    requests,
                    buyers,
                    nonces,
                } => {
                    let quotes = requests
                        .iter()
                        .map(|r| quote_path(market, listing, *r, corr, t))
                        .collect::<Result<Vec<_>, _>>()?;
                    batch_path(market, &quotes, buyers, nonces, corr, t)?;
                }
            }
            Ok(())
        })
        .map_err(|e| format!("replayed request {i}: {e}"))?;
    }
    Ok(())
}

/// The workload's replayed stream. Workloads whose stream sells nothing
/// get purchases and batches drawn from their own quote stream, so the
/// commit path is timed on their own listing.
fn replay_jobs(
    workload: &str,
    seed: u64,
    market: &Marketplace,
    specs: &[ListingSpec],
) -> Result<Vec<JobSpec>, String> {
    let names: Vec<String> = specs.iter().map(|s| s.name.clone()).collect();
    let ranges = names
        .iter()
        .map(|n| fixture::ranges(market, n))
        .collect::<Result<Vec<_>, _>>()?;
    let mut jobs = match workload {
        "buy" | "buy_durable" => {
            let [singles, batches] = buy::streams(seed, &names[0], &ranges[0], &buy::FULL);
            singles.into_iter().chain(batches).collect()
        }
        "reprice" => reprice::stream(seed, &names[0], &ranges[0], REPLAY_JOBS),
        _ => browse::stream(seed, 0, &names, &ranges, REPLAY_JOBS),
    };
    if !jobs.iter().any(|j| matches!(j, JobSpec::Batch { .. })) {
        let mut rng = Rng::new(seed, 0x7E_0001);
        let name = &names[0];
        for i in 0..PROBE_COMMITS {
            jobs.push(JobSpec::Purchase {
                listing: name.clone(),
                request: ranges[0].request(&mut rng),
                buyer: 1 + (i % 16) as u64,
                nonce: 5_000_000 + i as u64,
            });
        }
        for b in 0..PROBE_BATCHES {
            jobs.push(JobSpec::Batch {
                listing: name.clone(),
                requests: (0..buy::BATCH)
                    .map(|_| ranges[0].request(&mut rng))
                    .collect(),
                buyers: (0..buy::BATCH).map(|k| 101 + k as u64).collect(),
                nonces: (0..buy::BATCH)
                    .map(|k| 6_000_000 + (b * buy::BATCH + k) as u64)
                    .collect(),
            });
        }
    }
    Ok(jobs)
}

fn mechanism(spec: &ListingSpec) -> Box<dyn RandomizedMechanism + Sync> {
    if spec.snapped {
        Box::new(SnappedGaussianMechanism)
    } else {
        Box::new(GaussianMechanism)
    }
}

/// Set-up layers, one span per listing per call.
fn probe_setup(market: &Marketplace, specs: &[ListingSpec], t: &mut Tracer) -> Result<(), String> {
    for spec in specs {
        let (tt, _) = t
            .span("dataset.materialize", 0, |_| {
                spec.data().materialize(spec.seed)
            })
            .map_err(|e| e.to_string())?;
        let trainer: Box<dyn Trainer> = if spec.logistic {
            Box::new(LogisticRegressionTrainer::new(1e-4))
        } else {
            Box::new(LinearRegressionTrainer::ridge(1e-6))
        };
        let model = t
            .span("trainer.train", 0, |_| trainer.train(&tt.train))
            .map_err(|e| e.to_string())?;
        let broker = market.route(&spec.name).map_err(|e| e.to_string())?;
        let snap = broker.snapshot().ok_or("listing has no snapshot")?;
        let deltas = snap
            .error_curve()
            .points()
            .iter()
            .map(|p| InverseNcp::new(p.inverse).map(|x| x.ncp()))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| e.to_string())?;
        let metric: Box<dyn ErrorMetric> = if spec.logistic {
            Box::new(LossMetric::logistic(tt.test.clone()))
        } else {
            Box::new(SquareDistanceMetric::new(model.clone()))
        };
        let mech = mechanism(spec);
        let provider = CurveProvider::new(50, spec.seed);
        t.span("curve_provider.curve", 0, |_| {
            provider.curve_for(metric.as_ref(), mech.as_ref(), &model, &deltas)
        })
        .map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// Budget, mechanism and journal layers on the workload's first listing.
fn probe_commit_layers(
    workload: &str,
    seed: u64,
    market: &Marketplace,
    spec: &ListingSpec,
    t: &mut Tracer,
) -> Result<u64, String> {
    let broker = market.route(&spec.name).map_err(|e| e.to_string())?;
    let ranges = fixture::ranges(market, &spec.name)?;
    let mut rng = Rng::new(seed, 0x7E_0002);
    let xs: Vec<f64> = (0..PROBE_CALLS)
        .map(|_| rng.range(ranges.x.0, ranges.x.1))
        .collect();

    let accounts = BuyerAccounts::new(Some(fixture::UNBINDING_BUDGET));
    for (i, x) in xs.iter().enumerate() {
        t.span(
            "account.charge_refund",
            i as u64,
            |_| -> Result<(), String> {
                accounts
                    .charge(1 + (i % 16) as u64, *x)
                    .map_err(|e| e.to_string())?;
                accounts.refund(1 + (i % 16) as u64, *x);
                Ok(())
            },
        )?;
    }

    let optimal = broker.optimal_model().map_err(|e| e.to_string())?;
    let mech = mechanism(spec);
    for (i, x) in xs.iter().enumerate() {
        let ncp = InverseNcp::new(*x).map_err(|e| e.to_string())?.ncp();
        let mut r = nimbus_randkit::seeded_rng(nimbus_randkit::split_stream(seed, i as u64));
        let model = t
            .span("mechanism.perturb", i as u64, |_| {
                mech.perturb(&optimal, ncp, &mut r)
            })
            .map_err(|e| e.to_string())?;
        black_box(model);
    }

    let dir = ScratchDir::new("trace-journal").map_err(|e| e.to_string())?;
    let (mut journal, _) = Journal::open(dir.path().join("probe.log"), 0, FaultPlan::new())
        .map_err(|e| e.to_string())?;
    let record = |i: usize| {
        let x = xs[i % xs.len()];
        SaleRecord {
            transaction: Transaction {
                sequence: i as u64,
                inverse_ncp: x,
                price: x * 0.5,
                expected_error: 1.0 / x,
            },
            snapshot_epoch: 1,
            nonce: Some(i as u64 + 1),
            buyer: Some(1 + (i % 16) as u64),
        }
    };
    let mut next = 0usize;
    for _ in 0..PROBE_APPENDS {
        let r = record(next);
        next += 1;
        t.span("journal.append", next as u64, |_| journal.append_sale(&r))
            .map_err(|e| e.to_string())?;
    }
    for _ in 0..PROBE_APPENDS / 4 {
        let rs: Vec<SaleRecord> = (next..next + buy::BATCH).map(record).collect();
        next += buy::BATCH;
        for r in t.span("journal.append16", next as u64, |_| {
            journal.append_sales(&rs)
        }) {
            r.map_err(|e| e.to_string())?;
        }
    }
    // The checkpoint rewrites the whole book: time it at the ledger size
    // a run of this workload ends with.
    let ledger = if matches!(workload, "buy" | "buy_durable") {
        buy::FULL.singles + buy::FULL.batches * buy::BATCH
    } else {
        next
    };
    while next < ledger {
        let rs: Vec<SaleRecord> = (next..(next + 256).min(ledger)).map(record).collect();
        next += rs.len();
        for r in journal.append_sales(&rs) {
            r.map_err(|e| e.to_string())?;
        }
    }
    for i in 0..CHECKPOINTS {
        t.span("journal.checkpoint", i as u64, |_| journal.checkpoint())
            .map_err(|e| e.to_string())?;
    }
    Ok(journal.durable_len())
}

/// Re-pricing layers: `republish_pricing` whole, and its DP and post-φ
/// check as separate calls on the same problems.
fn probe_reprice(
    seed: u64,
    market: &Marketplace,
    name: &str,
    t: &mut Tracer,
) -> Result<(), String> {
    let broker = market.route(name).map_err(|e| e.to_string())?;
    let snap = broker.snapshot().ok_or("listing has no snapshot")?;
    let base = snap.problem().clone();
    let curve = snap.error_curve().clone();
    for k in 0..PROBE_REPRICES {
        let problem = reprice::perturbed(&base, seed, k)?;
        t.span("broker.republish", k as u64, |_| {
            market.republish_pricing(name, problem.clone())
        })
        .map_err(|e| e.to_string())?;
        t.span("dp.solve", k as u64, |_| solve_revenue_dp(&problem))
            .map_err(|e| e.to_string())?;
        let broker = market.route(name).map_err(|e| e.to_string())?;
        let pricing = broker
            .snapshot()
            .ok_or("listing has no snapshot")?
            .pricing();
        let report = t
            .span("arbitrage.check", k as u64, |_| {
                check_arbitrage_free_after_phi(pricing, &curve, 1e-6)
            })
            .map_err(|e| e.to_string())?;
        if !report.is_arbitrage_free() {
            return Err(format!(
                "re-priced menu {k} fails the post-φ arbitrage check"
            ));
        }
    }
    Ok(())
}

/// Extra wall time the spans cost, in percent of the untraced replay.
/// Measured on the stream's QUOTEs alone, which leave the books as they
/// were, so the two sides can alternate on one market and the fsync
/// noise of the commit path stays out of the comparison.
fn tracing_overhead_pct(market: &Marketplace, jobs: &[JobSpec]) -> Result<f64, String> {
    let quotes: Vec<JobSpec> = jobs
        .iter()
        .flat_map(|j| match j {
            JobSpec::Read(Request::Quote { .. }) => vec![j.clone()],
            JobSpec::Read(_) => Vec::new(),
            JobSpec::Purchase {
                listing, request, ..
            } => vec![quote_job(listing, *request)],
            JobSpec::Batch {
                listing, requests, ..
            } => requests.iter().map(|r| quote_job(listing, *r)).collect(),
        })
        .collect();
    let (mut plain, mut traced) = (Samples::default(), Samples::default());
    for _ in 0..OVERHEAD_ROUNDS {
        for (on, samples) in [(false, &mut plain), (true, &mut traced)] {
            let mut t = Tracer::new(on);
            let start = Instant::now();
            replay(market, &quotes, 1, &mut t)?;
            samples.push(start.elapsed().as_nanos() as f64);
        }
    }
    let (plain, traced) = (plain.pct(0.5).value, traced.pct(0.5).value);
    Ok((traced - plain) / plain * 100.0)
}

fn quote_job(listing: &str, request: PurchaseRequest) -> JobSpec {
    JobSpec::Read(Request::Quote {
        listing: Some(listing.to_string()),
        request,
    })
}

fn untraced(workload: &str, seed: u64, seconds: f64) -> Result<Outcome, String> {
    match workload {
        "browse" => browse::run(seed, seconds, &browse::FULL),
        w @ ("buy" | "buy_durable") => buy::run(w, seed, seconds, &buy::FULL),
        "reprice" => reprice::run(seed, seconds, &reprice::FULL),
        _ => sim::run(seed, seconds, &sim::FULL),
    }
}

pub fn run(workload: &str, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let short = (seconds / 2.0).clamp(1.0, 3.0);
    let mut socket = untraced(workload, seed, short)?;
    // The agents layer: the sim workload's own episodes, or one short
    // episode beside the other workloads.
    let agents = if workload == "sim" {
        // The engine times no single request: the transport figure comes
        // from a browse-style QUOTE loop on the sim market.
        let quotes = browse::run_on(&fixture::specs("sim", seed), seed, short, &browse::FULL)?;
        for k in ["quote_p50_us", "loadgen.late_p99_us"] {
            socket.figure(
                k,
                quotes.get(k).unwrap_or(0.0),
                "us",
                quotes.attempted as usize,
            );
        }
        for (total, v) in socket.server.iter_mut().zip(quotes.server) {
            *total += v;
        }
        if let Err(e) = quotes.check {
            socket.check = Err(format!("QUOTE loop on the sim market: {e}"));
        }
        None
    } else {
        Some(sim::run(seed, 0.0, &sim::PROBE)?)
    };

    let specs = fixture::specs(workload, seed);
    let dir = ScratchDir::new("trace").map_err(|e| e.to_string())?;
    let journal_root = specs.iter().any(|s| s.journalled).then(|| dir.path());
    let traced = fixture::market(&specs, journal_root)?;
    let jobs = replay_jobs(workload, seed, &traced, &specs)?;
    let mut t = Tracer::new(true);
    replay(&traced, &jobs, 1, &mut t)?;
    let overhead_pct = tracing_overhead_pct(&traced, &jobs)?;

    probe_setup(&traced, &specs, &mut t)?;
    let checkpoint_bytes = probe_commit_layers(workload, seed, &traced, &specs[0], &mut t)?;
    probe_reprice(seed, &traced, &specs[0].name, &mut t)?;

    let mut out = Outcome::new();
    out.attempted = socket.attempted + jobs.len() as u64;
    out.failed = socket.failed;
    out.server = socket.server;
    out.check = socket.check.clone();
    let ns = |name: &str| t.median(name);
    let us = |name: &str| t.median(name) / 1e3;
    let ms = |name: &str| t.median(name) / 1e6;
    let per_setup_ms = |name: &str| t.total(name) / 1e6;
    let f = |out: &mut Outcome, name: &str, v: f64| {
        let unit = PER_LAYER
            .iter()
            .find(|(n, _)| *n == name)
            .map_or("", |(_, u)| *u);
        out.figure(name, v, unit, 1);
    };
    f(&mut out, "wire.quote_decode_ns", ns("wire.quote_decode"));
    f(&mut out, "wire.quote_encode_ns", ns("wire.quote_encode"));
    f(&mut out, "wire.sale_encode_ns", ns("wire.sale_encode"));
    f(&mut out, "wire.sale_decode_ns", ns("wire.sale_decode"));
    f(&mut out, "wire.batch_encode_us", us("wire.batch_encode"));
    let quote_ns = t
        .durations(&[
            "broker.quote.at_x",
            "broker.quote.error_budget",
            "broker.quote.price_budget",
        ])
        .pct(0.5)
        .value;
    let in_process_quote_us =
        (ns("wire.quote_decode") + ns("marketplace.route") + quote_ns + ns("wire.quote_encode"))
            / 1e3;
    let quote_p50 = socket.get("quote_p50_us").unwrap_or(0.0);
    f(
        &mut out,
        "server.transport_us",
        quote_p50 - in_process_quote_us,
    );
    f(&mut out, "server.busy_rejections", socket.server[0] as f64);
    f(&mut out, "server.timeout_sheds", socket.server[1] as f64);
    f(&mut out, "server.requests", socket.server[2] as f64);
    f(&mut out, "marketplace.route_ns", ns("marketplace.route"));
    f(&mut out, "broker.quote_ns.at_x", ns("broker.quote.at_x"));
    f(
        &mut out,
        "broker.quote_ns.error_budget",
        ns("broker.quote.error_budget"),
    );
    f(
        &mut out,
        "broker.quote_ns.price_budget",
        ns("broker.quote.price_budget"),
    );
    f(&mut out, "broker.commit_us", us("broker.commit"));
    f(
        &mut out,
        "broker.commit_batch_us",
        us("broker.commit_batch"),
    );
    // What the commit leaves after the noise draw, the budget charge and
    // (when journalled) the durable append: dedup, ledger, locks.
    let journalled = specs[0].journalled;
    let broker_self = us("broker.commit")
        - us("mechanism.perturb")
        - ns("account.charge_refund") / 1e3
        - if journalled {
            us("journal.append")
        } else {
            0.0
        };
    f(&mut out, "broker.self_us", broker_self);
    f(
        &mut out,
        "account.charge_refund_ns",
        ns("account.charge_refund"),
    );
    f(&mut out, "mechanism.perturb_us", us("mechanism.perturb"));
    f(&mut out, "journal.append_us", us("journal.append"));
    f(&mut out, "journal.append16_us", us("journal.append16"));
    f(&mut out, "journal.checkpoint_ms", ms("journal.checkpoint"));
    f(
        &mut out,
        "journal.checkpoint_bytes",
        checkpoint_bytes as f64,
    );
    f(&mut out, "broker.republish_ms", ms("broker.republish"));
    f(&mut out, "dp.solve_ms", ms("dp.solve"));
    f(&mut out, "arbitrage.check_ms", ms("arbitrage.check"));
    f(
        &mut out,
        "curve_provider.curve_ms",
        per_setup_ms("curve_provider.curve"),
    );
    f(&mut out, "trainer.train_ms", per_setup_ms("trainer.train"));
    f(
        &mut out,
        "dataset.materialize_ms",
        per_setup_ms("dataset.materialize"),
    );
    let engine = agents.as_ref().unwrap_or(&socket);
    for name in [
        "engine.tick_ms",
        "engine.expired",
        "engine.commits_per_quote",
        "reprice.count",
        "reprice.mean_us",
    ] {
        f(
            &mut out,
            name,
            engine
                .get(name)
                .ok_or(format!("agents figure {name} missing"))?,
        );
    }
    f(
        &mut out,
        "loadgen.late_p99_us",
        socket.get("loadgen.late_p99_us").unwrap_or(0.0),
    );
    f(
        &mut out,
        "loadgen.expired_requotes",
        socket.get("loadgen.expired_requotes").unwrap_or(0.0),
    );
    f(&mut out, "trace.overhead_pct", overhead_pct);

    for (layer, total_ns) in t.self_time_by_layer() {
        out.figure(
            &format!("self.{layer}_us_per_job"),
            total_ns / 1e3 / jobs.len() as f64,
            "us",
            jobs.len(),
        );
    }
    if let Some(agents) = &agents {
        if let Err(e) = &agents.check {
            out.check = Err(format!("agents probe: {e}"));
        }
    }
    let path = std::path::Path::new(".perfbench_out").join(format!("trace-{workload}-{seed}.tsv"));
    t.write(&path).map_err(|e| format!("writing spans: {e}"))?;
    out.note("spans", path.display());
    Ok(out)
}

/// The result line's metrics: every per-layer figure, in table order.
pub fn metrics(out: &Outcome) -> Vec<crate::util::Metric> {
    PER_LAYER
        .iter()
        .map(|(name, unit)| crate::util::metric(name, out.get(name).unwrap_or(f64::NAN), unit))
        .collect()
}
