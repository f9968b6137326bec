//! The markets each workload serves, built only through public builders,
//! and the server that fronts them.

use nimbus_core::{GaussianMechanism, SnappedGaussianMechanism};
use nimbus_data::{DatasetSpec, PaperDataset};
use nimbus_market::{
    DemandCurve, ListingBuilder, MarketCurves, Marketplace, PurchaseRequest, Seller, ValueCurve,
};
use nimbus_ml::{LinearRegressionTrainer, LogisticRegressionTrainer, LossMetric};
use nimbus_randkit::split_stream;
use nimbus_server::{NimbusServer, ServerConfig};
use std::path::Path;
use std::sync::Arc;

/// Commits a `buy_durable` journal checkpoints after (the whole book is
/// rewritten each time, so its cost grows with the ledger).
pub const CHECKPOINT_EVERY: u64 = 256;
/// A per-buyer precision budget no buy-workload run can exhaust.
pub const UNBINDING_BUDGET: f64 = 1e15;

/// One listing of a workload's market.
#[derive(Clone, Debug)]
pub struct ListingSpec {
    pub name: String,
    pub dataset: PaperDataset,
    pub rows: usize,
    pub points: usize,
    /// Priced in the logistic metric (Monte-Carlo error curve) instead of
    /// the analytic square loss.
    pub logistic: bool,
    /// Snapped discrete Gaussian noise instead of the naive sampler.
    pub snapped: bool,
    /// Per-buyer precision budgets are metered.
    pub metered: bool,
    /// Journalled (fsync before ACK) and checkpointed.
    pub journalled: bool,
    pub seed: u64,
}

impl ListingSpec {
    fn new(name: &str, dataset: PaperDataset, rows: usize, points: usize, seed: u64) -> Self {
        ListingSpec {
            name: name.to_string(),
            dataset,
            rows,
            points,
            logistic: false,
            snapped: false,
            metered: false,
            journalled: false,
            seed,
        }
    }

    pub fn data(&self) -> DatasetSpec {
        DatasetSpec::scaled(self.dataset, self.rows)
    }
}

/// The listings of each workload's market, all derived from `seed`.
pub fn specs(workload: &str, seed: u64) -> Vec<ListingSpec> {
    let s = |label: u64| split_stream(seed, label);
    match workload {
        // Eight square-loss regression listings and one classifier priced
        // in the logistic metric.
        "browse" => {
            let mut v: Vec<ListingSpec> = (0..8)
                .map(|i| {
                    ListingSpec::new(
                        &format!("sim1-{i}"),
                        PaperDataset::Simulated1,
                        2_000,
                        50,
                        s(i),
                    )
                })
                .collect();
            let mut cov = ListingSpec::new("covtype", PaperDataset::CovType, 2_000, 50, s(8));
            cov.logistic = true;
            v.push(cov);
            v
        }
        "buy" | "buy_durable" => {
            let mut l = ListingSpec::new("yearmsd", PaperDataset::YearMsd, 4_000, 50, s(20));
            l.snapped = true;
            l.metered = true;
            l.journalled = workload == "buy_durable";
            vec![l]
        }
        "reprice" => vec![ListingSpec::new(
            "menu2k",
            PaperDataset::Simulated1,
            400,
            2_000,
            s(30),
        )],
        "sim" => vec![
            ListingSpec::new("alpha", PaperDataset::Simulated1, 400, 16, s(40)),
            ListingSpec::new("beta", PaperDataset::Simulated1, 400, 16, s(41)),
        ],
        other => panic!("no market for workload {other:?}"),
    }
}

/// Materializes the listing's data and configures its builder.
pub fn listing_builder(
    spec: &ListingSpec,
    journal_root: Option<&Path>,
) -> Result<ListingBuilder, String> {
    let (tt, _) = spec
        .data()
        .materialize(spec.seed)
        .map_err(|e| e.to_string())?;
    let test = tt.test.clone();
    let seller = Seller::new(
        &spec.name,
        tt,
        MarketCurves::new(ValueCurve::standard_concave(), DemandCurve::Uniform),
    );
    let mut b = ListingBuilder::new(&spec.name, seller)
        .n_price_points(spec.points)
        .error_curve_samples(50)
        .seed(spec.seed);
    b = if spec.logistic {
        b.trainer(LogisticRegressionTrainer::new(1e-4))
            .model_kind("logistic_regression")
            .error_metric(LossMetric::logistic(test))
    } else {
        b.trainer(LinearRegressionTrainer::ridge(1e-6))
    };
    b = if spec.snapped {
        b.mechanism(SnappedGaussianMechanism)
            .mechanism_name("snapped_gaussian")
    } else {
        b.mechanism(GaussianMechanism)
    };
    if spec.metered {
        b = b.buyer_budget(UNBINDING_BUDGET);
    }
    if spec.journalled {
        let root = journal_root.ok_or("a journalled listing needs a journal directory")?;
        b = b
            .journal_root(root)
            .journal_checkpoint_every(CHECKPOINT_EVERY);
    }
    Ok(b)
}

/// A serving market: the marketplace and the TCP server in front of it.
/// Dropping it shuts the server down.
pub struct Served {
    pub market: Arc<Marketplace>,
    pub server: NimbusServer,
    pub names: Vec<String>,
}

/// Workers sized to the machine, as the client side is.
pub fn server_config() -> ServerConfig {
    ServerConfig {
        shards: nproc(),
        workers_per_shard: 1,
        queue_capacity: 4096,
        ..ServerConfig::default()
    }
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// From nothing to serving: materialize, train, error curve, DP, post-φ
/// arbitrage check (inside `open_listings`), server bound.
pub fn serve(specs: &[ListingSpec], journal_root: Option<&Path>) -> Result<Served, String> {
    let market = Arc::new(market(specs, journal_root)?);
    let names: Vec<String> = specs.iter().map(|s| s.name.clone()).collect();
    let server = NimbusServer::start(
        market.clone(),
        names[0].clone(),
        "127.0.0.1:0",
        server_config(),
    )
    .map_err(|e| e.to_string())?;
    Ok(Served {
        market,
        server,
        names,
    })
}

/// [`serve`], with its wall time appended to `times`.
pub fn timed_serve(
    specs: &[ListingSpec],
    journal_root: Option<&Path>,
    times: &mut Vec<f64>,
) -> Result<Served, String> {
    let t = std::time::Instant::now();
    let served = serve(specs, journal_root)?;
    times.push(t.elapsed().as_secs_f64());
    Ok(served)
}

/// The published marketplace alone, without a server.
pub fn market(specs: &[ListingSpec], journal_root: Option<&Path>) -> Result<Marketplace, String> {
    let builders = specs
        .iter()
        .map(|s| listing_builder(s, journal_root))
        .collect::<Result<Vec<_>, _>>()?;
    Marketplace::open_listings(builders).map_err(|e| e.to_string())
}

/// What a client may know about a listing from its public menu: the
/// ranges from which always-satisfiable purchase requests are drawn.
#[derive(Clone, Debug)]
pub struct Ranges {
    pub x: (f64, f64),
    pub error: (f64, f64),
    pub price: (f64, f64),
}

pub fn ranges(market: &Marketplace, name: &str) -> Result<Ranges, String> {
    let broker = market.route(name).map_err(|e| e.to_string())?;
    let menu = broker.posted_menu().map_err(|e| e.to_string())?;
    let (x_lo, x_hi) = (menu[0].0, menu[menu.len() - 1].0);
    let (p_lo, p_hi) = (menu[0].1, menu[menu.len() - 1].1);
    let err = |x: f64| {
        market
            .quote_request(name, PurchaseRequest::AtInverseNcp(x))
            .map(|q| q.expected_error)
            .map_err(|e| e.to_string())
    };
    let (e_best, e_worst) = (err(x_hi)?, err(x_lo)?);
    Ok(Ranges {
        x: (x_lo, x_hi),
        error: (e_best.min(e_worst), e_best.max(e_worst)),
        price: (p_lo, p_hi),
    })
}

impl Ranges {
    /// One of the three §3.2 purchase options, drawn so that some posted
    /// version always satisfies it.
    pub fn request(&self, rng: &mut crate::util::Rng) -> PurchaseRequest {
        match rng.below(3) {
            0 => PurchaseRequest::AtInverseNcp(rng.range(self.x.0, self.x.1)),
            1 => PurchaseRequest::ErrorBudget(rng.range(self.error.0, self.error.1) * (1.0 + 1e-9)),
            _ => PurchaseRequest::PriceBudget(rng.range(self.price.0, self.price.1) * (1.0 + 1e-9)),
        }
    }
}
