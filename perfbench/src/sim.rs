//! `sim`: the closed-loop agent ecology of `sim.scenario` (two listings,
//! 160 agents on two connections, re-pricing every 25 ticks) driven by
//! `nimbus_agents::engine::run_scenario` against a live server. The only
//! workload that exercises the agents layer: demand observation, PAVA
//! repair, DP re-solves and hot re-publishes inside a bitwise
//! deterministic tick loop.

use crate::fixture;
use crate::outcome::{agreed, Block, Outcome};
use crate::util::{micros, Digest, Samples};
use nimbus_agents::engine::{run_scenario, SimOutcome};
use nimbus_agents::scenario::Scenario;
use nimbus_market::clock::wall_clock;
use nimbus_market::Marketplace;
use std::time::Instant;

pub const SCENARIO: &str = include_str!("../sim.scenario");

pub struct Size {
    /// Ticks per episode (overrides the scenario file's).
    pub ticks: u64,
    pub min_episodes: usize,
}

pub const FULL: Size = Size {
    ticks: 50,
    min_episodes: 3,
};

/// One short episode: the agents layer's figures beside other workloads.
pub const PROBE: Size = Size {
    ticks: 26,
    min_episodes: 1,
};

pub fn scenario(size: &Size) -> Result<Scenario, String> {
    let mut s = Scenario::parse(SCENARIO).map_err(|e| e.to_string())?;
    s.ticks = size.ticks;
    Ok(s)
}

/// One fresh market and server, one full scenario run, and its checks.
pub struct Episode {
    pub setup: f64,
    pub sim: SimOutcome,
    pub check: Result<String, String>,
    pub server: [u64; 3],
}

pub fn episode(seed: u64, scenario: &Scenario) -> Result<Episode, String> {
    let specs = fixture::specs("sim", seed);
    let t = Instant::now();
    let served = fixture::serve(&specs, None)?;
    let setup = t.elapsed().as_secs_f64();
    let clock = wall_clock();
    let sim = run_scenario(
        scenario,
        seed,
        served.server.local_addr(),
        &served.market,
        &clock,
    )
    .map_err(|e| e.to_string())?;
    let check = check(&served.market, &sim);
    let mut counters = Outcome::new();
    counters.add_server(&served.server);
    Ok(Episode {
        setup,
        sim,
        check,
        server: counters.server,
    })
}

pub fn run(seed: u64, seconds: f64, size: &Size) -> Result<Outcome, String> {
    let mut out = Outcome::new();
    let scenario = scenario(size)?;
    let mut tick_us = Samples::default();
    // One sample per re-price would need the engine to time each one;
    // it reports totals, so each episode contributes its mean.
    let mut reprice_us = Samples::default();
    let mut digests = Vec::new();
    let mut failure = None;
    let (mut quotes, mut commits, mut expired) = (0u64, 0u64, 0u64);
    while out.setups.len() < size.min_episodes || out.measured.as_secs_f64() < seconds {
        crate::util::release_free_memory();
        let ep = episode(seed, &scenario)?;
        out.setups.push(ep.setup);
        for (total, v) in out.server.iter_mut().zip(ep.server) {
            *total += v;
        }
        out.measured += ep.sim.elapsed;
        out.units += ep.sim.records.len() as u64;
        out.attempted += ep.sim.records.len() as u64;
        let tick = micros(ep.sim.elapsed) / ep.sim.records.len().max(1) as f64;
        tick_us.push(tick);
        let mut block = Block {
            unit_us: Samples::default(),
            units: ep.sim.records.len() as u64,
            measured: ep.sim.elapsed,
        };
        block.unit_us.push(tick);
        out.blocks.push(block);
        if ep.sim.reprice_count > 0 {
            reprice_us.push(micros(ep.sim.reprice_total) / ep.sim.reprice_count as f64);
        }
        for r in &ep.sim.records {
            quotes += r.quotes;
            commits += r.commits;
            expired += r.expired;
        }
        match ep.check {
            Ok(d) => digests.push(d),
            Err(e) => {
                failure = Some(e);
                break;
            }
        }
    }
    out.figure(
        "sim_ticks_per_s",
        out.units as f64 / out.measured.as_secs_f64(),
        "1/s",
        out.units as usize,
    );
    out.figure(
        "engine.tick_ms",
        out.measured.as_secs_f64() * 1e3 / out.units.max(1) as f64,
        "ms",
        out.units as usize,
    );
    out.figure(
        "engine.expired",
        expired as f64,
        "count",
        out.units as usize,
    );
    out.figure(
        "engine.commits_per_quote",
        commits as f64 / quotes.max(1) as f64,
        "ratio",
        quotes as usize,
    );
    out.figure(
        "reprice.count",
        reprice_us.len() as f64,
        "count",
        reprice_us.len(),
    );
    out.figure("reprice.mean_us", reprice_us.mean(), "us", reprice_us.len());
    out.figure(
        "episodes",
        out.setups.len() as f64,
        "count",
        out.setups.len(),
    );
    out.check = agreed(failure, digests);
    Ok(out)
}

/// Each listing's ledger is exactly the agents' ACKs (sorted `(tx id,
/// price bits)`); returns the digest of the tick log, which excludes
/// timings and transaction ids and so is fixed for the seed.
pub fn check(market: &Marketplace, sim: &SimOutcome) -> Result<String, String> {
    for (name, acks) in sim.listings.iter().zip(&sim.acked) {
        let broker = market.route(name).map_err(|e| e.to_string())?;
        let mut ledger: Vec<(u64, u64)> = broker
            .ledger()
            .transactions()
            .iter()
            .map(|t| (t.sequence, t.price.to_bits()))
            .collect();
        let mut acked: Vec<(u64, u64)> = acks
            .iter()
            .map(|a| (a.transaction, a.price.to_bits()))
            .collect();
        ledger.sort_unstable();
        acked.sort_unstable();
        if ledger != acked {
            return Err(format!(
                "listing {name}: {} ACKs but {} ledger rows, or they differ",
                acked.len(),
                ledger.len()
            ));
        }
    }
    if sim.records.is_empty() || sim.records.iter().map(|r| r.commits).sum::<u64>() == 0 {
        return Err("the simulation sold nothing".to_string());
    }
    let mut d = Digest::default();
    d.str(&sim.log);
    Ok(d.hex())
}
