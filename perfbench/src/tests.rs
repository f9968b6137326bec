//! Self-tests: every workload at smoke size with its output checks, and
//! each check shown to fail on a corrupted output.

use crate::drive::{self, JobResult, JobSpec};
use crate::{browse, buy, fixture, reprice, sim, trace};
use nimbus_server::wire::Response;
use std::time::{Duration, Instant};

fn flip_low_bit(v: &mut f64) {
    *v = f64::from_bits(v.to_bits() ^ 1);
}

#[test]
fn browse_smoke_passes_its_check_with_a_seed_fixed_digest() {
    let size = browse::Size {
        rate_per_conn: 400.0,
        episode: Duration::from_millis(300),
        min_episodes: 2,
    };
    let a = browse::run(7, 0.0, &size).expect("browse runs");
    let b = browse::run(7, 0.0, &size).expect("browse runs");
    assert_eq!(a.failed, 0);
    assert_eq!(a.blocks.len(), 2);
    assert!(a.attempted >= 400);
    assert_eq!(
        a.check.clone().expect("outputs check"),
        b.check.expect("outputs check")
    );
    assert_ne!(
        a.check,
        browse::run(8, 0.0, &size).expect("browse runs").check
    );
}

/// One connection's browse stream, driven against a live server.
fn browse_results(seed: u64, n: usize) -> (fixture::Served, Vec<JobSpec>, Vec<JobResult>) {
    let served = fixture::serve(&fixture::specs("browse", seed), None).expect("market");
    let ranges: Vec<_> = served
        .names
        .iter()
        .map(|n| fixture::ranges(&served.market, n).expect("ranges"))
        .collect();
    let jobs = browse::stream(seed, 0, &served.names, &ranges, n);
    let results = drive::run(
        served.server.local_addr(),
        &jobs,
        &vec![Duration::ZERO; n],
        Instant::now(),
    );
    (served, jobs, results)
}

#[test]
fn browse_check_fails_on_a_flipped_price_bit_or_a_dropped_answer() {
    let (served, jobs, results) = browse_results(3, 200);
    let check = |rs: &[JobResult]| {
        browse::check(&served.market, std::slice::from_ref(&jobs), &[rs.to_vec()])
    };
    check(&results).expect("untouched answers pass");

    let mut flipped = results.clone();
    let i = flipped
        .iter()
        .position(|r| matches!(r.answer, Some(Response::Quote(_))))
        .expect("a quote");
    if let Some(Response::Quote(q)) = &mut flipped[i].answer {
        flip_low_bit(&mut q.price);
    }
    assert!(check(&flipped).is_err());

    let mut dropped = results.clone();
    dropped[10].answer = None;
    assert!(check(&dropped).is_err());
    assert!(check(&results[1..]).is_err());
}

const BUY_SMOKE: buy::Size = buy::Size {
    singles: 48,
    batches: 6,
    episode: Duration::from_millis(100),
    min_episodes: 2,
};

#[test]
fn buy_smoke_passes_its_check_and_every_episode_agrees() {
    for workload in ["buy", "buy_durable"] {
        let out = buy::run(workload, 11, 0.0, &BUY_SMOKE).expect("buy runs");
        assert_eq!(out.failed, 0);
        assert_eq!(out.units, 2 * (48 + 6 * buy::BATCH) as u64);
        out.check.expect("books, journal and ACKs agree");
    }
}

#[test]
fn buy_check_fails_on_a_dropped_ack_a_flipped_price_or_lost_spend() {
    let spec = fixture::specs("buy_durable", 12).remove(0);
    let ep = buy::episode(12, &spec, &BUY_SMOKE).expect("episode runs");
    ep.check.clone().expect("untouched books pass");
    let (live, recovered) = ep.books.clone().expect("books read");
    let recovered = recovered.expect("the journal was read");
    let n = BUY_SMOKE.singles + BUY_SMOKE.batches * buy::BATCH;
    let check = |acked: &[buy::Acked], live: &buy::Books, rec: &buy::Books| {
        buy::check_books(acked, live, Some(rec), n)
    };
    check(&ep.acked, &live, &recovered).expect("same inputs pass");

    let mut acked = ep.acked.clone();
    acked.pop();
    assert!(check(&acked, &live, &recovered).is_err(), "dropped ACK");

    let mut acked = ep.acked.clone();
    flip_low_bit(&mut acked[5].price);
    assert!(
        check(&acked, &live, &recovered).is_err(),
        "flipped price bit"
    );

    let mut journal = recovered.clone();
    journal.sales.pop();
    assert!(
        check(&ep.acked, &live, &journal).is_err(),
        "sale missing from the journal"
    );

    let mut journal = recovered.clone();
    journal.spend[0].1 *= 1.001;
    assert!(
        check(&ep.acked, &live, &journal).is_err(),
        "per-buyer Σx differs"
    );
}

#[test]
fn in_memory_buy_check_fails_on_a_dropped_ack_or_lost_spend() {
    let spec = fixture::specs("buy", 13).remove(0);
    let ep = buy::episode(13, &spec, &BUY_SMOKE).expect("episode runs");
    ep.check.clone().expect("untouched books pass");
    let (live, recovered) = ep.books.clone().expect("books read");
    assert!(recovered.is_none(), "an in-memory listing has no journal");
    let n = BUY_SMOKE.singles + BUY_SMOKE.batches * buy::BATCH;
    let check = |acked: &[buy::Acked], live: &buy::Books| buy::check_books(acked, live, None, n);
    check(&ep.acked, &live).expect("same inputs pass");

    let mut acked = ep.acked.clone();
    acked.pop();
    assert!(check(&acked, &live).is_err(), "dropped ACK");

    let mut ledger = live.clone();
    ledger.spend[0].1 *= 1.001;
    assert!(check(&ep.acked, &ledger).is_err(), "per-buyer Σx differs");
}

#[test]
fn reprice_smoke_passes_its_check() {
    let size = reprice::Size {
        purchase_rate: 100.0,
        episode: Duration::ZERO,
        min_reprices: 2,
        min_episodes: 2,
    };
    let out = reprice::run(21, 0.0, &size).expect("reprice runs");
    assert_eq!(out.failed, 0);
    assert_eq!(out.units, 4);
    out.check.expect("menus, revenues and sales check");
}

#[test]
fn reprice_check_fails_on_a_bad_menu_a_wrong_revenue_or_a_mispriced_sale() {
    let spec = fixture::specs("reprice", 22).remove(0);
    let served = fixture::serve(std::slice::from_ref(&spec), None).expect("market");
    let (market, name) = (&served.market, &spec.name);
    let broker = market.route(name).expect("listing");
    let snap = broker.snapshot().expect("snapshot");
    let curve = snap.error_curve().clone();
    let mut menus = vec![reprice::posted(market, name, snap.expected_revenue()).expect("menu")];
    let problem = reprice::perturbed(snap.problem(), 22, 0).expect("problem");
    let rev = market.republish_pricing(name, problem).expect("re-price");
    menus.push(reprice::posted(market, name, rev).expect("menu"));
    let ranges = fixture::ranges(market, name).expect("ranges");
    let jobs = reprice::stream(22, name, &ranges, 20);
    let results = drive::run(
        served.server.local_addr(),
        &jobs,
        &vec![Duration::ZERO; jobs.len()],
        Instant::now(),
    );
    let ledger: Vec<(u64, u64)> = broker
        .ledger()
        .transactions()
        .iter()
        .map(|t| (t.sequence, t.price.to_bits()))
        .collect();
    reprice::check(&menus, &curve, &results, &ledger).expect("untouched outputs pass");

    let mut bad = menus.clone();
    bad[1].revenue *= 1.0 + 1e-12;
    assert!(
        reprice::check(&bad, &curve, &results, &ledger).is_err(),
        "revenue"
    );

    let mut bad = menus.clone();
    let top = bad[1].menu.len() - 1;
    bad[1].menu[top].1 = bad[1].menu[0].1 * 0.5;
    assert!(
        reprice::check(&bad, &curve, &results, &ledger).is_err(),
        "non-monotone menu"
    );

    let mut sold = results.clone();
    if let Some(Response::Commit(s)) = &mut sold[0].answer {
        flip_low_bit(&mut s.price);
    }
    assert!(
        reprice::check(&menus, &curve, &sold, &ledger).is_err(),
        "mispriced sale"
    );
    assert!(
        reprice::check(&menus, &curve, &results, &ledger[1..]).is_err(),
        "dropped ACK"
    );
}

#[test]
fn sim_smoke_logs_are_fixed_for_the_seed_and_reconcile() {
    let size = sim::Size {
        ticks: 30,
        min_episodes: 2,
    };
    let out = sim::run(31, 0.0, &size).expect("sim runs");
    out.check.expect("ledger matches ACKs, logs agree");
}

#[test]
fn sim_check_fails_on_a_dropped_ack() {
    let size = sim::Size {
        ticks: 30,
        min_episodes: 1,
    };
    let scenario = sim::scenario(&size).expect("scenario");
    let specs = fixture::specs("sim", 32);
    let served = fixture::serve(&specs, None).expect("market");
    let clock = nimbus_market::clock::wall_clock();
    let mut outcome = nimbus_agents::engine::run_scenario(
        &scenario,
        32,
        served.server.local_addr(),
        &served.market,
        &clock,
    )
    .expect("scenario runs");
    sim::check(&served.market, &outcome).expect("untouched ACKs pass");
    let listing = outcome
        .acked
        .iter()
        .position(|a| !a.is_empty())
        .expect("a sale");
    outcome.acked[listing].pop();
    assert!(sim::check(&served.market, &outcome).is_err());
}

#[test]
fn traced_run_reports_every_per_layer_metric() {
    let out = trace::run("browse", 41, 1.0).expect("traced run");
    out.check.clone().expect("outputs check");
    for (name, _) in trace::PER_LAYER {
        let v = out.get(name).unwrap_or_else(|| panic!("{name} missing"));
        assert!(v.is_finite(), "{name} = {v}");
    }
    assert_eq!(trace::metrics(&out).len(), trace::PER_LAYER.len());
}

#[test]
fn open_loop_times_requests_from_when_they_were_due() {
    let (served, _, _) = browse_results(5, 1);
    let ranges = fixture::ranges(&served.market, &served.names[0]).expect("ranges");
    let jobs = browse::stream(5, 0, &served.names[..1], std::slice::from_ref(&ranges), 50);
    let due: Vec<Duration> = (0..50).map(|i| Duration::from_millis(2) * i).collect();
    let start = Instant::now();
    let results = drive::run(served.server.local_addr(), &jobs, &due, start);
    assert!(start.elapsed() >= due[49]);
    for (r, d) in results.iter().zip(&due) {
        assert!(r.ok, "{:?}", r.error);
        assert_eq!(r.begin, *d);
        assert!(r.end >= r.sent && r.sent >= r.begin);
    }
}
