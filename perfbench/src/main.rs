//! `perfbench` — the repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload browse|buy|buy_durable|reprice|sim --seed N --seconds S --trace 0|1
//! ```
//!
//! An untraced run (`--trace 0`) drives the serving stack over loopback
//! TCP for `S` seconds and reports the end-to-end metrics; a traced run
//! (`--trace 1`) replays the same seeded inputs in-process through the
//! public calls of each layer and reports per-layer metrics. Both check
//! the outputs. Stdout ends with one JSON result line; the line before it
//! carries the workload's named figures, sample counts and digest.

mod browse;
mod buy;
mod drive;
mod fixture;
mod outcome;
mod reprice;
mod sim;
mod trace;
mod util;

#[cfg(test)]
mod tests;

use std::process::ExitCode;
use std::time::Duration;
use util::{median, metric, result_line, Metric};

pub const WORKLOADS: [&str; 5] = ["browse", "buy", "buy_durable", "reprice", "sim"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err("--seconds must be in (0, 120]".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; one of {WORKLOADS:?}"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace,
    })
}

/// Ends a stalled run: after `limit` the process reports the stall and
/// exits non-zero (taking the server threads with it) without printing
/// a result.
fn arm_deadline(limit: Duration) {
    std::thread::spawn(move || {
        std::thread::sleep(limit);
        eprintln!(
            "perfbench: run exceeded its {}s deadline; aborting as failed",
            limit.as_secs()
        );
        let _ = std::fs::remove_dir_all(util::scratch_root());
        std::process::exit(3);
    });
}

/// The gated metrics. Tail percentiles and the failed share are on the
/// detail line with their sample counts but not gated: on a small shared
/// machine their run-to-run spread exceeds any usable bound, and failures
/// are gated through `attempted`/`failed` of the result line.
fn end_to_end(out: &outcome::Outcome) -> Vec<Metric> {
    let block_p50s: Vec<f64> = out
        .blocks
        .iter()
        .map(|b| b.unit_us.pct(0.5).value)
        .collect();
    vec![
        metric("setup_s", median(&out.setups), "s"),
        metric("p50_us", median(&block_p50s), "us"),
        metric(
            "ops_per_s",
            out.units as f64 / out.measured.as_secs_f64().max(1e-9),
            "1/s",
        ),
        metric("peak_rss_mb", util::peak_rss_mb(), "MB"),
    ]
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // Set-up, checks and the traced replay come on top of the measured
    // seconds; a healthy run needs well under this.
    arm_deadline(Duration::from_secs_f64(
        (args.seconds * 3.0 + 60.0).min(170.0),
    ));
    util::tighten_timer_slack();
    let run = if args.trace {
        trace::run(&args.workload, args.seed, args.seconds)
    } else {
        match args.workload.as_str() {
            "browse" => browse::run(args.seed, args.seconds, &browse::FULL),
            w @ ("buy" | "buy_durable") => buy::run(w, args.seed, args.seconds, &buy::FULL),
            "reprice" => reprice::run(args.seed, args.seconds, &reprice::FULL),
            _ => sim::run(args.seed, args.seconds, &sim::FULL),
        }
    };
    let out = match run {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {} run failed: {e}", args.workload);
            return ExitCode::from(1);
        }
    };
    if let Err(e) = &out.check {
        eprintln!("perfbench: output check failed: {e}");
    }
    println!("{}", out.detail_line(&args.workload, args.seed));
    let metrics = if args.trace {
        trace::metrics(&out)
    } else {
        end_to_end(&out)
    };
    println!(
        "{}",
        result_line(
            out.check.is_ok(),
            out.attempted.max(1),
            out.failed,
            &metrics
        )
    );
    ExitCode::SUCCESS
}
