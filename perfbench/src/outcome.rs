//! What an untraced workload run reports.

use crate::util::{json_num, json_str, Pct, Samples};
use nimbus_server::{NimbusServer, Op};
use std::fmt::Write as _;
use std::time::Duration;

/// A workload-specific figure printed on the detail line, under the name
/// the workload's documentation gives it.
pub struct Detail {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the figure, and which percentile it is.
    pub count: usize,
    pub q: Option<f64>,
}

/// One episode of a run. End-to-end figures are medians over a run's
/// episodes, so noise in part of a run moves them less.
pub struct Block {
    /// Latency of each unit operation that completed, in µs.
    pub unit_us: Samples,
    pub units: u64,
    pub measured: Duration,
}

pub struct Outcome {
    /// User-visible operations started and how many of them failed
    /// (BUSY, timeouts, transport and typed errors all count).
    pub attempted: u64,
    pub failed: u64,
    /// Wall time of each complete set-up, from nothing to serving.
    pub setups: Vec<f64>,
    /// Unit operations completed, and the measured time they took.
    pub units: u64,
    pub measured: Duration,
    pub blocks: Vec<Block>,
    pub details: Vec<Detail>,
    /// The output-check verdict: the digest, or why the outputs are wrong.
    pub check: Result<String, String>,
    /// Free-form facts about the run (flush policy, file system, …).
    pub notes: Vec<(String, String)>,
    /// Server STATS counters summed over the run's servers: BUSY
    /// rejections, timeout sheds, requests handled.
    pub server: [u64; 3],
}

impl Outcome {
    pub fn new() -> Outcome {
        Outcome {
            attempted: 0,
            failed: 0,
            setups: Vec::new(),
            units: 0,
            measured: Duration::ZERO,
            blocks: Vec::new(),
            details: Vec::new(),
            check: Err("outputs not checked".to_string()),
            notes: Vec::new(),
            server: [0; 3],
        }
    }

    /// Adds a server's STATS counters to the run's totals.
    pub fn add_server(&mut self, server: &NimbusServer) {
        let stats = server.stats();
        self.server[0] += stats.busy_rejections();
        self.server[1] += stats.timeout_sheds();
        self.server[2] += Op::ALL.iter().map(|op| stats.requests(*op)).sum::<u64>();
    }

    /// The figure named `name`, if the run produced it.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.details
            .iter()
            .find(|d| d.name == name)
            .map(|d| d.value)
    }

    pub fn pct(&mut self, name: &str, samples: &Samples, q: f64, unit: &'static str) {
        let p = if q >= 0.99 {
            samples.tail()
        } else {
            samples.pct(q)
        };
        self.push_pct(name, p, unit);
    }

    pub fn push_pct(&mut self, name: &str, p: Pct, unit: &'static str) {
        self.details.push(Detail {
            name: name.to_string(),
            value: p.value,
            unit,
            count: p.count,
            q: Some(p.q),
        });
    }

    pub fn figure(&mut self, name: &str, value: f64, unit: &'static str, count: usize) {
        self.details.push(Detail {
            name: name.to_string(),
            value,
            unit,
            count,
            q: None,
        });
    }

    pub fn note(&mut self, key: &str, value: impl ToString) {
        self.notes.push((key.to_string(), value.to_string()));
    }

    /// The human-facing detail line: every workload figure with its unit,
    /// percentile and sample count, the check verdict and the digest.
    pub fn detail_line(&self, workload: &str, seed: u64) -> String {
        let mut out = format!("{{\"workload\": {}, \"seed\": {seed}", json_str(workload));
        let (verdict, digest) = match &self.check {
            Ok(d) => ("pass".to_string(), d.clone()),
            Err(e) => (format!("fail: {e}"), String::new()),
        };
        let _ = write!(
            out,
            ", \"check\": {}, \"digest\": {}",
            json_str(&verdict),
            json_str(&digest)
        );
        out.push_str(", \"figures\": {");
        for (i, d) in self.details.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "{}: {{\"value\": {}, \"unit\": {}, \"count\": {}",
                json_str(&d.name),
                json_num(d.value),
                json_str(d.unit),
                d.count
            );
            if let Some(q) = d.q {
                let _ = write!(out, ", \"percentile\": {}", json_num(q * 100.0));
            }
            out.push('}');
        }
        out.push('}');
        let mut all = Samples::default();
        for b in &self.blocks {
            for v in b.unit_us.values() {
                all.push(*v);
            }
        }
        let (p50, tail) = (all.pct(0.5), all.tail());
        let _ = write!(
            out,
            ", \"unit_p50_us\": {{\"value\": {}, \"count\": {}}}, \"unit_tail_us\": {{\"value\": {}, \"percentile\": {}, \"count\": {}, \"beyond\": {}}}, \"failed_share\": {}",
            json_num(p50.value),
            p50.count,
            json_num(tail.value),
            json_num(tail.q * 100.0),
            tail.count,
            tail.beyond,
            json_num(self.failed as f64 / self.attempted.max(1) as f64)
        );
        let _ = write!(
            out,
            ", \"server\": {{\"busy_rejections\": {}, \"timeout_sheds\": {}, \"requests\": {}}}",
            self.server[0], self.server[1], self.server[2]
        );
        out.push_str(", \"setups_s\": [");
        for (i, s) in self.setups.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&json_num(*s));
        }
        out.push(']');
        out.push_str(", \"blocks\": [");
        for (i, b) in self.blocks.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "{{\"count\": {}, \"p50_us\": {}, \"p90_us\": {}, \"p99_us\": {}, \"ops_per_s\": {}}}",
                b.unit_us.len(),
                json_num(b.unit_us.pct(0.5).value),
                json_num(b.unit_us.pct(0.9).value),
                json_num(b.unit_us.tail().value),
                json_num(b.units as f64 / b.measured.as_secs_f64().max(1e-9))
            );
        }
        out.push(']');
        for (k, v) in &self.notes {
            let _ = write!(out, ", {}: {}", json_str(k), json_str(v));
        }
        out.push('}');
        out
    }
}

/// The run's verdict: the first failed check, or the digest every
/// episode agreed on (each replays the same seeded stream).
pub fn agreed(failure: Option<String>, digests: Vec<String>) -> Result<String, String> {
    if let Some(e) = failure {
        return Err(e);
    }
    match digests.first() {
        None => Err("no episode ran".to_string()),
        Some(d) if digests.iter().all(|x| x == d) => Ok(d.clone()),
        Some(_) => Err(format!("episodes of one seed disagree: {digests:?}")),
    }
}
