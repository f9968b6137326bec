//! Small self-contained helpers: a seeded generator, an order-sensitive
//! digest, exact rank percentiles, process memory, scratch directories
//! and the JSON result line.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::{Duration, SystemTime, UNIX_EPOCH};

/// SplitMix64: the benchmark's only source of randomness, so one seed
/// fixes every generated request.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 bits.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Index drawn with probability proportional to `weights`.
    pub fn weighted(&mut self, weights: &[f64]) -> usize {
        let total: f64 = weights.iter().sum();
        let mut r = self.unit() * total;
        for (i, w) in weights.iter().enumerate() {
            if r < *w {
                return i;
            }
            r -= w;
        }
        weights.len() - 1
    }
}

/// FNV-1a over 64 bits. Callers feed values in a canonical order, so the
/// digest is a function of content, not of arrival order.
#[derive(Clone, Copy, Debug)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xCBF2_9CE4_8422_2325)
    }
}

impl Digest {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// A percentile read off raw samples by rank, with the sample count and
/// how many samples lie beyond it.
#[derive(Clone, Copy, Debug)]
pub struct Pct {
    pub q: f64,
    pub value: f64,
    pub count: usize,
    pub beyond: usize,
}

/// Raw samples; percentiles are exact order statistics, never bucketed.
#[derive(Clone, Debug, Default)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn push(&mut self, v: f64) {
        self.0.push(v);
    }

    pub fn values(&self) -> &[f64] {
        &self.0
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    fn sorted(&self) -> Vec<f64> {
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        v
    }

    /// Nearest-rank percentile: the smallest sample with at least `q` of
    /// the samples at or below it.
    pub fn pct(&self, q: f64) -> Pct {
        rank_pct(&self.sorted(), q)
    }

    /// The highest of `p99`, `p95`, `p90`, `p75`, `p50` that still has at
    /// least ten samples beyond it; the maximum when none has.
    pub fn tail(&self) -> Pct {
        let sorted = self.sorted();
        for q in [0.99, 0.95, 0.90, 0.75, 0.50] {
            let p = rank_pct(&sorted, q);
            if p.beyond >= 10 {
                return p;
            }
        }
        rank_pct(&sorted, 1.0)
    }

    pub fn mean(&self) -> f64 {
        if self.0.is_empty() {
            return 0.0;
        }
        self.0.iter().sum::<f64>() / self.0.len() as f64
    }
}

fn rank_pct(sorted: &[f64], q: f64) -> Pct {
    let n = sorted.len();
    if n == 0 {
        return Pct {
            q,
            value: 0.0,
            count: 0,
            beyond: 0,
        };
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    Pct {
        q,
        value: sorted[rank - 1],
        count: n,
        beyond: n - rank,
    }
}

/// Median of a small set of run-level values (set-up times, episodes).
pub fn median(values: &[f64]) -> f64 {
    let mut s = Samples::default();
    for v in values {
        s.push(*v);
    }
    s.pct(0.5).value
}

pub fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// A fresh directory under `.perfbench_tmp/` in the working directory,
/// removed on drop.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    pub fn new(label: &str) -> std::io::Result<ScratchDir> {
        let nanos = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_nanos())
            .unwrap_or(0);
        let path = scratch_root().join(format!("{label}-{}-{nanos}", std::process::id()));
        std::fs::create_dir_all(&path)?;
        Ok(ScratchDir(path))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // The root goes too once the last run using it has finished.
        let _ = std::fs::remove_dir(scratch_root());
    }
}

pub fn scratch_root() -> PathBuf {
    PathBuf::from(".perfbench_tmp")
}

/// Names the file system holding `path` (journals are fsynced there).
pub fn fs_type(path: &Path) -> &'static str {
    #[repr(C)]
    struct StatFs {
        f_type: i64,
        rest: [u64; 15],
    }
    extern "C" {
        fn statfs(path: *const std::os::raw::c_char, buf: *mut StatFs) -> i32;
    }
    let Ok(cpath) = std::ffi::CString::new(path.as_os_str().as_encoded_bytes()) else {
        return "unknown";
    };
    let mut buf = StatFs {
        f_type: 0,
        rest: [0; 15],
    };
    // SAFETY: `cpath` is a valid NUL-terminated string and `buf` is a
    // writable struct at least as large as the kernel's `struct statfs`
    // on 64-bit Linux (120 bytes).
    if unsafe { statfs(cpath.as_ptr(), &mut buf) } != 0 {
        return "unknown";
    }
    match buf.f_type {
        0x0102_1994 => "tmpfs",
        0xEF53 => "ext4",
        0x794C_7630 => "overlayfs",
        0x5846_5342 => "xfs",
        0x9123_683E => "btrfs",
        _ => "other",
    }
}

/// Asks the kernel for 1 ns timer slack so the open-loop generator's
/// sleeps end close to each request's due time.
pub fn tighten_timer_slack() {
    extern "C" {
        fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
    }
    const PR_SET_TIMERSLACK: i32 = 29;
    // SAFETY: PR_SET_TIMERSLACK takes one integer argument and touches
    // no caller memory.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1, 0, 0, 0);
    }
}

/// Hands the allocator's free pages back to the kernel. Called before
/// each episode so that the process's peak resident set is set by the
/// largest episode, not by how earlier episodes' garbage happened to be
/// spread over the allocator's per-thread arenas.
pub fn release_free_memory() {
    extern "C" {
        fn malloc_trim(pad: usize) -> i32;
    }
    // SAFETY: malloc_trim only returns unused allocator pages to the
    // kernel; live allocations are untouched.
    unsafe {
        malloc_trim(0);
    }
}

/// One named metric of the result line.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Renders the result line the harness reads: exactly `correct`,
/// `attempted`, `failed` and `metrics`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            json_num(m.value),
            m.unit
        );
    }
    out.push_str("}}");
    out
}

pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rank_percentiles_are_order_statistics() {
        let mut s = Samples::default();
        for v in (1..=1000).rev() {
            s.push(v as f64);
        }
        let p50 = s.pct(0.5);
        assert_eq!((p50.value, p50.count, p50.beyond), (500.0, 1000, 500));
        let tail = s.tail();
        assert_eq!((tail.q, tail.value, tail.beyond), (0.99, 990.0, 10));
        let mut few = Samples::default();
        for v in 0..25 {
            few.push(v as f64);
        }
        assert_eq!((few.tail().q, few.tail().beyond), (0.5, 12));
        let mut fewer = Samples::default();
        for v in 0..12 {
            fewer.push(v as f64);
        }
        assert_eq!((fewer.tail().q, fewer.tail().value), (1.0, 11.0));
        assert_eq!(Samples::default().tail().count, 0);
    }

    #[test]
    fn rng_and_digest_are_pure_functions_of_their_inputs() {
        let a: Vec<u64> = (0..4).map(|_| Rng::new(7, 1).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(Rng::new(7, 1).next_u64(), Rng::new(8, 1).next_u64());
        let (mut d1, mut d2) = (Digest::default(), Digest::default());
        d1.f64(1.5);
        d2.f64(1.5);
        assert_eq!(d1.hex(), d2.hex());
        d2.u64(0);
        assert_ne!(d1.hex(), d2.hex());
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let line = result_line(true, 3, 0, &[metric("setup_s", 0.25, "s")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
    }
}
