//! The benchmark's own arithmetic: seeded randomness, percentiles,
//! open-loop due times, stage-tree attribution to layers, and peak
//! resident memory. Everything here is unit-tested; the workloads only
//! compose it.

use std::collections::BTreeMap;
use std::time::Duration;

use st_obs::{PipelineReport, StageNode};

/// SplitMix64: a tiny seeded generator, so every input the benchmark
/// builds is a pure function of `--seed`.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// An independent stream for one purpose (`tag`) of the same seed.
    pub fn fork(&self, tag: u64) -> Rng {
        let mut r = Rng(self.0 ^ tag.wrapping_mul(0xA24B_AED4_963E_E407));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`; `n` must be positive.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len() as u64) as usize]
    }
}

/// Latency samples of one kind of operation, in milliseconds.
#[derive(Clone, Debug, Default)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn push(&mut self, d: Duration) {
        self.0.push(d.as_secs_f64() * 1e3);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn sum_ms(&self) -> f64 {
        self.0.iter().sum()
    }

    /// The `q`-quantile (`0 ≤ q ≤ 1`), see [`quantile`].
    pub fn quantile(&self, q: f64) -> f64 {
        let mut sorted = self.0.clone();
        sorted.sort_by(f64::total_cmp);
        quantile(&sorted, q)
    }

    /// Whether at least `min` samples lie strictly above the
    /// `q`-quantile: a tail percentile is only reported when it has
    /// this support.
    pub fn tail_supported(&self, q: f64, min: usize) -> bool {
        let cut = self.quantile(q);
        self.0.iter().filter(|&&x| x > cut).count() >= min
    }
}

/// The `q`-quantile of ascending `sorted` by linear interpolation
/// between closest ranks (rank `q·(n−1)`); 0 for no samples.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let rank = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = rank.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
        }
    }
}

/// Median of `values` (any order); 0 for none.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    quantile(&sorted, 0.5)
}

/// Open-loop arrival offsets from the start of the timed phase, cut at
/// `horizon`: gaps of `min_gap` plus a seeded exponential with mean
/// `mean_extra` (a shifted Poisson process). The exponential part keeps
/// arrivals independent of any periodic timer in the system under test
/// (a fixed period could phase-lock with it); the minimum gap keeps one
/// request's service from routinely delaying the next, so the tail
/// measures the system rather than clumping in the schedule.
pub fn open_loop_schedule(
    rng: &mut Rng,
    min_gap: Duration,
    mean_extra: Duration,
    horizon: Duration,
) -> Vec<Duration> {
    let mut due = Vec::new();
    let mut t = 0.0;
    loop {
        t += min_gap.as_secs_f64() - (1.0 - rng.unit()).ln() * mean_extra.as_secs_f64();
        if t >= horizon.as_secs_f64() {
            return due;
        }
        due.push(Duration::from_secs_f64(t));
    }
}

/// Timing of one open-loop request, all offsets from the phase start:
/// when it was due, when the generator actually sent it, and when the
/// response completed.
#[derive(Clone, Copy, Debug)]
pub struct Timed {
    pub due: Duration,
    pub sent: Duration,
    pub done: Duration,
}

impl Timed {
    /// Latency as the user sees it: from when the request was due, so a
    /// stall also charges the requests queued behind it.
    pub fn latency(&self) -> Duration {
        self.done.saturating_sub(self.due)
    }

    /// How late the generator sent the request.
    pub fn lateness(&self) -> Duration {
        self.sent.saturating_sub(self.due)
    }

    /// Time from sending to completion (what the server-side spans can
    /// account for).
    pub fn service(&self) -> Duration {
        self.done.saturating_sub(self.sent)
    }
}

/// Where a span's time is charged. Span names are the program's own
/// (`strace.parse`, `store.decode_block`, …) plus the benchmark's spans
/// around its calls into each crate (`source.session`, `core.render`, …).
/// `op` is the benchmark's span around one whole operation: time left in
/// it after its children is glue no layer accounts for.
pub fn bucket(span: &str) -> &'static str {
    match span {
        "op" => "unaccounted",
        "session" | "session.refilter" | "source.session" => "source",
        "map.apply" | "core.map" => "core.map",
        "core.diff" => "core.diff",
        "core.render" => "core.render",
        "query.pushdown.plan" => "query.plan",
        "store.decode_block" | "store.read" => "store.decode",
        "store.stream.checkpoint" => "store.checkpoint",
        s if s.starts_with("strace.") => "strace",
        s if s.starts_with("dfg.") || s == "core.dfg" => "core.dfg",
        s if s.starts_with("stats.") || s == "core.stats" => "core.stats",
        s if s.starts_with("query.") => "query",
        s if s.starts_with("store.open") => "store.open",
        s if s.starts_with("store.") => "store",
        s if s.starts_with("serve") => "serve",
        _ => "other",
    }
}

/// Charges every stage of `report` to its [`bucket`], in nanoseconds
/// of wall time. A stage keeps its self time (wall minus its
/// children). Where parallel children's walls sum past their parent's,
/// they are scaled down to the parent's wall, so the buckets of one
/// tree always add up to its roots' wall time. Implicit stages (still
/// open when the report was taken, e.g. a daemon's lifetime span) have
/// no wall of their own and pass their children through unscaled.
pub fn attribute(report: &PipelineReport) -> BTreeMap<&'static str, f64> {
    fn walk(node: &StageNode, budget: f64, acc: &mut BTreeMap<&'static str, f64>) {
        let kids: f64 = node.children.iter().map(|k| k.wall_ns as f64).sum();
        if node.calls == 0 {
            for kid in &node.children {
                walk(kid, kid.wall_ns as f64, acc);
            }
            return;
        }
        let wall = node.wall_ns as f64;
        let scale = if wall > 0.0 { budget / wall } else { 0.0 };
        let (own, kid_scale) = if kids > wall {
            (0.0, scale * wall / kids)
        } else {
            ((wall - kids) * scale, scale)
        };
        *acc.entry(bucket(&node.name)).or_insert(0.0) += own;
        for kid in &node.children {
            walk(kid, kid.wall_ns as f64 * kid_scale, acc);
        }
    }
    let mut acc = BTreeMap::new();
    for root in &report.stages {
        walk(root, root.wall_ns as f64, &mut acc);
    }
    acc
}

/// Wall time per operation the layers do not account for: total
/// operation wall minus every layer's attributed time, in ms per op.
/// Negative only if the layers' spans ran outside the measured
/// operations.
pub fn unaccounted_ms(op_wall_ns: f64, layers: &BTreeMap<&'static str, f64>, ops: u64) -> f64 {
    let accounted: f64 = layers
        .iter()
        .filter(|(k, _)| **k != "unaccounted")
        .map(|(_, v)| v)
        .sum();
    per_op_ms(op_wall_ns - accounted, ops)
}

/// `total_ns` spread over `ops` operations, in ms.
pub fn per_op_ms(total_ns: f64, ops: u64) -> f64 {
    if ops == 0 {
        0.0
    } else {
        total_ns / ops as f64 / 1e6
    }
}

/// `(calls, wall ns)` summed over every stage named `name`.
pub fn stage_totals(report: &PipelineReport, name: &str) -> (u64, u64) {
    fn walk(node: &StageNode, name: &str, acc: &mut (u64, u64)) {
        if node.name == name {
            acc.0 += node.calls;
            acc.1 += node.wall_ns;
        }
        for kid in &node.children {
            walk(kid, name, acc);
        }
    }
    let mut acc = (0, 0);
    for root in &report.stages {
        walk(root, name, &mut acc);
    }
    acc
}

/// Mean wall time per call of the stages named `name`, in ms (0 when
/// the stage never ran).
pub fn mean_call_ms(report: &PipelineReport, name: &str) -> f64 {
    let (calls, wall) = stage_totals(report, name);
    per_op_ms(wall as f64, calls)
}

/// `num / den`, or 0 when nothing was attempted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Resets the process's resident-memory high-water mark, so the next
/// [`peak_rss_mb`] covers only what runs after this call.
pub fn reset_peak_rss() {
    // Linux: writing 5 to clear_refs resets VmHWM to the current RSS.
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident memory since the last [`reset_peak_rss`], in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let xs: Vec<f64> = (1..=5).map(f64::from).collect();
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 0.5), 3.0);
        assert_eq!(quantile(&xs, 1.0), 5.0);
        assert!((quantile(&xs, 0.9) - 4.6).abs() < 1e-12);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(quantile(&[7.0], 0.9), 7.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        let mut s = Samples::default();
        for i in 0..99 {
            s.push(Duration::from_millis(i));
        }
        // 99 samples: p90 = 88.2, and 89..=98 are the 10 above it.
        assert!((s.quantile(0.9) - 88.2).abs() < 1e-9);
        assert!(s.tail_supported(0.9, 10));
        let mut few = Samples::default();
        for i in 0..50 {
            few.push(Duration::from_millis(i));
        }
        assert!(!few.tail_supported(0.9, 10));
    }

    #[test]
    fn due_time_arithmetic() {
        let t = Timed {
            due: Duration::from_millis(100),
            sent: Duration::from_millis(130),
            done: Duration::from_millis(145),
        };
        assert_eq!(t.latency(), Duration::from_millis(45));
        assert_eq!(t.lateness(), Duration::from_millis(30));
        assert_eq!(t.service(), Duration::from_millis(15));
        // Sent early (cannot happen, but must not underflow).
        let early = Timed {
            due: Duration::from_millis(10),
            sent: Duration::from_millis(5),
            done: Duration::from_millis(8),
        };
        assert_eq!(early.lateness(), Duration::ZERO);
        assert_eq!(early.latency(), Duration::ZERO);
    }

    #[test]
    fn open_loop_schedule_is_seeded_spaced_and_near_its_rate() {
        let horizon = Duration::from_secs(200);
        let (gap, extra) = (Duration::from_millis(40), Duration::from_millis(60));
        let a = open_loop_schedule(&mut Rng::new(7), gap, extra, horizon);
        let b = open_loop_schedule(&mut Rng::new(7), gap, extra, horizon);
        assert_eq!(a, b);
        assert!(a[0] >= gap);
        assert!(a
            .windows(2)
            .all(|w| w[1] - w[0] >= gap - Duration::from_nanos(1)));
        assert!(a.last().unwrap() < &horizon);
        // Mean gap 100 ms: about 2000 arrivals in 200 s.
        let n = a.len() as f64;
        assert!((n - 2000.0).abs() < 150.0, "{n} arrivals");
        assert_ne!(a, open_loop_schedule(&mut Rng::new(8), gap, extra, horizon));
    }

    fn node(name: &str, calls: u64, wall_ns: u64, children: Vec<StageNode>) -> StageNode {
        StageNode {
            name: name.to_string(),
            path: name.to_string(),
            calls,
            wall_ns,
            self_ns: 0,
            counters: BTreeMap::new(),
            children,
        }
    }

    #[test]
    fn attribution_charges_self_time_and_sums_to_root_wall() {
        // op 100 = glue 10 + session 60 (self 5 + strace 55) + stats 30.
        let report = PipelineReport {
            stages: vec![node(
                "op",
                1,
                100,
                vec![
                    node(
                        "source.session",
                        1,
                        60,
                        vec![node("strace.parse", 3, 55, vec![])],
                    ),
                    node(
                        "core.stats",
                        1,
                        30,
                        vec![node("stats.compute", 1, 30, vec![])],
                    ),
                ],
            )],
            ..Default::default()
        };
        let acc = attribute(&report);
        assert_eq!(acc["unaccounted"], 10.0);
        assert_eq!(acc["source"], 5.0);
        assert_eq!(acc["strace"], 55.0);
        assert_eq!(acc["core.stats"], 30.0);
        assert_eq!(acc.values().sum::<f64>(), 100.0);
        assert!((unaccounted_ms(100.0, &acc, 1) - 10.0 / 1e6).abs() < 1e-15);
    }

    #[test]
    fn attribution_scales_overlapping_parallel_children() {
        // Two workers parse for 80 + 80 inside a 100 load: scaled to 100.
        let report = PipelineReport {
            stages: vec![node(
                "strace.load",
                1,
                100,
                vec![node(
                    "strace.file",
                    2,
                    160,
                    vec![node("strace.parse", 2, 120, vec![])],
                )],
            )],
            ..Default::default()
        };
        let acc = attribute(&report);
        assert!((acc["strace"] - 100.0).abs() < 1e-9);
        // An open (implicit) root passes its children through unscaled.
        let daemon = PipelineReport {
            stages: vec![node(
                "serve",
                0,
                0,
                vec![node(
                    "serve.conn",
                    4,
                    40,
                    vec![node("serve.query", 2, 30, vec![])],
                )],
            )],
            ..Default::default()
        };
        let acc = attribute(&daemon);
        assert_eq!(acc["serve"], 40.0);
        assert_eq!(stage_totals(&daemon, "serve.query"), (2, 30));
        assert_eq!(mean_call_ms(&daemon, "serve.conn"), 10.0 / 1e6);
    }

    #[test]
    fn buckets_follow_the_crate_layers() {
        assert_eq!(bucket("strace.parse.par"), "strace");
        assert_eq!(bucket("stats.compute.view"), "core.stats");
        assert_eq!(bucket("dfg.build"), "core.dfg");
        assert_eq!(bucket("query.pushdown.plan"), "query.plan");
        assert_eq!(bucket("query.pushdown"), "query");
        assert_eq!(bucket("store.open.seek"), "store.open");
        assert_eq!(bucket("store.decode_block"), "store.decode");
        assert_eq!(bucket("serve.ingest"), "serve");
        assert_eq!(bucket("session.refilter"), "source");
    }

    #[test]
    fn ratios_of_nothing_are_zero() {
        assert_eq!(ratio(3.0, 0.0), 0.0);
        assert_eq!(ratio(1.0, 4.0), 0.25);
        assert_eq!(per_op_ms(5e6, 0), 0.0);
        assert_eq!(per_op_ms(5e6, 5), 1.0);
    }
}
