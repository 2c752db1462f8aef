//! `perfbench` — the repository benchmark: st-inspector's three user
//! paths as seeded workloads, with end-to-end metrics from untraced runs
//! and a per-layer split from traced runs.
//!
//! ```text
//! perfbench --workload ior-compare|store-narrowing|live-ingest \
//!           --seed N --seconds S --trace 0|1
//! ```
//!
//! Inputs are generated from `--seed` under `.bench_work/` in the
//! current directory and removed afterwards. The last line of stdout is
//! the result object (`correct`, `attempted`, `failed`, `metrics`); the
//! line before it records the seed, host cores and the route decisions
//! the program took. See `README.md` beside this crate for what each
//! metric means on each workload.

mod inputs;
mod ior_compare;
mod live_ingest;
mod measure;
mod narrowing;
mod report;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Untraced runs time their set-up at least [`SETUP_MIN`] times and for
/// at least [`SETUP_SECONDS`]; `setup_s` reports the median.
const SETUP_MIN: usize = 5;
const SETUP_SECONDS: f64 = 5.0;

/// Tail samples a reported p90 must have beyond it.
pub const TAIL_MIN: usize = 10;

/// Operations an untraced closed-loop phase runs at least, however long
/// they take: enough for [`TAIL_MIN`] samples beyond the p90.
const MIN_OPS: usize = 10 * TAIL_MIN;

/// What one run was asked to do.
pub struct Config {
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
    /// Scratch directory for generated inputs (removed on exit).
    pub work: PathBuf,
}

impl Config {
    /// Primary operations a closed loop runs at least: only untraced
    /// runs report a p90, so only they need its support.
    pub fn min_ops(&self) -> usize {
        if self.trace {
            0
        } else {
            MIN_OPS
        }
    }
}

/// One reported number.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// The result of one run.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Post-run checks (store health, oracle equality) all passed.
    pub checks_ok: bool,
    pub metrics: Vec<Metric>,
    /// Extra context for the info line: key → JSON value text.
    pub info: Vec<(&'static str, String)>,
}

/// Occurrence counts of free-form labels (routes, scheduler reasons).
#[derive(Default)]
pub struct Tally(BTreeMap<String, u64>);

impl Tally {
    fn add(&mut self, label: &str) {
        *self.0.entry(label.to_string()).or_insert(0) += 1;
    }

    /// Records a session report's planner decisions. Numbers in the
    /// free-text reason (block counts, byte estimates) are folded to `N`
    /// so the tally counts decisions, not inputs.
    pub fn routes(&mut self, report: &st_obs::PipelineReport) {
        for key in ["route", "route.workers"] {
            if let Some(v) = report.note(key) {
                self.add(&format!("{key}={v}"));
            }
        }
        if let Some(reason) = report.note("route.reason") {
            let mut folded = String::new();
            for c in reason.chars() {
                if !c.is_ascii_digit() {
                    folded.push(c);
                } else if !folded.ends_with('N') {
                    folded.push('N');
                }
            }
            self.add(&format!("route.reason={folded}"));
        }
    }

    /// Mean of the `route.workers` notes seen (0 when none).
    pub fn mean_workers(&self) -> f64 {
        let (mut n, mut sum) = (0u64, 0u64);
        for (label, count) in &self.0 {
            if let Some(w) = label.strip_prefix("route.workers=") {
                n += count;
                sum += count * w.parse::<u64>().unwrap_or(0);
            }
        }
        measure::ratio(sum as f64, n as f64)
    }

    pub fn json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(k, v)| format!("{}: {v}", json_str(k)))
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

pub fn json_str(s: &str) -> String {
    format!("\"{}\"", st_obs::report::escape_json(s))
}

/// Runs the set-up whose product the run measures; returns its time in
/// seconds and the product.
pub fn timed<T>(setup: impl FnOnce() -> Result<T, String>) -> Result<(f64, T), String> {
    let t0 = Instant::now();
    let made = setup()?;
    Ok((t0.elapsed().as_secs_f64(), made))
}

/// A run's `setup_s`: the median of `first`, the time of the set-up the
/// run measured, and, in an untraced run, of repeats of `setup` until
/// there are [`SETUP_MIN`] set-ups and [`SETUP_SECONDS`] of set-up
/// time. Repeat `i` (from 1) gets its index, so it writes files of its
/// own, and its product is dropped off the clock at once.
///
/// Call it after the timed phase. On a 2-core host, the medians of two
/// interleaved sets of ten `ior-compare` runs differed by 28 % with
/// every set-up timed at the start of the run, and by 7 % with the
/// repeats after the phase.
pub fn setup_seconds<T>(
    config: &Config,
    first: f64,
    mut setup: impl FnMut(usize) -> Result<T, String>,
) -> Result<f64, String> {
    let mut times = vec![first];
    while !config.trace && (times.len() < SETUP_MIN || times.iter().sum::<f64>() < SETUP_SECONDS) {
        let t0 = Instant::now();
        let made = setup(times.len())?;
        times.push(t0.elapsed().as_secs_f64());
        drop(made);
    }
    Ok(measure::median(&times))
}

/// A scratch directory, removed when dropped however the run ends.
pub struct WorkDir(PathBuf);

impl WorkDir {
    /// Creates `path` and its parents.
    pub fn create(path: PathBuf) -> Result<WorkDir, String> {
        std::fs::create_dir_all(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(WorkDir(path))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn parse_args() -> Result<(String, Config), String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds must be in (0, 3600], got {s}"));
                }
                seconds = Some(Duration::from_secs_f64(s));
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let seed = seed.ok_or("--seed is required")?;
    let work = PathBuf::from(".bench_work").join(format!("{workload}-{}", std::process::id()));
    Ok((
        workload,
        Config {
            seed,
            seconds: seconds.unwrap_or(Duration::from_secs(10)),
            trace: trace.unwrap_or(false),
            work,
        },
    ))
}

fn main() {
    let (workload, config) = match parse_args() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let work = match WorkDir::create(config.work.clone()) {
        Ok(work) => work,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    let outcome = match workload.as_str() {
        "ior-compare" => ior_compare::run(&config),
        "store-narrowing" => narrowing::run(&config),
        "live-ingest" => live_ingest::run(&config),
        other => Err(format!(
            "unknown workload {other} (ior-compare, store-narrowing, live-ingest)"
        )),
    };
    drop(work);
    let outcome = match outcome {
        Ok(o) if o.attempted == 0 => {
            eprintln!("perfbench: {workload}: no operation ran");
            std::process::exit(1);
        }
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {workload}: {e}");
            std::process::exit(1);
        }
    };

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut info = vec![
        ("workload", json_str(&workload)),
        ("seed", config.seed.to_string()),
        ("seconds", config.seconds.as_secs_f64().to_string()),
        ("trace", config.trace.to_string()),
        ("cores", cores.to_string()),
    ];
    info.extend(outcome.info);
    let info: Vec<String> = info
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_str(k)))
        .collect();
    println!("{{\"perfbench\": {{{}}}}}", info.join(", "));

    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "{}: {{\"value\": {value}, \"unit\": {}}}",
                json_str(m.name),
                json_str(m.unit)
            )
        })
        .collect();
    let correct = outcome.failed == 0 && outcome.checks_ok;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    );
}
