//! `ior-compare`: the paper's own analysis. Set-up emits both Sec. V
//! experiments as strace text directories; one operation inspects each
//! (session, DFG, statistics), diffs its two command ids and renders the
//! comparison. It loads the `strace` parser and `core` statistics and
//! never touches `store`, `query` pushdown or `serve`.

use std::hint::black_box;
use std::time::{Duration, Instant};

use st_core::render::{render_dfg_dot, render_diff_report, render_diff_stats};
use st_core::{Dfg, IoStatistics};
use st_model::Interner;
use st_source::Inspector;

use crate::inputs::paper_ior;
use crate::measure::{peak_rss_mb, ratio, reset_peak_rss, Samples};
use crate::report::{EndToEnd, Layers};
use crate::{setup_seconds, timed, Config, Outcome, Tally, WorkDir};

/// The experiment whose inspection alone is the `step` metric: session,
/// DFG and statistics of the Sec. V-A traces, what `stinspect stats`
/// does on them.
const STEP_EXPERIMENT: &str = "ior-ssf-fpp";

/// One experiment as the program sees it: a directory of strace files.
struct Prepared {
    name: &'static str,
    spec: String,
    cids: [&'static str; 2],
    events: usize,
    lines: u64,
}

/// Both experiments' directories, removed when dropped.
struct Experiments {
    exps: Vec<Prepared>,
    _dir: WorkDir,
}

fn setup(config: &Config, rep: usize) -> Result<Experiments, String> {
    let root = WorkDir::create(config.work.join(format!("ior-{rep}")))?;
    let mut prepared = Vec::new();
    for exp in paper_ior(config.seed, &Interner::new_shared()) {
        let dir = root.path().join(exp.name);
        let files = st_sim::emit_strace_dir(&exp.log, &dir)
            .map_err(|e| format!("{}: {e}", dir.display()))?;
        let mut lines = 0u64;
        for file in files {
            let text = std::fs::read(&file).map_err(|e| format!("{}: {e}", file.display()))?;
            lines += text.iter().filter(|&&b| b == b'\n').count() as u64;
        }
        prepared.push(Prepared {
            name: exp.name,
            spec: dir.to_string_lossy().into_owned(),
            cids: exp.cids,
            events: exp.log.total_events(),
            lines,
        });
    }
    Ok(Experiments {
        exps: prepared,
        _dir: root,
    })
}

/// One comparison's timings and results.
struct Compared {
    /// The whole comparison (both experiments), checks excluded.
    op: Duration,
    /// [`STEP_EXPERIMENT`]'s inspection: session, DFG and statistics.
    step: Duration,
    events: u64,
    warnings: u64,
    /// Every correctness check held.
    ok: bool,
}

/// Runs the full comparison on every experiment. The checks run after
/// each experiment's clock stops.
fn compare(exps: &[Prepared], routes: &mut Tally) -> Result<Compared, String> {
    let mut out = Compared {
        op: Duration::ZERO,
        step: Duration::ZERO,
        events: 0,
        warnings: 0,
        ok: true,
    };
    for exp in exps {
        let t0 = Instant::now();
        let op_span = st_obs::span("op");
        let session = {
            let _s = st_obs::span("source.session");
            Inspector::open(&exp.spec)
                .and_then(Inspector::session)
                .map_err(|e| e.to_string())?
        };
        let mapped = {
            let _s = st_obs::span("core.map");
            session.mapped()
        };
        let dfg = {
            let _s = st_obs::span("core.dfg");
            Dfg::from_mapped(&mapped)
        };
        let stats = {
            let _s = st_obs::span("core.stats");
            IoStatistics::compute(&mapped)
        };
        if exp.name == STEP_EXPERIMENT {
            out.step = t0.elapsed();
        }
        let interner = session.log().interner();
        let [a, b] = exp.cids.map(|cid| interner.get(cid));
        let view = session.view();
        let (view_a, view_b) = (
            view.refine(|m, _| Some(m.cid) == a),
            view.refine(|m, _| Some(m.cid) == b),
        );
        let (dfg_a, dfg_b) = {
            let _s = st_obs::span("core.dfg");
            (
                Dfg::from_mapped_view(&mapped, &view_a),
                Dfg::from_mapped_view(&mapped, &view_b),
            )
        };
        let (stats_a, stats_b) = {
            let _s = st_obs::span("core.stats");
            (
                IoStatistics::compute_view(&mapped, &view_a),
                IoStatistics::compute_view(&mapped, &view_b),
            )
        };
        let diff = {
            let _s = st_obs::span("core.diff");
            st_core::diff(&dfg_a, &dfg_b)
        };
        let rendered = {
            let _s = st_obs::span("core.render");
            render_diff_report(&diff).len()
                + render_diff_stats(&diff, &stats_a, &stats_b).len()
                + render_dfg_dot(&mapped, &view).len()
        };
        black_box(rendered);
        drop(op_span);
        out.op += t0.elapsed();
        out.events += session.events_matched() as u64;
        out.warnings += session.report().counter("warnings");
        routes.routes(session.report());

        // Untimed checks: every event survives the pipeline, a graph
        // diffed with itself is empty, the two runs of an experiment do
        // differ, and each case adds one edge per mapped event plus its
        // closing edge.
        let cases_mapped = mapped
            .assignments()
            .iter()
            .filter(|row| row.iter().any(Option::is_some))
            .count() as u64;
        out.ok &= session.events_matched() == exp.events
            && st_core::diff(&dfg, &dfg).is_empty()
            && !diff.is_empty()
            && !stats.is_empty()
            && dfg.total_edge_observations() == mapped.mapped_events() as u64 + cases_mapped;
    }
    Ok(out)
}

pub fn run(config: &Config) -> Result<Outcome, String> {
    let (first_setup, prepared) = timed(|| setup(config, 0))?;
    let exps = &prepared.exps;
    let mut outcome = Outcome {
        checks_ok: true,
        ..Outcome::default()
    };
    let mut routes = Tally::default();
    let (mut op, mut step, mut events) = (Samples::default(), Samples::default(), 0u64);
    // Traced runs alternate traced and untraced operations, so the
    // tracing overhead is measured on the same inputs and state.
    let mut untraced_op = Samples::default();
    let (mut traced_ops, mut warnings, mut lines) = (0u64, 0u64, 0u64);

    reset_peak_rss();
    let mark = st_obs::mark();
    let (mut measured, wall) = (Duration::ZERO, Instant::now());
    while (measured < config.seconds || op.len() < config.min_ops())
        && wall.elapsed() < 3 * config.seconds
    {
        let traced = config.trace && outcome.attempted.is_multiple_of(2);
        st_obs::set_enabled(traced);
        let result = compare(exps, &mut routes);
        st_obs::set_enabled(false);
        outcome.attempted += 1;
        match result {
            Ok(c) => {
                measured += c.op;
                if !c.ok {
                    outcome.failed += 1;
                }
                if traced {
                    traced_ops += 1;
                    warnings += c.warnings;
                    lines += exps.iter().map(|e| e.lines).sum::<u64>();
                    op.push(c.op);
                } else if config.trace {
                    untraced_op.push(c.op);
                } else {
                    op.push(c.op);
                    step.push(c.step);
                    events += c.events;
                }
            }
            Err(e) => {
                eprintln!("perfbench: ior-compare: {e}");
                outcome.failed += 1;
            }
        }
    }
    let peak = peak_rss_mb();

    if config.trace {
        let report = st_obs::report_since(&mark);
        let mut layers = Layers::from_report(&report, traced_ops, Layers::op_wall_ns(&report));
        layers.set(
            "strace.lines_per_s",
            ratio(lines as f64, Layers::bucket_seconds(&report, "strace")),
        );
        layers.set("strace.warnings", warnings as f64);
        layers.set("source.workers", routes.mean_workers());
        layers.set(
            "obs.overhead_ratio",
            ratio(op.quantile(0.5), untraced_op.quantile(0.5)),
        );
        outcome.metrics = layers.metrics();
    } else {
        let e2e = EndToEnd {
            setup_s: setup_seconds(config, first_setup, |rep| setup(config, rep))?,
            peak_rss_mb: peak,
            op,
            step,
            events,
            elapsed: measured,
        };
        outcome.metrics = e2e.metrics();
        outcome.info.push(("samples", e2e.info()));
    }
    outcome.info.push(("routes", routes.json()));
    Ok(outcome)
}
