//! `store-narrowing`: the paper's iterative narrowing onto a contention
//! window, over a v2 store. Set-up writes a store of seeded paper-IOR
//! job runs, both Sec. V experiments over and over on forked seeds, one
//! after another on the timeline, until its decoded events are well over
//! the decoded-block cache budget, while every session's broad window
//! fits in it. One session is a cold re-query session on a broad time
//! window over the first part of one job run plus an emit-stats
//! projection, then refinements through `Session::refilter` whose values
//! come from the events in the window.
//! It loads `store` seek/decode, `query` pruning and the block cache,
//! with no text parsing and no HTTP.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use st_core::render::render_stats_text;
use st_model::{CaseMeta, Event, Interner, Micros, Pid, Symbol};
use st_query::{parse_expr, Predicate};
use st_source::{Inspector, Session};
use st_store::{ColumnSet, StoreBuilder, DEFAULT_CACHE_BUDGET};

use crate::inputs::paper_ior;
use crate::measure::{median, peak_rss_mb, ratio, reset_peak_rss, Rng, Samples};
use crate::report::{EndToEnd, Layers};
use crate::{setup_seconds, timed, Config, Outcome, Tally, WorkDir};

/// The store's decoded events must reach this multiple of the cache
/// budget.
const OVER_BUDGET: f64 = 1.5;
/// Idle time between one job run's last event and the next run's first.
const RUN_GAP_US: u64 = 50_000;
/// Job run `j` offsets its rank ids and pids by `j` times this, so every
/// run's cases and processes stay distinct.
const ID_STRIDE: u32 = 1_000;
/// One event in this many is kept as a sample that windows and
/// refinement values are drawn from.
const SAMPLE_EVERY: usize = 64;
/// One session in this many is checked against fresh cold sessions.
const CHECK_EVERY: u64 = 8;

/// The event columns the stats projection reads (the CLI's and the
/// daemon's analysis set).
fn analysis_columns() -> ColumnSet {
    ColumnSet::ALL.without(ColumnSet::REQUESTED | ColumnSet::OFFSET)
}

/// A stored event the session plans draw on.
#[derive(Clone, Copy)]
struct Sample {
    start: u64,
    pid: Pid,
    path: Symbol,
}

struct Store {
    spec: String,
    interner: Arc<Interner>,
    /// Every [`SAMPLE_EVERY`]-th event of each case, start-sorted.
    samples: Vec<Sample>,
    /// Each job run's first start and last end, in timeline order.
    runs: Vec<(u64, u64)>,
    events: usize,
    _dir: WorkDir,
}

fn setup(config: &Config, rep: usize) -> Result<Store, String> {
    let dir = WorkDir::create(config.work.join(format!("narrowing-{rep}")))?;
    let path = dir.path().join("narrowing.stlog");
    let interner = Interner::new_shared();
    let mut builder = StoreBuilder::create(&path, interner.clone()).map_err(|e| e.to_string())?;
    let seeds = Rng::new(config.seed);
    let target = DEFAULT_CACHE_BUDGET as f64 * OVER_BUDGET;
    let (mut decoded, mut runs, mut cursor) = (0usize, Vec::new(), None::<u64>);
    let mut samples = Vec::new();
    for generation in 0.. {
        if (decoded * std::mem::size_of::<Event>()) as f64 >= target {
            break;
        }
        for exp in paper_ior(seeds.fork(100 + generation).next_u64(), &interner) {
            let events = || exp.log.cases().iter().flat_map(|c| &c.events);
            let first = events().map(|e| e.start.0).min().unwrap_or(0);
            let last = events().map(|e| e.end().0).max().unwrap_or(first);
            // Each run starts where the previous one ended, plus a gap.
            let begin = cursor.unwrap_or(first);
            let ids = runs.len() as u32 * ID_STRIDE;
            let mut moved = Vec::new();
            for case in exp.log.cases() {
                moved.clear();
                moved.extend(case.events.iter().map(|e| Event {
                    pid: Pid(e.pid.0 + ids),
                    start: Micros(e.start.0 - first + begin),
                    ..*e
                }));
                samples.extend(moved.iter().step_by(SAMPLE_EVERY).map(|e| Sample {
                    start: e.start.0,
                    pid: e.pid,
                    path: e.path,
                }));
                let meta = CaseMeta {
                    rid: case.meta.rid + ids,
                    ..case.meta
                };
                builder.push_case(meta, &moved).map_err(|e| e.to_string())?;
                decoded += moved.len();
            }
            runs.push((begin, begin + (last - first)));
            cursor = Some(begin + (last - first) + RUN_GAP_US);
        }
    }
    builder.finish().map_err(|e| e.to_string())?;
    samples.sort_by_key(|s| s.start);
    Ok(Store {
        spec: path.to_string_lossy().into_owned(),
        interner,
        samples,
        runs,
        events: decoded,
        _dir: dir,
    })
}

fn clock(us: u64) -> String {
    Micros(us).format_time_of_day()
}

/// A seeded narrowing session: a broad window over the first 20–60 % of
/// one job run, then refinements each conjoined onto it — a narrower
/// window, the pid and the directory of events inside the window, one
/// call class, the failed calls. Every window holds its run's start-up
/// burst of library probes and reaches into its I/O phase, and admits
/// all of the run's blocks, so the cold cost grows smoothly with the
/// window's width.
fn plan_session(rng: &mut Rng, store: &Store) -> (String, Vec<String>) {
    let (from, end) = *rng.pick(&store.runs);
    let width = ((rng.range(0.2, 0.6) * (end - from) as f64) as u64).max(2);
    let broad = format!("t=[{},{})", clock(from), clock(from + width));
    let samples = &store.samples;
    // Never empty: the run's first event is a sample, at `from`.
    let inside = &samples[samples.partition_point(|s| s.start < from)
        ..samples.partition_point(|s| s.start < from + width)];
    let sub = (rng.range(0.2, 0.5) * width as f64) as u64;
    let sub_from = from + rng.below(width - sub);
    let path = store.interner.resolve(rng.pick(inside).path);
    let glob = match path.rsplit_once('/') {
        Some((dir, _)) => format!("{dir}/*"),
        None => path.to_string(),
    };
    let refinements = vec![
        format!("t=[{},{})", clock(sub_from), clock(sub_from + sub)),
        format!("pid={}", rng.pick(inside).pid),
        format!("path~\"{glob}\""),
        format!("class={}", rng.pick(&["read", "write", "open", "data"])),
        "ok=false".to_string(),
    ];
    (broad, refinements)
}

fn parse(expr: &str) -> Result<Predicate, String> {
    parse_expr(expr).map_err(|e| format!("{expr}: {e}"))
}

/// The emit-stats projection of a session.
fn project(session: &Session) -> String {
    let mapped = {
        let _s = st_obs::span("core.map");
        session.mapped()
    };
    let _s = st_obs::span("core.render");
    render_stats_text(&mapped, &session.view())
}

/// Running totals of the pushdown and cache accounting.
#[derive(Default)]
struct Accounting {
    blocks_pruned: u64,
    blocks_total: u64,
    events_decoded: u64,
    events_matched: u64,
    bytes_read: u64,
    bytes_total: u64,
    refine_hits: u64,
    refine_lookups: u64,
    /// Cache residency after each query.
    cache_bytes: Vec<f64>,
}

impl Accounting {
    fn add(&mut self, session: &Session, refinement: bool) {
        if let Some(p) = session.pushdown() {
            self.blocks_pruned += p.blocks_pruned as u64;
            self.blocks_total += p.blocks_total as u64;
            self.events_decoded += p.events_decoded;
            self.events_matched += p.events_matched;
            self.bytes_read += p.bytes_read;
            self.bytes_total += p.bytes_total;
        }
        if let Some(c) = session.cache_stats() {
            if refinement {
                self.refine_hits += c.hits;
                self.refine_lookups += c.hits + c.misses;
            }
            self.cache_bytes.push(c.bytes as f64);
        }
    }
}

/// Whether `session` holds exactly what a fresh cold session on `pred`
/// holds, with the identical stats text. Runs untraced, so the check's
/// spans stay out of the per-layer split.
fn matches_fresh(store: &Store, pred: Predicate, session: &Session, text: &str) -> bool {
    let traced = st_obs::enabled();
    st_obs::set_enabled(false);
    let same = Inspector::open(&store.spec)
        .map(|i| i.columns(analysis_columns()).filter(pred))
        .and_then(Inspector::session)
        .is_ok_and(|fresh| fresh.log().cases() == session.log().cases() && project(&fresh) == text);
    st_obs::set_enabled(traced);
    same
}

pub fn run(config: &Config) -> Result<Outcome, String> {
    let (first_setup, store) = timed(|| setup(config, 0))?;
    let mut outcome = Outcome {
        checks_ok: true,
        ..Outcome::default()
    };
    let rng = Rng::new(config.seed);
    let (mut plans, mut checks) = (rng.fork(1), rng.fork(2));
    let mut routes = Tally::default();
    let mut acct = Accounting::default();
    let (mut cold, mut warm, mut events) = (Samples::default(), Samples::default(), 0u64);
    let mut untraced_cold = Samples::default();
    let mut traced_ops = 0u64;

    reset_peak_rss();
    let mark = st_obs::mark();
    let wall = Instant::now();
    let mut unmeasured = Duration::ZERO;
    let mut sessions = 0u64;
    while (wall.elapsed().saturating_sub(unmeasured) < config.seconds
        || cold.len() < config.min_ops())
        && wall.elapsed() < 3 * config.seconds
    {
        let traced = config.trace && sessions.is_multiple_of(2);
        let check = sessions == 0 || checks.below(CHECK_EVERY) == 0;
        sessions += 1;
        st_obs::set_enabled(traced);
        let (broad, refinements) = plan_session(&mut plans, &store);
        let result = narrow(
            &store,
            &broad,
            &refinements,
            check,
            &mut Recorder {
                routes: &mut routes,
                acct: &mut acct,
                unmeasured: &mut unmeasured,
            },
        );
        st_obs::set_enabled(false);
        outcome.attempted += 1 + refinements.len() as u64;
        match result {
            Ok(r) => {
                outcome.failed += r.failed;
                if traced {
                    traced_ops += 1 + r.warm.len() as u64;
                    cold.push(r.cold);
                } else if config.trace {
                    untraced_cold.push(r.cold);
                } else {
                    cold.push(r.cold);
                    for w in r.warm {
                        warm.push(w);
                    }
                    events += r.events;
                }
            }
            Err(e) => {
                eprintln!("perfbench: store-narrowing: {e}");
                outcome.failed += 1 + refinements.len() as u64;
            }
        }
    }
    let elapsed = wall.elapsed().saturating_sub(unmeasured);
    let peak = peak_rss_mb();

    if config.trace {
        let report = st_obs::report_since(&mark);
        let mut layers = Layers::from_report(&report, traced_ops, Layers::op_wall_ns(&report));
        layers.set("source.workers", routes.mean_workers());
        layers.set(
            "query.pruned_ratio",
            ratio(acct.blocks_pruned as f64, acct.blocks_total as f64),
        );
        layers.set(
            "query.match_ratio",
            ratio(acct.events_matched as f64, acct.events_decoded as f64),
        );
        layers.set(
            "store.read_fraction",
            ratio(acct.bytes_read as f64, acct.bytes_total as f64),
        );
        layers.set(
            "store.cache_hit_rate",
            ratio(acct.refine_hits as f64, acct.refine_lookups as f64),
        );
        layers.set("store.cache_bytes", median(&acct.cache_bytes));
        layers.set(
            "obs.overhead_ratio",
            ratio(cold.quantile(0.5), untraced_cold.quantile(0.5)),
        );
        outcome.metrics = layers.metrics();
    } else {
        let e2e = EndToEnd {
            setup_s: setup_seconds(config, first_setup, |rep| setup(config, rep))?,
            peak_rss_mb: peak,
            op: cold,
            step: warm,
            events,
            elapsed,
        };
        outcome.metrics = e2e.metrics();
        outcome.info.push(("samples", e2e.info()));
    }
    outcome.info.push((
        "store",
        format!(
            "{{\"runs\": {}, \"events\": {}, \"decoded_over_budget\": {:.3}}}",
            store.runs.len(),
            store.events,
            (store.events * std::mem::size_of::<Event>()) as f64 / DEFAULT_CACHE_BUDGET as f64
        ),
    ));
    outcome.info.push(("routes", routes.json()));
    Ok(outcome)
}

/// Where one narrowing session records what it saw.
struct Recorder<'a> {
    routes: &'a mut Tally,
    acct: &'a mut Accounting,
    /// Time spent on untimed checks, excluded from the phase length.
    unmeasured: &'a mut Duration,
}

struct Narrowed {
    cold: Duration,
    warm: Vec<Duration>,
    events: u64,
    failed: u64,
}

/// One session: the cold broad query, then each refinement.
fn narrow(
    store: &Store,
    broad: &str,
    refinements: &[String],
    check: bool,
    log: &mut Recorder<'_>,
) -> Result<Narrowed, String> {
    let broad_pred = parse(broad)?;
    let t0 = Instant::now();
    let op = st_obs::span("op");
    let session = {
        let _s = st_obs::span("source.session");
        Inspector::open(&store.spec)
            .map(|i| {
                i.requery(true)
                    .columns(analysis_columns())
                    .filter(broad_pred.clone())
            })
            .and_then(Inspector::session)
            .map_err(|e| e.to_string())?
    };
    let text = project(&session);
    drop(op);
    let mut out = Narrowed {
        cold: t0.elapsed(),
        warm: Vec::with_capacity(refinements.len()),
        events: session.events_matched() as u64,
        failed: 0,
    };
    black_box(text.len());
    log.routes.routes(session.report());
    log.acct.add(&session, false);

    let mut session = session;
    for refinement in refinements {
        let pred = broad_pred.clone().and(parse(refinement)?);
        let t0 = Instant::now();
        let op = st_obs::span("op");
        let refined = {
            let _s = st_obs::span("source.session");
            session.refilter(pred.clone()).map_err(|e| e.to_string())?
        };
        let text = project(&refined);
        drop(op);
        out.warm.push(t0.elapsed());
        out.events += refined.events_matched() as u64;
        log.routes.routes(refined.report());
        log.acct.add(&refined, true);
        if check {
            let t0 = Instant::now();
            if !matches_fresh(store, pred, &refined, &text) {
                eprintln!(
                    "perfbench: store-narrowing: {broad} {refinement} differs from a fresh session"
                );
                out.failed += 1;
            }
            *log.unmeasured += t0.elapsed();
        }
        session = refined;
    }
    Ok(out)
}
