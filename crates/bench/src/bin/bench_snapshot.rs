//! `bench_snapshot` — records the ingestion/DFG performance trajectory.
//!
//! Runs the parser experiments (sequential baseline plus a thread sweep
//! of the parallel parser), the mapping, DFG-build and activity-log
//! rows, the statistics scaling rows in n and m (the paper's O(mn)
//! claim, Sec. V), windowed vs exact max concurrency (Eq. 16), dense
//! rendering in m (the O(m²) claim), the per-figure end-to-end
//! regenerations, the filter-scan and slice-projection probes, the
//! store predicate-pushdown comparison (full-load scan
//! vs zone-map block pruning at 0.1%/10%/100% selectivity), the
//! out-of-core comparison (bytes fetched off disk by the seek reader
//! at each selectivity, plus the streaming writer's wall time and
//! peak encode buffer), the re-query comparison (a cold narrow query
//! vs `Session::refilter` over a warm decoded-block cache), and the
//! salvage-decode overhead (clean and degraded containers vs the
//! strict read), plus the st-obs instrumentation overhead on the
//! parse+dfg hot path (collection disabled vs enabled), and writes
//! a machine-readable `BENCH_ingest.json` at the repository root, so
//! successive PRs can compare numbers:
//!
//! ```text
//! cargo run --release -p st-bench --bin bench_snapshot -- [--quick] [--out PATH]
//! ```
//!
//! `--quick` shrinks the workloads for CI smoke runs (the JSON records
//! which mode produced it).

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use st_bench::experiments::{ior_mpiio, ior_ssf_fpp, ls_experiment, site_mapping, Scale};
use st_bench::synth::{generate, generate_strace_text, SynthSpec};
use st_core::concurrency::{max_concurrency_exact, max_concurrency_windowed};
use st_core::prelude::*;
use st_model::{Case, CaseMeta, Event, EventLog, Interner, LogView, Micros, Pid, Syscall};
use st_query::pushdown::{read_pruned, read_pruned_par, ColumnSet};
use st_query::{group_by, parse_expr, scan, scan_par, GroupKey, Predicate};
use st_store::{BytesSegment, SegmentReader, SegmentSource, StoreBuilder};
use st_strace::{parse_par, parse_reader, parse_str};

/// Reference DFG accumulation the dense path replaced: one ordered-map
/// lookup per edge increment and per occurrence count (the seed
/// strategy). Measured here so the dense-accumulator speedup stays
/// visible in the snapshot.
fn btreemap_reference_build(mapped: &MappedLog<'_>) -> u64 {
    let mut edges: BTreeMap<(u32, u32), u64> = BTreeMap::new();
    let mut occurrences: BTreeMap<u32, u64> = BTreeMap::new();
    let start = u32::MAX - 1;
    let end = u32::MAX;
    for row in mapped.assignments() {
        let mut prev: Option<u32> = None;
        for act in row.iter().filter_map(|a| *a) {
            let node = act.0;
            *occurrences.entry(node).or_insert(0) += 1;
            *edges.entry((prev.unwrap_or(start), node)).or_insert(0) += 1;
            prev = Some(node);
        }
        if let Some(last) = prev {
            *edges.entry((last, end)).or_insert(0) += 1;
            *occurrences.entry(start).or_insert(0) += 1;
            *occurrences.entry(end).or_insert(0) += 1;
        }
    }
    edges.values().sum()
}

/// Strips a mapping of its [`Mapping::keyed_by_call_path`] pledge, so
/// `MappedLog` cannot memoize it: the reference the per-(call, path)
/// memo row is measured against — same activity strings, one format +
/// intern per event instead of one per distinct key.
struct Unmemoized<M: Mapping>(M);

impl<M: Mapping> Mapping for Unmemoized<M> {
    fn write_activity(
        &self,
        ctx: &st_core::mapping::MapCtx<'_>,
        meta: &CaseMeta,
        event: &st_model::Event,
        out: &mut String,
    ) -> bool {
        self.0.write_activity(ctx, meta, event, out)
    }
}

/// A log whose DFG is (almost) complete over `m` activities: one long
/// case visiting every ordered pair `(i, j)` back to back, so the edge
/// list — and the rendering — is quadratic in `m`.
fn dense_log(m: usize) -> EventLog {
    let mut log = EventLog::with_new_interner();
    let interner = std::sync::Arc::clone(log.interner());
    let meta = CaseMeta {
        cid: interner.intern("dense"),
        host: interner.intern("h"),
        rid: 0,
    };
    let paths: Vec<_> = (0..m)
        .map(|i| interner.intern(&format!("/d{i}/f")))
        .collect();
    let mut events = Vec::with_capacity(2 * m * m);
    let mut t = 0u64;
    for i in 0..m {
        for j in 0..m {
            for path in [paths[i], paths[j]] {
                events.push(
                    Event::new(Pid(1), Syscall::Read, Micros(t), Micros(1), path).with_size(8),
                );
                t += 2;
            }
        }
    }
    log.push_case(Case::from_events(meta, events));
    log
}

/// `n` random intervals over a 1 s span, 1–5 ms long.
fn random_intervals(n: usize, seed: u64) -> Vec<(Micros, Micros)> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let s = rng.gen_range(0..1_000_000u64);
            let d = rng.gen_range(1..5_000u64);
            (Micros(s), Micros(s + d))
        })
        .collect()
}

/// An in-memory container image as a zero-copy segment source.
fn image_source(image: &bytes::Bytes) -> std::sync::Arc<dyn SegmentSource> {
    std::sync::Arc::new(BytesSegment::new(image.clone()))
}

/// Best-of-N wall time of `f` (minimum over repetitions).
fn time_best<R>(reps: usize, mut f: impl FnMut() -> R) -> (Duration, R) {
    let mut best: Option<Duration> = None;
    let mut last = None;
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        let out = f();
        let dt = t0.elapsed();
        if best.map(|b| dt < b).unwrap_or(true) {
            best = Some(dt);
        }
        last = Some(out);
    }
    (best.unwrap(), last.unwrap())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_ingest.json".to_string());

    let (parse_lines, dfg_events, reps) = if quick {
        (20_000usize, 40_000usize, 2usize)
    } else {
        (200_000usize, 200_000usize, 3usize)
    };
    let thread_sweep = [2usize, 4, 8];

    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    // ---- parser: sequential baseline + thread sweep ------------------
    let text = generate_strace_text(parse_lines, 0xC0FFEE);
    let (seq_dt, seq_events) = time_best(reps, || {
        let interner = Interner::new();
        parse_str(&text, &interner).events.len()
    });
    // Copying line-at-a-time reference (the pre-zero-copy ingest shape).
    let (reader_dt, _) = time_best(reps, || {
        let interner = Interner::new();
        let mut cursor = std::io::Cursor::new(text.as_bytes());
        parse_reader(&mut cursor, &interner).unwrap().events.len()
    });
    assert_eq!(seq_events, parse_lines);
    let seq_ns = seq_dt.as_nanos() as f64;
    let lines_per_sec = parse_lines as f64 / seq_dt.as_secs_f64();
    eprintln!(
        "parse_str: {parse_lines} lines in {:.1} ms ({:.2} Mlines/s)",
        seq_ns / 1e6,
        lines_per_sec / 1e6
    );

    let mut sweep_rows = Vec::new();
    for &threads in &thread_sweep {
        let (par_dt, par_events) = time_best(reps, || {
            let interner = Interner::new();
            parse_par(&text, &interner, threads).events.len()
        });
        assert_eq!(par_events, parse_lines);
        let speedup = seq_dt.as_secs_f64() / par_dt.as_secs_f64();
        eprintln!(
            "parse_par x{threads}: {:.1} ms (speedup {speedup:.2}x)",
            par_dt.as_nanos() as f64 / 1e6
        );
        sweep_rows.push(format!(
            "{{\"threads\": {threads}, \"ns\": {}, \"lines_per_sec\": {:.1}, \"speedup\": {speedup:.4}}}",
            par_dt.as_nanos(),
            parse_lines as f64 / par_dt.as_secs_f64()
        ));
    }

    // ---- DFG: mapping apply, build and activity-log multiset ---------
    let spec = SynthSpec {
        cases: 32,
        events_per_case: dfg_events / 32,
        paths: 64,
        seed: 2,
    };
    let log = generate(&spec);
    let n_events = log.total_events();

    let (map_dt, memo_mapped) = time_best(reps, || {
        MappedLog::new(&log, &CallTopDirs::new(2)).mapped_events()
    });
    // Same activity strings with the per-(call, path) memo disabled:
    // the formatting + interning cost the memo removes from every event
    // after the first occurrence of its key.
    let (unmemo_dt, unmemo_mapped) = time_best(reps, || {
        MappedLog::new(&log, &Unmemoized(CallTopDirs::new(2))).mapped_events()
    });
    assert_eq!(memo_mapped, unmemo_mapped);
    let memo_speedup = unmemo_dt.as_secs_f64() / map_dt.as_secs_f64();
    eprintln!(
        "mapping apply: {:.1} ns/event memoized vs {:.1} ns/event unmemoized ({memo_speedup:.2}x)",
        map_dt.as_nanos() as f64 / n_events as f64,
        unmemo_dt.as_nanos() as f64 / n_events as f64,
    );
    let mapped = MappedLog::new(&log, &CallTopDirs::new(2));
    let (build_dt, edge_obs) =
        time_best(reps, || Dfg::from_mapped(&mapped).total_edge_observations());
    let (btree_dt, btree_obs) = time_best(reps, || btreemap_reference_build(&mapped));
    assert_eq!(btree_obs, edge_obs);
    let build_ns_per_event = build_dt.as_nanos() as f64 / n_events as f64;
    let dense_speedup = btree_dt.as_secs_f64() / build_dt.as_secs_f64();
    let (alog_dt, _) = time_best(reps, || ActivityLog::from_mapped(&mapped).distinct_traces());
    let alog_ns_per_event = alog_dt.as_nanos() as f64 / n_events as f64;
    eprintln!(
        "dfg build: {n_events} events, {build_ns_per_event:.1} ns/event ({dense_speedup:.2}x vs BTreeMap ref); activity log {alog_ns_per_event:.1} ns/event"
    );

    // ---- stats: IoStatistics::compute in n and m ---------------------
    // The paper's O(mn) claim (Sec. V): one sweep over n events with m
    // activities, timed at growing n (fixed mapping) and growing m
    // (fixed n, deeper path prefixes), plus the paper-scale Sec. V-A log
    // under the site mapping of Fig. 8a. The first `compute` on a mapped
    // log also builds its sorted interval index, which later calls and
    // views reuse; `compute_ns` times that first call, on a fresh
    // mapping (built off the clock) per repetition.
    let first_compute = |log: &EventLog, mapping: &dyn Mapping| {
        (0..reps.max(1))
            .map(|_| {
                let mapped = MappedLog::new(log, mapping);
                let t0 = Instant::now();
                let activities = IoStatistics::compute(&mapped).len();
                (t0.elapsed(), activities, mapped.mapped_events())
            })
            .min_by_key(|&(dt, _, _)| dt)
            .expect("at least one repetition")
    };
    let stats_row = |log: &EventLog, mapping: &dyn Mapping, key: &str, value: usize| {
        let (dt, activities, events) = first_compute(log, mapping);
        let ns_per_event = dt.as_nanos() as f64 / events as f64;
        eprintln!(
            "stats {key}={value}: {events} events, m={activities}, {ns_per_event:.1} ns/event"
        );
        format!(
            "{{\"{key}\": {value}, \"events\": {events}, \"activities\": {activities}, \"compute_ns\": {}, \"ns_per_event\": {ns_per_event:.3}}}",
            dt.as_nanos()
        )
    };
    let stats_n_sweep: [usize; 3] = if quick {
        [2_500, 10_000, 40_000]
    } else {
        [10_000, 50_000, 200_000]
    };
    let stats_n_rows: Vec<String> = stats_n_sweep
        .iter()
        .map(|&events| {
            let log = generate(&SynthSpec {
                cases: 32,
                events_per_case: events / 32,
                paths: 64,
                seed: 4,
            });
            stats_row(&log, &CallTopDirs::new(2), "target_events", events)
        })
        .collect();
    let stats_m_rows: Vec<String> = [8usize, 64, 512]
        .iter()
        .map(|&paths| {
            let log = generate(&SynthSpec {
                cases: 32,
                events_per_case: if quick { 500 } else { 2_000 },
                paths,
                seed: 5,
            });
            stats_row(&log, &CallTopDirs::new(4), "paths", paths)
        })
        .collect();
    let ior_scale = if quick { Scale::Small } else { Scale::Paper };
    let ior_ranks = ior_scale.config().total_ranks();
    // The paper-scale row splits the first call (index build included),
    // a warm repeat on the same mapped log, and one per-cid view (the
    // SSF run, cid `s`) over the warm index.
    let stats_ior_row = {
        let log = ior_ssf_fpp(ior_scale);
        let mapping = site_mapping(&ior_scale.config(), 0);
        let (first_dt, activities, events) = first_compute(&log, &mapping);
        let mapped = MappedLog::new(&log, &mapping);
        IoStatistics::compute(&mapped); // builds the index
        let (warm_dt, _) = time_best(reps, || IoStatistics::compute(&mapped).len());
        let cid = log.interner().get("s").expect("the SSF run has cid `s`");
        let view = LogView::full(&log).refine(|meta, _| meta.cid == cid);
        let (view_dt, _) = time_best(reps, || IoStatistics::compute_view(&mapped, &view).len());
        let ns_per_event = first_dt.as_nanos() as f64 / events as f64;
        eprintln!(
            "stats ranks={ior_ranks}: {events} events, m={activities}, first {:.2} ms ({ns_per_event:.1} ns/event), warm {:.2} ms, cid view {:.2} ms",
            first_dt.as_nanos() as f64 / 1e6,
            warm_dt.as_nanos() as f64 / 1e6,
            view_dt.as_nanos() as f64 / 1e6,
        );
        format!(
            "{{\"ranks\": {ior_ranks}, \"events\": {events}, \"activities\": {activities}, \"first_compute_ns\": {}, \"warm_compute_ns\": {}, \"cid_view_ns\": {}, \"ns_per_event\": {ns_per_event:.3}}}",
            first_dt.as_nanos(),
            warm_dt.as_nanos(),
            view_dt.as_nanos(),
        )
    };

    // ---- concurrency: windowed Eq. 16 vs the exact sweep -------------
    let conc_sweep: &[usize] = if quick {
        &[1_000, 10_000]
    } else {
        &[1_000, 10_000, 100_000]
    };
    let conc_rows: Vec<String> = conc_sweep
        .iter()
        .map(|&n| {
            let ivs = random_intervals(n, 7);
            let (win_dt, win_max) = time_best(reps, || max_concurrency_windowed(&ivs));
            let (exact_dt, exact_max) = time_best(reps, || max_concurrency_exact(&ivs));
            assert!(win_max >= exact_max, "windowed bound below the exact max");
            eprintln!(
                "concurrency n={n}: windowed {:.2} ms (max {win_max}) vs exact {:.2} ms (max {exact_max})",
                win_dt.as_nanos() as f64 / 1e6,
                exact_dt.as_nanos() as f64 / 1e6,
            );
            format!(
                "{{\"intervals\": {n}, \"windowed_ns\": {}, \"exact_ns\": {}, \"windowed_max\": {win_max}, \"exact_max\": {exact_max}}}",
                win_dt.as_nanos(),
                exact_dt.as_nanos(),
            )
        })
        .collect();

    // ---- render: dense DOT in m (the O(m²) claim) --------------------
    let dense = |m: usize| {
        let log = dense_log(m);
        let mapped = MappedLog::new(&log, &CallTopDirs::new(2));
        let dfg = Dfg::from_mapped(&mapped);
        let stats = IoStatistics::compute(&mapped);
        assert!(dfg.edges().count() >= m * m, "graph must be dense");
        (dfg, stats)
    };
    let render_sweep: [usize; 3] = if quick { [10, 20, 40] } else { [10, 40, 80] };
    let render_rows: Vec<String> = render_sweep
        .iter()
        .map(|&m| {
            let (dfg, stats) = dense(m);
            let (dt, dot_bytes) = time_best(reps, || {
                render_dot(
                    &dfg,
                    Some(&stats),
                    &StatisticsColoring::by_load(&stats),
                    &RenderOptions::default(),
                )
                .len()
            });
            eprintln!(
                "render m={m}: {} edges, {:.2} ms",
                dfg.edges().count(),
                dt.as_nanos() as f64 / 1e6
            );
            format!(
                "{{\"m\": {m}, \"edges\": {}, \"dot_ns\": {}, \"dot_bytes\": {dot_bytes}}}",
                dfg.edges().count(),
                dt.as_nanos()
            )
        })
        .collect();
    let (summary_dt, _) = {
        let (dfg, stats) = dense(40);
        time_best(reps, || render_summary(&dfg, Some(&stats)).len())
    };

    // ---- figures: each paper figure regenerated end to end -----------
    // simulate → map → DFG → stats → render; the IOR figures run at the
    // reduced 8-rank scale (the `figures` binary does the 96-rank runs).
    let (fig3_dt, _) = time_best(reps, || {
        let exp = ls_experiment();
        let mapping = CallTopDirs::new(2);
        let mx = MappedLog::new(&exp.cx, &mapping);
        let stats = IoStatistics::compute(&mx);
        let dfg = Dfg::from_mapped(&mx);
        let dfg_a = Dfg::from_mapped(&MappedLog::new(&exp.ca, &mapping));
        let dfg_b = Dfg::from_mapped(&MappedLog::new(&exp.cb, &mapping));
        render_dot(
            &dfg,
            Some(&stats),
            &PartitionColoring::new(&dfg_a, &dfg_b),
            &RenderOptions::default(),
        )
        .len()
    });
    let (fig4_dt, _) = time_best(reps, || {
        let exp = ls_experiment();
        let mapping = PathFilter::new("/usr/lib", PathSuffix::new("/usr/lib"));
        let mapped = MappedLog::new(&exp.cx, &mapping);
        let dfg = Dfg::from_mapped(&mapped);
        let stats = IoStatistics::compute(&mapped);
        render_dot(
            &dfg,
            Some(&stats),
            &StatisticsColoring::by_load(&stats),
            &RenderOptions::default(),
        )
        .len()
    });
    let (fig5_dt, _) = time_best(reps, || {
        let exp = ls_experiment();
        let mapped = MappedLog::new(&exp.cb, &CallTopDirs::new(2));
        let tl = Timeline::for_activity(&mapped, "read:/usr/lib").expect("fig5 activity");
        tl.render_ascii(72).len()
    });
    let (fig8_dt, _) = time_best(reps, || {
        let config = Scale::Small.config();
        let log = ior_ssf_fpp(Scale::Small);
        let scratch = log.filter_path_contains(&config.paths.scratch);
        let mapped = MappedLog::new(&scratch, &site_mapping(&config, 1));
        let stats = IoStatistics::compute(&mapped);
        let dfg = Dfg::from_mapped(&mapped);
        render_dot(
            &dfg,
            Some(&stats),
            &StatisticsColoring::by_load(&stats),
            &RenderOptions::default(),
        )
        .len()
    });
    let (fig9_dt, _) = time_best(reps, || {
        let config = Scale::Small.config();
        let log = ior_mpiio(Scale::Small);
        let mapping = site_mapping(&config, 0);
        let (g, r) = log.partition_by_cid("g");
        let mapped = MappedLog::new(&log, &mapping);
        let stats = IoStatistics::compute(&mapped);
        let dfg = Dfg::from_mapped(&mapped);
        let dfg_g = Dfg::from_mapped(&MappedLog::new(&g, &mapping));
        let dfg_r = Dfg::from_mapped(&MappedLog::new(&r, &mapping));
        render_dot(
            &dfg,
            Some(&stats),
            &PartitionColoring::new(&dfg_g, &dfg_r),
            &RenderOptions::default(),
        )
        .len()
    });
    eprintln!(
        "figures: fig3 {:.2} ms, fig4 {:.2} ms, fig5 {:.2} ms, fig8 {:.1} ms, fig9 {:.1} ms",
        fig3_dt.as_nanos() as f64 / 1e6,
        fig4_dt.as_nanos() as f64 / 1e6,
        fig5_dt.as_nanos() as f64 / 1e6,
        fig8_dt.as_nanos() as f64 / 1e6,
        fig9_dt.as_nanos() as f64 / 1e6,
    );

    // ---- query: filter-scan throughput -------------------------------
    // Two predicate shapes bracket the engine: a pass-all glob (every
    // event matched, selection cost dominated by per-event evaluation)
    // and a selective compound filter (~12% of events survive), plus
    // the parallel scan over the pass-all case.
    let pass_all = parse_expr("path~\"*\"").expect("pass-all filter");
    let selective = parse_expr("class=write and size>=512k").expect("selective filter");
    let (scan_all_dt, all_matched) = time_best(reps, || scan(&log, &pass_all).event_count());
    assert_eq!(all_matched, n_events);
    let (scan_sel_dt, sel_matched) = time_best(reps, || scan(&log, &selective).event_count());
    assert!(sel_matched > 0 && sel_matched < n_events);
    let (scan_par_dt, par_matched) = time_best(reps, || scan_par(&log, &pass_all, 4).event_count());
    assert_eq!(par_matched, n_events);
    let scan_all_eps = n_events as f64 / scan_all_dt.as_secs_f64();
    let scan_sel_eps = n_events as f64 / scan_sel_dt.as_secs_f64();
    eprintln!(
        "filter scan: pass-all {:.2} Mevents/s, selective {:.2} Mevents/s ({} of {n_events} kept), x4 {:.1} ms",
        scan_all_eps / 1e6,
        scan_sel_eps / 1e6,
        sel_matched,
        scan_par_dt.as_nanos() as f64 / 1e6,
    );

    // The three stages behind `stinspect query --group-by file --emit
    // dfg` after the scan: explode a view into per-file groups, project
    // one view to a DFG over the full log's mapping, and project every
    // group (the per-file DFG family).
    let project_events = if quick { 20_000usize } else { 100_000usize };
    let project_log = generate(&SynthSpec {
        cases: 32,
        events_per_case: project_events / 32,
        paths: 64,
        seed: 10,
    });
    let project_mapped = MappedLog::new(&project_log, &CallTopDirs::new(2));
    let project_view = scan(&project_log, &Predicate::True);
    let (group_dt, groups) = time_best(reps, || group_by(&project_view, GroupKey::File).len());
    let (view_dfg_dt, _) = time_best(reps, || {
        Dfg::from_mapped_view(&project_mapped, &project_view).total_edge_observations()
    });
    let (family_dt, _) = time_best(reps, || {
        group_by(&project_view, GroupKey::File)
            .iter()
            .map(|(_, v)| Dfg::from_mapped_view(&project_mapped, v).total_edge_observations())
            .sum::<u64>()
    });
    eprintln!(
        "query project: group_by file {:.2} ms ({groups} groups), dfg from view {:.2} ms, per-file family {:.2} ms",
        group_dt.as_nanos() as f64 / 1e6,
        view_dfg_dt.as_nanos() as f64 / 1e6,
        family_dt.as_nanos() as f64 / 1e6,
    );

    // ---- store: predicate pushdown vs full-load scan ----------------
    // A bigger per-case event count than the DFG workload, so the
    // default 4096-event blocks give the zone maps real pruning
    // granularity (the paper-scale traces carry tens of thousands of
    // events per rank). Three selectivities bracket the pushdown path:
    // a ~0.1% time slice (the target workload: a narrow inspection
    // window over a huge store), a ~10% window, and pass-all (pure
    // overhead measurement).
    let pd_spec = SynthSpec {
        cases: 8,
        events_per_case: if quick { 20_000 / 8 } else { 200_000 / 8 },
        paths: 64,
        seed: 5,
    };
    let pd_log = generate(&pd_spec);
    let pd_events = pd_log.total_events();
    // Quick mode shrinks the log below one default block per case;
    // scale the block size down with it so pruning stays observable
    // (the JSON records the size used).
    let pd_block_events = if quick {
        512
    } else {
        st_store::DEFAULT_BLOCK_EVENTS
    };
    let store_bytes =
        st_store::to_bytes_blocked(&pd_log, pd_block_events).expect("serialize store");
    let reader = SegmentReader::from_source(image_source(&store_bytes)).expect("open store");
    let t0 = pd_log.earliest_start().unwrap_or(Micros::ZERO);
    let t_end = pd_log
        .iter_events()
        .map(|(_, e)| e.start)
        .max()
        .unwrap_or(Micros::ZERO);
    let span = t_end.as_micros() - t0.as_micros();
    let window = |frac_num: u64, frac_den: u64| Predicate::TimeWindow {
        from: Micros(span * 45 / 100),
        to: Micros(span * 45 / 100 + span * frac_num / frac_den),
        inclusive_end: false,
        absolute: false,
    };
    let mut pd_rows = Vec::new();
    for (label, pred) in [
        ("0.1%", window(1, 1000)),
        ("10%", window(10, 100)),
        ("100%", Predicate::True),
    ] {
        let (full_dt, full_matched) = time_best(reps, || {
            let full = reader.read().expect("full read");
            scan(&full, &pred).event_count()
        });
        let (pd_dt, pd_result) = time_best(reps, || {
            read_pruned(&reader, &pred, ColumnSet::ALL).expect("pushdown read")
        });
        assert_eq!(pd_result.stats.events_matched as usize, full_matched);
        // Parallel block decode (the surviving blocks fan out to the
        // scoped-worker pool; single-core containers record ≈1×).
        let (pd4_dt, pd4_result) = time_best(reps, || {
            read_pruned_par(&reader, &pred, ColumnSet::ALL, 4).expect("parallel pushdown read")
        });
        assert_eq!(pd4_result.stats.events_matched as usize, full_matched);
        // `threads == 0` engages the cost-aware scheduler: it weighs the
        // admitted blocks and their estimated decode bytes against spawn
        // overhead and available cores, and records why it chose its
        // worker count. On single-core containers every row must fall
        // back to seq with an explicit reason (the recorded fix for the
        // pushdown_par4_ns regression).
        let (pda_dt, pda_result) = time_best(reps, || {
            read_pruned_par(&reader, &pred, ColumnSet::ALL, 0).expect("auto pushdown read")
        });
        assert_eq!(pda_result.stats.events_matched as usize, full_matched);
        let sched = &pda_result.sched;
        let s = &pd_result.stats;
        let speedup = full_dt.as_secs_f64() / pd_dt.as_secs_f64();
        let bytes_ratio = s.bytes_total as f64 / (s.bytes_decoded.max(1)) as f64;
        eprintln!(
            "pushdown {label}: {full_matched} of {pd_events} matched, {:.1} ms full / {:.1} ms pushdown ({speedup:.2}x), {} of {} bytes decoded ({bytes_ratio:.1}x fewer), {}/{} blocks pruned, auto {:.1} ms ({} worker(s): {})",
            full_dt.as_nanos() as f64 / 1e6,
            pd_dt.as_nanos() as f64 / 1e6,
            s.bytes_decoded,
            s.bytes_total,
            s.blocks_pruned,
            s.blocks_total,
            pda_dt.as_nanos() as f64 / 1e6,
            sched.workers,
            sched.reason,
        );
        pd_rows.push(format!(
            "{{\"label\": \"{label}\", \"matched\": {full_matched}, \"full_scan_ns\": {}, \"full_scan_ns_per_event\": {:.3}, \"pushdown_ns\": {}, \"pushdown_ns_per_event\": {:.3}, \"pushdown_par4_ns\": {}, \"pushdown_auto_ns\": {}, \"sched_workers\": {}, \"sched_reason\": \"{}\", \"speedup\": {speedup:.4}, \"bytes_total\": {}, \"bytes_decoded\": {}, \"bytes_reduction\": {bytes_ratio:.4}, \"blocks_total\": {}, \"blocks_pruned\": {}, \"blocks_accepted\": {}, \"cases_pruned\": {}}}",
            full_dt.as_nanos(),
            full_dt.as_nanos() as f64 / pd_events as f64,
            pd_dt.as_nanos(),
            pd_dt.as_nanos() as f64 / pd_events as f64,
            pd4_dt.as_nanos(),
            pda_dt.as_nanos(),
            sched.workers,
            sched.reason,
            s.bytes_total,
            s.bytes_decoded,
            s.blocks_total,
            s.blocks_pruned,
            s.blocks_accepted,
            s.cases_pruned,
        ));
    }

    // ---- store: out-of-core seek reads + streaming writes ------------
    // The seek reader's value is byte-granular: a selective query over
    // an on-disk store should *fetch* only the head plus the surviving
    // blocks, not the container. Blocks smaller than the pushdown
    // section's default give the 0.1% window block-level resolution
    // (the fraction of the file read is the headline number). The
    // streaming writer is measured by the same workload: wall time vs
    // the resident writer, plus its encode-buffer high-water mark (the
    // working memory that replaces the full image).
    let ooc_block_events = 512usize;
    let ooc_dir = std::env::temp_dir().join(format!("st-bench-ooc-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&ooc_dir);
    std::fs::create_dir_all(&ooc_dir).expect("bench temp dir");
    let ooc_path = ooc_dir.join("ooc.stlog");
    let (stream_write_dt, peak_buffer) = time_best(reps, || {
        let mut builder = StoreBuilder::create_blocked(
            &ooc_path,
            std::sync::Arc::clone(pd_log.interner()),
            ooc_block_events,
        )
        .expect("streaming build");
        builder.push_log(&pd_log).expect("stream cases");
        let peak = builder.peak_buffer_bytes();
        builder.finish().expect("publish container");
        peak
    });
    let (resident_write_dt, _) = time_best(reps, || {
        let image = st_store::to_bytes_blocked(&pd_log, ooc_block_events).expect("serialize");
        st_store::write_atomic(&ooc_path, &image).expect("write image");
        image.len()
    });
    // The streamed and resident containers are the same bytes; reuse
    // the streamed file for the read side.
    let ooc_file_len = std::fs::metadata(&ooc_path).expect("container meta").len();
    let mut ooc_rows = Vec::new();
    for (label, pred) in [
        ("0.1%", window(1, 1000)),
        ("10%", window(10, 100)),
        ("100%", Predicate::True),
    ] {
        // Fresh reader per repetition: `bytes_read` accumulates since
        // open, and the open cost (head fetch) belongs in the number.
        let (seek_dt, seek_result) = time_best(reps, || {
            let reader = SegmentReader::open(&ooc_path).expect("seek open");
            read_pruned(&reader, &pred, ColumnSet::ALL).expect("seek pushdown read")
        });
        let s = &seek_result.stats;
        let read_fraction = s.bytes_read as f64 / ooc_file_len as f64;
        eprintln!(
            "ooc {label}: {} matched, read {} of {ooc_file_len} bytes off disk ({:.2}% of the file), {:.1} ms",
            s.events_matched,
            s.bytes_read,
            100.0 * read_fraction,
            seek_dt.as_nanos() as f64 / 1e6,
        );
        ooc_rows.push(format!(
            "{{\"label\": \"{label}\", \"matched\": {}, \"seek_ns\": {}, \"bytes_read\": {}, \"file_bytes\": {ooc_file_len}, \"read_fraction\": {read_fraction:.6}, \"blocks_pruned\": {}, \"blocks_total\": {}}}",
            s.events_matched,
            seek_dt.as_nanos(),
            s.bytes_read,
            s.blocks_pruned,
            s.blocks_total,
        ));
    }
    eprintln!(
        "ooc write: streamed {:.1} ms (peak buffer {} bytes) vs resident {:.1} ms ({} byte container)",
        stream_write_dt.as_nanos() as f64 / 1e6,
        peak_buffer,
        resident_write_dt.as_nanos() as f64 / 1e6,
        ooc_file_len,
    );
    let _ = std::fs::remove_dir_all(&ooc_dir);

    // ---- re-query: decoded-block cache on iterative narrowing --------
    // The paper's workflow is iterative: a broad query to orient, then
    // progressively narrower refinements over the same container. The
    // cold row is what each refinement costs without retained state (a
    // fresh open + filtered session, the narrow 0.1% window); the warm
    // row is `Session::refilter` over a prior broad (10%) session with
    // the decoded-block cache enabled — the narrow window's blocks are
    // a subset of the broad window's, so every admitted block is a
    // cache hit and the refinement touches zero disk bytes.
    let rq_dir = std::env::temp_dir().join(format!("st-bench-requery-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&rq_dir);
    std::fs::create_dir_all(&rq_dir).expect("bench temp dir");
    let rq_path = rq_dir.join("requery.stlog");
    std::fs::write(
        &rq_path,
        st_store::to_bytes_blocked(&pd_log, ooc_block_events).expect("serialize requery fixture"),
    )
    .expect("write requery fixture");
    let rq_spec = rq_path.display().to_string();
    let narrow = window(1, 1000);
    let (rq_cold_dt, rq_cold_matched) = time_best(reps, || {
        st_source::Inspector::open(&rq_spec)
            .expect("open requery fixture")
            .filter(narrow.clone())
            .session()
            .expect("cold session")
            .events_matched()
    });
    let broad_session = st_source::Inspector::open(&rq_spec)
        .expect("open requery fixture")
        .requery(true)
        .filter(window(10, 100))
        .session()
        .expect("broad session");
    let rq_broad_matched = broad_session.events_matched();
    let mut slot = Some(broad_session);
    let (rq_warm_dt, rq_warm) = time_best(reps, || {
        let refined = slot
            .take()
            .expect("session threads through repetitions")
            .refilter(narrow.clone())
            .expect("refilter");
        let stats = refined.cache_stats().expect("cache stats");
        let disk = refined.pushdown().expect("pushdown stats").bytes_read;
        let matched = refined.events_matched();
        let sched = refined
            .report()
            .note("route.reason")
            .unwrap_or("?")
            .to_string();
        slot = Some(refined);
        (matched, stats, disk, sched)
    });
    let (rq_warm_matched, rq_stats, rq_disk, rq_sched) = rq_warm;
    assert_eq!(
        rq_warm_matched, rq_cold_matched,
        "refilter drifted from cold evaluation"
    );
    assert_eq!(rq_disk, 0, "warm refinement read bytes off disk");
    assert!(rq_stats.hits > 0, "warm refinement missed the cache");
    let rq_cold_ns = rq_cold_dt.as_nanos();
    let rq_warm_ns = rq_warm_dt.as_nanos();
    let rq_speedup = rq_cold_dt.as_secs_f64() / rq_warm_dt.as_secs_f64();
    let rq_hits = rq_stats.hits;
    let rq_misses = rq_stats.misses;
    let rq_hit_rate = rq_hits as f64 / (rq_hits + rq_misses).max(1) as f64;
    let rq_resident = rq_stats.bytes;
    let rq_cold_npe = rq_cold_ns as f64 / rq_cold_matched.max(1) as f64;
    let rq_warm_npe = rq_warm_ns as f64 / rq_warm_matched.max(1) as f64;
    eprintln!(
        "requery: cold {:.1} ms vs warm refilter {:.2} ms ({rq_speedup:.1}x), {rq_hits}/{} blocks from cache, {rq_disk} disk bytes, sched \"{rq_sched}\"",
        rq_cold_ns as f64 / 1e6,
        rq_warm_ns as f64 / 1e6,
        rq_hits + rq_misses,
    );
    let _ = std::fs::remove_dir_all(&rq_dir);

    // ---- store: salvage decode vs strict read ------------------------
    // The fault-tolerant path re-verifies every block (bounds + CRC +
    // trial decode) before handing out a vetted reader, so salvage on a
    // clean container is the price of that vetting over the strict
    // open+read. The degraded row quarantines one block (a single bit
    // flip in the first block body — the same fault the CLI salvage
    // matrix row pins) and measures the recovery decode.
    let (strict_dt, strict_events) = time_best(reps, || {
        let reader = SegmentReader::from_source(image_source(&store_bytes)).expect("strict open");
        reader.read().expect("strict read").total_events()
    });
    assert_eq!(strict_events, pd_events);
    let (salv_clean_dt, clean_events) = time_best(reps, || {
        let salvaged = st_store::salvage_source(image_source(&store_bytes)).expect("salvage clean");
        assert!(salvaged.report.is_clean());
        salvaged.reader.read().expect("vetted read").total_events()
    });
    assert_eq!(clean_events, pd_events);
    let corrupt_image = {
        // First block body: 12-byte header, then strings and directory
        // each framed as `u64 len + body + crc32`, then the blocks
        // section's u64 length prefix.
        let mut image = store_bytes.to_vec();
        let mut off = 12usize;
        for _ in 0..2 {
            let len = u64::from_le_bytes(image[off..off + 8].try_into().unwrap()) as usize;
            off += 8 + len + 4;
        }
        image[off + 8 + 3] ^= 0x08;
        bytes::Bytes::from(image)
    };
    let (salv_bad_dt, degraded) = time_best(reps, || {
        let salvaged =
            st_store::salvage_source(image_source(&corrupt_image)).expect("salvage degraded");
        let recovered = salvaged.reader.read().expect("vetted read").total_events();
        assert_eq!(recovered as u64, salvaged.report.events_recovered);
        (
            recovered,
            salvaged.report.blocks_recovered,
            salvaged.report.blocks_total,
        )
    });
    assert!(degraded.0 < pd_events, "bit flip quarantined no block");
    let salvage_overhead = salv_clean_dt.as_secs_f64() / strict_dt.as_secs_f64();
    eprintln!(
        "salvage: strict {:.1} ms, clean salvage {:.1} ms ({salvage_overhead:.2}x), degraded {:.1} ms ({}/{} events, {}/{} blocks recovered)",
        strict_dt.as_nanos() as f64 / 1e6,
        salv_clean_dt.as_nanos() as f64 / 1e6,
        salv_bad_dt.as_nanos() as f64 / 1e6,
        degraded.0,
        pd_events,
        degraded.1,
        degraded.2,
    );

    // ---- source layer: per-input-kind open/plan overhead -------------
    // The session API adds a resolution + planning layer in front of
    // every front-end; this section records what that layer costs per
    // input kind (spec parse + capability probe as "open", the full
    // route to a materialized session as "session") so the overhead
    // stays visible across PRs. The store/dir fixtures reuse the
    // pushdown log; `sim:ls` is the in-memory workload.
    let src_dir = std::env::temp_dir().join(format!("st-bench-source-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&src_dir);
    std::fs::create_dir_all(&src_dir).expect("bench temp dir");
    let store_path = src_dir.join("fixture.stlog");
    std::fs::write(&store_path, &store_bytes).expect("write store fixture");
    let v1_path = src_dir.join("fixture-v1.stlog");
    std::fs::write(
        &v1_path,
        st_store::to_bytes_v1(&pd_log).expect("serialize v1"),
    )
    .expect("write v1 fixture");
    let trace_dir = src_dir.join("traces");
    let trace_log = st_bench::experiments::ls_experiment().cx;
    st_strace::write_log_to_dir(&trace_log, &trace_dir, &st_strace::WriteOptions::default())
        .expect("emit trace fixture");
    let mut source_rows = Vec::new();
    for (kind, spec) in [
        ("store-v2", store_path.display().to_string()),
        ("store-v1", v1_path.display().to_string()),
        ("strace-dir", trace_dir.display().to_string()),
        ("sim", "sim:ls".to_string()),
    ] {
        let (open_dt, source) = time_best(reps.max(5), || {
            spec.parse::<st_source::TraceSource>().expect("open source")
        });
        let (session_dt, matched) = time_best(reps, || {
            st_source::Inspector::from_source(source.clone())
                .session()
                .expect("materialize session")
                .events_matched()
        });
        assert!(matched > 0);
        eprintln!(
            "source {kind}: open {:.1} µs, session {:.2} ms ({matched} events)",
            open_dt.as_nanos() as f64 / 1e3,
            session_dt.as_nanos() as f64 / 1e6,
        );
        source_rows.push(format!(
            "{{\"kind\": \"{kind}\", \"open_ns\": {}, \"session_ns\": {}, \"events\": {matched}, \"supports_pushdown\": {}}}",
            open_dt.as_nanos(),
            session_dt.as_nanos(),
            source.supports_pushdown(),
        ));
    }
    let _ = std::fs::remove_dir_all(&src_dir);

    // ---- obs: instrumentation overhead on the ingest hot path --------
    // Every stage of every route now carries st-obs span/counter sites;
    // the contract (DESIGN.md §10) is that with collection *disabled*
    // each site costs one relaxed atomic load, so the parse+dfg path
    // must stay within 5% of itself with collection enabled (enabled
    // does strictly more work per site, bounding the instrumentation
    // cost from above). The same ratio is guarded by the `#[ignore]`d
    // overhead test in `tests/props_obs.rs`.
    let obs_pipeline = || {
        let interner = Interner::new_shared();
        let parsed = st_strace::parse_str(&text, &interner);
        let mut obs_log = EventLog::new(std::sync::Arc::clone(&interner));
        let meta = CaseMeta {
            cid: interner.intern("bench"),
            host: interner.intern("host"),
            rid: 0,
        };
        obs_log.push_case(Case::from_events(meta, parsed.events));
        let obs_mapped = MappedLog::new(&obs_log, &CallTopDirs::new(2));
        Dfg::from_mapped(&obs_mapped).total_edge_observations()
    };
    st_obs::set_enabled(false);
    st_obs::reset();
    let (obs_off_dt, off_edges) = time_best(reps.max(5), obs_pipeline);
    st_obs::set_enabled(true);
    st_obs::reset();
    let (obs_on_dt, on_edges) = time_best(reps.max(5), obs_pipeline);
    st_obs::set_enabled(false);
    st_obs::reset();
    assert_eq!(off_edges, on_edges);
    let obs_ratio = obs_on_dt.as_secs_f64() / obs_off_dt.as_secs_f64();
    eprintln!(
        "obs overhead: parse+dfg {:.1} ms disabled / {:.1} ms enabled ({obs_ratio:.3}x)",
        obs_off_dt.as_nanos() as f64 / 1e6,
        obs_on_dt.as_nanos() as f64 / 1e6,
    );

    // ---- serve: live daemon — concurrent ingest + HTTP query ---------
    // The whole service stack end to end over real loopback sockets:
    // HTTP framing, streaming parse, per-stream DFG fold, sealing with
    // checkpoint, and warm re-query through the cached session. One
    // row per connection count so contention stays visible.
    fn serve_get(addr: std::net::SocketAddr, target: &str) -> Vec<u8> {
        use std::io::{Read as _, Write as _};
        let mut s = std::net::TcpStream::connect(addr).expect("connect");
        write!(s, "GET {target} HTTP/1.1\r\nHost: x\r\n\r\n").expect("send");
        let mut buf = Vec::new();
        s.read_to_end(&mut buf).expect("recv");
        assert!(buf.starts_with(b"HTTP/1.1 200"), "query failed");
        buf
    }
    fn serve_ingest(addr: std::net::SocketAddr, name: &str, text: &str) {
        use std::io::{Read as _, Write as _};
        let mut s = std::net::TcpStream::connect(addr).expect("connect");
        write!(
            s,
            "POST /ingest/{name} HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n",
            text.len()
        )
        .expect("send head");
        s.write_all(text.as_bytes()).expect("send body");
        let mut buf = Vec::new();
        s.read_to_end(&mut buf).expect("recv");
        assert!(buf.starts_with(b"HTTP/1.1 200"), "ingest failed");
    }

    let serve_lines = if quick { 4_000usize } else { 40_000usize };
    let serve_sessions = if quick { 8usize } else { 32usize };
    let serve_dir = std::env::temp_dir().join(format!("st-bench-serve-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&serve_dir);
    std::fs::create_dir_all(&serve_dir).expect("serve bench dir");
    let serve_query = "/query?filter=path~%22/data/*%22&emit=stats";
    let mut serve_rows = Vec::new();
    for conns in [1usize, 8] {
        let store_path = serve_dir.join(format!("serve-{conns}.stlog2"));
        let mut cfg = st_serve::ServeConfig::new(&store_path);
        cfg.checkpoint_cases = conns; // one publish per ingest wave
        let handle = st_serve::Daemon::start(cfg).expect("start daemon");
        let addr = handle.addr();

        // Bulk ingest: serve_lines split evenly over `conns` streams.
        let per_conn = serve_lines / conns;
        let texts: Vec<String> = (0..conns)
            .map(|i| generate_strace_text(per_conn, 0xBEEF + i as u64))
            .collect();
        let ingest_t0 = Instant::now();
        let workers: Vec<_> = texts
            .into_iter()
            .enumerate()
            .map(|(i, text)| {
                std::thread::spawn(move || {
                    serve_ingest(addr, &format!("b{i}_bench_{}.st", 100 + i), &text)
                })
            })
            .collect();
        for w in workers {
            w.join().expect("ingest worker");
        }
        let ingest_dt = ingest_t0.elapsed();
        let ingest_lps = serve_lines as f64 / ingest_dt.as_secs_f64();

        // Session turnover: many small streams, again over `conns`
        // concurrent connections.
        let small = generate_strace_text(100, 0xD00D);
        let sess_t0 = Instant::now();
        let workers: Vec<_> = (0..conns)
            .map(|c| {
                let small = small.clone();
                let waves = serve_sessions / conns;
                std::thread::spawn(move || {
                    for j in 0..waves {
                        serve_ingest(addr, &format!("s{c}x{j}_bench_{}.st", 500 + c), &small);
                    }
                })
            })
            .collect();
        for w in workers {
            w.join().expect("session worker");
        }
        let sessions_per_sec = serve_sessions as f64 / sess_t0.elapsed().as_secs_f64();

        // Query latency: first hit at a fresh generation opens the
        // container (cold); repeats ride the cached session's
        // decoded-block cache (warm). The concurrent row issues
        // `conns` clients with two queries each.
        let cold_t0 = Instant::now();
        serve_get(addr, serve_query);
        let query_cold = cold_t0.elapsed();
        let (query_warm, _) = time_best(reps.max(3), || serve_get(addr, serve_query).len());
        let conc_t0 = Instant::now();
        let workers: Vec<_> = (0..conns)
            .map(|_| {
                std::thread::spawn(move || {
                    for _ in 0..2 {
                        serve_get(addr, serve_query);
                    }
                })
            })
            .collect();
        for w in workers {
            w.join().expect("query worker");
        }
        let query_conc_avg = conc_t0.elapsed().as_nanos() as f64 / (2 * conns) as f64;

        handle.shutdown();
        handle.join().expect("daemon shutdown");
        let sealed = st_store::open_salvage_seek(&store_path).expect("open sealed store");
        assert!(sealed.report.is_clean(), "sealed store must be clean");
        eprintln!(
            "serve {conns} conn(s): ingest {:.2} Mlines/s, {sessions_per_sec:.1} sessions/s, \
             query cold {:.2} ms / warm {:.2} ms / {:.2} ms avg under {conns}x2 concurrent",
            ingest_lps / 1e6,
            query_cold.as_nanos() as f64 / 1e6,
            query_warm.as_nanos() as f64 / 1e6,
            query_conc_avg / 1e6,
        );
        serve_rows.push(format!(
            "{{\"conns\": {conns}, \"ingest_lines\": {serve_lines}, \"ingest_lines_per_sec\": {ingest_lps:.1}, \"sessions\": {serve_sessions}, \"sessions_per_sec\": {sessions_per_sec:.2}, \"query_cold_ns\": {}, \"query_warm_ns\": {}, \"query_concurrent_avg_ns\": {query_conc_avg:.0}}}",
            query_cold.as_nanos(),
            query_warm.as_nanos(),
        ));
    }
    let _ = std::fs::remove_dir_all(&serve_dir);
    st_obs::set_enabled(false);
    st_obs::reset();

    let json = format!(
        "{{\n  \"quick\": {quick},\n  \"cores\": {cores},\n  \"parse\": {{\n    \"lines\": {parse_lines},\n    \"seq_ns\": {},\n    \"lines_per_sec\": {lines_per_sec:.1},\n    \"events_per_sec\": {lines_per_sec:.1},\n    \"reader_baseline_ns\": {},\n    \"thread_sweep\": [\n      {}\n    ]\n  }},\n  \"mapping\": {{\n    \"events\": {n_events},\n    \"apply_ns_per_event\": {:.3},\n    \"apply_unmemo_ns_per_event\": {:.3},\n    \"memo_speedup\": {memo_speedup:.4}\n  }},\n  \"dfg\": {{\n    \"events\": {n_events},\n    \"build_ns_per_event\": {build_ns_per_event:.3},\n    \"btreemap_reference_ns_per_event\": {:.3},\n    \"dense_speedup_vs_btreemap\": {dense_speedup:.4},\n    \"edge_observations\": {edge_obs},\n    \"activity_log_ns_per_event\": {alog_ns_per_event:.3}\n  }},\n  \"stats\": {{\n    \"vs_events\": [\n      {}\n    ],\n    \"vs_paths\": [\n      {}\n    ],\n    \"ior_ssf_fpp\": {stats_ior_row}\n  }},\n  \"concurrency\": [\n    {}\n  ],\n  \"render\": {{\n    \"dense_dot\": [\n      {}\n    ],\n    \"summary_m40_ns\": {}\n  }},\n  \"figures\": {{\n    \"fig3_ns\": {},\n    \"fig4_ns\": {},\n    \"fig5_ns\": {},\n    \"fig8_small_ns\": {},\n    \"fig9_small_ns\": {}\n  }},\n  \"query\": {{\n    \"events\": {n_events},\n    \"scan_pass_all_ns_per_event\": {:.3},\n    \"scan_pass_all_events_per_sec\": {scan_all_eps:.1},\n    \"scan_selective_ns_per_event\": {:.3},\n    \"scan_selective_events_per_sec\": {scan_sel_eps:.1},\n    \"selective_matched\": {sel_matched},\n    \"scan_pass_all_par4_ns_per_event\": {:.3},\n    \"project\": {{\n      \"events\": {project_events},\n      \"groups\": {groups},\n      \"group_by_file_ns\": {},\n      \"dfg_from_view_ns\": {},\n      \"per_file_dfg_family_ns\": {}\n    }}\n  }},\n  \"pushdown\": {{\n    \"events\": {pd_events},\n    \"store_bytes\": {},\n    \"block_events\": {},\n    \"selectivities\": [\n      {}\n    ]\n  }},\n  \"ooc\": {{\n    \"events\": {pd_events},\n    \"block_events\": {ooc_block_events},\n    \"file_bytes\": {ooc_file_len},\n    \"streaming_write_ns\": {},\n    \"resident_write_ns\": {},\n    \"peak_buffer_bytes\": {peak_buffer},\n    \"selectivities\": [\n      {}\n    ]\n  }},\n  \"requery\": {{\n    \"events\": {pd_events},\n    \"block_events\": {ooc_block_events},\n    \"matched\": {rq_cold_matched},\n    \"broad_matched\": {rq_broad_matched},\n    \"cold_ns\": {rq_cold_ns},\n    \"warm_ns\": {rq_warm_ns},\n    \"speedup\": {rq_speedup:.4},\n    \"cache_hits\": {rq_hits},\n    \"cache_misses\": {rq_misses},\n    \"hit_rate\": {rq_hit_rate:.4},\n    \"cache_resident_bytes\": {rq_resident},\n    \"warm_disk_bytes_read\": {rq_disk},\n    \"cold_ns_per_matched_event\": {rq_cold_npe:.1},\n    \"warm_ns_per_matched_event\": {rq_warm_npe:.1},\n    \"sched\": \"{rq_sched}\"\n  }},\n  \"salvage\": {{\n    \"events\": {pd_events},\n    \"strict_read_ns\": {},\n    \"clean_salvage_ns\": {},\n    \"clean_overhead_vs_strict\": {salvage_overhead:.4},\n    \"degraded_read_ns\": {},\n    \"degraded_events_recovered\": {},\n    \"degraded_blocks_recovered\": {},\n    \"blocks_total\": {}\n  }},\n  \"obs\": {{\n    \"lines\": {parse_lines},\n    \"disabled_ns\": {},\n    \"enabled_ns\": {},\n    \"enabled_over_disabled\": {obs_ratio:.4}\n  }},\n  \"serve\": [\n    {}\n  ],\n  \"source_open\": [\n    {}\n  ]\n}}\n",
        seq_dt.as_nanos(),
        reader_dt.as_nanos(),
        sweep_rows.join(",\n      "),
        map_dt.as_nanos() as f64 / n_events as f64,
        unmemo_dt.as_nanos() as f64 / n_events as f64,
        btree_dt.as_nanos() as f64 / n_events as f64,
        stats_n_rows.join(",\n      "),
        stats_m_rows.join(",\n      "),
        conc_rows.join(",\n    "),
        render_rows.join(",\n      "),
        summary_dt.as_nanos(),
        fig3_dt.as_nanos(),
        fig4_dt.as_nanos(),
        fig5_dt.as_nanos(),
        fig8_dt.as_nanos(),
        fig9_dt.as_nanos(),
        scan_all_dt.as_nanos() as f64 / n_events as f64,
        scan_sel_dt.as_nanos() as f64 / n_events as f64,
        scan_par_dt.as_nanos() as f64 / n_events as f64,
        group_dt.as_nanos(),
        view_dfg_dt.as_nanos(),
        family_dt.as_nanos(),
        store_bytes.len(),
        pd_block_events,
        pd_rows.join(",\n      "),
        stream_write_dt.as_nanos(),
        resident_write_dt.as_nanos(),
        ooc_rows.join(",\n      "),
        strict_dt.as_nanos(),
        salv_clean_dt.as_nanos(),
        salv_bad_dt.as_nanos(),
        degraded.0,
        degraded.1,
        degraded.2,
        obs_off_dt.as_nanos(),
        obs_on_dt.as_nanos(),
        serve_rows.join(",\n    "),
        source_rows.join(",\n    "),
    );
    std::fs::write(&out_path, &json).expect("write snapshot");
    println!("wrote {out_path}");
}
