//! Property-based tests of the DFG synthesis invariants (Sec. IV-A).

use std::collections::BTreeSet;

use proptest::prelude::*;
use st_inspector::core::concurrency::max_concurrency_brute;
use st_inspector::prelude::*;

mod common;
use common::{build_log, dfg_edges_by_name, log_strategy};

/// Eq. 16 counted directly: in `(start, end)` order, the widest run of
/// intervals from `i` on that start before interval `i` ends; at least
/// 1 when there is any interval.
fn windowed_oracle(intervals: &[(Micros, Micros)]) -> u32 {
    let mut sorted = intervals.to_vec();
    sorted.sort();
    (0..sorted.len())
        .map(|i| {
            let end_i = sorted[i].1;
            sorted[i..].iter().filter(|&&(s, _)| s < end_i).count() as u32
        })
        .max()
        .map_or(0, |w| w.max(1))
}

/// The most distinct cases inside an interval of `(case, start, end)`
/// at once, checked at every interval start (half-open intervals).
fn case_oracle(intervals: &[(usize, Micros, Micros)]) -> u32 {
    intervals
        .iter()
        .map(|&(_, t, _)| {
            intervals
                .iter()
                .filter(|&&(_, s, e)| s <= t && t < e)
                .map(|&(case, _, _)| case)
                .collect::<BTreeSet<_>>()
                .len() as u32
        })
        .max()
        .unwrap_or(0)
}

/// Every statistic of every activity, by name, plus the Eq. 8
/// denominator: what two equal statistics must agree on bit for bit.
fn stats_rows(stats: &IoStatistics) -> (Micros, Vec<(String, ActivityStats)>) {
    let rows = stats
        .iter()
        .map(|(_, name, s)| (name.to_string(), s.clone()))
        .collect();
    (stats.total_dur(), rows)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Flow conservation: per activity node, in-flow = out-flow =
    /// occurrence count; start out-flow = end in-flow = contributing
    /// cases.
    #[test]
    fn dfg_flow_conservation(specs in log_strategy(8, 40)) {
        let log = build_log(&specs);
        let mapped = MappedLog::new(&log, &CallTopDirs::new(2));
        let dfg = Dfg::from_mapped(&mapped);
        prop_assert!(dfg.check_invariants().is_ok());
        // Start out-flow equals the number of cases with >=1 mapped event.
        let contributing = specs.iter().filter(|c| !c.is_empty()).count() as u64;
        prop_assert_eq!(dfg.case_count(), contributing);
    }

    /// Union additivity: G[L(Ca ∪ Cb)] edge counts are the sums of the
    /// partition DFGs' counts (the property partition coloring relies
    /// on).
    #[test]
    fn union_additivity(specs in log_strategy(8, 30)) {
        let log = build_log(&specs);
        let mapping = CallTopDirs::new(2);
        let (ca, cb) = log.partition_by_cid("a");
        let full = Dfg::from_mapped(&MappedLog::new(&log, &mapping));
        let da = Dfg::from_mapped(&MappedLog::new(&ca, &mapping));
        let db = Dfg::from_mapped(&MappedLog::new(&cb, &mapping));
        for (from, to, count) in full.edges() {
            let f = full.node_name(from);
            let t = full.node_name(to);
            prop_assert_eq!(
                count,
                da.edge_count_named(f, t) + db.edge_count_named(f, t),
                "edge {} -> {}", f, t
            );
        }
        prop_assert_eq!(full.case_count(), da.case_count() + db.case_count());
    }

    /// Partition coloring is an exact 3-way split: every activity of the
    /// full DFG is green-only, red-only, or common — and the color
    /// agrees with which sub-log contains it.
    #[test]
    fn partition_coloring_is_exact(specs in log_strategy(8, 30)) {
        let log = build_log(&specs);
        let mapping = CallTopDirs::new(2);
        let (ca, cb) = log.partition_by_cid("a");
        let full = Dfg::from_mapped(&MappedLog::new(&log, &mapping));
        let da = Dfg::from_mapped(&MappedLog::new(&ca, &mapping));
        let db = Dfg::from_mapped(&MappedLog::new(&cb, &mapping));
        let styler = PartitionColoring::new(&da, &db);
        for node in full.nodes() {
            let Some(act) = node.activity() else { continue };
            let name = full.table().name(act);
            let in_a = da.has_activity(name);
            let in_b = db.has_activity(name);
            prop_assert!(in_a || in_b, "{} in neither partition", name);
            let fill = styler.node_style(name).fill;
            match (in_a, in_b) {
                (true, false) => prop_assert_eq!(fill, Some(st_inspector::core::color::Rgb::GREEN)),
                (false, true) => prop_assert_eq!(fill, Some(st_inspector::core::color::Rgb::RED)),
                (true, true) => prop_assert_eq!(fill, None),
                (false, false) => unreachable!(),
            }
        }
    }

    /// The activity-log multiset accounts for every contributing case
    /// exactly once, and rebuilding the DFG from it matches the direct
    /// construction.
    #[test]
    fn activity_log_multiset_consistency(specs in log_strategy(8, 25)) {
        let log = build_log(&specs);
        let mapped = MappedLog::new(&log, &CallTopDirs::new(2));
        let alog = ActivityLog::from_mapped(&mapped);
        let contributing = (0..log.case_count())
            .filter(|&i| !mapped.trace_of(i).is_empty())
            .count();
        prop_assert_eq!(alog.total_traces(), contributing);
        // Every case index appears exactly once across entries.
        let mut seen = std::collections::HashSet::new();
        for entry in alog.entries() {
            prop_assert_eq!(entry.cases.len(), entry.multiplicity);
            for &c in &entry.cases {
                prop_assert!(seen.insert(c));
            }
        }
        let direct = Dfg::from_mapped(&mapped);
        let via = Dfg::from_activity_log(&alog, mapped.table());
        prop_assert_eq!(dfg_edges_by_name(&direct), dfg_edges_by_name(&via));
    }

    /// Merge law of the one accumulator: split a log's cases over `k`
    /// accumulators that share the mapped log's activity table, fold
    /// each case one activity at a time, and merge the partials in any
    /// order — the result is the batch DFG, named edge for named edge,
    /// occurrence for occurrence, case for case. An open trace shows
    /// no end edge until it is closed.
    #[test]
    fn accumulator_merge_equals_batch_build(
        specs in log_strategy(8, 30),
        owners in prop::collection::vec(0usize..4, 8..9),
        order in prop::collection::vec(0u32..1000, 4..5),
    ) {
        let log = build_log(&specs);
        let mapped = MappedLog::new(&log, &CallTopDirs::new(2));
        let batch = Dfg::from_mapped(&mapped);

        let mut partials = vec![DfgAccumulator::default(); 4];
        for case_idx in 0..log.case_count() {
            let acc = &mut partials[owners[case_idx]];
            for id in mapped.trace_of(case_idx) {
                acc.observe(id);
            }
            acc.close_trace();
        }
        let mut by_order: Vec<usize> = (0..partials.len()).collect();
        by_order.sort_by_key(|&i| (order[i], i));
        let mut merged = DfgAccumulator::default();
        for i in by_order {
            merged.merge(&partials[i]);
        }
        let merged = merged.to_dfg(mapped.table());
        prop_assert!(merged.check_invariants().is_ok());
        prop_assert_eq!(dfg_edges_by_name(&merged), dfg_edges_by_name(&batch));
        prop_assert_eq!(merged.case_count(), batch.case_count());
        for node in batch.nodes() {
            prop_assert_eq!(merged.occurrences(node), batch.occurrences(node));
        }
        prop_assert_eq!(merged.nodes().count(), batch.nodes().count());

        // Reopen the first non-empty trace: until it is closed, it adds
        // its start and inner edges but no edge into the end marker.
        if let Some(trace) = (0..log.case_count())
            .map(|c| mapped.trace_of(c))
            .find(|t| !t.is_empty())
        {
            let mut open = DfgAccumulator::default();
            for &id in &trace {
                open.observe(id);
            }
            let partial = open.to_dfg(mapped.table());
            prop_assert_eq!(partial.case_count(), 0);
            prop_assert_eq!(partial.occurrences(Node::End), 0);
            prop_assert!(partial.edges().all(|(_, to, _)| to != Node::End));
            prop_assert_eq!(partial.edge_count(Node::Start, Node::Act(trace[0])), 1);
            open.close_trace();
            let last = Node::Act(trace[trace.len() - 1]);
            prop_assert_eq!(open.to_dfg(mapped.table()).edge_count(last, Node::End), 1);
        }
    }

    /// Statistics normalization: relative durations sum to 1 (when any
    /// time was spent) and byte totals match the raw log.
    #[test]
    fn statistics_normalization(specs in log_strategy(8, 30)) {
        let log = build_log(&specs);
        let mapped = MappedLog::new(&log, &CallTopDirs::new(2));
        let stats = IoStatistics::compute(&mapped);
        let total_load: f64 = stats.iter().map(|(_, _, s)| s.rel_dur).sum();
        if stats.total_dur().as_micros() > 0 {
            prop_assert!((total_load - 1.0).abs() < 1e-9, "loads sum to {}", total_load);
        }
        let stat_bytes: u64 = stats.iter().map(|(_, _, s)| s.bytes).sum();
        prop_assert_eq!(stat_bytes, log.total_bytes());
        for (_, _, s) in stats.iter() {
            prop_assert!(s.max_concurrency >= s.max_concurrency_exact);
            prop_assert!(u64::from(s.max_concurrency) <= s.events);
        }
    }

    /// The concurrency columns match their definitions, per activity,
    /// against the O(n²) oracles above. Durations are at least 1, as in
    /// `props_concurrency` (the brute-force reference counts a
    /// zero-length interval as length 1; zero-length intervals are
    /// pinned by the `concurrency` unit tests).
    #[test]
    fn statistics_concurrency_matches_oracles(specs in log_strategy(8, 30)) {
        let mut specs = specs;
        for spec in specs.iter_mut().flatten() {
            spec.dur = spec.dur.max(1);
        }
        let log = build_log(&specs);
        let mapped = MappedLog::new(&log, &CallTopDirs::new(2));
        let stats = IoStatistics::compute(&mapped);
        let mut per_activity = vec![Vec::new(); mapped.activity_count()];
        for (case, activity, event) in mapped.iter_mapped() {
            let (start, end) = event.interval();
            per_activity[activity.index()].push((case, start, end));
        }
        for (id, name, s) in stats.iter() {
            let with_cases = &per_activity[id.index()];
            let intervals: Vec<(Micros, Micros)> =
                with_cases.iter().map(|&(_, start, end)| (start, end)).collect();
            let cases = with_cases.iter().map(|&(case, _, _)| case).collect::<BTreeSet<_>>();
            prop_assert!(s.case_concurrency <= s.max_concurrency_exact, "{}", name);
            prop_assert!(s.case_concurrency as usize <= cases.len(), "{}", name);
            prop_assert_eq!(s.max_concurrency, windowed_oracle(&intervals), "{}", name);
            prop_assert_eq!(s.max_concurrency_exact, max_concurrency_brute(&intervals), "{}", name);
            prop_assert_eq!(s.case_concurrency, case_oracle(with_cases), "{}", name);
        }
    }

    /// The 2-worker fan-out of the statistics engine (index sort and
    /// per-activity sweeps) equals the sequential engine exactly, floats
    /// included, on the full log and on a per-cid slice. The fan-out is
    /// forced here: generated logs are far below its threshold.
    #[test]
    fn statistics_fan_out_equals_sequential_engine(specs in log_strategy(8, 40)) {
        let log = build_log(&specs);
        let mapping = CallTopDirs::new(2);
        let full = LogView::full(&log);
        let cid = log.interner().get("a");
        let slice = full.refine(|meta, _| Some(meta.cid) == cid);
        for view in [&full, &slice] {
            let sequential = MappedLog::new(&log, &mapping);
            let fanned = MappedLog::new(&log, &mapping);
            prop_assert_eq!(
                stats_rows(&IoStatistics::compute_view_on(&sequential, view, 1)),
                stats_rows(&IoStatistics::compute_view_on(&fanned, view, 2))
            );
            // And the default route agrees with both.
            prop_assert_eq!(
                stats_rows(&IoStatistics::compute_view(&fanned, view)),
                stats_rows(&IoStatistics::compute_view_on(&sequential, view, 1))
            );
        }
    }

    /// The full-log statistics are computed once per mapped log: a
    /// repeated `compute`, `compute_view` on the identity view and a
    /// fresh mapped log's `compute` all give the same statistics.
    #[test]
    fn full_log_statistics_are_memoized_faithfully(specs in log_strategy(8, 30)) {
        let log = build_log(&specs);
        let mapped = MappedLog::new(&log, &CallTopDirs::new(2));
        let first = stats_rows(&IoStatistics::compute(&mapped));
        prop_assert_eq!(&first, &stats_rows(&IoStatistics::compute(&mapped)));
        prop_assert_eq!(
            &first,
            &stats_rows(&IoStatistics::compute_view(&mapped, &LogView::full(&log)))
        );
        let fresh = MappedLog::new(&log, &CallTopDirs::new(2));
        prop_assert_eq!(&first, &stats_rows(&IoStatistics::compute(&fresh)));
    }

    /// Filtering then mapping equals mapping with a filtering mapping
    /// (the two ways Fig. 6 lets you restrict a query).
    #[test]
    fn filter_then_map_equals_partial_mapping(specs in log_strategy(6, 25), needle in "[a-z]{1,4}") {
        let log = build_log(&specs);
        let filtered = log.filter_path_contains(&needle);
        let direct = Dfg::from_mapped(&MappedLog::new(&filtered, &CallTopDirs::new(2)));
        let partial = PathFilter::new(needle.clone(), CallTopDirs::new(2));
        let via_mapping = Dfg::from_mapped(&MappedLog::new(&log, &partial));
        prop_assert_eq!(dfg_edges_by_name(&direct), dfg_edges_by_name(&via_mapping));
    }
}
