//! Property-based tests of the slicing laws of `st_query`.
//!
//! The laws under test are what make the query engine safe to put under
//! every downstream consumer:
//!
//! 1. slicing by the always-true predicate is the identity;
//! 2. slicing commutes with DFG construction — projecting a view
//!    through a shared mapping (`Dfg::from_mapped_view`) equals
//!    filtering the events first and rebuilding from scratch;
//! 3. group-by partitions are disjoint and cover the filtered log;
//! 4. the parallel scan is indistinguishable from the sequential one.

use proptest::prelude::*;
use st_inspector::prelude::*;
use st_inspector::query::{CallClass, Cmp, EvalCtx};

mod common;
use common::{build_log, dfg_edges_by_name, log_strategy};

/// Strategy over filter predicates that actually discriminate on the
/// logs `common::log_strategy` generates (its path alphabet, pid range,
/// timestamp range and size range).
fn leaf_strategy() -> impl Strategy<Value = Predicate> {
    prop_oneof![
        Just(Predicate::True),
        Just(Predicate::False),
        Just(Predicate::Ok(true)),
        Just(Predicate::Ok(false)),
        Just(Predicate::Class(CallClass::Read)),
        Just(Predicate::Class(CallClass::Write)),
        Just(Predicate::Class(CallClass::Data)),
        Just(Predicate::Class(CallClass::Open)),
        Just(Predicate::Cid("a".to_string())),
        prop::sample::select(vec!["usr", "etc", "p", "dev", "proc"])
            .prop_map(|top| Predicate::PathGlob(format!("/{top}/*"))),
        prop::sample::select(vec!["f0", "f1", "f2", "lib", "shm"])
            .prop_map(|tail| Predicate::PathGlob(format!("*{tail}"))),
        (100u32..108).prop_map(Predicate::Pid),
        (0u32..8).prop_map(Predicate::Rid),
        (0u64..60_000).prop_map(|n| Predicate::Size(Cmp::Ge, n)),
        (0u64..2_000).prop_map(|n| Predicate::Dur(Cmp::Lt, Micros(n))),
        (0u64..100_000u64).prop_map(|from| Predicate::TimeWindow {
            from: Micros(from),
            to: Micros(from + 40_000),
            inclusive_end: false,
            absolute: false,
        }),
        (0u64..100_000u64).prop_map(|from| Predicate::TimeWindow {
            from: Micros(from),
            to: Micros(from + 40_000),
            inclusive_end: true,
            absolute: true,
        }),
    ]
}

/// One level of combinators over the leaves: `p`, `p ∧ q`, `p ∨ q`,
/// `¬p`, `p ∧ ¬q`.
fn predicate_strategy() -> impl Strategy<Value = Predicate> {
    (leaf_strategy(), leaf_strategy(), 0u8..5).prop_map(|(p, q, shape)| match shape {
        0 => p,
        1 => p.and(q),
        2 => p.or(q),
        3 => p.not(),
        _ => p.and(q.not()),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Law 1: `slice(always_true)` keeps every event and materializes
    /// back to the original log (empty cases excepted, as with
    /// `filter_events`).
    #[test]
    fn slice_true_is_identity(specs in log_strategy(8, 30)) {
        let log = build_log(&specs);
        let view = scan(&log, &Predicate::True);
        prop_assert!(view.is_identity());
        prop_assert_eq!(view.event_count(), log.total_events());
        let reference = log.filter_events(|_, _| true);
        prop_assert_eq!(view.to_event_log().cases(), reference.cases());
    }

    /// Law 2: slicing commutes with DFG construction —
    /// `dfg(slice(log, p))` through the shared-mapping projection hook
    /// equals the DFG built from the pre-filtered event list.
    #[test]
    fn slicing_commutes_with_dfg(
        specs in log_strategy(8, 30),
        pred in predicate_strategy(),
    ) {
        let log = build_log(&specs);
        let mapping = CallTopDirs::new(2);

        // Route A: map once, slice, project.
        let mapped = MappedLog::new(&log, &mapping);
        let view = scan(&log, &pred);
        let projected = Dfg::from_mapped_view(&mapped, &view);

        // Route B: filter the events first, then map + build fresh.
        let snap = log.snapshot();
        let ctx = EvalCtx { snapshot: &snap, t0: log.earliest_start().unwrap_or(Micros::ZERO) };
        let filtered = log.filter_events(|m, e| pred.matches(&ctx, m, e));
        let rebuilt = Dfg::from_mapped(&MappedLog::new(&filtered, &mapping));

        prop_assert_eq!(dfg_edges_by_name(&projected), dfg_edges_by_name(&rebuilt));
        prop_assert_eq!(projected.case_count(), rebuilt.case_count());
        projected.check_invariants().unwrap();

        // The name-aligned diff agrees that the graphs are identical.
        prop_assert!(st_inspector::core::diff::diff(&projected, &rebuilt).is_empty());

        // The statistics projection agrees with the fresh computation
        // on every field of every activity the slice keeps (the view's
        // table is the full log's, so it also lists dropped activities
        // with zero events).
        let stats_view = IoStatistics::compute_view(&mapped, &view);
        let stats_rebuilt = IoStatistics::compute(&MappedLog::new(&filtered, &mapping));
        prop_assert_eq!(stats_view.total_dur(), stats_rebuilt.total_dur());
        let mut kept = 0;
        for (_, name, s) in stats_view.iter().filter(|(_, _, s)| s.events > 0) {
            prop_assert_eq!(Some(s), stats_rebuilt.get_by_name(name), "{}", name);
            kept += 1;
        }
        prop_assert_eq!(kept, stats_rebuilt.len());
    }

    /// Law 3: group-by partitions are disjoint and cover the filtered
    /// log, for every grouping key.
    #[test]
    fn group_by_partitions_disjoint_and_cover(
        specs in log_strategy(8, 30),
        pred in predicate_strategy(),
    ) {
        let log = build_log(&specs);
        let view = scan(&log, &pred);
        for key in [GroupKey::File, GroupKey::Pid, GroupKey::Cid, GroupKey::Host] {
            let groups = group_by(&view, key);
            let mut seen = std::collections::HashSet::new();
            let mut covered = 0usize;
            for (name, sub) in &groups {
                prop_assert!(!sub.is_empty(), "group {name:?} empty under {key:?}");
                for s in sub.slices() {
                    for &k in &s.events {
                        prop_assert!(
                            seen.insert((s.case_idx, k)),
                            "event ({}, {k}) in two groups under {key:?}", s.case_idx
                        );
                        covered += 1;
                    }
                }
            }
            prop_assert_eq!(covered, view.event_count(), "partition must cover under {:?}", key);
            // Group keys are unique.
            let names: std::collections::HashSet<&String> =
                groups.iter().map(|(n, _)| n).collect();
            prop_assert_eq!(names.len(), groups.len());
        }
    }

    /// Law 4: the parallel scan produces exactly the sequential view.
    #[test]
    fn scan_par_equals_scan(
        specs in log_strategy(8, 30),
        pred in predicate_strategy(),
        threads in 2usize..9,
    ) {
        let log = build_log(&specs);
        let seq = scan(&log, &pred);
        let par = scan_par(&log, &pred, threads);
        prop_assert_eq!(seq.slices(), par.slices());
    }

    /// Refinement composes like conjunction: `slice(p) ∘ slice(q)` =
    /// `slice(p ∧ q)` — the CLI's filter-then-group pipeline depends on
    /// this.
    #[test]
    fn refine_is_conjunction(
        specs in log_strategy(6, 25),
        p in predicate_strategy(),
        q in predicate_strategy(),
    ) {
        let log = build_log(&specs);
        let snap = log.snapshot();
        let ctx = EvalCtx { snapshot: &snap, t0: log.earliest_start().unwrap_or(Micros::ZERO) };
        let via_refine = scan(&log, &p).refine(|m, e| q.matches(&ctx, m, e));
        let via_and = scan(&log, &p.clone().and(q.clone()));
        prop_assert_eq!(via_refine.slices(), via_and.slices());
    }
}
