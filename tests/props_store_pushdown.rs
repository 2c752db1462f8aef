//! Property-based tests of the STLOG v2 store and its predicate
//! pushdown, the laws that make block pruning safe to put under every
//! store-backed query:
//!
//! 1. **Pushdown ≡ scan** — for random logs, random predicates and
//!    random block sizes, `read_pruned` returns exactly the event set
//!    (and symbol ids) of a full load followed by `scan`;
//! 2. **Pruning is conservative** — a block decided `Reject` contains
//!    no matching event (no false rejects), a block decided `Accept`
//!    contains only matching events (no false accepts);
//! 3. **v2 round-trips bit-identically** — write → read → write
//!    reproduces the container bytes, and the decoded log carries the
//!    original `Symbol` ids.
//!
//! Every container is read through the one v2 reader, `SegmentReader`,
//! over an in-memory image; the oracles are the written log itself and
//! `scan` over a full read.

use proptest::prelude::*;
use st_inspector::prelude::*;
use st_inspector::query::pushdown::{read_pruned, read_pruned_par, ColumnSet, Decision, PrunePlan};
use st_inspector::query::{CallClass, Cmp, EvalCtx};
use st_inspector::store::{decode_v1, to_bytes_blocked};

mod common;
use common::{build_log, log_strategy, open_image};

/// Leaf predicates that discriminate on `common::log_strategy` logs
/// (path alphabet, pid range, sizes, durations, timestamps) — including
/// shapes the zone maps can and cannot prune on.
fn leaf_strategy() -> impl Strategy<Value = Predicate> {
    prop_oneof![
        Just(Predicate::True),
        Just(Predicate::False),
        Just(Predicate::Ok(true)),
        Just(Predicate::Ok(false)),
        Just(Predicate::Class(CallClass::Read)),
        Just(Predicate::Class(CallClass::Write)),
        Just(Predicate::Class(CallClass::Open)),
        Just(Predicate::Call("read".to_string())),
        Just(Predicate::Call("nosuchcall".to_string())),
        Just(Predicate::Cid("a".to_string())),
        Just(Predicate::Host("h1".to_string())),
        Just(Predicate::PathExact("/usr/lib/f0".to_string())),
        prop::sample::select(vec!["usr", "etc", "p", "dev", "proc"])
            .prop_map(|top| Predicate::PathGlob(format!("/{top}/*"))),
        prop::sample::select(vec!["f0", "f1", "f2", "lib", "shm"])
            .prop_map(|tail| Predicate::PathGlob(format!("*{tail}"))),
        (100u32..108).prop_map(Predicate::Pid),
        (0u32..8).prop_map(Predicate::Rid),
        (0u64..60_000).prop_map(|n| Predicate::Size(Cmp::Ge, n)),
        (0u64..60_000).prop_map(|n| Predicate::Size(Cmp::Lt, n)),
        (0u64..2_000).prop_map(|n| Predicate::Dur(Cmp::Lt, Micros(n))),
        (0u64..2_000).prop_map(|n| Predicate::Dur(Cmp::Ge, Micros(n))),
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

/// One level of combinators over the leaves.
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
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Law 1: pushdown returns exactly the full-load scan's event set,
    /// for any block size (1 forces per-event zone maps, large values
    /// force single-block cases).
    #[test]
    fn pushdown_equals_full_load_scan(
        specs in log_strategy(6, 40),
        pred in predicate_strategy(),
        block_events in prop_oneof![Just(1usize), Just(3usize), Just(7usize), Just(64usize), Just(4096usize)],
    ) {
        let log = build_log(&specs);
        let reader = open_image(to_bytes_blocked(&log, block_events).unwrap()).unwrap();
        let pruned = read_pruned(&reader, &pred, ColumnSet::ALL).unwrap();
        let full = reader.read().unwrap();
        let reference = scan(&full, &pred).to_event_log();
        // Case-by-case equality includes metas, event order, every
        // column and raw symbol ids.
        prop_assert_eq!(pruned.log.cases(), reference.cases());
        prop_assert_eq!(pruned.stats.events_matched, reference.total_events() as u64);
        // Accounting is self-consistent.
        prop_assert_eq!(pruned.stats.events_total, full.total_events() as u64);
        prop_assert!(pruned.stats.bytes_decoded <= pruned.stats.bytes_total);
        prop_assert!(
            pruned.stats.blocks_pruned + pruned.stats.blocks_accepted
                <= pruned.stats.blocks_total
        );
    }

    /// Law 1b: the parallel decode is invisible — fanning surviving
    /// blocks out to scoped workers produces the sequential read's
    /// exact log (symbol ids included) and identical accounting, for
    /// any thread count and block size.
    #[test]
    fn parallel_pruned_read_equals_sequential(
        specs in log_strategy(6, 40),
        pred in predicate_strategy(),
        block_events in prop_oneof![Just(1usize), Just(3usize), Just(7usize), Just(64usize), Just(4096usize)],
        threads in prop_oneof![Just(0usize), Just(2usize), Just(3usize), Just(8usize)],
    ) {
        let log = build_log(&specs);
        let image = to_bytes_blocked(&log, block_events).unwrap();
        // A fresh reader per read: the stats carry the reader's
        // cumulative fetch counter, which must then match too.
        let seq = read_pruned(&open_image(image.clone()).unwrap(), &pred, ColumnSet::ALL).unwrap();
        let par =
            read_pruned_par(&open_image(image).unwrap(), &pred, ColumnSet::ALL, threads).unwrap();
        prop_assert_eq!(seq.log.cases(), par.log.cases());
        prop_assert_eq!(format!("{:?}", seq.stats), format!("{:?}", par.stats));
    }

    /// Law 1c: v2 reads ≡ the written log — pruned reads over ranged
    /// fetches produce exactly `scan` of the log that was written
    /// (symbol ids included), sequentially and in parallel, for any
    /// block size; a full read reproduces the log itself; and the
    /// ranged route never fetches more bytes than the container holds.
    #[test]
    fn seek_pruned_read_equals_written_log_scan(
        specs in log_strategy(6, 40),
        pred in predicate_strategy(),
        block_events in prop_oneof![Just(1usize), Just(3usize), Just(7usize), Just(64usize), Just(4096usize)],
        threads in prop_oneof![Just(0usize), Just(3usize)],
    ) {
        let log = build_log(&specs);
        let reference = scan(&log, &pred).to_event_log();
        let image = to_bytes_blocked(&log, block_events).unwrap();

        let seek = open_image(image.clone()).unwrap();
        let seq = read_pruned(&seek, &pred, ColumnSet::ALL).unwrap();
        prop_assert_eq!(reference.cases(), seq.log.cases());
        prop_assert_eq!(seq.stats.events_matched, reference.total_events() as u64);
        prop_assert!(seq.stats.bytes_read <= image.len() as u64);

        // The parallel decode over ranged fetches is equally invisible
        // (fresh reader: bytes_read accumulates since open).
        let seek = open_image(image.clone()).unwrap();
        let par = read_pruned_par(&seek, &pred, ColumnSet::ALL, threads).unwrap();
        prop_assert_eq!(reference.cases(), par.log.cases());
        prop_assert_eq!(seq.stats.bytes_decoded, par.stats.bytes_decoded);
        prop_assert!(par.stats.bytes_read <= image.len() as u64);

        // Full (non-pruned) reads reproduce the written log.
        let non_empty: Vec<_> =
            log.cases().iter().filter(|c| !c.events.is_empty()).cloned().collect();
        prop_assert_eq!(seek.read().unwrap().cases(), &non_empty[..]);
    }

    /// Law 2: block decisions are conservative — `Reject` blocks hold
    /// no matching event, `Accept` blocks hold only matching events.
    #[test]
    fn block_pruning_is_conservative(
        specs in log_strategy(5, 30),
        pred in predicate_strategy(),
        block_events in prop_oneof![Just(2usize), Just(5usize), Just(16usize)],
    ) {
        let log = build_log(&specs);
        let reader = open_image(to_bytes_blocked(&log, block_events).unwrap()).unwrap();
        let full = reader.read().unwrap();
        let snapshot = full.snapshot();
        let ctx = EvalCtx {
            snapshot: &snapshot,
            t0: full.earliest_start().unwrap_or(Micros::ZERO),
        };
        let plan = PrunePlan::compile(&pred, &reader);
        for case in reader.directory() {
            let meta = CaseMeta { cid: case.cid, host: case.host, rid: case.rid };
            let case_decision = plan.decide_case(case);
            for block in &case.blocks {
                let mut events = Vec::new();
                reader.decode_block(block, ColumnSet::ALL, &mut events).unwrap();
                let matched: Vec<bool> =
                    events.iter().map(|e| pred.matches(&ctx, &meta, e)).collect();
                // The case-level decision must itself be conservative…
                match case_decision {
                    Decision::Reject => prop_assert!(matched.iter().all(|m| !m)),
                    Decision::Accept => prop_assert!(matched.iter().all(|m| *m)),
                    Decision::Maybe => {}
                }
                // …and so must the per-block refinement.
                match plan.decide_block(case, &block.zone) {
                    Decision::Reject => prop_assert!(
                        matched.iter().all(|m| !m),
                        "false reject: {:?}", &pred
                    ),
                    Decision::Accept => prop_assert!(
                        matched.iter().all(|m| *m),
                        "false accept: {:?}", &pred
                    ),
                    Decision::Maybe => {}
                }
            }
        }
    }

    /// Law 3: v2 write → read → write is bit-identical, and the decoded
    /// log reproduces the original symbol ids.
    #[test]
    fn v2_roundtrip_is_bit_identical(
        specs in log_strategy(6, 40),
        block_events in prop_oneof![Just(1usize), Just(7usize), Just(4096usize)],
    ) {
        let log = build_log(&specs);
        let bytes = to_bytes_blocked(&log, block_events).unwrap();
        let back = open_image(bytes.clone()).unwrap().read().unwrap();
        // Symbol ids survive: events and metas compare raw.
        let non_empty: Vec<_> =
            log.cases().iter().filter(|c| !c.events.is_empty()).cloned().collect();
        prop_assert_eq!(back.cases(), &non_empty[..]);
        // Re-encoding the decoded log reproduces the container bytes —
        // unless the original held empty cases, which the store
        // (like `filter_events`) does not preserve.
        if non_empty.len() == log.case_count() {
            let again = to_bytes_blocked(&back, block_events).unwrap();
            prop_assert_eq!(&bytes[..], &again[..]);
        }
    }

    /// The v1 path keeps decoding arbitrary logs, identically to v2.
    #[test]
    fn v1_reads_remain_equivalent(specs in log_strategy(5, 30)) {
        let log = build_log(&specs);
        let v1 = decode_v1(st_inspector::store::to_bytes_v1(&log).unwrap()).unwrap();
        let v2 = open_image(st_inspector::store::to_bytes(&log).unwrap())
            .unwrap()
            .read()
            .unwrap();
        prop_assert_eq!(v1.cases(), v2.cases());
    }
}
