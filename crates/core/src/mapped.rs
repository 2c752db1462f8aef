//! The event log with its activity column materialized.
//!
//! The paper's implementation adds an `"activity"` column to the event
//! DataFrame (Fig. 6 step 2) and reuses it for DFG construction, the
//! activity-log multiset, statistics and timelines. [`MappedLog`] is that
//! artifact: per case, per event, an `Option<ActivityId>` (None = the
//! partial mapping left the event out). Applying the mapping is one O(n)
//! pass of an [`ActivityMapper`], which resolves each distinct key of a
//! call/path-keyed mapping once; the live daemon maps its event streams
//! through the same mapper.
//!
//! The statistics engine also needs every mapped event's interval,
//! grouped by activity and sorted by start (`IntervalIndex`). A
//! mapped log builds that index on the first statistics call and keeps
//! it, so any number of slices reuse one sort.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::OnceLock;

use st_model::{CaseMeta, Event, EventLog, LogView, Micros};

use crate::activity::{ActivityId, ActivityTable};
use crate::mapping::{MapCtx, Mapping};

/// Memo key for call/path-keyed mappings
/// ([`Mapping::keyed_by_call_path`]): the call identity (named-table
/// index, or the interned name symbol tagged into a disjoint range for
/// `Other`) plus the path symbol. Two events with equal keys are
/// indistinguishable to such a mapping.
#[inline]
fn memo_key(event: &Event) -> (u64, u32) {
    let call = match event.call {
        st_model::Syscall::Other(sym) => (1u64 << 32) | u64::from(sym.0),
        named => u64::from(named.named_index().expect("named variant has an index")),
    };
    (call, event.path.0)
}

/// Multiply-xorshift hasher for the small integer memo keys — the memo
/// must be cheaper than the string formatting + table hashing it
/// replaces, so SipHash is off the table.
#[derive(Default)]
struct MemoHasher(u64);

impl Hasher for MemoHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        let mut h = (self.0 ^ n).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        h ^= h >> 32;
        self.0 = h;
    }
}

type Memo = HashMap<(u64, u32), Option<ActivityId>, BuildHasherDefault<MemoHasher>>;

/// Applies a mapping event by event, numbering the activities it yields
/// in one growing [`ActivityTable`].
///
/// For call/path-keyed mappings ([`Mapping::keyed_by_call_path`]) the
/// result per distinct `(call, path)` symbol pair is memoized, so a
/// repeated pair costs one small-integer hash lookup instead of path
/// resolution, name formatting and table hashing. The memo is keyed by
/// interned symbols: every mapped event must come from one interner.
pub struct ActivityMapper<'m> {
    mapping: &'m dyn Mapping,
    table: ActivityTable,
    memo: Option<Memo>,
    /// Scratch buffer for activity names.
    buf: String,
}

impl<'m> ActivityMapper<'m> {
    /// A mapper with an empty activity table.
    pub fn new(mapping: &'m dyn Mapping) -> Self {
        ActivityMapper {
            mapping,
            table: ActivityTable::new(),
            memo: mapping.keyed_by_call_path().then(Memo::default),
            buf: String::new(),
        }
    }

    /// The activity of `event`, or `None` when the mapping leaves it
    /// out; a new activity is appended to the table.
    #[inline]
    pub fn map(&mut self, ctx: &MapCtx<'_>, meta: &CaseMeta, event: &Event) -> Option<ActivityId> {
        let ActivityMapper {
            mapping,
            table,
            memo,
            buf,
        } = self;
        let mut resolve = || {
            buf.clear();
            mapping
                .write_activity(ctx, meta, event, buf)
                .then(|| table.intern(buf))
        };
        match memo {
            Some(memo) => *memo.entry(memo_key(event)).or_insert_with(resolve),
            None => resolve(),
        }
    }

    /// The activities numbered so far.
    pub fn table(&self) -> &ActivityTable {
        &self.table
    }
}

/// One mapped event in the [`IntervalIndex`]: its interval
/// `[start, end)`, its case index, and its position in the log's event
/// order (cases in order, events in order within each case).
#[derive(Debug, Clone, Copy)]
pub(crate) struct IndexedInterval {
    pub start: Micros,
    pub end: Micros,
    pub case: u32,
    pub event: u32,
}

impl IndexedInterval {
    /// The `(start, end, case)` triple [`crate::concurrency::Sweep`]
    /// reads.
    #[inline]
    pub fn sweep_key(&self) -> (Micros, Micros, u32) {
        (self.start, self.end, self.case)
    }
}

/// Every mapped event's interval, grouped by activity and sorted by
/// `(start, end)` within each group.
pub(crate) struct IntervalIndex {
    /// Activity `a`'s group is `intervals[offsets[a]..offsets[a + 1]]`.
    offsets: Vec<usize>,
    intervals: Vec<IndexedInterval>,
}

impl IntervalIndex {
    /// The intervals of the activity with index `a`, sorted by
    /// `(start, end)`.
    pub fn group(&self, a: usize) -> &[IndexedInterval] {
        &self.intervals[self.offsets[a]..self.offsets[a + 1]]
    }
}

/// An event log plus its per-event activity assignment under a mapping
/// `f : E ⇀ A_f`.
pub struct MappedLog<'log> {
    log: &'log EventLog,
    table: ActivityTable,
    /// `assignments[case][event]` — the activity of the event, if mapped.
    assignments: Vec<Vec<Option<ActivityId>>>,
    /// The statistics index, built on first use.
    intervals: OnceLock<IntervalIndex>,
}

impl<'log> MappedLog<'log> {
    /// Applies `mapping` to every event, single-threaded (one O(n) pass).
    pub fn new(log: &'log EventLog, mapping: &dyn Mapping) -> Self {
        let _span = st_obs::span!("map.apply");
        st_obs::add("events_mapped", log.total_events() as u64);
        let snapshot = log.snapshot();
        let ctx = MapCtx {
            snapshot: &snapshot,
        };
        let mut mapper = ActivityMapper::new(mapping);
        let assignments = log
            .cases()
            .iter()
            .map(|case| {
                case.events
                    .iter()
                    .map(|event| mapper.map(&ctx, &case.meta, event))
                    .collect()
            })
            .collect();
        MappedLog {
            log,
            table: mapper.table,
            assignments,
            intervals: OnceLock::new(),
        }
    }

    /// The underlying event log.
    pub fn log(&self) -> &'log EventLog {
        self.log
    }

    /// The activity name table (`A_f`).
    pub fn table(&self) -> &ActivityTable {
        &self.table
    }

    /// Number of distinct activities `m`.
    pub fn activity_count(&self) -> usize {
        self.table.len()
    }

    /// Total number of *mapped* events.
    pub fn mapped_events(&self) -> usize {
        self.assignments
            .iter()
            .map(|row| row.iter().filter(|a| a.is_some()).count())
            .sum()
    }

    /// Per-case assignment rows, parallel to `log().cases()`.
    pub fn assignments(&self) -> &[Vec<Option<ActivityId>>] {
        &self.assignments
    }

    /// The activity trace `σ_f(c)` of case `case_idx` (Eq. 5): mapped
    /// activities in event order, unmapped events skipped.
    pub fn trace_of(&self, case_idx: usize) -> Vec<ActivityId> {
        self.assignments[case_idx]
            .iter()
            .filter_map(|a| *a)
            .collect()
    }

    /// Iterates `(case_idx, activity, &event)` over all mapped events.
    pub fn iter_mapped(&self) -> impl Iterator<Item = (usize, ActivityId, &st_model::Event)> + '_ {
        self.log
            .cases()
            .iter()
            .enumerate()
            .flat_map(move |(ci, case)| {
                case.events
                    .iter()
                    .zip(&self.assignments[ci])
                    .filter_map(move |(e, a)| a.map(|a| (ci, a, e)))
            })
    }

    /// Iterates `(case_idx, activity, &event)` over the mapped events a
    /// [`st_model::LogView`] keeps — the slice-projection hook: map the
    /// full log once, then project any number of slices (per-file,
    /// per-rank, per-window) without re-applying the mapping.
    ///
    /// `view` must be a view over this mapped log's own event log;
    /// panics otherwise (activity assignments are positional).
    pub fn iter_mapped_view<'a>(
        &'a self,
        view: &'a LogView<'_>,
    ) -> impl Iterator<Item = (usize, ActivityId, &'a st_model::Event)> + 'a {
        self.check_view(view);
        view.slices().iter().flat_map(move |s| {
            let case = &self.log.cases()[s.case_idx];
            let row = &self.assignments[s.case_idx];
            s.events.iter().filter_map(move |&k| {
                row[k as usize].map(|a| (s.case_idx, a, &case.events[k as usize]))
            })
        })
    }

    fn check_view(&self, view: &LogView<'_>) {
        assert!(
            std::ptr::eq(self.log, view.log()),
            "view must slice the same EventLog this MappedLog was built from"
        );
    }

    /// The statistics index, built on the first call: a counting
    /// scatter of the mapped events by activity, then a sort of each
    /// group by `(start, end)`. Ties are equal intervals, and no
    /// statistic depends on their order, so the sort need not be stable.
    pub(crate) fn interval_index(&self) -> &IntervalIndex {
        self.intervals.get_or_init(|| {
            let mut offsets = vec![0usize; self.table.len() + 1];
            for a in self.assignments.iter().flatten().flatten() {
                offsets[a.index() + 1] += 1;
            }
            for a in 1..offsets.len() {
                offsets[a] += offsets[a - 1];
            }
            let empty = IndexedInterval {
                start: Micros::ZERO,
                end: Micros::ZERO,
                case: 0,
                event: 0,
            };
            let mut intervals = vec![empty; offsets[self.table.len()]];
            let mut next = offsets.clone();
            let mut event = 0u32;
            for (case, (c, row)) in self.log.cases().iter().zip(&self.assignments).enumerate() {
                let case = u32::try_from(case).expect("case count fits in u32");
                for (e, a) in c.events.iter().zip(row) {
                    if let Some(a) = a {
                        let slot = &mut next[a.index()];
                        intervals[*slot] = IndexedInterval {
                            start: e.start,
                            end: e.end(),
                            case,
                            event,
                        };
                        *slot += 1;
                    }
                    event = event.checked_add(1).expect("event count fits in u32");
                }
            }
            for w in offsets.windows(2) {
                intervals[w[0]..w[1]].sort_unstable_by_key(|i| (i.start, i.end));
            }
            IntervalIndex { offsets, intervals }
        })
    }

    /// Which events `view` keeps, indexed by [`IndexedInterval::event`].
    ///
    /// Panics unless `view` slices this mapped log's own event log.
    pub(crate) fn view_mask(&self, view: &LogView<'_>) -> Vec<bool> {
        self.check_view(view);
        let mut first = Vec::with_capacity(self.log.case_count());
        let mut total = 0usize;
        for case in self.log.cases() {
            first.push(total);
            total += case.events.len();
        }
        let mut keep = vec![false; total];
        for s in view.slices() {
            for &k in &s.events {
                keep[first[s.case_idx] + k as usize] = true;
            }
        }
        keep
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::CallTopDirs;
    use st_model::{Case, CaseMeta, Event, Micros, Pid, Syscall};
    use std::sync::Arc;

    fn sample_log(cases: usize, events_per_case: usize) -> EventLog {
        let mut log = EventLog::with_new_interner();
        let i = Arc::clone(log.interner());
        for c in 0..cases {
            let meta = CaseMeta {
                cid: i.intern("a"),
                host: i.intern("h"),
                rid: c as u32,
            };
            let events = (0..events_per_case)
                .map(|k| {
                    let path = match k % 3 {
                        0 => "/usr/lib/x/libc.so",
                        1 => "/etc/passwd",
                        _ => "/dev/pts/7",
                    };
                    Event::new(
                        Pid(100 + c as u32),
                        if k % 3 == 2 {
                            Syscall::Write
                        } else {
                            Syscall::Read
                        },
                        Micros(k as u64 * 10),
                        Micros(5),
                        i.intern(path),
                    )
                    .with_size(832)
                })
                .collect();
            log.push_case(Case::from_events(meta, events));
        }
        log
    }

    #[test]
    fn sequential_mapping_builds_activity_column() {
        let log = sample_log(2, 6);
        let mapped = MappedLog::new(&log, &CallTopDirs::new(2));
        assert_eq!(mapped.activity_count(), 3);
        assert_eq!(mapped.mapped_events(), 12);
        assert_eq!(mapped.trace_of(0).len(), 6, "all events of a case mapped");
        let names: Vec<&str> = mapped.table().iter().map(|(_, n)| n).collect();
        assert_eq!(
            names,
            vec!["read:/usr/lib", "read:/etc/passwd", "write:/dev/pts"]
        );
    }

    #[test]
    fn partial_mapping_leaves_events_unmapped() {
        let log = sample_log(1, 6);
        let m = crate::mapping::PathFilter::new("/usr/lib", CallTopDirs::new(2));
        let mapped = MappedLog::new(&log, &m);
        assert_eq!(mapped.activity_count(), 1);
        assert_eq!(mapped.mapped_events(), 2); // k = 0, 3
        assert_eq!(mapped.trace_of(0).len(), 2);
        assert_eq!(mapped.assignments()[0][1], None);
    }

    #[test]
    fn memoized_mapping_matches_unmemoized_closure_exactly() {
        // The same Eq. 4 logic, once as the memoizable built-in and once
        // as an opaque closure (never memoized): identical ids, names
        // and unmapped gaps.
        let log = sample_log(9, 31);
        let builtin = crate::mapping::PathFilter::new("/", CallTopDirs::new(2));
        assert!(crate::mapping::Mapping::keyed_by_call_path(&builtin));
        let closure = crate::mapping::FnMapping(
            |ctx: &crate::mapping::MapCtx<'_>, _meta: &CaseMeta, e: &Event| {
                let p = ctx.path(e);
                if p.is_empty() || !p.contains('/') {
                    return None;
                }
                Some(format!(
                    "{}:{}",
                    ctx.call_name(e),
                    crate::mapping::truncate_path(p, 2)
                ))
            },
        );
        assert!(!crate::mapping::Mapping::keyed_by_call_path(&closure));
        let memoized = MappedLog::new(&log, &builtin);
        let plain = MappedLog::new(&log, &closure);
        assert_eq!(memoized.assignments(), plain.assignments());
        for (id, name) in memoized.table().iter() {
            assert_eq!(plain.table().name(id), name);
        }
    }

    #[test]
    fn empty_log() {
        let log = EventLog::with_new_interner();
        let mapped = MappedLog::new(&log, &CallTopDirs::new(2));
        assert_eq!(mapped.activity_count(), 0);
        assert_eq!(mapped.mapped_events(), 0);
    }
}
