//! Per-activity I/O statistics (Sec. IV-B, Eqs. 6–17).
//!
//! For every activity `a ∈ A_f` encountered in the event log:
//!
//! * **relative duration** `rd_f(a, C)` (Eqs. 6–8): time spent in events
//!   of `a` divided by time spent across all activities;
//! * **total bytes moved** `b_f(a, C)` (Eq. 9): sum of transfer sizes;
//! * **process data rate** `d̄r_f(a, C)` (Eqs. 11–13): arithmetic mean of
//!   per-event `size/dur` rates;
//! * **max-concurrency** `mc_f(a, C)` (Eqs. 14–16): computed with the
//!   paper's windowed algorithm (see [`crate::concurrency`]); the exact
//!   sweep-line value is kept alongside for comparison;
//! * **case concurrency**: the maximum number of *distinct cases* with
//!   simultaneously active events — the `Ranks:` annotation that appears
//!   on some nodes of Fig. 3c.
//!
//! Nodes render these as `Load: rd (bytes)` and `DR: mc × rate`
//! (Eqs. 10 and 17).
//!
//! The sums (events, durations, bytes, rates) come from one pass over
//! the mapped events in log order. The three concurrency values come
//! from the mapped log's interval index — each activity's intervals,
//! sorted once per [`MappedLog`] — with one merged start/end sweep per
//! activity ([`crate::concurrency`]). A slice filters each sorted group
//! in order, so views never re-sort.

use st_model::Micros;

use crate::activity::{ActivityId, ActivityTable};
use crate::concurrency::Sweep;
use crate::mapped::MappedLog;

/// Statistics for one activity.
#[derive(Debug, Clone, PartialEq)]
pub struct ActivityStats {
    /// Number of events mapped to this activity.
    pub events: u64,
    /// Summed duration `d̄_f(a, C)` (Eq. 7).
    pub total_dur: Micros,
    /// Relative duration `rd_f(a, C)` ∈ [0, 1] (Eq. 8).
    pub rel_dur: f64,
    /// Total bytes moved `b_f(a, C)` (Eq. 9).
    pub bytes: u64,
    /// Process data rate `d̄r_f(a, C)` in bytes/s (Eq. 13); 0 when no
    /// event had a defined rate.
    pub mean_rate_bps: f64,
    /// Events contributing to the rate mean.
    pub rated_events: u64,
    /// Max-concurrency `mc_f(a, C)` — the paper's windowed algorithm
    /// (Eq. 16).
    pub max_concurrency: u32,
    /// Exact pointwise maximum concurrency (sweep-line), for comparison.
    pub max_concurrency_exact: u32,
    /// Maximum number of distinct cases simultaneously inside events of
    /// this activity (`Ranks:`, Fig. 3c).
    pub case_concurrency: u32,
}

/// Statistics for every activity of a mapped log.
#[derive(Debug, Clone)]
pub struct IoStatistics {
    table: ActivityTable,
    per: Vec<ActivityStats>,
    total_dur: Micros,
}

impl IoStatistics {
    /// Computes all statistics in one pass over the mapped events plus
    /// one concurrency sweep per activity over the mapped log's sorted
    /// interval index. The first statistics call on a mapped log builds
    /// that index (the paper's per-activity sort); later calls and
    /// views reuse it.
    pub fn compute(mapped: &MappedLog<'_>) -> IoStatistics {
        let _span = st_obs::span!("stats.compute");
        Self::accumulate(mapped, mapped.iter_mapped(), None)
    }

    /// Computes the statistics of a *slice*: only the events a
    /// [`st_model::LogView`] keeps contribute — the projection hook that
    /// lets per-file / per-rank / per-window slices reuse one mapping
    /// pass. The activity table is the full log's, so activities the
    /// slice drops report zero counts, and Eq. 8's relative durations
    /// are normalized over the slice's own total.
    ///
    /// `view` must slice the same [`st_model::EventLog`] the mapped log
    /// was built from; panics otherwise (via
    /// [`MappedLog::iter_mapped_view`]).
    pub fn compute_view(mapped: &MappedLog<'_>, view: &st_model::LogView<'_>) -> IoStatistics {
        let _span = st_obs::span!("stats.compute.view");
        let events = mapped.iter_mapped_view(view);
        let keep = (!view.is_identity()).then(|| mapped.view_mask(view));
        Self::accumulate(mapped, events, keep.as_deref())
    }

    /// `keep`, when given, is the view's per-event mask
    /// ([`MappedLog::view_mask`]); it must keep exactly the events that
    /// `events` yields.
    fn accumulate<'a>(
        mapped: &MappedLog<'_>,
        events: impl Iterator<Item = (usize, crate::ActivityId, &'a st_model::Event)>,
        keep: Option<&[bool]>,
    ) -> IoStatistics {
        #[derive(Clone)]
        struct Accum {
            events: u64,
            dur: Micros,
            bytes: u64,
            rate_sum: f64,
            rated: u64,
        }
        let empty = Accum {
            events: 0,
            dur: Micros::ZERO,
            bytes: 0,
            rate_sum: 0.0,
            rated: 0,
        };
        let mut acc = vec![empty; mapped.activity_count()];

        for (_, activity, event) in events {
            let a = &mut acc[activity.index()];
            a.events += 1;
            a.dur += event.dur;
            if let Some(size) = event.size {
                a.bytes += size;
            }
            if let Some(rate) = event.data_rate_bps() {
                a.rate_sum += rate;
                a.rated += 1;
            }
        }

        let index = mapped.interval_index();
        let mut sweep = Sweep::new(mapped.log().case_count());
        let total_dur: Micros = acc.iter().map(|a| a.dur).sum();
        let per = acc
            .into_iter()
            .enumerate()
            .map(|(id, a)| {
                let group = index.group(id);
                let concurrency = match keep {
                    None => sweep.run(group.iter().map(|i| i.sweep_key())),
                    Some(keep) => sweep.run(
                        group
                            .iter()
                            .filter(|i| keep[i.event as usize])
                            .map(|i| i.sweep_key()),
                    ),
                };
                ActivityStats {
                    events: a.events,
                    total_dur: a.dur,
                    rel_dur: if total_dur.as_micros() == 0 {
                        0.0
                    } else {
                        a.dur.as_micros() as f64 / total_dur.as_micros() as f64
                    },
                    bytes: a.bytes,
                    mean_rate_bps: if a.rated == 0 {
                        0.0
                    } else {
                        a.rate_sum / a.rated as f64
                    },
                    rated_events: a.rated,
                    max_concurrency: concurrency.windowed,
                    max_concurrency_exact: concurrency.exact,
                    case_concurrency: concurrency.cases,
                }
            })
            .collect();

        IoStatistics {
            table: mapped.table().clone(),
            per,
            total_dur,
        }
    }

    /// Statistics of an activity by id.
    pub fn get(&self, id: ActivityId) -> Option<&ActivityStats> {
        self.per.get(id.index())
    }

    /// Statistics of an activity by name (works across DFGs built from
    /// other logs, e.g. when coloring a sub-log's DFG with full-log
    /// statistics as the paper does in Fig. 3b/3c).
    pub fn get_by_name(&self, name: &str) -> Option<&ActivityStats> {
        self.table.get(name).and_then(|id| self.get(id))
    }

    /// Iterates `(id, name, stats)` in id order.
    pub fn iter(&self) -> impl Iterator<Item = (ActivityId, &str, &ActivityStats)> {
        self.table
            .iter()
            .filter_map(move |(id, name)| self.get(id).map(|s| (id, name, s)))
    }

    /// Total duration across all activities (the Eq. 8 denominator).
    pub fn total_dur(&self) -> Micros {
        self.total_dur
    }

    /// Largest relative duration across activities (normalizer for
    /// statistics-based coloring).
    pub fn max_rel_dur(&self) -> f64 {
        self.per.iter().map(|s| s.rel_dur).fold(0.0, f64::max)
    }

    /// Largest byte count across activities.
    pub fn max_bytes(&self) -> u64 {
        self.per.iter().map(|s| s.bytes).max().unwrap_or(0)
    }

    /// Exports the statistics table as CSV (one row per activity), for
    /// downstream analysis outside the renderer.
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "activity,events,total_dur_us,rel_dur,bytes,mean_rate_bps,mc_windowed,mc_exact,rank_concurrency\n",
        );
        for (_, name, s) in self.iter() {
            let escaped = if name.contains(',') || name.contains('"') {
                format!("\"{}\"", name.replace('"', "\"\""))
            } else {
                name.to_string()
            };
            out.push_str(&format!(
                "{escaped},{},{},{:.6},{},{:.3},{},{},{}\n",
                s.events,
                s.total_dur.as_micros(),
                s.rel_dur,
                s.bytes,
                s.mean_rate_bps,
                s.max_concurrency,
                s.max_concurrency_exact,
                s.case_concurrency
            ));
        }
        out
    }

    /// Number of activities covered.
    pub fn len(&self) -> usize {
        self.per.len()
    }

    /// Whether no activity was observed.
    pub fn is_empty(&self) -> bool {
        self.per.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::CallTopDirs;
    use crate::MappedLog;
    use st_model::{Case, CaseMeta, Event, EventLog, Pid, Syscall};
    use std::sync::Arc;

    /// Two cases; activity A gets 832 B in 203 us twice (overlapping
    /// across cases), activity B gets 100 B in 100 us once.
    fn sample() -> EventLog {
        let mut log = EventLog::with_new_interner();
        let i = Arc::clone(log.interner());
        let pa = i.intern("/usr/lib/libc.so");
        let pb = i.intern("/etc/passwd");
        let meta0 = CaseMeta {
            cid: i.intern("a"),
            host: i.intern("h"),
            rid: 0,
        };
        log.push_case(Case::from_events(
            meta0,
            vec![
                Event::new(Pid(1), Syscall::Read, Micros(0), Micros(203), pa)
                    .with_size(832)
                    .with_requested(832),
                Event::new(Pid(1), Syscall::Read, Micros(500), Micros(100), pb).with_size(100),
            ],
        ));
        let meta1 = CaseMeta {
            cid: i.intern("a"),
            host: i.intern("h"),
            rid: 1,
        };
        log.push_case(Case::from_events(
            meta1,
            vec![Event::new(Pid(2), Syscall::Read, Micros(100), Micros(203), pa).with_size(832)],
        ));
        log
    }

    fn compute(log: &EventLog) -> (IoStatistics, MappedLog<'_>) {
        let mapped = MappedLog::new(log, &CallTopDirs::new(2));
        (IoStatistics::compute(&mapped), mapped)
    }

    #[test]
    fn relative_duration_eq8() {
        let log = sample();
        let (stats, _m) = compute(&log);
        let a = stats.get_by_name("read:/usr/lib").unwrap();
        let b = stats.get_by_name("read:/etc/passwd").unwrap();
        let total = 203.0 + 203.0 + 100.0;
        assert!((a.rel_dur - 406.0 / total).abs() < 1e-12);
        assert!((b.rel_dur - 100.0 / total).abs() < 1e-12);
        assert!((a.rel_dur + b.rel_dur - 1.0).abs() < 1e-12);
        assert_eq!(stats.total_dur(), Micros(506));
    }

    #[test]
    fn bytes_eq9() {
        let log = sample();
        let (stats, _m) = compute(&log);
        assert_eq!(stats.get_by_name("read:/usr/lib").unwrap().bytes, 1664);
        assert_eq!(stats.get_by_name("read:/etc/passwd").unwrap().bytes, 100);
        assert_eq!(stats.max_bytes(), 1664);
    }

    #[test]
    fn mean_rate_eq13() {
        let log = sample();
        let (stats, _m) = compute(&log);
        let a = stats.get_by_name("read:/usr/lib").unwrap();
        let per_event = 832.0 / 0.000203;
        assert!((a.mean_rate_bps - per_event).abs() < 1e-6);
        assert_eq!(a.rated_events, 2);
    }

    #[test]
    fn concurrency_across_cases() {
        let log = sample();
        let (stats, _m) = compute(&log);
        let a = stats.get_by_name("read:/usr/lib").unwrap();
        // (0,203) and (100,303) overlap.
        assert_eq!(a.max_concurrency, 2);
        assert_eq!(a.max_concurrency_exact, 2);
        assert_eq!(a.case_concurrency, 2);
        let b = stats.get_by_name("read:/etc/passwd").unwrap();
        assert_eq!(b.max_concurrency, 1);
        assert_eq!(b.case_concurrency, 1);
    }

    #[test]
    fn rates_skip_zero_duration_and_sizeless_events() {
        let mut log = EventLog::with_new_interner();
        let i = Arc::clone(log.interner());
        let p = i.intern("/x/y");
        let meta = CaseMeta {
            cid: i.intern("a"),
            host: i.intern("h"),
            rid: 0,
        };
        log.push_case(Case::from_events(
            meta,
            vec![
                Event::new(Pid(1), Syscall::Openat, Micros(0), Micros(10), p),
                Event::new(Pid(1), Syscall::Read, Micros(20), Micros(0), p).with_size(10),
                Event::new(Pid(1), Syscall::Read, Micros(30), Micros(5), p).with_size(50),
            ],
        ));
        let mapped = MappedLog::new(&log, &crate::mapping::CallOnly);
        let stats = IoStatistics::compute(&mapped);
        let read = stats.get_by_name("read").unwrap();
        assert_eq!(read.rated_events, 1);
        assert!((read.mean_rate_bps - 50.0 / 0.000005).abs() < 1e-6);
        let openat = stats.get_by_name("openat").unwrap();
        assert_eq!(openat.bytes, 0);
        assert_eq!(openat.rated_events, 0);
        assert_eq!(openat.mean_rate_bps, 0.0);
    }

    #[test]
    fn empty_log_statistics() {
        let log = EventLog::with_new_interner();
        let (stats, _m) = compute(&log);
        assert!(stats.is_empty());
        assert_eq!(stats.max_rel_dur(), 0.0);
        assert_eq!(stats.total_dur(), Micros::ZERO);
    }

    #[test]
    fn csv_export_has_one_row_per_activity() {
        let log = sample();
        let (stats, _m) = compute(&log);
        let csv = stats.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 1 + stats.len());
        assert!(lines[0].starts_with("activity,events,"));
        assert!(csv.contains("read:/usr/lib,2,406,"), "{csv}");
        // Commas in activity names are quoted.
        let mut log2 = EventLog::with_new_interner();
        let i = Arc::clone(log2.interner());
        let meta = CaseMeta {
            cid: i.intern("a"),
            host: i.intern("h"),
            rid: 0,
        };
        log2.push_case(Case::from_events(
            meta,
            vec![Event::new(
                Pid(1),
                Syscall::Read,
                Micros(0),
                Micros(1),
                i.intern("/a,b/c"),
            )],
        ));
        let mapped = MappedLog::new(&log2, &CallTopDirs::new(2));
        let csv2 = IoStatistics::compute(&mapped).to_csv();
        assert!(csv2.contains("\"read:/a,b/c\""), "{csv2}");
    }

    #[test]
    fn view_statistics_cover_only_the_slice() {
        let log = sample();
        let mapped = MappedLog::new(&log, &CallTopDirs::new(2));
        let snap = log.snapshot();
        let view =
            st_model::LogView::full(&log).refine(|_, e| snap.resolve(e.path).contains("/usr/lib"));
        let stats = IoStatistics::compute_view(&mapped, &view);
        // Only the two libc reads remain; rel_dur renormalizes to the
        // slice's own total (Eq. 8 over the slice).
        let a = stats.get_by_name("read:/usr/lib").unwrap();
        assert_eq!(a.events, 2);
        assert_eq!(a.bytes, 1664);
        assert!((a.rel_dur - 1.0).abs() < 1e-12);
        assert_eq!(stats.total_dur(), Micros(406));
        // The dropped activity keeps a row (shared table) with zeros.
        let b = stats.get_by_name("read:/etc/passwd").unwrap();
        assert_eq!(b.events, 0);
        assert_eq!(b.bytes, 0);
        // The identity view reproduces the full statistics.
        let full = IoStatistics::compute_view(&mapped, &st_model::LogView::full(&log));
        assert_eq!(full.total_dur(), IoStatistics::compute(&mapped).total_dur());
    }

    #[test]
    fn lookup_by_unknown_name() {
        let log = sample();
        let (stats, _m) = compute(&log);
        assert!(stats.get_by_name("nope").is_none());
    }
}
