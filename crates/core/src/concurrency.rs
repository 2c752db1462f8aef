//! Interval concurrency analysis (Eq. 14–16).
//!
//! The paper's `get_max_concurrency` "first sorts `t_f` according to
//! increasing start timestamps, iterates through the sorted `t_f`, and
//! determines the maximum number of consecutive events that could be
//! identified such that the end time of the first event is greater than
//! the start time of the last event."
//!
//! That windowed criterion ([`max_concurrency_windowed`]) is an upper
//! bound on the *pointwise* concurrency — the largest number of
//! intervals that overlap a single instant ([`max_concurrency_exact`],
//! the classic sweep-line) — because a window's middle intervals need not
//! overlap each other. Both are provided; the statistics module uses the
//! paper's windowed definition for fidelity and the exact sweep is
//! exposed for comparison (`bench_snapshot`'s `concurrency` section
//! times both and records the gap).
//!
//! Both values, plus the number of distinct cases active at once, come
//! from one merged sweep (`Sweep`) over intervals already sorted by
//! `(start, end)`: it sorts the ends once and walks starts and ends
//! together, ends first at equal times (half-open intervals). When the
//! end of the `k`-th interval is popped, the starts consumed so far are
//! exactly those before that end, so the Eq. 16 window `[k, j)` needs no
//! binary search. The statistics engine feeds it from the per-activity
//! sorted index of [`crate::MappedLog`]; the public functions here sort
//! their input first and run the same sweep.

use st_model::Micros;

/// The three concurrency values of one interval set.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Concurrency {
    /// The paper's windowed max-concurrency (Eq. 16).
    pub windowed: u32,
    /// The exact pointwise maximum.
    pub exact: u32,
    /// The maximum number of distinct cases active at one instant.
    pub cases: u32,
}

/// The merged start/end sweep, with scratch buffers reused across
/// interval sets.
pub(crate) struct Sweep {
    /// `(end, start-order position, case)` of every interval, sorted
    /// by end.
    ends: Vec<(Micros, u32, u32)>,
    /// Open intervals per case. Every interval opens and closes once,
    /// so the counters are back at zero after each [`Sweep::run`].
    open_per_case: Vec<i32>,
}

impl Sweep {
    /// A sweep over at most `intervals` intervals (more grow its
    /// buffer) whose case indices are below `cases`.
    pub(crate) fn new(cases: usize, intervals: usize) -> Sweep {
        Sweep {
            ends: Vec::with_capacity(intervals),
            open_per_case: vec![0; cases],
        }
    }

    /// Sweeps `(start, end, case)` intervals that arrive sorted by
    /// `(start, end)`. An end before its start counts as a zero-length
    /// interval at the start.
    ///
    /// Neither the order of equal ends nor that of equal intervals
    /// changes a result: between two equal ends no start is consumed,
    /// and equal starts are consumed together.
    pub(crate) fn run<I>(&mut self, sorted: I) -> Concurrency
    where
        I: Iterator<Item = (Micros, Micros, u32)> + Clone,
    {
        self.ends.clear();
        self.ends.extend(
            sorted
                .clone()
                .zip(0u32..)
                .map(|((start, end, case), k)| (end.max(start), k, case)),
        );
        if self.ends.is_empty() {
            return Concurrency::default();
        }
        self.ends.sort_unstable_by_key(|&(end, _, _)| end);

        let mut starts = sorted.peekable();
        let (mut consumed, mut open, mut open_cases) = (0u32, 0i32, 0u32);
        let (mut windowed, mut exact, mut cases) = (1u32, 0i32, 0u32);
        for &(end, k, case) in &self.ends {
            // Ends go first at equal times: an interval ending when
            // another starts does not overlap it.
            while let Some((_, _, c)) = starts.next_if(|&(start, _, _)| start < end) {
                consumed += 1;
                open += 1;
                exact = exact.max(open);
                let n = &mut self.open_per_case[c as usize];
                *n += 1;
                if *n == 1 {
                    open_cases += 1;
                    cases = cases.max(open_cases);
                }
            }
            // Starts consumed = the partition point of `start < end`:
            // the window of Eq. 16 opened by interval `k`.
            windowed = windowed.max(consumed.saturating_sub(k));
            open -= 1;
            let n = &mut self.open_per_case[case as usize];
            *n -= 1;
            if *n == 0 {
                open_cases -= 1;
            }
        }
        // What is left are zero-length intervals whose ends were popped
        // first: they only bring their counters back to zero.
        for (_, _, c) in starts {
            self.open_per_case[c as usize] += 1;
        }
        Concurrency {
            windowed,
            exact: exact as u32,
            cases,
        }
    }
}

/// Intervals an [`crate::MappedLog`]'s index must hold before the
/// statistics engine fans out across cores. `bench_snapshot`'s
/// `stats.vs_events` row on a 2-core host has the 2-worker fan-out
/// behind the sequential engine at 10k intervals (0.40 → 0.41 ms),
/// ahead by 16% at 25k and by 21% at 50k (2.53 → 2.00 ms). The
/// threshold sits at 50k: below it the saving is a fraction of a
/// millisecond, while every fan-out costs two thread start-ups and a
/// malloc arena per new thread, so slices of one job run and one-rank
/// queries stay sequential.
pub(crate) const FAN_OUT_MIN_INTERVALS: usize = 50_000;

/// The statistics engine's worker count for an index of `intervals`:
/// 2 when the machine has more than one core and the index is at least
/// [`FAN_OUT_MIN_INTERVALS`] long, else 1.
pub(crate) fn stats_workers(intervals: usize) -> usize {
    static CORES: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    if intervals < FAN_OUT_MIN_INTERVALS {
        return 1;
    }
    let cores = *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()));
    cores.min(2)
}

/// One worker's part of a [`fan_out`].
struct Share<T, S, R> {
    /// The items dealt to the worker, with their positions.
    items: Vec<(usize, T)>,
    /// The summed weight of `items`.
    load: usize,
    scratch: S,
    /// The results, with their positions.
    done: Vec<(usize, R)>,
}

/// Runs `work` on every item on `workers` threads (the calling thread
/// included) and returns the results in item order. Items are dealt
/// largest `weight` first to the least-loaded worker. Each worker has
/// its own scratch, `scratch(w)` for the largest weight `w`.
///
/// The calling thread allocates every scratch and result buffer up
/// front: a spawned thread allocates from a malloc arena of its own,
/// and what that arena frees stays resident after the thread exits.
pub(crate) fn fan_out<T, S, R>(
    items: Vec<T>,
    workers: usize,
    weight: impl Fn(&T) -> usize,
    scratch: impl Fn(usize) -> S,
    work: impl Fn(&mut S, T) -> R + Sync,
) -> Vec<R>
where
    T: Send,
    S: Send,
    R: Send,
{
    let n = items.len();
    let mut weighed: Vec<(usize, usize, T)> = items
        .into_iter()
        .enumerate()
        .map(|(i, t)| (weight(&t), i, t))
        .collect();
    weighed.sort_by_key(|&(w, i, _)| (std::cmp::Reverse(w), i));
    let largest = weighed.first().map_or(0, |&(w, _, _)| w);
    let mut shares: Vec<Share<T, S, R>> = (0..workers.max(1))
        .map(|_| Share {
            items: Vec::new(),
            load: 0,
            scratch: scratch(largest),
            done: Vec::new(),
        })
        .collect();
    for (w, i, t) in weighed {
        let share = shares.iter_mut().min_by_key(|s| s.load).expect("a worker");
        share.load += w;
        share.items.push((i, t));
    }
    for share in &mut shares {
        share.done.reserve_exact(share.items.len());
    }
    let run = |share: &mut Share<T, S, R>| {
        for (i, t) in share.items.drain(..) {
            let r = work(&mut share.scratch, t);
            share.done.push((i, r));
        }
    };
    let (mine, others) = shares.split_first_mut().expect("a worker");
    std::thread::scope(|scope| {
        for share in others {
            scope.spawn(|| run(share));
        }
        run(mine);
    });
    let mut out: Vec<Option<R>> = (0..n).map(|_| None).collect();
    for (i, r) in shares.into_iter().flat_map(|s| s.done) {
        out[i] = Some(r);
    }
    out.into_iter()
        .map(|r| r.expect("every item ran"))
        .collect()
}

/// Sorts `intervals` by `(start, end)` and sweeps them as one case.
fn sweep_unsorted(intervals: &[(Micros, Micros)]) -> Concurrency {
    let mut sorted = intervals.to_vec();
    sorted.sort_unstable();
    Sweep::new(1, sorted.len()).run(sorted.iter().map(|&(start, end)| (start, end, 0)))
}

/// The paper's windowed algorithm (Eq. 16): max length of a
/// consecutive-run window `[i..j]` in start-sorted order with
/// `end_i > start_j`.
///
/// Start ties are broken by end: the paper only specifies increasing
/// start timestamps, but the tie order shifts window widths, and this
/// one makes the result independent of input order. Any tie order keeps
/// the upper-bound property.
pub fn max_concurrency_windowed(intervals: &[(Micros, Micros)]) -> u32 {
    sweep_unsorted(intervals).windowed
}

/// Exact pointwise maximum concurrency via sweep-line over start/end
/// boundaries. Half-open semantics: an interval ending exactly when
/// another starts does not overlap it.
pub fn max_concurrency_exact(intervals: &[(Micros, Micros)]) -> u32 {
    sweep_unsorted(intervals).exact
}

/// Brute-force reference: for every interval start, count how many
/// intervals cover it. Only for testing/verification (O(n²)).
pub fn max_concurrency_brute(intervals: &[(Micros, Micros)]) -> u32 {
    intervals
        .iter()
        .map(|&(t, _)| {
            intervals
                .iter()
                .filter(|&&(s, e)| s <= t && t < e.max(s + Micros(1)))
                .count() as u32
        })
        .max()
        .unwrap_or(0)
}

/// The concurrency profile: `(time, active-count)` steps, for timeline
/// visualizations.
pub fn concurrency_profile(intervals: &[(Micros, Micros)]) -> Vec<(Micros, u32)> {
    let mut boundaries: Vec<(Micros, i32)> = Vec::with_capacity(intervals.len() * 2);
    for &(start, end) in intervals {
        boundaries.push((start, 1));
        boundaries.push((end.max(start), -1));
    }
    boundaries.sort_by_key(|&(t, delta)| (t, delta));
    let mut profile = Vec::new();
    let mut current = 0i32;
    for (t, delta) in boundaries {
        current += delta;
        match profile.last_mut() {
            Some((last_t, count)) if *last_t == t => *count = current.max(0) as u32,
            _ => profile.push((t, current.max(0) as u32)),
        }
    }
    profile
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iv(pairs: &[(u64, u64)]) -> Vec<(Micros, Micros)> {
        pairs.iter().map(|&(s, e)| (Micros(s), Micros(e))).collect()
    }

    #[test]
    fn empty_and_single() {
        assert_eq!(max_concurrency_windowed(&[]), 0);
        assert_eq!(max_concurrency_exact(&[]), 0);
        let one = iv(&[(0, 10)]);
        assert_eq!(max_concurrency_windowed(&one), 1);
        assert_eq!(max_concurrency_exact(&one), 1);
    }

    #[test]
    fn disjoint_intervals_have_concurrency_one() {
        let ivs = iv(&[(0, 5), (10, 15), (20, 25)]);
        assert_eq!(max_concurrency_windowed(&ivs), 1);
        assert_eq!(max_concurrency_exact(&ivs), 1);
    }

    #[test]
    fn fully_overlapping() {
        let ivs = iv(&[(0, 100), (1, 99), (2, 98)]);
        assert_eq!(max_concurrency_windowed(&ivs), 3);
        assert_eq!(max_concurrency_exact(&ivs), 3);
    }

    #[test]
    fn fig5_shape_two_of_three_overlap() {
        // Like the paper's Fig. 5: three ranks; at most two read
        // /usr/lib at the same time.
        let ivs = iv(&[(0, 10), (8, 20), (25, 30)]);
        assert_eq!(max_concurrency_windowed(&ivs), 2);
        assert_eq!(max_concurrency_exact(&ivs), 2);
    }

    #[test]
    fn touching_endpoints_do_not_overlap() {
        let ivs = iv(&[(0, 10), (10, 20)]);
        assert_eq!(max_concurrency_exact(&ivs), 1);
        // The windowed criterion uses strict `start < end` too.
        assert_eq!(max_concurrency_windowed(&ivs), 1);
    }

    #[test]
    fn windowed_can_exceed_exact() {
        // (0,10) spans (1,2) and (5,6), but those two never overlap each
        // other: exact = 2, windowed = 3.
        let ivs = iv(&[(0, 10), (1, 2), (5, 6)]);
        assert_eq!(max_concurrency_exact(&ivs), 2);
        assert_eq!(max_concurrency_windowed(&ivs), 3);
    }

    #[test]
    fn windowed_upper_bounds_exact_on_many_shapes() {
        let shapes: Vec<Vec<(Micros, Micros)>> = vec![
            iv(&[(0, 1), (0, 1), (0, 1), (0, 1)]),
            iv(&[(0, 4), (1, 5), (2, 6), (3, 7)]),
            iv(&[(0, 100), (10, 20), (30, 40), (50, 60), (99, 100)]),
            iv(&[(5, 5), (5, 5)]), // zero-length
        ];
        for ivs in shapes {
            let w = max_concurrency_windowed(&ivs);
            let e = max_concurrency_exact(&ivs);
            assert!(w >= e, "windowed {w} < exact {e} for {ivs:?}");
            assert!(w as usize <= ivs.len());
        }
    }

    #[test]
    fn zero_length_intervals_open_no_instant() {
        // The window criterion floors at 1, while no instant lies inside
        // `[5, 5)`.
        let ivs = iv(&[(5, 5), (5, 5)]);
        assert_eq!(max_concurrency_windowed(&ivs), 1);
        assert_eq!(max_concurrency_exact(&ivs), 0);
        let mut sweep = Sweep::new(2, 2);
        let c = sweep.run([(Micros(5), Micros(5), 0), (Micros(5), Micros(5), 1)].into_iter());
        assert_eq!(
            c,
            Concurrency {
                windowed: 1,
                exact: 0,
                cases: 0
            }
        );
        assert_eq!(sweep.open_per_case, [0, 0], "counters back at zero");
    }

    #[test]
    fn case_concurrency_counts_distinct_cases_only() {
        // Two overlapping events from the SAME case: case concurrency 1,
        // event concurrency 2.
        let cases = |ivs: &[(usize, u64, u64)]| {
            let mut sorted: Vec<(Micros, Micros, u32)> = ivs
                .iter()
                .map(|&(c, s, e)| (Micros(s), Micros(e), c as u32))
                .collect();
            sorted.sort_unstable();
            Sweep::new(2, sorted.len()).run(sorted.into_iter()).cases
        };
        assert_eq!(cases(&[(0, 0, 100), (0, 10, 90), (1, 200, 300)]), 1);
        assert_eq!(cases(&[(0, 0, 100), (1, 10, 90)]), 2);
        assert_eq!(cases(&[]), 0);
    }

    #[test]
    fn exact_matches_brute_force() {
        let ivs = iv(&[(0, 10), (2, 3), (2, 8), (9, 12), (11, 15), (14, 14)]);
        assert_eq!(max_concurrency_exact(&ivs), max_concurrency_brute(&ivs));
    }

    #[test]
    fn profile_steps() {
        let ivs = iv(&[(0, 10), (5, 15)]);
        let profile = concurrency_profile(&ivs);
        assert_eq!(
            profile,
            vec![
                (Micros(0), 1),
                (Micros(5), 2),
                (Micros(10), 1),
                (Micros(15), 0)
            ]
        );
    }
}
