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

use st_model::Micros;

/// The paper's windowed algorithm (Eq. 16): max length of a
/// consecutive-run window `[i..j]` in start-sorted order with
/// `end_i > start_j`.
pub fn max_concurrency_windowed(intervals: &[(Micros, Micros)]) -> u32 {
    if intervals.is_empty() {
        return 0;
    }
    let mut sorted = intervals.to_vec();
    // Sort by (start, end): the paper only specifies increasing start
    // timestamps, but breaking start ties by end makes the result
    // independent of input order (equal-start intervals with different
    // ends would otherwise shift window widths with their relative
    // positions). Any tie order keeps the upper-bound property.
    sorted.sort_by_key(|&(s, e)| (s, e));
    let mut best = 1u32;
    for i in 0..sorted.len() {
        let end_i = sorted[i].1;
        // Widest window starting at i: last j with start_j < end_i.
        // Starts are sorted, so binary search the boundary.
        let j = sorted.partition_point(|(s, _)| *s < end_i);
        // Window is [i, j); zero-length intervals can make j <= i.
        best = best.max(j.saturating_sub(i) as u32);
    }
    best
}

/// Exact pointwise maximum concurrency via sweep-line over start/end
/// boundaries. Half-open semantics: an interval ending exactly when
/// another starts does not overlap it.
pub fn max_concurrency_exact(intervals: &[(Micros, Micros)]) -> u32 {
    if intervals.is_empty() {
        return 0;
    }
    let mut boundaries: Vec<(Micros, i32)> = Vec::with_capacity(intervals.len() * 2);
    for &(start, end) in intervals {
        boundaries.push((start, 1));
        boundaries.push((end.max(start), -1));
    }
    // Process ends before starts at equal timestamps (half-open).
    boundaries.sort_by_key(|&(t, delta)| (t, delta));
    let mut current = 0i32;
    let mut best = 0i32;
    for (_, delta) in boundaries {
        current += delta;
        best = best.max(current);
    }
    best.max(0) as u32
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
