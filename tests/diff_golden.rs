//! Golden-file test for the diff text report and annotated DOT.
//!
//! The fixture is two small hand-built runs whose diff exercises every
//! report section: shared structure, A-only and B-only nodes/edges, and
//! common edges with count and frequency shifts. Expected outputs live
//! in `tests/golden/`; regenerate after an intentional format change
//! with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test diff_golden
//! ```

mod common;

use common::check_golden;
use st_inspector::prelude::*;
use std::sync::Arc;

/// Run A: two ranks read a shared library then write a scratch log;
/// rank 0 also polls a lock file.
/// Run B: same shape, but the lock polling is gone, a new checkpoint
/// write appears, and the scratch writes double.
///
/// Transfer calls carry sizes and per-call durations vary, so the
/// statistics layer (`render_diff_stats`) has Load and data-rate
/// shifts to report; counts and frequencies — all the structural
/// goldens see — are unaffected.
fn fixture() -> (EventLog, EventLog) {
    fn case(log: &mut EventLog, rid: u32, paths: &[(Syscall, &str)]) {
        let i = Arc::clone(log.interner());
        let meta = CaseMeta {
            cid: i.intern("run"),
            host: i.intern("node1"),
            rid,
        };
        let events = paths
            .iter()
            .enumerate()
            .map(|(k, (call, p))| {
                let e = Event::new(
                    Pid(rid + 1),
                    *call,
                    Micros(k as u64 * 10),
                    Micros(5 + k as u64),
                    i.intern(p),
                );
                if call.transfers_data() {
                    e.with_size(4096 * (k as u64 + 1))
                } else {
                    e
                }
            })
            .collect();
        log.push_case(Case::from_events(meta, events));
    }

    let mut a = EventLog::with_new_interner();
    case(
        &mut a,
        0,
        &[
            (Syscall::Read, "/usr/lib/libc.so"),
            (Syscall::Read, "/run/lock/job"),
            (Syscall::Read, "/run/lock/job"),
            (Syscall::Write, "/scratch/job/out"),
        ],
    );
    case(
        &mut a,
        1,
        &[
            (Syscall::Read, "/usr/lib/libc.so"),
            (Syscall::Write, "/scratch/job/out"),
        ],
    );

    let mut b = EventLog::with_new_interner();
    case(
        &mut b,
        0,
        &[
            (Syscall::Read, "/usr/lib/libc.so"),
            (Syscall::Write, "/scratch/job/out"),
            (Syscall::Write, "/scratch/job/out"),
            (Syscall::Write, "/scratch/ckpt/0"),
        ],
    );
    case(
        &mut b,
        1,
        &[
            (Syscall::Read, "/usr/lib/libc.so"),
            (Syscall::Write, "/scratch/job/out"),
            (Syscall::Write, "/scratch/job/out"),
        ],
    );

    (a, b)
}

fn dfg_of(log: &EventLog) -> Dfg {
    Dfg::from_mapped(&MappedLog::new(log, &CallTopDirs::new(2)))
}

#[test]
fn diff_report_matches_golden() {
    let (a, b) = fixture();
    let d = diff(&dfg_of(&a), &dfg_of(&b));
    check_golden("diff_report.golden", &render_diff_report(&d));
}

#[test]
fn diff_dot_matches_golden() {
    let (a, b) = fixture();
    let d = diff(&dfg_of(&a), &dfg_of(&b));
    let opts = RenderOptions {
        graph_name: "DFG diff".to_string(),
        show_stats: false,
        ..Default::default()
    };
    check_golden("diff_dot.golden", &render_diff_dot(&d, &opts));
}

#[test]
fn diff_stats_report_matches_golden() {
    let (a, b) = fixture();
    let m = CallTopDirs::new(2);
    let mapped_a = MappedLog::new(&a, &m);
    let mapped_b = MappedLog::new(&b, &m);
    let d = diff(&Dfg::from_mapped(&mapped_a), &Dfg::from_mapped(&mapped_b));
    let report = render_diff_stats(
        &d,
        &IoStatistics::compute(&mapped_a),
        &IoStatistics::compute(&mapped_b),
    );
    check_golden("diff_stats.golden", &report);
}
