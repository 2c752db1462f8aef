#![allow(dead_code)]

//! Shared helpers and proptest strategies for the integration tests.

use proptest::prelude::*;
use st_inspector::prelude::*;
use std::sync::Arc;

/// A value-level event description, independent of any interner, from
/// which logs are materialized.
#[derive(Debug, Clone)]
pub struct EventSpec {
    pub call: Syscall,
    pub gap: u64,
    pub dur: u64,
    pub path: String,
    pub size: Option<u64>,
    pub requested: Option<u64>,
    pub offset: Option<u64>,
    pub ok: bool,
}

/// Strategy for a syscall drawn from the I/O set.
pub fn syscall_strategy() -> impl Strategy<Value = Syscall> {
    prop_oneof![
        Just(Syscall::Read),
        Just(Syscall::Write),
        Just(Syscall::Pread64),
        Just(Syscall::Pwrite64),
        Just(Syscall::Openat),
        Just(Syscall::Lseek),
        Just(Syscall::Fsync),
        Just(Syscall::Close),
    ]
}

/// Strategy for absolute paths with a small component alphabet, so
/// collisions (shared activities) actually happen.
pub fn path_strategy() -> impl Strategy<Value = String> {
    (
        prop::sample::select(vec!["usr", "etc", "p", "dev", "proc"]),
        prop::sample::select(vec!["lib", "scratch", "passwd", "pts", "shm"]),
        0u8..4,
    )
        .prop_map(|(a, b, c)| format!("/{a}/{b}/f{c}"))
}

/// Strategy for one event spec.
pub fn event_spec_strategy() -> impl Strategy<Value = EventSpec> {
    (
        syscall_strategy(),
        1u64..5_000,
        0u64..3_000,
        path_strategy(),
        prop::option::of(0u64..100_000),
        prop::option::of(1u64..100_000),
        prop::option::of(0u64..1 << 30),
        prop::bool::ANY,
    )
        .prop_map(|(call, gap, dur, path, size, requested, offset, ok)| {
            // Keep semantics coherent: only transfer calls carry sizes;
            // failed calls carry none.
            let transfers = call.transfers_data();
            EventSpec {
                call,
                gap,
                dur,
                path,
                size: if transfers && ok { size } else { None },
                requested: if transfers { requested } else { None },
                offset: if matches!(call, Syscall::Lseek | Syscall::Pread64 | Syscall::Pwrite64) {
                    offset
                } else {
                    None
                },
                ok,
            }
        })
}

/// Strategy for a whole log: up to `max_cases` cases of up to
/// `max_events` events.
pub fn log_strategy(
    max_cases: usize,
    max_events: usize,
) -> impl Strategy<Value = Vec<Vec<EventSpec>>> {
    prop::collection::vec(
        prop::collection::vec(event_spec_strategy(), 0..max_events),
        1..max_cases,
    )
}

/// Materializes specs into an event log (two cids, alternating).
pub fn build_log(specs: &[Vec<EventSpec>]) -> EventLog {
    let mut log = EventLog::with_new_interner();
    let interner = Arc::clone(log.interner());
    for (idx, case_specs) in specs.iter().enumerate() {
        let meta = CaseMeta {
            cid: interner.intern(if idx % 2 == 0 { "a" } else { "b" }),
            host: interner.intern("h1"),
            rid: idx as u32,
        };
        let mut clock = 0u64;
        let events: Vec<Event> = case_specs
            .iter()
            .map(|s| {
                clock += s.gap;
                let mut e = Event::new(
                    Pid(100 + idx as u32),
                    s.call,
                    Micros(clock),
                    Micros(s.dur),
                    interner.intern(&s.path),
                );
                e.size = s.size;
                e.requested = s.requested;
                e.offset = s.offset;
                e.ok = s.ok;
                e
            })
            .collect();
        log.push_case(Case::from_events(meta, events));
    }
    log
}

/// Compares two DFGs edge-by-edge through their name tables (ids may
/// differ across construction orders).
pub fn dfg_edges_by_name(dfg: &Dfg) -> Vec<(String, String, u64)> {
    let mut edges: Vec<(String, String, u64)> = dfg
        .edges()
        .map(|(a, b, c)| {
            (
                dfg.node_name(a).to_string(),
                dfg.node_name(b).to_string(),
                c,
            )
        })
        .collect();
    edges.sort();
    edges
}

/// Opens an in-memory container image through the v2 reader (a
/// zero-copy [`BytesSegment`](st_inspector::store::BytesSegment)
/// source).
pub fn open_image(
    image: bytes::Bytes,
) -> Result<st_inspector::store::SegmentReader, st_inspector::store::StoreError> {
    st_inspector::store::SegmentReader::from_source(Arc::new(
        st_inspector::store::BytesSegment::new(image),
    ))
}

/// Compares `actual` with `tests/golden/<name>`, or rewrites the file
/// when `UPDATE_GOLDEN` is set (after an intentional output change).
pub fn check_golden(name: &str, actual: &str) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); run with UPDATE_GOLDEN=1",
            path.display()
        )
    });
    assert_eq!(
        actual,
        expected,
        "output differs from {} — rerun with UPDATE_GOLDEN=1 if intentional",
        path.display()
    );
}
