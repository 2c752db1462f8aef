//! Backward-compatibility pins for the store formats.
//!
//! * STLOG **v1** must stay readable byte-for-byte: a v1 container is
//!   checked into `tests/fixtures/` and both directions are pinned —
//!   the legacy encoder must still reproduce the fixture bytes exactly,
//!   and decoding the fixture must reproduce the reference log exactly
//!   (symbol ids included). Regenerate with `UPDATE_FIXTURE=1 cargo
//!   test --test store_compat` only after an *intentional* v1 format
//!   change (there should never be one — v1 is frozen).
//! * Future format versions (v3+) must fail with
//!   [`StoreError::UnsupportedVersion`] through [`read_store`], not
//!   misparse.

use std::path::PathBuf;
use std::sync::Arc;

use st_inspector::prelude::*;
use st_inspector::store::{decode_v1, to_bytes, to_bytes_v1, StoreError};

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/v1_sample.stlog")
}

/// The reference log behind the pinned fixture: two cases exercising
/// every column shape (named + `Other` calls, failed calls, sizes,
/// short reads, offsets, shared and private paths).
fn reference_log() -> EventLog {
    let mut log = EventLog::with_new_interner();
    let i = Arc::clone(log.interner());
    let libc = i.intern("/usr/lib/libc.so.6");
    let data = i.intern("/scratch/run/out.h5");
    let meta_a = CaseMeta {
        cid: i.intern("a"),
        host: i.intern("jwc01"),
        rid: 9042,
    };
    log.push_case(Case::from_events(
        meta_a,
        vec![
            Event::new(
                Pid(9054),
                Syscall::Openat,
                Micros(83_000_100),
                Micros(12),
                libc,
            ),
            Event::new(
                Pid(9054),
                Syscall::Read,
                Micros(83_000_200),
                Micros(203),
                libc,
            )
            .with_size(832)
            .with_requested(832),
            Event::new(
                Pid(9054),
                Syscall::Other(i.intern("statx")),
                Micros(83_000_300),
                Micros(4),
                libc,
            ),
            Event::new(
                Pid(9054),
                Syscall::Openat,
                Micros(83_000_350),
                Micros(7),
                i.intern("/missing"),
            )
            .failed(),
            Event::new(
                Pid(9054),
                Syscall::Pwrite64,
                Micros(83_000_400),
                Micros(300),
                data,
            )
            .with_size(1024)
            .with_requested(4096)
            .with_offset(65_536),
        ],
    ));
    let meta_b = CaseMeta {
        cid: i.intern("b"),
        host: i.intern("jwc02"),
        rid: 9055,
    };
    log.push_case(Case::from_events(
        meta_b,
        vec![
            Event::new(
                Pid(9071),
                Syscall::Lseek,
                Micros(83_001_000),
                Micros(1),
                data,
            )
            .with_offset(1 << 20),
            Event::new(
                Pid(9071),
                Syscall::Read,
                Micros(83_001_050),
                Micros(90),
                data,
            )
            .with_size(1 << 20)
            .with_requested(1 << 20),
            Event::new(
                Pid(9071),
                Syscall::Close,
                Micros(83_001_500),
                Micros(2),
                data,
            ),
        ],
    ));
    log
}

fn assert_logs_identical(a: &EventLog, b: &EventLog) {
    assert_eq!(a.case_count(), b.case_count());
    // `Case: PartialEq` compares metas and events including raw symbol
    // ids — insertion-order re-interning makes them comparable.
    assert_eq!(a.cases(), b.cases());
    let sa = a.snapshot();
    let sb = b.snapshot();
    assert_eq!(sa.len(), sb.len());
    for idx in 0..sa.len() {
        let sym = Symbol(idx as u32);
        assert_eq!(sa.resolve(sym), sb.resolve(sym));
    }
}

#[test]
fn v1_fixture_is_read_byte_for_byte_identically() {
    let expected = reference_log();
    let encoded = to_bytes_v1(&expected).unwrap();
    if std::env::var("UPDATE_FIXTURE").is_ok() {
        std::fs::write(fixture_path(), &encoded).unwrap();
    }
    let pinned = std::fs::read(fixture_path()).expect(
        "missing tests/fixtures/v1_sample.stlog — run UPDATE_FIXTURE=1 cargo test --test store_compat",
    );
    // Encoder pin: the legacy writer still produces exactly the pinned
    // bytes (no silent drift in the frozen v1 layout).
    assert_eq!(
        &encoded[..],
        &pinned[..],
        "v1 encoder drifted from the pinned fixture"
    );

    // Decoder pin: the pinned bytes decode to exactly the reference
    // log, symbol ids included — directly and through the version
    // dispatch of `read_store`.
    let decoded = decode_v1(pinned.into()).unwrap();
    assert_logs_identical(&decoded, &expected);
    assert_logs_identical(&read_store(&fixture_path()).unwrap(), &expected);
    // Path-filtered v1 reads keep working too.
    let filtered = decoded.filter_path_contains("/scratch");
    assert_eq!(filtered.total_events(), 4);
}

#[test]
fn v1_and_v2_decode_the_same_log() {
    let log = reference_log();
    let dir = std::env::temp_dir().join(format!("st-v1v2-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let p1 = dir.join("one.stlog");
    let p2 = dir.join("two.stlog");
    std::fs::write(&p1, to_bytes_v1(&log).unwrap()).unwrap();
    std::fs::write(&p2, to_bytes(&log).unwrap()).unwrap();
    let via_v1 = read_store(&p1).unwrap();
    let via_v2 = read_store(&p2).unwrap();
    assert_logs_identical(&via_v1, &via_v2);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn future_versions_fail_with_unsupported_version() {
    let dir = std::env::temp_dir().join(format!("st-v3-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    // A v3 file: STLOG magic with digit 3 and version field 3.
    let mut v3 = to_bytes(&reference_log()).unwrap().to_vec();
    v3[5] = b'3';
    v3[8] = 3;
    let p = dir.join("three.stlog");
    std::fs::write(&p, &v3).unwrap();
    match read_store(&p) {
        Err(StoreError::UnsupportedVersion(3)) => {}
        other => panic!("expected UnsupportedVersion(3), got {other:?}"),
    }

    // A known magic whose version field disagrees is equally unreadable
    // (forward-compat guard against header splicing).
    let mut spliced = to_bytes(&reference_log()).unwrap().to_vec();
    spliced[8] = 77;
    std::fs::write(&p, &spliced).unwrap();
    match read_store(&p) {
        Err(StoreError::UnsupportedVersion(77)) => {}
        other => panic!("expected UnsupportedVersion(77), got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
