//! Property-based tests of the fault-tolerant store path: seeded
//! corruption (st-store's fault-injection harness) against the salvage
//! reader, pinned to the ISSUE's four laws:
//!
//! 1. **Salvage never invents** — whatever a corrupted container
//!    yields under salvage is a sub-multiset of the original events,
//!    bit-identical field for field; a clean report means *exact*
//!    recovery;
//! 2. **Strict rejects what salvage flags** — any container whose
//!    salvage report is not clean fails the strict open/read path;
//! 3. **Single-block corruption is contained** — one flipped bit in
//!    the blocks region quarantines exactly one block and recovers
//!    every other block's events;
//! 4. **fsck agrees with salvage** — the report `open_salvage_seek`
//!    (the `fsck` subcommand's engine) produces is identical to the one
//!    a salvage-mode session acts on, and its recovery totals match the
//!    events the session actually returns;
//! 5. **Salvage recovers exactly the vetted blocks** — with the
//!    directory intact, the recovered log is the written log minus the
//!    quarantined blocks' events, block for block.
//!
//! Salvage runs through its one entry point, `salvage_source`, over an
//! in-memory image; the strict path is `SegmentReader` plus a full read.

use std::sync::Arc;

use bytes::Bytes;
use proptest::prelude::*;
use st_inspector::prelude::*;
use st_inspector::source::RecoveryPolicy;
use st_inspector::store::{
    open_salvage_seek, salvage_source, to_bytes_blocked, BytesSegment, Fault, FaultKind,
    SalvagedSeek, SectionHealth, StoreError,
};
use st_model::Syscall;

mod common;
use common::{build_log, log_strategy, open_image};

fn salvage_image(image: Vec<u8>) -> Result<SalvagedSeek, StoreError> {
    salvage_source(Arc::new(BytesSegment::new(Bytes::from(image))))
}

/// The strict route: open the head, then decode every block.
fn strict_read(image: Vec<u8>) -> Result<EventLog, StoreError> {
    open_image(Bytes::from(image))?.read()
}

/// Renders every event of a log as an interner-independent row, sorted,
/// so logs decoded through different string tables compare by value.
fn canonical(log: &EventLog) -> Vec<String> {
    let snap = log.snapshot();
    let mut rows = Vec::new();
    for case in log.cases() {
        let cid = snap.resolve(case.meta.cid).to_string();
        let host = snap.resolve(case.meta.host).to_string();
        for e in &case.events {
            let call = match e.call {
                Syscall::Other(sym) => snap.resolve(sym).to_string(),
                named => named.static_name().unwrap_or("?").to_string(),
            };
            rows.push(format!(
                "{cid}|{host}|{}|{}|{call}|{}|{}|{}|{:?}|{:?}|{:?}|{}",
                case.meta.rid,
                e.pid,
                e.start,
                e.dur,
                snap.resolve(e.path),
                e.size,
                e.requested,
                e.offset,
                e.ok,
            ));
        }
    }
    rows.sort();
    rows
}

/// `a` is a sub-multiset of `b` (both sorted).
fn is_submultiset(a: &[String], b: &[String]) -> bool {
    let mut it = b.iter();
    a.iter().all(|row| it.any(|other| other == row))
}

/// Byte range of the block bodies (everything after the blocks
/// section's u64 length prefix), computed from the documented v2
/// layout: header, then strings and directory sections each framed as
/// `u64 len + body + crc32`.
fn blocks_region(image: &[u8]) -> std::ops::Range<usize> {
    let mut off = 12usize;
    for _ in 0..2 {
        let len = u64::from_le_bytes(image[off..off + 8].try_into().unwrap()) as usize;
        off += 8 + len + 4;
    }
    off + 8..image.len()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Laws 1 + 2 over every fault kind: salvage yields a sub-multiset
    /// of the original events (exact recovery when the report is
    /// clean), and a non-clean report implies the strict path rejects
    /// the container.
    #[test]
    fn salvage_never_invents_and_strict_rejects_flagged(
        specs in log_strategy(4, 40),
        block_events in 1usize..12,
        kind_idx in 0usize..FaultKind::ALL.len(),
        seed in 0u64..1000,
    ) {
        let log = build_log(&specs);
        let image = to_bytes_blocked(&log, block_events).unwrap().to_vec();
        let original = canonical(&log);

        let mut faulted = image.clone();
        let fault = Fault::seeded(FaultKind::ALL[kind_idx], seed, faulted.len());
        fault.apply(&mut faulted);

        match salvage_image(faulted.clone()) {
            Err(_) => {
                // Unreadable under salvage: strict must reject too.
                let strict = strict_read(faulted);
                prop_assert!(strict.is_err(), "strict accepted what salvage could not open");
            }
            Ok(salvaged) => {
                // The vetted reader's decode is infallible by design.
                let recovered = salvaged.reader.read().unwrap();
                let got = canonical(&recovered);
                prop_assert!(
                    is_submultiset(&got, &original),
                    "salvage invented or altered events"
                );
                prop_assert_eq!(
                    recovered.total_events() as u64,
                    salvaged.report.events_recovered,
                    "report totals disagree with the recovered log"
                );
                let strict = strict_read(faulted);
                if salvaged.report.is_clean() {
                    prop_assert_eq!(&got, &original, "clean report but lossy recovery");
                    prop_assert!(strict.is_ok(), "strict rejected a clean container");
                } else {
                    prop_assert!(strict.is_err(), "strict accepted what salvage flagged");
                }
            }
        }
    }

    /// Law 3: one flipped bit inside the block bodies quarantines
    /// exactly one block; every other block's events survive.
    #[test]
    fn single_block_corruption_is_contained(
        specs in log_strategy(4, 40),
        block_events in 1usize..12,
        pos_seed in 0usize..usize::MAX,
        bit in 0u8..8,
    ) {
        let log = build_log(&specs);
        let mut image = to_bytes_blocked(&log, block_events).unwrap().to_vec();
        let original = canonical(&log);

        let region = blocks_region(&image);
        // An all-empty log has no block bodies to corrupt — vacuous case.
        if log.total_events() > 0 && !region.is_empty() {
            let pos = region.start + pos_seed % region.len();
            image[pos] ^= 1 << bit;

            let salvaged = salvage_image(image).unwrap();
            let report = salvaged.report.clone();
            prop_assert_eq!(report.losses.len(), 1, "one flipped bit, one quarantined block");
            let lost = report.losses[0].events_lost;
            prop_assert_eq!(report.events_recovered, report.events_total - lost);

            let recovered = salvaged.reader.read().unwrap();
            prop_assert_eq!(recovered.total_events() as u64, report.events_recovered);
            prop_assert!(
                is_submultiset(&canonical(&recovered), &original),
                "recovery altered surviving blocks"
            );
        }
    }

    /// Law 5: salvage recovers exactly the vetted blocks. With the
    /// directory intact (every entry is the written one), the recovered
    /// log is the written log with each quarantined block's events
    /// removed — the writer chunks every case into `block_events`-sized
    /// blocks, so the oracle needs no reader at all. On a clean
    /// container, vetting never fetches more bytes than the image holds.
    #[test]
    fn seek_salvage_recovers_exactly_the_vetted_blocks(
        specs in log_strategy(4, 40),
        block_events in 1usize..12,
        kind_idx in 0usize..FaultKind::ALL.len(),
        seed in 0u64..1000,
    ) {
        let log = build_log(&specs);
        let mut image = to_bytes_blocked(&log, block_events).unwrap().to_vec();
        let fault = Fault::seeded(FaultKind::ALL[kind_idx], seed, image.len());
        fault.apply(&mut image);
        let image_len = image.len() as u64;

        if let Ok(salvaged) = salvage_image(image) {
            let report = &salvaged.report;
            // Checked before any read adds block fetches. A corrupt
            // directory may claim overlapping extents, so vetting can
            // re-fetch bytes; only a clean container bounds the vet
            // I/O by the image itself.
            if report.is_clean() {
                prop_assert!(
                    salvaged.reader.bytes_read() <= image_len,
                    "vetting a clean container fetched {} of {} bytes",
                    salvaged.reader.bytes_read(),
                    image_len
                );
            }
            if report.directory == SectionHealth::Intact && report.cases_lost == 0 {
                let mut expected = EventLog::new(Arc::clone(log.interner()));
                for (ord, case) in log.cases().iter().enumerate() {
                    let events: Vec<Event> = case
                        .events
                        .chunks(block_events)
                        .enumerate()
                        .filter(|(block, _)| {
                            !report.losses.iter().any(|l| l.case == ord && l.block == *block)
                        })
                        .flat_map(|(_, chunk)| chunk.iter().cloned())
                        .collect();
                    if !events.is_empty() {
                        expected.push_case(Case { meta: case.meta, events });
                    }
                }
                prop_assert_eq!(
                    salvaged.reader.read().unwrap().cases(),
                    expected.cases(),
                    "recovered log is not the written log minus the lost blocks"
                );
            }
        }
    }

    /// Law 4: the report `fsck` sees (via `open_salvage_seek`) is the
    /// report a salvage-mode session acts on, and its verdict reflects
    /// actual recovery: clean means the session returns the original
    /// log.
    #[test]
    fn fsck_report_agrees_with_salvage_recovery(
        specs in log_strategy(3, 30),
        block_events in 1usize..10,
        kind_idx in 0usize..FaultKind::ALL.len(),
        seed in 0u64..500,
    ) {
        let log = build_log(&specs);
        let mut image = to_bytes_blocked(&log, block_events).unwrap().to_vec();
        let fault = Fault::seeded(FaultKind::ALL[kind_idx], seed, image.len());
        fault.apply(&mut image);

        let dir = std::env::temp_dir().join(format!(
            "st-props-salvage-{}-{kind_idx}-{seed}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("case.stlog");
        std::fs::write(&path, &image).unwrap();

        let fsck = open_salvage_seek(&path);
        // The store route, named directly: a fault in the header must
        // not reclassify the file as strace text.
        let session = Inspector::from_source(TraceSource::Store { path: path.clone(), version: 2 })
            .recovery(RecoveryPolicy::Salvage)
            .session();
        match (fsck, session) {
            (Err(_), Err(_)) => {} // unreadable either way
            (Ok(salvaged), Ok(session)) => {
                let report = session.salvage().expect("salvage session carries its report");
                prop_assert_eq!(&salvaged.report, report, "fsck and salvage reports differ");
                prop_assert_eq!(session.log().total_events() as u64, report.events_recovered);
                if report.verdict() == st_inspector::store::Verdict::Clean {
                    prop_assert_eq!(canonical(session.log()), canonical(&log));
                }
            }
            (a, b) => {
                std::fs::remove_dir_all(&dir).ok();
                panic!(
                    "open_salvage_seek ({:?}) and the salvage session ({:?}) disagree on \
                     readability",
                    a.is_ok(),
                    b.is_ok()
                );
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
