//! Property-based round-trip tests: strace writer → parser, and the
//! binary store.

use proptest::prelude::*;
use st_inspector::prelude::*;

mod common;
use common::{build_log, log_strategy, open_image};

/// Normalizes an event to what the strace text format can represent:
/// `requested` collapses to `size` when absent (the writer prints the
/// count argument from either), offsets survive only on offset-carrying
/// calls, and failed transfer calls lose their size.
fn text_normalize(mut e: Event) -> Event {
    if e.call.transfers_data() {
        if e.ok {
            e.size = e.size.or(Some(0));
            e.requested = e.requested.or(e.size);
        } else {
            e.size = None;
            e.requested = e.requested.or(Some(0));
        }
    } else {
        e.size = None;
        e.requested = None;
    }
    match e.call {
        Syscall::Lseek | Syscall::Pread64 | Syscall::Pwrite64 => {
            e.offset = e.offset.or(Some(0));
        }
        _ => e.offset = None,
    }
    // Non-transfer calls always succeed in the writer's emission, except
    // open-like probes which carry ENOENT.
    if !e.call.transfers_data() && !e.call.is_open_like() {
        e.ok = true;
    }
    e
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// write_case → parse_str reproduces every representable attribute.
    #[test]
    fn strace_text_roundtrip(specs in log_strategy(4, 25)) {
        let log = build_log(&specs);
        let interner = log.interner();
        for case in log.cases() {
            let mut buf = Vec::new();
            st_inspector::strace::write_case(
                case,
                interner,
                &mut buf,
                &WriteOptions { split_overlapping: false, ..Default::default() },
            ).unwrap();
            let text = String::from_utf8(buf).unwrap();
            let parsed = st_inspector::strace::parse_str(&text, interner);
            prop_assert!(parsed.warnings.is_empty(), "warnings: {:?}\n{}", parsed.warnings, text);
            prop_assert_eq!(parsed.events.len(), case.events.len());
            for (orig, back) in case.events.iter().zip(&parsed.events) {
                let expect = text_normalize(*orig);
                prop_assert_eq!(expect.pid, back.pid);
                prop_assert_eq!(expect.call, back.call, "text:\n{}", text);
                prop_assert_eq!(expect.start, back.start);
                prop_assert_eq!(expect.dur, back.dur);
                prop_assert_eq!(expect.path, back.path);
                prop_assert_eq!(expect.size, back.size, "call {:?} text:\n{}", expect.call, text);
                prop_assert_eq!(expect.offset, back.offset);
                prop_assert_eq!(expect.ok, back.ok);
            }
        }
    }

    /// Store round trip is lossless for every attribute and preserves
    /// symbol identity.
    #[test]
    fn store_roundtrip(specs in log_strategy(6, 30)) {
        let log = build_log(&specs);
        let bytes = st_inspector::store::to_bytes(&log).unwrap();
        let back = open_image(bytes).unwrap().read().unwrap();
        // Cases that were empty are dropped by the reader only when
        // filtered; plain read keeps empty cases? The writer stores all
        // cases; the reader keeps only non-empty ones.
        let non_empty: Vec<&Case> = log.cases().iter().filter(|c| !c.is_empty()).collect();
        prop_assert_eq!(back.case_count(), non_empty.len());
        for (orig, round) in non_empty.iter().zip(back.cases()) {
            prop_assert_eq!(orig.meta.rid, round.meta.rid);
            prop_assert_eq!(orig.meta.cid, round.meta.cid);
            prop_assert_eq!(orig.events.len(), round.events.len());
            for (a, b) in orig.events.iter().zip(&round.events) {
                prop_assert_eq!(a, b);
            }
        }
    }

    /// Any truncation of a valid container is rejected, never
    /// misparsed.
    #[test]
    fn store_truncation_always_detected(specs in log_strategy(3, 10), frac in 0.0f64..1.0) {
        let log = build_log(&specs);
        let bytes = st_inspector::store::to_bytes(&log).unwrap();
        let cut = ((bytes.len() as f64) * frac) as usize;
        if cut < bytes.len() {
            let result = open_image(bytes.slice(0..cut)).and_then(|r| r.read().map(|_| ()));
            prop_assert!(result.is_err(), "accepted a truncation at {}", cut);
        }
    }

    /// Single corrupted bytes are detected by the section CRCs.
    #[test]
    fn store_bitflip_detected(specs in log_strategy(3, 10), pos_seed in 12usize..10_000, bit in 0u8..8) {
        let log = build_log(&specs);
        let bytes = st_inspector::store::to_bytes(&log).unwrap().to_vec();
        // Flip a byte after the header (magic+version are tested
        // separately).
        let pos = 12 + (pos_seed % bytes.len().saturating_sub(12).max(1));
        if pos < bytes.len() {
            let mut corrupted = bytes.clone();
            corrupted[pos] ^= 1 << bit;
            if corrupted != bytes {
                let result = open_image(corrupted.into()).and_then(|r| r.read().map(|_| ()));
                prop_assert!(result.is_err(), "accepted bit flip at {}", pos);
            }
        }
    }
}
