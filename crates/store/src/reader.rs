//! Reading containers back into an [`EventLog`].
//!
//! [`read_store`] is the read counterpart of [`crate::write_store`]: it
//! sniffs the header and dispatches on the format version. STLOG **v2**
//! is read by one reader only, [`SegmentReader`] — over a file, or over
//! an in-memory image wrapped in a [`BytesSegment`]. STLOG **v1** (flat
//! whole-case columns) is frozen: [`decode_v1`] decodes it in one
//! sequential pass and `tests/fixtures/v1_sample.stlog` pins it
//! byte-for-byte. Unknown future versions fail with
//! [`StoreError::UnsupportedVersion`].
//!
//! The v2 decode primitives — string table, block directory and block
//! bodies — live here too; the seek reader and the salvage path share
//! them, so a block decodes identically on every route.

use std::path::Path;
use std::sync::Arc;

use bytes::{Buf, Bytes};
use st_model::{Case, CaseMeta, Event, EventLog, Interner, Micros, Pid, Symbol, Syscall};

use crate::crc::crc32;
use crate::error::{CorruptKind, StoreError};
use crate::format::{BlockDir, CaseDir, ColumnSet, NCOLS};
use crate::segment::{BytesSegment, SegmentReader};
use crate::varint::{get_opt_u64, get_u64};
use crate::writer::{CALL_OTHER_TAG, MAGIC_V1, MAGIC_V2, VERSION_V1, VERSION_V2};

/// Reads the whole container at `path`, whatever its version: v1
/// through [`decode_v1`], v2 through a [`SegmentReader`] over the
/// file's image. Symbols are re-interned in insertion order, so the
/// log (ids included) is the one [`crate::write_store`] was given.
pub fn read_store(path: &Path) -> Result<EventLog, StoreError> {
    let data = std::fs::read(path).map_err(|source| StoreError::Io {
        path: path.to_path_buf(),
        source,
    })?;
    decode_image(Bytes::from(data))
}

/// [`read_store`] over an image already in memory.
fn decode_image(data: Bytes) -> Result<EventLog, StoreError> {
    if check_header(&data)? == VERSION_V1 {
        st_obs::add("bytes_read", data.len() as u64);
        return decode_v1(data);
    }
    SegmentReader::from_source(Arc::new(BytesSegment::new(data)))?.read()
}

/// Validates a container's 12-byte header (magic + version) and returns
/// the version: 1 or 2. Short or foreign headers are
/// [`StoreError::BadMagic`]; an `STLOG` magic with any other pairing is
/// [`StoreError::UnsupportedVersion`].
pub(crate) fn check_header(head: &[u8]) -> Result<u32, StoreError> {
    if head.len() < 12 {
        return Err(StoreError::BadMagic);
    }
    let magic: [u8; 8] = head[..8].try_into().expect("length checked");
    let version = u32::from_le_bytes(head[8..12].try_into().expect("length checked"));
    match (&magic, version) {
        (MAGIC_V1, VERSION_V1) | (MAGIC_V2, VERSION_V2) => Ok(version),
        _ if magic.starts_with(b"STLOG") => Err(StoreError::UnsupportedVersion(version)),
        _ => Err(StoreError::BadMagic),
    }
}

/// Decodes a complete STLOG v1 image (magic, version, CRC-checked
/// strings and cases sections). Any other version fails with
/// [`StoreError::UnsupportedVersion`]. The format is frozen: the tools
/// write only v2, and this decoder exists to keep old containers
/// readable.
pub fn decode_v1(mut data: Bytes) -> Result<EventLog, StoreError> {
    let _span = st_obs::span!("store.read");
    let version = check_header(&data)?;
    if version != VERSION_V1 {
        return Err(StoreError::UnsupportedVersion(version));
    }
    data.advance(12);
    let strings = decode_strings(get_v1_section(&mut data, "strings")?)?;
    let mut buf = get_v1_section(&mut data, "cases")?;
    let symbol = |raw| symbol_in(&strings, raw);
    let interner = Interner::new_shared();
    for s in &strings {
        interner.intern(s);
    }
    let mut log = EventLog::new(interner);

    let case_count = get_u64(&mut buf)? as usize;
    if case_count > buf.len() + 1 {
        return Err(CorruptKind::ImplausibleCount { what: "case" }.into());
    }
    for _ in 0..case_count {
        let cid = symbol(get_u64(&mut buf)?)?;
        let host = symbol(get_u64(&mut buf)?)?;
        let rid = u32::try_from(get_u64(&mut buf)?).map_err(|_| CorruptKind::ValueOverflow {
            what: "rid",
            ty: "u32",
        })?;
        let n = get_u64(&mut buf)? as usize;
        if n > buf.len() {
            return Err(CorruptKind::ImplausibleCount { what: "event" }.into());
        }
        // Columns in file order: pid, call, start (delta), dur, path,
        // size, requested, offset, ok.
        let mut events =
            vec![Event::new(Pid(0), Syscall::Read, Micros::ZERO, Micros::ZERO, Symbol(0)); n];
        for e in events.iter_mut() {
            let pid =
                u32::try_from(get_u64(&mut buf)?).map_err(|_| CorruptKind::ValueOverflow {
                    what: "pid",
                    ty: "u32",
                })?;
            e.pid = Pid(pid);
        }
        for e in events.iter_mut() {
            if !buf.has_remaining() {
                return Err(CorruptKind::Truncated {
                    what: "call column",
                }
                .into());
            }
            let tag = buf.get_u8();
            e.call = if tag == CALL_OTHER_TAG {
                Syscall::Other(symbol(get_u64(&mut buf)?)?)
            } else {
                Syscall::from_named_index(tag)
                    .ok_or_else(|| StoreError::from(CorruptKind::UnknownCallTag { tag }))?
            };
        }
        let mut acc = Micros::ZERO;
        for e in events.iter_mut() {
            acc += Micros(get_u64(&mut buf)?);
            e.start = acc;
        }
        for e in events.iter_mut() {
            e.dur = Micros(get_u64(&mut buf)?);
        }
        for e in events.iter_mut() {
            e.path = symbol(get_u64(&mut buf)?)?;
        }
        for e in events.iter_mut() {
            e.size = get_opt_u64(&mut buf)?;
        }
        for e in events.iter_mut() {
            e.requested = get_opt_u64(&mut buf)?;
        }
        for e in events.iter_mut() {
            e.offset = get_opt_u64(&mut buf)?;
        }
        for e in events.iter_mut() {
            if !buf.has_remaining() {
                return Err(CorruptKind::Truncated { what: "ok column" }.into());
            }
            e.ok = buf.get_u8() != 0;
        }
        if !events.is_empty() {
            log.push_case(Case {
                meta: CaseMeta { cid, host, rid },
                events,
            });
        }
    }
    if buf.has_remaining() {
        return Err(CorruptKind::TrailingBytes { after: "cases" }.into());
    }
    Ok(log)
}

/// Validates a raw symbol reference against a string table.
fn symbol_in(strings: &[String], raw: u64) -> Result<Symbol, StoreError> {
    let idx = usize::try_from(raw).map_err(|_| CorruptKind::ValueOverflow {
        what: "symbol",
        ty: "usize",
    })?;
    if idx >= strings.len() {
        return Err(CorruptKind::SymbolOutOfRange {
            symbol: raw,
            strings: strings.len(),
        }
        .into());
    }
    Ok(Symbol(idx as u32))
}

/// Decodes one v2 block from its raw extent bytes (body + CRC-32
/// trailer, exactly `block.len` bytes), appending events to `out` and
/// returning the column-segment bytes parsed. Shared by the seek
/// reader (which fetches exactly this extent) and the salvage vetting
/// pass, so a block that vets decodes identically later.
pub(crate) fn decode_block_bytes(
    raw: &[u8],
    block: &BlockDir,
    cols: ColumnSet,
    strings: &[String],
    out: &mut Vec<Event>,
) -> Result<usize, StoreError> {
    debug_assert_eq!(raw.len(), block.len as usize);
    debug_assert!(raw.len() >= 4, "caller bounds-checks the extent");
    let cols = cols.union(ColumnSet::IDENTITY);
    let body = &raw[..raw.len() - 4];
    let crc_raw: [u8; 4] = raw[raw.len() - 4..].try_into().expect("4 trailer bytes");
    if crc32(body) != u32::from_le_bytes(crc_raw) {
        return Err(StoreError::ChecksumMismatch { section: "block" });
    }

    let n = block.events as usize;
    let base = out.len();
    out.resize(
        base + n,
        Event::new(Pid(0), Syscall::Read, Micros::ZERO, Micros::ZERO, Symbol(0)),
    );
    let events = &mut out[base..];

    let mut decoded = 0usize;
    let mut seg_start = 0usize;
    for col in 0..NCOLS {
        let seg_len = block.col_lens[col] as usize;
        if seg_start + seg_len > body.len() {
            return Err(CorruptKind::SegmentOutOfBounds.into());
        }
        if cols.contains(ColumnSet::nth(col)) {
            let mut seg = &body[seg_start..seg_start + seg_len];
            decode_column(col, &mut seg, events, strings)?;
            if !seg.is_empty() {
                return Err(CorruptKind::TrailingBytes {
                    after: "column segment",
                }
                .into());
            }
            decoded += seg_len;
        }
        seg_start += seg_len;
    }
    Ok(decoded)
}

/// Decodes column `col` of a block into the event slots.
///
/// Inner loops use the slice-specialized varint readers
/// ([`varint::get_u64_slice`]) whose one-byte fast path covers the
/// common case (delta timestamps, dense symbols, small durations), and
/// the fixed-width columns (`call` tags, `ok` flags) split the segment
/// once instead of bounds-checking per event — this is the hottest loop
/// in the whole query path (~120 ns/event full scan before this
/// rewrite).
fn decode_column(
    col: usize,
    seg: &mut &[u8],
    events: &mut [Event],
    strings: &[String],
) -> Result<(), StoreError> {
    use crate::varint::{get_opt_u64_slice, get_u64_slice};
    match col {
        0 => {
            for e in events.iter_mut() {
                let pid =
                    u32::try_from(get_u64_slice(seg)?).map_err(|_| CorruptKind::ValueOverflow {
                        what: "pid",
                        ty: "u32",
                    })?;
                e.pid = Pid(pid);
            }
        }
        1 => {
            for e in events.iter_mut() {
                let Some((&tag, rest)) = seg.split_first() else {
                    return Err(CorruptKind::Truncated {
                        what: "call column",
                    }
                    .into());
                };
                *seg = rest;
                e.call = if tag == CALL_OTHER_TAG {
                    Syscall::Other(symbol_in(strings, get_u64_slice(seg)?)?)
                } else {
                    Syscall::from_named_index(tag)
                        .ok_or_else(|| StoreError::from(CorruptKind::UnknownCallTag { tag }))?
                };
            }
        }
        2 => {
            let mut acc: u64 = 0;
            for e in events.iter_mut() {
                acc += get_u64_slice(seg)?;
                e.start = Micros(acc);
            }
        }
        3 => {
            for e in events.iter_mut() {
                e.dur = Micros(get_u64_slice(seg)?);
            }
        }
        4 => {
            let limit = strings.len() as u64;
            for e in events.iter_mut() {
                let raw = get_u64_slice(seg)?;
                if raw >= limit {
                    return Err(CorruptKind::SymbolOutOfRange {
                        symbol: raw,
                        strings: strings.len(),
                    }
                    .into());
                }
                e.path = Symbol(raw as u32);
            }
        }
        5 => {
            for e in events.iter_mut() {
                e.size = get_opt_u64_slice(seg)?;
            }
        }
        6 => {
            for e in events.iter_mut() {
                e.requested = get_opt_u64_slice(seg)?;
            }
        }
        7 => {
            for e in events.iter_mut() {
                e.offset = get_opt_u64_slice(seg)?;
            }
        }
        8 => {
            let Some((flags, rest)) = seg.split_at_checked(events.len()) else {
                return Err(CorruptKind::Truncated { what: "ok column" }.into());
            };
            for (e, &flag) in events.iter_mut().zip(flags) {
                e.ok = flag != 0;
            }
            *seg = rest;
        }
        _ => unreachable!("NCOLS columns"),
    }
    Ok(())
}

fn get_v1_section(data: &mut Bytes, section: &'static str) -> Result<Bytes, StoreError> {
    let len = get_u64(data)? as usize;
    if len
        .checked_add(4)
        .is_none_or(|need| data.remaining() < need)
    {
        return Err(CorruptKind::TruncatedSection { section }.into());
    }
    let body = data.split_to(len);
    let stored_crc = data.get_u32_le();
    if crc32(&body) != stored_crc {
        return Err(StoreError::ChecksumMismatch { section });
    }
    Ok(body)
}

/// Parses the directory section and validates it against the blocks
/// section: block extents must be contiguous, in order, and cover the
/// section exactly (the directory itself is CRC-protected, so any
/// mismatch here means a corrupt or inconsistent container).
pub(crate) fn decode_directory(
    mut body: Bytes,
    blocks_len: u64,
) -> Result<Vec<CaseDir>, StoreError> {
    let case_count = get_u64(&mut body)? as usize;
    if case_count > body.len() + 1 {
        return Err(CorruptKind::ImplausibleCount { what: "case" }.into());
    }
    // Each encoded case entry is ≥ 7 bytes; cap the reservation so a
    // crafted count cannot reserve memory disproportionate to the
    // directory's actual size (entries are ~10–25x their encoded form).
    let mut directory = Vec::with_capacity(case_count.min(body.len() / 7 + 1));
    let mut next_offset = 0u64;
    for _ in 0..case_count {
        let remaining = body.len();
        let entry = CaseDir::decode(&mut body, remaining)?;
        for block in &entry.blocks {
            if block.offset != next_offset {
                return Err(CorruptKind::NonContiguousBlocks.into());
            }
            next_offset += u64::from(block.len);
        }
        directory.push(entry);
    }
    if body.has_remaining() {
        return Err(CorruptKind::TrailingBytes { after: "directory" }.into());
    }
    if next_offset != blocks_len {
        return Err(CorruptKind::DirectoryCoverage {
            expected: blocks_len,
            got: next_offset,
        }
        .into());
    }
    Ok(directory)
}

pub(crate) fn decode_strings(mut body: Bytes) -> Result<Vec<String>, StoreError> {
    let count = get_u64(&mut body)? as usize;
    if count > body.len() + 1 {
        return Err(CorruptKind::ImplausibleCount { what: "string" }.into());
    }
    let mut strings = Vec::with_capacity(count);
    for _ in 0..count {
        let len = get_u64(&mut body)? as usize;
        if body.remaining() < len {
            return Err(CorruptKind::Truncated { what: "string" }.into());
        }
        let raw = body.split_to(len);
        let s = std::str::from_utf8(&raw).map_err(|_| CorruptKind::NonUtf8String)?;
        strings.push(s.to_string());
    }
    Ok(strings)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::writer::{tests::sample_log, to_bytes, to_bytes_v1, write_store};

    #[test]
    fn roundtrip_preserves_everything() {
        let log = sample_log();
        for bytes in [to_bytes(&log).unwrap(), to_bytes_v1(&log).unwrap()] {
            let back = decode_image(bytes).unwrap();
            assert_eq!(back.case_count(), log.case_count());
            assert_eq!(back.total_events(), log.total_events());
            let orig_snap = log.snapshot();
            let back_snap = back.snapshot();
            for (a, b) in log.cases().iter().zip(back.cases()) {
                assert_eq!(a.meta.rid, b.meta.rid);
                assert_eq!(orig_snap.resolve(a.meta.cid), back_snap.resolve(b.meta.cid));
                for (x, y) in a.events.iter().zip(&b.events) {
                    assert_eq!(x.pid, y.pid);
                    assert_eq!(x.start, y.start);
                    assert_eq!(x.dur, y.dur);
                    assert_eq!(x.size, y.size);
                    assert_eq!(x.requested, y.requested);
                    assert_eq!(x.offset, y.offset);
                    assert_eq!(x.ok, y.ok);
                    assert_eq!(orig_snap.resolve(x.path), back_snap.resolve(y.path));
                    match (x.call, y.call) {
                        (Syscall::Other(sa), Syscall::Other(sb)) => {
                            assert_eq!(orig_snap.resolve(sa), back_snap.resolve(sb))
                        }
                        (ca, cb) => assert_eq!(ca, cb),
                    }
                }
            }
        }
    }

    #[test]
    fn symbol_identity_is_reproduced() {
        // Because strings are re-interned in insertion order, raw symbol
        // ids survive the round trip (logs can be compared without
        // re-mapping).
        let log = sample_log();
        for bytes in [to_bytes(&log).unwrap(), to_bytes_v1(&log).unwrap()] {
            let back = decode_image(bytes).unwrap();
            for (a, b) in log.cases().iter().zip(back.cases()) {
                assert_eq!(a.meta.cid, b.meta.cid);
                for (x, y) in a.events.iter().zip(&b.events) {
                    assert_eq!(x.path, y.path);
                }
            }
        }
    }

    #[test]
    fn v1_and_v2_decode_identically() {
        let log = sample_log();
        let via_v1 = decode_v1(to_bytes_v1(&log).unwrap()).unwrap();
        let via_v2 = decode_image(to_bytes(&log).unwrap()).unwrap();
        assert_eq!(via_v1.cases(), via_v2.cases());
        // The frozen v1 decoder refuses every other version.
        let err = decode_v1(to_bytes(&log).unwrap()).unwrap_err();
        assert!(matches!(err, StoreError::UnsupportedVersion(2)), "{err:?}");
    }

    #[test]
    fn file_roundtrip() {
        let log = sample_log();
        let path = std::env::temp_dir().join(format!("st-store-{}.stlog", std::process::id()));
        write_store(&log, &path).unwrap();
        assert_eq!(read_store(&path).unwrap().cases(), log.cases());
        std::fs::write(&path, to_bytes_v1(&log).unwrap()).unwrap();
        assert_eq!(read_store(&path).unwrap().cases(), log.cases());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn bad_magic_rejected() {
        let err = decode_image(Bytes::from_static(b"NOTSTLOG....")).unwrap_err();
        assert!(matches!(err, StoreError::BadMagic));
        let err = decode_image(Bytes::from_static(b"xx")).unwrap_err();
        assert!(matches!(err, StoreError::BadMagic));
    }

    #[test]
    fn unsupported_version_rejected() {
        // A future-format file: STLOG magic, unknown digit + version.
        let log = sample_log();
        let mut bytes = to_bytes(&log).unwrap().to_vec();
        bytes[5] = b'3';
        bytes[8] = 3;
        let err = decode_image(Bytes::from(bytes)).unwrap_err();
        assert!(matches!(err, StoreError::UnsupportedVersion(3)), "{err:?}");
        // A version field that disagrees with a known magic is equally
        // unreadable.
        let mut bytes = to_bytes(&log).unwrap().to_vec();
        bytes[8] = 0xEE;
        let err = decode_image(Bytes::from(bytes)).unwrap_err();
        assert!(
            matches!(err, StoreError::UnsupportedVersion(0xEE)),
            "{err:?}"
        );
    }

    #[test]
    fn corrupted_strings_section_detected() {
        let log = sample_log();
        for mut bytes in [
            to_bytes(&log).unwrap().to_vec(),
            to_bytes_v1(&log).unwrap().to_vec(),
        ] {
            // Flip a byte inside the strings section (right after the header).
            bytes[16] ^= 0xFF;
            let err = decode_image(Bytes::from(bytes)).unwrap_err();
            assert!(
                matches!(
                    err,
                    StoreError::ChecksumMismatch { .. } | StoreError::Corrupt(_)
                ),
                "{err:?}"
            );
        }
    }

    #[test]
    fn truncated_file_detected() {
        let log = sample_log();
        for bytes in [to_bytes(&log).unwrap(), to_bytes_v1(&log).unwrap()] {
            for cut in [12, bytes.len() / 2, bytes.len() - 1] {
                let err = decode_image(bytes.slice(0..cut)).unwrap_err();
                assert!(
                    matches!(
                        err,
                        StoreError::Corrupt(_)
                            | StoreError::ChecksumMismatch { .. }
                            | StoreError::BadMagic
                    ),
                    "cut={cut}: {err:?}"
                );
            }
        }
    }

    #[test]
    fn huge_section_length_is_corrupt_not_panic() {
        // A section length prefix near u64::MAX must not overflow the
        // bounds check (debug panic / release wrap) — it is Corrupt.
        for magic_version in [(&b"STLOG1\0\0"[..], 1u32), (&b"STLOG2\0\0"[..], 2u32)] {
            let mut bytes = Vec::new();
            bytes.extend_from_slice(magic_version.0);
            bytes.extend_from_slice(&magic_version.1.to_le_bytes());
            if magic_version.1 == 1 {
                // varint u64::MAX - 3
                crate::varint::put_u64(&mut bytes, u64::MAX - 3);
            } else {
                bytes.extend_from_slice(&(u64::MAX - 3).to_le_bytes());
            }
            bytes.extend_from_slice(&[0u8; 16]);
            let err = decode_image(Bytes::from(bytes)).unwrap_err();
            assert!(matches!(err, StoreError::Corrupt(_)), "{err:?}");
        }
    }

    #[test]
    fn empty_log_roundtrip() {
        let log = EventLog::with_new_interner();
        for bytes in [to_bytes(&log).unwrap(), to_bytes_v1(&log).unwrap()] {
            assert!(decode_image(bytes).unwrap().is_empty());
        }
    }
}
