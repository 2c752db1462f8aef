//! Serializing an [`EventLog`] into the container format.
//!
//! [`to_bytes`] emits the current STLOG **v2** layout: block-chunked
//! columns with a zone-mapped block directory (see the crate root for
//! the byte layout and `st_query::pushdown` for the planner that
//! consumes the directory). [`to_bytes_v1`] keeps the legacy flat v1
//! encoder for fixtures and compatibility tests; [`crate::read_store`]
//! reads both.

use std::path::Path;

use bytes::Bytes;
use st_model::{CaseMeta, Event, EventLog, Interner, InternerSnapshot, Micros, Symbol, Syscall};

use crate::crc::crc32;
use crate::error::{CorruptKind, StoreError};
use crate::format::{BlockDir, CaseDir, ZoneMap, DEFAULT_BLOCK_EVENTS, NCOLS};
use crate::varint::{put_opt_u64, put_u64};

/// v1 container magic.
pub(crate) const MAGIC_V1: &[u8; 8] = b"STLOG1\0\0";
/// v2 container magic.
pub(crate) const MAGIC_V2: &[u8; 8] = b"STLOG2\0\0";
/// The legacy flat format version.
pub(crate) const VERSION_V1: u32 = 1;
/// The block-chunked format version.
pub(crate) const VERSION_V2: u32 = 2;
/// Call-column tag marking a [`Syscall::Other`] entry (followed by the
/// interned-name symbol).
pub(crate) const CALL_OTHER_TAG: u8 = 0xFF;

/// Rough per-event byte cost used to pre-size the output buffer: nine
/// columns, most of them single-byte varints, plus delta-encoded
/// timestamps that occasionally spill to 2–3 bytes.
const EST_BYTES_PER_EVENT: usize = 14;

/// Serializes `log` as STLOG v2 with the default block size
/// ([`DEFAULT_BLOCK_EVENTS`] events per block).
///
/// Cases are written in log order; events must already be start-sorted
/// (they are delta-encoded). Unsorted cases are rejected rather than
/// silently producing a corrupt delta stream.
pub fn to_bytes(log: &EventLog) -> Result<Bytes, StoreError> {
    to_bytes_blocked(log, DEFAULT_BLOCK_EVENTS)
}

/// [`to_bytes`] with an explicit block size (events per block). Small
/// blocks exercise multi-block layouts on small logs in tests; readers
/// handle any block size ≥ 1.
pub fn to_bytes_blocked(log: &EventLog, block_events: usize) -> Result<Bytes, StoreError> {
    let _span = st_obs::span!("store.encode");
    assert!(block_events >= 1, "blocks hold at least one event");
    let mut blocks = Vec::with_capacity(log.total_events() * EST_BYTES_PER_EVENT);
    let mut buf = Vec::new();
    let mut directory = Vec::with_capacity(log.case_count());
    for case in log.cases() {
        directory.push(encode_case(
            case.meta,
            &case.events,
            log.interner(),
            block_events,
            &mut buf,
            blocks.len() as u64,
            |body| {
                blocks.extend_from_slice(body);
                Ok(())
            },
        )?);
    }
    let mut out = encode_head(&log.snapshot(), &directory, blocks.len() as u64);
    out.extend_from_slice(&blocks);
    Ok(Bytes::from(out))
}

/// Encodes one case into blocks of `block_events` events: rejects an
/// unsorted case (events are delta-encoded), then writes each block
/// body into `buf` (cleared per block) and hands it to `emit`. Block
/// offsets run on from `offset`, the blocks-section length so far, so
/// consecutive cases lay out contiguously. Returns the case's
/// directory entry. Shared by [`to_bytes_blocked`] and
/// [`crate::StoreBuilder::push_case`], so both writers emit the same
/// bytes.
pub(crate) fn encode_case(
    meta: CaseMeta,
    events: &[Event],
    interner: &Interner,
    block_events: usize,
    buf: &mut Vec<u8>,
    mut offset: u64,
    mut emit: impl FnMut(&[u8]) -> Result<(), StoreError>,
) -> Result<CaseDir, StoreError> {
    if !events.windows(2).all(|w| w[0].start <= w[1].start) {
        return Err(CorruptKind::UnsortedCase {
            label: meta.label(interner),
        }
        .into());
    }
    let mut entry = CaseDir {
        cid: meta.cid,
        host: meta.host,
        rid: meta.rid,
        events: events.len() as u64,
        start_min: events.first().map(|e| e.start).unwrap_or(Micros::ZERO),
        start_max: events.last().map(|e| e.start).unwrap_or(Micros::ZERO),
        blocks: Vec::with_capacity(events.len().div_ceil(block_events)),
    };
    for chunk in events.chunks(block_events) {
        buf.clear();
        // write_block records the offset relative to the buffer; the
        // buffer restarts per block, so rebase onto the running offset.
        let mut block = write_block(buf, chunk);
        block.offset = offset;
        offset += u64::from(block.len);
        emit(buf)?;
        entry.blocks.push(block);
    }
    Ok(entry)
}

/// Encodes everything a v2 container holds before its block bodies:
/// magic and version, the strings section (the interner snapshot in
/// insertion order, so symbol ids are reproduced exactly on read), the
/// directory section, and the blocks section's fixed length prefix.
/// The blocks section carries per-block CRCs (part of each body)
/// instead of one section-wide checksum, so a pruning reader can
/// verify exactly the blocks it touches.
pub(crate) fn encode_head(
    snap: &InternerSnapshot,
    directory: &[CaseDir],
    blocks_len: u64,
) -> Vec<u8> {
    let strings: usize = (0..snap.len())
        .map(|idx| snap.resolve(Symbol(idx as u32)).len() + 5)
        .sum();
    let blocks: usize = directory.iter().map(|c| c.blocks.len()).sum();
    let mut out = Vec::with_capacity(64 + strings + directory.len() * 32 + blocks * 96);
    out.extend_from_slice(MAGIC_V2);
    out.extend_from_slice(&VERSION_V2.to_le_bytes());
    write_section(&mut out, |body| {
        put_u64(body, snap.len() as u64);
        for idx in 0..snap.len() {
            let s = snap.resolve(Symbol(idx as u32));
            put_u64(body, s.len() as u64);
            body.extend_from_slice(s.as_bytes());
        }
    });
    write_section(&mut out, |body| {
        put_u64(body, directory.len() as u64);
        for entry in directory {
            entry.encode(body);
        }
    });
    out.extend_from_slice(&blocks_len.to_le_bytes());
    out
}

/// Writes one block body (nine column segments + CRC-32) into `out` and
/// returns its directory entry.
fn write_block(out: &mut Vec<u8>, chunk: &[Event]) -> BlockDir {
    let body_start = out.len();
    let mut col_lens = [0u32; NCOLS];
    let mut col_start = out.len();
    let mut finish_col = |out: &mut Vec<u8>, idx: usize, col_start: &mut usize| {
        col_lens[idx] = (out.len() - *col_start) as u32;
        *col_start = out.len();
    };

    // pid column
    for e in chunk {
        put_u64(out, u64::from(e.pid.0));
    }
    finish_col(out, 0, &mut col_start);
    // call column
    for e in chunk {
        match e.call {
            Syscall::Other(sym) => {
                out.push(CALL_OTHER_TAG);
                put_u64(out, u64::from(sym.0));
            }
            named => out.push(named.named_index().expect("named syscall")),
        }
    }
    finish_col(out, 1, &mut col_start);
    // start column: first event absolute, rest delta-encoded within the
    // block so every block decodes independently of its predecessors.
    let mut prev = Micros::ZERO;
    for e in chunk {
        put_u64(out, (e.start - prev).as_micros());
        prev = e.start;
    }
    finish_col(out, 2, &mut col_start);
    // dur column
    for e in chunk {
        put_u64(out, e.dur.as_micros());
    }
    finish_col(out, 3, &mut col_start);
    // path column
    for e in chunk {
        put_u64(out, u64::from(e.path.0));
    }
    finish_col(out, 4, &mut col_start);
    // size / requested / offset columns (option-shifted)
    for e in chunk {
        put_opt_u64(out, e.size);
    }
    finish_col(out, 5, &mut col_start);
    for e in chunk {
        put_opt_u64(out, e.requested);
    }
    finish_col(out, 6, &mut col_start);
    for e in chunk {
        put_opt_u64(out, e.offset);
    }
    finish_col(out, 7, &mut col_start);
    // ok column
    for e in chunk {
        out.push(u8::from(e.ok));
    }
    finish_col(out, 8, &mut col_start);

    let crc = crc32(&out[body_start..]);
    out.extend_from_slice(&crc.to_le_bytes());

    BlockDir {
        events: chunk.len() as u32,
        offset: body_start as u64,
        len: (out.len() - body_start) as u32,
        col_lens,
        zone: ZoneMap::from_events(chunk),
    }
}

/// Appends a v2 section: fixed 8-byte LE length prefix, body, CRC-32.
/// The fixed prefix lets the body stream straight into `out` (the
/// length is patched afterwards) — no intermediate section buffer.
fn write_section(out: &mut Vec<u8>, body: impl FnOnce(&mut Vec<u8>)) {
    let len_pos = out.len();
    out.extend_from_slice(&[0u8; 8]);
    let body_start = out.len();
    body(out);
    let body_len = (out.len() - body_start) as u64;
    out[len_pos..len_pos + 8].copy_from_slice(&body_len.to_le_bytes());
    let crc = crc32(&out[body_start..]);
    out.extend_from_slice(&crc.to_le_bytes());
}

/// Serializes `log` in the **legacy v1** flat layout (whole-case
/// columns, no block directory). New stores should use [`to_bytes`];
/// this encoder is retained so the pinned v1 fixtures and compatibility
/// property tests can cross-check the v1 read path byte-for-byte.
pub fn to_bytes_v1(log: &EventLog) -> Result<Bytes, StoreError> {
    check_sorted(log)?;

    let snap = log.snapshot();
    let strings_est: usize = (0..snap.len())
        .map(|idx| snap.resolve(Symbol(idx as u32)).len() + 5)
        .sum();
    let cases_est = 16 + log.case_count() * 16 + log.total_events() * EST_BYTES_PER_EVENT;

    let mut out = Vec::with_capacity(24 + strings_est + cases_est);
    out.extend_from_slice(MAGIC_V1);
    out.extend_from_slice(&VERSION_V1.to_le_bytes());

    // One scratch buffer serves both sections (v1 frames sections with a
    // varint length, which cannot be patched in place), pre-sized for
    // the larger of the two so the hot loop never reallocates.
    let mut scratch: Vec<u8> = Vec::with_capacity(strings_est.max(cases_est));

    // Strings section: the interner snapshot in insertion order, so
    // symbol ids are reproduced exactly on read.
    put_u64(&mut scratch, snap.len() as u64);
    for idx in 0..snap.len() {
        let s = snap.resolve(Symbol(idx as u32));
        put_u64(&mut scratch, s.len() as u64);
        scratch.extend_from_slice(s.as_bytes());
    }
    put_v1_section(&mut out, &scratch);
    scratch.clear();

    // Cases section: one columnar table per case.
    put_u64(&mut scratch, log.case_count() as u64);
    for case in log.cases() {
        put_u64(&mut scratch, u64::from(case.meta.cid.0));
        put_u64(&mut scratch, u64::from(case.meta.host.0));
        put_u64(&mut scratch, u64::from(case.meta.rid));
        put_u64(&mut scratch, case.events.len() as u64);
        // pid column
        for e in &case.events {
            put_u64(&mut scratch, u64::from(e.pid.0));
        }
        // call column
        for e in &case.events {
            match e.call {
                Syscall::Other(sym) => {
                    scratch.push(CALL_OTHER_TAG);
                    put_u64(&mut scratch, u64::from(sym.0));
                }
                named => scratch.push(named.named_index().expect("named syscall")),
            }
        }
        // start column, delta-encoded against the previous event
        let mut prev = Micros::ZERO;
        for e in &case.events {
            put_u64(&mut scratch, (e.start - prev).as_micros());
            prev = e.start;
        }
        // dur column
        for e in &case.events {
            put_u64(&mut scratch, e.dur.as_micros());
        }
        // path column
        for e in &case.events {
            put_u64(&mut scratch, u64::from(e.path.0));
        }
        // size / requested / offset columns (option-shifted)
        for e in &case.events {
            put_opt_u64(&mut scratch, e.size);
        }
        for e in &case.events {
            put_opt_u64(&mut scratch, e.requested);
        }
        for e in &case.events {
            put_opt_u64(&mut scratch, e.offset);
        }
        // ok column
        for e in &case.events {
            scratch.push(u8::from(e.ok));
        }
    }
    put_v1_section(&mut out, &scratch);

    Ok(Bytes::from(out))
}

/// Writes `log` to `path` (STLOG v2), atomically: readers and crashes
/// see either the complete old file or the complete new one, never a
/// torn container.
///
/// Routes through the streaming [`crate::StoreBuilder`], so the full
/// container byte image is never materialized in memory — working
/// memory stays at one block plus the directory metadata.
pub fn write_store(log: &EventLog, path: &Path) -> Result<(), StoreError> {
    let mut builder =
        crate::stream::StoreBuilder::create(path, std::sync::Arc::clone(log.interner()))?;
    builder.push_log(log)?;
    builder.finish()
}

/// Durably replaces `path` with `bytes`: write to a same-directory temp
/// file, `fsync` it, then `rename` over the target (atomic on POSIX).
/// The directory itself is fsynced best-effort so the rename survives a
/// crash too. On any error the temp file is removed — an interrupted
/// write leaves no partial container behind.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), StoreError> {
    let _span = st_obs::span!("store.write", len = bytes.len());
    st_obs::add("bytes_written", bytes.len() as u64);
    let io_err = |source: std::io::Error| StoreError::Io {
        path: path.to_path_buf(),
        source,
    };
    let dir = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p.to_path_buf(),
        _ => std::path::PathBuf::from("."),
    };
    let name = path
        .file_name()
        .ok_or_else(|| io_err(std::io::Error::other("path has no file name")))?;
    // Same directory as the target (rename cannot cross filesystems);
    // pid-salted so concurrent writers never share a temp file.
    let tmp = dir.join(format!(
        ".{}.tmp.{}",
        name.to_string_lossy(),
        std::process::id()
    ));
    let result = (|| {
        use std::io::Write;
        let mut file = std::fs::File::create(&tmp).map_err(io_err)?;
        file.write_all(bytes).map_err(io_err)?;
        file.sync_all().map_err(io_err)?;
        drop(file);
        std::fs::rename(&tmp, path).map_err(io_err)
    })();
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
        return result;
    }
    // Make the rename itself durable. Failure here (exotic filesystems)
    // costs durability of the *name*, not integrity of the data, so it
    // is not propagated.
    if let Ok(d) = std::fs::File::open(&dir) {
        let _ = d.sync_all();
    }
    Ok(())
}

fn check_sorted(log: &EventLog) -> Result<(), StoreError> {
    for case in log.cases() {
        if !case.is_sorted() {
            return Err(CorruptKind::UnsortedCase {
                label: case.meta.label(log.interner()),
            }
            .into());
        }
    }
    Ok(())
}

/// Appends a v1 length-prefixed, CRC-trailed section.
fn put_v1_section(out: &mut Vec<u8>, body: &[u8]) {
    put_u64(out, body.len() as u64);
    out.extend_from_slice(body);
    out.extend_from_slice(&crc32(body).to_le_bytes());
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use st_model::{Case, CaseMeta, Pid};
    use std::sync::Arc;

    pub(crate) fn sample_log() -> EventLog {
        let mut log = EventLog::with_new_interner();
        let i = Arc::clone(log.interner());
        let meta = CaseMeta {
            cid: i.intern("a"),
            host: i.intern("host1"),
            rid: 9042,
        };
        let p = i.intern("/usr/lib/libc.so.6");
        let events = vec![
            Event::new(Pid(9054), Syscall::Openat, Micros(100), Micros(12), p),
            Event::new(Pid(9054), Syscall::Read, Micros(200), Micros(203), p)
                .with_size(832)
                .with_requested(832),
            Event::new(
                Pid(9054),
                Syscall::Other(i.intern("statx")),
                Micros(300),
                Micros(4),
                p,
            ),
            Event::new(Pid(9054), Syscall::Pwrite64, Micros(400), Micros(300), p)
                .with_size(1024)
                .with_requested(1024)
                .with_offset(4096),
            Event::new(
                Pid(9054),
                Syscall::Openat,
                Micros(500),
                Micros(7),
                i.intern("/missing"),
            )
            .failed(),
        ];
        log.push_case(Case::from_events(meta, events));
        log
    }

    #[test]
    fn serializes_with_magic_and_version() {
        let bytes = to_bytes(&sample_log()).unwrap();
        assert_eq!(&bytes[..8], MAGIC_V2);
        assert_eq!(
            u32::from_le_bytes(bytes[8..12].try_into().unwrap()),
            VERSION_V2
        );
    }

    #[test]
    fn v1_serializes_with_legacy_magic() {
        let bytes = to_bytes_v1(&sample_log()).unwrap();
        assert_eq!(&bytes[..8], MAGIC_V1);
        assert_eq!(
            u32::from_le_bytes(bytes[8..12].try_into().unwrap()),
            VERSION_V1
        );
    }

    #[test]
    fn rejects_unsorted_case() {
        let mut log = sample_log();
        log.cases_mut()[0].events.reverse();
        assert!(matches!(to_bytes(&log), Err(StoreError::Corrupt(_))));
        let mut log = sample_log();
        log.cases_mut()[0].events.reverse();
        assert!(matches!(to_bytes_v1(&log), Err(StoreError::Corrupt(_))));
    }

    #[test]
    fn empty_log_serializes() {
        let log = EventLog::with_new_interner();
        let bytes = to_bytes(&log).unwrap();
        assert!(bytes.len() >= 12);
        assert!(to_bytes_v1(&log).unwrap().len() >= 12);
    }

    #[test]
    fn atomic_write_replaces_and_leaves_no_temp() {
        let dir = std::env::temp_dir().join(format!("st-atomic-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let target = dir.join("out.stlog");
        // First write creates; second write replaces the full content.
        write_atomic(&target, b"first image").unwrap();
        assert_eq!(std::fs::read(&target).unwrap(), b"first image");
        write_atomic(&target, b"second, longer image").unwrap();
        assert_eq!(std::fs::read(&target).unwrap(), b"second, longer image");
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .filter(|n| n.to_string_lossy().contains(".tmp."))
            .collect();
        assert!(leftovers.is_empty(), "{leftovers:?}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn failed_atomic_write_leaves_target_and_no_temp() {
        let dir = std::env::temp_dir().join(format!("st-atomic-fail-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        // A directory at the target path makes the final rename fail
        // after the temp file was written — the interruption point the
        // protocol must clean up after.
        let target = dir.join("occupied");
        std::fs::create_dir_all(&target).unwrap();
        assert!(write_atomic(&target, b"doomed").is_err());
        assert!(target.is_dir(), "target must be untouched");
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .filter(|n| n.to_string_lossy().contains(".tmp."))
            .collect();
        assert!(leftovers.is_empty(), "{leftovers:?}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn block_size_changes_block_count_not_content() {
        let log = sample_log();
        let one = to_bytes_blocked(&log, 1).unwrap();
        let all = to_bytes_blocked(&log, 1024).unwrap();
        assert_ne!(one.len(), all.len()); // more blocks, more directory
        let read = |image| {
            crate::SegmentReader::from_source(std::sync::Arc::new(crate::BytesSegment::new(image)))
                .unwrap()
                .read()
                .unwrap()
        };
        assert_eq!(read(one).cases(), read(all).cases());
    }
}
