//! Salvage-mode container decoding: recover every event the checksums
//! can vouch for instead of discarding a damaged file.
//!
//! The strict reader ([`SegmentReader::from_source`] plus its block
//! decodes) is all-or-nothing by design — one flipped bit fails the
//! whole read. At ingest scale torn writes and bit rot are routine, and
//! the v2 layout already carries everything needed to do better: a CRC
//! per block, a CRC per section, and a directory that pins every block
//! to an exact byte extent. The salvage path exploits that:
//!
//! 1. **Strings first.** The string table resolves every symbol in the
//!    container; if its section is damaged, nothing else can be
//!    interpreted and the container is *unreadable* (an error, not a
//!    report).
//! 2. **Directory best-effort.** A directory whose CRC fails is still
//!    parsed entry-by-entry — each block it describes is then vouched
//!    for (or not) by that block's own CRC, so a damaged directory
//!    degrades into "trust only what re-validates" instead of total
//!    loss. Entries that no longer parse end directory knowledge; the
//!    blocks beyond it are located by scanning for block framing
//!    (body + matching CRC-32 trailer) and reported as *orphans* —
//!    their column layout lives only in the lost directory entries, so
//!    they are counted, not decoded.
//! 3. **Blocks vetted one-by-one.** Every described block is bounds-
//!    checked, CRC-checked and trial-decoded. Failures are quarantined
//!    into [`BlockLoss`] records; survivors form a new, smaller
//!    directory over the *same* block bytes.
//!
//! The result is a [`SegmentReader`] whose directory contains only
//! vetted blocks, so every downstream path — [`SegmentReader::read`],
//! predicate pushdown, column projection — works unmodified and cannot
//! fail on salvaged data, and pushdown skips quarantined blocks for
//! free (they are simply absent). Recovered events are decoded from
//! untouched original bytes: salvage never invents or alters an event.
//!
//! Vetting runs over a [`SegmentSource`], fetching each described
//! block's extent individually — never the whole file — so fsck and
//! salvage reads of a multi-GB container need RAM for its head and one
//! block at a time. [`salvage_source`] is the one entry point;
//! [`open_salvage_seek`] runs it over a file, and an in-memory image
//! goes through it as a [`crate::BytesSegment`].
//!
//! v1 containers have section-wide CRCs only — no per-block framing —
//! so salvage is all-or-nothing there and the salvage entry points
//! refuse them with [`CorruptKind::V1Seek`]. Callers decode v1 strictly
//! ([`crate::decode_v1`]) and describe a successful decode with
//! [`SalvageReport::clean_v1`]; a damaged v1 is unreadable.

use std::fmt;
use std::path::Path;
use std::sync::Arc;

use bytes::Bytes;

use crate::crc::{crc32, Crc32};
use crate::error::{CorruptKind, StoreError};
use crate::format::{CaseDir, ColumnSet, NCOLS};
use crate::reader::{check_header, decode_block_bytes, decode_strings};
use crate::segment::{read_section_at, FileSegment, SegmentReader, SegmentSource};
use crate::varint::get_u64;
use crate::writer::{VERSION_V1, VERSION_V2};

/// Health of one container section after salvage inspection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SectionHealth {
    /// Framing and CRC check out.
    Intact,
    /// Damaged but partially usable (failed CRC, truncation, or
    /// entries lost past a parse error).
    Damaged,
}

impl fmt::Display for SectionHealth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            SectionHealth::Intact => "intact",
            SectionHealth::Damaged => "damaged",
        })
    }
}

/// Why a block's events could not be recovered.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BlockLossReason {
    /// The block's CRC-32 does not match its bytes.
    Checksum {
        /// CRC stored in the block trailer.
        expected: u32,
        /// CRC of the bytes actually present.
        got: u32,
    },
    /// The block's directory extent reaches outside the blocks section
    /// (typically truncation).
    Bounds,
    /// The block's bytes passed their CRC but failed to decode — the
    /// directory entry and body disagree (a corrupt directory whose
    /// entry happens to parse).
    Decode(CorruptKind),
}

impl fmt::Display for BlockLossReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BlockLossReason::Checksum { .. } => write!(f, "checksum mismatch"),
            BlockLossReason::Bounds => write!(f, "extent out of bounds"),
            BlockLossReason::Decode(kind) => write!(f, "undecodable: {kind}"),
        }
    }
}

/// One quarantined block: which case lost which block, how many events
/// went with it, and why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockLoss {
    /// The owning case's cid, resolved to its spelling (`?` when the
    /// cid symbol itself is out of the string table's range).
    pub cid: String,
    /// Case ordinal in the directory.
    pub case: usize,
    /// Block index within the case.
    pub block: usize,
    /// Events the directory attributed to the block.
    pub events_lost: u64,
    /// What disqualified the block.
    pub reason: BlockLossReason,
}

impl fmt::Display for BlockLoss {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "case {} block {}: {} events lost ({})",
            self.cid, self.block, self.events_lost, self.reason
        )
    }
}

/// Container health verdict, the basis of `stinspect fsck` exit codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Every section and block checks out; strict and salvage reads
    /// agree.
    Clean,
    /// Some data is lost or suspect, but salvage recovers the rest.
    Degraded,
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Verdict::Clean => "clean",
            Verdict::Degraded => "degraded",
        })
    }
}

/// Everything salvage learned about a container: per-section health,
/// per-block losses, and recovery totals.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SalvageReport {
    /// Container format version (1 or 2).
    pub version: u32,
    /// Directory section health (v1: the cases section).
    pub directory: SectionHealth,
    /// Blocks section health (framing: truncation or trailing bytes).
    pub blocks_section: SectionHealth,
    /// Directory entries parsed.
    pub cases: usize,
    /// Directory entries claimed but unparseable (damage ended
    /// directory knowledge early).
    pub cases_lost: u64,
    /// Blocks described by the parsed directory entries.
    pub blocks_total: usize,
    /// Blocks that passed bounds + CRC + trial decode.
    pub blocks_recovered: usize,
    /// Events described by the parsed directory entries.
    pub events_total: u64,
    /// Events in recovered blocks.
    pub events_recovered: u64,
    /// Quarantined blocks, in directory order.
    pub losses: Vec<BlockLoss>,
    /// Intact block frames found past the end of directory knowledge
    /// (decodable only with their lost directory entries; counted, not
    /// recovered).
    pub orphan_blocks: usize,
    /// Bytes covered by orphan frames.
    pub orphan_bytes: u64,
    /// Bytes after the described blocks that no frame accounts for
    /// (appended garbage or unrecognizable damage).
    pub unaccounted_bytes: u64,
}

impl SalvageReport {
    /// The report of a v1 container that decoded cleanly with
    /// `events` events. v1 has no blocks or directory, so only the
    /// event totals carry information.
    pub fn clean_v1(events: u64) -> SalvageReport {
        SalvageReport {
            version: VERSION_V1,
            directory: SectionHealth::Intact,
            blocks_section: SectionHealth::Intact,
            cases: 0,
            cases_lost: 0,
            blocks_total: 0,
            blocks_recovered: 0,
            events_total: events,
            events_recovered: events,
            losses: Vec::new(),
            orphan_blocks: 0,
            orphan_bytes: 0,
            unaccounted_bytes: 0,
        }
    }

    /// `true` when nothing was lost or suspect — strict mode would
    /// accept this container.
    pub fn is_clean(&self) -> bool {
        self.directory == SectionHealth::Intact
            && self.blocks_section == SectionHealth::Intact
            && self.cases_lost == 0
            && self.losses.is_empty()
            && self.orphan_blocks == 0
            && self.unaccounted_bytes == 0
    }

    /// Fraction of directory-described events that salvage recovers
    /// (1.0 for an empty-but-clean container).
    pub fn recoverable_fraction(&self) -> f64 {
        if self.events_total == 0 {
            if self.is_clean() {
                1.0
            } else {
                0.0
            }
        } else {
            self.events_recovered as f64 / self.events_total as f64
        }
    }

    /// The container's health verdict. Unreadable containers never get
    /// a report — they surface as the `Err` of [`open_salvage_seek`].
    pub fn verdict(&self) -> Verdict {
        if self.is_clean() {
            Verdict::Clean
        } else {
            Verdict::Degraded
        }
    }
}

/// A salvage-opened container: a [`SegmentReader`] whose directory
/// holds only vetted blocks, plus the loss report.
#[derive(Debug)]
pub struct SalvagedSeek {
    /// Seek reader over the recovered subset; every standard read path
    /// (full read, predicate pushdown) works on it and fetches only the
    /// extents it touches.
    pub reader: SegmentReader,
    /// What was recovered, what was lost, and why.
    pub report: SalvageReport,
}

/// Opens `path` in salvage mode without loading it into memory: head
/// sections are fetched and parsed, every described block is vetted by
/// fetching exactly its extent, and the result is a [`SegmentReader`]
/// over the vetted directory.
///
/// Errors only when the container is *unreadable*: bad magic,
/// unsupported version, or a damaged string table. v1 containers have
/// no block directory to vet and fail with [`CorruptKind::V1Seek`];
/// decode them strictly instead (see the module docs).
pub fn open_salvage_seek(path: &Path) -> Result<SalvagedSeek, StoreError> {
    salvage_source(Arc::new(FileSegment::open(path)?))
}

/// [`open_salvage_seek`] over any byte source — the injection point for
/// the I/O-accounting tests, which wrap the source in a
/// [`crate::CountingSegment`] and assert salvage never slurps the file.
pub fn salvage_source(source: Arc<dyn SegmentSource>) -> Result<SalvagedSeek, StoreError> {
    if source.len() < 12 {
        return Err(StoreError::BadMagic);
    }
    if check_header(&source.read_at(0, 12)?)? == VERSION_V1 {
        return Err(CorruptKind::V1Seek.into());
    }
    let core = salvage_v2_core(&source)?;
    st_obs::add("bytes_read", core.fetched);
    Ok(SalvagedSeek {
        reader: SegmentReader::assemble(
            source,
            core.strings,
            core.entries,
            core.blocks_start,
            core.blocks_len,
            core.fetched,
        ),
        report: core.report,
    })
}

/// What the v2 salvage core learned: the vetted parts the reader is
/// assembled from, plus the loss report
/// and the bytes fetched while vetting.
struct SalvageCore {
    strings: Vec<String>,
    entries: Vec<CaseDir>,
    /// Absolute offset of the blocks region in the image.
    blocks_start: u64,
    /// Length of the blocks region actually present (claimed length
    /// clamped to the bytes on hand).
    blocks_len: u64,
    /// Bytes fetched from the source during salvage (head + vetting +
    /// orphan scan) — seeds the seek reader's fetch counter.
    fetched: u64,
    report: SalvageReport,
}

/// The v2 salvage walk over an arbitrary byte source. The caller has
/// already verified the 12-byte magic/version header.
///
/// Every fetch is an exact extent: head sections, then one fetch per
/// described block for vetting, then one fetch of the tail past
/// directory knowledge for the orphan scan. The whole image is never
/// requested at once, so salvage of a store larger than RAM holds one
/// block at a time.
fn salvage_v2_core(source: &Arc<dyn SegmentSource>) -> Result<SalvageCore, StoreError> {
    let _span = st_obs::span!("store.salvage.vet");
    let total = source.len();
    let mut pos = 12u64;

    // 1. Strings: strictly. A container whose string table cannot be
    //    trusted resolves no cid, host, path or call name — unreadable.
    let (strings_body, p) = read_section_at(&**source, pos, "strings")?;
    pos = p;
    let strings = decode_strings(strings_body)?;

    // 2. Directory framing, tolerantly: a short or lying length prefix
    //    downgrades the directory instead of failing the open.
    let mut directory_health = SectionHealth::Intact;
    let dir_body =
        read_section_tolerant_at(&**source, &mut pos, &mut directory_health)?.unwrap_or_default();

    // 3. Blocks framing, tolerantly: clamp the claimed length to the
    //    bytes actually present; surplus bytes beyond the claim are
    //    appended garbage.
    let mut blocks_health = SectionHealth::Intact;
    let mut unaccounted = 0u64;
    let (blocks_start, blocks_len) = if total - pos < 8 {
        if total > pos {
            blocks_health = SectionHealth::Damaged;
            unaccounted += total - pos;
        } else if directory_health == SectionHealth::Intact && !dir_body.is_empty() {
            // A directory with entries but no blocks section at all.
            blocks_health = SectionHealth::Damaged;
        }
        (pos, 0u64)
    } else {
        let raw = source.read_at(pos, 8)?;
        pos += 8;
        let claimed = u64::from_le_bytes(raw[..8].try_into().expect("8 bytes fetched"));
        let have = total - pos;
        if claimed > have {
            blocks_health = SectionHealth::Damaged; // truncated
            (pos, have)
        } else {
            if have > claimed {
                blocks_health = SectionHealth::Damaged; // garbage append
                unaccounted += have - claimed;
            }
            (pos, claimed)
        }
    };
    // All head reads consumed exactly the bytes they advanced past.
    let mut fetched = pos;

    // 4. Directory entries, best-effort even when the section CRC
    //    failed: each described block must independently re-validate
    //    below, so a lying entry can quarantine a block but never
    //    invent events.
    let (claimed_entries, mut entries) = parse_entries_relaxed(dir_body);
    let cases_lost = claimed_entries.saturating_sub(entries.len() as u64);
    if cases_lost > 0 {
        directory_health = SectionHealth::Damaged;
    }

    // 5. Vet every described block: bounds, CRC, trial decode — one
    //    exact-extent fetch per block. A block that vets here can never
    //    fail a later decode (same bytes, same string table).
    let mut losses = Vec::new();
    let mut blocks_total = 0usize;
    let mut events_total = 0u64;
    let mut events_recovered = 0u64;
    let mut described_end = 0u64; // where directory knowledge ends
    let mut scratch = Vec::new();
    for (case_ord, entry) in entries.iter_mut().enumerate() {
        let mut vetted = Vec::with_capacity(entry.blocks.len());
        for (block_idx, block) in entry.blocks.drain(..).enumerate() {
            blocks_total += 1;
            events_total += u64::from(block.events);
            let end = block.offset.saturating_add(u64::from(block.len));
            let in_bounds = block.len >= 4 && end <= blocks_len;
            if in_bounds {
                described_end = described_end.max(end);
            }
            let reason = if !in_bounds {
                Some(BlockLossReason::Bounds)
            } else {
                let raw = source.read_at(blocks_start + block.offset, block.len as usize)?;
                fetched += u64::from(block.len);
                let body_len = block.len as usize - 4;
                let expected =
                    u32::from_le_bytes(raw[body_len..].try_into().expect("4 trailer bytes"));
                let got = crc32(&raw[..body_len]);
                if got != expected {
                    Some(BlockLossReason::Checksum { expected, got })
                } else {
                    scratch.clear();
                    match decode_block_bytes(&raw, &block, ColumnSet::ALL, &strings, &mut scratch) {
                        Ok(_) => None,
                        Err(StoreError::Corrupt(kind)) => Some(BlockLossReason::Decode(kind)),
                        // Only Corrupt/Checksum can come out of a
                        // decode; anything else would be a logic error.
                        Err(_) => Some(BlockLossReason::Decode(CorruptKind::SegmentOutOfBounds)),
                    }
                }
            };
            match reason {
                None => {
                    events_recovered += u64::from(block.events);
                    vetted.push(block);
                }
                Some(reason) => losses.push(BlockLoss {
                    cid: strings
                        .get(entry.cid.index())
                        .cloned()
                        .unwrap_or_else(|| "?".to_string()),
                    case: case_ord,
                    block: block_idx,
                    events_lost: u64::from(block.events),
                    reason,
                }),
            }
        }
        // The vetted subset is the case now: recompute its event count
        // so directory-derived stats (pushdown, fsck, `total_events`)
        // describe what a read will actually produce.
        entry.events = vetted.iter().map(|b| u64::from(b.events)).sum();
        entry.blocks = vetted;
    }

    // 6. Resync past lost directory knowledge: bytes beyond the
    //    described extents may still hold intact block frames (body +
    //    CRC trailer). Without their directory entries (column layout,
    //    owning case) they cannot be decoded — but counting them tells
    //    the operator the data survived even if its index did not.
    //    This is the one fetch not bounded by a block: a damaged
    //    container's undescribed tail is read whole (on a clean one it
    //    is empty).
    let tail_start = described_end.min(blocks_len);
    let tail_len = usize::try_from(blocks_len - tail_start)
        .map_err(|_| CorruptKind::SectionTooLarge { section: "blocks" })?;
    let tail = source.read_at(blocks_start + tail_start, tail_len)?;
    fetched += tail_len as u64;
    let (orphan_blocks, orphan_bytes, tail_unaccounted) = scan_block_frames(&tail);
    unaccounted += tail_unaccounted;
    if orphan_blocks > 0 {
        directory_health = SectionHealth::Damaged;
    }

    let report = SalvageReport {
        version: VERSION_V2,
        directory: directory_health,
        blocks_section: blocks_health,
        cases: entries.len(),
        cases_lost,
        blocks_total,
        blocks_recovered: blocks_total - losses.len(),
        events_total,
        events_recovered,
        losses,
        orphan_blocks,
        orphan_bytes,
        unaccounted_bytes: unaccounted,
    };
    st_obs::add("blocks_vetted", blocks_total as u64);
    st_obs::add("blocks_lost", report.losses.len() as u64);
    st_obs::add("events_lost", events_total - events_recovered);
    Ok(SalvageCore {
        strings,
        entries,
        blocks_start,
        blocks_len,
        fetched,
        report,
    })
}

/// Reads a v2 section (8-byte LE length prefix, body, CRC-32 trailer)
/// at `*pos` without failing the open: framing damage and CRC
/// mismatches degrade `health` and yield whatever body bytes are
/// present. `Err` is reserved for source I/O failures.
fn read_section_tolerant_at(
    source: &dyn SegmentSource,
    pos: &mut u64,
    health: &mut SectionHealth,
) -> Result<Option<Bytes>, StoreError> {
    let total = source.len();
    if total.saturating_sub(*pos) < 8 {
        *health = SectionHealth::Damaged;
        return Ok(None);
    }
    let raw = source.read_at(*pos, 8)?;
    *pos += 8;
    let len = u64::from_le_bytes(raw[..8].try_into().expect("8 bytes fetched"));
    if len.saturating_add(4) > total - *pos || usize::try_from(len).is_err() {
        // The prefix lies (or the file is cut). Nothing after it can
        // be framed reliably; leave the rest for the blocks scan.
        *health = SectionHealth::Damaged;
        return Ok(None);
    }
    let framed = source.read_at(*pos, len as usize + 4)?;
    *pos += len + 4;
    let body = framed.slice(0..len as usize);
    let stored = u32::from_le_bytes(framed[len as usize..].try_into().expect("4 trailer bytes"));
    if crc32(&body) != stored {
        *health = SectionHealth::Damaged;
    }
    Ok(Some(body))
}

/// Parses directory entries best-effort: returns the claimed case count
/// and every entry that still parses. The first undecodable entry ends
/// the walk — entries are not self-delimiting, so there is no reliable
/// resync *within* the directory; the blocks-section frame scan picks
/// up from here instead.
fn parse_entries_relaxed(mut body: Bytes) -> (u64, Vec<CaseDir>) {
    let claimed = match get_u64(&mut body) {
        Ok(n) => n,
        Err(_) => return (0, Vec::new()),
    };
    // Same reservation guard as the strict path: entries are ≥ 7 bytes.
    let plausible = (body.len() / 7 + 1) as u64;
    let mut entries = Vec::with_capacity(claimed.min(plausible) as usize);
    for _ in 0..claimed.min(plausible) {
        let remaining = body.len();
        match CaseDir::decode_relaxed(&mut body, remaining) {
            Ok(entry) => entries.push(entry),
            Err(_) => break,
        }
    }
    (claimed, entries)
}

/// Cap on CRC bytes fed while hunting for frame starts in damaged
/// regions, so fsck on a large mostly-garbage tail stays O(bounded)
/// instead of O(n²). Frames found before the cap are still exact.
const SCAN_WORK_CAP: usize = 1 << 22;

/// Scans `region` for consecutive block frames: a body of at least
/// [`NCOLS`] bytes followed by its CRC-32 (little-endian). Returns
/// `(frames, framed_bytes, unaccounted_bytes)`. The incremental CRC
/// makes each candidate start a single left-to-right pass.
fn scan_block_frames(region: &[u8]) -> (usize, u64, u64) {
    let mut frames = 0usize;
    let mut framed = 0u64;
    let mut start = 0usize;
    let mut budget = SCAN_WORK_CAP;
    'starts: while start + NCOLS + 4 <= region.len() {
        let mut crc = Crc32::new();
        let mut pos = start;
        while pos + 4 <= region.len() {
            if pos - start >= NCOLS
                && crc.value()
                    == u32::from_le_bytes([
                        region[pos],
                        region[pos + 1],
                        region[pos + 2],
                        region[pos + 3],
                    ])
            {
                frames += 1;
                framed += (pos + 4 - start) as u64;
                start = pos + 4;
                continue 'starts;
            }
            crc.update(&region[pos..pos + 1]);
            pos += 1;
            budget = budget.saturating_sub(1);
            if budget == 0 {
                break 'starts;
            }
        }
        // No frame starts here; slide one byte and retry (resync).
        start += 1;
    }
    (
        frames,
        framed,
        (region.len() - start.min(region.len())) as u64,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{Fault, FaultKind};
    use crate::segment::BytesSegment;
    use crate::writer::{tests::sample_log, to_bytes_blocked, to_bytes_v1};

    fn v2_image() -> Vec<u8> {
        // Two events per block → 3 blocks for the 5-event sample.
        to_bytes_blocked(&sample_log(), 2).unwrap().to_vec()
    }

    fn salvage_image(image: Vec<u8>) -> Result<SalvagedSeek, StoreError> {
        salvage_source(Arc::new(BytesSegment::new(Bytes::from(image))))
    }

    /// The strict route: open the head, then decode every block.
    fn strict_read(image: Vec<u8>) -> Result<st_model::EventLog, StoreError> {
        SegmentReader::from_source(Arc::new(BytesSegment::new(Bytes::from(image))))?.read()
    }

    fn block_extent(image: &[u8], case: usize, block: usize) -> (usize, usize) {
        let reader =
            SegmentReader::from_source(Arc::new(BytesSegment::new(Bytes::from(image.to_vec()))))
                .unwrap();
        let dir = reader.directory();
        let b = &dir[case].blocks[block];
        let blocks_len: usize = dir
            .iter()
            .flat_map(|c| &c.blocks)
            .map(|b| b.len as usize)
            .sum();
        let section_start = image.len() - blocks_len;
        (section_start + b.offset as usize, b.len as usize)
    }

    #[test]
    fn pristine_container_reports_clean() {
        let salvaged = salvage_image(v2_image()).unwrap();
        assert!(salvaged.report.is_clean());
        assert_eq!(salvaged.report.verdict(), Verdict::Clean);
        assert_eq!(salvaged.report.recoverable_fraction(), 1.0);
        assert_eq!(salvaged.report.blocks_total, 3);
        assert_eq!(salvaged.report.events_recovered, 5);
        let log = salvaged.reader.read().unwrap();
        assert_eq!(log.total_events(), 5);
    }

    #[test]
    fn pristine_v1_reports_clean_and_damaged_v1_is_unreadable() {
        let image = to_bytes_v1(&sample_log()).unwrap().to_vec();
        let log = crate::decode_v1(Bytes::from(image.clone())).unwrap();
        let report = SalvageReport::clean_v1(log.total_events() as u64);
        assert!(report.is_clean());
        assert_eq!(report.verdict(), Verdict::Clean);
        assert_eq!(report.version, 1);
        assert_eq!(report.events_recovered, 5);

        let mut damaged = image;
        let idx = damaged.len() - 8;
        damaged[idx] ^= 0x40;
        assert!(crate::decode_v1(Bytes::from(damaged)).is_err());
    }

    #[test]
    fn single_corrupt_block_quarantines_only_that_block() {
        let image = v2_image();
        let (off, _) = block_extent(&image, 0, 1);
        let mut damaged = image.clone();
        damaged[off + 2] ^= 0x10;

        // Strict rejects the whole container on read.
        assert!(strict_read(damaged.clone()).is_err());

        let salvaged = salvage_image(damaged).unwrap();
        let report = &salvaged.report;
        assert_eq!(report.verdict(), Verdict::Degraded);
        assert_eq!(report.losses.len(), 1);
        assert_eq!(report.losses[0].case, 0);
        assert_eq!(report.losses[0].block, 1);
        assert_eq!(report.losses[0].cid, "a");
        assert_eq!(report.losses[0].events_lost, 2);
        assert!(matches!(
            report.losses[0].reason,
            BlockLossReason::Checksum { .. }
        ));
        assert_eq!(report.events_recovered, 3);

        // Recovered events are byte-identical to the originals.
        let original = sample_log();
        let recovered = salvaged.reader.read().unwrap();
        assert_eq!(recovered.total_events(), 3);
        let orig_events = &original.cases()[0].events;
        for e in &recovered.cases()[0].events {
            assert!(orig_events.contains(e), "salvage invented {e:?}");
        }
    }

    #[test]
    fn truncation_loses_tail_blocks_only() {
        let image = v2_image();
        let (last_off, last_len) = block_extent(&image, 0, 2);
        let mut cut = image.clone();
        cut.truncate(last_off + last_len / 2);
        let salvaged = salvage_image(cut).unwrap();
        let report = &salvaged.report;
        assert_eq!(report.blocks_section, SectionHealth::Damaged);
        assert_eq!(report.losses.len(), 1);
        assert!(matches!(report.losses[0].reason, BlockLossReason::Bounds));
        assert_eq!(report.events_recovered, 4);
        assert_eq!(salvaged.reader.read().unwrap().total_events(), 4);
    }

    #[test]
    fn garbage_append_is_flagged_and_harmless() {
        let mut image = v2_image();
        let before = image.clone();
        Fault::GarbageAppend { len: 64, seed: 3 }.apply(&mut image);
        assert_ne!(image, before);
        let salvaged = salvage_image(image.clone()).unwrap();
        assert_eq!(salvaged.report.verdict(), Verdict::Degraded);
        assert_eq!(salvaged.report.unaccounted_bytes, 64);
        assert_eq!(salvaged.report.events_recovered, 5);
        // Strict rejects the same container.
        assert!(strict_read(image).is_err());
    }

    #[test]
    fn corrupt_directory_crc_still_recovers_blocks() {
        // Flip a byte in the directory section's CRC trailer: entries
        // parse fine and every block still vouches for itself.
        let image = v2_image();
        let (blocks_start, _) = block_extent(&image, 0, 0);
        // The directory CRC is the 4 bytes right before the blocks
        // section's 8-byte length prefix.
        let mut damaged = image.clone();
        let crc_pos = blocks_start - 8 - 1;
        damaged[crc_pos] ^= 0xFF;
        assert!(strict_read(damaged.clone()).is_err());
        let salvaged = salvage_image(damaged).unwrap();
        assert_eq!(salvaged.report.directory, SectionHealth::Damaged);
        assert_eq!(salvaged.report.events_recovered, 5);
        assert_eq!(salvaged.reader.read().unwrap().total_events(), 5);
    }

    #[test]
    fn destroyed_directory_finds_orphan_frames() {
        // Zero a range inside the directory body: entries stop
        // parsing, and the blocks they described surface as orphan
        // frames via the CRC scan.
        let image = v2_image();
        let (blocks_start, _) = block_extent(&image, 0, 0);
        let mut damaged = image.clone();
        // Directory body sits between the strings section and its CRC;
        // zero a chunk in its middle.
        let dir_mid = blocks_start - 40;
        Fault::ZeroRange {
            offset: dir_mid,
            len: 16,
        }
        .apply(&mut damaged);
        let salvaged = salvage_image(damaged).unwrap();
        let report = &salvaged.report;
        assert_eq!(report.verdict(), Verdict::Degraded);
        // Whatever was not described must be found as frames (the
        // block bytes themselves are untouched).
        assert_eq!(
            report.blocks_recovered + report.orphan_blocks,
            3,
            "{report:?}"
        );
        assert_eq!(report.unaccounted_bytes, 0, "{report:?}");
    }

    #[test]
    fn strings_damage_is_unreadable() {
        let mut image = v2_image();
        image[16] ^= 0xFF;
        assert!(salvage_image(image).is_err());
    }

    #[test]
    fn every_seeded_fault_still_salvages_or_fails_like_strict() {
        // Sweep all kinds × seeds: salvage must never panic, never
        // invent events, and strict must reject whatever salvage
        // flags.
        let image = v2_image();
        let original = sample_log();
        for kind in FaultKind::ALL {
            for seed in 0..25u64 {
                let mut damaged = image.clone();
                if !Fault::seeded(kind, seed, image.len()).apply(&mut damaged) {
                    continue;
                }
                if damaged == image {
                    continue; // e.g. zeroing already-zero bytes
                }
                let strict_ok = strict_read(damaged.clone()).is_ok();
                match salvage_image(damaged) {
                    Err(_) => assert!(!strict_ok, "{kind} seed {seed}: strict ok, salvage err"),
                    Ok(salvaged) => {
                        if !salvaged.report.is_clean() {
                            assert!(
                                !strict_ok,
                                "{kind} seed {seed}: strict accepted what salvage flags"
                            );
                        }
                        let log = salvaged.reader.read().expect("vetted blocks decode");
                        for (case, orig) in log.cases().iter().zip(original.cases()) {
                            for e in &case.events {
                                assert!(
                                    orig.events.contains(e),
                                    "{kind} seed {seed} invented {e:?}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn seek_salvage_refuses_v1() {
        let image = to_bytes_v1(&sample_log()).unwrap();
        let err = salvage_source(Arc::new(BytesSegment::new(image))).unwrap_err();
        assert!(
            matches!(err, StoreError::Corrupt(CorruptKind::V1Seek)),
            "{err:?}"
        );
    }

    #[test]
    fn frame_scan_finds_back_to_back_frames() {
        let mut region = Vec::new();
        for body in [&b"0123456789"[..], &b"abcdefghijklm"[..]] {
            region.extend_from_slice(body);
            region.extend_from_slice(&crc32(body).to_le_bytes());
        }
        region.extend_from_slice(b"garbage tail");
        let (frames, framed, unaccounted) = scan_block_frames(&region);
        assert_eq!(frames, 2);
        assert_eq!(framed, 10 + 4 + 13 + 4);
        assert_eq!(unaccounted, 12);
    }
}
