//! The STLOG v2 reader: seek access over any byte source.
//!
//! A [`SegmentSource`] abstracts "a byte range of the container,
//! fetched on demand" (positioned `pread`, a memory map, or an
//! in-memory image), and [`SegmentReader`] — the only v2 reader — opens
//! a container by reading **only** its head (magic, string table, block
//! directory), then fetches exactly the block extents a query decodes.
//! A store much larger than RAM is queried at directory cost plus the
//! bytes of the blocks that survive zone-map pruning; an image already
//! in memory goes through the same code as a [`BytesSegment`], whose
//! fetches are zero-copy slices of the image.
//!
//! The [`BlockRead`] trait is the surface the query layer
//! (`st_query::pushdown`) is generic over: string table, directory,
//! block decode, plus [`BlockRead::bytes_read`] so pruning statistics
//! can report bytes *fetched from the medium* alongside bytes decoded.
//! [`SegmentReader`] implements it, and so does the decoded-block cache
//! adapter ([`crate::CachedBlockRead`]) that wraps it.
//!
//! [`CountingSegment`] wraps any source with fetch accounting and is
//! the test double behind the no-false-I/O laws in
//! `tests/props_store_io.rs`: bytes read never exceed the image,
//! zone-map-rejected blocks contribute zero reads, and a pass-all read
//! totals exactly the image.

use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use st_model::{Case, CaseMeta, Event, EventLog, Interner};

use crate::crc::crc32;
use crate::error::{CorruptKind, StoreError};
use crate::format::{BlockDir, CaseDir, ColumnSet};
use crate::reader::{check_header, decode_block_bytes, decode_directory, decode_strings};
use crate::writer::VERSION_V1;

/// A random-access byte source holding one container image.
///
/// Implementations must return exactly `len` bytes for an in-range
/// `read_at` and an [`StoreError::Io`] for anything else (short reads
/// included) — callers bounds-check against [`SegmentSource::len`]
/// before fetching, so an out-of-range fetch signals a concurrently
/// truncated file, not a caller bug to tolerate.
pub trait SegmentSource: Send + Sync {
    /// Total length of the container image in bytes.
    fn len(&self) -> u64;

    /// Whether the image is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Fetches exactly `len` bytes starting at `offset`.
    fn read_at(&self, offset: u64, len: usize) -> Result<Bytes, StoreError>;
}

fn short_read_error(path: &Path, offset: u64, len: usize) -> StoreError {
    StoreError::Io {
        path: path.to_path_buf(),
        source: std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            format!("short read: {len} bytes at offset {offset}"),
        ),
    }
}

/// An in-memory image as a [`SegmentSource`]: fetches are zero-copy
/// slices sharing the image's buffer, so reading an image through a
/// [`SegmentReader`] costs no copy over decoding it in place.
#[derive(Debug, Clone)]
pub struct BytesSegment {
    data: Bytes,
}

impl BytesSegment {
    /// Wraps an in-memory container image.
    pub fn new(data: Bytes) -> BytesSegment {
        BytesSegment { data }
    }
}

impl SegmentSource for BytesSegment {
    fn len(&self) -> u64 {
        self.data.len() as u64
    }

    fn read_at(&self, offset: u64, len: usize) -> Result<Bytes, StoreError> {
        let start = usize::try_from(offset).ok();
        match start {
            Some(start)
                if start
                    .checked_add(len)
                    .is_some_and(|end| end <= self.data.len()) =>
            {
                Ok(self.data.slice(start..start + len))
            }
            _ => Err(short_read_error(Path::new("<memory>"), offset, len)),
        }
    }
}

/// A container file fetched with positioned reads (`pread` on Unix) —
/// no resident image, no seek-position state, safe to share across
/// decode threads.
#[derive(Debug)]
pub struct FileSegment {
    file: std::fs::File,
    len: u64,
    path: PathBuf,
}

impl FileSegment {
    /// Opens `path` for positioned reads.
    pub fn open(path: &Path) -> Result<FileSegment, StoreError> {
        let io_err = |source: std::io::Error| StoreError::Io {
            path: path.to_path_buf(),
            source,
        };
        let file = std::fs::File::open(path).map_err(io_err)?;
        let len = file.metadata().map_err(io_err)?.len();
        Ok(FileSegment {
            file,
            len,
            path: path.to_path_buf(),
        })
    }
}

impl SegmentSource for FileSegment {
    fn len(&self) -> u64 {
        self.len
    }

    fn read_at(&self, offset: u64, len: usize) -> Result<Bytes, StoreError> {
        let mut buf = vec![0u8; len];
        #[cfg(unix)]
        {
            use std::os::unix::fs::FileExt;
            self.file
                .read_exact_at(&mut buf, offset)
                .map_err(|source| StoreError::Io {
                    path: self.path.clone(),
                    source,
                })?;
        }
        #[cfg(not(unix))]
        {
            // Portable fallback: `Seek`/`Read` are implemented for
            // `&File`, at the cost of a shared seek position (the
            // parallel decode path is Unix-only in practice).
            use std::io::{Read, Seek, SeekFrom};
            let mut f = &self.file;
            f.seek(SeekFrom::Start(offset))
                .and_then(|_| f.read_exact(&mut buf))
                .map_err(|source| StoreError::Io {
                    path: self.path.clone(),
                    source,
                })?;
        }
        Ok(Bytes::from(buf))
    }
}

/// A memory-mapped container file (read-only, private mapping) behind
/// the vendored `memmap2` shim. Fetches copy out of the map, so only
/// the pages a query actually touches are ever faulted in.
#[cfg(unix)]
#[derive(Debug)]
pub struct MmapSegment {
    map: memmap2::Mmap,
    path: PathBuf,
}

#[cfg(unix)]
impl MmapSegment {
    /// Maps `path` read-only.
    ///
    /// The file must not be truncated or rewritten in place while the
    /// segment is alive (the store's atomic-rename write protocol never
    /// does either — a replaced container keeps its old inode mapped).
    pub fn open(path: &Path) -> Result<MmapSegment, StoreError> {
        let io_err = |source: std::io::Error| StoreError::Io {
            path: path.to_path_buf(),
            source,
        };
        let file = std::fs::File::open(path).map_err(io_err)?;
        // SAFETY: read-only private mapping; the caller contract above
        // forbids in-place mutation of the mapped file.
        let map = unsafe { memmap2::Mmap::map(&file) }.map_err(io_err)?;
        Ok(MmapSegment {
            map,
            path: path.to_path_buf(),
        })
    }
}

#[cfg(unix)]
impl SegmentSource for MmapSegment {
    fn len(&self) -> u64 {
        self.map.len() as u64
    }

    fn read_at(&self, offset: u64, len: usize) -> Result<Bytes, StoreError> {
        let start = usize::try_from(offset).ok();
        match start {
            Some(start)
                if start
                    .checked_add(len)
                    .is_some_and(|end| end <= self.map.len()) =>
            {
                Ok(Bytes::from(self.map[start..start + len].to_vec()))
            }
            _ => Err(short_read_error(&self.path, offset, len)),
        }
    }
}

/// Fetch accounting shared by a [`CountingSegment`] and its observers.
#[derive(Debug, Default)]
pub struct IoCounters {
    bytes: AtomicU64,
    fetches: AtomicU64,
    max_fetch: AtomicU64,
}

impl IoCounters {
    /// Total bytes fetched through the counting source.
    pub fn bytes(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }

    /// Number of `read_at` calls.
    pub fn fetches(&self) -> u64 {
        self.fetches.load(Ordering::Relaxed)
    }

    /// Largest single fetch in bytes — a whole-file slurp shows up here
    /// as a fetch the size of the image.
    pub fn max_fetch(&self) -> u64 {
        self.max_fetch.load(Ordering::Relaxed)
    }

    fn record(&self, len: u64) {
        self.bytes.fetch_add(len, Ordering::Relaxed);
        self.fetches.fetch_add(1, Ordering::Relaxed);
        self.max_fetch.fetch_max(len, Ordering::Relaxed);
    }
}

/// A [`SegmentSource`] decorator counting every fetch — the I/O test
/// double proving the seek paths issue no false reads.
pub struct CountingSegment {
    inner: Arc<dyn SegmentSource>,
    counters: Arc<IoCounters>,
}

impl CountingSegment {
    /// Wraps `inner` with fresh counters.
    pub fn new(inner: Arc<dyn SegmentSource>) -> CountingSegment {
        CountingSegment {
            inner,
            counters: Arc::new(IoCounters::default()),
        }
    }

    /// The shared counters (readable while readers hold the source).
    pub fn counters(&self) -> Arc<IoCounters> {
        Arc::clone(&self.counters)
    }
}

impl SegmentSource for CountingSegment {
    fn len(&self) -> u64 {
        self.inner.len()
    }

    fn read_at(&self, offset: u64, len: usize) -> Result<Bytes, StoreError> {
        self.counters.record(len as u64);
        self.inner.read_at(offset, len)
    }
}

/// The reader surface predicate pushdown is generic over: string table,
/// block directory, on-demand block decode, and cumulative fetch
/// accounting. Implemented by [`SegmentReader`] and by the
/// decoded-block cache adapter [`crate::CachedBlockRead`] around it.
pub trait BlockRead: Sync {
    /// The container's string table in symbol order.
    fn strings(&self) -> &[String];

    /// The v2 block directory (case meta, block extents, zone maps).
    fn directory(&self) -> &[CaseDir];

    /// Decodes one v2 block, appending its events to `out`; returns the
    /// column-segment bytes parsed. See [`SegmentReader::decode_block`]
    /// for the exact contract (CRC verify, column projection).
    fn decode_block(
        &self,
        block: &BlockDir,
        cols: ColumnSet,
        out: &mut Vec<Event>,
    ) -> Result<usize, StoreError>;

    /// Cumulative bytes this reader has fetched from its underlying
    /// medium since it was opened: head bytes plus every block extent
    /// fetched so far.
    fn bytes_read(&self) -> u64;
}

/// Reads a strict v2 section (8-byte LE length prefix, body, CRC-32
/// trailer) at `pos`, returning the body and the offset past the
/// trailer. One fetch covers body + CRC.
pub(crate) fn read_section_at(
    source: &dyn SegmentSource,
    mut pos: u64,
    section: &'static str,
) -> Result<(Bytes, u64), StoreError> {
    let total = source.len();
    if total.saturating_sub(pos) < 8 {
        return Err(CorruptKind::TruncatedSection { section }.into());
    }
    let raw = source.read_at(pos, 8)?;
    pos += 8;
    let len = u64::from_le_bytes(raw[..8].try_into().expect("8 bytes fetched"));
    let len_usize = usize::try_from(len).map_err(|_| CorruptKind::SectionTooLarge { section })?;
    if len.checked_add(4).is_none_or(|need| need > total - pos) {
        return Err(CorruptKind::TruncatedSection { section }.into());
    }
    let fetch = len_usize
        .checked_add(4)
        .ok_or(CorruptKind::SectionTooLarge { section })?;
    let framed = source.read_at(pos, fetch)?;
    pos += len + 4;
    let body = framed.slice(0..len_usize);
    let stored = u32::from_le_bytes(framed[len_usize..].try_into().expect("4 trailer bytes"));
    if crc32(&body) != stored {
        return Err(StoreError::ChecksumMismatch { section });
    }
    Ok((body, pos))
}

/// The v2 container reader: opening reads only the head (magic +
/// strings + directory + blocks length), and each
/// [`SegmentReader::decode_block`] fetches exactly that block's byte
/// extent. The whole container is never resident unless the source is
/// an in-memory image.
///
/// A full [`SegmentReader::read`] reproduces the written log exactly
/// (`tests/props_store_pushdown.rs` pins it), while
/// [`SegmentReader::bytes_read`] grows only with the extents actually
/// fetched — the number behind `PushdownStats::bytes_read` and the
/// bench `ooc` section.
pub struct SegmentReader {
    source: Arc<dyn SegmentSource>,
    strings: Vec<String>,
    directory: Vec<CaseDir>,
    blocks_start: u64,
    blocks_len: u64,
    bytes_read: AtomicU64,
}

impl fmt::Debug for SegmentReader {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SegmentReader")
            .field("strings", &self.strings.len())
            .field("cases", &self.directory.len())
            .field("blocks_start", &self.blocks_start)
            .field("blocks_len", &self.blocks_len)
            .field("bytes_read", &self.bytes_read())
            .finish()
    }
}

impl SegmentReader {
    /// Opens `path` with positioned reads (no resident image).
    pub fn open(path: &Path) -> Result<SegmentReader, StoreError> {
        Self::from_source(Arc::new(FileSegment::open(path)?))
    }

    /// Opens `path` through a read-only memory map (see
    /// [`MmapSegment::open`] for the aliasing contract).
    #[cfg(unix)]
    pub fn open_mmap(path: &Path) -> Result<SegmentReader, StoreError> {
        Self::from_source(Arc::new(MmapSegment::open(path)?))
    }

    /// Opens a container over any byte source, validating magic,
    /// version, head-section CRCs and directory coverage. Per-block
    /// CRCs are verified when (and only when) a block is fetched.
    ///
    /// v1 containers have no block directory to seek through and fail
    /// with [`CorruptKind::V1Seek`]; use [`crate::read_store`] or
    /// [`crate::decode_v1`] there.
    pub fn from_source(source: Arc<dyn SegmentSource>) -> Result<SegmentReader, StoreError> {
        let _span = st_obs::span!("store.open.seek");
        let total = source.len();
        if total < 12 {
            return Err(StoreError::BadMagic);
        }
        if check_header(&source.read_at(0, 12)?)? == VERSION_V1 {
            return Err(CorruptKind::V1Seek.into());
        }
        let (strings_body, pos) = read_section_at(&*source, 12, "strings")?;
        let strings = decode_strings(strings_body)?;
        let (dir_body, mut pos) = read_section_at(&*source, pos, "directory")?;
        if total - pos < 8 {
            return Err(CorruptKind::TruncatedSection { section: "blocks" }.into());
        }
        let raw = source.read_at(pos, 8)?;
        pos += 8;
        let blocks_len = u64::from_le_bytes(raw[..8].try_into().expect("8 bytes fetched"));
        let have = total - pos;
        if blocks_len > have {
            return Err(CorruptKind::TruncatedSection { section: "blocks" }.into());
        }
        if have > blocks_len {
            return Err(CorruptKind::TrailingBytes { after: "blocks" }.into());
        }
        let directory = decode_directory(dir_body, blocks_len)?;
        st_obs::add("bytes_read", pos);
        Ok(SegmentReader {
            source,
            strings,
            directory,
            blocks_start: pos,
            blocks_len,
            bytes_read: AtomicU64::new(pos),
        })
    }

    /// Assembles a reader from already-vetted parts — the salvage
    /// path's back door around [`SegmentReader::from_source`]'s strict
    /// head validation. The caller guarantees every block in
    /// `directory` lies within `[blocks_start, blocks_start +
    /// blocks_len)` of `source` and is CRC-clean and decodable;
    /// `head_bytes` seeds the fetch counter with the I/O already spent
    /// vetting.
    pub(crate) fn assemble(
        source: Arc<dyn SegmentSource>,
        strings: Vec<String>,
        directory: Vec<CaseDir>,
        blocks_start: u64,
        blocks_len: u64,
        head_bytes: u64,
    ) -> SegmentReader {
        SegmentReader {
            source,
            strings,
            directory,
            blocks_start,
            blocks_len,
            bytes_read: AtomicU64::new(head_bytes),
        }
    }

    /// The container's string table in symbol order.
    pub fn strings(&self) -> &[String] {
        &self.strings
    }

    /// The block directory (case meta, block extents, zone maps).
    pub fn directory(&self) -> &[CaseDir] {
        &self.directory
    }

    /// Total events recorded in the container, from the directory.
    pub fn total_events(&self) -> u64 {
        self.directory.iter().map(|c| c.events).sum()
    }

    /// Cumulative bytes fetched from the source: the head read at open
    /// plus every block extent fetched since.
    pub fn bytes_read(&self) -> u64 {
        self.bytes_read.load(Ordering::Relaxed)
    }

    /// Fetches and decodes one block, appending its events to `out` and
    /// returning the number of column-segment bytes actually parsed.
    /// Exactly `block.len` bytes are read from the source.
    ///
    /// Only the columns in `cols` (always including
    /// [`ColumnSet::IDENTITY`]) are decoded; the other segments are
    /// skipped by their directory lengths and their event fields take
    /// neutral defaults (pid 0, dur 0, `None` size/requested/offset,
    /// `ok = true`). The block's CRC-32 is verified before decoding.
    pub fn decode_block(
        &self,
        block: &BlockDir,
        cols: ColumnSet,
        out: &mut Vec<Event>,
    ) -> Result<usize, StoreError> {
        if block.len < 4
            || block
                .offset
                .checked_add(u64::from(block.len))
                .is_none_or(|end| end > self.blocks_len)
        {
            return Err(CorruptKind::BlockOutOfBounds {
                offset: block.offset,
                len: block.len,
                blocks_len: self.blocks_len,
            }
            .into());
        }
        let _span = st_obs::span!("store.decode_block", offset = block.offset, len = block.len);
        let raw = self
            .source
            .read_at(self.blocks_start + block.offset, block.len as usize)?;
        self.bytes_read
            .fetch_add(u64::from(block.len), Ordering::Relaxed);
        st_obs::add("bytes_read", u64::from(block.len));
        st_obs::add("blocks_decoded", 1);
        decode_block_bytes(&raw, block, cols, &self.strings, out)
    }

    /// Decodes the full event log, fetching each block extent once.
    /// Symbols are re-interned in insertion order, reproducing the
    /// written log's ids exactly.
    pub fn read(&self) -> Result<EventLog, StoreError> {
        let _span = st_obs::span!("store.read");
        let interner = Interner::new_shared();
        for s in &self.strings {
            interner.intern(s);
        }
        let mut log = EventLog::new(interner);
        for entry in &self.directory {
            let mut events: Vec<Event> = Vec::with_capacity(entry.events as usize);
            for block in &entry.blocks {
                self.decode_block(block, ColumnSet::ALL, &mut events)?;
            }
            if !events.is_empty() {
                log.push_case(Case {
                    meta: CaseMeta {
                        cid: entry.cid,
                        host: entry.host,
                        rid: entry.rid,
                    },
                    events,
                });
            }
        }
        Ok(log)
    }
}

impl BlockRead for SegmentReader {
    fn strings(&self) -> &[String] {
        SegmentReader::strings(self)
    }

    fn directory(&self) -> &[CaseDir] {
        SegmentReader::directory(self)
    }

    fn decode_block(
        &self,
        block: &BlockDir,
        cols: ColumnSet,
        out: &mut Vec<Event>,
    ) -> Result<usize, StoreError> {
        SegmentReader::decode_block(self, block, cols, out)
    }

    fn bytes_read(&self) -> u64 {
        SegmentReader::bytes_read(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::writer::{tests::sample_log, to_bytes, to_bytes_blocked, to_bytes_v1, write_atomic};

    fn temp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("st-segment-{}-{}", name, std::process::id()))
    }

    fn open_image(image: Bytes) -> SegmentReader {
        SegmentReader::from_source(Arc::new(BytesSegment::new(image))).unwrap()
    }

    #[test]
    fn read_reproduces_the_written_log() {
        let log = sample_log();
        let image = to_bytes_blocked(&log, 2).unwrap();
        assert_eq!(open_image(image).read().unwrap().cases(), log.cases());
    }

    #[test]
    fn directory_reports_meta_without_decoding() {
        let reader = open_image(to_bytes_blocked(&sample_log(), 2).unwrap());
        assert_eq!(reader.total_events(), 5);
        let dir = reader.directory();
        assert_eq!(dir.len(), 1);
        assert_eq!(dir[0].blocks.len(), 3); // 5 events in blocks of 2
        assert_eq!(dir[0].start_min, st_model::Micros(100));
        assert_eq!(dir[0].start_max, st_model::Micros(500));
        assert_eq!(dir[0].blocks[0].zone.start_max, st_model::Micros(200));
    }

    #[test]
    fn column_projection_skips_unselected_columns() {
        let reader = open_image(to_bytes(&sample_log()).unwrap());
        let block = &reader.directory()[0].blocks[0];
        let mut all = Vec::new();
        let full_bytes = reader
            .decode_block(block, ColumnSet::ALL, &mut all)
            .unwrap();
        let mut some = Vec::new();
        let some_bytes = reader
            .decode_block(block, ColumnSet::IDENTITY, &mut some)
            .unwrap();
        assert!(some_bytes < full_bytes, "{some_bytes} vs {full_bytes}");
        assert_eq!(all.len(), some.len());
        for (a, b) in all.iter().zip(&some) {
            // Identity columns match; the rest fall back to defaults.
            assert_eq!(a.call, b.call);
            assert_eq!(a.start, b.start);
            assert_eq!(a.path, b.path);
            assert_eq!(b.pid, st_model::Pid(0));
            assert_eq!(b.size, None);
            assert!(b.ok);
        }
    }

    #[test]
    fn file_and_mmap_sources_read_identically() {
        let log = sample_log();
        let image = to_bytes_blocked(&log, 2).unwrap();
        let path = temp("file-mmap");
        write_atomic(&path, &image).unwrap();
        let via_file = SegmentReader::open(&path).unwrap().read().unwrap();
        #[cfg(unix)]
        {
            let via_mmap = SegmentReader::open_mmap(&path).unwrap().read().unwrap();
            assert_eq!(via_file.cases(), via_mmap.cases());
        }
        assert_eq!(via_file.cases(), log.cases());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn open_reads_only_the_head() {
        let image = to_bytes_blocked(&sample_log(), 2).unwrap();
        let counting = CountingSegment::new(Arc::new(BytesSegment::new(image.clone())));
        let counters = counting.counters();
        let reader = SegmentReader::from_source(Arc::new(counting)).unwrap();
        // Opening fetched strictly less than the image: no block bytes.
        let head = counters.bytes();
        assert!(head < image.len() as u64, "{head} vs {}", image.len());
        assert_eq!(head, reader.bytes_read());
        // A full read then fetches exactly the remaining block bytes.
        reader.read().unwrap();
        assert_eq!(counters.bytes(), image.len() as u64);
        assert_eq!(reader.bytes_read(), image.len() as u64);
    }

    #[test]
    fn v1_containers_are_refused_with_a_dedicated_error() {
        let image = to_bytes_v1(&sample_log()).unwrap();
        let err = SegmentReader::from_source(Arc::new(BytesSegment::new(image))).unwrap_err();
        assert!(
            matches!(err, StoreError::Corrupt(CorruptKind::V1Seek)),
            "{err:?}"
        );
    }

    #[test]
    fn truncated_and_trailing_images_are_rejected() {
        let image = to_bytes(&sample_log()).unwrap();
        for cut in [4, 12, 20, image.len() / 2, image.len() - 1] {
            let short = BytesSegment::new(image.slice(0..cut));
            let err = SegmentReader::from_source(Arc::new(short)).unwrap_err();
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
        let mut padded = image.to_vec();
        padded.extend_from_slice(b"junk");
        let err = SegmentReader::from_source(Arc::new(BytesSegment::new(Bytes::from(padded))))
            .unwrap_err();
        assert!(
            matches!(
                err,
                StoreError::Corrupt(CorruptKind::TrailingBytes { after: "blocks" })
            ),
            "{err:?}"
        );
    }

    #[test]
    fn corrupt_block_is_detected_at_fetch_time() {
        let image = to_bytes_blocked(&sample_log(), 2).unwrap();
        let mut damaged = image.to_vec();
        let idx = damaged.len() - 8; // inside the last block body / CRC
        damaged[idx] ^= 0x55;
        // The head is intact, so the open succeeds...
        let reader =
            SegmentReader::from_source(Arc::new(BytesSegment::new(Bytes::from(damaged)))).unwrap();
        // ...and the damage surfaces when the block is fetched.
        let err = reader.read().unwrap_err();
        assert!(
            matches!(
                err,
                StoreError::ChecksumMismatch { .. } | StoreError::Corrupt(_)
            ),
            "{err:?}"
        );
    }

    #[test]
    fn counting_segment_tracks_max_fetch() {
        let image = to_bytes_blocked(&sample_log(), 1).unwrap();
        let counting = CountingSegment::new(Arc::new(BytesSegment::new(image.clone())));
        let counters = counting.counters();
        SegmentReader::from_source(Arc::new(counting))
            .unwrap()
            .read()
            .unwrap();
        assert!(counters.fetches() > 3, "{}", counters.fetches());
        assert!(
            counters.max_fetch() < image.len() as u64,
            "no single fetch may slurp the image: {} vs {}",
            counters.max_fetch(),
            image.len()
        );
    }
}
