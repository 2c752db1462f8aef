//! # st-store — single-file columnar event-log container
//!
//! The paper's implementation (Sec. V) parses the per-process trace files
//! once and stores them "in a single HDF5 file. Each processed trace file
//! (i.e., each case) is stored in a separate group within the HDF5 file
//! as a table" whose columns are the event attributes `pid, call, start,
//! dur, fp, size`, sorted by `start`.
//!
//! This crate keeps exactly that contract — one container file, one table
//! per case, columnar attribute arrays, sorted by start — with a
//! self-describing binary format instead of HDF5 (the `hdf5` crate
//! requires a system libhdf5, unavailable in this offline build; see
//! DESIGN.md §4).
//!
//! The current format, **STLOG v2**, additionally splits every case's
//! columns into fixed-size event *blocks* and prefixes the event bytes
//! with a zone-mapped **block directory**, so selective queries
//! (`st_query::pushdown`) can skip whole blocks — and whole cases —
//! without reading their bytes:
//!
//! ```text
//! magic "STLOG2\0\0" | version u32 LE (= 2)
//! [strings]   u64 LE body len | count, per string: varint len + UTF-8  | CRC32
//! [directory] u64 LE body len | case count, then per case:            | CRC32
//!               cid sym, host sym, rid, event count       (varints)
//!               start_min, start_span                     (case time span)
//!               block count, then per block:
//!                 events, offset, len, col_lens[9]        (varints)
//!                 zone map: start/dur/size/pid min+span,
//!                           flags (sized/ok), pid bloom u64 LE,
//!                           call mask u32 LE, path bloom 2×u64 LE
//! [blocks]    u64 LE body len | concatenated block bodies, each:
//!               column pid[]       varints
//!               column call[]      u8 tag (+ varint symbol for Other)
//!               column start[]     delta varints, first absolute
//!               column dur[]       varints
//!               column path[]      varint symbols
//!               column size[]      option-shifted varints (0 = None)
//!               column requested[] option-shifted varints
//!               column offset[]    option-shifted varints
//!               column ok[]        u8
//!               CRC32 over the body
//! ```
//!
//! Per-block CRCs (rather than one cases-section checksum) let a
//! pruning reader verify exactly the blocks it touches; strings and
//! directory keep whole-section CRCs. Truncation and bit-rot surface as
//! [`StoreError::ChecksumMismatch`] / [`StoreError::Corrupt`] instead of
//! silently wrong analyses.
//!
//! The legacy **STLOG v1** layout (flat whole-case columns, varint
//! section framing, magic `STLOG1`) is frozen: [`decode_v1`] still
//! reads it byte-for-byte identically, and [`to_bytes_v1`] keeps the v1
//! encoder available for fixtures and compatibility tests.
//! [`read_store`] dispatches on the version — the read counterpart of
//! [`write_store`]. Unknown future versions fail with
//! [`StoreError::UnsupportedVersion`].
//!
//! Reading restores symbols in insertion order, so symbol identities are
//! reproduced exactly and logs round-trip bit-identically.
//!
//! ## Out-of-core access
//!
//! [`SegmentReader`] (module [`segment`]) is the one v2 reader: it
//! opens only the head and fetches block extents on demand, from a file
//! or from an in-memory image ([`BytesSegment`]). [`StoreBuilder`]
//! (module [`stream`]) writes a container case-by-case with bounded
//! memory — the full byte image never exists on either path.
//!
//! ## Failure model
//!
//! Strict reads are all-or-nothing: the head is validated at open and
//! every block's CRC when it is fetched. The [`salvage`] module
//! recovers every event the per-block CRCs can vouch for from a damaged
//! v2 container and reports what was lost ([`SalvageReport`]); [`write_store`] is atomic (temp + fsync +
//! rename), so interrupted writes never leave a torn container; and
//! [`faults`] provides the deterministic corruptors the robustness
//! tests (and the `faultgen` binary) are built on.

#![warn(missing_docs)]

pub mod cache;
pub mod crc;
pub mod error;
pub mod faults;
pub mod format;
pub mod reader;
pub mod salvage;
pub mod segment;
pub mod stream;
pub mod varint;
pub mod writer;

pub use cache::{BlockCache, CacheStats, CachedBlockRead, DEFAULT_CACHE_BUDGET};
pub use error::{CorruptKind, StoreError};
pub use faults::{Fault, FaultKind};
pub use format::{BlockDir, CaseDir, ColumnSet, Decision, ZoneMap, DEFAULT_BLOCK_EVENTS};
pub use reader::{decode_v1, read_store};
pub use salvage::{
    open_salvage_seek, salvage_source, BlockLoss, BlockLossReason, SalvageReport, SalvagedSeek,
    SectionHealth, Verdict,
};
#[cfg(unix)]
pub use segment::MmapSegment;
pub use segment::{
    BlockRead, BytesSegment, CountingSegment, FileSegment, IoCounters, SegmentReader, SegmentSource,
};
pub use stream::StoreBuilder;
pub use writer::{to_bytes, to_bytes_blocked, to_bytes_v1, write_atomic, write_store};
