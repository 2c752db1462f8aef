//! Store error types.
//!
//! Corruption is reported structurally: every decode failure carries a
//! [`CorruptKind`] naming the damaged unit (section, block field,
//! column) and, where meaningful, the expected/observed values — so
//! `fsck` and the salvage reader classify damage by matching on the
//! kind instead of re-parsing error text. `Display` reproduces the
//! exact legacy message strings, keeping CLI output and golden tests
//! stable.

use std::fmt;
use std::path::PathBuf;

/// What exactly is structurally wrong with a container.
///
/// Block-level failures do not carry their block coordinates here; the
/// salvage reader wraps them in `BlockLoss { case, block, .. }`, which
/// pins the damage to a directory coordinate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CorruptKind {
    /// A section body is cut short of its framing (length prefix or
    /// CRC trailer).
    TruncatedSection {
        /// Which section (`strings`, `cases`, `directory` or `blocks`).
        section: &'static str,
    },
    /// A section length prefix does not fit in `usize` on this build.
    SectionTooLarge {
        /// Which section.
        section: &'static str,
    },
    /// The input ran out of bytes while decoding `what`.
    Truncated {
        /// The unit being decoded (`varint`, `zone map`, `call column`,
        /// `ok column`, `string`).
        what: &'static str,
    },
    /// Unconsumed bytes follow a unit that should have ended the input.
    TrailingBytes {
        /// The unit the bytes trail (`blocks`, `cases`, `directory`,
        /// `column segment`).
        after: &'static str,
    },
    /// A varint encodes a value wider than 64 bits.
    VarintOverflow,
    /// A varint ran past the maximum encoded length.
    VarintTooLong,
    /// A decoded value exceeds the type that must hold it.
    ValueOverflow {
        /// The field (`pid`, `rid`, `symbol`, `block offset`, …).
        what: &'static str,
        /// The exceeded type (`u32` or `usize`).
        ty: &'static str,
    },
    /// A min+span range overflows when reassembled.
    RangeOverflow {
        /// The unit carrying the range (`zone map`).
        what: &'static str,
    },
    /// A count field is larger than the bytes that would carry the
    /// counted items.
    ImplausibleCount {
        /// What was counted (`case`, `event`, `block`, `string`).
        what: &'static str,
    },
    /// A call column carried a tag that names no known syscall.
    UnknownCallTag {
        /// The offending tag byte.
        tag: u8,
    },
    /// A symbol reference points outside the string table.
    SymbolOutOfRange {
        /// The referenced symbol index.
        symbol: u64,
        /// Number of strings actually in the table.
        strings: usize,
    },
    /// A string-table entry is not valid UTF-8.
    NonUtf8String,
    /// A block directory entry's event count and column lengths
    /// disagree with each other.
    BlockEntryInconsistent,
    /// A case directory entry's event count disagrees with the sum of
    /// its blocks.
    CaseEventsMismatch,
    /// Block extents in the directory are not laid out back-to-back.
    NonContiguousBlocks,
    /// The directory's block extents do not cover the blocks section
    /// exactly.
    DirectoryCoverage {
        /// Byte length of the blocks section.
        expected: u64,
        /// Bytes the directory's extents actually cover.
        got: u64,
    },
    /// A block extent reaches outside the blocks section.
    BlockOutOfBounds {
        /// The block's claimed byte offset.
        offset: u64,
        /// The block's claimed byte length.
        len: u32,
        /// Byte length of the blocks section.
        blocks_len: u64,
    },
    /// A column segment reaches outside its block body.
    SegmentOutOfBounds,
    /// A seek (out-of-core) open was requested on a v1 container (v1
    /// has no block directory to seek through).
    V1Seek,
    /// A case's events were not start-sorted at write time.
    UnsortedCase {
        /// The case's `cid_host_rid` label.
        label: String,
    },
}

impl fmt::Display for CorruptKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CorruptKind::TruncatedSection { section } => write!(f, "truncated {section} section"),
            CorruptKind::SectionTooLarge { section } => {
                write!(f, "{section} section exceeds usize")
            }
            CorruptKind::Truncated { what } => write!(f, "truncated {what}"),
            CorruptKind::TrailingBytes { after } => write!(f, "trailing bytes after {after}"),
            CorruptKind::VarintOverflow => write!(f, "varint overflows u64"),
            CorruptKind::VarintTooLong => write!(f, "varint too long"),
            CorruptKind::ValueOverflow { what, ty } => write!(f, "{what} exceeds {ty}"),
            CorruptKind::RangeOverflow { what } => write!(f, "{what} range overflows"),
            CorruptKind::ImplausibleCount { what } => write!(f, "implausible {what} count"),
            CorruptKind::UnknownCallTag { tag } => write!(f, "unknown call tag {tag}"),
            CorruptKind::SymbolOutOfRange { symbol, strings } => {
                write!(f, "symbol {symbol} out of range ({strings} strings)")
            }
            CorruptKind::NonUtf8String => write!(f, "non-UTF-8 string"),
            CorruptKind::BlockEntryInconsistent => {
                write!(f, "block directory entry is inconsistent")
            }
            CorruptKind::CaseEventsMismatch => {
                write!(f, "case event count disagrees with its blocks")
            }
            CorruptKind::NonContiguousBlocks => write!(f, "non-contiguous block layout"),
            CorruptKind::DirectoryCoverage { .. } => {
                write!(f, "directory does not cover the blocks section")
            }
            CorruptKind::BlockOutOfBounds { .. } => write!(f, "block extent out of bounds"),
            CorruptKind::SegmentOutOfBounds => write!(f, "column segment out of bounds"),
            CorruptKind::V1Seek => write!(
                f,
                "seek reader requires a v2 container (v1 has no block directory)"
            ),
            CorruptKind::UnsortedCase { label } => {
                write!(f, "case {label} is not start-sorted; sort before storing")
            }
        }
    }
}

impl From<CorruptKind> for StoreError {
    fn from(kind: CorruptKind) -> StoreError {
        StoreError::Corrupt(kind)
    }
}

/// Errors reading or writing the event-log container.
#[derive(Debug)]
pub enum StoreError {
    /// Filesystem error.
    Io {
        /// File involved.
        path: PathBuf,
        /// Underlying error.
        source: std::io::Error,
    },
    /// The file does not start with an `STLOG` magic.
    BadMagic,
    /// The container was written by a format version this build cannot
    /// read (anything other than v1 and v2 — e.g. a v3+ file produced
    /// by a newer tool).
    UnsupportedVersion(u32),
    /// Structurally invalid data (truncated varint, out-of-range symbol,
    /// impossible count, inconsistent block directory).
    Corrupt(CorruptKind),
    /// A section's or block's CRC-32 does not match its contents.
    ChecksumMismatch {
        /// Which unit failed (`strings`, `cases`, `directory` or
        /// `block`).
        section: &'static str,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io { path, source } => {
                write!(f, "i/o error on {}: {source}", path.display())
            }
            StoreError::BadMagic => write!(f, "not an st-store container (bad magic)"),
            StoreError::UnsupportedVersion(v) => write!(
                f,
                "unsupported container version {v} (this build reads STLOG v1 and v2)"
            ),
            StoreError::Corrupt(kind) => write!(f, "corrupt container: {kind}"),
            StoreError::ChecksumMismatch { section } => {
                write!(f, "checksum mismatch in {section} section")
            }
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corrupt_kind_display_matches_legacy_messages() {
        // CLI output and golden tests pin these exact strings; the
        // structured refactor must not change them.
        for (kind, msg) in [
            (
                CorruptKind::TruncatedSection { section: "strings" },
                "truncated strings section",
            ),
            (
                CorruptKind::Truncated { what: "varint" },
                "truncated varint",
            ),
            (CorruptKind::VarintOverflow, "varint overflows u64"),
            (CorruptKind::VarintTooLong, "varint too long"),
            (
                CorruptKind::ValueOverflow {
                    what: "pid",
                    ty: "u32",
                },
                "pid exceeds u32",
            ),
            (
                CorruptKind::RangeOverflow { what: "zone map" },
                "zone map range overflows",
            ),
            (
                CorruptKind::ImplausibleCount { what: "case" },
                "implausible case count",
            ),
            (
                CorruptKind::UnknownCallTag { tag: 0xEE },
                "unknown call tag 238",
            ),
            (
                CorruptKind::SymbolOutOfRange {
                    symbol: 9,
                    strings: 3,
                },
                "symbol 9 out of range (3 strings)",
            ),
            (
                CorruptKind::DirectoryCoverage {
                    expected: 10,
                    got: 4,
                },
                "directory does not cover the blocks section",
            ),
            (
                CorruptKind::BlockOutOfBounds {
                    offset: 8,
                    len: 100,
                    blocks_len: 50,
                },
                "block extent out of bounds",
            ),
            (
                CorruptKind::TrailingBytes { after: "blocks" },
                "trailing bytes after blocks",
            ),
        ] {
            assert_eq!(kind.to_string(), msg);
            assert_eq!(
                StoreError::from(kind).to_string(),
                format!("corrupt container: {msg}")
            );
        }
    }
}
