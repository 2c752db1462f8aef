//! The structured warning channel.
//!
//! Loading real traces produces non-fatal oddities (unparsable lines,
//! never-resumed calls) and the planner occasionally has something to
//! say about an option that cannot take effect on the chosen route.
//! Those used to leave the pipeline as ad-hoc `eprintln!` calls deep in
//! the CLI; the session API collects them as values instead, so
//! library callers can log, assert on, or ignore them, and the CLI
//! renders them in one place.

use std::fmt;
use std::path::PathBuf;

/// A non-fatal observation made while opening or materializing a
/// source.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SourceWarning {
    /// A trace-parse oddity, attributed to the file it came from.
    Trace {
        /// The trace file the parser was reading.
        file: PathBuf,
        /// What the parser observed.
        warning: st_strace::Warning,
    },
    /// A container block quarantined by a salvage-mode open
    /// ([`st_store::open_salvage_seek`]): its events are absent from the
    /// session's log.
    Store {
        /// The container the block was lost from.
        path: PathBuf,
        /// Which block, how many events, and why.
        loss: st_store::BlockLoss,
    },
    /// A planning note: an option or request that the chosen evaluation
    /// route cannot honor (reported rather than silently ignored).
    Note(String),
}

impl fmt::Display for SourceWarning {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SourceWarning::Trace { file, warning } => {
                write!(f, "{}: {warning}", file.display())
            }
            SourceWarning::Store { path, loss } => {
                write!(f, "{}: salvage: {loss}", path.display())
            }
            SourceWarning::Note(note) => write!(f, "{note}"),
        }
    }
}
