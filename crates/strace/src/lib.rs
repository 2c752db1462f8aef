//! # st-strace — parser and writer for `strace` trace files
//!
//! The paper (Sec. III) records system-call traces with
//!
//! ```text
//! srun -n 3 strace -o a_$(hostname)_$$.st -f -e read,write -tt -T -y ls
//! ```
//!
//! producing one text file per MPI process. This crate turns those files
//! back into the [`st_model`] event model:
//!
//! * [`record`] — the one-pass byte cursor that classifies and parses a
//!   *single* trace line (complete call, `<unfinished ...>`,
//!   `<... resumed>`, signal stop, exit marker) into slices of the line,
//!   with the arguments in a scratch vector the caller reuses, so a
//!   line allocates nothing;
//! * [`scan`] — the cursor's argument stage, which respects quoted
//!   strings, `fd<path>` annotations, struct/array braces and truncation
//!   ellipses;
//! * [`parser`] — whole-file assembly: merging unfinished/resumed pairs
//!   by pid (Fig. 2c), dropping `ERESTARTSYS`-interrupted calls, sorting
//!   by start timestamp. [`parser::parse_par`] runs the same assembly as
//!   a chunked parallel pipeline (split at line boundaries, thread-local
//!   interning, deterministic merge) with output identical to
//!   [`parser::parse_str`], and [`parser::StreamParser`] feeds it one
//!   line at a time for live ingest;
//! * [`loader`] — loading a directory of `<cid>_<host>_<rid>.st` files
//!   into one [`st_model::EventLog`], parallelizing across files (output
//!   identical to a sequential load, symbol ids included) and — when
//!   files are fewer than workers — across chunks within a file;
//! * [`writer`] — the inverse: emitting events as authentic strace text,
//!   used by the simulator substrate and by round-trip property tests.
//!
//! The parser is tolerant by design: unknown syscalls are kept (interned
//! name), unparsable lines are surfaced as [`Warning`]s instead of
//! aborting the load, matching how the paper treats real-world traces.

#![warn(missing_docs)]

pub mod error;
pub mod loader;
pub mod parser;
pub mod record;
pub mod scan;
pub mod writer;

pub use error::{StraceError, Warning, WARNING_CAP};
pub use loader::{load_dir, load_files, LoadOptions};
pub use parser::{parse_par, parse_reader, parse_str, ParsedTrace, StreamParser};
pub use record::{Line, ParsedCall, ReturnValue};
pub use writer::{write_case, write_log_to_dir, WriteOptions};
