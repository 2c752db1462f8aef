//! Emitting events as authentic strace text.
//!
//! This is the inverse of [`crate::parser`]: the simulator substrate uses
//! it to materialize trace files in the exact format the paper's Fig. 1
//! commands would produce, and the property tests use it to check
//! `parse(write(events)) == events`.
//!
//! When two adjacent events of *different* pids overlap in time (an SMT /
//! multi-threaded trace captured with `-f` into one file), the earlier
//! call is split into an `<unfinished ...>` / `<... resumed>` pair, the
//! interleaving shown in Fig. 2c.

use std::collections::HashMap;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

use st_model::{Case, Event, EventLog, Interner, Micros, Symbol, Syscall};

/// Options controlling trace emission.
#[derive(Debug, Clone)]
pub struct WriteOptions {
    /// Append the `+++ exited with 0 +++` marker after the last event.
    pub emit_exit_line: bool,
    /// Split calls that overlap a different pid's call into
    /// unfinished/resumed pairs (Fig. 2c). When `false`, every record is
    /// emitted complete at its start time.
    pub split_overlapping: bool,
}

impl Default for WriteOptions {
    fn default() -> Self {
        WriteOptions {
            emit_exit_line: true,
            split_overlapping: true,
        }
    }
}

/// Allocates stable descriptor numbers per path, mimicking how a real
/// process reuses fd slots (first file gets 3, and so on).
#[derive(Default)]
struct FdAlloc(HashMap<Symbol, u32>);

impl FdAlloc {
    fn fd(&mut self, path: Symbol) -> u32 {
        let next = 3 + self.0.len() as u32;
        *self.0.entry(path).or_insert(next)
    }
}

/// Writes one case as a trace file body.
pub fn write_case<W: Write>(
    case: &Case,
    interner: &Interner,
    out: &mut W,
    opts: &WriteOptions,
) -> io::Result<()> {
    let mut fds = FdAlloc::default();
    // (timestamp, sequence, text) records; sequence keeps emission stable
    // for equal stamps.
    let mut records: Vec<(Micros, usize, String)> = Vec::with_capacity(case.events.len() + 1);
    let mut seq = 0usize;
    let events = &case.events;
    for (i, ev) in events.iter().enumerate() {
        let overlaps_next = opts.split_overlapping
            && events
                .get(i + 1)
                .is_some_and(|next| next.start < ev.end() && next.pid != ev.pid);
        if overlaps_next {
            let (unfinished, resumed) = format_split(ev, interner, &mut fds);
            records.push((ev.start, seq, unfinished));
            seq += 1;
            records.push((ev.end(), seq, resumed));
        } else {
            records.push((ev.start, seq, format_complete(ev, interner, &mut fds)));
        }
        seq += 1;
    }
    records.sort_by_key(|(t, s, _)| (*t, *s));
    for (_, _, line) in &records {
        writeln!(out, "{line}")?;
    }
    if opts.emit_exit_line {
        let last_end = events.iter().map(Event::end).max().unwrap_or(Micros::ZERO);
        let pid = events.first().map(|e| e.pid.0).unwrap_or(case.meta.rid);
        writeln!(
            out,
            "{pid}  {} +++ exited with 0 +++",
            (last_end + Micros(100)).format_time_of_day()
        )?;
    }
    Ok(())
}

/// Writes every case of `log` into `dir`, one file per case named with
/// the Fig. 1 convention (`<cid>_<host>_<rid>.st`). Returns the paths
/// written.
pub fn write_log_to_dir(
    log: &EventLog,
    dir: &Path,
    opts: &WriteOptions,
) -> io::Result<Vec<PathBuf>> {
    std::fs::create_dir_all(dir)?;
    let interner = log.interner();
    let mut paths = Vec::with_capacity(log.case_count());
    for case in log.cases() {
        let path = dir.join(case.meta.trace_file_name(interner));
        let mut file = io::BufWriter::new(std::fs::File::create(&path)?);
        write_case(case, interner, &mut file, opts)?;
        file.flush()?;
        paths.push(path);
    }
    Ok(paths)
}

fn prefix(ev: &Event) -> String {
    format!("{}  {}", ev.pid.0, ev.start.format_time_of_day())
}

fn buffer_arg(ev: &Event) -> &'static str {
    match ev.size {
        Some(0) => "\"\"",
        _ => "\"...\"...",
    }
}

fn dur_suffix(ev: &Event) -> String {
    format!(" <{}>", ev.dur.format_duration())
}

/// Formats a complete record for `ev`.
fn format_complete(ev: &Event, interner: &Interner, fds: &mut FdAlloc) -> String {
    let path = interner.resolve(ev.path);
    let fd = fds.fd(ev.path);
    let head = prefix(ev);
    let dur = dur_suffix(ev);
    match ev.call {
        Syscall::Read | Syscall::Write | Syscall::Readv | Syscall::Writev => {
            let req = ev.requested.or(ev.size).unwrap_or(0);
            let ret = ret_str(ev);
            format!(
                "{head} {}({fd}<{path}>, {}, {req}) = {ret}{dur}",
                call_name(ev, interner),
                buffer_arg(ev)
            )
        }
        Syscall::Pread64 | Syscall::Pwrite64 | Syscall::Preadv | Syscall::Pwritev => {
            let req = ev.requested.or(ev.size).unwrap_or(0);
            let off = ev.offset.unwrap_or(0);
            let ret = ret_str(ev);
            format!(
                "{head} {}({fd}<{path}>, {}, {req}, {off}) = {ret}{dur}",
                call_name(ev, interner),
                buffer_arg(ev)
            )
        }
        Syscall::Openat => {
            if ev.ok {
                format!(
                    "{head} openat(AT_FDCWD, \"{path}\", O_RDONLY|O_CLOEXEC) = {fd}<{path}>{dur}"
                )
            } else {
                format!(
                    "{head} openat(AT_FDCWD, \"{path}\", O_RDONLY|O_CLOEXEC) = -1 ENOENT (No such file or directory){dur}"
                )
            }
        }
        Syscall::Open => {
            if ev.ok {
                format!("{head} open(\"{path}\", O_RDONLY) = {fd}<{path}>{dur}")
            } else {
                format!(
                    "{head} open(\"{path}\", O_RDONLY) = -1 ENOENT (No such file or directory){dur}"
                )
            }
        }
        Syscall::Lseek => {
            let off = ev.offset.unwrap_or(0);
            format!("{head} lseek({fd}<{path}>, {off}, SEEK_SET) = {off}{dur}")
        }
        Syscall::Fsync | Syscall::Fdatasync | Syscall::Close | Syscall::Ftruncate => {
            format!("{head} {}({fd}<{path}>) = 0{dur}", call_name(ev, interner))
        }
        _ => {
            // Generic shape for stat-like and unknown calls: keep the fd
            // annotation so the path survives a round trip.
            format!("{head} {}({fd}<{path}>) = 0{dur}", call_name(ev, interner))
        }
    }
}

/// Formats an `<unfinished ...>` / `<... resumed>` pair for `ev`.
fn format_split(ev: &Event, interner: &Interner, fds: &mut FdAlloc) -> (String, String) {
    let path = interner.resolve(ev.path);
    let fd = fds.fd(ev.path);
    let head = prefix(ev);
    let name = call_name(ev, interner);
    let resumed_head = format!("{}  {}", ev.pid.0, ev.end().format_time_of_day());
    let dur = dur_suffix(ev);
    match ev.call {
        Syscall::Read | Syscall::Write | Syscall::Readv | Syscall::Writev => {
            let req = ev.requested.or(ev.size).unwrap_or(0);
            let ret = ret_str(ev);
            (
                format!("{head} {name}({fd}<{path}>, <unfinished ...>"),
                format!(
                    "{resumed_head} <... {name} resumed> {}, {req}) = {ret}{dur}",
                    buffer_arg(ev)
                ),
            )
        }
        Syscall::Pread64 | Syscall::Pwrite64 | Syscall::Preadv | Syscall::Pwritev => {
            let req = ev.requested.or(ev.size).unwrap_or(0);
            let off = ev.offset.unwrap_or(0);
            let ret = ret_str(ev);
            (
                format!("{head} {name}({fd}<{path}>, <unfinished ...>"),
                format!(
                    "{resumed_head} <... {name} resumed> {}, {req}, {off}) = {ret}{dur}",
                    buffer_arg(ev)
                ),
            )
        }
        Syscall::Openat => {
            let ret = if ev.ok {
                format!("{fd}<{path}>")
            } else {
                "-1 ENOENT (No such file or directory)".to_string()
            };
            (
                format!("{head} openat(AT_FDCWD, \"{path}\", <unfinished ...>"),
                format!("{resumed_head} <... openat resumed> O_RDONLY|O_CLOEXEC) = {ret}{dur}"),
            )
        }
        _ => (
            format!("{head} {name}({fd}<{path}>, <unfinished ...>"),
            format!("{resumed_head} <... {name} resumed> ) = 0{dur}"),
        ),
    }
}

fn ret_str(ev: &Event) -> String {
    if ev.ok {
        ev.size.unwrap_or(0).to_string()
    } else {
        "-1 EIO (Input/output error)".to_string()
    }
}

fn call_name(ev: &Event, interner: &Interner) -> String {
    ev.call.name(interner).into_owned()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_str;
    use st_model::{CaseMeta, Pid};
    use std::sync::Arc;

    fn build_case(interner: &Interner) -> Case {
        let meta = CaseMeta {
            cid: interner.intern("a"),
            host: interner.intern("host1"),
            rid: 9042,
        };
        let p_lib = interner.intern("/usr/lib/x86_64-linux-gnu/libc.so.6");
        let p_tty = interner.intern("/dev/pts/7");
        let events = vec![
            Event::new(Pid(9054), Syscall::Openat, Micros(1_000), Micros(12), p_lib),
            Event::new(Pid(9054), Syscall::Read, Micros(2_000), Micros(203), p_lib)
                .with_size(832)
                .with_requested(832),
            Event::new(Pid(9054), Syscall::Read, Micros(3_000), Micros(40), p_lib)
                .with_size(0)
                .with_requested(1024),
            Event::new(Pid(9054), Syscall::Lseek, Micros(4_000), Micros(4), p_lib)
                .with_offset(16_777_216),
            Event::new(
                Pid(9054),
                Syscall::Pwrite64,
                Micros(5_000),
                Micros(300),
                p_tty,
            )
            .with_size(1_048_576)
            .with_requested(1_048_576)
            .with_offset(33_554_432),
            Event::new(Pid(9054), Syscall::Fsync, Micros(6_000), Micros(900), p_tty),
            Event::new(Pid(9054), Syscall::Close, Micros(7_000), Micros(3), p_tty),
            Event::new(
                Pid(9054),
                Syscall::Openat,
                Micros(8_000),
                Micros(7),
                interner.intern("/opt/missing/lib.so"),
            )
            .failed(),
        ];
        Case::from_events(meta, events)
    }

    #[test]
    fn writes_parsable_text() {
        let i = Interner::new();
        let case = build_case(&i);
        let mut buf = Vec::new();
        write_case(&case, &i, &mut buf, &WriteOptions::default()).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let parsed = parse_str(&text, &i);
        assert!(parsed.warnings.is_empty(), "{:?}\n{text}", parsed.warnings);
        assert_eq!(parsed.events.len(), case.events.len());
    }

    #[test]
    fn roundtrip_preserves_attributes() {
        let i = Interner::new();
        let case = build_case(&i);
        let mut buf = Vec::new();
        write_case(&case, &i, &mut buf, &WriteOptions::default()).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let parsed = parse_str(&text, &i);
        for (orig, back) in case.events.iter().zip(&parsed.events) {
            assert_eq!(orig.pid, back.pid);
            assert_eq!(orig.call, back.call);
            assert_eq!(orig.start, back.start);
            assert_eq!(orig.dur, back.dur);
            assert_eq!(orig.path, back.path, "path changed");
            assert_eq!(orig.size, back.size);
            assert_eq!(orig.ok, back.ok);
        }
        // Offsets survive for offset-carrying calls.
        assert_eq!(parsed.events[3].offset, Some(16_777_216));
        assert_eq!(parsed.events[4].offset, Some(33_554_432));
    }

    #[test]
    fn overlapping_events_emit_unfinished_resumed() {
        let i = Interner::new();
        let meta = CaseMeta {
            cid: i.intern("a"),
            host: i.intern("h"),
            rid: 1,
        };
        let p = i.intern("/data/x");
        // Two pids; the first call spans the second's start.
        let events = vec![
            Event::new(Pid(10), Syscall::Read, Micros(100), Micros(500), p)
                .with_size(404)
                .with_requested(405),
            Event::new(Pid(11), Syscall::Read, Micros(300), Micros(10), p)
                .with_size(100)
                .with_requested(100),
        ];
        let case = Case::from_events(meta, events);
        let mut buf = Vec::new();
        write_case(&case, &i, &mut buf, &WriteOptions::default()).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("<unfinished ...>"), "{text}");
        assert!(text.contains("<... read resumed>"), "{text}");
        // And the parser reassembles the original two events.
        let parsed = parse_str(&text, &i);
        assert!(parsed.warnings.is_empty(), "{:?}", parsed.warnings);
        assert_eq!(parsed.events.len(), 2);
        let merged = parsed.events.iter().find(|e| e.pid == Pid(10)).unwrap();
        assert_eq!(merged.start, Micros(100));
        assert_eq!(merged.dur, Micros(500));
        assert_eq!(merged.size, Some(404));
    }

    #[test]
    fn no_split_when_disabled() {
        let i = Interner::new();
        let meta = CaseMeta {
            cid: i.intern("a"),
            host: i.intern("h"),
            rid: 1,
        };
        let p = i.intern("/data/x");
        let events = vec![
            Event::new(Pid(10), Syscall::Read, Micros(100), Micros(500), p).with_size(1),
            Event::new(Pid(11), Syscall::Read, Micros(300), Micros(10), p).with_size(1),
        ];
        let case = Case::from_events(meta, events);
        let mut buf = Vec::new();
        let opts = WriteOptions {
            split_overlapping: false,
            ..Default::default()
        };
        write_case(&case, &i, &mut buf, &opts).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(!text.contains("unfinished"), "{text}");
    }

    #[test]
    fn exit_line_toggle() {
        let i = Interner::new();
        let case = build_case(&i);
        let mut with = Vec::new();
        write_case(&case, &i, &mut with, &WriteOptions::default()).unwrap();
        assert!(String::from_utf8(with)
            .unwrap()
            .contains("+++ exited with 0 +++"));
        let mut without = Vec::new();
        let opts = WriteOptions {
            emit_exit_line: false,
            ..Default::default()
        };
        write_case(&case, &i, &mut without, &opts).unwrap();
        assert!(!String::from_utf8(without).unwrap().contains("exited"));
    }

    #[test]
    fn write_log_to_dir_uses_fig1_names() {
        let i = Interner::new_shared();
        let mut log = EventLog::new(Arc::clone(&i));
        log.push_case(build_case(&i));
        let dir = std::env::temp_dir().join(format!("st-strace-wtest-{}", std::process::id()));
        let paths = write_log_to_dir(&log, &dir, &WriteOptions::default()).unwrap();
        assert_eq!(paths.len(), 1);
        assert!(paths[0].file_name().unwrap().to_str().unwrap() == "a_host1_9042.st");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
