//! Single-line record grammar for `strace -f -tt -T -y` output.
//!
//! A trace file interleaves five record shapes (Fig. 2):
//!
//! ```text
//! 9054  08:55:54.153994 read(3</usr/...>, "...", 832) = 832 <0.000203>   complete call
//! 77423 16:56:40.452431 read(3</usr/...>, <unfinished ...>               call cut by a context switch
//! 77423 16:56:40.452660 <... read resumed> ..., 405) = 404 <0.000223>    its completion
//! 9054  08:55:54.200000 --- SIGCHLD {si_signo=SIGCHLD, ...} ---          signal stop
//! 9054  08:55:54.300000 +++ exited with 0 +++                            process exit
//! ```
//!
//! The pid column is present because of `-f`; records from traces taken
//! without `-f` (no pid column) are also accepted. Return values come in
//! several shapes: plain numbers, `-y`-annotated descriptors
//! (`3</path>`), hex addresses, `-1 ENOENT (No such file or directory)`,
//! and `?` for detached calls.

use st_model::Micros;

use crate::scan::{self, ScannedArgs};

/// A classified trace line, borrowing from the input.
#[derive(Debug, PartialEq)]
pub enum Line<'a> {
    /// A complete system call record.
    Call(ParsedCall<'a>),
    /// A call whose record was interrupted (`<unfinished ...>`).
    Unfinished {
        /// Pid column (None when traced without `-f`).
        pid: Option<u32>,
        /// Start timestamp.
        start: Micros,
        /// Syscall name.
        name: &'a str,
        /// Arguments recorded before the interruption.
        args: Vec<&'a str>,
    },
    /// The completion of an earlier unfinished call
    /// (`<... name resumed> ...`).
    Resumed {
        /// Pid column.
        pid: Option<u32>,
        /// Timestamp of the *resumption* (not the call start).
        time: Micros,
        /// Syscall name, must match the unfinished record.
        name: &'a str,
        /// Remaining arguments.
        args: Vec<&'a str>,
        /// Return value.
        ret: ReturnValue<'a>,
        /// Call duration (`-T`), covering the full call.
        dur: Option<Micros>,
    },
    /// A call interrupted with `ERESTARTSYS`; ignored per Sec. III.
    Restarted,
    /// A signal-stop record (`--- SIG... ---`).
    Signal,
    /// A process exit record (`+++ exited with N +++`).
    Exit {
        /// Pid column.
        pid: Option<u32>,
        /// Exit code when parseable.
        code: Option<i32>,
    },
    /// Blank line.
    Empty,
}

/// A complete call record.
#[derive(Debug, PartialEq)]
pub struct ParsedCall<'a> {
    /// Pid column (None when traced without `-f`).
    pub pid: Option<u32>,
    /// Start timestamp (`-tt`).
    pub start: Micros,
    /// Syscall name as spelled by strace.
    pub name: &'a str,
    /// Top-level argument slices.
    pub args: Vec<&'a str>,
    /// Return value.
    pub ret: ReturnValue<'a>,
    /// Call duration (`-T`).
    pub dur: Option<Micros>,
}

/// The parsed `= ...` tail of a call record.
#[derive(Debug, PartialEq, Clone, Copy)]
pub enum ReturnValue<'a> {
    /// Plain numeric return (`= 832`).
    Num(i64),
    /// Numeric return with `-y` annotation (`= 3</path>`): the fd value
    /// and the annotation contents.
    NumAnnotated(i64, &'a str),
    /// Hex return (`= 0x7f2c4a000000`).
    Hex(u64),
    /// Failure (`= -1 ENOENT (No such file or directory)`).
    Error {
        /// The numeric return (normally -1).
        code: i64,
        /// The errno symbol (`ENOENT`).
        name: &'a str,
    },
    /// Unknown return (`= ?`, detached processes).
    Unknown,
}

impl<'a> ReturnValue<'a> {
    /// The numeric return value, if the call produced one.
    pub fn value(&self) -> Option<i64> {
        match self {
            ReturnValue::Num(v) | ReturnValue::NumAnnotated(v, _) => Some(*v),
            ReturnValue::Hex(v) => Some(*v as i64),
            ReturnValue::Error { code, .. } => Some(*code),
            ReturnValue::Unknown => None,
        }
    }

    /// Whether the record represents a failed call.
    pub fn is_error(&self) -> bool {
        matches!(self, ReturnValue::Error { .. })
    }

    /// The path annotation on the return value, when present and
    /// path-like.
    pub fn annotation_path(&self) -> Option<&'a str> {
        match self {
            ReturnValue::NumAnnotated(_, ann)
                if !ann.starts_with("socket:")
                    && !ann.starts_with("pipe:")
                    && !ann.starts_with("anon_inode:") =>
            {
                Some(ann)
            }
            _ => None,
        }
    }
}

/// Parses one trace line. Returns `None` for lines that match no known
/// record shape (the caller converts that into a warning).
pub fn parse_line(line: &str) -> Option<Line<'_>> {
    let trimmed = line.trim_end();
    if trimmed.trim().is_empty() {
        return Some(Line::Empty);
    }

    let mut rest = trimmed;

    // Optional pid column: digits followed by whitespace.
    let pid = match rest.split_whitespace().next() {
        Some(tok) if !tok.is_empty() && tok.bytes().all(|b| b.is_ascii_digit()) => {
            let pid: u32 = tok.parse().ok()?;
            rest = rest[rest.find(tok).unwrap() + tok.len()..].trim_start();
            Some(pid)
        }
        _ => None,
    };

    // Mandatory timestamp column (-tt).
    let ts_tok = rest.split_whitespace().next()?;
    let start = Micros::parse_time_of_day(ts_tok)?;
    rest = rest[rest.find(ts_tok).unwrap() + ts_tok.len()..].trim_start();

    if let Some(exit) = rest.strip_prefix("+++") {
        let code = exit
            .trim()
            .strip_prefix("exited with")
            .and_then(|s| s.split_whitespace().next())
            .and_then(|s| s.parse().ok());
        return Some(Line::Exit { pid, code });
    }

    if rest.starts_with("---") {
        return Some(Line::Signal);
    }

    if let Some(resumed) = rest.strip_prefix("<... ") {
        let name_end = resumed.find(" resumed>")?;
        let name = &resumed[..name_end];
        let tail = &resumed[name_end + " resumed>".len()..];
        // The tail is the continuation of the argument list; it may begin
        // mid-args (", 405) = 404 <0.000223>") or at the closing paren.
        let scanned = scan_continuation(tail)?;
        let after = &tail[scanned.after..];
        let (ret, errno, dur) = parse_return(after)?;
        if errno == Some(RESTARTED) {
            return Some(Line::Restarted);
        }
        return Some(Line::Resumed {
            pid,
            time: start,
            name,
            args: scanned.args,
            ret,
            dur,
        });
    }

    // Ordinary call: NAME(args...) = ret <dur>   |   NAME(args <unfinished ...>
    let open = rest.find('(')?;
    let name = &rest[..open];
    if name.is_empty()
        || !name
            .bytes()
            .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'_')
    {
        return None;
    }
    let scanned = scan::split_args(rest, open + 1)?;
    if scanned.unfinished {
        return Some(Line::Unfinished {
            pid,
            start,
            name,
            args: scanned.args,
        });
    }
    let after = &rest[scanned.after..];
    let (ret, errno, dur) = parse_return(after)?;
    if errno == Some(RESTARTED) {
        return Some(Line::Restarted);
    }
    Some(Line::Call(ParsedCall {
        pid,
        start,
        name,
        args: scanned.args,
        ret,
        dur,
    }))
}

/// Scans a resumed-record continuation, which is an argument list that is
/// already inside the parentheses.
fn scan_continuation(tail: &str) -> Option<ScannedArgs<'_>> {
    // Delegate to split_args starting at offset 0 of the tail; it stops at
    // the matching top-level ')'.
    scan::split_args(tail, 0)
}

/// The errno of an interrupted call; the Sec. III rule ignores such
/// records.
const RESTARTED: &str = "ERESTARTSYS";

/// Parses the `= ret [ERRNO (message)] [<dur>]` tail after the closing
/// parenthesis. The errno token is returned on its own as well, because
/// a `?` return has no numeric value to carry it.
fn parse_return(s: &str) -> Option<(ReturnValue<'_>, Option<&str>, Option<Micros>)> {
    let s = s.trim_start();
    let s = s.strip_prefix('=')?;
    let s = s.trim_start();

    let (ret, rest) = if let Some(hex) = s.strip_prefix("0x") {
        let end = hex
            .bytes()
            .position(|b| !b.is_ascii_hexdigit())
            .unwrap_or(hex.len());
        let val = u64::from_str_radix(&hex[..end], 16).ok()?;
        (ReturnValue::Hex(val), &hex[end..])
    } else if let Some(rest) = s.strip_prefix('?') {
        (ReturnValue::Unknown, rest)
    } else {
        let negative = s.starts_with('-');
        let digits = if negative { &s[1..] } else { s };
        let end = digits
            .bytes()
            .position(|b| !b.is_ascii_digit())
            .unwrap_or(digits.len());
        if end == 0 {
            return None;
        }
        let mut val: i64 = digits[..end].parse().ok()?;
        if negative {
            val = -val;
        }
        let rest = &digits[end..];
        // Annotation glued to the number: `3</path>`.
        if let Some(ann_rest) = rest.strip_prefix('<') {
            let close = ann_rest.find('>')?;
            (
                ReturnValue::NumAnnotated(val, &ann_rest[..close]),
                &ann_rest[close + 1..],
            )
        } else {
            (ReturnValue::Num(val), rest)
        }
    };

    let mut rest = rest.trim_start();

    // Optional errno symbol + message: `ENOENT (No such file or directory)`.
    let mut ret = ret;
    let mut errno = None;
    if rest.chars().next().is_some_and(|c| c.is_ascii_uppercase()) {
        let end = rest
            .bytes()
            .position(|b| !(b.is_ascii_uppercase() || b.is_ascii_digit()))
            .unwrap_or(rest.len());
        let name = &rest[..end];
        errno = Some(name);
        if let Some(code) = ret.value() {
            ret = ReturnValue::Error { code, name };
        }
        rest = rest[end..].trim_start();
        if let Some(msg) = rest.strip_prefix('(') {
            let close = msg.find(')')?;
            rest = msg[close + 1..].trim_start();
        }
    }

    // Optional duration `<0.000203>` at the end.
    let dur = if let Some(d) = rest.strip_prefix('<') {
        let close = d.find('>')?;
        Some(Micros::parse_duration(&d[..close])?)
    } else {
        None
    };

    Some((ret, errno, dur))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_fig2a_complete_read() {
        let line = "9054  08:55:54.153994 read(3</usr/lib/x86_64-linux-gnu/libselinux.so.1>, \"...\", 832) = 832 <0.000203>";
        match parse_line(line).unwrap() {
            Line::Call(c) => {
                assert_eq!(c.pid, Some(9054));
                assert_eq!(
                    c.start,
                    Micros::parse_time_of_day("08:55:54.153994").unwrap()
                );
                assert_eq!(c.name, "read");
                assert_eq!(c.args[0], "3</usr/lib/x86_64-linux-gnu/libselinux.so.1>");
                assert_eq!(c.args[2], "832");
                assert_eq!(c.ret, ReturnValue::Num(832));
                assert_eq!(c.dur, Some(Micros(203)));
            }
            other => panic!("expected Call, got {other:?}"),
        }
    }

    #[test]
    fn parses_eof_read_with_empty_buffer() {
        let line = "9054  08:55:54.163049 read(3</proc/filesystems>, \"\", 1024) = 0 <0.000040>";
        match parse_line(line).unwrap() {
            Line::Call(c) => {
                assert_eq!(c.ret, ReturnValue::Num(0));
                assert_eq!(c.args[1], "\"\"");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_openat_with_annotated_return() {
        let line = "123 10:00:00.000001 openat(AT_FDCWD, \"/etc/passwd\", O_RDONLY|O_CLOEXEC) = 3</etc/passwd> <0.000012>";
        match parse_line(line).unwrap() {
            Line::Call(c) => {
                assert_eq!(c.name, "openat");
                assert_eq!(c.ret, ReturnValue::NumAnnotated(3, "/etc/passwd"));
                assert_eq!(c.ret.annotation_path(), Some("/etc/passwd"));
                assert_eq!(c.dur, Some(Micros(12)));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_failed_openat() {
        let line = "123 10:00:00.000001 openat(AT_FDCWD, \"/opt/x/libfoo.so\", O_RDONLY|O_CLOEXEC) = -1 ENOENT (No such file or directory) <0.000007>";
        match parse_line(line).unwrap() {
            Line::Call(c) => {
                assert_eq!(
                    c.ret,
                    ReturnValue::Error {
                        code: -1,
                        name: "ENOENT"
                    }
                );
                assert!(c.ret.is_error());
                assert_eq!(c.dur, Some(Micros(7)));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_unfinished_fig2c() {
        let line = "77423  16:56:40.452431 read(3</usr/lib/x86_64-linux-gnu/libselinux.so.1>, <unfinished ...>";
        match parse_line(line).unwrap() {
            Line::Unfinished {
                pid, name, args, ..
            } => {
                assert_eq!(pid, Some(77423));
                assert_eq!(name, "read");
                assert_eq!(args.len(), 1);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_resumed_fig2c() {
        let line = "77423  16:56:40.452660 <... read resumed> \"...\", 405) = 404 <0.000223>";
        match parse_line(line).unwrap() {
            Line::Resumed {
                pid,
                name,
                args,
                ret,
                dur,
                ..
            } => {
                assert_eq!(pid, Some(77423));
                assert_eq!(name, "read");
                assert_eq!(args, vec!["\"...\"", "405"]);
                assert_eq!(ret, ReturnValue::Num(404));
                assert_eq!(dur, Some(Micros(223)));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_resumed_with_bare_ellipsis() {
        // The paper prints the resumed buffer as a bare `...`.
        let line = "77423  16:56:40.452660 <... read resumed> ..., 405) = 404 <0.000223>";
        match parse_line(line).unwrap() {
            Line::Resumed { args, .. } => assert_eq!(args, vec!["...", "405"]),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_exit_and_signal() {
        assert_eq!(
            parse_line("9054 08:55:54.200000 +++ exited with 0 +++").unwrap(),
            Line::Exit {
                pid: Some(9054),
                code: Some(0)
            }
        );
        assert!(matches!(
            parse_line(
                "9054 08:55:54.100000 --- SIGCHLD {si_signo=SIGCHLD, si_code=CLD_EXITED} ---"
            )
            .unwrap(),
            Line::Signal
        ));
    }

    #[test]
    fn erestartsys_is_flagged() {
        let line = "9054 08:55:54.100000 read(3</x>, \"\", 10) = ? ERESTARTSYS (To be restarted if SA_RESTART is set) <0.5>";
        assert_eq!(parse_line(line).unwrap(), Line::Restarted);
    }

    #[test]
    fn erestartsys_counts_only_in_the_errno_position() {
        // A plain and a resumed record carrying the errno are dropped.
        for line in [
            "9 08:00:00.000001 read(3</x>, \"\", 10) = ? ERESTARTSYS (To be restarted)",
            "9 08:00:00.000002 <... read resumed> \"\", 10) = ? ERESTARTSYS (To be restarted) <0.000004>",
        ] {
            assert_eq!(parse_line(line).unwrap(), Line::Restarted, "{line}");
        }
        // A path that merely contains the keyword is an ordinary call.
        let line = "9 08:00:00.000003 read(3</tmp/ERESTARTSYS.log>, \"\", 10) = 0 <0.000001>";
        match parse_line(line).unwrap() {
            Line::Call(c) => assert_eq!(c.args[0], "3</tmp/ERESTARTSYS.log>"),
            other => panic!("{other:?}"),
        }
        let line = "9 08:00:00.000004 openat(AT_FDCWD, \"/tmp/ERESTARTSYS.log\", O_RDONLY) = 3</tmp/ERESTARTSYS.log> <0.000002>";
        assert!(matches!(parse_line(line).unwrap(), Line::Call(_)));
    }

    #[test]
    fn pid_column_is_optional() {
        let line = "08:55:54.153994 read(3</x>, \"\", 10) = 0 <0.000001>";
        match parse_line(line).unwrap() {
            Line::Call(c) => assert_eq!(c.pid, None),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn lseek_and_pwrite_records() {
        let line = "50 09:00:00.000001 lseek(3</scratch/testfile>, 16777216, SEEK_SET) = 16777216 <0.000004>";
        match parse_line(line).unwrap() {
            Line::Call(c) => {
                assert_eq!(c.name, "lseek");
                assert_eq!(c.args, vec!["3</scratch/testfile>", "16777216", "SEEK_SET"]);
                assert_eq!(c.ret, ReturnValue::Num(16777216));
            }
            other => panic!("{other:?}"),
        }
        let line = "50 09:00:00.000100 pwrite64(3</scratch/testfile>, \"...\"..., 1048576, 16777216) = 1048576 <0.000301>";
        match parse_line(line).unwrap() {
            Line::Call(c) => {
                assert_eq!(c.name, "pwrite64");
                assert_eq!(c.args.len(), 4);
                assert_eq!(c.ret, ReturnValue::Num(1048576));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn hex_return_mmap() {
        let line = "50 09:00:00.000001 mmap(NULL, 8192, PROT_READ, MAP_PRIVATE, 3</x/y.so>, 0) = 0x7f2c4a000000 <0.000009>";
        match parse_line(line).unwrap() {
            Line::Call(c) => assert_eq!(c.ret, ReturnValue::Hex(0x7f2c4a000000)),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn unknown_return_detached() {
        let line = "50 09:00:00.000001 read(3</x>, \"\", 10) = ?";
        match parse_line(line).unwrap() {
            Line::Call(c) => {
                assert_eq!(c.ret, ReturnValue::Unknown);
                assert_eq!(c.dur, None);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn garbage_lines_are_rejected() {
        for line in [
            "not a trace line",
            "50 09:00:00.000001",
            "50 09:00:00.000001 read(3</x>, \"\", 10)", // missing `=`
            "50 09:00:00.000001 READ(3) = 0",           // uppercase name
            "50 bogus read(3) = 0",
        ] {
            assert!(parse_line(line).is_none(), "accepted {line:?}");
        }
    }

    #[test]
    fn empty_lines() {
        assert_eq!(parse_line("").unwrap(), Line::Empty);
        assert_eq!(parse_line("   \n").unwrap(), Line::Empty);
    }
}
