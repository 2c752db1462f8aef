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
//!
//! [`parse_line`] is one forward byte cursor: pid, `-tt` timestamp and
//! record shape, then [`scan::split_args`] from its position, then the
//! return value, errno and `-T` duration where the arguments ended
//! (columns are split at ASCII whitespace). Slices borrow from the line
//! and arguments go into a scratch vector the caller reuses, so a
//! warmed-up parse allocates nothing. `ERESTARTSYS` counts only in the
//! errno position, never in a path.

use st_model::Micros;

use crate::scan::{self, find, is_space, skip_while, ArgsEnd};

/// A classified trace line, borrowing from the input; a record's
/// arguments are in the scratch vector given to [`parse_line`].
#[derive(Debug, PartialEq)]
pub enum Line<'a> {
    /// A complete system call record.
    Call(ParsedCall<'a>),
    /// A call whose record was interrupted (`<unfinished ...>`); its
    /// arguments are those recorded before the interruption.
    Unfinished {
        /// Pid column (None when traced without `-f`).
        pid: Option<u32>,
        /// Start timestamp.
        start: Micros,
        /// Syscall name.
        name: &'a str,
    },
    /// The completion of an earlier unfinished call
    /// (`<... name resumed> ...`); its arguments are the remaining ones.
    Resumed {
        /// Pid column.
        pid: Option<u32>,
        /// Syscall name, must match the unfinished record.
        name: &'a str,
        /// Return value.
        ret: ReturnValue<'a>,
        /// Call duration (`-T`), covering the full call.
        dur: Option<Micros>,
    },
    /// A call interrupted with `ERESTARTSYS`; ignored per Sec. III.
    Restarted {
        /// Pid column.
        pid: Option<u32>,
        /// Syscall name.
        name: &'a str,
        /// A `<... name resumed>` record: it ends the pid's held call.
        resumed: bool,
    },
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

/// A complete call record (arguments in [`parse_line`]'s scratch).
#[derive(Debug, PartialEq)]
pub struct ParsedCall<'a> {
    /// Pid column (None when traced without `-f`).
    pub pid: Option<u32>,
    /// Start timestamp (`-tt`).
    pub start: Micros,
    /// Syscall name as spelled by strace.
    pub name: &'a str,
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
            ReturnValue::NumAnnotated(_, ann) if scan::is_path(ann) => Some(ann),
            _ => None,
        }
    }
}

/// Parses one trace line, replacing the contents of `args` with the
/// record's top-level argument slices. Returns `None` for lines that
/// match no known record shape (the caller converts that into a
/// warning).
pub fn parse_line<'a>(line: &'a str, args: &mut Vec<&'a str>) -> Option<Line<'a>> {
    args.clear();
    let bytes = line.as_bytes();
    let mut pos = skip_while(bytes, 0, is_space);
    if pos == bytes.len() {
        return Some(Line::Empty);
    }

    // Optional pid column: digits followed by whitespace.
    let digits = skip_while(bytes, pos, |b| b.is_ascii_digit());
    let pid = match bytes.get(digits) {
        Some(&b) if digits > pos && is_space(b) => {
            let pid = u32::try_from(decimal(&bytes[pos..digits])?).ok()?;
            pos = skip_while(bytes, digits, is_space);
            Some(pid)
        }
        _ => None,
    };

    // Mandatory timestamp column (-tt).
    let ts_end = skip_while(bytes, pos, |b| !is_space(b));
    let start = Micros::parse_time_of_day(&line[pos..ts_end])?;
    pos = skip_while(bytes, ts_end, is_space);

    let rest = &bytes[pos..];
    if rest.starts_with(b"+++") {
        let code = line[pos + 3..]
            .trim()
            .strip_prefix("exited with")
            .and_then(|s| s.split_whitespace().next())
            .and_then(|s| s.parse().ok());
        return Some(Line::Exit { pid, code });
    }
    if rest.starts_with(b"---") {
        return Some(Line::Signal);
    }
    let resumed = rest.starts_with(b"<... ");
    let (name, after) = if resumed {
        let name_start = pos + "<... ".len();
        let name_end = name_start + line[name_start..].find(" resumed>")?;
        // The continuation of the argument list; it may begin mid-args
        // (", 405) = 404 <0.000223>") or at the closing paren.
        match scan::split_args(line, name_end + " resumed>".len(), args)? {
            ArgsEnd::Closed(after) => (&line[name_start..name_end], after),
            ArgsEnd::Unfinished => return None,
        }
    } else {
        // NAME(args...) = ret <dur>   |   NAME(args <unfinished ...>
        let open = skip_while(bytes, pos, |b| {
            b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'_'
        });
        if open == pos || bytes.get(open) != Some(&b'(') {
            return None;
        }
        let name = &line[pos..open];
        match scan::split_args(line, open + 1, args)? {
            ArgsEnd::Closed(after) => (name, after),
            ArgsEnd::Unfinished => return Some(Line::Unfinished { pid, start, name }),
        }
    };
    let (ret, errno, dur) = parse_return(line, after)?;
    Some(if errno == Some(RESTARTED) {
        Line::Restarted { pid, name, resumed }
    } else if resumed {
        Line::Resumed {
            pid,
            name,
            ret,
            dur,
        }
    } else {
        Line::Call(ParsedCall {
            pid,
            start,
            name,
            ret,
            dur,
        })
    })
}

/// The errno of an interrupted call; the Sec. III rule ignores such
/// records.
const RESTARTED: &str = "ERESTARTSYS";

/// Parses the `= ret [ERRNO (message)] [<dur>]` tail that starts at byte
/// `pos`, just after the closing parenthesis. The errno token is
/// returned on its own as well, because a `?` return has no numeric
/// value to carry it.
fn parse_return(line: &str, pos: usize) -> Option<(ReturnValue<'_>, Option<&str>, Option<Micros>)> {
    let bytes = line.as_bytes();
    let mut pos = skip_while(bytes, pos, is_space);
    if bytes.get(pos) != Some(&b'=') {
        return None;
    }
    pos = skip_while(bytes, pos + 1, is_space);

    let mut ret = if bytes[pos..].starts_with(b"0x") {
        let end = skip_while(bytes, pos + 2, |b| b.is_ascii_hexdigit());
        let val = u64::from_str_radix(&line[pos + 2..end], 16).ok()?;
        pos = end;
        ReturnValue::Hex(val)
    } else if bytes.get(pos) == Some(&b'?') {
        pos += 1;
        ReturnValue::Unknown
    } else {
        let digits = pos + usize::from(bytes.get(pos) == Some(&b'-'));
        let end = skip_while(bytes, digits, |b| b.is_ascii_digit());
        if end == digits {
            return None;
        }
        let val = i64::try_from(decimal(&bytes[digits..end])?).ok()?;
        let val = if digits > pos { -val } else { val };
        pos = end;
        // Annotation glued to the number: `3</path>`.
        if bytes.get(pos) == Some(&b'<') {
            let close = find(bytes, pos + 1, b'>')?;
            let ann = &line[pos + 1..close];
            pos = close + 1;
            ReturnValue::NumAnnotated(val, ann)
        } else {
            ReturnValue::Num(val)
        }
    };
    pos = skip_while(bytes, pos, is_space);

    // Optional errno symbol + message: `ENOENT (No such file or directory)`.
    let mut errno = None;
    if bytes.get(pos).is_some_and(u8::is_ascii_uppercase) {
        let end = skip_while(bytes, pos, |b| b.is_ascii_uppercase() || b.is_ascii_digit());
        let name = &line[pos..end];
        errno = Some(name);
        if let Some(code) = ret.value() {
            ret = ReturnValue::Error { code, name };
        }
        pos = skip_while(bytes, end, is_space);
        if bytes.get(pos) == Some(&b'(') {
            pos = skip_while(bytes, find(bytes, pos + 1, b')')? + 1, is_space);
        }
    }

    // Optional duration `<0.000203>` at the end.
    let dur = if bytes.get(pos) == Some(&b'<') {
        let close = find(bytes, pos + 1, b'>')?;
        Some(Micros::parse_duration(&line[pos + 1..close])?)
    } else {
        None
    };

    Some((ret, errno, dur))
}

/// The value of a run of ASCII digits; `None` on any other byte or on
/// overflow.
fn decimal(digits: &[u8]) -> Option<u64> {
    digits.iter().try_fold(0u64, |val, &d| {
        let d = d.checked_sub(b'0').filter(|d| *d <= 9)?;
        val.checked_mul(10)?.checked_add(u64::from(d))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Parses `line` with a fresh scratch vector: the record and its
    /// arguments.
    fn parse(line: &str) -> (Option<Line<'_>>, Vec<&str>) {
        let mut args = Vec::new();
        let record = parse_line(line, &mut args);
        (record, args)
    }

    #[test]
    fn parses_fig2a_complete_read() {
        let line = "9054  08:55:54.153994 read(3</usr/lib/x86_64-linux-gnu/libselinux.so.1>, \"...\", 832) = 832 <0.000203>";
        match parse(line) {
            (Some(Line::Call(c)), args) => {
                assert_eq!(c.pid, Some(9054));
                assert_eq!(
                    c.start,
                    Micros::parse_time_of_day("08:55:54.153994").unwrap()
                );
                assert_eq!(c.name, "read");
                assert_eq!(args[0], "3</usr/lib/x86_64-linux-gnu/libselinux.so.1>");
                assert_eq!(args[2], "832");
                assert_eq!(c.ret, ReturnValue::Num(832));
                assert_eq!(c.dur, Some(Micros(203)));
            }
            other => panic!("expected Call, got {other:?}"),
        }
    }

    #[test]
    fn parses_eof_read_with_empty_buffer() {
        let line = "9054  08:55:54.163049 read(3</proc/filesystems>, \"\", 1024) = 0 <0.000040>";
        match parse(line) {
            (Some(Line::Call(c)), args) => {
                assert_eq!(c.ret, ReturnValue::Num(0));
                assert_eq!(args[1], "\"\"");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_openat_with_annotated_return() {
        let line = "123 10:00:00.000001 openat(AT_FDCWD, \"/etc/passwd\", O_RDONLY|O_CLOEXEC) = 3</etc/passwd> <0.000012>";
        match parse(line) {
            (Some(Line::Call(c)), _) => {
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
        match parse(line) {
            (Some(Line::Call(c)), _) => {
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
        match parse(line) {
            (Some(Line::Unfinished { pid, name, .. }), args) => {
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
        match parse(line) {
            (
                Some(Line::Resumed {
                    pid,
                    name,
                    ret,
                    dur,
                    ..
                }),
                args,
            ) => {
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
        match parse(line) {
            (Some(Line::Resumed { .. }), args) => assert_eq!(args, vec!["...", "405"]),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_exit_and_signal() {
        assert_eq!(
            parse("9054 08:55:54.200000 +++ exited with 0 +++").0,
            Some(Line::Exit {
                pid: Some(9054),
                code: Some(0)
            })
        );
        assert_eq!(
            parse("9054 08:55:54.100000 --- SIGCHLD {si_signo=SIGCHLD, si_code=CLD_EXITED} ---").0,
            Some(Line::Signal)
        );
    }

    #[test]
    fn erestartsys_is_flagged() {
        let line = "9054 08:55:54.100000 read(3</x>, \"\", 10) = ? ERESTARTSYS (To be restarted if SA_RESTART is set) <0.5>";
        assert_eq!(
            parse(line).0,
            Some(Line::Restarted {
                pid: Some(9054),
                name: "read",
                resumed: false
            })
        );
    }

    #[test]
    fn erestartsys_counts_only_in_the_errno_position() {
        // A plain and a resumed record carrying the errno are dropped;
        // the resumed one keeps the pid and name its partner is held by.
        for (line, resumed) in [
            ("9 08:00:00.000001 read(3</x>, \"\", 10) = ? ERESTARTSYS (To be restarted)", false),
            ("9 08:00:00.000002 <... read resumed> \"\", 10) = ? ERESTARTSYS (To be restarted) <0.000004>", true),
        ] {
            let want = Line::Restarted {
                pid: Some(9),
                name: "read",
                resumed,
            };
            assert_eq!(parse(line).0, Some(want), "{line}");
        }
        // A path that merely contains the keyword is an ordinary call.
        let line = "9 08:00:00.000003 read(3</tmp/ERESTARTSYS.log>, \"\", 10) = 0 <0.000001>";
        match parse(line) {
            (Some(Line::Call(_)), args) => assert_eq!(args[0], "3</tmp/ERESTARTSYS.log>"),
            other => panic!("{other:?}"),
        }
        let line = "9 08:00:00.000004 openat(AT_FDCWD, \"/tmp/ERESTARTSYS.log\", O_RDONLY) = 3</tmp/ERESTARTSYS.log> <0.000002>";
        assert!(matches!(parse(line).0, Some(Line::Call(_))));
    }

    #[test]
    fn pid_column_is_optional() {
        let line = "08:55:54.153994 read(3</x>, \"\", 10) = 0 <0.000001>";
        match parse(line).0 {
            Some(Line::Call(c)) => assert_eq!(c.pid, None),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn lseek_and_pwrite_records() {
        let line = "50 09:00:00.000001 lseek(3</scratch/testfile>, 16777216, SEEK_SET) = 16777216 <0.000004>";
        match parse(line) {
            (Some(Line::Call(c)), args) => {
                assert_eq!(c.name, "lseek");
                assert_eq!(args, vec!["3</scratch/testfile>", "16777216", "SEEK_SET"]);
                assert_eq!(c.ret, ReturnValue::Num(16777216));
            }
            other => panic!("{other:?}"),
        }
        let line = "50 09:00:00.000100 pwrite64(3</scratch/testfile>, \"...\"..., 1048576, 16777216) = 1048576 <0.000301>";
        match parse(line) {
            (Some(Line::Call(c)), args) => {
                assert_eq!(c.name, "pwrite64");
                assert_eq!(args.len(), 4);
                assert_eq!(c.ret, ReturnValue::Num(1048576));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn hex_return_mmap() {
        let line = "50 09:00:00.000001 mmap(NULL, 8192, PROT_READ, MAP_PRIVATE, 3</x/y.so>, 0) = 0x7f2c4a000000 <0.000009>";
        match parse(line).0 {
            Some(Line::Call(c)) => assert_eq!(c.ret, ReturnValue::Hex(0x7f2c4a000000)),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn unknown_return_detached() {
        let line = "50 09:00:00.000001 read(3</x>, \"\", 10) = ?";
        match parse(line).0 {
            Some(Line::Call(c)) => {
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
            "99999999999 09:00:00.000001 read(3) = 0", // pid overflows u32
            "50 09:00:00.000001 <... read resumed> <unfinished ...>",
        ] {
            assert!(parse(line).0.is_none(), "accepted {line:?}");
        }
    }

    #[test]
    fn empty_lines() {
        assert_eq!(parse("").0, Some(Line::Empty));
        assert_eq!(parse("   \n").0, Some(Line::Empty));
    }

    #[test]
    fn scratch_vector_is_replaced_per_line() {
        let mut args = vec!["stale"];
        parse_line("9 08:00:00.000001 read(3</a>, \"\", 10) = 0", &mut args).unwrap();
        assert_eq!(args, vec!["3</a>", "\"\"", "10"]);
        parse_line("9 08:00:00.000002 +++ exited with 0 +++", &mut args).unwrap();
        assert!(args.is_empty());
    }
}
