//! Byte-level tokenizer for strace call argument lists.
//!
//! strace argument lists are almost-but-not-quite CSV: commas separate
//! top-level arguments, but commas also appear inside
//!
//! * quoted buffers `"fo,o"` (with `\"` escapes and a `...` truncation
//!   marker after the closing quote),
//! * fd annotations produced by `-y`: `3</usr/lib/libc.so.6>` or
//!   `4<socket:[1234]>`,
//! * struct arguments `{st_mode=S_IFREG|0644, st_size=512, ...}`,
//! * array arguments `[{iov_base=..., iov_len=832}]`.
//!
//! [`split_args`] is the argument stage of the [`crate::record`] cursor:
//! one forward read from the cursor's position, tracking those contexts,
//! that pushes each top-level argument into the caller's reused scratch
//! vector and says where the list ended (after `)` or at the
//! `<unfinished ...>` marker).

/// Where an argument list scanned by [`split_args`] ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArgsEnd {
    /// At the top-level `)`; the value is the byte offset just after it.
    Closed(usize),
    /// At the `<unfinished ...>` marker: no closing parenthesis and no
    /// return value on this line.
    Unfinished,
}

/// Splits the argument list that starts at byte `start` of `input` (one
/// past the `(`, or where a resumed record's continuation begins).
///
/// The top-level arguments, trimmed and non-empty, are appended to
/// `args`. Returns `None` when the text ends before the list is closed
/// (malformed record).
pub fn split_args<'a>(input: &'a str, start: usize, args: &mut Vec<&'a str>) -> Option<ArgsEnd> {
    let bytes = input.as_bytes();
    let mut pos = start;
    let mut arg_start = start;
    let mut depth = 0usize; // nesting inside {} []
    loop {
        while pos < bytes.len()
            && !matches!(
                bytes[pos],
                b'"' | b'{' | b'}' | b'[' | b']' | b'<' | b',' | b')'
            )
        {
            pos += 1;
        }
        let &b = bytes.get(pos)?;
        match b {
            b'"' => {
                pos = skip_quoted(bytes, pos)?;
                // Truncation ellipsis directly after the closing quote.
                while bytes.get(pos) == Some(&b'.') {
                    pos += 1;
                }
            }
            b'{' | b'[' => {
                depth += 1;
                pos += 1;
            }
            b'}' | b']' => {
                depth = depth.saturating_sub(1);
                pos += 1;
            }
            b'<' if bytes.get(pos + 1) == Some(&b'u')
                && bytes[pos..].starts_with(b"<unfinished ...>") =>
            {
                // `read(3</path>, <unfinished ...>`
                push_arg(input, arg_start, pos, args);
                return Some(ArgsEnd::Unfinished);
            }
            // fd annotation `3</path>` or a dup2-style `<...>`: skip to
            // the first `>`.
            b'<' => pos = find(bytes, pos + 1, b'>')? + 1,
            b',' | b')' if depth == 0 => {
                push_arg(input, arg_start, pos, args);
                pos += 1;
                if b == b')' {
                    return Some(ArgsEnd::Closed(pos));
                }
                arg_start = pos;
            }
            _ => pos += 1, // `,` or `)` inside braces
        }
    }
}

/// Pushes `input[start..end]`, trimmed, unless it is empty.
fn push_arg<'a>(input: &'a str, mut start: usize, mut end: usize, args: &mut Vec<&'a str>) {
    let bytes = input.as_bytes();
    while start < end && is_space(bytes[start]) {
        start += 1;
    }
    while end > start && is_space(bytes[end - 1]) {
        end -= 1;
    }
    if end > start {
        args.push(&input[start..end]);
    }
}

/// Skips a quoted string starting at the opening quote; returns the index
/// one past the closing quote.
fn skip_quoted(bytes: &[u8], open: usize) -> Option<usize> {
    let mut pos = open + 1;
    loop {
        pos += bytes
            .get(pos..)?
            .iter()
            .position(|&b| b == b'"' || b == b'\\')?;
        if bytes[pos] == b'"' {
            return Some(pos + 1);
        }
        pos += 2; // an escape and the byte it escapes
    }
}

/// The ASCII whitespace strace separates columns and arguments with.
#[inline]
pub(crate) fn is_space(b: u8) -> bool {
    matches!(b, b' ' | b'\t'..=b'\r')
}

/// The first index at or after `pos` whose byte fails `keep`.
#[inline]
pub(crate) fn skip_while(bytes: &[u8], pos: usize, keep: impl Fn(u8) -> bool) -> usize {
    pos + bytes[pos..].iter().take_while(|&&b| keep(b)).count()
}

/// The index of the first `needle` at or after `pos`.
#[inline]
pub(crate) fn find(bytes: &[u8], pos: usize, needle: u8) -> Option<usize> {
    Some(pos + bytes.get(pos..)?.iter().position(|&b| b == needle)?)
}

/// Extracts the path from an fd annotation argument `3</usr/lib/x.so>`,
/// or a bare annotated return token. Returns `None` when the argument is
/// not fd-annotated or annotates a non-path object (`socket:[..]`,
/// `pipe:[..]`, `anon_inode:..`).
pub fn fd_annotation_path(arg: &str) -> Option<&str> {
    let open = arg.find('<')?;
    // Leading token must be a plain fd number.
    let fd = &arg[..open];
    if fd.is_empty() || !fd.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    let close = arg.rfind('>')?;
    if close <= open {
        return None;
    }
    let path = &arg[open + 1..close];
    is_path(path).then_some(path)
}

/// Whether an fd annotation names a file, not a socket, pipe or
/// anonymous inode.
pub(crate) fn is_path(annotation: &str) -> bool {
    !["socket:", "pipe:", "anon_inode:"]
        .iter()
        .any(|p| annotation.starts_with(p))
}

/// Extracts the contents of a quoted-string argument (`"/etc/passwd"` →
/// `/etc/passwd`), un-escaping nothing — paths in openat arguments do not
/// need unescaping for substring queries. Returns `None` for non-quoted
/// arguments.
pub fn quoted_contents(arg: &str) -> Option<&str> {
    if !arg.starts_with('"') {
        return None;
    }
    Some(&arg[1..skip_quoted(arg.as_bytes(), 0)? - 1])
}

/// Parses a decimal unsigned integer argument (`1024`), tolerating
/// nothing else.
pub fn numeric_arg(arg: &str) -> Option<u64> {
    if arg.is_empty() || !arg.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    arg.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan(line: &str) -> (Vec<&str>, ArgsEnd) {
        let open = line.find('(').unwrap();
        let mut args = Vec::new();
        let end = split_args(line, open + 1, &mut args).unwrap();
        (args, end)
    }

    #[test]
    fn splits_simple_read() {
        let line = r#"read(3</usr/lib/x.so.1>, "..."..., 832) = 832"#;
        let (args, end) = scan(line);
        // The truncation ellipsis stays attached to the buffer argument.
        assert_eq!(args, vec!["3</usr/lib/x.so.1>", r#""..."..."#, "832"]);
        assert_eq!(end, ArgsEnd::Closed(line.find(')').unwrap() + 1));
    }

    #[test]
    fn quoted_commas_do_not_split() {
        let (args, _) = scan(r#"write(1</dev/pts/7>, "a,b\"c,d", 7) = 7"#);
        assert_eq!(args.len(), 3);
        assert_eq!(args[1], r#""a,b\"c,d""#);
    }

    #[test]
    fn empty_buffer_eof_read() {
        // Fig. 2a: read(3</proc/filesystems>, "", 1024) = 0
        let (args, _) = scan(r#"read(3</proc/filesystems>, "", 1024) = 0"#);
        assert_eq!(args, vec!["3</proc/filesystems>", r#""""#, "1024"]);
    }

    #[test]
    fn struct_and_array_args() {
        let (args, _) = scan(r#"openat(AT_FDCWD, "/etc/ld.so.cache", O_RDONLY|O_CLOEXEC) = 3"#);
        assert_eq!(args.len(), 3);
        let (args, _) = scan(r#"fstat(3</x>, {st_mode=S_IFREG|0644, st_size=14, ...}) = 0"#);
        assert_eq!(args.len(), 2);
        let (args, _) =
            scan(r#"writev(4</y>, [{iov_base="a", iov_len=1}, {iov_base="b", iov_len=1}], 2) = 2"#);
        assert_eq!(args.len(), 3);
    }

    #[test]
    fn unfinished_marker_detected() {
        // Fig. 2c first line.
        let line = r#"read(3</usr/lib/x86_64-linux-gnu/libselinux.so.1>, <unfinished ...>"#;
        let (args, end) = scan(line);
        assert_eq!(end, ArgsEnd::Unfinished);
        assert_eq!(args, vec!["3</usr/lib/x86_64-linux-gnu/libselinux.so.1>"]);
    }

    #[test]
    fn paths_with_commas_inside_annotation() {
        let (args, _) = scan(r#"read(3</data/weird,name.txt>, "", 10) = 0"#);
        assert_eq!(args[0], "3</data/weird,name.txt>");
    }

    #[test]
    fn unterminated_list_is_none() {
        let mut args = Vec::new();
        assert!(split_args(r#"read(3</x>, "#, 5, &mut args).is_none());
        assert!(split_args(r#"read("unterminated"#, 5, &mut args).is_none());
        assert!(split_args(r#"read("esc\"#, 5, &mut args).is_none());
    }

    #[test]
    fn fd_annotation_paths() {
        assert_eq!(
            fd_annotation_path("3</usr/lib/libc.so.6>"),
            Some("/usr/lib/libc.so.6")
        );
        assert_eq!(fd_annotation_path("10</tmp/a b>"), Some("/tmp/a b"));
        assert_eq!(fd_annotation_path("3<socket:[1234]>"), None);
        assert_eq!(fd_annotation_path("3<pipe:[99]>"), None);
        assert_eq!(fd_annotation_path("3<anon_inode:[eventfd]>"), None);
        assert_eq!(fd_annotation_path("AT_FDCWD"), None);
        assert_eq!(fd_annotation_path("832"), None);
        assert_eq!(fd_annotation_path(r#""/etc/passwd""#), None);
    }

    #[test]
    fn quoted_contents_extraction() {
        assert_eq!(quoted_contents(r#""/etc/passwd""#), Some("/etc/passwd"));
        assert_eq!(quoted_contents(r#""""#), Some(""));
        assert_eq!(quoted_contents(r#""a\"b""#), Some(r#"a\"b"#));
        assert_eq!(quoted_contents("832"), None);
        assert_eq!(quoted_contents(r#""unterminated"#), None);
    }

    #[test]
    fn numeric_args() {
        assert_eq!(numeric_arg("1024"), Some(1024));
        assert_eq!(numeric_arg("0"), Some(0));
        assert_eq!(numeric_arg("-1"), None);
        assert_eq!(numeric_arg("O_RDONLY"), None);
        assert_eq!(numeric_arg(""), None);
    }
}
