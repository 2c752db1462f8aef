//! Conformance corpus: real-world strace output quirks the parser must
//! survive. Each case is a line (or snippet) taken from the shapes
//! strace 5.x/6.x emits on common distros, beyond the paper's Fig. 2
//! examples.

use st_model::{Interner, Micros, Syscall};
use st_strace::parse_str;

fn parse_one(line: &str) -> (Vec<st_model::Event>, Vec<st_strace::Warning>, Interner) {
    let interner = Interner::new();
    let parsed = parse_str(line, &interner);
    (parsed.events, parsed.warnings, interner)
}

#[test]
fn dup2_style_double_annotation() {
    // dup3 annotates both descriptors.
    let (events, warnings, _) = parse_one(
        "100 10:00:00.000001 dup3(3</var/log/app.log>, 1</dev/pts/0>, 0) = 1</var/log/app.log> <0.000004>\n",
    );
    assert!(warnings.is_empty(), "{warnings:?}");
    assert_eq!(events.len(), 1);
}

#[test]
fn socket_annotations_are_not_paths() {
    let (events, warnings, interner) =
        parse_one("100 10:00:00.000001 read(5<socket:[123456]>, \"...\", 4096) = 88 <0.000010>\n");
    assert!(warnings.is_empty(), "{warnings:?}");
    assert_eq!(events.len(), 1);
    // Path resolves to the empty string, not "socket:[123456]".
    assert_eq!(&*interner.resolve(events[0].path), "");
    assert_eq!(events[0].size, Some(88));
}

#[test]
fn writev_with_iovec_array() {
    let (events, warnings, _) = parse_one(
        "100 10:00:00.000001 writev(4</data/out.bin>, [{iov_base=\"abc\", iov_len=3}, {iov_base=\"defg\", iov_len=4}], 2) = 7 <0.000015>\n",
    );
    assert!(warnings.is_empty(), "{warnings:?}");
    assert_eq!(events[0].call, Syscall::Writev);
    assert_eq!(events[0].size, Some(7));
    // iovcnt is not a byte request.
    assert_eq!(events[0].requested, None);
}

#[test]
fn fstat_with_struct_argument() {
    let (events, warnings, _) = parse_one(
        "100 10:00:00.000001 fstat(3</etc/passwd>, {st_mode=S_IFREG|0644, st_size=2996, ...}) = 0 <0.000005>\n",
    );
    assert!(warnings.is_empty(), "{warnings:?}");
    assert_eq!(events[0].call, Syscall::Fstat);
}

#[test]
fn buffer_with_escaped_quotes_and_newlines() {
    let (events, warnings, _) = parse_one(
        "100 10:00:00.000001 write(1</dev/pts/7>, \"a \\\"quoted\\\" string\\n, with comma\", 31) = 31 <0.000020>\n",
    );
    assert!(warnings.is_empty(), "{warnings:?}");
    assert_eq!(events[0].size, Some(31));
    assert_eq!(events[0].requested, Some(31));
}

#[test]
fn truncated_buffer_ellipsis() {
    let (events, warnings, _) = parse_one(
        "100 10:00:00.000001 read(3</bin/ls>, \"\\177ELF\\2\\1\\1\\0\"..., 832) = 832 <0.000009>\n",
    );
    assert!(warnings.is_empty(), "{warnings:?}");
    assert_eq!(events[0].size, Some(832));
}

#[test]
fn eagain_failure() {
    let (events, warnings, _) = parse_one(
        "100 10:00:00.000001 read(7</run/pipe>, \"\", 512) = -1 EAGAIN (Resource temporarily unavailable) <0.000003>\n",
    );
    assert!(warnings.is_empty(), "{warnings:?}");
    assert!(!events[0].ok);
    assert_eq!(events[0].size, None);
}

#[test]
fn unfinished_exit_interleaving() {
    // A process gets killed while a call is pending — strace emits the
    // unfinished record, the exit marker, and no resumed line.
    let text = "\
100 10:00:00.000001 read(3</data/f>, <unfinished ...>
100 10:00:00.000500 +++ killed by SIGKILL +++
";
    let interner = Interner::new();
    let parsed = parse_str(text, &interner);
    assert!(parsed.events.is_empty());
    assert_eq!(parsed.warnings.len(), 1);
    assert!(matches!(
        parsed.warnings[0],
        st_strace::Warning::NeverResumed { pid: 100, .. }
    ));
}

#[test]
fn two_pids_with_interleaved_unfinished_calls() {
    let text = "\
200 10:00:00.000001 read(3</a/f1>, <unfinished ...>
201 10:00:00.000002 write(4</a/f2>, <unfinished ...>
201 10:00:00.000040 <... write resumed> \"...\", 100) = 100 <0.000038>
200 10:00:00.000090 <... read resumed> \"...\", 800) = 799 <0.000089>
";
    let interner = Interner::new();
    let parsed = parse_str(text, &interner);
    assert!(parsed.warnings.is_empty(), "{:?}", parsed.warnings);
    assert_eq!(parsed.events.len(), 2);
    // Re-sorted by start: pid 200's read first.
    assert_eq!(parsed.events[0].pid.0, 200);
    assert_eq!(parsed.events[0].size, Some(799));
    assert_eq!(parsed.events[0].dur, Micros(89));
    assert_eq!(parsed.events[1].pid.0, 201);
}

#[test]
fn same_pid_nested_different_calls() {
    // One pid can have two different calls outstanding across threads
    // sharing the pid column (rare but emitted by strace with -f on
    // vfork); matching is per (pid, name).
    let text = "\
300 10:00:00.000001 read(3</a/b>, <unfinished ...>
300 10:00:00.000002 write(4</c/d>, <unfinished ...>
300 10:00:00.000050 <... read resumed> \"...\", 10) = 10 <0.000049>
300 10:00:00.000060 <... write resumed> \"...\", 20) = 20 <0.000058>
";
    let interner = Interner::new();
    let parsed = parse_str(text, &interner);
    assert!(parsed.warnings.is_empty(), "{:?}", parsed.warnings);
    assert_eq!(parsed.events.len(), 2);
    let read = parsed
        .events
        .iter()
        .find(|e| e.call == Syscall::Read)
        .unwrap();
    assert_eq!(read.size, Some(10));
    let write = parsed
        .events
        .iter()
        .find(|e| e.call == Syscall::Write)
        .unwrap();
    assert_eq!(write.size, Some(20));
}

#[test]
fn signal_records_with_full_siginfo() {
    let text = "\
400 10:00:00.000001 --- SIGCHLD {si_signo=SIGCHLD, si_code=CLD_EXITED, si_pid=401, si_uid=1000, si_status=0, si_utime=0, si_stime=0} ---
400 10:00:00.000010 read(3</x/y>, \"\", 10) = 0 <0.000001>
";
    let interner = Interner::new();
    let parsed = parse_str(text, &interner);
    assert!(parsed.warnings.is_empty(), "{:?}", parsed.warnings);
    assert_eq!(parsed.events.len(), 1);
}

#[test]
fn openat_with_directory_fd_instead_of_at_fdcwd() {
    let (events, warnings, interner) = parse_one(
        "100 10:00:00.000001 openat(7</data/dir>, \"file.txt\", O_RDONLY) = 8</data/dir/file.txt> <0.000012>\n",
    );
    assert!(warnings.is_empty(), "{warnings:?}");
    // The return annotation gives the full resolved path.
    assert_eq!(&*interner.resolve(events[0].path), "/data/dir/file.txt");
}

#[test]
fn lseek_seek_cur_and_seek_end() {
    let (events, warnings, _) =
        parse_one("100 10:00:00.000001 lseek(3</data/f>, 0, SEEK_END) = 1048576 <0.000002>\n");
    assert!(warnings.is_empty(), "{warnings:?}");
    // The resulting absolute offset is the return value.
    assert_eq!(events[0].offset, Some(1_048_576));
}

#[test]
fn mmap_file_backed() {
    let (events, warnings, interner) = parse_one(
        "100 10:00:00.000001 mmap(NULL, 2260560, PROT_READ, MAP_PRIVATE|MAP_DENYWRITE, 3</usr/lib/libc.so.6>, 0) = 0x7f57dca42000 <0.000011>\n",
    );
    assert!(warnings.is_empty(), "{warnings:?}");
    assert_eq!(events[0].call, Syscall::Mmap);
    assert_eq!(&*interner.resolve(events[0].path), "/usr/lib/libc.so.6");
    assert_eq!(events[0].size, None, "mmap is not a transfer");
}

#[test]
fn windows_line_endings_and_blank_lines() {
    let text = "100 10:00:00.000001 read(3</x/y>, \"\", 10) = 0 <0.000001>\r\n\r\n100 10:00:00.000002 read(3</x/y>, \"\", 10) = 0 <0.000001>\r\n";
    let interner = Interner::new();
    let parsed = parse_str(text, &interner);
    assert!(parsed.warnings.is_empty(), "{:?}", parsed.warnings);
    assert_eq!(parsed.events.len(), 2);
}

#[test]
fn paths_with_spaces_parentheses_and_unicode() {
    for path in [
        "/data/My Documents/file (1).txt",
        "/data/ünïcode/ファイル.bin",
        "/data/weird)paren",
    ] {
        let line = format!("100 10:00:00.000001 read(3<{path}>, \"...\", 100) = 100 <0.000002>\n");
        let interner = Interner::new();
        let parsed = parse_str(&line, &interner);
        assert!(parsed.warnings.is_empty(), "{path}: {:?}", parsed.warnings);
        assert_eq!(&*interner.resolve(parsed.events[0].path), path, "{path}");
    }
}

#[test]
fn zero_duration_calls() {
    let (events, warnings, _) =
        parse_one("100 10:00:00.000001 read(3</x/y>, \"\", 10) = 0 <0.000000>\n");
    assert!(warnings.is_empty(), "{warnings:?}");
    assert_eq!(events[0].dur, Micros(0));
    assert_eq!(events[0].data_rate_bps(), None);
}

#[test]
fn large_offsets_and_sizes() {
    let (events, warnings, _) = parse_one(
        "100 10:00:00.000001 pwrite64(3</big/file>, \"...\"..., 1073741824, 1099511627776) = 1073741824 <2.500000>\n",
    );
    assert!(warnings.is_empty(), "{warnings:?}");
    assert_eq!(events[0].size, Some(1 << 30));
    assert_eq!(events[0].offset, Some(1 << 40));
    assert_eq!(events[0].dur, Micros(2_500_000));
}

#[test]
fn record_keywords_inside_paths_do_not_change_the_record() {
    // Each path carries text that marks a different record shape
    // elsewhere in a line; inside an fd annotation it is just a path.
    let text = "\
100 10:00:00.000001 read(3</d/+++ exited with 0 +++>, \"...\", 10) = 10 <0.000001>
100 10:00:00.000002 write(4</d/--- SIGCHLD --->, \"...\", 20) = 20 <0.000002>
100 10:00:00.000003 read(5</d/a, w (q) = 1>, \"...\", 30) = 30 <0.000003>
100 10:00:00.000004 write(6</d/b <unfinished ...>>, \"...\", 40) = 40 <0.000004>
100 10:00:00.000005 read(7</d/<... read resumed> c>, \"...\", 50) = 50 <0.000005>
100 10:00:00.000006 write(8</d/\"q\".txt>, \"...\", 60) = 60 <0.000006>
100 10:00:00.000007 read(9</d/ERESTARTSYS (To be restarted)>, \"...\", 70) = 70 <0.000007>
";
    let interner = Interner::new();
    let parsed = parse_str(text, &interner);
    assert!(parsed.warnings.is_empty(), "{:?}", parsed.warnings);
    let got: Vec<_> = parsed
        .events
        .iter()
        .map(|e| {
            (
                e.call,
                e.start.0 % 1_000_000,
                e.dur.0,
                interner.resolve(e.path).to_string(),
                e.size,
                e.requested,
            )
        })
        .collect();
    let want = [
        (Syscall::Read, 1, 1, "/d/+++ exited with 0 +++", 10),
        (Syscall::Write, 2, 2, "/d/--- SIGCHLD ---", 20),
        (Syscall::Read, 3, 3, "/d/a, w (q) = 1", 30),
        (Syscall::Write, 4, 4, "/d/b <unfinished ...>", 40),
        (Syscall::Read, 5, 5, "/d/<... read resumed> c", 50),
        (Syscall::Write, 6, 6, "/d/\"q\".txt", 60),
        (Syscall::Read, 7, 7, "/d/ERESTARTSYS (To be restarted)", 70),
    ]
    .map(|(call, start, dur, path, n)| (call, start, dur, path.to_string(), Some(n), Some(n)));
    assert_eq!(got, want);
}
