//! Property-based equivalence of the chunked parallel trace parser:
//! `parse_par` must produce exactly what `parse_str` produces — same
//! events (including interned symbol ids when both start from fresh
//! interners) and same warnings in the same order — for any thread
//! count and any input, including traces whose `<unfinished ...>` /
//! `resumed` pairs straddle chunk boundaries. The streaming paths
//! (`StreamParser`, `parse_reader`) must produce the same events with
//! symbols resolved to strings, and the same warnings.

use std::sync::Arc;

use proptest::prelude::*;
use st_inspector::model::{Event, Interner};
use st_inspector::strace::{parse_par, parse_reader, parse_str, StreamParser};

/// One generated trace record. Delays on split calls schedule the
/// `resumed` line several records later, so pairs regularly land in
/// different chunks under `parse_par`.
#[derive(Debug, Clone)]
enum TraceOp {
    /// A complete call record.
    Complete {
        pid: u32,
        write: bool,
        path: &'static str,
        size: u64,
    },
    /// A call the crate has no named variant for (exercises
    /// `Syscall::Other` symbol interning).
    Unknown { pid: u32, path: &'static str },
    /// An `<unfinished ...>` record whose `resumed` follows after
    /// `delay` further records.
    Split {
        pid: u32,
        write: bool,
        path: &'static str,
        size: u64,
        delay: usize,
    },
    /// An `<unfinished ...>` record that never resumes.
    NeverResumed { pid: u32, path: &'static str },
    /// A `resumed` record with (usually) no outstanding unfinished call.
    OrphanResumed { pid: u32, write: bool },
    /// An unparsable line.
    Garbage,
    /// A signal stop / process exit record (silently skipped).
    Noise { pid: u32, exit: bool },
    /// An `ERESTARTSYS`-interrupted record.
    Restarted { pid: u32 },
    /// An `<unfinished ...>` record whose `resumed` record, `delay`
    /// records later, is interrupted with `ERESTARTSYS`; the call is then
    /// re-issued complete.
    RestartedSplit {
        pid: u32,
        write: bool,
        path: &'static str,
        delay: usize,
    },
}

fn pid_strategy() -> impl Strategy<Value = u32> {
    prop::sample::select(vec![7u32, 9, 11, 42])
}

fn path_strategy() -> impl Strategy<Value = &'static str> {
    prop::sample::select(vec![
        "/usr/lib/libc.so.6",
        "/etc/passwd",
        "/scratch/run1/out.bin",
        "/dev/pts/7",
        "/proc/filesystems",
        // A record keyword inside a path must not change how the
        // record is classified.
        "/tmp/ERESTARTSYS.log",
    ])
}

fn op_strategy() -> impl Strategy<Value = TraceOp> {
    prop_oneof![
        (
            pid_strategy(),
            prop::bool::ANY,
            path_strategy(),
            0u64..10_000
        )
            .prop_map(|(pid, write, path, size)| TraceOp::Complete {
                pid,
                write,
                path,
                size
            }),
        (pid_strategy(), path_strategy()).prop_map(|(pid, path)| TraceOp::Unknown { pid, path }),
        (
            pid_strategy(),
            prop::bool::ANY,
            path_strategy(),
            0u64..10_000,
            0usize..40
        )
            .prop_map(|(pid, write, path, size, delay)| TraceOp::Split {
                pid,
                write,
                path,
                size,
                delay
            }),
        (pid_strategy(), path_strategy())
            .prop_map(|(pid, path)| TraceOp::NeverResumed { pid, path }),
        (pid_strategy(), prop::bool::ANY)
            .prop_map(|(pid, write)| TraceOp::OrphanResumed { pid, write }),
        Just(TraceOp::Garbage),
        (pid_strategy(), prop::bool::ANY).prop_map(|(pid, exit)| TraceOp::Noise { pid, exit }),
        pid_strategy().prop_map(|pid| TraceOp::Restarted { pid }),
        (pid_strategy(), prop::bool::ANY, path_strategy(), 0usize..40).prop_map(
            |(pid, write, path, delay)| TraceOp::RestartedSplit {
                pid,
                write,
                path,
                delay
            }
        ),
    ]
}

fn call_name(write: bool) -> &'static str {
    if write {
        "write"
    } else {
        "read"
    }
}

/// Renders ops into strace text. Timestamps advance by 0–2 µs so equal
/// start times occur regularly (exercising the `(start, line)` order
/// tie-break).
fn materialize(ops: &[TraceOp]) -> String {
    let mut lines: Vec<String> = Vec::new();
    // Scheduled resumed lines: (emit once lines.len() >= due, text).
    let mut scheduled: Vec<(usize, String)> = Vec::new();
    let mut clock = 8 * 3600 * 1_000_000u64;
    let flush = |lines: &mut Vec<String>, scheduled: &mut Vec<(usize, String)>| {
        while let Some(pos) = scheduled.iter().position(|(due, _)| *due <= lines.len()) {
            let (_, line) = scheduled.remove(pos);
            lines.push(line);
        }
    };
    for (i, op) in ops.iter().enumerate() {
        clock += (i as u64 * 7) % 3; // 0..=2 µs steps, duplicates included
        let t = st_inspector::model::Micros(clock).format_time_of_day();
        match op {
            TraceOp::Complete {
                pid,
                write,
                path,
                size,
            } => {
                lines.push(format!(
                    "{pid}  {t} {}(3<{path}>, \"...\", 8192) = {size} <0.000203>",
                    call_name(*write)
                ));
            }
            TraceOp::Unknown { pid, path } => {
                lines.push(format!(
                    "{pid}  {t} statx(AT_FDCWD, \"{path}\", 0, 4095) = 0 <0.000004>"
                ));
            }
            TraceOp::Split {
                pid,
                write,
                path,
                size,
                delay,
            } => {
                lines.push(format!(
                    "{pid}  {t} {}(3<{path}>, <unfinished ...>",
                    call_name(*write)
                ));
                let resumed = format!(
                    "{pid}  {t} <... {} resumed> \"...\", 8192) = {size} <0.000223>",
                    call_name(*write)
                );
                scheduled.push((lines.len() + delay, resumed));
            }
            TraceOp::NeverResumed { pid, path } => {
                lines.push(format!("{pid}  {t} read(3<{path}>, <unfinished ...>"));
            }
            TraceOp::OrphanResumed { pid, write } => {
                lines.push(format!(
                    "{pid}  {t} <... {} resumed> \"...\", 64) = 64 <0.000009>",
                    call_name(*write)
                ));
            }
            TraceOp::Garbage => lines.push("not a trace record at all".to_string()),
            TraceOp::Noise { pid, exit } => {
                if *exit {
                    lines.push(format!("{pid}  {t} +++ exited with 0 +++"));
                } else {
                    lines.push(format!("{pid}  {t} --- SIGCHLD {{si_signo=SIGCHLD}} ---"));
                }
            }
            TraceOp::Restarted { pid } => {
                lines.push(format!(
                    "{pid}  {t} read(3</x>, \"\", 10) = ? ERESTARTSYS (To be restarted)"
                ));
            }
            TraceOp::RestartedSplit {
                pid,
                write,
                path,
                delay,
            } => {
                let name = call_name(*write);
                lines.push(format!("{pid}  {t} {name}(3<{path}>, <unfinished ...>"));
                let due = lines.len() + delay;
                scheduled.push((
                    due,
                    format!("{pid}  {t} <... {name} resumed> \"\", 64) = ? ERESTARTSYS (To be restarted) <0.000004>"),
                ));
                scheduled.push((
                    due,
                    format!("{pid}  {t} {name}(3<{path}>, \"...\", 64) = 64 <0.000002>"),
                ));
            }
        }
        flush(&mut lines, &mut scheduled);
    }
    // Remaining scheduled resumptions drain at EOF, in schedule order.
    while !scheduled.is_empty() {
        let (_, line) = scheduled.remove(0);
        lines.push(line);
    }
    let mut text = lines.join("\n");
    if !text.is_empty() {
        text.push('\n');
    }
    text
}

/// An event with its symbols resolved, so events from different
/// interners compare by content.
type Resolved = (
    u32,
    String,
    u64,
    u64,
    String,
    Option<u64>,
    Option<u64>,
    Option<u64>,
    bool,
);

fn resolve(events: &[Event], interner: &Interner) -> Vec<Resolved> {
    events
        .iter()
        .map(|e| {
            (
                e.pid.0,
                e.call.name(interner).into_owned(),
                e.start.0,
                e.dur.0,
                interner.resolve(e.path).to_string(),
                e.size,
                e.requested,
                e.offset,
                e.ok,
            )
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Streaming ≡ batch: `StreamParser` fed line by line (polled at
    /// generated points) and `parse_reader` both give `parse_str`'s
    /// events with symbols resolved, and identical warnings. Polling
    /// surfaces every event exactly once, and the two streaming paths
    /// number symbols identically.
    #[test]
    fn stream_equals_batch(ops in prop::collection::vec(op_strategy(), 0..120), polls in prop::collection::vec(prop::bool::ANY, 0..160)) {
        let text = materialize(&ops);
        let batch_interner = Interner::new();
        let batch = parse_str(&text, &batch_interner);
        let want = resolve(&batch.events, &batch_interner);

        let stream_interner = Interner::new_shared();
        let mut parser = StreamParser::new(Arc::clone(&stream_interner));
        let mut polled: Vec<Event> = Vec::new();
        for (i, line) in text.lines().enumerate() {
            parser.feed_line(line);
            if polls.get(i).copied().unwrap_or(false) {
                polled.extend(parser.poll_events().copied());
            }
        }
        polled.extend(parser.poll_events().copied());
        prop_assert_eq!(polled.len(), parser.events_parsed());
        let streamed = parser.finish();
        let mut polled = resolve(&polled, &stream_interner);
        let mut finished = resolve(&streamed.events, &stream_interner);
        prop_assert_eq!(&finished, &want, "text:\n{}", text);
        prop_assert_eq!(&streamed.warnings, &batch.warnings, "text:\n{}", text);
        polled.sort();
        finished.sort();
        prop_assert_eq!(polled, finished);

        let reader_interner = Interner::new();
        let read = parse_reader(&mut text.as_bytes(), &reader_interner).unwrap();
        prop_assert_eq!(resolve(&read.events, &reader_interner), want);
        prop_assert_eq!(&read.warnings, &batch.warnings);
        prop_assert_eq!(&read.events, &streamed.events);
    }

    /// `parse_par` at any thread count reproduces `parse_str` exactly:
    /// identical event vectors (symbol ids included — both interners
    /// start empty) and identical warning lists.
    #[test]
    fn parse_par_equals_parse_str(ops in prop::collection::vec(op_strategy(), 0..120), threads in 2usize..10) {
        let text = materialize(&ops);
        let seq_interner = Interner::new();
        let par_interner = Interner::new();
        let seq = parse_str(&text, &seq_interner);
        let par = parse_par(&text, &par_interner, threads);
        prop_assert_eq!(&seq.events, &par.events, "threads={} text:\n{}", threads, text);
        prop_assert_eq!(&seq.warnings, &par.warnings, "threads={} text:\n{}", threads, text);
        // Symbol parity implies resolved-string parity; spot-check it.
        let seq_snap = seq_interner.snapshot();
        let par_snap = par_interner.snapshot();
        prop_assert_eq!(seq_snap.len(), par_snap.len());
        for (a, b) in seq.events.iter().zip(&par.events) {
            prop_assert_eq!(seq_snap.resolve(a.path), par_snap.resolve(b.path));
        }
    }

    /// Chunk boundaries never affect the result: the same text parsed
    /// with different thread counts yields identical outputs.
    #[test]
    fn thread_count_is_irrelevant(ops in prop::collection::vec(op_strategy(), 0..80), a in 2usize..9, b in 2usize..9) {
        let text = materialize(&ops);
        let ia = Interner::new();
        let ib = Interner::new();
        let ra = parse_par(&text, &ia, a);
        let rb = parse_par(&text, &ib, b);
        prop_assert_eq!(&ra.events, &rb.events, "threads {} vs {}", a, b);
        prop_assert_eq!(&ra.warnings, &rb.warnings);
    }
}
