//! Whole-file trace parsing: turning a stream of strace lines into the
//! sorted event sequence of one case (Sec. III).
//!
//! # Architecture
//!
//! Every entry point is built from one assembly core of two pieces:
//! `classify`, which runs the [`crate::record`] cursor over one line
//! (arguments into a scratch vector the caller reuses) and turns it into
//! an event, a warning, a deferred `<unfinished ...>`/`resumed` record or
//! nothing, and `Matcher`, which pairs those records FIFO per
//! `(pid, name)` — strace resumes a pid's calls in emission order. The
//! matcher copies only an unfinished record's name and arguments, so no
//! line has to outlive its own parse.
//!
//! * [`parse_str`] — sequential single pass over an in-memory trace.
//! * [`parse_par`] — the chunked parallel pipeline: one line-aligned
//!   chunk per worker, classified into a local event vector with a
//!   thread-local [`LocalInterner`] (deferred records are kept as their
//!   line text). A sequential merge re-reads the deferred records through
//!   the matcher across chunk boundaries, publishes the thread-local
//!   tables in one [`Interner::intern_many`] batch, and k-way merges the
//!   per-chunk event runs by `(start, line)`.
//! * [`StreamParser`] — push API for live ingest: each line is
//!   classified and matched as it arrives.
//! * [`parse_reader`] — a constant-memory line loop over the same
//!   streaming assembly.
//!
//! # Determinism
//!
//! `parse_par` produces output *identical* to `parse_str` (events with
//! their [`Symbol`] ids, given interners in the same state, and
//! warnings): events are ordered by `(start, completing line)` whatever
//! the chunking, and strings are published in the sequential pass's
//! first-use order (complete calls by line, then merged calls by
//! resumption). The streaming paths give the same events and warnings
//! but may number symbols differently (see [`parse_reader`]).

use std::collections::{HashMap, VecDeque};
use std::io::BufRead;
use std::sync::Arc;

use st_model::{Event, Interner, LocalInterner, Micros, Pid, Symbol, Syscall};

use crate::error::{Warning, WARNING_CAP};
use crate::record::{parse_line, Line, ParsedCall};
use crate::scan;

/// The result of parsing one trace file.
#[derive(Debug)]
pub struct ParsedTrace {
    /// Events sorted by start timestamp (Eq. 2).
    pub events: Vec<Event>,
    /// Non-fatal oddities encountered.
    pub warnings: Vec<Warning>,
}

/// Where newly seen strings go during parsing. Workers intern locally;
/// the sequential paths intern straight into the shared table.
pub(crate) trait Intern {
    fn intern_str(&mut self, s: &str) -> Symbol;
}

/// The shared table, plus a count of the strings this parse inserted
/// itself: another parse may be inserting into the table concurrently.
struct SharedIntern<'i>(&'i Interner, usize);

impl Intern for SharedIntern<'_> {
    #[inline]
    fn intern_str(&mut self, s: &str) -> Symbol {
        let (sym, inserted) = self.0.intern_inserted(s);
        self.1 += usize::from(inserted);
        sym
    }
}

impl Intern for LocalInterner {
    #[inline]
    fn intern_str(&mut self, s: &str) -> Symbol {
        self.intern(s)
    }
}

/// What one trace line contributes to the assembly.
enum Step<'a> {
    /// Nothing: blank, signal-stop and exit lines, and unfinished
    /// records the matcher holds.
    Skip,
    /// A complete (or merged) call.
    Event(Event),
    /// An unparsable, interrupted or orphaned record.
    Warning(Warning),
    /// An `<unfinished ...>` or `resumed` record (an interrupted one
    /// included), for the [`Matcher`]; its arguments are in the scratch.
    Async(Line<'a>),
}

/// Classifies line `lineno`, tokenizing its arguments into the reused
/// scratch vector `args`: the per-line step every parse path shares.
fn classify<'a, I: Intern>(
    lineno: usize,
    line: &'a str,
    args: &mut Vec<&'a str>,
    sink: &mut I,
) -> Step<'a> {
    match parse_line(line, args) {
        Some(Line::Empty | Line::Signal | Line::Exit { .. }) => Step::Skip,
        Some(Line::Restarted { resumed: false, .. }) => {
            Step::Warning(Warning::Restarted { line: lineno })
        }
        Some(Line::Call(call)) => match call_to_event(&call, args, sink) {
            Some(event) => Step::Event(event),
            None => unparsable(lineno, line),
        },
        Some(record) => Step::Async(record),
        None => unparsable(lineno, line),
    }
}

fn unparsable(line: usize, text: &str) -> Step<'static> {
    Step::Warning(Warning::UnparsableLine {
        line,
        text: truncate(text, 160),
    })
}

/// An `<unfinished ...>` call held until its `resumed` record.
struct Pending {
    start: Micros,
    args: Vec<String>,
    /// Arrival order, for deterministic never-resumed reporting.
    seq: usize,
}

/// Pairs `<unfinished ...>`/`resumed` records FIFO per `(pid, name)`.
#[derive(Default)]
struct Matcher {
    pending: HashMap<u32, HashMap<String, VecDeque<Pending>>>,
    seq: usize,
}

impl Matcher {
    /// Holds an unfinished record, or merges a resumed one (at `line`)
    /// with the oldest held call of its `(pid, name)`. A resumed record
    /// with nothing held is an orphan. An `ERESTARTSYS` resumed record
    /// drops the call it ends: Sec. III ignores interrupted calls.
    /// `text` is the record's line, quoted when the merged call is
    /// unparsable.
    fn feed<I: Intern>(
        &mut self,
        (line, text): (usize, &str),
        record: &Line<'_>,
        args: &[&str],
        sink: &mut I,
    ) -> Step<'static> {
        match *record {
            Line::Unfinished { pid, start, name } => {
                self.pending
                    .entry(pid.unwrap_or(0))
                    .or_default()
                    .entry(name.to_string())
                    .or_default()
                    .push_back(Pending {
                        start,
                        args: args.iter().map(|a| a.to_string()).collect(),
                        seq: self.seq,
                    });
                self.seq += 1;
                Step::Skip
            }
            Line::Resumed {
                pid,
                name,
                ret,
                dur,
                ..
            } => {
                let Some(p) = self.take(pid, name) else {
                    let pid = pid.unwrap_or(0);
                    return Step::Warning(Warning::OrphanResumed { line, pid });
                };
                // Merge: prefix args from the unfinished record, suffix
                // args plus return info from the resumed one (Sec. III:
                // duration and transfer size live on the resumed record).
                let mut merged: Vec<&str> = p.args.iter().map(String::as_str).collect();
                merged.extend_from_slice(args);
                let call = ParsedCall {
                    pid,
                    start: p.start,
                    name,
                    ret,
                    dur,
                };
                match call_to_event(&call, &merged, sink) {
                    Some(event) => Step::Event(event),
                    None => unparsable(line, text),
                }
            }
            Line::Restarted { pid, name, .. } => {
                self.take(pid, name);
                Step::Warning(Warning::Restarted { line })
            }
            _ => unreachable!("the matcher takes unfinished/resumed records only"),
        }
    }

    /// Removes the oldest held call of `(pid, name)`.
    fn take(&mut self, pid: Option<u32>, name: &str) -> Option<Pending> {
        self.pending
            .get_mut(&pid.unwrap_or(0))
            .and_then(|by_name| by_name.get_mut(name))
            .and_then(VecDeque::pop_front)
    }

    /// Never-resumed warnings for the calls still held, in arrival
    /// order.
    fn finish(self) -> Vec<Warning> {
        let mut held: Vec<(usize, u32, String)> = Vec::new();
        for (pid, by_name) in self.pending {
            for (call, queue) in by_name {
                held.extend(queue.iter().map(|p| (p.seq, pid, call.clone())));
            }
        }
        held.sort_unstable_by_key(|(seq, _, _)| *seq);
        held.into_iter()
            .map(|(_, pid, call)| Warning::NeverResumed { pid, call })
            .collect()
    }
}

/// Events tagged with their completing line, plus warnings in line
/// order capped at [`WARNING_CAP`] exemplars.
#[derive(Default)]
struct Collected {
    events: Vec<(usize, Event)>,
    warnings: Vec<Warning>,
    /// Warnings raised beyond the cap and dropped. A non-strace input
    /// raises one warning per line; retaining them all is an OOM
    /// hazard. Callers push in line order, so the retained prefix is
    /// the `WARNING_CAP` lowest-line warnings, a superset of whatever
    /// [`finalize_warnings`] keeps.
    suppressed: usize,
}

impl Collected {
    fn push(&mut self, line: usize, step: Step<'_>) {
        match step {
            Step::Skip => {}
            Step::Event(ev) => self.events.push((line, ev)),
            Step::Warning(w) => self.warn(w),
            Step::Async(_) => unreachable!("async records go to the matcher"),
        }
    }

    fn warn(&mut self, w: Warning) {
        if self.warnings.len() < WARNING_CAP {
            self.warnings.push(w);
        } else {
            self.suppressed += 1;
        }
    }

    /// Sorts the events by `(start, line)` and finalizes the warnings.
    fn finish(mut self) -> ParsedTrace {
        self.events.sort_unstable_by_key(event_order);
        ParsedTrace {
            events: self.events.into_iter().map(|(_, e)| e).collect(),
            warnings: finalize_warnings(self.warnings, self.suppressed),
        }
    }
}

/// Final warning assembly shared by every parse path: order by line,
/// truncate to the exemplar cap, and surface the total overflow as one
/// [`Warning::Suppressed`] entry (sorting last by construction).
fn finalize_warnings(mut warnings: Vec<Warning>, mut suppressed: usize) -> Vec<Warning> {
    warnings.sort_by_key(warning_line);
    if warnings.len() > WARNING_CAP {
        suppressed += warnings.len() - WARNING_CAP;
        warnings.truncate(WARNING_CAP);
    }
    if suppressed > 0 {
        warnings.push(Warning::Suppressed { count: suppressed });
    }
    warnings
}

/// One chunk's parse output. Lines are chunk-local (1-based) until the
/// caller applies the chunk's global line offset.
struct ChunkParse<'a> {
    /// Complete-call events and warnings, in line order.
    collected: Collected,
    /// Deferred unfinished/resumed record lines, in line order.
    asyncs: Vec<(usize, &'a str)>,
    /// Number of lines in the chunk.
    line_count: usize,
}

/// Classifies every line of `chunk`, deferring unfinished/resumed
/// records.
fn parse_chunk<'a, I: Intern>(chunk: &'a str, sink: &mut I) -> ChunkParse<'a> {
    let mut out = ChunkParse {
        collected: Collected::default(),
        asyncs: Vec::new(),
        line_count: 0,
    };
    let mut args = Vec::new();
    for (idx, line) in chunk.lines().enumerate() {
        let lineno = idx + 1;
        out.line_count = lineno;
        match classify(lineno, line, &mut args, sink) {
            Step::Async(_) => out.asyncs.push((lineno, line)),
            step => out.collected.push(lineno, step),
        }
    }
    out
}

/// Replays the chunks' deferred records, in global order, through one
/// matcher. `offsets[i]` is the line offset of chunk `i`.
fn merge_asyncs<I: Intern>(
    chunks: &[ChunkParse<'_>],
    offsets: &[usize],
    sink: &mut I,
) -> Collected {
    let mut matcher = Matcher::default();
    let mut out = Collected::default();
    let mut args = Vec::new();
    for (chunk, &offset) in chunks.iter().zip(offsets) {
        for &(line, text) in &chunk.asyncs {
            // Read the record again: the chunk pass kept no arguments.
            let record = parse_line(text, &mut args).expect("deferred records parse");
            let step = matcher.feed((offset + line, text), &record, &args, sink);
            out.push(offset + line, step);
        }
    }
    for w in matcher.finish() {
        out.warn(w);
    }
    out
}

/// The sort key reproducing the sequential path's stable sort by start:
/// completion line breaks ties.
#[inline]
fn event_order(entry: &(usize, Event)) -> (Micros, usize) {
    (entry.1.start, entry.0)
}

/// Line number a warning is anchored to, for deterministic ordering
/// (never-resumed warnings sort last, preserving insertion order).
fn warning_line(w: &Warning) -> usize {
    match w {
        Warning::UnparsableLine { line, .. }
        | Warning::OrphanResumed { line, .. }
        | Warning::Restarted { line } => *line,
        Warning::NeverResumed { .. } | Warning::Suppressed { .. } => usize::MAX,
    }
}

fn shift_warning(mut w: Warning, offset: usize) -> Warning {
    match &mut w {
        Warning::UnparsableLine { line, .. }
        | Warning::OrphanResumed { line, .. }
        | Warning::Restarted { line } => *line += offset,
        Warning::NeverResumed { .. } | Warning::Suppressed { .. } => {}
    }
    w
}

/// Parses a whole trace file held in memory.
///
/// ```
/// use st_model::{Interner, Syscall};
/// use st_strace::parse_str;
///
/// let interner = Interner::new_shared();
/// let trace = "100 10:00:00.000001 read(3</usr/lib/libc.so>, \"\\177ELF\"..., 832) = 832 <0.000203>\n";
/// let parsed = parse_str(trace, &interner);
/// assert!(parsed.warnings.is_empty());
/// assert_eq!(parsed.events.len(), 1);
/// let event = &parsed.events[0];
/// assert_eq!(event.call, Syscall::Read);
/// assert_eq!(&*interner.resolve(event.path), "/usr/lib/libc.so");
/// assert_eq!(event.size, Some(832));
/// ```
pub fn parse_str(text: &str, interner: &Interner) -> ParsedTrace {
    let mut sink = SharedIntern(interner, 0);
    let parsed = parse_text(text, &mut sink);
    st_obs::add("symbols_interned", sink.1 as u64);
    parsed
}

/// [`parse_str`] into any string sink.
pub(crate) fn parse_text<I: Intern>(text: &str, sink: &mut I) -> ParsedTrace {
    let _span = st_obs::span!("strace.parse", bytes = text.len());
    let chunks = [parse_chunk(text, sink)];
    let merged = merge_asyncs(&chunks, &[0], sink);
    let [ChunkParse { mut collected, .. }] = chunks;
    collected.events.extend(merged.events);
    collected.warnings.extend(merged.warnings);
    collected.suppressed += merged.suppressed;
    let parsed = collected.finish();
    st_obs::add("events_parsed", parsed.events.len() as u64);
    parsed
}

/// Splits `text` into `n` byte-range chunks cut at line boundaries.
/// Chunks may be empty when the text is short; together they cover the
/// text exactly.
fn split_chunks(text: &str, n: usize) -> Vec<&str> {
    let bytes = text.as_bytes();
    let mut chunks = Vec::with_capacity(n);
    let mut start = 0usize;
    for i in 1..=n {
        let end = if i == n {
            bytes.len()
        } else {
            let mut e = ((bytes.len() * i) / n).max(start);
            while e < bytes.len() && bytes[e] != b'\n' {
                e += 1;
            }
            if e < bytes.len() {
                e += 1; // keep the newline with its line
            }
            e
        };
        chunks.push(&text[start..end]);
        start = end;
    }
    chunks
}

/// Publishes worker-local string tables into `interner` in one
/// `intern_many` batch and returns each table's local → shared symbol
/// map. `uses` lists `(table, local symbol)` pairs in the order the
/// sequential parse or load first uses them; repeats are skipped.
pub(crate) fn publish(
    interner: &Interner,
    tables: &[&LocalInterner],
    uses: impl IntoIterator<Item = (usize, Symbol)>,
) -> Vec<Vec<Symbol>> {
    let _span = st_obs::span!("strace.intern.merge");
    let mut maps: Vec<Vec<usize>> = tables.iter().map(|t| vec![usize::MAX; t.len()]).collect();
    let mut keys = Vec::new();
    for (t, sym) in uses {
        let key = &mut maps[t][sym.index()];
        if *key == usize::MAX {
            *key = keys.len();
            keys.push(tables[t].resolve(sym));
        }
    }
    let (shared, inserted) = interner.intern_many_inserted(&keys);
    st_obs::add("symbols_interned", inserted as u64);
    let to_shared = |map: &Vec<usize>| map.iter().map(|&key| shared[key]).collect();
    maps.iter().map(to_shared).collect()
}

/// Rewrites the symbols of `event`, ids of a local table, through
/// `map` (local id → shared symbol).
#[inline]
pub(crate) fn remap(event: &mut Event, map: &[Symbol]) {
    if let Syscall::Other(sym) = event.call {
        event.call = Syscall::Other(map[sym.index()]);
    }
    event.path = map[event.path.index()];
}

/// Parses a whole in-memory trace on `threads` worker threads
/// (`0` = the machine's available parallelism).
///
/// Produces exactly what [`parse_str`] produces — same events (including
/// interned symbol ids, given equal starting interner state) and same
/// warnings in the same order. See the module docs for how chunking,
/// cross-chunk `<unfinished ...>`/`resumed` merging, and deterministic
/// symbol publication fit together.
///
/// ```
/// use st_model::Interner;
/// use st_strace::{parse_par, parse_str};
///
/// let trace = "\
/// 100 10:00:00.000001 read(3</data/a>, \"\", 10) = 10 <0.000002>
/// 100 10:00:00.000009 write(4</data/b>, \"\", 10) = 10 <0.000003>
/// 200 10:00:00.000005 read(3</data/a>, \"\", 10) = 10 <0.000001>
/// ";
/// let sequential = parse_str(trace, &Interner::new_shared());
/// let parallel = parse_par(trace, &Interner::new_shared(), 3);
/// assert_eq!(parallel.events, sequential.events);
/// ```
pub fn parse_par(text: &str, interner: &Interner, threads: usize) -> ParsedTrace {
    let workers = if threads == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        threads
    };
    if workers <= 1 {
        return parse_str(text, interner);
    }

    let _span = st_obs::span!("strace.parse.par", workers = workers, bytes = text.len());
    let chunks = split_chunks(text, workers);

    // Map: parse chunks in parallel, each into a thread-local interner.
    let obs_cx = st_obs::context();
    let (mut chunk_parses, locals): (Vec<ChunkParse<'_>>, Vec<LocalInterner>) =
        std::thread::scope(|scope| {
            let handles: Vec<_> = chunks
                .iter()
                .map(|chunk| {
                    let obs_cx = obs_cx.clone();
                    scope.spawn(move || {
                        let _obs = obs_cx.attach();
                        let _chunk_span = st_obs::span!("strace.parse.chunk", bytes = chunk.len());
                        let mut local = LocalInterner::new();
                        let mut parsed = parse_chunk(chunk, &mut local);
                        // A sorted run for the final merge.
                        parsed.collected.events.sort_unstable_by_key(event_order);
                        (parsed, local)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("parser worker panicked"))
                .collect()
        });

    // Global line offsets per chunk.
    let offsets: Vec<usize> = (chunk_parses.iter())
        .scan(0, |lines, chunk| {
            Some(std::mem::replace(lines, *lines + chunk.line_count))
        })
        .collect();

    // Reduce 1: replay deferred unfinished/resumed records across chunk
    // boundaries (FIFO per (pid, name), global order).
    let mut merge_local = LocalInterner::new();
    let mut merged = merge_asyncs(&chunk_parses, &offsets, &mut merge_local);

    // Reduce 2: publish the thread-local string tables, then rewrite
    // event symbols. A table's insertion order is its chunk's first-use
    // order, so the chunk tables followed by the merge table are the
    // sequential pass's first-use order.
    let tables: Vec<&LocalInterner> = locals.iter().chain([&merge_local]).collect();
    let uses = tables.iter().enumerate();
    let uses = uses.flat_map(|(t, table)| (0..table.len() as u32).map(move |i| (t, Symbol(i))));
    let maps = publish(interner, &tables, uses);
    let runs = chunk_parses.iter_mut().map(|c| &mut c.collected.events);
    for (events, map) in runs.chain([&mut merged.events]).zip(&maps) {
        events.iter_mut().for_each(|(_, ev)| remap(ev, map));
    }

    // Reduce 3: merge the sorted per-chunk runs (plus the merged-event
    // run) by (start, global line).
    merged.events.sort_unstable_by_key(event_order);
    let mut runs: Vec<(usize, &[(usize, Event)])> = (chunk_parses.iter())
        .zip(&offsets)
        .map(|(chunk, &offset)| (offset, &chunk.collected.events[..]))
        .collect();
    runs.push((0, &merged.events));
    let events = merge_runs(&mut runs);

    // Warnings: per-chunk warnings shifted to global lines, orphan /
    // never-resumed warnings from the merge, ordered by line. Any
    // warning among the first WARNING_CAP globally is among the first
    // WARNING_CAP of its own chunk, so the per-chunk cap loses nothing
    // the global truncation would keep and the output matches
    // `parse_str` exactly.
    let mut warnings = Vec::new();
    let mut suppressed = merged.suppressed;
    for (chunk, &offset) in chunk_parses.iter_mut().zip(&offsets) {
        let shifted = chunk
            .collected
            .warnings
            .drain(..)
            .map(|w| shift_warning(w, offset));
        warnings.extend(shifted);
        suppressed += chunk.collected.suppressed;
    }
    warnings.extend(merged.warnings);

    st_obs::add("events_parsed", events.len() as u64);
    ParsedTrace {
        events,
        warnings: finalize_warnings(warnings, suppressed),
    }
}

/// Merges `(line offset, run)` pairs, each run sorted by `(start,
/// line)`, into one event vector ordered by `(start, offset + line)`.
/// Runs are few (one per worker), so the next event is found by a scan
/// of the run heads.
fn merge_runs(runs: &mut [(usize, &[(usize, Event)])]) -> Vec<Event> {
    let mut events = Vec::with_capacity(runs.iter().map(|(_, run)| run.len()).sum());
    while let Some((_, run)) = runs
        .iter_mut()
        .filter(|(_, run)| !run.is_empty())
        .min_by_key(|(offset, run)| (run[0].1.start, offset + run[0].0))
    {
        events.push(run[0].1);
        *run = &run[1..];
    }
    events
}

/// Parses a trace file from a buffered reader (line-at-a-time, constant
/// memory).
///
/// Prefer [`parse_str`]/[`parse_par`] when the trace fits in memory —
/// they borrow from the text instead of copying per line.
///
/// Produces the same events and warnings as [`parse_str`] *modulo
/// symbol numbering*: this streaming path interns merged
/// unfinished/resumed calls at their resumption line, while
/// `parse_str`/`parse_par` defer them behind the complete calls, so
/// two *fresh* interners can assign ids in a different order (resolved
/// strings are always identical, and sharing one interner across both
/// paths yields identical events).
pub fn parse_reader<R: BufRead>(
    reader: &mut R,
    interner: &Interner,
) -> std::io::Result<ParsedTrace> {
    let mut sink = SharedIntern(interner, 0);
    let parsed = read_lines(reader, &mut sink)?;
    st_obs::add("symbols_interned", sink.1 as u64);
    Ok(parsed)
}

/// [`parse_reader`] into any string sink.
pub(crate) fn read_lines<R: BufRead, I: Intern>(
    reader: &mut R,
    sink: &mut I,
) -> std::io::Result<ParsedTrace> {
    let _span = st_obs::span!("strace.parse.stream");
    let mut assembler = LineAssembler::default();
    let mut buf = String::new();
    loop {
        buf.clear();
        if reader.read_line(&mut buf)? == 0 {
            break;
        }
        assembler.feed(&buf, sink);
    }
    Ok(assembler.finish())
}

/// The streaming assembly behind [`StreamParser`] and [`parse_reader`]:
/// each line is classified and matched as it arrives.
#[derive(Default)]
struct LineAssembler {
    collected: Collected,
    matcher: Matcher,
    lineno: usize,
    /// The scratch argument vector, emptied between lines.
    args: Vec<&'static str>,
}

impl LineAssembler {
    fn feed<I: Intern>(&mut self, line: &str, sink: &mut I) {
        self.lineno += 1;
        let line = line.trim_end_matches(['\n', '\r']);
        let mut args = std::mem::take(&mut self.args);
        let step = match classify(self.lineno, line, &mut args, sink) {
            Step::Async(record) => self.matcher.feed((self.lineno, line), &record, &args, sink),
            step => step,
        };
        self.collected.push(self.lineno, step);
        self.args = recycle(args);
    }

    /// Drains never-resumed calls into warnings and returns the
    /// start-sorted trace: strace emits records in completion order, and
    /// merged calls re-enter at their *start* time.
    fn finish(mut self) -> ParsedTrace {
        for w in self.matcher.finish() {
            self.collected.warn(w);
        }
        let parsed = self.collected.finish();
        st_obs::add("events_parsed", parsed.events.len() as u64);
        parsed
    }
}

/// Empties `args` and hands its buffer on, typed for the next line's
/// lifetime: collecting an emptied vector's `into_iter` reuses the
/// allocation in place.
fn recycle<'b>(mut args: Vec<&str>) -> Vec<&'b str> {
    args.clear();
    args.into_iter().map(|_| "").collect()
}

/// Incremental line-at-a-time parser for live ingest.
///
/// [`parse_reader`] owns its input loop; a long-running service does
/// not — lines arrive on sockets, interleaved across connections, and
/// the parser must hand back events *as they complete* so a live DFG
/// can grow between lines. `StreamParser` runs the streaming assembly
/// of [`parse_reader`] (unfinished/resumed merging, capped warnings,
/// final start-sort) behind a push API:
///
/// ```
/// # use std::sync::Arc;
/// # use st_model::Interner;
/// # use st_strace::StreamParser;
/// let interner = Interner::new_shared();
/// let mut p = StreamParser::new(Arc::clone(&interner));
/// p.feed_line("9054 00:00:00.000100 openat(AT_FDCWD, \"/etc/ld.so.cache\", O_RDONLY) = 3 <0.000012>");
/// assert_eq!(p.poll_events().count(), 1); // completed since last poll
/// let parsed = p.finish(); // start-sorted events + warnings
/// assert_eq!(parsed.events.len(), 1);
/// ```
///
/// Events surfaced by [`StreamParser::poll_events`] are in *completion*
/// order (the order strace emitted them); [`StreamParser::finish`]
/// re-sorts by start time exactly like the batch paths, so the final
/// [`ParsedTrace`] matches [`parse_reader`] over the same lines.
pub struct StreamParser {
    interner: Arc<Interner>,
    /// Strings this stream inserted into `interner`.
    inserted: usize,
    assembler: LineAssembler,
    polled: usize,
}

impl StreamParser {
    /// Starts a parser that interns symbols into `interner`.
    pub fn new(interner: Arc<Interner>) -> StreamParser {
        StreamParser {
            interner,
            inserted: 0,
            assembler: LineAssembler::default(),
            polled: 0,
        }
    }

    /// Feeds one trace line (trailing `\n`/`\r` are stripped; line
    /// numbers for warnings count from 1 in feed order).
    pub fn feed_line(&mut self, line: &str) {
        let mut sink = SharedIntern(&self.interner, 0);
        self.assembler.feed(line, &mut sink);
        self.inserted += sink.1;
    }

    /// Iterates over events completed since the previous poll, in
    /// completion order. Purely observational — `finish()` returns the
    /// full sorted trace regardless of polling.
    pub fn poll_events(&mut self) -> impl Iterator<Item = &Event> {
        let events = &self.assembler.collected.events;
        let from = std::mem::replace(&mut self.polled, events.len());
        events[from..].iter().map(|(_, e)| e)
    }

    /// Lines fed so far.
    pub fn lines_fed(&self) -> usize {
        self.assembler.lineno
    }

    /// Events completed so far (polled or not).
    pub fn events_parsed(&self) -> usize {
        self.assembler.collected.events.len()
    }

    /// Ends the stream: drains never-resumed calls into warnings and
    /// returns the start-sorted trace, identical to [`parse_reader`]
    /// over the same lines and interner.
    pub fn finish(self) -> ParsedTrace {
        let parsed = self.assembler.finish();
        st_obs::add("symbols_interned", self.inserted as u64);
        parsed
    }
}

impl std::fmt::Debug for StreamParser {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamParser")
            .field("lines_fed", &self.lines_fed())
            .field("events_parsed", &self.events_parsed())
            .finish_non_exhaustive()
    }
}

fn truncate(s: &str, max: usize) -> String {
    if s.len() <= max {
        return s.to_string();
    }
    let end = (0..=max)
        .rev()
        .find(|&i| s.is_char_boundary(i))
        .unwrap_or(0);
    format!("{}…", &s[..end])
}

/// Converts a complete (or merged) call record with top-level arguments
/// `args` into an [`Event`].
///
/// Unknown calls are kept with interned names, so arbitrary `-e`
/// selections survive. `None` (nothing interned) when the call's end
/// `start + dur` does not fit in `u64` microseconds.
fn call_to_event<I: Intern>(call: &ParsedCall<'_>, args: &[&str], sink: &mut I) -> Option<Event> {
    let dur = call.dur.unwrap_or(Micros::ZERO);
    call.start.0.checked_add(dur.0)?;
    let syscall = Syscall::from_known_name(call.name)
        .unwrap_or_else(|| Syscall::Other(sink.intern_str(call.name)));
    let ok = !call.ret.is_error();

    // File-path resolution (Sec. III item 5): `-y` annotates fd arguments
    // with paths; for open/openat the path is the quoted argument, and on
    // success also annotates the returned descriptor.
    let path: &str = if syscall.is_open_like() {
        call.ret
            .annotation_path()
            .or_else(|| {
                let arg_idx = if syscall == Syscall::Openat { 1 } else { 0 };
                args.get(arg_idx).and_then(|a| scan::quoted_contents(a))
            })
            .unwrap_or("")
    } else {
        // `-y` annotates whichever argument is a descriptor — the first
        // for read/write/lseek, the fifth for mmap, both for dup3; take
        // the first annotated one.
        args.iter()
            .find_map(|a| scan::fd_annotation_path(a))
            .or_else(|| call.ret.annotation_path())
            .unwrap_or("")
    };

    // Transfer size (Sec. III item 6): return value, read/write variants
    // only.
    let size = if syscall.transfers_data() && ok {
        call.ret.value().filter(|v| *v >= 0).map(|v| v as u64)
    } else {
        None
    };

    // Requested bytes: the count argument. For `p{read,write}64` the
    // count is the second-to-last argument (the last is the offset); for
    // vectored I/O the argument is an iovec count, not bytes, so it is
    // not a byte request.
    let requested = match syscall {
        Syscall::Read | Syscall::Write => args.last().and_then(|a| scan::numeric_arg(a)),
        Syscall::Pread64 | Syscall::Pwrite64 => {
            let n = args.len();
            args.get(n.wrapping_sub(2))
                .and_then(|a| scan::numeric_arg(a))
        }
        _ => None,
    };

    // Offset, for calls that carry one.
    let offset = match syscall {
        Syscall::Lseek => {
            if ok {
                call.ret.value().filter(|v| *v >= 0).map(|v| v as u64)
            } else {
                args.get(1).and_then(|a| scan::numeric_arg(a))
            }
        }
        Syscall::Pread64 | Syscall::Pwrite64 => args.last().and_then(|a| scan::numeric_arg(a)),
        _ => None,
    };

    let mut event = Event::new(
        Pid(call.pid.unwrap_or(0)),
        syscall,
        call.start,
        dur,
        sink.intern_str(path),
    );
    event.size = size;
    event.requested = requested;
    event.offset = offset;
    event.ok = ok;
    Some(event)
}

#[cfg(test)]
mod tests {
    use super::*;

    const FIG2A: &str = "\
9054  08:55:54.153994 read(3</usr/lib/x86_64-linux-gnu/libselinux.so.1>, \"...\", 832) = 832 <0.000203>
9054  08:55:54.156640 read(3</usr/lib/x86_64-linux-gnu/libc.so.6>, \"...\", 832) = 832 <0.000079>
9054  08:55:54.159294 read(3</usr/lib/x86_64-linux-gnu/libpcre2-8.so.0.10.4>, \"...\", 832) = 832 <0.000087>
9054  08:55:54.162874 read(3</proc/filesystems>, \"...\", 1024) = 478 <0.000052>
9054  08:55:54.163049 read(3</proc/filesystems>, \"\", 1024) = 0 <0.000040>
9054  08:55:54.163560 read(3</etc/locale.alias>, \"...\", 4096) = 2996 <0.000041>
9054  08:55:54.163679 read(3</etc/locale.alias>, \"\", 4096) = 0 <0.000044>
9054  08:55:54.176260 write(1</dev/pts/7>, \"...\", 50) = 50 <0.000111>
";

    #[test]
    fn parses_fig2a_trace() {
        let i = Interner::new();
        let parsed = parse_str(FIG2A, &i);
        assert!(parsed.warnings.is_empty(), "{:?}", parsed.warnings);
        assert_eq!(parsed.events.len(), 8);
        let snap = i.snapshot();
        let paths: Vec<&str> = parsed.events.iter().map(|e| snap.resolve(e.path)).collect();
        assert_eq!(paths[0], "/usr/lib/x86_64-linux-gnu/libselinux.so.1");
        assert_eq!(paths[7], "/dev/pts/7");
        assert_eq!(parsed.events[0].size, Some(832));
        assert_eq!(parsed.events[0].requested, Some(832));
        assert_eq!(parsed.events[3].size, Some(478));
        assert_eq!(parsed.events[3].requested, Some(1024));
        assert_eq!(parsed.events[4].size, Some(0));
        assert_eq!(parsed.events[7].call, Syscall::Write);
        assert!(parsed.events.windows(2).all(|w| w[0].start <= w[1].start));
        // Total transferred matches the figure: 3x832 + 478 + 0 + 2996 + 0 + 50.
        let total: u64 = parsed.events.iter().filter_map(|e| e.size).sum();
        assert_eq!(total, 3 * 832 + 478 + 2996 + 50);
    }

    #[test]
    fn merges_unfinished_resumed_pair() {
        // Fig. 2c: the unfinished read resumes 229 us later.
        let text = "\
77423  16:56:40.452431 read(3</usr/lib/x86_64-linux-gnu/libselinux.so.1>, <unfinished ...>
77424  16:56:40.452500 read(4</etc/passwd>, \"...\", 100) = 100 <0.000020>
77423  16:56:40.452660 <... read resumed> \"...\", 405) = 404 <0.000223>
";
        let i = Interner::new();
        let parsed = parse_str(text, &i);
        assert!(parsed.warnings.is_empty(), "{:?}", parsed.warnings);
        assert_eq!(parsed.events.len(), 2);
        // The merged event starts at the unfinished timestamp...
        let merged = parsed.events.iter().find(|e| e.pid == Pid(77423)).unwrap();
        assert_eq!(
            merged.start,
            Micros::parse_time_of_day("16:56:40.452431").unwrap()
        );
        // ...and takes duration/size from the resumed record.
        assert_eq!(merged.dur, Micros(223));
        assert_eq!(merged.size, Some(404));
        assert_eq!(merged.requested, Some(405));
        let snap = i.snapshot();
        assert_eq!(
            snap.resolve(merged.path),
            "/usr/lib/x86_64-linux-gnu/libselinux.so.1"
        );
        // Events re-sorted by start: merged comes first.
        assert_eq!(parsed.events[0].pid, Pid(77423));
    }

    #[test]
    fn stream_parser_matches_parse_reader_line_for_line() {
        let text = format!(
            "{}77423  16:56:40.452431 read(3</usr/lib/x>, <unfinished ...>\ngarbage line\n",
            FIG2A
        );
        let shared = Interner::new_shared();
        let reference = {
            let mut r = std::io::BufReader::new(text.as_bytes());
            parse_reader(&mut r, &shared).unwrap()
        };
        let mut sp = StreamParser::new(Arc::clone(&shared));
        let mut polled = 0usize;
        for line in text.lines() {
            sp.feed_line(line);
            polled += sp.poll_events().count();
        }
        assert_eq!(polled, sp.events_parsed());
        assert_eq!(sp.lines_fed(), text.lines().count());
        let streamed = sp.finish();
        assert_eq!(streamed.events, reference.events);
        assert_eq!(streamed.warnings, reference.warnings);
    }

    #[test]
    fn orphan_resumed_is_a_warning() {
        let text = "9  08:00:00.000002 <... read resumed> \"...\", 10) = 10 <0.000001>\n";
        let i = Interner::new();
        let parsed = parse_str(text, &i);
        assert!(parsed.events.is_empty());
        assert_eq!(
            parsed.warnings,
            vec![Warning::OrphanResumed { line: 1, pid: 9 }]
        );
    }

    #[test]
    fn never_resumed_is_a_warning() {
        let text = "9  08:00:00.000002 read(3</x>, <unfinished ...>\n";
        let i = Interner::new();
        let parsed = parse_str(text, &i);
        assert!(parsed.events.is_empty());
        assert_eq!(
            parsed.warnings,
            vec![Warning::NeverResumed {
                pid: 9,
                call: "read".into()
            }]
        );
    }

    #[test]
    fn erestartsys_records_are_dropped_with_warning() {
        let text = "9  08:00:00.000002 read(3</x>, \"\", 10) = ? ERESTARTSYS (To be restarted)\n\
9  08:00:00.000005 read(3</x>, \"\", 10) = 0 <0.000001>\n";
        let i = Interner::new();
        let parsed = parse_str(text, &i);
        assert_eq!(parsed.events.len(), 1);
        assert_eq!(parsed.warnings, vec![Warning::Restarted { line: 1 }]);
    }

    #[test]
    fn erestartsys_resumed_record_drops_its_unfinished_call() {
        // The interrupted read of /a ends at line 2; the re-issued read
        // of /b is merged with its own resumption only.
        let text = "\
9  08:00:00.000001 read(3</a>, <unfinished ...>
9  08:00:00.000002 <... read resumed> \"\", 10) = ? ERESTARTSYS (To be restarted) <0.000004>
9  08:00:00.000003 read(3</b>, <unfinished ...>
9  08:00:00.000009 <... read resumed> \"x\", 10) = 1 <0.000006>
";
        let want_start = Micros::parse_time_of_day("08:00:00.000003").unwrap();
        let check = |parsed: &ParsedTrace, i: &Interner| {
            assert_eq!(parsed.warnings, vec![Warning::Restarted { line: 2 }]);
            assert_eq!(parsed.events.len(), 1);
            let ev = parsed.events[0];
            assert_eq!(&*i.resolve(ev.path), "/b");
            assert_eq!(
                (ev.start, ev.dur, ev.size),
                (want_start, Micros(6), Some(1))
            );
        };
        let i = Interner::new();
        check(&parse_str(text, &i), &i);
        for threads in [2, 3] {
            let i = Interner::new();
            check(&parse_par(text, &i, threads), &i);
        }
        let i = Interner::new();
        check(&parse_reader(&mut text.as_bytes(), &i).unwrap(), &i);
    }

    /// Every parse path's output over `text`, each from a fresh table.
    fn every_path(text: &str) -> Vec<ParsedTrace> {
        let mut out = vec![parse_str(text, &Interner::new())];
        out.extend([2, 3].map(|threads| parse_par(text, &Interner::new(), threads)));
        out.push(parse_reader(&mut text.as_bytes(), &Interner::new()).unwrap());
        out
    }

    #[test]
    fn duration_past_u64_micros_is_unparsable() {
        // 18446744073710 s is past u64 microseconds; the unchecked
        // scaling wrapped it to 0.448384 s.
        let line = "9  00:00:00.000000 read(3</x>, \"\", 10) = 1 <18446744073710.000000>";
        for parsed in every_path(&format!("{line}\n")) {
            assert!(parsed.events.is_empty(), "{:?}", parsed.events);
            assert_eq!(
                parsed.warnings,
                vec![Warning::UnparsableLine {
                    line: 1,
                    text: line.to_string()
                }]
            );
        }
    }

    #[test]
    fn call_whose_end_overflows_is_unparsable() {
        // The duration fits in u64 microseconds; start + dur does not.
        // Complete and merged calls alike, and no event is kept whose
        // `Event::end` would overflow.
        let text = "\
9  08:00:00.000001 read(3</x>, \"\", 10) = 1 <18446744073709.000000>
9  08:00:00.000002 read(3</y>, <unfinished ...>
9  08:00:00.000003 <... read resumed> \"\", 10) = 1 <18446744073709.000000>
9  08:00:00.000004 read(3</z>, \"\", 10) = 1 <0.000001>
";
        for parsed in every_path(text) {
            assert_eq!(parsed.events.len(), 1);
            assert_eq!(parsed.events[0].end().0, parsed.events[0].start.0 + 1);
            let lines: Vec<usize> = parsed
                .warnings
                .iter()
                .map(|w| match w {
                    Warning::UnparsableLine { line, .. } => *line,
                    other => panic!("unexpected {other:?}"),
                })
                .collect();
            assert_eq!(lines, [1, 3]);
        }
    }

    #[test]
    fn garbage_lines_become_warnings() {
        let text = "complete garbage\n9  08:00:00.000005 read(3</x>, \"\", 10) = 0 <0.000001>\n";
        let i = Interner::new();
        let parsed = parse_str(text, &i);
        assert_eq!(parsed.events.len(), 1);
        assert!(matches!(
            parsed.warnings[0],
            Warning::UnparsableLine { line: 1, .. }
        ));
    }

    #[test]
    fn openat_success_and_failure_paths() {
        let text = "\
9 08:00:00.000001 openat(AT_FDCWD, \"/opt/sw/lib/libfoo.so\", O_RDONLY|O_CLOEXEC) = -1 ENOENT (No such file or directory) <0.000006>
9 08:00:00.000010 openat(AT_FDCWD, \"/usr/lib/libfoo.so\", O_RDONLY|O_CLOEXEC) = 3</usr/lib/libfoo.so> <0.000014>
";
        let i = Interner::new();
        let parsed = parse_str(text, &i);
        assert_eq!(parsed.events.len(), 2);
        let snap = i.snapshot();
        assert_eq!(snap.resolve(parsed.events[0].path), "/opt/sw/lib/libfoo.so");
        assert!(!parsed.events[0].ok);
        assert_eq!(parsed.events[0].size, None);
        assert_eq!(snap.resolve(parsed.events[1].path), "/usr/lib/libfoo.so");
        assert!(parsed.events[1].ok);
        assert_eq!(parsed.events[1].size, None); // openat is not a transfer
    }

    #[test]
    fn lseek_offset_and_pwrite_offset() {
        let text = "\
9 08:00:00.000001 lseek(3</scratch/t>, 16777216, SEEK_SET) = 16777216 <0.000002>
9 08:00:00.000010 pwrite64(3</scratch/t>, \"...\"..., 1048576, 33554432) = 1048576 <0.000300>
";
        let i = Interner::new();
        let parsed = parse_str(text, &i);
        assert_eq!(parsed.events[0].offset, Some(16777216));
        assert_eq!(parsed.events[0].size, None);
        assert_eq!(parsed.events[1].offset, Some(33554432));
        assert_eq!(parsed.events[1].requested, Some(1048576));
        assert_eq!(parsed.events[1].size, Some(1048576));
    }

    #[test]
    fn exit_and_signal_lines_are_skipped_silently() {
        let text = "\
9 08:00:00.000001 read(3</x>, \"\", 10) = 0 <0.000001>
9 08:00:00.000002 --- SIGCHLD {si_signo=SIGCHLD} ---
9 08:00:00.000003 +++ exited with 0 +++
";
        let i = Interner::new();
        let parsed = parse_str(text, &i);
        assert_eq!(parsed.events.len(), 1);
        assert!(parsed.warnings.is_empty());
    }

    #[test]
    fn reader_api_matches_str_api() {
        let i1 = Interner::new();
        let i2 = Interner::new();
        let from_str = parse_str(FIG2A, &i1);
        let mut cursor = std::io::Cursor::new(FIG2A.as_bytes());
        let from_reader = parse_reader(&mut cursor, &i2).unwrap();
        assert_eq!(from_str.events.len(), from_reader.events.len());
        for (a, b) in from_str.events.iter().zip(&from_reader.events) {
            assert_eq!(a.start, b.start);
            assert_eq!(a.size, b.size);
            assert_eq!(i1.snapshot().resolve(a.path), i2.snapshot().resolve(b.path));
        }
    }

    #[test]
    fn unknown_syscalls_are_kept() {
        let text = "9 08:00:00.000001 statx(AT_FDCWD, \"/x\", 0, STATX_ALL, {stx_mask=4095}) = 0 <0.000002>\n";
        let i = Interner::new();
        let parsed = parse_str(text, &i);
        assert_eq!(parsed.events.len(), 1);
        match parsed.events[0].call {
            Syscall::Other(sym) => assert_eq!(&*i.resolve(sym), "statx"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn split_chunks_cuts_at_line_boundaries_and_covers_text() {
        let text = "line one\nline two\nline three\nline four\n";
        for n in 1..=8 {
            let chunks = split_chunks(text, n);
            assert_eq!(chunks.len(), n);
            assert_eq!(chunks.concat(), text, "n={n}");
            for chunk in &chunks {
                assert!(
                    chunk.is_empty()
                        || chunk.ends_with('\n')
                        || !chunk.contains('\n')
                        || *chunk == &text[text.len() - chunk.len()..]
                );
            }
        }
        // Trailing partial line (no final newline).
        let no_nl = "a\nb\nc";
        for n in 1..=4 {
            assert_eq!(split_chunks(no_nl, n).concat(), no_nl);
        }
        assert_eq!(split_chunks("", 4).concat(), "");
    }

    #[test]
    fn parse_par_matches_parse_str_on_fig2a() {
        for threads in [2, 3, 8, 17] {
            let i1 = Interner::new();
            let i2 = Interner::new();
            let seq = parse_str(FIG2A, &i1);
            let par = parse_par(FIG2A, &i2, threads);
            // Byte-for-byte: same events including symbol ids, because
            // both paths intern in the same canonical order.
            assert_eq!(seq.events, par.events, "threads={threads}");
            assert_eq!(seq.warnings, par.warnings);
        }
    }

    #[test]
    fn parse_par_merges_unfinished_across_chunks() {
        // Enough filler that the unfinished/resumed pair straddles chunk
        // boundaries for every thread count.
        let mut text =
            String::from("7  08:00:00.000001 read(3</straddle/first>, <unfinished ...>\n");
        for k in 0..40 {
            text.push_str(&format!(
                "9  08:00:00.{:06} read(3</filler/f{}>, \"...\", 64) = 64 <0.000002>\n",
                100 + k,
                k % 5
            ));
        }
        text.push_str("7  08:00:00.000500 <... read resumed> \"...\", 405) = 404 <0.000223>\n");
        for threads in [2, 3, 5, 8] {
            let i1 = Interner::new();
            let i2 = Interner::new();
            let seq = parse_str(&text, &i1);
            let par = parse_par(&text, &i2, threads);
            assert_eq!(seq.events, par.events, "threads={threads}");
            assert_eq!(seq.warnings, par.warnings);
            // The merged event exists, starts first, carries resumed data.
            assert_eq!(par.events.len(), 41);
            assert_eq!(par.events[0].pid, Pid(7));
            assert_eq!(par.events[0].size, Some(404));
            let snap = i2.snapshot();
            assert_eq!(snap.resolve(par.events[0].path), "/straddle/first");
        }
    }

    #[test]
    fn parse_par_warning_lines_are_global() {
        let mut text = String::new();
        for k in 0..30 {
            text.push_str(&format!(
                "9  08:00:00.{:06} read(3</f{}>, \"\", 8) = 0 <0.000001>\n",
                k + 1,
                k % 3
            ));
        }
        text.push_str("garbage at line 31\n");
        text.push_str("9  08:00:00.000100 <... write resumed> \"\", 8) = 8 <0.000001>\n");
        text.push_str("9  08:00:00.000200 openat(AT_FDCWD, <unfinished ...>\n");
        for threads in [2, 4, 7] {
            let i = Interner::new();
            let par = parse_par(&text, &i, threads);
            assert_eq!(
                par.warnings,
                vec![
                    Warning::UnparsableLine {
                        line: 31,
                        text: "garbage at line 31".into()
                    },
                    Warning::OrphanResumed { line: 32, pid: 9 },
                    Warning::NeverResumed {
                        pid: 9,
                        call: "openat".into()
                    },
                ],
                "threads={threads}"
            );
        }
    }

    #[test]
    fn parse_par_fifo_matching_spans_chunks() {
        // Two outstanding reads for the same pid; sequential semantics
        // match them first-in-first-out even when the pendings sit in
        // different chunks than their resumptions.
        let mut text = String::from("5  08:00:00.000001 read(3</fifo/a>, <unfinished ...>\n");
        for k in 0..20 {
            text.push_str(&format!(
                "9  08:00:00.{:06} write(1</dev/pts/7>, \"...\", 8) = 8 <0.000001>\n",
                100 + k
            ));
        }
        text.push_str("5  08:00:00.000300 read(4</fifo/b>, <unfinished ...>\n");
        for k in 0..20 {
            text.push_str(&format!(
                "9  08:00:00.{:06} write(1</dev/pts/7>, \"...\", 8) = 8 <0.000001>\n",
                400 + k
            ));
        }
        text.push_str("5  08:00:00.000600 <... read resumed> \"...\", 10) = 10 <0.000001>\n");
        text.push_str("5  08:00:00.000700 <... read resumed> \"...\", 20) = 20 <0.000001>\n");
        for threads in [1, 2, 3, 6] {
            let i = Interner::new();
            let parsed = parse_par(&text, &i, threads);
            assert!(
                parsed.warnings.is_empty(),
                "threads={threads}: {:?}",
                parsed.warnings
            );
            let snap = i.snapshot();
            let reads: Vec<(&str, Option<u64>)> = parsed
                .events
                .iter()
                .filter(|e| e.pid == Pid(5))
                .map(|e| (snap.resolve(e.path), e.size))
                .collect();
            // FIFO: the first resumed completes /fifo/a, the second /fifo/b.
            assert_eq!(
                reads,
                vec![("/fifo/a", Some(10)), ("/fifo/b", Some(20))],
                "threads={threads}"
            );
        }
    }

    #[test]
    fn parse_par_zero_threads_uses_available_parallelism() {
        let i = Interner::new();
        let parsed = parse_par(FIG2A, &i, 0);
        assert_eq!(parsed.events.len(), 8);
    }

    /// A non-trace input: every line raises a warning; interleave a few
    /// real events so the parse itself still produces output.
    fn flood_text(lines: usize) -> String {
        let mut text = String::new();
        for k in 0..lines {
            if k % 50 == 7 {
                text.push_str(&format!(
                    "9  08:00:00.{:06} read(3</f{}>, \"\", 8) = 0 <0.000001>\n",
                    k + 1,
                    k % 3
                ));
            } else {
                text.push_str(&format!("this is not strace output, line {}\n", k + 1));
            }
        }
        text
    }

    #[test]
    fn warning_flood_is_capped_with_summary() {
        let lines = 1000;
        let i = Interner::new();
        let parsed = parse_str(&flood_text(lines), &i);
        let raised = lines - lines / 50; // every 50th line is a real event
        assert_eq!(parsed.warnings.len(), WARNING_CAP + 1);
        // First WARNING_CAP warnings are the lowest-line exemplars…
        for w in &parsed.warnings[..WARNING_CAP] {
            match w {
                Warning::UnparsableLine { line, .. } => assert!(*line <= WARNING_CAP + 3),
                other => panic!("unexpected {other:?}"),
            }
        }
        // …and the trailer keeps the full count.
        assert_eq!(
            parsed.warnings[WARNING_CAP],
            Warning::Suppressed {
                count: raised - WARNING_CAP
            }
        );
        let rendered = parsed.warnings[WARNING_CAP].to_string();
        assert!(rendered.contains("more warnings suppressed"), "{rendered}");
    }

    #[test]
    fn capped_warnings_are_identical_across_parse_paths() {
        let text = flood_text(700);
        for threads in [2, 3, 8] {
            let i1 = Interner::new();
            let i2 = Interner::new();
            let seq = parse_str(&text, &i1);
            let par = parse_par(&text, &i2, threads);
            assert_eq!(seq.events, par.events, "threads={threads}");
            assert_eq!(seq.warnings, par.warnings, "threads={threads}");
        }
        let i3 = Interner::new();
        let mut cursor = std::io::Cursor::new(text.as_bytes());
        let streamed = parse_reader(&mut cursor, &i3).unwrap();
        let i1 = Interner::new();
        let seq = parse_str(&text, &i1);
        assert_eq!(seq.warnings, streamed.warnings);
        assert_eq!(seq.events.len(), streamed.events.len());
    }

    #[test]
    fn cap_boundary_has_no_spurious_summary() {
        // Exactly WARNING_CAP warnings: all retained, no Suppressed row.
        let mut text = String::new();
        for k in 0..WARNING_CAP {
            text.push_str(&format!("garbage {k}\n"));
        }
        let i = Interner::new();
        let parsed = parse_str(&text, &i);
        assert_eq!(parsed.warnings.len(), WARNING_CAP);
        assert!(!parsed
            .warnings
            .iter()
            .any(|w| matches!(w, Warning::Suppressed { .. })));
        // One past the cap: WARNING_CAP exemplars + a count of 1.
        text.push_str("garbage overflow\n");
        let parsed = parse_str(&text, &Interner::new());
        assert_eq!(parsed.warnings.len(), WARNING_CAP + 1);
        assert_eq!(
            parsed.warnings[WARNING_CAP],
            Warning::Suppressed { count: 1 }
        );
    }
}
