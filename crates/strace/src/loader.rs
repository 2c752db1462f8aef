//! Loading directories of trace files into an [`EventLog`].
//!
//! The paper's setup produces one trace file per MPI process (Fig. 1);
//! production runs produce hundreds of files (96 ranks per IOR mode in
//! Sec. V). Parsing is embarrassingly parallel across files: workers
//! (the calling thread and spawned ones) claim files in turn, read each
//! into memory once and parse it zero-copy as [`crate::parse_str`]
//! does. Each worker interns into a table of its own and notes the
//! order in which each file first used its strings; the calling thread
//! then interns the files' new strings into the shared [`Interner`]
//! file by file, in that order — a sequential load's order, so every
//! worker count loads the same log, symbol ids included. With fewer
//! files than workers (e.g. one huge trace), the spare parallelism is
//! spent *inside* the file via [`crate::parse_par`] instead.

use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use st_model::{Case, CaseMeta, EventLog, Interner, LocalInterner, Symbol};

use crate::error::{StraceError, Warning};
use crate::parser::{parse_par, parse_text, publish, read_lines, remap, Intern, ParsedTrace};

/// Options for [`load_dir`] / [`load_files`].
#[derive(Debug, Clone)]
pub struct LoadOptions {
    /// Worker count; `0` uses the machine's available parallelism and
    /// `1` parses sequentially on the calling thread. Every worker count
    /// loads the same log, symbol ids included.
    pub threads: usize,
    /// Fail on file names that do not follow the `<cid>_<host>_<rid>.st`
    /// convention. When `false`, a fallback identity (cid = file stem,
    /// host = `local`, rid = position) is synthesized.
    pub strict_names: bool,
    /// Only consider files with this extension in [`load_dir`].
    pub extension: String,
    /// Stream each file line-at-a-time (constant memory per worker)
    /// instead of reading it into memory for the zero-copy parse.
    /// Slower, but bounds peak memory to one line per worker — use it
    /// when `workers × file size` would not fit in RAM.
    pub streaming: bool,
}

impl Default for LoadOptions {
    fn default() -> Self {
        LoadOptions {
            threads: 0,
            strict_names: false,
            extension: "st".to_string(),
            streaming: false,
        }
    }
}

/// A loaded event log plus per-file warnings.
#[derive(Debug)]
pub struct LoadResult {
    /// The assembled log (one case per file, sorted by file name).
    pub log: EventLog,
    /// Warnings keyed by originating file.
    pub warnings: Vec<(PathBuf, Warning)>,
}

/// Loads every `*.st` trace file in `dir` (non-recursive), in
/// deterministic (name-sorted) case order.
pub fn load_dir(
    dir: &Path,
    interner: Arc<Interner>,
    opts: &LoadOptions,
) -> Result<LoadResult, StraceError> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|source| StraceError::Io {
            path: dir.to_path_buf(),
            source,
        })?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| {
            p.is_file()
                && p.extension()
                    .and_then(|e| e.to_str())
                    .is_some_and(|e| e == opts.extension)
        })
        .collect();
    files.sort();
    load_files(&files, interner, opts)
}

/// Loads an explicit list of trace files, preserving list order.
pub fn load_files(
    files: &[PathBuf],
    interner: Arc<Interner>,
    opts: &LoadOptions,
) -> Result<LoadResult, StraceError> {
    let _span = st_obs::span!("strace.load", files = files.len());
    // Resolve case identities up front so naming errors surface before
    // any parsing work.
    let mut metas = Vec::with_capacity(files.len());
    for (idx, path) in files.iter().enumerate() {
        let name = path.file_name().and_then(|n| n.to_str());
        let name = name.unwrap_or_default();
        metas.push(match CaseMeta::parse_trace_file_name(name, &interner) {
            Some(meta) => meta,
            None if opts.strict_names => {
                let name = name.to_string();
                return Err(StraceError::BadFileName { name });
            }
            None => CaseMeta {
                cid: interner.intern(path.file_stem().and_then(|s| s.to_str()).unwrap_or("trace")),
                host: interner.intern("local"),
                rid: idx as u32,
            },
        });
    }

    // `requested` is the total worker budget; `n_workers` caps the
    // across-files fan-out at the file count. When the budget exceeds
    // what files alone can use, the surplus moves *inside* each file.
    let requested = match opts.threads {
        0 => std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        n => n,
    };
    let n_workers = requested.min(files.len().max(1));

    let parsed = if requested > 1 && files.len() * 2 <= requested && !opts.streaming {
        // Fewer files than workers can fill: spend the parallelism
        // *inside* each file (chunked parse) instead of across files.
        files
            .iter()
            .map(|path| {
                let _span = st_obs::span_with("strace.file", || path.display().to_string());
                Ok(parse_par(&read_text(path)?, &interner, requested))
            })
            .collect::<Result<Vec<_>, StraceError>>()?
    } else {
        parse_files(files, &interner, n_workers, opts.streaming)?
    };

    let mut log = EventLog::new(interner);
    let mut warnings = Vec::new();
    for ((path, meta), trace) in files.iter().zip(metas).zip(parsed) {
        warnings.extend(trace.warnings.into_iter().map(|w| (path.clone(), w)));
        log.push_case(Case {
            meta,
            events: trace.events,
        });
    }
    Ok(LoadResult { log, warnings })
}

/// A loader worker's string table: one [`LocalInterner`] for the
/// worker's whole life, plus the order in which each file it parsed
/// first used its symbols.
#[derive(Default)]
struct WorkerTable {
    table: LocalInterner,
    /// Per local symbol, the stamp of the last file that used it.
    stamp: Vec<u32>,
    /// The current file's stamp (its index plus one; 0 is "none").
    file: u32,
    /// Every file's symbols in first-use order, file after file. One
    /// growing buffer, not one per file: small long-lived buffers
    /// between the freed file texts fragment the worker's malloc arena.
    first_use: Vec<Symbol>,
}

impl Intern for WorkerTable {
    #[inline]
    fn intern_str(&mut self, s: &str) -> Symbol {
        let sym = self.table.intern(s);
        if sym.index() == self.stamp.len() {
            self.stamp.push(0);
        }
        if self.stamp[sym.index()] != self.file {
            self.stamp[sym.index()] = self.file;
            self.first_use.push(sym);
        }
        sym
    }
}

/// A parsed file: its trace in worker-local symbols, its worker, and
/// its span of the worker's `first_use`.
type Parsed = (ParsedTrace, usize, Range<usize>);

/// Parses `files` on `n_workers` workers (the calling thread and
/// `n_workers - 1` spawned ones), each into its own [`WorkerTable`],
/// then publishes the tables into `interner`.
fn parse_files(
    files: &[PathBuf],
    interner: &Interner,
    n_workers: usize,
    streaming: bool,
) -> Result<Vec<ParsedTrace>, StraceError> {
    let next = AtomicUsize::new(0);
    let work = || {
        let (mut sink, mut parsed) = (WorkerTable::default(), Vec::new());
        loop {
            let idx = next.fetch_add(1, Ordering::Relaxed);
            let Some(path) = files.get(idx) else { break };
            sink.file = idx as u32 + 1;
            let from = sink.first_use.len();
            let result = parse_one(path, &mut sink, streaming);
            parsed.push((idx, result.map(|trace| (trace, from..sink.first_use.len()))));
        }
        (sink, parsed)
    };
    let obs_cx = st_obs::context();
    let workers = std::thread::scope(|scope| {
        let spawned: Vec<_> = (1..n_workers)
            .map(|_| {
                let (obs_cx, work) = (obs_cx.clone(), &work);
                scope.spawn(move || {
                    let _obs = obs_cx.attach();
                    work()
                })
            })
            .collect();
        let mut workers = vec![work()];
        workers.extend(
            spawned
                .into_iter()
                .map(|h| h.join().expect("loader worker panicked")),
        );
        workers
    });

    // The first failed file's error, in file order, is the load's.
    let mut slots: Vec<Option<Result<Parsed, StraceError>>> =
        (0..files.len()).map(|_| None).collect();
    let mut tables = Vec::with_capacity(workers.len());
    for (worker, (table, parsed)) in workers.into_iter().enumerate() {
        tables.push(table);
        for (idx, result) in parsed {
            slots[idx] = Some(result.map(|(trace, span)| (trace, worker, span)));
        }
    }
    let slots = slots
        .into_iter()
        .map(|slot| slot.expect("every file parsed"))
        .collect::<Result<Vec<_>, _>>()?;

    // Publish file by file, in file order, each file's symbols in its
    // first-use order; then rewrite every file's events.
    let locals: Vec<&LocalInterner> = tables.iter().map(|t| &t.table).collect();
    let uses = slots.iter().flat_map(|(_, worker, span)| {
        let first_use = &tables[*worker].first_use[span.clone()];
        first_use.iter().map(move |&sym| (*worker, sym))
    });
    let maps = publish(interner, &locals, uses);
    Ok(slots
        .into_iter()
        .map(|(mut trace, worker, _)| {
            let map = &maps[worker];
            trace.events.iter_mut().for_each(|ev| remap(ev, map));
            trace
        })
        .collect())
}

/// Parses one file into `sink`, streamed or read whole.
fn parse_one<I: Intern>(
    path: &Path,
    sink: &mut I,
    streaming: bool,
) -> Result<ParsedTrace, StraceError> {
    let _span = st_obs::span_with("strace.file", || path.display().to_string());
    if streaming {
        // Constant memory: one buffered line at a time.
        let io = |source| StraceError::Io {
            path: path.to_path_buf(),
            source,
        };
        let file = std::fs::File::open(path).map_err(io)?;
        return read_lines(&mut std::io::BufReader::new(file), sink).map_err(io);
    }
    // One read into memory, then a zero-copy parse over the buffer —
    // cheaper than the line-at-a-time loop, which copies every line,
    // at the cost of holding the file text (peak memory is
    // `workers x file size`; `streaming` bounds it instead).
    Ok(parse_text(&read_text(path)?, sink))
}

fn read_text(path: &Path) -> Result<String, StraceError> {
    std::fs::read_to_string(path).map_err(|source| StraceError::Io {
        path: path.to_path_buf(),
        source,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write as _;

    fn write_tmp_traces(dir: &Path) {
        std::fs::create_dir_all(dir).unwrap();
        for (name, pid) in [
            ("a_host1_9042.st", 9054),
            ("a_host1_9043.st", 9055),
            ("b_host1_9157.st", 9173),
        ] {
            let mut f = std::fs::File::create(dir.join(name)).unwrap();
            writeln!(
                f,
                "{pid}  08:55:54.153994 read(3</usr/lib/libc.so.6>, \"...\", 832) = 832 <0.000203>"
            )
            .unwrap();
            writeln!(
                f,
                "{pid}  08:55:54.176260 write(1</dev/pts/7>, \"...\", 50) = 50 <0.000111>"
            )
            .unwrap();
            writeln!(f, "{pid}  08:55:54.200000 +++ exited with 0 +++").unwrap();
        }
        // A decoy file that must be ignored by extension filtering.
        std::fs::write(dir.join("notes.txt"), "not a trace").unwrap();
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("st-loader-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn loads_directory_in_name_order() {
        let dir = tmpdir("order");
        write_tmp_traces(&dir);
        let interner = Interner::new_shared();
        let result = load_dir(&dir, Arc::clone(&interner), &LoadOptions::default()).unwrap();
        assert_eq!(result.log.case_count(), 3);
        assert_eq!(result.log.total_events(), 6);
        assert!(result.warnings.is_empty());
        let labels: Vec<String> = result
            .log
            .cases()
            .iter()
            .map(|c| c.meta.label(&interner))
            .collect();
        assert_eq!(labels, vec!["a9042", "a9043", "b9157"]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sequential_and_parallel_agree() {
        let dir = tmpdir("par");
        write_tmp_traces(&dir);
        let seq_interner = Interner::new_shared();
        let seq = load_dir(
            &dir,
            Arc::clone(&seq_interner),
            &LoadOptions {
                threads: 1,
                ..Default::default()
            },
        )
        .unwrap();
        let par_interner = Interner::new_shared();
        let par = load_dir(
            &dir,
            Arc::clone(&par_interner),
            &LoadOptions {
                threads: 4,
                ..Default::default()
            },
        )
        .unwrap();
        // Raw symbol ids included: the workers' tables are published
        // in file order.
        assert_eq!(seq.log.cases(), par.log.cases());
        assert_eq!(seq_interner.len(), par_interner.len());
        let (a, b) = (seq_interner.snapshot(), par_interner.snapshot());
        for sym in (0..a.len() as u32).map(Symbol) {
            assert_eq!(a.resolve(sym), b.resolve(sym));
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn single_large_file_takes_the_chunked_path() {
        // One file with a big worker budget routes through parse_par
        // (files.len() * 2 <= requested) and must match the sequential
        // load event-for-event.
        let dir = tmpdir("chunked");
        std::fs::create_dir_all(&dir).unwrap();
        let mut body = String::new();
        for k in 0..200 {
            body.push_str(&format!(
                "9  08:00:00.{:06} read(3</lib/f{}>, \"...\", 64) = 64 <0.000002>\n",
                k + 1,
                k % 7
            ));
        }
        std::fs::write(dir.join("a_h_1.st"), &body).unwrap();
        let seq = load_dir(
            &dir,
            Interner::new_shared(),
            &LoadOptions {
                threads: 1,
                ..Default::default()
            },
        )
        .unwrap();
        let par = load_dir(
            &dir,
            Interner::new_shared(),
            &LoadOptions {
                threads: 8,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(par.log.total_events(), 200);
        for (a, b) in seq.log.cases().iter().zip(par.log.cases()) {
            assert_eq!(a.events, b.events);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn streaming_load_matches_in_memory_load() {
        let dir = tmpdir("streaming");
        write_tmp_traces(&dir);
        let fast = load_dir(&dir, Interner::new_shared(), &LoadOptions::default()).unwrap();
        let slow = load_dir(
            &dir,
            Interner::new_shared(),
            &LoadOptions {
                streaming: true,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(fast.log.case_count(), slow.log.case_count());
        assert_eq!(fast.log.total_events(), slow.log.total_events());
        for (a, b) in fast.log.cases().iter().zip(slow.log.cases()) {
            for (x, y) in a.events.iter().zip(&b.events) {
                assert_eq!(x.start, y.start);
                assert_eq!(x.size, y.size);
                assert_eq!(x.call, y.call);
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn strict_names_rejects_nonconforming() {
        let dir = tmpdir("strict");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("badname.st"), "").unwrap();
        let err = load_dir(
            &dir,
            Interner::new_shared(),
            &LoadOptions {
                strict_names: true,
                ..Default::default()
            },
        )
        .unwrap_err();
        assert!(matches!(err, StraceError::BadFileName { .. }));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn lenient_names_synthesize_identity() {
        let dir = tmpdir("lenient");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(
            dir.join("badname.st"),
            "9 08:00:00.000001 read(3</x>, \"\", 10) = 0 <0.000001>\n",
        )
        .unwrap();
        let interner = Interner::new_shared();
        let result = load_dir(&dir, Arc::clone(&interner), &LoadOptions::default()).unwrap();
        assert_eq!(result.log.case_count(), 1);
        let meta = result.log.cases()[0].meta;
        assert_eq!(&*interner.resolve(meta.cid), "badname");
        assert_eq!(&*interner.resolve(meta.host), "local");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_directory_is_io_error() {
        let err = load_dir(
            Path::new("/nonexistent/st-inspector-test"),
            Interner::new_shared(),
            &LoadOptions::default(),
        )
        .unwrap_err();
        assert!(matches!(err, StraceError::Io { .. }));
    }

    #[test]
    fn per_file_warning_flood_is_bounded() {
        // Two non-trace files: each contributes at most WARNING_CAP
        // exemplars plus one Suppressed trailer carrying the overflow
        // count, so loading a directory of garbage cannot balloon
        // memory with warning text.
        use crate::error::WARNING_CAP;
        let dir = tmpdir("flood");
        std::fs::create_dir_all(&dir).unwrap();
        for name in ["a_h_1.st", "b_h_2.st"] {
            let mut body = String::new();
            for k in 0..500 {
                body.push_str(&format!("not a trace line {k}\n"));
            }
            std::fs::write(dir.join(name), &body).unwrap();
        }
        let result = load_dir(&dir, Interner::new_shared(), &LoadOptions::default()).unwrap();
        assert_eq!(result.warnings.len(), 2 * (WARNING_CAP + 1));
        for file in ["a_h_1.st", "b_h_2.st"] {
            let ours: Vec<&Warning> = result
                .warnings
                .iter()
                .filter(|(p, _)| p.ends_with(file))
                .map(|(_, w)| w)
                .collect();
            assert_eq!(ours.len(), WARNING_CAP + 1);
            assert_eq!(
                *ours[WARNING_CAP],
                Warning::Suppressed {
                    count: 500 - WARNING_CAP
                }
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn warnings_carry_file_attribution() {
        let dir = tmpdir("warn");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(
            dir.join("a_h_1.st"),
            "garbage line\n9 08:00:00.000001 read(3</x>, \"\", 10) = 0 <0.000001>\n",
        )
        .unwrap();
        let result = load_dir(&dir, Interner::new_shared(), &LoadOptions::default()).unwrap();
        assert_eq!(result.warnings.len(), 1);
        assert!(result.warnings[0].0.ends_with("a_h_1.st"));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
