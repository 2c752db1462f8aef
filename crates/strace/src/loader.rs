//! Loading directories of trace files into an [`EventLog`].
//!
//! The paper's setup produces one trace file per MPI process (Fig. 1);
//! production runs produce hundreds of files (96 ranks per IOR mode in
//! Sec. V). Parsing is embarrassingly parallel across files, so the
//! loader fans the file list out to a pool of worker threads (results
//! re-ordered for determinism). Each file is read into memory once and
//! parsed zero-copy with [`crate::parse_str`]; when there are fewer
//! files than workers (e.g. one huge trace), the spare parallelism is
//! spent *inside* the file via [`crate::parse_par`] instead. All
//! workers intern into the same shared [`Interner`].

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};

use st_model::{Case, CaseMeta, EventLog, Interner};

use crate::error::{StraceError, Warning};
use crate::parser::{parse_par, parse_reader, parse_str};

/// Options for [`load_dir`] / [`load_files`].
#[derive(Debug, Clone)]
pub struct LoadOptions {
    /// Worker count; `0` uses the machine's available parallelism and
    /// `1` parses sequentially on the calling thread.
    ///
    /// A parallel load holds the same data as a sequential one, but its
    /// symbol ids (and so the string table of a store written from it)
    /// can differ: workers intern into the shared [`Interner`]
    /// concurrently, so first-use order follows thread scheduling.
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
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or_default();
        match CaseMeta::parse_trace_file_name(name, &interner) {
            Some(meta) => metas.push(meta),
            None if opts.strict_names => {
                return Err(StraceError::BadFileName {
                    name: name.to_string(),
                })
            }
            None => {
                let stem = path.file_stem().and_then(|s| s.to_str()).unwrap_or("trace");
                metas.push(CaseMeta {
                    cid: interner.intern(stem),
                    host: interner.intern("local"),
                    rid: idx as u32,
                });
            }
        }
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

    let mut slots: Vec<Option<(Case, Vec<Warning>)>> = (0..files.len()).map(|_| None).collect();

    if requested <= 1 {
        for (idx, path) in files.iter().enumerate() {
            slots[idx] = Some(parse_one(path, metas[idx], &interner, 1, opts.streaming)?);
        }
    } else if files.len() * 2 <= requested && !opts.streaming {
        // Fewer files than workers can fill: spend the parallelism
        // *inside* each file (chunked parse) instead of across files.
        for (idx, path) in files.iter().enumerate() {
            slots[idx] = Some(parse_one(path, metas[idx], &interner, requested, false)?);
        }
    } else {
        let next = AtomicUsize::new(0);
        let (tx, rx) = mpsc::channel::<(usize, Result<(Case, Vec<Warning>), StraceError>)>();
        let obs_cx = st_obs::context();
        std::thread::scope(|scope| {
            for _ in 0..n_workers {
                let tx = tx.clone();
                let next = &next;
                let interner = &interner;
                let files = &files;
                let metas = &metas;
                let obs_cx = obs_cx.clone();
                scope.spawn(move || {
                    let _obs = obs_cx.attach();
                    loop {
                        let idx = next.fetch_add(1, Ordering::Relaxed);
                        if idx >= files.len() {
                            break;
                        }
                        let result =
                            parse_one(&files[idx], metas[idx], interner, 1, opts.streaming);
                        if tx.send((idx, result)).is_err() {
                            break;
                        }
                    }
                });
            }
            drop(tx);
            for (idx, result) in rx {
                slots[idx] = Some(result?);
            }
            Ok::<(), StraceError>(())
        })?;
    }

    let mut log = EventLog::new(interner);
    let mut warnings = Vec::new();
    for (idx, slot) in slots.into_iter().enumerate() {
        let (case, ws) = slot.expect("every file parsed");
        warnings.extend(ws.into_iter().map(|w| (files[idx].clone(), w)));
        log.push_case(case);
    }
    Ok(LoadResult { log, warnings })
}

fn parse_one(
    path: &Path,
    meta: CaseMeta,
    interner: &Interner,
    chunk_threads: usize,
    streaming: bool,
) -> Result<(Case, Vec<Warning>), StraceError> {
    let _span = st_obs::span_with("strace.file", || path.display().to_string());
    let io_err = |source| StraceError::Io {
        path: path.to_path_buf(),
        source,
    };
    if streaming {
        // Constant memory: one buffered line at a time.
        let file = std::fs::File::open(path).map_err(io_err)?;
        let mut reader = std::io::BufReader::new(file);
        let parsed = parse_reader(&mut reader, interner).map_err(io_err)?;
        return Ok((
            Case {
                meta,
                events: parsed.events,
            },
            parsed.warnings,
        ));
    }
    // One read into memory, then a zero-copy parse over the buffer —
    // cheaper than the line-at-a-time loop, which copies every line,
    // at the cost of holding the file text (peak memory is
    // `workers x file size`; `streaming` bounds it instead).
    let text = std::fs::read_to_string(path).map_err(io_err)?;
    let parsed = if chunk_threads > 1 {
        parse_par(&text, interner, chunk_threads)
    } else {
        parse_str(&text, interner)
    };
    Ok((
        Case {
            meta,
            events: parsed.events,
        },
        parsed.warnings,
    ))
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
        assert_eq!(seq.log.case_count(), par.log.case_count());
        assert_eq!(seq.log.total_events(), par.log.total_events());
        for (a, b) in seq.log.cases().iter().zip(par.log.cases()) {
            assert_eq!(a.meta.rid, b.meta.rid);
            assert_eq!(a.events.len(), b.events.len());
            for (x, y) in a.events.iter().zip(&b.events) {
                assert_eq!(x.start, y.start);
                assert_eq!(x.size, y.size);
                // Symbol ids may differ across the two loads; the
                // strings they name may not.
                assert_eq!(x.call.name(&seq_interner), y.call.name(&par_interner));
                assert_eq!(seq_interner.resolve(x.path), par_interner.resolve(y.path));
            }
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
