//! Streaming (bounded-memory) STLOG v2 writer.
//!
//! [`crate::to_bytes`] materializes the whole container image before a
//! single byte hits disk — fine for logs that fit in RAM, fatal for the
//! out-of-core stores [`crate::SegmentReader`] exists to serve.
//! [`StoreBuilder`] writes the same bytes case-by-case: block bodies
//! stream into a same-directory spill file as cases are pushed (the
//! head cannot be written first — string-table and directory lengths
//! are unknown until the last case), and `finish()` assembles the final
//! container by writing the head into an atomic temp file, splicing the
//! spill in with a fixed-size copy buffer, and renaming over the
//! target. Peak memory is one block's encoding plus the directory
//! metadata — never the event payload.
//!
//! The output is **bit-identical** to [`crate::to_bytes_blocked`] over
//! the same events, interner and block size (pinned by a golden fixture
//! and a property law in `tests/props_store_io.rs`), so readers cannot
//! tell which writer produced a container.
//!
//! Crash behaviour matches [`crate::write_atomic`]: an interrupted
//! build leaves the target untouched and cleans up both the temp file
//! and the spill; a reader never sees a torn container.

use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use st_model::{CaseMeta, Event, EventLog, Interner};

use crate::error::StoreError;
use crate::format::{CaseDir, DEFAULT_BLOCK_EVENTS};
use crate::writer::{encode_case, encode_head};

/// Copy-buffer size for splicing the spill file into the final
/// container — the only allocation `finish()` makes besides the head.
const SPLICE_BUF: usize = 256 * 1024;

/// Maps an I/O failure on `path` into a [`StoreError::Io`].
fn io_err(path: &Path) -> impl Fn(std::io::Error) -> StoreError + '_ {
    move |source| StoreError::Io {
        path: path.to_path_buf(),
        source,
    }
}

/// Streams an STLOG v2 container to disk with bounded memory.
///
/// ```no_run
/// # use std::sync::Arc;
/// # use st_model::{Case, Interner};
/// # use st_store::StoreBuilder;
/// # fn cases() -> Vec<Case> { Vec::new() }
/// let interner = Interner::new_shared();
/// let mut builder =
///     StoreBuilder::create(std::path::Path::new("out.stlog"), Arc::clone(&interner))?;
/// for case in cases() {
///     builder.push_case(case.meta, &case.events)?;
/// }
/// builder.finish()?;
/// # Ok::<(), st_store::StoreError>(())
/// ```
///
/// The interner is taken at construction so `push_case` can label
/// unsorted-case errors; its snapshot is taken at `finish()`, so every
/// symbol interned before then lands in the string table.
#[derive(Debug)]
pub struct StoreBuilder {
    path: PathBuf,
    dir: PathBuf,
    interner: Arc<Interner>,
    block_events: usize,
    spill_path: PathBuf,
    spill: Option<std::io::BufWriter<std::fs::File>>,
    directory: Vec<CaseDir>,
    blocks_offset: u64,
    buf: Vec<u8>,
    peak_buffer: usize,
    finished: bool,
}

impl StoreBuilder {
    /// Starts a streaming build of `path` with the default block size.
    pub fn create(path: &Path, interner: Arc<Interner>) -> Result<StoreBuilder, StoreError> {
        Self::create_blocked(path, interner, DEFAULT_BLOCK_EVENTS)
    }

    /// [`StoreBuilder::create`] with an explicit block size (events per
    /// block, ≥ 1).
    pub fn create_blocked(
        path: &Path,
        interner: Arc<Interner>,
        block_events: usize,
    ) -> Result<StoreBuilder, StoreError> {
        assert!(block_events >= 1, "blocks hold at least one event");
        let dir = match path.parent() {
            Some(p) if !p.as_os_str().is_empty() => p.to_path_buf(),
            _ => PathBuf::from("."),
        };
        let name = path
            .file_name()
            .ok_or_else(|| io_err(path)(std::io::Error::other("path has no file name")))?;
        // Same directory as the target (like write_atomic's temp file)
        // and pid-salted, so concurrent builders never share a spill.
        let spill_path = dir.join(format!(
            ".{}.spill.{}",
            name.to_string_lossy(),
            std::process::id()
        ));
        let spill = std::fs::File::create(&spill_path).map_err(io_err(&spill_path))?;
        Ok(StoreBuilder {
            path: path.to_path_buf(),
            dir,
            interner,
            block_events,
            spill_path,
            spill: Some(std::io::BufWriter::new(spill)),
            directory: Vec::new(),
            blocks_offset: 0,
            buf: Vec::new(),
            peak_buffer: 0,
            finished: false,
        })
    }

    /// Appends one case: encodes its events into blocks and streams the
    /// block bodies to the spill file. Events must be start-sorted
    /// (they are delta-encoded), as with [`crate::to_bytes`].
    pub fn push_case(&mut self, meta: CaseMeta, events: &[Event]) -> Result<(), StoreError> {
        let spill = self.spill.as_mut().expect("spill open until finish");
        let spill_err = io_err(&self.spill_path);
        let peak = &mut self.peak_buffer;
        let entry = encode_case(
            meta,
            events,
            &self.interner,
            self.block_events,
            &mut self.buf,
            self.blocks_offset,
            |body| {
                *peak = (*peak).max(body.len());
                spill.write_all(body).map_err(&spill_err)
            },
        )?;
        self.blocks_offset += entry.blocks.iter().map(|b| u64::from(b.len)).sum::<u64>();
        self.directory.push(entry);
        Ok(())
    }

    /// High-water mark of the block-encoding buffer in bytes — the
    /// working memory proportional to event payload (the directory
    /// metadata is excluded; it is O(blocks), not O(events)).
    pub fn peak_buffer_bytes(&self) -> usize {
        self.peak_buffer
    }

    /// Durably publishes the container as built so far **without
    /// ending the stream**: flushes and fsyncs the spill, then runs the
    /// same head-assembly + splice + fsync + atomic-rename sequence as
    /// [`StoreBuilder::finish`]. The builder stays usable — more cases
    /// can be pushed and checkpointed again (each checkpoint republishes
    /// the whole container), or `finish()` called to end the build.
    ///
    /// A failed or interrupted checkpoint leaves the previously
    /// published container intact: the rename is the last step, and on
    /// error only the temp file is removed — never the target, never
    /// the spill.
    pub fn checkpoint(&mut self) -> Result<(), StoreError> {
        let _span = st_obs::span!("store.stream.checkpoint");
        // Flush the buffered writer and fsync the underlying file
        // without consuming either — the stream continues afterwards.
        let spill = self.spill.as_mut().expect("spill open until finish");
        spill.flush().map_err(io_err(&self.spill_path))?;
        spill
            .get_ref()
            .sync_all()
            .map_err(io_err(&self.spill_path))?;
        self.assemble()
    }

    /// Assembles and atomically publishes the container: head (magic,
    /// strings, directory) into a temp file, spill spliced after it,
    /// fsync, rename over the target. On error the target is untouched
    /// and both scratch files are removed.
    pub fn finish(mut self) -> Result<(), StoreError> {
        let _span = st_obs::span!("store.stream.finish");
        // Flush the spill and reopen it for reading.
        let spill = self.spill.take().expect("finish runs once");
        spill
            .into_inner()
            .map_err(|e| io_err(&self.spill_path)(e.into_error()))?
            .sync_all()
            .map_err(io_err(&self.spill_path))?;

        let result = self.assemble();
        // Success or failure, the scratch files must go; on failure the
        // target was never touched (rename is the last step).
        let _ = std::fs::remove_file(&self.spill_path);
        self.finished = true;
        result
    }

    /// Shared publish path of `checkpoint()` and `finish()`: writes the
    /// head into a temp file, splices exactly `blocks_offset` bytes of
    /// spill after it, fsyncs and renames over the target. Requires the
    /// spill to be flushed to disk by the caller. On error the temp
    /// file is removed and the target (and spill) are untouched.
    fn assemble(&self) -> Result<(), StoreError> {
        let name = self
            .path
            .file_name()
            .expect("validated in create")
            .to_string_lossy()
            .into_owned();
        let tmp = self
            .dir
            .join(format!(".{}.tmp.{}", name, std::process::id()));
        let result = (|| {
            let head = encode_head(
                &self.interner.snapshot(),
                &self.directory,
                self.blocks_offset,
            );

            let mut out = std::fs::File::create(&tmp).map_err(io_err(&tmp))?;
            out.write_all(&head).map_err(io_err(&tmp))?;
            let mut spill =
                std::fs::File::open(&self.spill_path).map_err(io_err(&self.spill_path))?;
            let mut buf = vec![0u8; SPLICE_BUF];
            let mut copied = 0u64;
            loop {
                use std::io::Read;
                let n = spill.read(&mut buf).map_err(io_err(&self.spill_path))?;
                if n == 0 {
                    break;
                }
                out.write_all(&buf[..n]).map_err(io_err(&tmp))?;
                copied += n as u64;
            }
            if copied != self.blocks_offset {
                return Err(io_err(&self.spill_path)(std::io::Error::other(format!(
                    "spill holds {copied} bytes, directory describes {}",
                    self.blocks_offset
                ))));
            }
            st_obs::add("bytes_written", head.len() as u64 + copied);
            out.sync_all().map_err(io_err(&tmp))?;
            drop(out);
            std::fs::rename(&tmp, &self.path).map_err(io_err(&self.path))
        })();
        if result.is_err() {
            let _ = std::fs::remove_file(&tmp);
            return result;
        }
        // Make the rename itself durable, best-effort as in write_atomic.
        if let Ok(d) = std::fs::File::open(&self.dir) {
            let _ = d.sync_all();
        }
        Ok(())
    }

    /// Streams every case of `log` (convenience for the
    /// materialized-log callers).
    pub fn push_log(&mut self, log: &EventLog) -> Result<(), StoreError> {
        for case in log.cases() {
            self.push_case(case.meta, &case.events)?;
        }
        Ok(())
    }
}

impl Drop for StoreBuilder {
    fn drop(&mut self) {
        // An abandoned builder (error or early return before finish)
        // must not leave its spill behind.
        if !self.finished {
            let _ = std::fs::remove_file(&self.spill_path);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::CorruptKind;
    use crate::reader::read_store;
    use crate::writer::tests::sample_log;
    use crate::writer::to_bytes_blocked;

    fn tempdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("st-stream-{}-{}", name, std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn scratch_files(dir: &Path) -> Vec<String> {
        std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|n| n.contains(".tmp.") || n.contains(".spill."))
            .collect()
    }

    #[test]
    fn streamed_container_is_bit_identical_to_resident_writer() {
        let log = sample_log();
        for block_events in [1, 2, 1024] {
            let resident = to_bytes_blocked(&log, block_events).unwrap();
            let dir = tempdir("identical");
            let path = dir.join("out.stlog");
            let mut b =
                StoreBuilder::create_blocked(&path, Arc::clone(log.interner()), block_events)
                    .unwrap();
            b.push_log(&log).unwrap();
            b.finish().unwrap();
            let streamed = std::fs::read(&path).unwrap();
            assert_eq!(&resident[..], &streamed[..], "block_events={block_events}");
            assert!(scratch_files(&dir).is_empty(), "{:?}", scratch_files(&dir));
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn unsorted_case_is_rejected_with_its_label() {
        let log = sample_log();
        let mut events = log.cases()[0].events.clone();
        events.reverse();
        let dir = tempdir("unsorted");
        let path = dir.join("out.stlog");
        let mut b = StoreBuilder::create(&path, Arc::clone(log.interner())).unwrap();
        let err = b.push_case(log.cases()[0].meta, &events).unwrap_err();
        assert!(
            matches!(err, StoreError::Corrupt(CorruptKind::UnsortedCase { ref label }) if label.contains("a")),
            "{err:?}"
        );
        drop(b);
        assert!(scratch_files(&dir).is_empty(), "{:?}", scratch_files(&dir));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn abandoned_builder_removes_spill_and_never_creates_target() {
        let dir = tempdir("abandoned");
        let path = dir.join("out.stlog");
        let log = sample_log();
        let mut b = StoreBuilder::create(&path, Arc::clone(log.interner())).unwrap();
        b.push_log(&log).unwrap();
        assert_eq!(scratch_files(&dir).len(), 1, "spill exists mid-build");
        drop(b); // no finish()
        assert!(!path.exists(), "target must not exist");
        assert!(scratch_files(&dir).is_empty(), "{:?}", scratch_files(&dir));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn failed_finish_cleans_up_and_leaves_target_untouched() {
        let dir = tempdir("failfinish");
        // A directory at the target path makes the final rename fail.
        let path = dir.join("occupied");
        std::fs::create_dir_all(&path).unwrap();
        let log = sample_log();
        let mut b = StoreBuilder::create(&path, Arc::clone(log.interner())).unwrap();
        b.push_log(&log).unwrap();
        assert!(b.finish().is_err());
        assert!(path.is_dir(), "target must be untouched");
        assert!(scratch_files(&dir).is_empty(), "{:?}", scratch_files(&dir));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn peak_buffer_is_bounded_by_block_size_not_log_size() {
        let log = sample_log(); // 5 events
        let dir = tempdir("peak");
        let path = dir.join("out.stlog");
        let mut b = StoreBuilder::create_blocked(&path, Arc::clone(log.interner()), 1).unwrap();
        b.push_log(&log).unwrap();
        let single_block_peak = b.peak_buffer_bytes();
        b.finish().unwrap();
        // One-event blocks: the high-water mark is one block's bytes,
        // far below the full blocks section.
        let image = std::fs::read(&path).unwrap();
        assert!(single_block_peak > 0);
        assert!(
            (single_block_peak as u64) < image.len() as u64 / 2,
            "peak {} vs image {}",
            single_block_peak,
            image.len()
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_publishes_readable_container_and_stream_continues() {
        let log = sample_log();
        let dir = tempdir("checkpoint");
        let path = dir.join("out.stlog");
        let mut b = StoreBuilder::create_blocked(&path, Arc::clone(log.interner()), 2).unwrap();

        // Checkpoint after the first case: the published container is a
        // complete, readable v2 store holding exactly that case.
        b.push_case(log.cases()[0].meta, &log.cases()[0].events)
            .unwrap();
        b.checkpoint().unwrap();
        let partial = read_store(&path).unwrap();
        assert_eq!(partial.case_count(), 1);
        assert_eq!(partial.cases()[0].events, log.cases()[0].events);

        // The stream continues: push the rest, checkpoint again, and the
        // republished container covers everything so far.
        for case in &log.cases()[1..] {
            b.push_case(case.meta, &case.events).unwrap();
        }
        b.checkpoint().unwrap();
        let full = read_store(&path).unwrap();
        assert_eq!(full.case_count(), log.case_count());

        // finish() after checkpoints is bit-identical to the one-shot
        // writers — a reader cannot tell checkpoints ever happened.
        b.finish().unwrap();
        let streamed = std::fs::read(&path).unwrap();
        let resident = to_bytes_blocked(&log, 2).unwrap();
        assert_eq!(&resident[..], &streamed[..]);
        assert!(scratch_files(&dir).is_empty(), "{:?}", scratch_files(&dir));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn interrupted_checkpoint_leaves_previous_container_intact() {
        let log = sample_log();
        let dir = tempdir("ckpt-interrupt");
        let path = dir.join("out.stlog");
        let mut b = StoreBuilder::create(&path, Arc::clone(log.interner())).unwrap();
        b.push_case(log.cases()[0].meta, &log.cases()[0].events)
            .unwrap();
        b.checkpoint().unwrap();
        let published = std::fs::read(&path).unwrap();

        // Interrupt the next checkpoint deterministically: the spill
        // vanishes mid-stream (the worst spot — data pushed but not
        // publishable), so the splice step must fail.
        let second = CaseMeta {
            cid: log.interner().intern("b"),
            ..log.cases()[0].meta
        };
        b.push_case(second, &log.cases()[0].events).unwrap();
        let spill = scratch_files(&dir)
            .into_iter()
            .find(|n| n.contains(".spill."))
            .expect("spill exists mid-build");
        std::fs::remove_file(dir.join(&spill)).unwrap();
        assert!(b.checkpoint().is_err());

        // The previously published container is byte-for-byte intact and
        // no temp file is left behind.
        assert_eq!(std::fs::read(&path).unwrap(), published);
        assert!(
            !scratch_files(&dir).iter().any(|n| n.contains(".tmp.")),
            "{:?}",
            scratch_files(&dir)
        );
        let recovered = read_store(&path).unwrap();
        assert_eq!(recovered.case_count(), 1);
        drop(b);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The `bytes_written` counter recorded while `f` runs, read from
    /// the subtree of a span only this test opens: other tests in the
    /// binary write concurrently.
    fn bytes_written_by(f: impl FnOnce()) -> u64 {
        fn subtree(node: &st_obs::StageNode) -> u64 {
            node.counters.get("bytes_written").copied().unwrap_or(0)
                + node.children.iter().map(subtree).sum::<u64>()
        }
        st_obs::set_enabled(true);
        let mark = st_obs::mark();
        {
            let _span = st_obs::span!("test.bytes_written");
            f();
        }
        st_obs::report_since(&mark)
            .stages
            .iter()
            .filter(|s| s.name == "test.bytes_written")
            .map(subtree)
            .sum()
    }

    #[test]
    fn bytes_written_counts_every_published_byte() {
        let log = sample_log();
        let dir = tempdir("bytes-written");
        let path = dir.join("out.stlog");
        let size = |p: &Path| std::fs::metadata(p).unwrap().len();

        let written = bytes_written_by(|| crate::write_store(&log, &path).unwrap());
        assert_eq!(written, size(&path), "write_store");

        let mut published = 0;
        let written = bytes_written_by(|| {
            let mut b = StoreBuilder::create_blocked(&path, Arc::clone(log.interner()), 2).unwrap();
            b.push_case(log.cases()[0].meta, &log.cases()[0].events)
                .unwrap();
            b.checkpoint().unwrap();
            published += size(&path);
            b.push_case(log.cases()[0].meta, &log.cases()[0].events)
                .unwrap();
            b.checkpoint().unwrap();
            published += size(&path);
            b.finish().unwrap();
            published += size(&path);
        });
        assert_eq!(written, published, "checkpoints plus finish");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_log_streams_to_a_valid_container() {
        let dir = tempdir("empty");
        let path = dir.join("out.stlog");
        let interner = Interner::new_shared();
        let b = StoreBuilder::create(&path, interner).unwrap();
        b.finish().unwrap();
        assert_eq!(read_store(&path).unwrap().case_count(), 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
