//! Decoded-block cache for hot re-queries.
//!
//! The paper's workflow is *iterative narrowing*: run a query, inspect
//! the DFG, tighten the filter, run again. Every refinement re-reads
//! and re-decodes the blocks the new plan admits — and block decode
//! dominates query time (~120 ns/event full scan vs ~3 ns/event DFG
//! build in `BENCH_ingest.json`). [`BlockCache`] keeps recently decoded
//! blocks resident so a refined query pays a memcpy instead of a varint
//! decode (and, on a seek reader, zero disk fetches) for every block the
//! previous query already touched.
//!
//! ## Keying and superset hits
//!
//! Entries are keyed by `(container token, block offset)`. Tokens are
//! allocated per opened container ([`BlockCache::register`]), so one
//! cache can serve several containers without confusing their blocks;
//! block byte offsets are unique within a container (the directory
//! decoder validates contiguous extents), which makes the pair a
//! complete block identity. The cid does not need to appear in the key
//! — a block belongs to exactly one case.
//!
//! Each entry remembers the [`ColumnSet`] it was decoded with. A lookup
//! *hits* when the cached set is a superset of the requested set: a
//! cached `call|start|path|pid` decode serves a `call|start|path`
//! request. On such a hit the cached events are copied out and the
//! columns that were *not* requested are reset to the neutral defaults
//! a direct projected decode would have produced (`pid 0`, `dur 0`,
//! `None` sizes/offsets, `ok`), so a cache hit is byte-identical to a
//! cache miss — including interned [`Symbol`](st_model::Symbol)
//! identities, which are container-global and independent of which
//! blocks were decoded when.
//!
//! ## Budget
//!
//! The cache is byte-budgeted: each entry is charged its resident cost
//! (`events × size_of::<Event>()` plus a fixed per-entry overhead) and
//! least-recently-used entries are evicted until the total fits the
//! budget. An entry larger than the whole budget is not admitted at
//! all. The budget is a hard invariant, property-tested in
//! `tests/props_requery.rs`.
//!
//! ## Observability
//!
//! [`CachedBlockRead`] emits `cache.hits` / `cache.misses` obs counters
//! at each decode, and [`BlockCache::stats`] exposes cumulative
//! hit/miss/resident-byte counts for session reports
//! (`st_source::Session` merges them into every
//! [`PipelineReport`](st_obs::PipelineReport) as `cache.hits`,
//! `cache.misses`, `cache.bytes`).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use st_model::{Event, Micros, Pid};

use crate::error::StoreError;
use crate::format::{BlockDir, CaseDir, ColumnSet};
use crate::segment::BlockRead;

/// Global container-token allocator: every registered container gets a
/// process-unique id so entries from different containers can never
/// alias, even across independently created caches.
static NEXT_TOKEN: AtomicU64 = AtomicU64::new(1);

/// Default cache budget used by sessions that enable re-querying:
/// 64 MiB of decoded events (~800k events at the current `Event` size),
/// comfortably above the bench store's working set while bounded enough
/// for long-lived interactive sessions.
pub const DEFAULT_CACHE_BUDGET: u64 = 64 * 1024 * 1024;

/// Fixed per-entry bookkeeping charge (hash-map slot, entry header),
/// so a pathological store of many empty blocks still meets the budget.
const ENTRY_OVERHEAD: u64 = 64;

/// Cumulative cache effectiveness counters (see [`BlockCache::stats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from a resident entry (superset hits included).
    pub hits: u64,
    /// Lookups that fell through to a real decode.
    pub misses: u64,
    /// Bytes currently resident (charged cost, not capacity).
    pub bytes: u64,
}

struct Entry {
    cols: ColumnSet,
    events: Box<[Event]>,
    cost: u64,
    last_used: u64,
}

#[derive(Default)]
struct Inner {
    map: HashMap<(u64, u64), Entry>,
    bytes: u64,
    clock: u64,
}

/// A bounded, byte-budgeted LRU of decoded blocks.
///
/// Shared behind an [`Arc`](std::sync::Arc) between a `Session` and its
/// refilter runs; internally synchronized, so the parallel pushdown
/// path can consult it from worker threads through a shared
/// [`CachedBlockRead`].
pub struct BlockCache {
    budget: u64,
    inner: Mutex<Inner>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl std::fmt::Debug for BlockCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("BlockCache")
            .field("budget", &self.budget)
            .field("bytes", &stats.bytes)
            .field("hits", &stats.hits)
            .field("misses", &stats.misses)
            .finish()
    }
}

impl BlockCache {
    /// Creates a cache bounded to `budget_bytes` of decoded events.
    pub fn with_budget(budget_bytes: u64) -> BlockCache {
        BlockCache {
            budget: budget_bytes,
            inner: Mutex::new(Inner::default()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Allocates a container token. Call once per opened container and
    /// pass the token to every [`CachedBlockRead`] over that container;
    /// distinct tokens keep blocks of distinct containers apart.
    pub fn register(&self) -> u64 {
        NEXT_TOKEN.fetch_add(1, Ordering::Relaxed)
    }

    /// The configured byte budget.
    pub fn budget(&self) -> u64 {
        self.budget
    }

    /// Cumulative hit/miss counters and current resident bytes.
    pub fn stats(&self) -> CacheStats {
        let bytes = self.inner.lock().expect("cache poisoned").bytes;
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            bytes,
        }
    }

    /// Looks up `(token, block)` at `cols`; on a (superset) hit appends
    /// the projected events to `out` and returns `true`.
    fn lookup(&self, token: u64, block: &BlockDir, cols: ColumnSet, out: &mut Vec<Event>) -> bool {
        let want = cols.union(ColumnSet::IDENTITY);
        let mut inner = self.inner.lock().expect("cache poisoned");
        inner.clock += 1;
        let clock = inner.clock;
        let Some(entry) = inner.map.get_mut(&(token, block.offset)) else {
            drop(inner);
            self.misses.fetch_add(1, Ordering::Relaxed);
            return false;
        };
        if !entry.cols.contains(want) {
            drop(inner);
            self.misses.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        entry.last_used = clock;
        let base = out.len();
        out.extend_from_slice(&entry.events);
        let extra = entry.cols.without(want);
        drop(inner);
        clear_columns(&mut out[base..], extra);
        self.hits.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// Inserts (or replaces) the decoded events for `(token, block)`,
    /// evicting least-recently-used entries until the budget holds.
    fn store(&self, token: u64, block: &BlockDir, cols: ColumnSet, events: &[Event]) {
        let cost = (events.len() as u64) * (std::mem::size_of::<Event>() as u64) + ENTRY_OVERHEAD;
        if cost > self.budget {
            return;
        }
        let mut inner = self.inner.lock().expect("cache poisoned");
        inner.clock += 1;
        let clock = inner.clock;
        if let Some(old) = inner.map.remove(&(token, block.offset)) {
            inner.bytes -= old.cost;
        }
        while inner.bytes + cost > self.budget {
            let Some((&key, _)) = inner.map.iter().min_by_key(|(_, e)| e.last_used) else {
                break;
            };
            let evicted = inner.map.remove(&key).expect("victim present");
            inner.bytes -= evicted.cost;
        }
        inner.bytes += cost;
        inner.map.insert(
            (token, block.offset),
            Entry {
                cols: cols.union(ColumnSet::IDENTITY),
                events: events.into(),
                cost,
                last_used: clock,
            },
        );
    }
}

/// Resets every column in `extra` to the neutral default a projected
/// decode leaves behind, making superset hits byte-identical to direct
/// decodes at the requested set. Identity columns are never in `extra`
/// (both sides of the superset test are unioned with
/// [`ColumnSet::IDENTITY`]).
fn clear_columns(events: &mut [Event], extra: ColumnSet) {
    if extra == ColumnSet::EMPTY {
        return;
    }
    let pid = extra.contains(ColumnSet::PID);
    let dur = extra.contains(ColumnSet::DUR);
    let size = extra.contains(ColumnSet::SIZE);
    let requested = extra.contains(ColumnSet::REQUESTED);
    let offset = extra.contains(ColumnSet::OFFSET);
    let ok = extra.contains(ColumnSet::OK);
    for e in events {
        if pid {
            e.pid = Pid(0);
        }
        if dur {
            e.dur = Micros::ZERO;
        }
        if size {
            e.size = None;
        }
        if requested {
            e.requested = None;
        }
        if offset {
            e.offset = None;
        }
        if ok {
            e.ok = true;
        }
    }
}

/// A [`BlockRead`] adapter that consults a [`BlockCache`] before
/// delegating to the wrapped reader.
///
/// Hits append the cached (projected) events and report **zero decoded
/// bytes** — on a [`SegmentReader`](crate::SegmentReader) they also
/// perform zero fetches, which the re-query property tests reconcile
/// against [`CountingSegment`](crate::CountingSegment) I/O accounting.
/// Misses delegate, then capture the freshly decoded events for next
/// time. Every pruning reader
/// (`st_query::read_pruned_par`) works through this adapter unchanged.
pub struct CachedBlockRead<'a, R: BlockRead + ?Sized> {
    inner: &'a R,
    cache: &'a BlockCache,
    token: u64,
}

impl<'a, R: BlockRead + ?Sized> CachedBlockRead<'a, R> {
    /// Wraps `inner`, caching its decodes under `token` (from
    /// [`BlockCache::register`]).
    pub fn new(inner: &'a R, cache: &'a BlockCache, token: u64) -> CachedBlockRead<'a, R> {
        CachedBlockRead {
            inner,
            cache,
            token,
        }
    }
}

impl<R: BlockRead + ?Sized> BlockRead for CachedBlockRead<'_, R> {
    fn strings(&self) -> &[String] {
        self.inner.strings()
    }

    fn directory(&self) -> &[CaseDir] {
        self.inner.directory()
    }

    fn decode_block(
        &self,
        block: &BlockDir,
        cols: ColumnSet,
        out: &mut Vec<Event>,
    ) -> Result<usize, StoreError> {
        if self.cache.lookup(self.token, block, cols, out) {
            st_obs::add("cache.hits", 1);
            return Ok(0);
        }
        st_obs::add("cache.misses", 1);
        let base = out.len();
        let parsed = self.inner.decode_block(block, cols, out)?;
        self.cache.store(self.token, block, cols, &out[base..]);
        Ok(parsed)
    }

    fn bytes_read(&self) -> u64 {
        self.inner.bytes_read()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use st_model::{Case, CaseMeta, EventLog, Syscall};

    fn sample_log(cases: usize, events_per_case: usize) -> EventLog {
        let mut log = EventLog::with_new_interner();
        let interner = std::sync::Arc::clone(log.interner());
        for c in 0..cases {
            let meta = CaseMeta {
                cid: interner.intern(&format!("cmd-{c}")),
                host: interner.intern("host"),
                rid: c as u32,
            };
            let events: Vec<Event> = (0..events_per_case)
                .map(|i| {
                    let path = interner.intern(&format!("/data/f{}", i % 7));
                    Event::new(
                        Pid(100 + i as u32),
                        if i % 2 == 0 {
                            Syscall::Read
                        } else {
                            Syscall::Write
                        },
                        Micros(1_000 + (i as u64) * 10),
                        Micros(5),
                        path,
                    )
                    .with_size((i as u64) * 3)
                })
                .collect();
            log.push_case(Case::from_events(meta, events));
        }
        log
    }

    fn store_with_blocks(log: &EventLog, block_events: usize) -> crate::SegmentReader {
        let bytes = crate::writer::to_bytes_blocked(log, block_events).expect("encodable log");
        crate::SegmentReader::from_source(std::sync::Arc::new(crate::BytesSegment::new(bytes)))
            .expect("valid store")
    }

    fn all_blocks(reader: &crate::SegmentReader) -> Vec<BlockDir> {
        reader
            .directory()
            .iter()
            .flat_map(|case| case.blocks.iter().cloned())
            .collect()
    }

    #[test]
    fn hit_is_byte_identical_to_miss() {
        let log = sample_log(2, 300);
        let reader = store_with_blocks(&log, 64);
        let cache = BlockCache::with_budget(DEFAULT_CACHE_BUDGET);
        let token = cache.register();
        let cached = CachedBlockRead::new(&reader, &cache, token);
        for block in all_blocks(&reader) {
            let mut cold = Vec::new();
            let parsed = cached
                .decode_block(&block, ColumnSet::ALL, &mut cold)
                .unwrap();
            assert!(parsed > 0, "miss decodes real bytes");
            let mut warm = Vec::new();
            let parsed = cached
                .decode_block(&block, ColumnSet::ALL, &mut warm)
                .unwrap();
            assert_eq!(parsed, 0, "hit decodes zero bytes");
            assert_eq!(cold, warm);
        }
        let stats = cache.stats();
        assert_eq!(stats.hits, stats.misses);
    }

    #[test]
    fn superset_hit_projects_to_neutral_defaults() {
        let log = sample_log(1, 200);
        let reader = store_with_blocks(&log, 64);
        let cache = BlockCache::with_budget(DEFAULT_CACHE_BUDGET);
        let token = cache.register();
        let cached = CachedBlockRead::new(&reader, &cache, token);
        let narrow = ColumnSet::IDENTITY;
        for block in all_blocks(&reader) {
            // Prime with a wide decode, then request a narrow one.
            let mut wide = Vec::new();
            cached
                .decode_block(&block, ColumnSet::ALL, &mut wide)
                .unwrap();
            let mut direct = Vec::new();
            reader.decode_block(&block, narrow, &mut direct).unwrap();
            let mut hit = Vec::new();
            let parsed = cached.decode_block(&block, narrow, &mut hit).unwrap();
            assert_eq!(parsed, 0, "superset entry serves the narrow request");
            assert_eq!(direct, hit);
            assert!(hit.iter().all(|e| e.pid == Pid(0) && e.size.is_none()));
        }
    }

    #[test]
    fn narrow_entry_does_not_serve_wider_request() {
        let log = sample_log(1, 100);
        let reader = store_with_blocks(&log, 64);
        let cache = BlockCache::with_budget(DEFAULT_CACHE_BUDGET);
        let token = cache.register();
        let cached = CachedBlockRead::new(&reader, &cache, token);
        let block = all_blocks(&reader).remove(0);
        let mut narrow = Vec::new();
        cached
            .decode_block(&block, ColumnSet::IDENTITY, &mut narrow)
            .unwrap();
        let mut wide = Vec::new();
        let parsed = cached
            .decode_block(&block, ColumnSet::ALL, &mut wide)
            .unwrap();
        assert!(parsed > 0, "widening request must re-decode");
        let mut direct = Vec::new();
        reader
            .decode_block(&block, ColumnSet::ALL, &mut direct)
            .unwrap();
        assert_eq!(wide, direct);
        // The replacement entry now serves wide requests.
        let mut warm = Vec::new();
        assert_eq!(
            cached
                .decode_block(&block, ColumnSet::ALL, &mut warm)
                .unwrap(),
            0
        );
    }

    #[test]
    fn budget_is_a_hard_invariant_and_lru_evicts() {
        let log = sample_log(2, 400);
        let reader = store_with_blocks(&log, 32);
        let blocks = all_blocks(&reader);
        assert!(blocks.len() > 4);
        // Budget only fits a couple of 32-event entries.
        let per_entry = 32 * std::mem::size_of::<Event>() as u64 + ENTRY_OVERHEAD;
        let cache = BlockCache::with_budget(per_entry * 2 + 16);
        let token = cache.register();
        let cached = CachedBlockRead::new(&reader, &cache, token);
        for block in &blocks {
            let mut out = Vec::new();
            cached
                .decode_block(block, ColumnSet::ALL, &mut out)
                .unwrap();
            assert!(
                cache.stats().bytes <= cache.budget(),
                "resident {} exceeds budget {}",
                cache.stats().bytes,
                cache.budget()
            );
        }
        // Most recent block is resident; the oldest was evicted.
        let mut out = Vec::new();
        let last = blocks.last().unwrap();
        assert_eq!(
            cached.decode_block(last, ColumnSet::ALL, &mut out).unwrap(),
            0
        );
        let mut out = Vec::new();
        assert!(
            cached
                .decode_block(&blocks[0], ColumnSet::ALL, &mut out)
                .unwrap()
                > 0
        );
    }

    #[test]
    fn oversized_entries_are_not_admitted() {
        let log = sample_log(1, 128);
        let reader = store_with_blocks(&log, 128);
        let cache = BlockCache::with_budget(64);
        let token = cache.register();
        let cached = CachedBlockRead::new(&reader, &cache, token);
        let block = all_blocks(&reader).remove(0);
        for _ in 0..2 {
            let mut out = Vec::new();
            assert!(
                cached
                    .decode_block(&block, ColumnSet::ALL, &mut out)
                    .unwrap()
                    > 0
            );
        }
        assert_eq!(cache.stats().bytes, 0);
        assert_eq!(cache.stats().hits, 0);
    }

    #[test]
    fn tokens_isolate_containers() {
        let log_a = sample_log(1, 64);
        let mut log_b = EventLog::with_new_interner();
        {
            let interner = std::sync::Arc::clone(log_b.interner());
            let meta = CaseMeta {
                cid: interner.intern("other"),
                host: interner.intern("h"),
                rid: 0,
            };
            let path = interner.intern("/elsewhere");
            let events = vec![Event::new(
                Pid(9),
                Syscall::Lseek,
                Micros(7),
                Micros(1),
                path,
            )];
            log_b.push_case(Case::from_events(meta, events));
        }
        let ra = store_with_blocks(&log_a, 64);
        let rb = store_with_blocks(&log_b, 64);
        let cache = BlockCache::with_budget(DEFAULT_CACHE_BUDGET);
        let ca = CachedBlockRead::new(&ra, &cache, cache.register());
        let cb = CachedBlockRead::new(&rb, &cache, cache.register());
        let block_a = all_blocks(&ra).remove(0);
        let block_b = all_blocks(&rb).remove(0);
        let mut out = Vec::new();
        ca.decode_block(&block_a, ColumnSet::ALL, &mut out).unwrap();
        // Same offsets, different container: must miss, then decode b's
        // own events.
        assert_eq!(block_a.offset, block_b.offset);
        let mut got = Vec::new();
        assert!(cb.decode_block(&block_b, ColumnSet::ALL, &mut got).unwrap() > 0);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].call, Syscall::Lseek);
    }
}
