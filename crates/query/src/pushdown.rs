//! Predicate pushdown into the STLOG v2 store reader
//! ([`st_store::SegmentReader`]).
//!
//! Full-load querying decodes *every* column of *every* case into an
//! [`EventLog`] before the first predicate is evaluated. This module is
//! the standard analytic-columnar shortcut (Parquet-style row-group
//! statistics / zone maps): a [`Predicate`] is *lowered* into a
//! [`PrunePlan`] of conservative per-case and per-block decisions over
//! the store's zone maps, whole blocks (and whole cases) that provably
//! cannot contain a matching event are skipped without reading their
//! bytes, and the **exact** predicate is then re-evaluated over the
//! events that were decoded — so [`read_pruned`] returns precisely the
//! event set a full load followed by [`crate::scan`] would produce.
//!
//! Decisions are tri-state ([`Decision`]):
//!
//! * `Reject` — the zone map proves no event in the block matches
//!   (e.g. the queried pid is outside the block's pid range, the path
//!   symbol misses the block's bloom filter, the time window ends
//!   before the block starts);
//! * `Accept` — the zone map proves *every* event matches (e.g. the
//!   block's whole start span lies inside the window), so the residual
//!   re-evaluation is skipped;
//! * `Maybe` — decode and test each event.
//!
//! Lowering is resolution-aware: string terms (`cid=`, `host=`,
//! `path=`, `path~`, unknown `call=` names) are resolved against the
//! container's string table once, before any event byte is read — a
//! glob becomes the set of matching path symbols' bloom probes, and a
//! name that does not occur in the container rejects everything
//! outright. Relative time windows are rebased against the trace epoch
//! taken from the directory (the minimum case `start_min`), which
//! equals the epoch a full load would compute.

use st_model::{Case, CaseMeta, Event, EventLog, Interner, Micros, Symbol, Syscall};
use st_store::format::{path_bloom_probes, CaseDir, ZoneMap, CALL_MASK_OTHER};
use st_store::{BlockRead, StoreError};

pub use st_store::format::{ColumnSet, Decision};

use crate::predicate::{CallClass, Cmp, EvalCtx, Predicate};

/// Above this many candidate path symbols a glob term stops probing the
/// bloom filter per block and degrades to `Maybe` (the probe loop would
/// cost more than it saves).
const MAX_PATH_PROBES: usize = 512;

/// A [`Predicate`] lowered against one container's string table and
/// trace epoch: evaluates conservative [`Decision`]s over case meta and
/// block zone maps.
#[derive(Debug)]
pub struct PrunePlan {
    root: PNode,
    epoch: Micros,
}

/// Lowered predicate node. Structurally mirrors [`Predicate`], with
/// string terms resolved to symbols/masks/bloom probes.
#[derive(Debug)]
enum PNode {
    /// Matches every event.
    Any,
    /// Matches no event.
    NoneMatch,
    /// Cannot be decided from zone maps; always `Maybe`.
    Opaque,
    Pid(u32),
    Rid(u32),
    Cid(Option<Symbol>),
    Host(Option<Symbol>),
    /// Bloom probes of every candidate path symbol.
    Path(Vec<[(usize, u64); 2]>),
    /// Event matches only if its call is one of the named calls in
    /// `mask` (never an `Other` call).
    CallNamed {
        mask: u32,
    },
    /// Event matches only if its call is an `Other` call.
    CallOther,
    /// Absolute start-time window (relative windows are rebased against
    /// the trace epoch during lowering).
    Time {
        from: Micros,
        to: Micros,
        inclusive_end: bool,
    },
    Ok(bool),
    Size(Cmp, u64),
    Dur(Cmp, u64),
    And(Vec<PNode>),
    Or(Vec<PNode>),
    Not(Box<PNode>),
}

impl PrunePlan {
    /// Lowers `pred` against the reader's string table and directory.
    pub fn compile<R: BlockRead + ?Sized>(pred: &Predicate, reader: &R) -> PrunePlan {
        let epoch = reader
            .directory()
            .iter()
            .filter(|c| c.events > 0)
            .map(|c| c.start_min)
            .min()
            .unwrap_or(Micros::ZERO);
        PrunePlan {
            root: lower(pred, reader.strings(), epoch),
            epoch,
        }
    }

    /// The trace epoch the plan rebased relative time windows against:
    /// the earliest case start in the directory — by construction equal
    /// to the `earliest_start` a full load would compute, so residual
    /// evaluation must use the same value.
    pub fn epoch(&self) -> Micros {
        self.epoch
    }

    /// Decision for a whole case from its directory meta (identity
    /// attributes and start span). `Reject` skips every block of the
    /// case; `Accept` decodes them all without residual evaluation.
    pub fn decide_case(&self, case: &CaseDir) -> Decision {
        decide(&self.root, case, None)
    }

    /// Decision for one block from its zone map.
    pub fn decide_block(&self, case: &CaseDir, zone: &ZoneMap) -> Decision {
        decide(&self.root, case, Some(zone))
    }
}

/// Lowers one predicate node (resolving strings, rebasing relative time
/// windows against `epoch`).
fn lower(pred: &Predicate, strings: &[String], epoch: Micros) -> PNode {
    match pred {
        Predicate::True => PNode::Any,
        Predicate::False => PNode::NoneMatch,
        Predicate::Pid(pid) => PNode::Pid(*pid),
        Predicate::Rid(rid) => PNode::Rid(*rid),
        Predicate::Cid(name) => PNode::Cid(find_symbol(strings, name)),
        Predicate::Host(name) => PNode::Host(find_symbol(strings, name)),
        Predicate::PathExact(path) => match find_symbol(strings, path) {
            Some(sym) => PNode::Path(vec![path_bloom_probes(sym)]),
            None => PNode::NoneMatch,
        },
        Predicate::PathGlob(pattern) => {
            let mut probes = Vec::new();
            for (idx, s) in strings.iter().enumerate() {
                if crate::glob_match(pattern, s) {
                    probes.push(path_bloom_probes(Symbol(idx as u32)));
                    if probes.len() > MAX_PATH_PROBES {
                        return PNode::Opaque;
                    }
                }
            }
            if probes.is_empty() {
                PNode::NoneMatch
            } else {
                PNode::Path(probes)
            }
        }
        Predicate::Call(name) => {
            // A named spelling matches the named variant — and, in
            // principle, an `Other` call whose interned name collides
            // with it, so the named mask is widened by the Other case
            // whenever the name exists in the container at all.
            let named = Syscall::from_known_name(name)
                .and_then(|call| call.named_index())
                .map(|idx| PNode::CallNamed { mask: 1 << idx });
            let other = find_symbol(strings, name).map(|_| PNode::CallOther);
            match (named, other) {
                (Some(n), Some(o)) => PNode::Or(vec![n, o]),
                (Some(n), None) => n,
                (None, Some(o)) => o,
                (None, None) => PNode::NoneMatch,
            }
        }
        Predicate::Class(class) => PNode::CallNamed {
            mask: class_mask(*class),
        },
        Predicate::TimeWindow {
            from,
            to,
            inclusive_end,
            absolute,
        } => {
            if *absolute {
                PNode::Time {
                    from: *from,
                    to: *to,
                    inclusive_end: *inclusive_end,
                }
            } else {
                // Rebase the window onto absolute starts: the exact
                // evaluation computes `start - epoch ∈ [from, to)`,
                // which over u64 micros equals `start ∈ [epoch+from,
                // epoch+to)`. On (absurd) overflow the window cannot be
                // represented — degrade to Maybe rather than prune.
                match (
                    epoch.as_micros().checked_add(from.as_micros()),
                    epoch.as_micros().checked_add(to.as_micros()),
                ) {
                    (Some(lo), Some(hi)) => PNode::Time {
                        from: Micros(lo),
                        to: Micros(hi),
                        inclusive_end: *inclusive_end,
                    },
                    _ => PNode::Opaque,
                }
            }
        }
        Predicate::Ok(want) => PNode::Ok(*want),
        Predicate::Size(cmp, bytes) => PNode::Size(*cmp, *bytes),
        Predicate::Dur(cmp, dur) => PNode::Dur(*cmp, dur.as_micros()),
        Predicate::And(children) => {
            PNode::And(children.iter().map(|p| lower(p, strings, epoch)).collect())
        }
        Predicate::Or(children) => {
            PNode::Or(children.iter().map(|p| lower(p, strings, epoch)).collect())
        }
        Predicate::Not(inner) => PNode::Not(Box::new(lower(inner, strings, epoch))),
    }
}

/// Symbol of `name` in the container's string table, if present.
fn find_symbol(strings: &[String], name: &str) -> Option<Symbol> {
    strings
        .iter()
        .position(|s| s == name)
        .map(|idx| Symbol(idx as u32))
}

/// The named-call bitmask of a class (classes never contain `Other`
/// calls — [`CallClass::contains`] matches named variants only).
fn class_mask(class: CallClass) -> u32 {
    let mut mask = 0u32;
    for idx in 0..=u8::MAX {
        let Some(call) = Syscall::from_named_index(idx) else {
            break;
        };
        if class.contains(call) {
            mask |= 1 << idx;
        }
    }
    mask
}

/// Evaluates a lowered node against case meta and (for block decisions)
/// a zone map. With `zone == None` only case-decidable terms commit;
/// everything else is `Maybe`.
fn decide(node: &PNode, case: &CaseDir, zone: Option<&ZoneMap>) -> Decision {
    use Decision::{Accept, Maybe, Reject};
    match node {
        PNode::Any => Accept,
        PNode::NoneMatch => Reject,
        PNode::Opaque => Maybe,
        PNode::Pid(pid) => match zone {
            Some(z) if !z.may_contain_pid(*pid) => Reject,
            Some(z) if z.pid_min == z.pid_max && z.pid_min == *pid => Accept,
            _ => Maybe,
        },
        PNode::Rid(rid) => exact(case.rid == *rid),
        PNode::Cid(sym) => exact(*sym == Some(case.cid)),
        PNode::Host(sym) => exact(*sym == Some(case.host)),
        PNode::Path(probes) => match zone {
            Some(z) if !probes.iter().any(|p| z.may_contain_path(p)) => Reject,
            _ => Maybe,
        },
        PNode::CallNamed { mask } => match zone {
            Some(z) if z.call_mask & mask == 0 => Reject,
            Some(z) if z.call_mask & !mask == 0 => Accept,
            _ => Maybe,
        },
        PNode::CallOther => match zone {
            Some(z) if z.call_mask & CALL_MASK_OTHER == 0 => Reject,
            _ => Maybe,
        },
        PNode::Time {
            from,
            to,
            inclusive_end,
        } => {
            let (lo, hi) = match zone {
                Some(z) => (z.start_min, z.start_max),
                None => (case.start_min, case.start_max),
            };
            let above = |t: Micros| t > *to || (!inclusive_end && t == *to);
            if hi < *from || above(lo) {
                Reject
            } else if lo >= *from && !above(hi) {
                Accept
            } else {
                Maybe
            }
        }
        PNode::Ok(want) => match zone {
            Some(z) if z.ok_all => exact(*want),
            Some(z) if !z.ok_any => exact(!*want),
            _ => Maybe,
        },
        PNode::Size(cmp, n) => match zone {
            Some(z) if !z.any_sized => Reject,
            Some(z) if cmp_none(*cmp, z.size_min, z.size_max, *n) => Reject,
            Some(z) if z.all_sized && cmp_all(*cmp, z.size_min, z.size_max, *n) => Accept,
            _ => Maybe,
        },
        PNode::Dur(cmp, n) => match zone {
            Some(z) if cmp_none(*cmp, z.dur_min, z.dur_max, *n) => Reject,
            Some(z) if cmp_all(*cmp, z.dur_min, z.dur_max, *n) => Accept,
            _ => Maybe,
        },
        PNode::And(children) => {
            let mut all_accept = true;
            for child in children {
                match decide(child, case, zone) {
                    Reject => return Reject,
                    Maybe => all_accept = false,
                    Accept => {}
                }
            }
            if all_accept {
                Accept
            } else {
                Maybe
            }
        }
        PNode::Or(children) => {
            let mut all_reject = true;
            for child in children {
                match decide(child, case, zone) {
                    Accept => return Accept,
                    Maybe => all_reject = false,
                    Reject => {}
                }
            }
            if all_reject {
                Reject
            } else {
                Maybe
            }
        }
        PNode::Not(inner) => match decide(inner, case, zone) {
            Accept => Reject,
            Reject => Accept,
            Maybe => Maybe,
        },
    }
}

/// `Accept`/`Reject` from an exactly decidable condition.
fn exact(holds: bool) -> Decision {
    if holds {
        Decision::Accept
    } else {
        Decision::Reject
    }
}

/// Whether `v OP n` holds for **every** `v ∈ [lo, hi]`.
fn cmp_all(cmp: Cmp, lo: u64, hi: u64, n: u64) -> bool {
    match cmp {
        Cmp::Lt => hi < n,
        Cmp::Le => hi <= n,
        Cmp::Eq => lo == n && hi == n,
        Cmp::Ge => lo >= n,
        Cmp::Gt => lo > n,
    }
}

/// Whether `v OP n` holds for **no** `v ∈ [lo, hi]`.
fn cmp_none(cmp: Cmp, lo: u64, hi: u64, n: u64) -> bool {
    match cmp {
        Cmp::Lt => lo >= n,
        Cmp::Le => lo > n,
        Cmp::Eq => n < lo || n > hi,
        Cmp::Ge => hi < n,
        Cmp::Gt => hi <= n,
    }
}

/// The event columns a predicate reads during exact evaluation (its
/// meta terms — cid/host/rid — cost no columns).
pub fn required_columns(pred: &Predicate) -> ColumnSet {
    match pred {
        Predicate::True | Predicate::False => ColumnSet::EMPTY,
        Predicate::Pid(_) => ColumnSet::PID,
        Predicate::Rid(_) | Predicate::Cid(_) | Predicate::Host(_) => ColumnSet::EMPTY,
        Predicate::PathExact(_) | Predicate::PathGlob(_) => ColumnSet::PATH,
        Predicate::Call(_) | Predicate::Class(_) => ColumnSet::CALL,
        Predicate::TimeWindow { .. } => ColumnSet::START,
        Predicate::Ok(_) => ColumnSet::OK,
        Predicate::Size(..) => ColumnSet::SIZE,
        Predicate::Dur(..) => ColumnSet::DUR,
        Predicate::And(children) | Predicate::Or(children) => children
            .iter()
            .fold(ColumnSet::EMPTY, |acc, p| acc.union(required_columns(p))),
        Predicate::Not(inner) => required_columns(inner),
    }
}

/// Byte- and block-level accounting of one pruned read, for the CLI's
/// pushdown summary line and the benchmark snapshot.
#[derive(Debug, Clone, Default)]
pub struct PushdownStats {
    /// Cases in the container.
    pub cases_total: usize,
    /// Cases skipped whole (no block touched).
    pub cases_pruned: usize,
    /// Blocks in the container.
    pub blocks_total: usize,
    /// Blocks skipped (including those of pruned cases).
    pub blocks_pruned: usize,
    /// Blocks decoded without residual evaluation (zone-map `Accept`).
    pub blocks_accepted: usize,
    /// Events recorded in the container (from the directory).
    pub events_total: u64,
    /// Events decoded (survived block pruning).
    pub events_decoded: u64,
    /// Events in the result (survived the exact predicate).
    pub events_matched: u64,
    /// Bytes of the blocks section.
    pub bytes_total: u64,
    /// Column-segment bytes actually parsed.
    pub bytes_decoded: u64,
    /// The reader's cumulative fetch counter after this read
    /// ([`BlockRead::bytes_read`]): bytes fetched from the underlying
    /// medium since the reader was opened. Over a fresh open that is
    /// head bytes plus exactly the surviving block extents — the
    /// out-of-core win `bytes_decoded` alone cannot show.
    pub bytes_read: u64,
}

/// Result of [`read_pruned`]: the matching events as an owned log (the
/// interner reproduces the container's symbol ids, exactly like
/// [`st_store::SegmentReader::read`]) plus the pruning accounting.
#[derive(Debug)]
pub struct PrunedRead {
    /// Cases holding exactly the matching events, in container order;
    /// cases with no match are dropped (as [`crate::scan`] does).
    pub log: EventLog,
    /// What was pruned, decoded and matched.
    pub stats: PushdownStats,
    /// How the decode was scheduled (seq or par) and why. Kept out of
    /// [`PushdownStats`] on purpose: the stats are identical between
    /// sequential and parallel runs of the same read, the schedule is
    /// not.
    pub sched: SchedDecision,
}

/// The seq-vs-par choice the cost model made for one pruned read, with
/// a human-readable reason for session reports (`route.workers` /
/// `route.reason` notes).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchedDecision {
    /// Decode workers actually used (`1` = sequential in-place decode).
    pub workers: usize,
    /// Why: explicit request, core count, or the block/byte cost model.
    pub reason: String,
}

/// Parallel decode only pays off past a few surviving blocks — below
/// this, thread spawn + channel assembly beat any overlap.
const PAR_MIN_BLOCKS: usize = 4;

/// Estimated column-segment bytes below which a decode is too small to
/// amortize worker spawns (~tens of µs each against a decode throughput
/// of roughly 10 ns/byte).
const PAR_MIN_DECODE_BYTES: u64 = 1 << 20;

/// Column-segment bytes a block decode at `cols` will actually parse —
/// the unit of the scheduler's cost model.
fn estimated_decode_bytes(block: &st_store::format::BlockDir, cols: ColumnSet) -> u64 {
    let cols = cols.union(ColumnSet::IDENTITY);
    (0..st_store::format::NCOLS)
        .filter(|&col| cols.contains(ColumnSet::nth(col)))
        .map(|col| u64::from(block.col_lens[col]))
        .sum()
}

/// Pure seq-vs-par cost model: explicit `threads` requests are honored
/// (so the par ≡ seq property tests exercise the real parallel path
/// regardless of the host); `threads == 0` auto-selects from the core
/// count, surviving-block count and estimated decode bytes.
fn schedule(threads: usize, cores: usize, blocks: usize, est_bytes: u64) -> SchedDecision {
    let cap = blocks.max(1);
    if threads != 0 {
        let workers = threads.min(cap);
        let reason = if workers <= 1 {
            format!("seq: {threads} worker(s) requested for {blocks} surviving block(s)")
        } else {
            format!("par: {workers} workers requested explicitly")
        };
        return SchedDecision { workers, reason };
    }
    if cores <= 1 {
        return SchedDecision {
            workers: 1,
            reason: "seq: 1 core available".into(),
        };
    }
    if blocks < PAR_MIN_BLOCKS {
        return SchedDecision {
            workers: 1,
            reason: format!(
                "seq: {blocks} surviving block(s) below par threshold ({PAR_MIN_BLOCKS})"
            ),
        };
    }
    if est_bytes < PAR_MIN_DECODE_BYTES {
        return SchedDecision {
            workers: 1,
            reason: format!(
                "seq: ~{est_bytes} B estimated decode below par threshold \
                 ({PAR_MIN_DECODE_BYTES} B)"
            ),
        };
    }
    let workers = cores.min(cap);
    SchedDecision {
        workers,
        reason: format!(
            "par: {workers} workers over {blocks} blocks (~{est_bytes} B estimated decode, \
             {cores} cores)"
        ),
    }
}

/// One surviving block of the prune plan: which case it belongs to (as
/// an index into the surviving-case list) and how to treat its events.
struct Work<'dir> {
    case_ord: usize,
    meta: CaseMeta,
    block: &'dir st_store::format::BlockDir,
    decision: Decision,
}

/// Decodes one surviving block into `out` and (for `Maybe` blocks)
/// applies the residual predicate to the appended range in place,
/// returning the number of column-segment bytes parsed.
fn decode_work_into<R: BlockRead + ?Sized>(
    reader: &R,
    work: &Work<'_>,
    cols: ColumnSet,
    pred: &Predicate,
    ctx: &EvalCtx<'_>,
    out: &mut Vec<Event>,
) -> Result<usize, StoreError> {
    let first = out.len();
    let bytes = reader.decode_block(work.block, cols, out)?;
    if work.decision != Decision::Accept {
        let mut keep = first;
        for idx in first..out.len() {
            if pred.matches(ctx, &work.meta, &out[idx]) {
                out.swap(keep, idx);
                keep += 1;
            }
        }
        out.truncate(keep);
    }
    Ok(bytes)
}

/// Reads only the events of `reader` that satisfy `pred`, skipping
/// whole cases and blocks whose directory meta / zone maps prove they
/// cannot contain a match.
///
/// `emit` names the columns the caller needs on the returned events
/// (e.g. every column for re-storing, or everything except
/// `requested`/`offset` for DFG synthesis); the columns the predicate
/// itself reads are always decoded in addition, so the result is
/// exactly the event set of `scan(&reader.read()?, pred)` — projected
/// onto `emit ∪ required ∪ identity` columns, with neutral defaults
/// elsewhere. Pass [`ColumnSet::ALL`] for full-fidelity events.
///
/// Works over any [`BlockRead`]; a pruned block's bytes are never
/// fetched from the reader's source. v1 containers have no directory
/// and cannot be opened as a [`BlockRead`]; decode them with
/// [`st_store::read_store`] and narrow with [`crate::scan`] instead.
pub fn read_pruned<R: BlockRead + ?Sized>(
    reader: &R,
    pred: &Predicate,
    emit: ColumnSet,
) -> Result<PrunedRead, StoreError> {
    read_pruned_par(reader, pred, emit, 1)
}

/// Parallel [`read_pruned`]: the blocks that survive pruning are fanned
/// out over a shared work queue to `threads` scoped workers for
/// decoding and residual evaluation — blocks are independently
/// decodable (in-block delta timestamps, per-block CRC), so only the
/// final per-case assembly is sequential. Produces exactly the
/// sequential result: the same log (symbol ids included) and the same
/// [`PushdownStats`].
///
/// `threads == 0` engages the cost-aware scheduler: it stays
/// sequential when the host has one core, when too few blocks survive
/// pruning, or when the estimated column bytes to decode are too small
/// to amortize worker spawns — and goes parallel otherwise. The choice
/// and its reason are returned in [`PrunedRead::sched`]. An explicit
/// `threads >= 1` is always honored (capped at the surviving block
/// count), keeping the unconditional parallel path available to
/// property tests and benchmarks.
pub fn read_pruned_par<R: BlockRead + ?Sized>(
    reader: &R,
    pred: &Predicate,
    emit: ColumnSet,
    threads: usize,
) -> Result<PrunedRead, StoreError> {
    let _span = st_obs::span!("query.pushdown");
    let plan = PrunePlan::compile(pred, reader);
    let directory = reader.directory();

    let interner = Interner::new_shared();
    for s in reader.strings() {
        interner.intern(s);
    }
    let mut log = EventLog::new(interner);
    let snapshot = log.snapshot();
    // Exactly `scan`'s epoch handling: relative windows rebase against
    // the earliest event start (the epoch the plan lowered with),
    // time-free predicates skip the epoch.
    let t0 = if pred.uses_relative_time() {
        plan.epoch()
    } else {
        Micros::ZERO
    };
    let ctx = EvalCtx {
        snapshot: &snapshot,
        t0,
    };
    let cols = emit.union(required_columns(pred));

    let mut stats = PushdownStats {
        cases_total: directory.len(),
        blocks_total: directory.iter().map(|c| c.blocks.len()).sum(),
        events_total: directory.iter().map(|c| c.events).sum(),
        bytes_total: directory
            .iter()
            .flat_map(|c| &c.blocks)
            .map(|b| u64::from(b.len))
            .sum(),
        ..PushdownStats::default()
    };

    // Plan: walk the directory once, deciding every case and block.
    // Pruned units are accounted here; the survivors become the decode
    // work list (cheap — no event byte is touched).
    let plan_span = st_obs::span!("query.pushdown.plan");
    let mut metas: Vec<CaseMeta> = Vec::new();
    let mut work: Vec<Work<'_>> = Vec::new();
    for case in directory {
        let case_decision = plan.decide_case(case);
        if case_decision == Decision::Reject {
            stats.cases_pruned += 1;
            stats.blocks_pruned += case.blocks.len();
            continue;
        }
        let meta = CaseMeta {
            cid: case.cid,
            host: case.host,
            rid: case.rid,
        };
        let case_ord = metas.len();
        metas.push(meta);
        for block in &case.blocks {
            let decision = if case_decision == Decision::Accept {
                Decision::Accept
            } else {
                plan.decide_block(case, &block.zone)
            };
            match decision {
                Decision::Reject => stats.blocks_pruned += 1,
                Decision::Accept | Decision::Maybe => {
                    if decision == Decision::Accept {
                        stats.blocks_accepted += 1;
                    }
                    stats.events_decoded += u64::from(block.events);
                    work.push(Work {
                        case_ord,
                        meta,
                        block,
                        decision,
                    });
                }
            }
        }
    }
    drop(plan_span);

    // Decode: surviving blocks are independent (in-block delta
    // timestamps, per-block CRC). The sequential path streams each
    // block straight into its case's accumulator (no intermediate
    // buffers — this is the hot loop of a pass-all load); the parallel
    // path fans blocks out to scoped workers whose per-block results
    // land in order-indexed slots, so assembly — and therefore the
    // output — is identical either way.
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let est_bytes: u64 = work
        .iter()
        .map(|item| estimated_decode_bytes(item.block, cols))
        .sum();
    let sched = schedule(threads, cores, work.len(), est_bytes);
    let workers = sched.workers;
    // Per-case accumulators. The sequential path decodes straight into
    // them, so pre-size each to its case's total surviving events; the
    // parallel path assembles from per-block buffers instead (the first
    // block's buffer is moved in), so empty vectors suffice there.
    let mut cases: Vec<Vec<Event>> = if workers <= 1 {
        let mut totals = vec![0usize; metas.len()];
        for item in &work {
            totals[item.case_ord] += item.block.events as usize;
        }
        totals.into_iter().map(Vec::with_capacity).collect()
    } else {
        metas.iter().map(|_| Vec::new()).collect()
    };
    let decode_span = st_obs::span!("query.pushdown.decode", blocks = work.len());
    if workers <= 1 {
        for item in &work {
            stats.bytes_decoded +=
                decode_work_into(reader, item, cols, pred, &ctx, &mut cases[item.case_ord])? as u64;
        }
    } else {
        let mut slots: Vec<Option<(Vec<Event>, usize)>> = (0..work.len()).map(|_| None).collect();
        let next = std::sync::atomic::AtomicUsize::new(0);
        let (tx, rx) = std::sync::mpsc::channel();
        let obs_cx = st_obs::context();
        std::thread::scope(|scope| {
            for _ in 0..workers {
                let tx = tx.clone();
                let next = &next;
                let work = &work;
                let ctx = &ctx;
                let obs_cx = obs_cx.clone();
                scope.spawn(move || {
                    let _obs = obs_cx.attach();
                    loop {
                        let idx = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        if idx >= work.len() {
                            break;
                        }
                        let item = &work[idx];
                        let mut events = Vec::with_capacity(item.block.events as usize);
                        let result = decode_work_into(reader, item, cols, pred, ctx, &mut events)
                            .map(|bytes| (events, bytes));
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
            Ok::<(), StoreError>(())
        })?;
        // Concatenate each case's surviving blocks in directory order.
        for (item, slot) in work.iter().zip(slots) {
            let (events, bytes) = slot.expect("every work item decoded");
            stats.bytes_decoded += bytes as u64;
            if cases[item.case_ord].is_empty() {
                cases[item.case_ord] = events;
            } else {
                cases[item.case_ord].extend(events);
            }
        }
    }

    drop(decode_span);

    // Cases with no match are dropped (as `scan` does).
    for (meta, events) in metas.into_iter().zip(cases) {
        if !events.is_empty() {
            log.push_case(Case { meta, events });
        }
    }
    stats.events_matched = log.total_events() as u64;
    stats.bytes_read = reader.bytes_read();
    // Mirror the stats into the obs counters so the report and
    // `PushdownStats` are two views of one accounting (the byte
    // counters are owned by the store layer, which increments them at
    // the fetch sites themselves).
    st_obs::add("cases_total", stats.cases_total as u64);
    st_obs::add("cases_pruned", stats.cases_pruned as u64);
    st_obs::add("blocks_total", stats.blocks_total as u64);
    st_obs::add("blocks_pruned", stats.blocks_pruned as u64);
    st_obs::add("events_decoded", stats.events_decoded);
    st_obs::add("events_matched", stats.events_matched);
    st_obs::add("bytes_decoded", stats.bytes_decoded);
    Ok(PrunedRead { log, stats, sched })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{parse_expr, scan};
    use st_model::{Event, Pid};
    use st_store::{to_bytes_blocked, BytesSegment, SegmentReader};
    use std::sync::Arc;

    /// Two cases, time-ordered, with distinct path/pid/ok phases so
    /// small blocks get discriminating zone maps.
    fn sample() -> EventLog {
        let mut log = EventLog::with_new_interner();
        let i = Arc::clone(log.interner());
        for (cid, rid) in [("a", 0u32), ("b", 1)] {
            let meta = CaseMeta {
                cid: i.intern(cid),
                host: i.intern("h1"),
                rid,
            };
            let mut events = Vec::new();
            for k in 0..40u64 {
                let path = if k < 20 {
                    i.intern(&format!("/usr/lib/so{}", k % 4))
                } else {
                    i.intern(&format!("/scratch/out{}.h5", k % 3))
                };
                let call = if k % 5 == 0 {
                    Syscall::Write
                } else {
                    Syscall::Read
                };
                let mut e = Event::new(
                    Pid(100 + rid),
                    call,
                    Micros(1_000 + k * 50),
                    Micros(5 + k % 7),
                    path,
                );
                if k % 6 == 0 {
                    e = e.failed();
                } else {
                    e = e.with_size(k * 100);
                }
                events.push(e);
            }
            log.push_case(Case::from_events(meta, events));
        }
        log
    }

    fn open_image(image: Vec<u8>) -> SegmentReader {
        SegmentReader::from_source(Arc::new(BytesSegment::new(image.into()))).unwrap()
    }

    fn reader(block_events: usize) -> SegmentReader {
        open_image(to_bytes_blocked(&sample(), block_events).unwrap().to_vec())
    }

    fn check_equals_scan(expr: &str, block_events: usize) -> PushdownStats {
        let r = reader(block_events);
        let pred = parse_expr(expr).unwrap();
        let pruned = read_pruned(&r, &pred, ColumnSet::ALL).unwrap();
        let full = r.read().unwrap();
        let reference = scan(&full, &pred).to_event_log();
        assert_eq!(pruned.log.cases(), reference.cases(), "{expr}");
        pruned.stats
    }

    #[test]
    fn pushdown_matches_scan_across_predicates() {
        for expr in [
            "true",
            "false or pid=100",
            "path~\"*.h5\"",
            "path=\"/usr/lib/so1\"",
            "cid=a",
            "host=nope",
            "rid=1",
            "class=write and size>=1k",
            "ok=false",
            "not ok=false",
            "dur>=10us",
            "t=[0s,1ms)",
            "call=read",
            "call=statx",
            "pid=999",
            "class=write or path~\"/usr/*\"",
        ] {
            for blocks in [1, 7, 4096] {
                check_equals_scan(expr, blocks);
            }
        }
    }

    #[test]
    fn selective_filter_prunes_blocks() {
        // The first 20 events of each case live under /usr/lib, the
        // rest under /scratch; with 10-event blocks the .h5 glob must
        // reject the /usr/lib-only blocks.
        let stats = check_equals_scan("path~\"*.h5\"", 10);
        assert_eq!(stats.blocks_total, 8);
        assert!(stats.blocks_pruned >= 4, "{stats:?}");
        assert!(stats.bytes_decoded < stats.bytes_total / 2 + 1, "{stats:?}");
    }

    #[test]
    fn case_meta_prunes_whole_cases() {
        let stats = check_equals_scan("cid=a", 10);
        assert_eq!(stats.cases_pruned, 1);
        assert!(stats.blocks_pruned >= 4);
        // And the whole-case accept path skips residual evaluation.
        let stats = check_equals_scan("cid=a or cid=b", 10);
        assert_eq!(stats.blocks_accepted, stats.blocks_total);
    }

    #[test]
    fn time_window_prunes_by_start_span() {
        let stats = check_equals_scan("t=[0s,200us)", 10);
        // Only the first block of each case overlaps the window.
        assert_eq!(stats.blocks_pruned, 6);
    }

    #[test]
    fn accept_blocks_skip_residual_evaluation() {
        let stats = check_equals_scan("dur<1s", 10);
        assert_eq!(stats.blocks_accepted, stats.blocks_total, "{stats:?}");
        assert_eq!(stats.events_matched, stats.events_total);
    }

    #[test]
    fn parallel_decode_equals_sequential() {
        for expr in ["true", "path~\"*.h5\"", "ok=false", "cid=a or class=write"] {
            let pred = parse_expr(expr).unwrap();
            for blocks in [1, 7, 64] {
                // A fresh reader per read, so the cumulative fetch
                // counter in the stats covers exactly that read.
                let seq = read_pruned(&reader(blocks), &pred, ColumnSet::ALL).unwrap();
                for threads in [2, 3, 8] {
                    let par =
                        read_pruned_par(&reader(blocks), &pred, ColumnSet::ALL, threads).unwrap();
                    assert_eq!(seq.log.cases(), par.log.cases(), "{expr} x{threads}");
                    assert_eq!(
                        format!("{:?}", seq.stats),
                        format!("{:?}", par.stats),
                        "{expr} x{threads}"
                    );
                }
            }
        }
    }

    #[test]
    fn scheduler_cost_model_picks_seq_when_par_cannot_pay() {
        // Explicit requests are always honored (capped at block count).
        let d = schedule(3, 1, 10, 0);
        assert_eq!(d.workers, 3);
        assert!(d.reason.starts_with("par:"), "{}", d.reason);
        let d = schedule(8, 16, 2, u64::MAX);
        assert_eq!(d.workers, 2);
        let d = schedule(1, 16, 100, u64::MAX);
        assert_eq!(d.workers, 1);
        assert!(d.reason.starts_with("seq:"), "{}", d.reason);
        // Auto: one core always decodes sequentially.
        let d = schedule(0, 1, 1_000, u64::MAX);
        assert_eq!(d.workers, 1);
        assert!(d.reason.contains("1 core"), "{}", d.reason);
        // Auto: too few surviving blocks.
        let d = schedule(0, 8, PAR_MIN_BLOCKS - 1, u64::MAX);
        assert_eq!(d.workers, 1);
        assert!(d.reason.contains("surviving block"), "{}", d.reason);
        // Auto: too few bytes to amortize spawns.
        let d = schedule(0, 8, 100, PAR_MIN_DECODE_BYTES - 1);
        assert_eq!(d.workers, 1);
        assert!(d.reason.contains("below par threshold"), "{}", d.reason);
        // Auto: enough of everything goes parallel, capped at cores.
        let d = schedule(0, 8, 100, PAR_MIN_DECODE_BYTES);
        assert_eq!(d.workers, 8);
        assert!(d.reason.starts_with("par:"), "{}", d.reason);
        let d = schedule(0, 8, 5, PAR_MIN_DECODE_BYTES);
        assert_eq!(d.workers, 5, "capped at surviving blocks");
    }

    #[test]
    fn auto_schedule_records_decision_and_matches_explicit() {
        let r = reader(10);
        let pred = parse_expr("true").unwrap();
        let auto = read_pruned_par(&r, &pred, ColumnSet::ALL, 0).unwrap();
        let seq = read_pruned(&reader(10), &pred, ColumnSet::ALL).unwrap();
        assert_eq!(auto.log.cases(), seq.log.cases());
        assert_eq!(format!("{:?}", auto.stats), format!("{:?}", seq.stats));
        // The decision is recorded with a reason either way; this tiny
        // store is always below the byte threshold, so auto stays seq
        // regardless of the host's core count.
        assert_eq!(auto.sched.workers, 1, "{}", auto.sched.reason);
        assert!(
            auto.sched.reason.starts_with("seq:"),
            "{}",
            auto.sched.reason
        );
        let est: u64 = r
            .directory()
            .iter()
            .flat_map(|c| &c.blocks)
            .map(|b| estimated_decode_bytes(b, ColumnSet::ALL))
            .sum();
        assert!(est < PAR_MIN_DECODE_BYTES);
    }

    #[test]
    fn pushdown_respects_salvage_quarantine() {
        // Corrupt one mid-case block, salvage, and push predicates down
        // the salvaged reader: quarantined blocks are absent from the
        // vetted directory, so pruning must agree exactly with a scan of
        // the salvage-recovered log — never resurrecting lost events.
        let image = to_bytes_blocked(&sample(), 10).unwrap();
        let pristine = open_image(image.to_vec());
        let dir = pristine.directory();
        let victim = &dir[0].blocks[1];
        let blocks_len: usize = dir
            .iter()
            .flat_map(|c| &c.blocks)
            .map(|b| b.len as usize)
            .sum();
        let mut damaged = image.to_vec();
        let at = damaged.len() - blocks_len + victim.offset as usize + 3;
        damaged[at] ^= 0x20;

        let salvaged =
            st_store::salvage_source(Arc::new(BytesSegment::new(damaged.into()))).unwrap();
        assert_eq!(salvaged.report.losses.len(), 1);
        let recovered = salvaged.reader.read().unwrap();
        assert_eq!(recovered.total_events(), 70); // 80 minus the block

        for expr in ["true", "path~\"*.h5\"", "ok=false", "cid=a", "dur<1s"] {
            let pred = parse_expr(expr).unwrap();
            let reference = scan(&recovered, &pred).to_event_log();
            for threads in [1, 4] {
                let pruned =
                    read_pruned_par(&salvaged.reader, &pred, ColumnSet::ALL, threads).unwrap();
                assert_eq!(pruned.log.cases(), reference.cases(), "{expr} x{threads}");
                assert_eq!(pruned.stats.events_total, 70, "{expr}");
            }
        }
    }

    #[test]
    fn pruned_reads_fetch_only_what_survives() {
        let image = to_bytes_blocked(&sample(), 10).unwrap();
        let full = sample();
        for expr in ["true", "path~\"*.h5\"", "cid=a", "ok=false", "t=[0s,1ms)"] {
            let pred = parse_expr(expr).unwrap();
            let reference = scan(&full, &pred).to_event_log();
            for threads in [1, 4] {
                // Fresh reader per run so bytes_read is exactly this
                // query's fetches (head + surviving extents).
                let seek = open_image(image.to_vec());
                let pruned = read_pruned_par(&seek, &pred, ColumnSet::ALL, threads).unwrap();
                assert_eq!(reference.cases(), pruned.log.cases(), "{expr} x{threads}");
                // Never more than the image; strictly less when blocks
                // prune.
                let image_len = image.len() as u64;
                assert!(pruned.stats.bytes_read <= image_len, "{expr}");
                if pruned.stats.blocks_pruned > 0 {
                    assert!(
                        pruned.stats.bytes_read < image_len,
                        "{expr}: pruning must save disk bytes"
                    );
                }
            }
        }
    }

    #[test]
    fn required_columns_cover_terms() {
        let pred = parse_expr("pid=1 path~\"*\" size>=1 t=[0s,1s)").unwrap();
        let cols = required_columns(&pred);
        for col in [
            ColumnSet::PID,
            ColumnSet::PATH,
            ColumnSet::SIZE,
            ColumnSet::START,
        ] {
            assert!(cols.contains(col));
        }
        assert!(!cols.contains(ColumnSet::OK));
        assert_eq!(required_columns(&Predicate::True), ColumnSet::EMPTY);
    }

    #[test]
    fn column_projection_still_matches_exactly() {
        let r = reader(10);
        let pred = parse_expr("size>=1k ok=true").unwrap();
        let pruned = read_pruned(&r, &pred, ColumnSet::EMPTY).unwrap();
        let full = r.read().unwrap();
        let reference = scan(&full, &pred).to_event_log();
        assert_eq!(pruned.log.total_events(), reference.total_events());
        for (a, b) in pruned.log.iter_events().zip(reference.iter_events()) {
            // Identity + predicate columns are faithful...
            assert_eq!(a.1.call, b.1.call);
            assert_eq!(a.1.start, b.1.start);
            assert_eq!(a.1.path, b.1.path);
            assert_eq!(a.1.size, b.1.size);
            assert_eq!(a.1.ok, b.1.ok);
            // ...unrequested ones default.
            assert_eq!(a.1.requested, None);
        }
    }

    #[test]
    fn plan_decisions_are_conservative() {
        // Every Reject block must contain no matching event; every
        // Accept block must contain only matching events.
        let r = reader(7);
        let full = r.read().unwrap();
        let snapshot = full.snapshot();
        for expr in [
            "path~\"*.h5\"",
            "ok=false",
            "class=write",
            "size>=2k",
            "t=[0s,500us]",
            "not class=write",
            "pid=100 and dur<6us",
        ] {
            let pred = parse_expr(expr).unwrap();
            let plan = PrunePlan::compile(&pred, &r);
            let ctx = EvalCtx {
                snapshot: &snapshot,
                t0: full.earliest_start().unwrap_or(Micros::ZERO),
            };
            for (case_idx, case) in r.directory().iter().enumerate() {
                let meta = full.cases()[case_idx].meta;
                for block in &case.blocks {
                    let mut events = Vec::new();
                    r.decode_block(block, ColumnSet::ALL, &mut events).unwrap();
                    let matches: Vec<bool> = events
                        .iter()
                        .map(|e| pred.matches(&ctx, &meta, e))
                        .collect();
                    match plan.decide_block(case, &block.zone) {
                        Decision::Reject => {
                            assert!(matches.iter().all(|m| !m), "{expr}: false reject")
                        }
                        Decision::Accept => {
                            assert!(matches.iter().all(|m| *m), "{expr}: false accept")
                        }
                        Decision::Maybe => {}
                    }
                }
            }
        }
    }
}
