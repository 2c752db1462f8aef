//! The Directly-Follows-Graph (Sec. IV-A).
//!
//! Given an activity log `L_f(C)`, the DFG `G[L_f(C)]` has the
//! activities as nodes plus a start node `●` and an end node `■`
//! (every trace is implicitly wrapped `⟨●, a_1, …, a_n, ■⟩`). An edge
//! `(a_1, a_2)` exists iff `a_1` *directly follows* `a_2` in some trace;
//! edge weights count how often the relation was observed (the numbers on
//! the edges of Fig. 3).
//!
//! Every graph is counted by one accumulator, [`DfgAccumulator`]: the
//! batch constructors fold the mapped log through it in a single O(n)
//! pass, and the live daemon feeds it one activity at a time. Counts
//! live in *dense* `Vec`-indexed storage — the start/end markers at
//! node indices 0 and 1, activity `id` at `id + 2` — so the per-event
//! hot path is two array adds instead of ordered-map lookups, and
//! accumulators over one activity table merge by element-wise addition.
//! (Graphs too large for an adjacency matrix fall back to a hash map —
//! still O(1) amortized per increment.) The deterministically ordered
//! edge view that rendering and tests consume is materialized lazily,
//! on first access.

use std::collections::{BTreeMap, HashMap};
use std::sync::OnceLock;

use crate::activity::{ActivityId, ActivityTable};
use crate::activity_log::ActivityLog;
use crate::mapped::MappedLog;

/// A DFG node: the artificial start/end markers or an activity.
///
/// The `Ord` instance puts `Start` first and `End` last, giving
/// deterministic, render-friendly iteration order.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Node {
    /// The start marker `●` prepended to every trace.
    Start,
    /// An activity node.
    Act(ActivityId),
    /// The end marker `■` appended to every trace.
    End,
}

impl Node {
    /// The activity id, when this is an activity node.
    pub fn activity(&self) -> Option<ActivityId> {
        match self {
            Node::Act(id) => Some(*id),
            _ => None,
        }
    }
}

/// Above this node count the dense adjacency matrix stops being cheap
/// (514² × 8 B ≈ 2 MB per accumulator); edge accumulation falls back
/// to a hash map, still O(1) amortized per increment.
const MATRIX_MAX_NODES: usize = 512;

/// Edge-count storage over dense node indices `0..n`.
#[derive(Debug, Clone)]
enum EdgeCounts {
    /// Row-major `n × n` adjacency counts.
    Matrix(Vec<u64>),
    /// `(from, to) → count`, for graphs too large for a matrix.
    Sparse(HashMap<(u32, u32), u64>),
}

impl EdgeCounts {
    fn new(n: usize) -> EdgeCounts {
        if n <= MATRIX_MAX_NODES {
            EdgeCounts::Matrix(vec![0; n * n])
        } else {
            EdgeCounts::Sparse(HashMap::new())
        }
    }

    #[inline]
    fn inc(&mut self, n: usize, from: usize, to: usize, w: u64) {
        match self {
            EdgeCounts::Matrix(counts) => counts[from * n + to] += w,
            EdgeCounts::Sparse(map) => *map.entry((from as u32, to as u32)).or_insert(0) += w,
        }
    }

    #[inline]
    fn get(&self, n: usize, from: usize, to: usize) -> u64 {
        match self {
            EdgeCounts::Matrix(counts) => counts[from * n + to],
            EdgeCounts::Sparse(map) => map.get(&(from as u32, to as u32)).copied().unwrap_or(0),
        }
    }

    fn total(&self) -> u64 {
        match self {
            EdgeCounts::Matrix(counts) => counts.iter().sum(),
            EdgeCounts::Sparse(map) => map.values().sum(),
        }
    }

    /// Iterates non-zero `(from, to, count)` entries (arbitrary order).
    fn iter_nonzero<'a>(&'a self, n: usize) -> Box<dyn Iterator<Item = (usize, usize, u64)> + 'a> {
        match self {
            EdgeCounts::Matrix(counts) => Box::new(
                counts
                    .iter()
                    .enumerate()
                    .filter(|(_, &c)| c > 0)
                    .map(move |(i, &c)| (i / n, i % n, c)),
            ),
            EdgeCounts::Sparse(map) => {
                Box::new(map.iter().map(|(&(f, t), &c)| (f as usize, t as usize, c)))
            }
        }
    }
}

/// Node index of the start marker `●` in [`DfgAccumulator`]'s layout.
const START: usize = 0;
/// Node index of the end marker `■`; activity `id` sits at `id + 2`.
const END: usize = 1;

/// The node at a dense node index.
fn idx_node(idx: usize) -> Node {
    match idx {
        START => Node::Start,
        END => Node::End,
        _ => Node::Act(ActivityId((idx - 2) as u32)),
    }
}

/// The DFG count accumulator: per-node occurrence counts, edge counts
/// over dense node indices, the case count and the open trace's last
/// activity.
///
/// Every DFG is folded through it: the batch constructors
/// ([`Dfg::from_mapped`] and friends) size it from their activity
/// table once and add whole traces; a live service feeds it one
/// [`ActivityId`] at a time, between which the graph stays queryable.
/// Node indices are `0` for the start marker, `1` for the end marker
/// and `id + 2` for activity `id`, so the accumulator grows in place
/// when it first sees a larger id. Accumulators whose ids come from one
/// [`ActivityTable`] merge by element-wise addition.
///
/// ```
/// use st_core::{ActivityTable, Dfg, DfgAccumulator};
///
/// // One id space, shared by two streams observed independently:
/// let mut table = ActivityTable::new();
/// let (read, write) = (table.intern("read:/etc"), table.intern("write:/tmp"));
/// let mut a = DfgAccumulator::default();
/// a.observe(read);
/// a.observe(read);
/// a.close_trace();
/// let mut b = DfgAccumulator::default();
/// b.observe(read);
/// b.observe(write);
/// b.close_trace();
///
/// // Merging is a vector addition, never a rescan:
/// a.merge(&b);
/// let dfg: Dfg = a.to_dfg(&table);
/// assert_eq!(dfg.case_count(), 2);
/// assert_eq!(dfg.edge_count_named("●", "read:/etc"), 2);
/// assert_eq!(dfg.edge_count_named("read:/etc", "read:/etc"), 1);
/// assert_eq!(dfg.edge_count_named("read:/etc", "write:/tmp"), 1);
/// dfg.check_invariants().unwrap();
/// ```
///
/// One accumulator tracks *one* open trace at a time (`observe` extends
/// it, `close_trace` seals it). Until it is closed, [`Self::to_dfg`]
/// shows its edges so far but no end marker, so the graph satisfies
/// [`Dfg::check_invariants`] only with every trace closed.
#[derive(Debug, Clone)]
pub struct DfgAccumulator {
    /// Node slots: the two markers plus the activity slots.
    n: usize,
    /// Per-node occurrence counts (events for activities, traces for
    /// the markers).
    occ: Vec<u64>,
    edges: EdgeCounts,
    case_count: u64,
    /// Node index of the open trace's last activity (`None` between
    /// traces).
    prev: Option<usize>,
}

impl Default for DfgAccumulator {
    fn default() -> DfgAccumulator {
        DfgAccumulator::with_activities(0)
    }
}

impl DfgAccumulator {
    /// An empty accumulator with room for activity ids `0..activities`
    /// (it still grows past them on demand).
    pub(crate) fn with_activities(activities: usize) -> DfgAccumulator {
        let n = activities + 2;
        DfgAccumulator {
            n,
            occ: vec![0; n],
            edges: EdgeCounts::new(n),
            case_count: 0,
            prev: None,
        }
    }

    /// Re-lays the counts out over at least `n` node slots (doubling, so
    /// one-id-at-a-time growth stays amortized O(1) per id).
    #[cold]
    fn grow(&mut self, n: usize) {
        let n = n.max(2 * self.n);
        let old = std::mem::replace(&mut self.edges, EdgeCounts::new(n));
        for (from, to, c) in old.iter_nonzero(self.n) {
            self.edges.inc(n, from, to, c);
        }
        self.occ.resize(n, 0);
        self.n = n;
    }

    /// Counts `w` occurrences of `id` entered from node `from`; returns
    /// `id`'s node index.
    #[inline]
    fn step(&mut self, from: usize, id: ActivityId, w: u64) -> usize {
        let to = id.index() + 2;
        if to >= self.n {
            self.grow(to + 1);
        }
        self.occ[to] += w;
        self.edges.inc(self.n, from, to, w);
        to
    }

    /// Counts `w` traces ending at node `last`.
    fn seal(&mut self, last: usize, w: u64) {
        self.edges.inc(self.n, last, END, w);
        self.case_count += w;
        self.occ[START] += w;
        self.occ[END] += w;
    }

    /// Appends one activity to the open trace (opening one if needed):
    /// counts the edge from the previous activity, or from the start
    /// marker.
    pub fn observe(&mut self, id: ActivityId) {
        self.prev = Some(self.step(self.prev.unwrap_or(START), id, 1));
    }

    /// Seals the open trace: edge to the end marker, case counted.
    /// A no-op when no activity was observed since the last close
    /// (empty traces contribute nothing).
    pub fn close_trace(&mut self) {
        if let Some(last) = self.prev.take() {
            self.seal(last, 1);
        }
    }

    /// Adds one whole trace `⟨a_1, …, a_n⟩` with multiplicity `w`,
    /// wrapped with the start/end markers; the open trace, if any, is
    /// left as it was. Empty traces contribute nothing.
    pub fn add_trace(&mut self, trace: impl IntoIterator<Item = ActivityId>, w: u64) {
        let last = trace
            .into_iter()
            .fold(START, |from, id| self.step(from, id, w));
        if last != START {
            self.seal(last, w);
        }
    }

    /// Sealed traces so far.
    pub fn case_count(&self) -> u64 {
        self.case_count
    }

    /// Adds `other`'s counts into `self`, element by element; both must
    /// number activities from the same [`ActivityTable`]. `other`'s
    /// open-trace position is per-stream state and is not carried over;
    /// its counted events and edges are.
    pub fn merge(&mut self, other: &DfgAccumulator) {
        if other.n > self.n {
            self.grow(other.n);
        }
        for (mine, theirs) in self.occ.iter_mut().zip(&other.occ) {
            *mine += theirs;
        }
        for (from, to, c) in other.edges.iter_nonzero(other.n) {
            self.edges.inc(self.n, from, to, c);
        }
        self.case_count += other.case_count;
    }

    /// Materializes the counts as a [`Dfg`] named by `table`, which must
    /// hold every observed id (a copy — the accumulator keeps growing
    /// independently afterwards).
    pub fn to_dfg(&self, table: &ActivityTable) -> Dfg {
        Dfg::from_acc(table.clone(), self.clone())
    }
}

/// A Directly-Follows-Graph with observation counts.
#[derive(Debug)]
pub struct Dfg {
    /// Activity names (owned copy — DFGs outlive their `MappedLog`).
    table: ActivityTable,
    /// Dense counts; the ordered edge view below derives from it.
    acc: DfgAccumulator,
    /// Deterministically ordered edges, materialized on first access.
    ordered: OnceLock<BTreeMap<(Node, Node), u64>>,
}

impl Clone for Dfg {
    fn clone(&self) -> Dfg {
        Dfg {
            table: self.table.clone(),
            acc: self.acc.clone(),
            ordered: OnceLock::new(),
        }
    }
}

impl Dfg {
    fn from_acc(table: ActivityTable, acc: DfgAccumulator) -> Dfg {
        Dfg {
            table,
            acc,
            ordered: OnceLock::new(),
        }
    }

    /// Builds the DFG from a mapped log in one sequential pass.
    ///
    /// ```
    /// use st_core::prelude::*;
    /// use st_model::{Case, CaseMeta, Event, EventLog, Micros, Pid, Syscall};
    /// use std::sync::Arc;
    ///
    /// // One trace ⟨read:/etc/passwd, read:/etc/passwd⟩ ...
    /// let mut log = EventLog::with_new_interner();
    /// let i = Arc::clone(log.interner());
    /// let meta = CaseMeta { cid: i.intern("a"), host: i.intern("h"), rid: 0 };
    /// log.push_case(Case::from_events(meta, vec![
    ///     Event::new(Pid(1), Syscall::Read, Micros(0), Micros(1), i.intern("/etc/passwd")),
    ///     Event::new(Pid(1), Syscall::Read, Micros(2), Micros(1), i.intern("/etc/passwd")),
    /// ]));
    ///
    /// // ... yields ● → read:/etc/passwd → read:/etc/passwd → ■.
    /// let mapped = MappedLog::new(&log, &CallTopDirs::new(2));
    /// let dfg = Dfg::from_mapped(&mapped);
    /// assert_eq!(dfg.case_count(), 1);
    /// assert_eq!(dfg.edge_count_named("●", "read:/etc/passwd"), 1);
    /// assert_eq!(dfg.edge_count_named("read:/etc/passwd", "read:/etc/passwd"), 1);
    /// assert_eq!(dfg.edge_count_named("read:/etc/passwd", "■"), 1);
    /// ```
    pub fn from_mapped(mapped: &MappedLog<'_>) -> Dfg {
        let _span = st_obs::span!("dfg.build");
        let mut acc = DfgAccumulator::with_activities(mapped.table().len());
        for row in mapped.assignments() {
            acc.add_trace(row.iter().filter_map(|a| *a), 1);
        }
        Dfg::from_acc(mapped.table().clone(), acc)
    }

    /// Builds the DFG of a *slice* of the mapped log: only the events a
    /// [`st_model::LogView`] keeps contribute traces — the projection
    /// hook behind per-file / per-rank DFG families. Map the log once,
    /// then project any number of slices; each projection is one O(n')
    /// pass over the kept events, with no re-mapping and no event
    /// copies. The resulting graph shares the full log's activity
    /// table, so its DFGs stay name-comparable (and id-comparable)
    /// across slices.
    ///
    /// The result equals [`Dfg::from_mapped`] over the materialized
    /// slice up to activity-id numbering (names and counts align; the
    /// slice's own table would number only the surviving activities).
    ///
    /// `view` must slice the same [`st_model::EventLog`] the mapped log
    /// was built from; panics otherwise.
    pub fn from_mapped_view(mapped: &MappedLog<'_>, view: &st_model::LogView<'_>) -> Dfg {
        let _span = st_obs::span!("dfg.build.view");
        assert!(
            std::ptr::eq(mapped.log(), view.log()),
            "view must slice the same EventLog this MappedLog was built from"
        );
        let mut acc = DfgAccumulator::with_activities(mapped.table().len());
        for s in view.slices() {
            let row = &mapped.assignments()[s.case_idx];
            acc.add_trace(s.events.iter().filter_map(|&k| row[k as usize]), 1);
        }
        Dfg::from_acc(mapped.table().clone(), acc)
    }

    /// Builds the DFG from an explicit activity log (useful when the
    /// multiset is already materialized; weights multiply by trace
    /// multiplicity).
    pub fn from_activity_log(alog: &ActivityLog, table: &ActivityTable) -> Dfg {
        let mut acc = DfgAccumulator::with_activities(table.len());
        for entry in alog.entries() {
            acc.add_trace(entry.activities.iter().copied(), entry.multiplicity as u64);
        }
        Dfg::from_acc(table.clone(), acc)
    }

    /// Dense index of a node; `None` for activity ids outside this
    /// graph's id space (they must not alias the start/end slots).
    fn node_idx(&self, node: Node) -> Option<usize> {
        match node {
            Node::Start => Some(START),
            Node::End => Some(END),
            Node::Act(id) => Some(id.index() + 2).filter(|&idx| idx < self.acc.n),
        }
    }

    /// The deterministically ordered edge map, built on first use.
    fn ordered(&self) -> &BTreeMap<(Node, Node), u64> {
        self.ordered.get_or_init(|| {
            self.acc
                .edges
                .iter_nonzero(self.acc.n)
                .map(|(from, to, c)| ((idx_node(from), idx_node(to)), c))
                .collect()
        })
    }

    /// The activity name table.
    pub fn table(&self) -> &ActivityTable {
        &self.table
    }

    /// Number of activity nodes (excludes start/end).
    pub fn activity_node_count(&self) -> usize {
        self.acc.occ[2..].iter().filter(|&&c| c > 0).count()
    }

    /// Number of traces (cases) that contributed.
    pub fn case_count(&self) -> u64 {
        self.acc.case_count
    }

    /// All edges with counts, in deterministic order.
    pub fn edges(&self) -> impl Iterator<Item = (Node, Node, u64)> + '_ {
        self.ordered().iter().map(|(&(a, b), &c)| (a, b, c))
    }

    /// All nodes that occur, in deterministic order.
    pub fn nodes(&self) -> impl Iterator<Item = Node> + '_ {
        let start = (self.acc.occ[START] > 0).then_some(Node::Start);
        let end = (self.acc.occ[END] > 0).then_some(Node::End);
        start
            .into_iter()
            .chain(
                self.acc.occ[2..]
                    .iter()
                    .enumerate()
                    .filter(|(_, &c)| c > 0)
                    .map(|(i, _)| Node::Act(ActivityId(i as u32))),
            )
            .chain(end)
    }

    /// Occurrence count of a node (events for activities, traces for
    /// start/end).
    pub fn occurrences(&self, node: Node) -> u64 {
        self.node_idx(node)
            .map(|idx| self.acc.occ[idx])
            .unwrap_or(0)
    }

    /// Count on an edge (0 when absent). O(1) on the dense storage.
    pub fn edge_count(&self, from: Node, to: Node) -> u64 {
        match (self.node_idx(from), self.node_idx(to)) {
            (Some(f), Some(t)) => self.acc.edges.get(self.acc.n, f, t),
            _ => 0,
        }
    }

    /// Whether an activity with this name occurs in the graph.
    pub fn has_activity(&self, name: &str) -> bool {
        self.table
            .get(name)
            .is_some_and(|id| self.occurrences(Node::Act(id)) > 0)
    }

    /// Edge count between two *named* endpoints; start/end are named
    /// `"●"` and `"■"`. Returns 0 when either endpoint or the edge is
    /// missing.
    pub fn edge_count_named(&self, from: &str, to: &str) -> u64 {
        let Some(from) = self.node_by_name(from) else {
            return 0;
        };
        let Some(to) = self.node_by_name(to) else {
            return 0;
        };
        self.edge_count(from, to)
    }

    /// Resolves `"●"`, `"■"` or an activity name to a node.
    pub fn node_by_name(&self, name: &str) -> Option<Node> {
        match name {
            "●" => Some(Node::Start),
            "■" => Some(Node::End),
            _ => self.table.get(name).map(Node::Act),
        }
    }

    /// The display name of a node.
    pub fn node_name(&self, node: Node) -> &str {
        match node {
            Node::Start => "●",
            Node::End => "■",
            Node::Act(id) => self.table.name(id),
        }
    }

    /// Sum of all edge observation counts.
    pub fn total_edge_observations(&self) -> u64 {
        self.acc.edges.total()
    }

    /// Returns a copy keeping only edges observed at least `min_count`
    /// times; activity nodes left with no incident edge are dropped.
    ///
    /// Frequency filtering is the standard process-mining simplification
    /// for visual analysis of large graphs (the paper notes the mapping
    /// should keep `m` small "otherwise the visual analysis of the DFG
    /// would be tedious"). The filtered graph is a *view*: node
    /// occurrence counts keep their original values and the
    /// flow-conservation invariants of [`Dfg::check_invariants`] no
    /// longer hold on it.
    pub fn filter_edges(&self, min_count: u64) -> Dfg {
        let n = self.acc.n;
        let mut edges = EdgeCounts::new(n);
        let mut incident = vec![false; n];
        for (from, to, c) in self.acc.edges.iter_nonzero(n) {
            if c >= min_count {
                edges.inc(n, from, to, c);
                incident[from] = true;
                incident[to] = true;
            }
        }
        let occ = self
            .acc
            .occ
            .iter()
            .zip(&incident)
            .map(|(&c, &keep)| if keep { c } else { 0 })
            .collect();
        Dfg::from_acc(
            self.table.clone(),
            DfgAccumulator {
                n,
                occ,
                edges,
                case_count: self.acc.case_count,
                prev: None,
            },
        )
    }

    /// Checks the flow-conservation invariants implied by the trace
    /// construction: per activity node, in-flow = out-flow = occurrence
    /// count; start out-flow = end in-flow = case count.
    pub fn check_invariants(&self) -> Result<(), String> {
        let n = self.acc.n;
        let mut in_flow = vec![0u64; n];
        let mut out_flow = vec![0u64; n];
        for (from, to, c) in self.acc.edges.iter_nonzero(n) {
            out_flow[from] += c;
            in_flow[to] += c;
        }
        for idx in 0..n {
            let occ = self.acc.occ[idx];
            if occ == 0 {
                continue;
            }
            match idx_node(idx) {
                node @ Node::Act(_) => {
                    let (i, o) = (in_flow[idx], out_flow[idx]);
                    if i != occ || o != occ {
                        return Err(format!(
                            "node {} has in={i} out={o} occurrences={occ}",
                            self.node_name(node)
                        ));
                    }
                }
                Node::Start => {
                    let o = out_flow[idx];
                    if o != self.acc.case_count {
                        return Err(format!(
                            "start out-flow {o} != case count {}",
                            self.acc.case_count
                        ));
                    }
                }
                Node::End => {
                    let i = in_flow[idx];
                    if i != self.acc.case_count {
                        return Err(format!(
                            "end in-flow {i} != case count {}",
                            self.acc.case_count
                        ));
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::{CallTopDirs, PathFilter};
    use st_model::{Case, CaseMeta, Event, EventLog, Micros, Pid, Syscall};
    use std::sync::Arc;

    /// Builds the fictitious event-log of the paper's Activity-log
    /// example: traces ⟨a,a,b⟩, ⟨a,a,b⟩, ⟨a,c⟩.
    fn fictitious_log() -> EventLog {
        let mut log = EventLog::with_new_interner();
        let i = Arc::clone(log.interner());
        let mut push = |rid: u32, paths: &[&str]| {
            let meta = CaseMeta {
                cid: i.intern("x"),
                host: i.intern("h"),
                rid,
            };
            let events = paths
                .iter()
                .enumerate()
                .map(|(k, p)| {
                    Event::new(
                        Pid(rid),
                        Syscall::Read,
                        Micros(k as u64),
                        Micros(1),
                        i.intern(p),
                    )
                })
                .collect();
            log.push_case(Case::from_events(meta, events));
        };
        push(0, &["/a", "/a", "/b"]);
        push(1, &["/a", "/a", "/b"]);
        push(2, &["/a", "/c"]);
        log
    }

    fn build(log: &EventLog) -> (Dfg, MappedLog<'_>) {
        let mapped = MappedLog::new(log, &CallTopDirs::new(2));
        (Dfg::from_mapped(&mapped), mapped)
    }

    #[test]
    fn edges_and_counts_match_definition() {
        let log = fictitious_log();
        let (dfg, _mapped) = build(&log);
        // Activities: read:/a, read:/b, read:/c.
        assert_eq!(dfg.activity_node_count(), 3);
        assert_eq!(dfg.case_count(), 3);
        // ● → a observed in all three traces.
        assert_eq!(dfg.edge_count_named("●", "read:/a"), 3);
        // a → a (self loop) in two traces.
        assert_eq!(dfg.edge_count_named("read:/a", "read:/a"), 2);
        assert_eq!(dfg.edge_count_named("read:/a", "read:/b"), 2);
        assert_eq!(dfg.edge_count_named("read:/a", "read:/c"), 1);
        assert_eq!(dfg.edge_count_named("read:/b", "■"), 2);
        assert_eq!(dfg.edge_count_named("read:/c", "■"), 1);
        // No invented edges.
        assert_eq!(dfg.edge_count_named("read:/b", "read:/c"), 0);
        assert_eq!(dfg.edge_count_named("read:/c", "read:/b"), 0);
        // Occurrences.
        assert_eq!(dfg.occurrences(dfg.node_by_name("read:/a").unwrap()), 5);
        assert_eq!(dfg.occurrences(dfg.node_by_name("read:/b").unwrap()), 2);
        dfg.check_invariants().unwrap();
    }

    #[test]
    fn from_activity_log_equals_from_mapped() {
        let log = fictitious_log();
        let mapped = MappedLog::new(&log, &CallTopDirs::new(2));
        let direct = Dfg::from_mapped(&mapped);
        let alog = crate::activity_log::ActivityLog::from_mapped(&mapped);
        let via_alog = Dfg::from_activity_log(&alog, mapped.table());
        assert_eq!(
            direct.edges().collect::<Vec<_>>(),
            via_alog.edges().collect::<Vec<_>>()
        );
        assert_eq!(direct.case_count(), via_alog.case_count());
    }

    #[test]
    fn empty_traces_do_not_create_start_end_edge() {
        let log = fictitious_log();
        // Filter maps nothing.
        let m = PathFilter::new("/nonexistent", CallTopDirs::new(2));
        let mapped = MappedLog::new(&log, &m);
        let dfg = Dfg::from_mapped(&mapped);
        assert_eq!(dfg.case_count(), 0);
        assert_eq!(dfg.total_edge_observations(), 0);
        assert_eq!(dfg.nodes().count(), 0);
    }

    #[test]
    fn single_event_trace_wraps_with_start_and_end() {
        let mut log = EventLog::with_new_interner();
        let i = Arc::clone(log.interner());
        let meta = CaseMeta {
            cid: i.intern("a"),
            host: i.intern("h"),
            rid: 0,
        };
        log.push_case(Case::from_events(
            meta,
            vec![Event::new(
                Pid(0),
                Syscall::Read,
                Micros(0),
                Micros(1),
                i.intern("/x/y"),
            )],
        ));
        let (dfg, _) = build(&log);
        assert_eq!(dfg.edge_count_named("●", "read:/x/y"), 1);
        assert_eq!(dfg.edge_count_named("read:/x/y", "■"), 1);
        assert_eq!(dfg.case_count(), 1);
        dfg.check_invariants().unwrap();
    }

    #[test]
    fn filter_edges_keeps_frequent_relations() {
        let log = fictitious_log();
        let (dfg, _) = build(&log);
        // Counts: ●→a 3, a→a 2, a→b 2, a→c 1, b→■ 2, c→■ 1.
        let filtered = dfg.filter_edges(2);
        assert_eq!(filtered.edge_count_named("●", "read:/a"), 3);
        assert_eq!(filtered.edge_count_named("read:/a", "read:/a"), 2);
        assert_eq!(filtered.edge_count_named("read:/a", "read:/c"), 0);
        // read:/c loses all incident edges and disappears.
        assert!(!filtered.nodes().any(|n| filtered.node_name(n) == "read:/c"));
        assert!(filtered.has_activity("read:/b"));
        // Threshold above every count empties the graph.
        let empty = dfg.filter_edges(100);
        assert_eq!(empty.total_edge_observations(), 0);
        assert_eq!(empty.nodes().count(), 0);
        // Threshold 0/1 is the identity.
        let same = dfg.filter_edges(1);
        assert_eq!(
            same.edges().collect::<Vec<_>>(),
            dfg.edges().collect::<Vec<_>>()
        );
    }

    #[test]
    fn node_ordering_start_activities_end() {
        let log = fictitious_log();
        let (dfg, _) = build(&log);
        let nodes: Vec<Node> = dfg.nodes().collect();
        assert_eq!(nodes.first(), Some(&Node::Start));
        assert_eq!(nodes.last(), Some(&Node::End));
    }

    #[test]
    fn foreign_activity_ids_do_not_alias_markers() {
        // Ids at or beyond the activity slot count land on the reserved
        // start/end indices in the dense layout; queries must treat
        // them as absent, not as the markers.
        let log = fictitious_log();
        let (dfg, _) = build(&log);
        let m = dfg.table().len() as u32;
        for ghost in [m, m + 1, m + 7] {
            let node = Node::Act(ActivityId(ghost));
            assert_eq!(dfg.occurrences(node), 0, "ghost id {ghost}");
            assert_eq!(dfg.edge_count(Node::Start, node), 0);
            assert_eq!(dfg.edge_count(node, Node::End), 0);
        }
        // The markers themselves still answer.
        assert_eq!(dfg.occurrences(Node::Start), dfg.case_count());
    }

    #[test]
    fn view_projection_equals_filtered_rebuild() {
        let log = fictitious_log();
        let mapped = MappedLog::new(&log, &CallTopDirs::new(2));
        let snap = log.snapshot();
        // Slice: only events on /a.
        let keep = |_: &CaseMeta, e: &st_model::Event| snap.resolve(e.path) == "/a";
        let view = st_model::LogView::full(&log).refine(keep);
        let projected = Dfg::from_mapped_view(&mapped, &view);
        projected.check_invariants().unwrap();

        // Reference: filter the events first, then map + build.
        let filtered = log.filter_events(keep);
        let reference = Dfg::from_mapped(&MappedLog::new(&filtered, &CallTopDirs::new(2)));
        let named = |d: &Dfg| {
            let mut edges: Vec<(String, String, u64)> = d
                .edges()
                .map(|(a, b, c)| (d.node_name(a).to_string(), d.node_name(b).to_string(), c))
                .collect();
            edges.sort();
            edges
        };
        assert_eq!(named(&projected), named(&reference));
        assert_eq!(projected.case_count(), reference.case_count());

        // The identity view reproduces the full graph exactly.
        let full = Dfg::from_mapped_view(&mapped, &st_model::LogView::full(&log));
        assert_eq!(
            full.edges().collect::<Vec<_>>(),
            Dfg::from_mapped(&mapped).edges().collect::<Vec<_>>()
        );

        // The empty view yields the empty graph.
        let none = Dfg::from_mapped_view(&mapped, &st_model::LogView::empty(&log));
        assert_eq!(none.case_count(), 0);
        assert_eq!(none.nodes().count(), 0);
    }

    #[test]
    #[should_panic(expected = "same EventLog")]
    fn view_over_foreign_log_panics() {
        let log = fictitious_log();
        let other = fictitious_log();
        let mapped = MappedLog::new(&log, &CallTopDirs::new(2));
        let _ = Dfg::from_mapped_view(&mapped, &st_model::LogView::full(&other));
    }

    #[test]
    fn clone_preserves_counts() {
        let log = fictitious_log();
        let (dfg, _) = build(&log);
        // Materialize the ordered view, then clone: the clone rebuilds
        // its own view from the dense counts.
        let before: Vec<_> = dfg.edges().collect();
        let cloned = dfg.clone();
        assert_eq!(before, cloned.edges().collect::<Vec<_>>());
        assert_eq!(dfg.case_count(), cloned.case_count());
    }

    /// Named edge list — the id-independent comparison key.
    fn named_edges(d: &Dfg) -> Vec<(String, String, u64)> {
        let mut edges: Vec<(String, String, u64)> = d
            .edges()
            .map(|(a, b, c)| (d.node_name(a).to_string(), d.node_name(b).to_string(), c))
            .collect();
        edges.sort();
        edges
    }

    #[test]
    fn accumulator_equals_batch_build() {
        let log = fictitious_log();
        let (batch, mapped) = build(&log);
        // The same traces observed one activity at a time, starting
        // from an empty (growing) accumulator.
        let mut acc = DfgAccumulator::default();
        for case_idx in 0..log.case_count() {
            for id in mapped.trace_of(case_idx) {
                acc.observe(id);
            }
            acc.close_trace();
        }
        assert_eq!(acc.case_count(), 3);
        let live = acc.to_dfg(mapped.table());
        live.check_invariants().unwrap();
        assert_eq!(named_edges(&live), named_edges(&batch));
        assert_eq!(live.case_count(), batch.case_count());
    }

    #[test]
    fn accumulator_open_trace_is_partial_until_closed() {
        let mut table = ActivityTable::new();
        let (a, b) = (table.intern("a"), table.intern("b"));
        let mut acc = DfgAccumulator::default();
        acc.observe(a);
        acc.observe(b);
        // Honest partial: edges so far, no case sealed yet.
        let partial = acc.to_dfg(&table);
        assert_eq!(partial.case_count(), 0);
        assert_eq!(partial.edge_count_named("●", "a"), 1);
        assert_eq!(partial.edge_count_named("a", "b"), 1);
        assert_eq!(partial.edge_count_named("b", "■"), 0);
        // A whole trace added meanwhile leaves the open one untouched.
        acc.add_trace([b], 2);
        acc.close_trace();
        let sealed = acc.to_dfg(&table);
        assert_eq!(sealed.case_count(), 3);
        assert_eq!(sealed.edge_count_named("b", "■"), 3);
        sealed.check_invariants().unwrap();
        // Empty close is a no-op.
        acc.close_trace();
        assert_eq!(acc.case_count(), 3);
    }

    #[test]
    fn accumulator_growth_crosses_into_sparse_storage() {
        // Growing one id at a time past the matrix budget re-lays the
        // counts out without losing any.
        let mut table = ActivityTable::new();
        let mut acc = DfgAccumulator::default();
        let ids: Vec<ActivityId> = (0..MATRIX_MAX_NODES + 10)
            .map(|k| table.intern(&format!("read:/p{k}")))
            .collect();
        for &id in &ids {
            acc.observe(id);
        }
        acc.close_trace();
        assert!(matches!(acc.edges, EdgeCounts::Sparse(_)));
        let mut batch = DfgAccumulator::with_activities(table.len());
        batch.add_trace(ids.iter().copied(), 1);
        let (live, batch) = (acc.to_dfg(&table), batch.to_dfg(&table));
        live.check_invariants().unwrap();
        assert_eq!(named_edges(&live), named_edges(&batch));
        assert_eq!(live.activity_node_count(), MATRIX_MAX_NODES + 10);
    }

    #[test]
    fn sparse_fallback_matches_matrix_semantics() {
        // Force the sparse path by exceeding the matrix node budget.
        let mut log = EventLog::with_new_interner();
        let i = Arc::clone(log.interner());
        let meta = CaseMeta {
            cid: i.intern("a"),
            host: i.intern("h"),
            rid: 0,
        };
        let events = (0..(MATRIX_MAX_NODES + 10))
            .map(|k| {
                let p = format!("/p{k}/f");
                Event::new(
                    Pid(1),
                    Syscall::Read,
                    Micros(k as u64),
                    Micros(1),
                    i.intern(&p),
                )
            })
            .collect();
        log.push_case(Case::from_events(meta, events));
        let mapped = MappedLog::new(&log, &CallTopDirs::new(2));
        let dfg = Dfg::from_mapped(&mapped);
        assert!(matches!(dfg.acc.edges, EdgeCounts::Sparse(_)));
        assert_eq!(dfg.case_count(), 1);
        assert_eq!(dfg.activity_node_count(), MATRIX_MAX_NODES + 10);
        dfg.check_invariants().unwrap();
    }
}
