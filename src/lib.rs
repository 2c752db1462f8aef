//! # st-inspector — Inspection of I/O Operations from System Call Traces
//! # using Directly-Follows-Graphs
//!
//! A ground-up Rust implementation of *"Inspection of I/O Operations
//! from System Call Traces using Directly-Follows-Graph"* (Sankaran,
//! Zhukov, Frings, Bientinesi — SC'24 workshops, arXiv:2408.07378),
//! including every substrate its evaluation needs: an strace
//! parser/writer, a columnar event-log store, the DFG synthesis core, a
//! discrete-event cluster + parallel-filesystem simulator, and an IOR
//! benchmark model.
//!
//! This facade crate re-exports the workspace so applications depend on
//! one name:
//!
//! * [`model`] — events, cases, event logs (Sec. III, Eqs. 1–3);
//! * [`strace`] — trace parsing and emission (Fig. 1–2);
//! * [`store`] — the single-file per-case-table container (Sec. V
//!   "Implementation", HDF5 substitute);
//! * [`core`] — mappings, activity logs, DFGs, statistics, coloring,
//!   rendering (Sec. IV — the paper's contribution);
//! * [`query`] — the trace query & slicing engine: predicate algebra,
//!   filter expressions, zero-copy views, per-file/per-rank projection
//!   (the Sec. III/V iterative-narrowing loop), and zone-map predicate
//!   pushdown into the store reader;
//! * [`source`] — the unified pipeline entry point: any input kind
//!   behind one [`TraceSource`](source::TraceSource) and the
//!   [`Inspector`](source::Inspector) session builder that plans the
//!   cheapest evaluation route per source;
//! * [`sim`] — the simulated cluster (JUWELS/GPFS substitute);
//! * [`ior`] — the IOR workload model (Sec. V experiments).
//!
//! ## The Fig. 6 pipeline as one session
//!
//! [`Inspector`](source::Inspector) runs the whole workflow — resolve
//! an input, narrow it, map it, project it — from a single builder
//! chain over any input kind (a store file, an strace directory or
//! file, or a `sim:` spec). Predicate pushdown, parallel loading and
//! the scan engine are planned per source, invisibly:
//!
//! ```
//! use st_inspector::prelude::*;
//!
//! // The simulated SSF run, narrowed to failing calls, as a DFG.
//! let session = Inspector::open("sim:ssf")?
//!     .filter(parse_expr(r#"ok=false path~"*.so*""#)?)
//!     .map(CallTopDirs::new(2))
//!     .session()?;
//! assert!(session.events_matched() < session.events_total());
//!
//! // One mapping pass serves any number of projections.
//! let mapped = session.mapped();
//! let dfg = Dfg::from_mapped(&mapped);           // Sec. IV-A
//! let stats = IoStatistics::compute(&mapped);    // Sec. IV-B
//! assert!(dfg.activity_node_count() > 0);
//! let per_file = group_by(&session.view(), GroupKey::File);
//! for (_file, slice) in &per_file {
//!     let _slice_dfg = Dfg::from_mapped_view(&mapped, slice);
//! }
//!
//! // 5) statistics-colored rendering, as before.
//! let dot = DfgViewer::new(&dfg)
//!     .with_stats(&stats)
//!     .with_styler(StatisticsColoring::by_load(&stats))
//!     .render_dot();
//! assert!(dot.starts_with("digraph"));
//! # Ok::<(), st_inspector::source::Error>(())
//! ```
//!
//! The hand-wired substrate remains fully public — see
//! [`MappedLog`](core::MappedLog), [`Dfg`](core::Dfg) and the crate
//! docs of [`strace`], [`store`] and [`query`] for the layer the
//! session API plans over.

#![warn(missing_docs)]

pub use st_core as core;
pub use st_ior as ior;
pub use st_model as model;
pub use st_obs as obs;
pub use st_query as query;
pub use st_sim as sim;
pub use st_source as source;
pub use st_store as store;
pub use st_strace as strace;

/// Everything needed for the Fig. 6 workflow in one import.
pub mod prelude {
    pub use st_core::prelude::*;
    pub use st_ior::{run_ior, Api, IorOptions};
    pub use st_model::{
        Case, CaseMeta, CaseSlice, Event, EventLog, Interner, LogView, Micros, Pid, Symbol, Syscall,
    };
    pub use st_obs::PipelineReport;
    pub use st_query::{group_by, parse_expr, scan, scan_par, GroupKey, Predicate};
    pub use st_sim::{SimConfig, Simulation, TraceFilter};
    pub use st_source::{Inspector, Session, SourceWarning, TraceSource};
    pub use st_store::{read_store, write_store};
    pub use st_strace::{load_dir, parse_str, write_log_to_dir, LoadOptions, WriteOptions};
}
