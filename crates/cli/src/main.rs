//! `stinspect` — command-line front end for the DFG synthesis pipeline.
//!
//! ```text
//! stinspect parse <input> -o <log.stlog> [--sequential] [--strict-names]
//!               [--threads N] [--streaming]
//! stinspect dfg <input> [--filter EXPR] [--map MAP] [--color MODE]
//!               [--ranks] [-o out.dot] [--summary] [--no-pushdown]
//! stinspect stats <input> [--filter EXPR] [--map MAP] [--csv] [--no-pushdown]
//! stinspect timeline <input> <activity> [--filter EXPR] [--map MAP] [--width N]
//!               [--no-pushdown]
//! stinspect simulate <ls|ior-ssf-fpp|ior-mpiio|ssf|fpp> --out <dir> [--paper] [--emit-strace]
//! stinspect diff <a> <b> [--cid-a CID] [--cid-b CID] [--map MAP] [--filter EXPR]
//!               [-o out.dot] [--dot] [--no-pushdown]
//! stinspect query <input> [--filter EXPR] [--then-filter EXPR]...
//!               [--group-by file|pid|cid|host]
//!               [--emit dfg|stats|events|store] [--map MAP] [--threads N]
//!               [--no-pushdown] [-o PATH]
//! stinspect fsck <store>
//! stinspect serve -o <store> [--addr HOST:PORT] [--max-conns N]
//!               [--block-events N] [--checkpoint-cases N]
//! ```
//!
//! Global flags apply to every command: `--salvage` opens store inputs
//! in salvage mode (corrupt blocks are quarantined and reported as
//! warnings instead of failing the open; inert on non-store inputs),
//! `--deny-warnings` promotes any session warning to a hard error with
//! a nonzero exit, and `--metrics[=text|json|chrome]` (optionally with
//! `--metrics-out PATH`) reports where the invocation spent its time
//! and bytes — a timed stage tree from the `st-obs` layer under every
//! route, renderable as text, stable JSON (`st-obs/1`), or a Chrome
//! trace-event file. `fsck` reports a container's health —
//! per-section and per-block verdicts plus the recoverable event
//! fraction — and exits 0 (clean), 3 (degraded: salvage would lose
//! events) or 4 (unreadable: salvage cannot open it at all).
//!
//! Every `<input>` is resolved by the same `st_source::TraceSource`
//! layer: an `st-store` container file (v1 or v2), a directory of
//! strace files, a single strace file, or a simulate spec
//! `sim:<workload>[:paper]` (the workloads `simulate` accepts,
//! generated in memory).
//!
//! `EXPR` is the `st-query` filter syntax on **every** subcommand, e.g.
//! `pid=42 path~"*.h5" t=[1.2s,3s) ok=false` or `class=write and
//! size>=1m` — see DESIGN.md §7 for the grammar (the old path-substring
//! `--filter` spelling is `path~"*needle*"` now). On STLOG v2 store
//! inputs the filter is pushed down into the reader by the session
//! planner (zone-mapped blocks that cannot match are never decoded; a
//! `pushdown:` summary line reports what was skipped) — on every
//! subcommand, not just `query`; `--no-pushdown` forces the full-load
//! scan path, which returns identical results. Time windows with unit
//! suffixes are offsets from the log's first event (`t=[0s,2s)` = the
//! first two seconds of the run); `HH:MM:SS[.ffffff]` endpoints are
//! absolute times of day. `--group-by` explodes the slice into
//! per-file / per-pid / per-cid / per-host DFG families.
//!
//! `query --then-filter EXPR` (repeatable) is the paper's iterative
//! narrowing as one invocation: the first query runs with `--filter`
//! through a decoded-block cache, then each `--then-filter` conjoins
//! its expression and **re-queries the open container** — the refined
//! plan re-prunes against the already-loaded directory and serves
//! every block the previous pass decoded from memory (a `requery:`
//! line reports the cache hits; with `--metrics` they appear as
//! `cache.hits` / `cache.misses` / `cache.bytes` counters). The
//! projections run on the final slice.
//!
//! `MAP` is one of `topdirs[:K]` (Eq. 4, default K=2), `suffix:PREFIX`
//! (Fig. 4 naming), `site` (the experiments' `$SCRATCH`/`$SOFTWARE`
//! abstraction, default site rules), or `call` (syscall name only).
//! `MODE` is `load` (default), `bytes`, or `partition:CID` (green = the
//! given command id, red = everything else).

use std::path::PathBuf;
use std::process::ExitCode;

use st_core::prelude::*;
use st_source::{Inspector, RecoveryPolicy, Session};
use st_store::{write_store, ColumnSet, Verdict};

/// Writes to stdout, exiting quietly when the consumer closed the pipe
/// (`stinspect ... | head`).
fn emit(text: &str) {
    use std::io::Write as _;
    let mut out = std::io::stdout();
    if out.write_all(text.as_bytes()).is_err() || out.flush().is_err() {
        std::process::exit(0);
    }
}

/// Flags that apply to every subcommand, stripped before dispatch.
#[derive(Debug, Clone, Copy, Default)]
struct Policy {
    /// Open store inputs with [`RecoveryPolicy::Salvage`].
    salvage: bool,
    /// Promote any session warning to a hard error.
    deny_warnings: bool,
}

impl Policy {
    fn recovery(&self) -> RecoveryPolicy {
        if self.salvage {
            RecoveryPolicy::Salvage
        } else {
            RecoveryPolicy::Strict
        }
    }
}

/// Output format for the global `--metrics` flag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MetricsFormat {
    /// Indented stage tree on stderr (the `--metrics` default).
    Text,
    /// One line of stable-schema JSON (`st-obs/1`) on stderr.
    Json,
    /// Chrome trace-event document for `about:tracing` / Perfetto;
    /// requires `--metrics-out` (it is a file format, not a log line).
    Chrome,
}

impl MetricsFormat {
    fn parse(s: &str) -> Result<MetricsFormat, String> {
        match s {
            "text" => Ok(MetricsFormat::Text),
            "json" => Ok(MetricsFormat::Json),
            "chrome" => Ok(MetricsFormat::Chrome),
            other => Err(format!(
                "unknown --metrics format {other:?} (text, json, chrome)"
            )),
        }
    }
}

/// The most recent session's pipeline report. The session layer
/// annotates its own report with route notes and folds the external
/// accounting into the counter totals; the command-level report
/// rendered by `--metrics` covers the whole invocation, so it adopts
/// those notes and totals at render time.
static LAST_REPORT: std::sync::OnceLock<std::sync::Mutex<Option<st_obs::PipelineReport>>> =
    std::sync::OnceLock::new();

fn remember_session_report(session: &Session) {
    let cell = LAST_REPORT.get_or_init(|| std::sync::Mutex::new(None));
    *cell.lock().unwrap_or_else(|e| e.into_inner()) = Some(session.report().clone());
}

/// Renders the metrics collected over the whole invocation in the
/// requested format, to stderr or to `--metrics-out`.
fn render_metrics(format: MetricsFormat, out_path: Option<&std::path::Path>, mark: &st_obs::Mark) {
    let body = match format {
        MetricsFormat::Chrome => st_obs::chrome_since(mark),
        _ => {
            let mut report = st_obs::report_since(mark);
            let last = LAST_REPORT
                .get()
                .and_then(|cell| cell.lock().unwrap_or_else(|e| e.into_inner()).take());
            if let Some(last) = last {
                for (k, v) in &last.notes {
                    report.set_note(k, v.clone());
                }
                for (k, v) in &last.totals {
                    report.merge_counter(k, *v);
                }
            }
            match format {
                MetricsFormat::Text => report.render_text(),
                _ => {
                    let mut line = report.render_json();
                    line.push('\n');
                    line
                }
            }
        }
    };
    match out_path {
        Some(path) => match std::fs::write(path, &body) {
            Ok(()) => eprintln!("metrics: wrote {}", path.display()),
            Err(e) => eprintln!("stinspect: --metrics-out {}: {e}", path.display()),
        },
        None => eprint!("{body}"),
    }
}

fn main() -> ExitCode {
    let mut policy = Policy::default();
    let mut metrics: Option<MetricsFormat> = None;
    let mut metrics_out: Option<PathBuf> = None;
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut args: Vec<String> = Vec::with_capacity(raw.len());
    let mut iter = raw.into_iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--salvage" => policy.salvage = true,
            "--deny-warnings" => policy.deny_warnings = true,
            "--metrics" => metrics = Some(MetricsFormat::Text),
            "--metrics-out" => {
                let Some(path) = iter.next() else {
                    eprintln!("stinspect: --metrics-out requires a path");
                    return ExitCode::from(2);
                };
                metrics_out = Some(PathBuf::from(path));
            }
            other => match other.strip_prefix("--metrics=") {
                Some(fmt) => match MetricsFormat::parse(fmt) {
                    Ok(f) => metrics = Some(f),
                    Err(msg) => {
                        eprintln!("stinspect: {msg}");
                        return ExitCode::from(2);
                    }
                },
                None => args.push(arg),
            },
        }
    }
    if metrics == Some(MetricsFormat::Chrome) && metrics_out.is_none() {
        eprintln!(
            "stinspect: --metrics=chrome requires --metrics-out <file> \
             (a trace-event document, not a stderr rendering)"
        );
        return ExitCode::from(2);
    }
    if metrics_out.is_some() && metrics.is_none() {
        eprintln!("stinspect: --metrics-out requires --metrics[=text|json|chrome]");
        return ExitCode::from(2);
    }
    // Collection stays off (one relaxed load per instrumented site)
    // unless --metrics asks for it; the mark scopes the report to this
    // invocation.
    let obs_mark = metrics.map(|_| {
        st_obs::set_enabled(true);
        st_obs::mark()
    });

    let Some(command) = args.first().cloned() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let rest = &args[1..];
    let code = {
        // Root span: every stage of the invocation nests under the
        // command name. Dropped before the report is rendered so the
        // tree is complete.
        let _root = st_obs::span_with("stinspect", || command.clone());
        match command.as_str() {
            // fsck owns its exit codes (0 clean / 3 degraded / 4 unreadable).
            "fsck" => cmd_fsck(rest),
            "serve" => match cmd_serve(rest) {
                Ok(()) => ExitCode::SUCCESS,
                Err(msg) => {
                    eprintln!("stinspect: {msg}");
                    ExitCode::FAILURE
                }
            },
            "--help" | "-h" | "help" => {
                println!("{USAGE}");
                ExitCode::SUCCESS
            }
            cmd => {
                let result = match cmd {
                    "parse" => cmd_parse(rest, policy),
                    "dfg" => cmd_dfg(rest, policy),
                    "stats" => cmd_stats(rest, policy),
                    "timeline" => cmd_timeline(rest, policy),
                    "simulate" => cmd_simulate(rest),
                    "diff" => cmd_diff(rest, policy),
                    "query" => cmd_query(rest, policy),
                    other => Err(format!("unknown command {other:?}\n{USAGE}")),
                };
                match result {
                    Ok(()) => ExitCode::SUCCESS,
                    Err(msg) => {
                        eprintln!("stinspect: {msg}");
                        ExitCode::FAILURE
                    }
                }
            }
        }
    };
    if let (Some(format), Some(mark)) = (metrics, &obs_mark) {
        render_metrics(format, metrics_out.as_deref(), mark);
    }
    code
}

const USAGE: &str = "\
stinspect — inspection of I/O operations from system call traces (DFG synthesis)

every <input> is a store file | strace dir | strace file | sim:<workload>[:paper];
EXPR is the st-query filter syntax, e.g. pid=42 path~\"*.h5\" t=[1.2s,3s) ok=false
(v2 store inputs push the filter into the reader; --no-pushdown forces a full scan)

commands:
  parse <input> -o <log.stlog>       ingest any input into a container
      [--sequential] [--strict-names] [--threads N] [--streaming]
  dfg <input>                        synthesize and render the DFG
      [--filter EXPR] [--map topdirs[:K]|suffix:PREFIX|site|call]
      [--color load|bytes|partition:CID] [--ranks] [--min-edge N]
      [-o out.dot] [--summary] [--no-pushdown]
  stats <input>                      print per-activity statistics
      [--filter EXPR] [--map MAP] [--csv] [--no-pushdown]
  timeline <input> <activity>        per-case interval plot (Fig. 5)
      [--map MAP] [--width N] [--filter EXPR] [--no-pushdown]
  simulate <ls|ior-ssf-fpp|ior-mpiio|ssf|fpp> --out <dir>
      [--paper] [--emit-strace]      generate a workload's event log
  diff <a> <b>                       compare two runs' DFGs
      [--cid-a CID] [--cid-b CID] [--map MAP] [--filter EXPR]
      [-o out.dot] [--dot] [--no-stats] [--no-pushdown]
  query <input>                      filter, slice and project the log
      [--filter EXPR] [--then-filter EXPR]... [--group-by file|pid|cid|host]
      [--emit dfg|stats|events|store] [--map MAP] [--threads N]
      [--no-pushdown] [-o PATH]
      each --then-filter conjoins and re-queries the open container
      through the decoded-block cache (hot iterative narrowing)
  fsck <store>                       report container health
      exit 0 = clean, 3 = degraded (salvage loses events), 4 = unreadable
  serve -o <store>                   stinspectd: live ingest + query daemon
      [--addr HOST:PORT] [--max-conns N] [--block-events N]
      [--checkpoint-cases N]
      POST /ingest/<cid>_<host>_<rid>.st streams strace lines in;
      GET /query?filter=EXPR&emit=events|stats|dfg serves the sealed
      store (CLI-identical bodies); GET /dfg merges the live DFG;
      GET /tail long-polls the event feed; GET /metrics reports st-obs
      JSON; POST /shutdown (or SIGTERM) seals and finishes the store

global flags (any command):
  --salvage          open store inputs in salvage mode: corrupt blocks are
                     quarantined and reported as warnings instead of failing
  --deny-warnings    promote any warning to a hard error (nonzero exit)
  --metrics[=text|json|chrome]
                     collect and report pipeline metrics: a timed stage tree
                     with counters (bytes read, blocks pruned, events scanned).
                     text (default) = indented tree on stderr; json = one line
                     of stable st-obs/1 JSON on stderr; chrome = trace-event
                     file for Perfetto/about:tracing (needs --metrics-out)
  --metrics-out PATH write the metrics rendering to PATH instead of stderr";

/// Simple flag cursor over the argument list.
struct Args<'a> {
    tokens: &'a [String],
    pos: usize,
}

impl<'a> Args<'a> {
    fn new(tokens: &'a [String]) -> Self {
        Args { tokens, pos: 0 }
    }

    fn next(&mut self) -> Option<&'a str> {
        let tok = self.tokens.get(self.pos)?;
        self.pos += 1;
        Some(tok)
    }

    fn value(&mut self, flag: &str) -> Result<&'a str, String> {
        self.next()
            .ok_or_else(|| format!("{flag} requires a value"))
    }
}

/// A mapping selected on the command line.
enum MapChoice {
    TopDirs(usize),
    Suffix(String),
    Site,
    Call,
}

impl MapChoice {
    fn parse(spec: &str) -> Result<MapChoice, String> {
        if spec == "call" {
            return Ok(MapChoice::Call);
        }
        if spec == "site" {
            return Ok(MapChoice::Site);
        }
        if let Some(rest) = spec.strip_prefix("suffix:") {
            return Ok(MapChoice::Suffix(rest.to_string()));
        }
        if spec == "topdirs" {
            return Ok(MapChoice::TopDirs(2));
        }
        if let Some(rest) = spec.strip_prefix("topdirs:") {
            let k: usize = rest.parse().map_err(|_| format!("bad depth {rest:?}"))?;
            return Ok(MapChoice::TopDirs(k));
        }
        Err(format!("unknown mapping {spec:?}"))
    }

    fn build(&self) -> Box<dyn Mapping + Send + Sync> {
        match self {
            MapChoice::TopDirs(k) => Box::new(CallTopDirs::new(*k)),
            MapChoice::Suffix(prefix) => Box::new(PathFilter::new(
                prefix.clone(),
                PathSuffix::new(prefix.clone()),
            )),
            MapChoice::Site => {
                let paths = st_sim::config::PathScheme::default();
                Box::new(SiteMap::new([
                    (paths.scratch, "$SCRATCH".to_string()),
                    (paths.software, "$SOFTWARE".to_string()),
                    (paths.home, "$HOME".to_string()),
                    (paths.shm, "Node Local".to_string()),
                    ("/tmp".to_string(), "Node Local".to_string()),
                ]))
            }
            MapChoice::Call => Box::new(CallOnly),
        }
    }
}

/// The event columns the mapping/DFG/statistics/timeline projections
/// read: everything except `requested`/`offset`, which only full-
/// fidelity store copies need.
fn analysis_columns() -> ColumnSet {
    ColumnSet::ALL.without(ColumnSet::REQUESTED | ColumnSet::OFFSET)
}

/// Opens `input` through the session layer with the shared CLI wiring:
/// an optional `--filter` expression, a mapping, the pushdown toggle
/// and a column budget. Prints the session's structured warnings to
/// stderr (the channel's CLI rendering).
fn open_session(
    input: &str,
    filter: Option<&str>,
    map: &MapChoice,
    no_pushdown: bool,
    columns: ColumnSet,
    policy: Policy,
) -> Result<Session, String> {
    let mut inspector = Inspector::open(input)
        .map_err(|e| e.to_string())?
        .map_boxed(map.build())
        .pushdown(!no_pushdown)
        .columns(columns)
        .recovery(policy.recovery())
        .deny_warnings(policy.deny_warnings);
    if let Some(expr) = filter {
        inspector = inspector
            .filter_expr(expr)
            .map_err(|e| format!("--filter: {e}"))?;
    }
    let session = inspector.session().map_err(|e| e.to_string())?;
    report_session(&session);
    Ok(session)
}

/// Prints a session's warnings and, after a salvage-mode open, a
/// one-line recovery summary; stashes the session's pipeline report
/// for the `--metrics` rendering at exit.
fn report_session(session: &Session) {
    remember_session_report(session);
    for warning in session.warnings() {
        eprintln!("warning: {warning}");
    }
    if let Some(report) = session.salvage() {
        if report.verdict() == Verdict::Degraded {
            eprintln!(
                "salvage: recovered {}/{} events ({}/{} blocks)",
                report.events_recovered,
                report.events_total,
                report.blocks_recovered,
                report.blocks_total
            );
        }
    }
}

/// Prints the pruning summary when the session took the pushdown
/// route — a rendering of the session's [`st_obs::PipelineReport`]
/// counters (the same totals `--metrics` reports). `prefix`
/// attributes the line when several inputs report (e.g. `"A: "`/`"B:
/// "` for the two sides of a diff).
fn report_pushdown(session: &Session, prefix: &str) {
    if session.pushdown().is_none() {
        return;
    }
    let r = session.report();
    let (decoded, total) = (r.counter("bytes_decoded"), r.counter("bytes_total"));
    eprintln!(
        "{prefix}pushdown: pruned {}/{} blocks ({} of {} cases whole), decoded {} of {} bytes ({:.1}%), read {} bytes off disk",
        r.counter("blocks_pruned"),
        r.counter("blocks_total"),
        r.counter("cases_pruned"),
        r.counter("cases_total"),
        decoded,
        total,
        if total == 0 {
            100.0
        } else {
            100.0 * decoded as f64 / total as f64
        },
        r.counter("bytes_read"),
    );
    // On a re-query session, account how much decode work the block
    // cache absorbed (hits + misses = the blocks the plan admitted).
    let (hits, misses) = (r.counter("cache.hits"), r.counter("cache.misses"));
    if hits + misses > 0 {
        eprintln!(
            "{prefix}requery: {hits} of {} decoded blocks from cache ({} bytes resident)",
            hits + misses,
            r.counter("cache.bytes"),
        );
    }
}

fn cmd_parse(tokens: &[String], policy: Policy) -> Result<(), String> {
    let mut args = Args::new(tokens);
    let mut input: Option<String> = None;
    let mut out: Option<PathBuf> = None;
    let mut opts = st_strace::LoadOptions::default();
    let mut explicit_threads = false;
    let mut sequential = false;
    while let Some(tok) = args.next() {
        match tok {
            "-o" => out = Some(PathBuf::from(args.value("-o")?)),
            "--sequential" => sequential = true,
            "--strict-names" => opts.strict_names = true,
            "--streaming" => opts.streaming = true,
            "--threads" => {
                explicit_threads = true;
                opts.threads = args
                    .value("--threads")?
                    .parse()
                    .map_err(|_| "bad --threads".to_string())?
            }
            flag if flag.starts_with('-') => return Err(format!("unknown flag {flag}")),
            spec => input = Some(spec.to_string()),
        }
    }
    // Contradictory worker budgets are rejected up front instead of
    // silently ignored: `--sequential` pins the budget to one worker,
    // and the streaming path reads each file line-at-a-time, so it can
    // never spend a `--threads` surplus *inside* a file the way the
    // default in-memory path does (for a single huge trace — streaming's
    // main use case — an explicit budget would be silently reduced to 1).
    if explicit_threads && sequential {
        return Err(
            "parse: --sequential and --threads conflict (sequential parsing uses one worker); \
             drop one of the flags"
                .to_string(),
        );
    }
    if explicit_threads && opts.streaming {
        return Err(
            "parse: --streaming and --threads conflict: streaming parses each file \
             line-at-a-time, so a worker budget beyond the file count cannot be honored \
             (no within-file chunking); drop --threads (workers default to \
             min(files, cores)) or drop --streaming"
                .to_string(),
        );
    }
    if sequential {
        opts.threads = 1;
    }
    let input = input.ok_or("parse: missing <input>")?;
    let out = out.ok_or("parse: missing -o <log.stlog>")?;
    // Loader flags (--sequential/--streaming/--strict-names/--threads)
    // on a store or sim: input are rejected by the session layer —
    // they shape strace text loading and would be silently inert
    // anywhere else.
    let session = Inspector::open(&input)
        .map_err(|e| e.to_string())?
        .load_options(opts)
        .recovery(policy.recovery())
        .deny_warnings(policy.deny_warnings)
        .session()
        .map_err(|e| e.to_string())?;
    report_session(&session);
    let log = session.into_log();
    write_store(&log, &out).map_err(|e| e.to_string())?;
    println!(
        "parsed {} cases / {} events into {}",
        log.case_count(),
        log.total_events(),
        out.display()
    );
    Ok(())
}

struct DfgArgs {
    input: String,
    filter: Option<String>,
    map: MapChoice,
    color: String,
    ranks: bool,
    out: Option<PathBuf>,
    summary: bool,
    csv: bool,
    no_pushdown: bool,
    min_edge: u64,
    width: usize,
    activity: Option<String>,
}

fn parse_dfg_args(tokens: &[String], positional: usize) -> Result<DfgArgs, String> {
    let mut args = Args::new(tokens);
    let mut parsed = DfgArgs {
        input: String::new(),
        filter: None,
        map: MapChoice::TopDirs(2),
        color: "load".to_string(),
        ranks: false,
        out: None,
        summary: false,
        csv: false,
        no_pushdown: false,
        min_edge: 0,
        width: 72,
        activity: None,
    };
    let mut positionals: Vec<String> = Vec::new();
    while let Some(tok) = args.next() {
        match tok {
            "--filter" => parsed.filter = Some(args.value("--filter")?.to_string()),
            "--map" => parsed.map = MapChoice::parse(args.value("--map")?)?,
            "--color" => parsed.color = args.value("--color")?.to_string(),
            "--ranks" => parsed.ranks = true,
            "--summary" => parsed.summary = true,
            "--csv" => parsed.csv = true,
            "--no-pushdown" => parsed.no_pushdown = true,
            "--min-edge" => {
                parsed.min_edge = args
                    .value("--min-edge")?
                    .parse()
                    .map_err(|_| "bad --min-edge".to_string())?
            }
            "--width" => {
                parsed.width = args
                    .value("--width")?
                    .parse()
                    .map_err(|_| "bad --width".to_string())?
            }
            "-o" => parsed.out = Some(PathBuf::from(args.value("-o")?)),
            flag if flag.starts_with('-') => return Err(format!("unknown flag {flag}")),
            positional_tok => positionals.push(positional_tok.to_string()),
        }
    }
    if positionals.len() != positional {
        return Err(format!("expected {positional} positional argument(s)"));
    }
    parsed.input = positionals[0].clone();
    if positional > 1 {
        parsed.activity = Some(positionals[1].clone());
    }
    Ok(parsed)
}

/// Opens the session a `dfg`/`stats`/`timeline` invocation describes.
fn open_dfg_session(parsed: &DfgArgs, policy: Policy) -> Result<Session, String> {
    let session = open_session(
        &parsed.input,
        parsed.filter.as_deref(),
        &parsed.map,
        parsed.no_pushdown,
        analysis_columns(),
        policy,
    )?;
    report_pushdown(&session, "");
    Ok(session)
}

fn cmd_dfg(tokens: &[String], policy: Policy) -> Result<(), String> {
    let parsed = parse_dfg_args(tokens, 1)?;
    let session = open_dfg_session(&parsed, policy)?;
    let mapped = session.mapped();
    let mut dfg = Dfg::from_mapped(&mapped);
    if parsed.min_edge > 1 {
        dfg = dfg.filter_edges(parsed.min_edge);
    }
    let stats = IoStatistics::compute(&mapped);
    let options = st_core::render::RenderOptions {
        show_ranks: parsed.ranks,
        ..Default::default()
    };

    let dot = match parsed.color.as_str() {
        "load" => st_core::render::render_dot(
            &dfg,
            Some(&stats),
            &StatisticsColoring::by_load(&stats),
            &options,
        ),
        "bytes" => st_core::render::render_dot(
            &dfg,
            Some(&stats),
            &StatisticsColoring::by_bytes(&stats),
            &options,
        ),
        other => {
            let Some(cid) = other.strip_prefix("partition:") else {
                return Err(format!("unknown color mode {other:?}"));
            };
            let (green_log, red_log) = session.log().partition_by_cid(cid);
            if green_log.is_empty() {
                return Err(format!("no cases with cid {cid:?} for partition coloring"));
            }
            let dfg_g = Dfg::from_mapped(&MappedLog::new(&green_log, session.mapping()));
            let dfg_r = Dfg::from_mapped(&MappedLog::new(&red_log, session.mapping()));
            st_core::render::render_dot(
                &dfg,
                Some(&stats),
                &PartitionColoring::new(&dfg_g, &dfg_r),
                &options,
            )
        }
    };

    match &parsed.out {
        Some(path) => {
            std::fs::write(path, &dot).map_err(|e| e.to_string())?;
            println!("wrote {}", path.display());
        }
        None => emit(&dot),
    }
    if parsed.summary {
        emit(&render_summary(&dfg, Some(&stats)));
        emit("\n");
    }
    Ok(())
}

fn cmd_stats(tokens: &[String], policy: Policy) -> Result<(), String> {
    let parsed = parse_dfg_args(tokens, 1)?;
    let session = open_dfg_session(&parsed, policy)?;
    let log = session.log();
    let mapped = session.mapped();
    let dfg = Dfg::from_mapped(&mapped);
    let stats = IoStatistics::compute(&mapped);
    if parsed.csv {
        // Clean machine-readable output; the human header goes to stderr.
        eprintln!(
            "{} cases, {} events, {} mapped, {} activities",
            log.case_count(),
            log.total_events(),
            mapped.mapped_events(),
            mapped.activity_count()
        );
        emit(&stats.to_csv());
    } else {
        emit(&format!(
            "{} cases, {} events, {} mapped, {} activities\n",
            log.case_count(),
            log.total_events(),
            mapped.mapped_events(),
            mapped.activity_count()
        ));
        emit(&render_summary(&dfg, Some(&stats)));
        emit("\n");
    }
    Ok(())
}

fn cmd_timeline(tokens: &[String], policy: Policy) -> Result<(), String> {
    let parsed = parse_dfg_args(tokens, 2)?;
    let activity = parsed.activity.as_deref().expect("two positionals");
    let session = open_dfg_session(&parsed, policy)?;
    let mapped = session.mapped();
    let timeline = Timeline::for_activity(&mapped, activity)
        .ok_or_else(|| format!("no events map to activity {activity:?}"))?;
    emit(&timeline.render_ascii(parsed.width));
    Ok(())
}

fn cmd_diff(tokens: &[String], policy: Policy) -> Result<(), String> {
    let mut args = Args::new(tokens);
    let mut inputs: Vec<String> = Vec::new();
    let mut cid_a: Option<String> = None;
    let mut cid_b: Option<String> = None;
    let mut map = MapChoice::TopDirs(2);
    let mut filter: Option<String> = None;
    let mut out: Option<PathBuf> = None;
    let mut dot_stdout = false;
    let mut with_stats = true;
    let mut no_pushdown = false;
    while let Some(tok) = args.next() {
        match tok {
            "--cid-a" => cid_a = Some(args.value("--cid-a")?.to_string()),
            "--cid-b" => cid_b = Some(args.value("--cid-b")?.to_string()),
            "--map" => map = MapChoice::parse(args.value("--map")?)?,
            "--filter" => filter = Some(args.value("--filter")?.to_string()),
            "-o" => out = Some(PathBuf::from(args.value("-o")?)),
            "--dot" => dot_stdout = true,
            "--no-stats" => with_stats = false,
            "--no-pushdown" => no_pushdown = true,
            flag if flag.starts_with('-') => return Err(format!("unknown flag {flag}")),
            input => inputs.push(input.to_string()),
        }
    }
    let [input_a, input_b] = inputs.as_slice() else {
        return Err("diff: expected exactly two inputs <a> <b>".to_string());
    };

    // Load both sides through the session layer (each side plans its
    // own route — two v2 stores both get pushdown), then narrow each
    // to its cid subset if requested (e.g. `--cid-a s --cid-b f`
    // splits one ior-ssf-fpp log into the SSF and FPP runs).
    let load_side = |input: &str, cid: &Option<String>, side: &str| -> Result<Session, String> {
        let mut session = open_session(
            input,
            filter.as_deref(),
            &map,
            no_pushdown,
            analysis_columns(),
            policy,
        )?;
        report_pushdown(&session, &format!("{side}: "));
        if let Some(cid) = cid {
            session = session.select_cid(cid, side).map_err(|e| e.to_string())?;
        }
        Ok(session)
    };
    let session_a = load_side(input_a, &cid_a, "A")?;
    let session_b = load_side(input_b, &cid_b, "B")?;

    // One mapping pass per side serves both the DFG and the statistics
    // layer (the sessions carry the `--map` choice).
    let mapped_a = session_a.mapped();
    let mapped_b = session_b.mapped();
    let dfg_a = Dfg::from_mapped(&mapped_a);
    let dfg_b = Dfg::from_mapped(&mapped_b);
    let diff = st_core::diff::diff(&dfg_a, &dfg_b);

    let options = st_core::render::RenderOptions {
        graph_name: "DFG diff".to_string(),
        show_stats: false,
        ..Default::default()
    };
    let dot =
        (out.is_some() || dot_stdout).then(|| st_core::render::render_diff_dot(&diff, &options));
    if let (Some(path), Some(dot)) = (&out, &dot) {
        std::fs::write(path, dot).map_err(|e| e.to_string())?;
        eprintln!("wrote {}", path.display());
    }
    if dot_stdout {
        emit(dot.as_deref().unwrap_or_default());
    } else {
        emit(&st_core::render::render_diff_report(&diff));
        if with_stats {
            let stats_a = IoStatistics::compute(&mapped_a);
            let stats_b = IoStatistics::compute(&mapped_b);
            emit(&st_core::render::render_diff_stats(
                &diff, &stats_a, &stats_b,
            ));
        }
    }
    Ok(())
}

/// What `query` writes for each group.
#[derive(Clone, Copy, PartialEq, Eq)]
enum EmitMode {
    Dfg,
    Stats,
    Events,
    Store,
}

impl EmitMode {
    fn parse(s: &str) -> Result<EmitMode, String> {
        Ok(match s {
            "dfg" => EmitMode::Dfg,
            "stats" => EmitMode::Stats,
            "events" => EmitMode::Events,
            "store" => EmitMode::Store,
            other => {
                return Err(format!(
                    "unknown --emit mode {other:?} (dfg, stats, events, store)"
                ))
            }
        })
    }

    fn extension(&self) -> &'static str {
        match self {
            EmitMode::Dfg => "dot",
            EmitMode::Stats => "txt",
            EmitMode::Events => "tsv",
            EmitMode::Store => "stlog",
        }
    }
}

/// Turns a group key (a file path, pid, …) into a safe file stem,
/// unique within `used`: distinct keys that sanitize identically (e.g.
/// `/data/x+y` and `/data/x,y`) get `-2`, `-3`, … suffixes instead of
/// silently overwriting each other's output files.
fn sanitize_group_key(key: &str, used: &mut std::collections::HashSet<String>) -> String {
    let stem: String = key
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' || c == '.' {
                c
            } else {
                '_'
            }
        })
        .collect();
    let trimmed = stem.trim_matches('_');
    let base = if trimmed.is_empty() { "group" } else { trimmed };
    let mut candidate = base.to_string();
    let mut n = 1usize;
    while !used.insert(candidate.clone()) {
        n += 1;
        candidate = format!("{base}-{n}");
    }
    candidate
}

fn cmd_query(tokens: &[String], policy: Policy) -> Result<(), String> {
    let mut args = Args::new(tokens);
    let mut input: Option<String> = None;
    let mut filter: Option<String> = None;
    let mut then_filters: Vec<String> = Vec::new();
    let mut group_by: Option<st_query::GroupKey> = None;
    let mut emit_mode = EmitMode::Dfg;
    let mut map = MapChoice::TopDirs(2);
    let mut explicit_map = false;
    let mut threads = 0usize;
    let mut no_pushdown = false;
    let mut out: Option<PathBuf> = None;
    while let Some(tok) = args.next() {
        match tok {
            "--filter" => filter = Some(args.value("--filter")?.to_string()),
            "--then-filter" => then_filters.push(args.value("--then-filter")?.to_string()),
            "--group-by" => {
                let spec = args.value("--group-by")?;
                group_by = Some(st_query::GroupKey::parse(spec).ok_or(format!(
                    "unknown --group-by key {spec:?} (file, pid, cid, host)"
                ))?);
            }
            "--emit" => emit_mode = EmitMode::parse(args.value("--emit")?)?,
            "--map" => {
                explicit_map = true;
                map = MapChoice::parse(args.value("--map")?)?;
            }
            "--threads" => {
                threads = args
                    .value("--threads")?
                    .parse()
                    .map_err(|_| "bad --threads".to_string())?
            }
            "--no-pushdown" => no_pushdown = true,
            "-o" => out = Some(PathBuf::from(args.value("-o")?)),
            flag if flag.starts_with('-') => return Err(format!("unknown flag {flag}")),
            positional => {
                if let Some(first) = &input {
                    return Err(format!(
                        "query: expected exactly one <input>, got {first:?} and {positional:?}"
                    ));
                }
                input = Some(positional.to_string());
            }
        }
    }
    let input = input.ok_or("query: missing <input>")?;
    if emit_mode == EmitMode::Store && out.is_none() {
        return Err("query: --emit store requires -o <path>".to_string());
    }
    // Events and store emission are mapping-free; an explicit --map
    // would be silently ignored, so reject it (same policy as the
    // parse-flag conflicts).
    if explicit_map && matches!(emit_mode, EmitMode::Events | EmitMode::Store) {
        return Err(
            "query: --map has no effect with --emit events|store (raw events, no activity \
             mapping); drop --map or emit dfg/stats"
                .to_string(),
        );
    }
    // Re-querying rides the pushdown route (the cache sits under the
    // pruning reader); with pushdown disabled the refinements could
    // only re-scan from scratch, so reject the contradiction up front.
    if !then_filters.is_empty() && no_pushdown {
        return Err(
            "query: --then-filter re-queries through pushdown; drop --no-pushdown \
             (or run separate invocations)"
                .to_string(),
        );
    }

    // The session plans the route: predicate pushdown on v2 stores
    // (only the blocks and columns the filter + emit mode need are
    // decoded, surviving blocks decode on the worker pool), full load +
    // parallel scan everywhere else. Either route yields exactly the
    // matching event set.
    let columns = match emit_mode {
        EmitMode::Store => ColumnSet::ALL,
        // DFG/stats/events never look at requested/offset.
        _ => analysis_columns(),
    };
    let mut base_pred = filter
        .as_deref()
        .map(|expr| st_query::parse_expr(expr).map_err(|e| format!("--filter: {e}")))
        .transpose()?;
    let mut inspector = Inspector::open(&input)
        .map_err(|e| e.to_string())?
        .map_boxed(map.build())
        .pushdown(!no_pushdown)
        .columns(columns)
        .threads(threads)
        .recovery(policy.recovery())
        .deny_warnings(policy.deny_warnings)
        .requery(!then_filters.is_empty());
    if let Some(pred) = &base_pred {
        inspector = inspector.filter(pred.clone());
    }
    let mut session = inspector.session().map_err(|e| e.to_string())?;
    report_session(&session);
    eprintln!(
        "{} of {} events match ({} of {} cases)",
        session.events_matched(),
        session.events_total(),
        session.cases_matched(),
        session.cases_total()
    );
    report_pushdown(&session, "");

    // Iterative narrowing: each --then-filter conjoins its expression
    // and re-queries the still-open container through the decoded-block
    // cache. `refilter` takes the full replacement predicate, so the
    // running conjunction is rebuilt here and handed over whole.
    for expr in &then_filters {
        let pred = st_query::parse_expr(expr).map_err(|e| format!("--then-filter: {e}"))?;
        let combined = match base_pred.take() {
            Some(prev) => prev.and(pred),
            None => pred,
        };
        base_pred = Some(combined.clone());
        session = session.refilter(combined).map_err(|e| e.to_string())?;
        report_session(&session);
        eprintln!(
            "then-filter {expr}: {} of {} events match ({} of {} cases)",
            session.events_matched(),
            session.events_total(),
            session.cases_matched(),
            session.cases_total()
        );
        report_pushdown(&session, "");
    }
    if session.log().is_empty() {
        return Err("no events match the filter".to_string());
    }

    // Group-by explodes the slice into a DFG family; without it the
    // whole slice is one unnamed group.
    let view = session.view();
    let groups: Vec<(String, st_model::LogView<'_>)> = match group_by {
        Some(key) => st_query::group_by(&view, key),
        None => vec![(String::new(), view)],
    };
    let multi = groups.len() > 1 || (groups.len() == 1 && !groups[0].0.is_empty());

    // One mapping pass over the session's log serves every projection.
    let mapped =
        (emit_mode != EmitMode::Store && emit_mode != EmitMode::Events).then(|| session.mapped());

    // With `-o` and multiple groups, the path is a directory (one file
    // per group); with a single group it is the output file itself.
    let out_dir = match (&out, multi) {
        (Some(path), true) => {
            std::fs::create_dir_all(path).map_err(|e| e.to_string())?;
            Some(path.clone())
        }
        _ => None,
    };

    let snap = session.log().snapshot();
    let mut used_stems = std::collections::HashSet::new();
    for (key, group) in &groups {
        let body = match emit_mode {
            EmitMode::Dfg => {
                st_core::render::render_dfg_dot(mapped.as_ref().expect("mapped for dfg"), group)
            }
            EmitMode::Stats => st_core::render::render_stats_text(
                mapped.as_ref().expect("mapped for stats"),
                group,
            ),
            EmitMode::Events => st_core::render::render_events_tsv(group, &snap),
            EmitMode::Store => String::new(),
        };

        match (&out, &out_dir) {
            // Multiple groups into a directory.
            (_, Some(dir)) => {
                let path = dir.join(format!(
                    "{}.{}",
                    sanitize_group_key(key, &mut used_stems),
                    emit_mode.extension()
                ));
                if emit_mode == EmitMode::Store {
                    write_store(&group.to_event_log(), &path).map_err(|e| e.to_string())?;
                } else {
                    std::fs::write(&path, &body).map_err(|e| e.to_string())?;
                }
                eprintln!("wrote {}", path.display());
            }
            // Single output file.
            (Some(path), None) => {
                if emit_mode == EmitMode::Store {
                    write_store(&group.to_event_log(), path).map_err(|e| e.to_string())?;
                } else {
                    std::fs::write(path, &body).map_err(|e| e.to_string())?;
                }
                eprintln!("wrote {}", path.display());
            }
            // Stdout, with a group header when exploding.
            (None, None) => {
                if multi {
                    let comment = if emit_mode == EmitMode::Dfg {
                        "//"
                    } else {
                        "#"
                    };
                    emit(&format!("{comment} group: {key}\n"));
                }
                emit(&body);
            }
        }
    }
    Ok(())
}

/// At most this many per-block loss lines are printed; the rest are
/// summarized (same flood policy as the parser's warning cap).
const FSCK_LOSS_CAP: usize = 100;

/// `serve -o <store>` — run `stinspectd`, the live multi-tenant
/// ingest + query daemon, until SIGTERM/SIGINT or `POST /shutdown`.
/// Prints the bound address (ephemeral ports resolve here), then
/// blocks; shutdown drains in-flight connections and finishes the
/// container, so the store is always fsck-clean afterwards.
fn cmd_serve(tokens: &[String]) -> Result<(), String> {
    let mut args = Args::new(tokens);
    let mut store: Option<PathBuf> = None;
    let mut addr: Option<String> = None;
    let mut max_conns: Option<usize> = None;
    let mut block_events: Option<usize> = None;
    let mut checkpoint_cases: Option<usize> = None;
    let parse_n = |flag: &str, v: &str| -> Result<usize, String> {
        v.parse()
            .map_err(|_| format!("serve: {flag} takes a positive integer, got {v:?}"))
    };
    while let Some(tok) = args.next() {
        match tok {
            "-o" | "--store" => store = Some(PathBuf::from(args.value("-o")?)),
            "--addr" => addr = Some(args.value("--addr")?.to_string()),
            "--max-conns" => max_conns = Some(parse_n("--max-conns", args.value("--max-conns")?)?),
            "--block-events" => {
                block_events = Some(parse_n("--block-events", args.value("--block-events")?)?)
            }
            "--checkpoint-cases" => {
                checkpoint_cases = Some(parse_n(
                    "--checkpoint-cases",
                    args.value("--checkpoint-cases")?,
                )?)
            }
            flag if flag.starts_with('-') => return Err(format!("serve: unknown flag {flag}")),
            positional => {
                return Err(format!(
                    "serve: unexpected argument {positional:?} (the store is -o <path>)"
                ))
            }
        }
    }
    let store = store.ok_or("serve: missing -o <store>")?;
    let mut config = st_serve::ServeConfig::new(&store);
    if let Some(a) = addr {
        config.addr = a;
    }
    if let Some(n) = max_conns {
        config.max_conns = n.max(1);
    }
    if let Some(n) = block_events {
        config.block_events = n.max(1);
    }
    if let Some(n) = checkpoint_cases {
        config.checkpoint_cases = n.max(1);
    }
    config.handle_signals = true;
    #[cfg(unix)]
    st_serve::sig::install();
    let handle = st_serve::Daemon::start(config).map_err(|e| format!("serve: {e}"))?;
    emit(&format!(
        "stinspectd listening on http://{} (store: {})\n",
        handle.addr(),
        store.display()
    ));
    eprintln!("stop with SIGTERM, Ctrl-C, or POST /shutdown");
    handle.join().map_err(|e| format!("serve: {e}"))
}

/// `fsck <store>` — container health report with its own exit codes:
/// 0 clean, 2 usage, 3 degraded, 4 unreadable.
fn cmd_fsck(tokens: &[String]) -> ExitCode {
    let mut args = Args::new(tokens);
    let mut store: Option<String> = None;
    while let Some(tok) = args.next() {
        match tok {
            flag if flag.starts_with('-') => {
                eprintln!("stinspect: fsck: unknown flag {flag}");
                return ExitCode::from(2);
            }
            path => {
                if store.is_some() {
                    eprintln!("stinspect: fsck: expected exactly one <store>");
                    return ExitCode::from(2);
                }
                store = Some(path.to_string());
            }
        }
    }
    let Some(store) = store else {
        eprintln!("stinspect: fsck: missing <store>\n{USAGE}");
        return ExitCode::from(2);
    };
    // Vet through the seek reader so fsck never slurps the container:
    // each block is fetched by its exact extent. v1 containers have no
    // directory to vet and no per-block CRCs — a strict decode is their
    // whole check.
    let path = std::path::Path::new(&store);
    let report = match st_store::open_salvage_seek(path) {
        Err(st_store::StoreError::Corrupt(st_store::CorruptKind::V1Seek)) => {
            st_store::read_store(path)
                .map(|log| st_store::SalvageReport::clean_v1(log.total_events() as u64))
        }
        opened => opened.map(|s| s.report),
    };
    let report = match report {
        Ok(report) => report,
        Err(e) => {
            eprintln!("stinspect: fsck: {store}: unreadable: {e}");
            return ExitCode::from(4);
        }
    };
    let r = &report;
    let mut out = format!("fsck {store}: STLOG v{}\n", r.version);
    out.push_str(&format!("  directory:  {}\n", r.directory));
    out.push_str(&format!(
        "  blocks:     {} (section framing)\n",
        r.blocks_section
    ));
    out.push_str(&format!(
        "  cases:      {}{}\n",
        r.cases,
        if r.cases_lost > 0 {
            format!(" ({} directory entries unparseable)", r.cases_lost)
        } else {
            String::new()
        }
    ));
    out.push_str(&format!(
        "  recovered:  {}/{} blocks, {}/{} events ({:.1}% recoverable)\n",
        r.blocks_recovered,
        r.blocks_total,
        r.events_recovered,
        r.events_total,
        100.0 * r.recoverable_fraction()
    ));
    if r.orphan_blocks > 0 {
        out.push_str(&format!(
            "  orphans:    {} block frame(s) ({} bytes) past directory knowledge\n",
            r.orphan_blocks, r.orphan_bytes
        ));
    }
    if r.unaccounted_bytes > 0 {
        out.push_str(&format!(
            "  unaccounted: {} byte(s) not part of any section or frame\n",
            r.unaccounted_bytes
        ));
    }
    if !r.losses.is_empty() {
        let shown = r.losses.len().min(FSCK_LOSS_CAP);
        out.push_str(&format!(
            "  warnings:   {} block-loss warning(s) ({shown} shown, {} suppressed)\n",
            r.losses.len(),
            r.losses.len() - shown
        ));
    }
    for loss in r.losses.iter().take(FSCK_LOSS_CAP) {
        out.push_str(&format!("  loss:       {loss}\n"));
    }
    if r.losses.len() > FSCK_LOSS_CAP {
        out.push_str(&format!(
            "  loss:       ... and {} more block(s)\n",
            r.losses.len() - FSCK_LOSS_CAP
        ));
    }
    match r.verdict() {
        Verdict::Clean => {
            out.push_str("verdict: clean\n");
            emit(&out);
            ExitCode::SUCCESS
        }
        Verdict::Degraded => {
            out.push_str(&format!(
                "verdict: degraded ({:.1}% of events recoverable)\n",
                100.0 * r.recoverable_fraction()
            ));
            emit(&out);
            ExitCode::from(3)
        }
    }
}

fn cmd_simulate(tokens: &[String]) -> Result<(), String> {
    let mut args = Args::new(tokens);
    let mut workload: Option<String> = None;
    let mut out: Option<PathBuf> = None;
    let mut paper = false;
    let mut emit_strace = false;
    while let Some(tok) = args.next() {
        match tok {
            "--out" => out = Some(PathBuf::from(args.value("--out")?)),
            "--paper" => paper = true,
            "--emit-strace" => emit_strace = true,
            flag if flag.starts_with('-') => return Err(format!("unknown flag {flag}")),
            name => workload = Some(name.to_string()),
        }
    }
    let workload = workload.ok_or("simulate: missing workload name")?;
    let out = out.ok_or("simulate: missing --out <dir>")?;
    std::fs::create_dir_all(&out).map_err(|e| e.to_string())?;

    // The same table-driven backend `sim:` inputs resolve through.
    let log = st_source::sim::workload_log(&workload, paper).map_err(|e| e.to_string())?;
    let store_path = out.join(format!("{workload}.stlog"));
    write_store(&log, &store_path).map_err(|e| e.to_string())?;
    println!(
        "simulated {} cases / {} events -> {}",
        log.case_count(),
        log.total_events(),
        store_path.display()
    );
    if emit_strace {
        let trace_dir = out.join(format!("{workload}-traces"));
        let files = st_sim::emit_strace_dir(&log, &trace_dir).map_err(|e| e.to_string())?;
        println!(
            "emitted {} strace files into {}",
            files.len(),
            trace_dir.display()
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn group_key_sanitization_is_collision_free() {
        let mut used = std::collections::HashSet::new();
        assert_eq!(sanitize_group_key("/data/x.h5", &mut used), "data_x.h5");
        // Distinct keys that sanitize identically get disambiguated, in
        // order, instead of silently sharing one output file.
        assert_eq!(sanitize_group_key("/data/x+y", &mut used), "data_x_y");
        assert_eq!(sanitize_group_key("/data/x,y", &mut used), "data_x_y-2");
        assert_eq!(sanitize_group_key("/data/x=y", &mut used), "data_x_y-3");
        // Keys with no safe characters still produce a stem.
        assert_eq!(sanitize_group_key("///", &mut used), "group");
        assert_eq!(sanitize_group_key("&&&", &mut used), "group-2");
    }
}
