//! `live-ingest`: the in-process stinspectd daemon with its default
//! configuration (st-obs on, checkpoint after every stream). Connection
//! 1 streams seeded paper-IOR strace cases back to back (closed loop);
//! connection 2 sends `/query`, `/dfg` and `/status` in a fixed 2:1:3
//! interleave, 40 ms + Exp(22.5 ms) apart (open loop), each timed from
//! when it was due. Ingest
//! parsing, checkpoint republishing and generation-invalidated queries
//! contend on one store, and every request pays the accept loop's
//! polling.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use st_core::render::render_stats_text;
use st_model::Interner;
use st_serve::{Daemon, Handle, ServeConfig};
use st_source::Inspector;
use st_store::ColumnSet;

use crate::inputs::paper_ior;
use crate::measure::{
    open_loop_schedule, peak_rss_mb, per_op_ms, ratio, reset_peak_rss, stage_totals, Rng, Samples,
    Timed,
};
use crate::report::{EndToEnd, Layers};
use crate::{setup_seconds, timed, Config, Outcome};

/// Connection 2's schedule: 40 ms + Exp(22.5 ms) between requests,
/// 16 per second on average.
const MIN_GAP: Duration = Duration::from_millis(40);
const MEAN_EXTRA: Duration = Duration::from_micros(22_500);
/// Refinements the query mix adds to a one-rank filter. Queries name a
/// rank (`cid` + `rid`) so the pushdown prunes to one case: their cost
/// tracks the container directory, not the whole ingested history.
const REFINEMENTS: &[&str] = &[
    "",
    " class=write",
    " class=read",
    " ok=false",
    " path~\"/p/scratch/*\"",
];
/// The filter of the final, oracle-checked query.
const FINAL_FILTER: &str = "class=data";

/// One case's strace text, posted under a fresh name per cycle.
struct Case {
    cid: String,
    host: String,
    rid: u32,
    text: String,
}

fn generate_cases(seed: u64) -> Result<Vec<Case>, String> {
    let mut cases = Vec::new();
    for exp in paper_ior(seed, &Interner::new_shared()) {
        let interner = exp.log.interner();
        for case in exp.log.cases() {
            let mut text = Vec::new();
            st_strace::write_case(case, interner, &mut text, &Default::default())
                .map_err(|e| e.to_string())?;
            cases.push(Case {
                cid: interner.resolve(case.meta.cid).to_string(),
                host: interner.resolve(case.meta.host).to_string(),
                rid: case.meta.rid,
                text: String::from_utf8(text).map_err(|e| e.to_string())?,
            });
        }
    }
    // A seeded interleaving of the four IOR runs' ranks.
    let mut rng = Rng::new(seed).fork(3);
    for i in (1..cases.len()).rev() {
        cases.swap(i, rng.below(i as u64 + 1) as usize);
    }
    Ok(cases)
}

fn start(config: &Config, tag: &str, metrics: bool) -> Result<(Handle, PathBuf), String> {
    let store = config.work.join(format!("live-{tag}.stlog"));
    let mut serve = ServeConfig::new(&store);
    serve.metrics = metrics;
    let daemon = Daemon::start(serve).map_err(|e| format!("daemon start: {e}"))?;
    Ok((daemon, store))
}

/// One HTTP/1.1 exchange on a fresh connection (the daemon serves one
/// request per connection). Returns the status and the body.
fn http(
    addr: SocketAddr,
    method: &str,
    target: &str,
    body: &[u8],
) -> std::io::Result<(u16, Vec<u8>)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_secs(120)))?;
    let mut request = format!("{method} {target} HTTP/1.1\r\nHost: perfbench\r\n").into_bytes();
    if method == "POST" {
        request.extend_from_slice(format!("Content-Length: {}\r\n", body.len()).as_bytes());
    }
    request.extend_from_slice(b"\r\n");
    request.extend_from_slice(body);
    stream.write_all(&request)?;
    let mut response = Vec::new();
    stream.read_to_end(&mut response)?;
    let status = std::str::from_utf8(response.get(9..12).unwrap_or_default())
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    let body = response
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .map_or_else(Vec::new, |i| response[i + 4..].to_vec());
    Ok((status, body))
}

fn url_encode(s: &str) -> String {
    s.bytes()
        .map(|b| match b {
            b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'-' | b'.' | b'_' => (b as char).to_string(),
            _ => format!("%{b:02X}"),
        })
        .collect()
}

fn query_target(filter: &str) -> String {
    format!("/query?emit=stats&filter={}", url_encode(filter))
}

/// `(events, warnings)` from an ingest response
/// (`ingested N events (W warnings) from L lines`).
fn parse_ack(body: &[u8]) -> Option<(u64, u64)> {
    let text = std::str::from_utf8(body).ok()?;
    let mut words = text.split_whitespace();
    let events = words.nth(1)?.parse().ok()?;
    let warnings = words.nth(1)?.trim_start_matches('(').parse().ok()?;
    Some((events, warnings))
}

/// What connection 1 saw.
#[derive(Default)]
struct Ingested {
    /// Indices into the case list of every acknowledged stream.
    acked: Vec<usize>,
    events: u64,
    warnings: u64,
    text_bytes: u64,
    published_bytes: u64,
    service: Samples,
    failed: u64,
}

/// What connection 2 saw.
#[derive(Default)]
struct Queried {
    /// `/query` and `/dfg`, from due time.
    op: Samples,
    /// `/status`, from due time.
    status: Samples,
    lateness: Samples,
    service: Samples,
    failed: u64,
}

fn ingest_loop(
    addr: SocketAddr,
    cases: &[Case],
    store: &Path,
    t0: Instant,
    len: Duration,
) -> Ingested {
    let mut out = Ingested::default();
    let mut k = 0usize;
    while t0.elapsed() < len {
        let idx = k % cases.len();
        let case = &cases[idx];
        // A fresh rank id per cycle keeps every stream a distinct case.
        let rid = case.rid as usize + 100_000 * (k / cases.len());
        let target = format!("/ingest/{}_{}_{rid}.st", case.cid, case.host);
        k += 1;
        let sent = Instant::now();
        match http(addr, "POST", &target, case.text.as_bytes()) {
            Ok((200, body)) => {
                out.service.push(sent.elapsed());
                match parse_ack(&body) {
                    Some((events, warnings)) => {
                        out.acked.push(idx);
                        out.events += events;
                        out.warnings += warnings;
                        out.text_bytes += case.text.len() as u64;
                        out.published_bytes += std::fs::metadata(store).map_or(0, |m| m.len());
                    }
                    None => out.failed += 1,
                }
            }
            other => {
                eprintln!("perfbench: live-ingest: POST {target}: {other:?}");
                out.service.push(sent.elapsed());
                out.failed += 1;
            }
        }
    }
    out
}

fn query_loop(
    addr: SocketAddr,
    cases: &[Case],
    rng: &mut Rng,
    t0: Instant,
    len: Duration,
) -> Queried {
    let mut out = Queried::default();
    let schedule = open_loop_schedule(rng, MIN_GAP, MEAN_EXTRA, len);
    for (i, due) in schedule.into_iter().enumerate() {
        // A fixed interleave (query, status, query, status, dfg, status)
        // keeps the mix identical across seeds; the seed picks filters.
        let target = match i % 6 {
            0 | 2 => {
                let case = rng.pick(cases);
                let refinement = rng.pick(REFINEMENTS);
                query_target(&format!("cid={} rid={}{refinement}", case.cid, case.rid))
            }
            4 => "/dfg".to_string(),
            _ => "/status".to_string(),
        };
        if let Some(wait) = due.checked_sub(t0.elapsed()) {
            std::thread::sleep(wait);
        }
        let sent = t0.elapsed();
        let result = http(addr, "GET", &target, b"");
        let timed = Timed {
            due,
            sent,
            done: t0.elapsed(),
        };
        out.lateness.push(timed.lateness());
        out.service.push(timed.service());
        if !matches!(result, Ok((200, _))) {
            eprintln!(
                "perfbench: live-ingest: GET {target}: {:?}",
                result.map(|r| r.0)
            );
            out.failed += 1;
        }
        if target == "/status" {
            out.status.push(timed.latency());
        } else {
            out.op.push(timed.latency());
        }
    }
    out
}

/// Runs both connections against `addr` for `len`; also returns how
/// long the phase actually took (the last requests finish past `len`).
fn phase(
    addr: SocketAddr,
    live: &[Case],
    store: &Path,
    rng: &mut Rng,
    len: Duration,
) -> (Ingested, Queried, Duration) {
    let t0 = Instant::now();
    std::thread::scope(|s| {
        let ingest = s.spawn(|| ingest_loop(addr, live, store, t0, len));
        let queried = query_loop(addr, live, rng, t0, len);
        let ingested = ingest.join().expect("ingest connection thread panicked");
        (ingested, queried, t0.elapsed())
    })
}

/// Stops the daemon and checks what it sealed against the offline
/// pipeline: the store is clean, holds exactly the events an offline
/// parse of the acknowledged texts yields, and the final `/query` body
/// equals the offline render. Returns whether all of it held.
fn seal_and_check(
    daemon: Handle,
    store: &Path,
    cases: &[Case],
    ingested: &Ingested,
) -> Result<bool, String> {
    let addr = daemon.addr();
    let final_body = http(addr, "GET", &query_target(FINAL_FILTER), b"");
    let metrics = http(addr, "GET", "/metrics", b"");
    daemon.shutdown();
    daemon.join().map_err(|e| format!("daemon shutdown: {e}"))?;

    let sealed = st_store::open_salvage_seek(store).map_err(|e| e.to_string())?;
    let mut offline_events: BTreeMap<usize, u64> = BTreeMap::new();
    let mut expected = 0u64;
    for &idx in &ingested.acked {
        expected += *offline_events.entry(idx).or_insert_with(|| {
            let interner = st_model::Interner::new();
            st_strace::parse_str(&cases[idx].text, &interner)
                .events
                .len() as u64
        });
    }
    let offline_body = Inspector::open(&store.to_string_lossy())
        .map(|i| i.columns(ColumnSet::ALL.without(ColumnSet::REQUESTED | ColumnSet::OFFSET)))
        .and_then(|i| i.filter_expr(FINAL_FILTER))
        .and_then(Inspector::session)
        .map(|s| render_stats_text(&s.mapped(), &s.view()))
        .map_err(|e| e.to_string())?;

    let checks = [
        ("sealed store is clean", sealed.report.is_clean()),
        (
            "sealed events equal the offline parse",
            sealed.report.events_recovered == expected && expected == ingested.events,
        ),
        (
            "final /query equals the offline render",
            matches!(&final_body, Ok((200, body)) if body == offline_body.as_bytes()),
        ),
        ("/metrics answers", matches!(metrics, Ok((200, _)))),
    ];
    for (what, ok) in &checks {
        if !ok {
            eprintln!("perfbench: live-ingest: check failed: {what}");
        }
    }
    Ok(checks.iter().all(|(_, ok)| *ok))
}

pub fn run(config: &Config) -> Result<Outcome, String> {
    let setup = |rep: usize| {
        Ok((
            generate_cases(config.seed)?,
            start(config, &rep.to_string(), true)?,
        ))
    };
    let (first_setup, (cases, (daemon, store))) = timed(|| setup(0))?;
    let mut rng = Rng::new(config.seed).fork(4);
    let len = if config.trace {
        config.seconds / 2
    } else {
        config.seconds
    };

    reset_peak_rss();
    let mark = st_obs::mark();
    let (ingested, queried, elapsed) = phase(daemon.addr(), &cases, &store, &mut rng, len);
    let peak = peak_rss_mb();
    let report = st_obs::report_since(&mark);
    let requests = (ingested.service.len() + queried.service.len()) as u64;
    let mut outcome = Outcome {
        attempted: requests,
        failed: ingested.failed + queried.failed,
        ..Outcome::default()
    };
    outcome.info.push((
        "lateness_ms",
        format!(
            "{{\"p50\": {}, \"p90\": {}, \"max\": {}}}",
            queried.lateness.quantile(0.5),
            queried.lateness.quantile(0.9),
            queried.lateness.quantile(1.0)
        ),
    ));

    if config.trace {
        let service_ns = (ingested.service.sum_ms() + queried.service.sum_ms()) * 1e6;
        let mut layers = Layers::from_report(&report, requests, service_ns);
        let (_, conn_ns) = stage_totals(&report, "serve.conn");
        layers.set(
            "serve.wait_ms",
            per_op_ms(service_ns - conn_ns as f64, requests),
        );
        layers.set("serve.requests", report.counter("serve.requests") as f64);
        layers.set(
            "serve.conns_rejected",
            report.counter("serve.conns_rejected") as f64,
        );
        layers.set("strace.warnings", ingested.warnings as f64);
        layers.set(
            "query.pruned_ratio",
            ratio(
                report.counter("blocks_pruned") as f64,
                report.counter("blocks_total") as f64,
            ),
        );
        layers.set(
            "query.match_ratio",
            ratio(
                report.counter("events_matched") as f64,
                report.counter("events_decoded") as f64,
            ),
        );
        let hits = report.counter("cache.hits") as f64;
        layers.set(
            "store.cache_hit_rate",
            ratio(hits, hits + report.counter("cache.misses") as f64),
        );
        layers.set(
            "store.published_bytes_per_ingested_byte",
            ratio(ingested.published_bytes as f64, ingested.text_bytes as f64),
        );
        layers.set("load.lateness_ms", queried.lateness.quantile(0.5));
        outcome.checks_ok = seal_and_check(daemon, &store, &cases, &ingested)?;

        // The untraced reference: a fresh daemon with st-obs off, on the
        // same schedule length, for the tracing overhead ratio.
        st_obs::set_enabled(false);
        let (daemon, store) = start(config, "untraced", false)?;
        let (untraced_ingest, untraced, _) = phase(
            daemon.addr(),
            &cases,
            &store,
            &mut Rng::new(config.seed).fork(4),
            len,
        );
        daemon.shutdown();
        daemon.join().map_err(|e| format!("daemon shutdown: {e}"))?;
        outcome.attempted += (untraced_ingest.service.len() + untraced.service.len()) as u64;
        outcome.failed += untraced_ingest.failed + untraced.failed;
        layers.set(
            "obs.overhead_ratio",
            ratio(queried.op.quantile(0.5), untraced.op.quantile(0.5)),
        );
        outcome.metrics = layers.metrics();
    } else {
        outcome.checks_ok = seal_and_check(daemon, &store, &cases, &ingested)?;
        let e2e = EndToEnd {
            setup_s: setup_seconds(config, first_setup, setup)?,
            peak_rss_mb: peak,
            op: queried.op,
            step: queried.status,
            events: ingested.events,
            elapsed,
        };
        outcome.metrics = e2e.metrics();
        outcome.info.push(("samples", e2e.info()));
    }
    Ok(outcome)
}
