//! End-to-end tests of the live service: concurrent ingest over real
//! TCP sockets, query equivalence against the offline pipeline,
//! backpressure, long-poll tail, and graceful shutdown durability.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;

use st_serve::{Daemon, ServeConfig};

fn tempdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("st-serve-{}-{}", name, std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A synthetic strace stream in the Fig. 2a grammar: `read`s over a
/// couple of per-stream directories plus one `write`, with
/// stream-specific paths so the merged DFG is non-trivial.
fn stream_text(i: usize, lines: usize) -> String {
    let pid = 9000 + i;
    let mut out = String::new();
    for j in 0..lines {
        let ts = format!("09:00:{:02}.{:06}", 10 + j % 49, (j * 137) % 1_000_000);
        if j % 5 == 4 {
            out.push_str(&format!(
                "{pid}  {ts} write(1</data/out/log{i}>, \"...\", 50) = 50 <0.000111>\n"
            ));
        } else {
            out.push_str(&format!(
                "{pid}  {ts} read(3</data/s{}/f{}>, \"...\", 832) = 832 <0.000203>\n",
                i % 3,
                j % 4,
            ));
        }
    }
    out
}

/// One-shot HTTP exchange: writes `raw`, reads to EOF, splits the
/// response into (status, headers, body).
fn http(addr: SocketAddr, raw: &[u8]) -> (u16, String, Vec<u8>) {
    let mut s = TcpStream::connect(addr).unwrap();
    s.write_all(raw).unwrap();
    s.flush().unwrap();
    let mut resp = Vec::new();
    s.read_to_end(&mut resp).unwrap();
    let split = resp
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .expect("response has a head/body split");
    let head = String::from_utf8_lossy(&resp[..split]).into_owned();
    let body = resp[split + 4..].to_vec();
    let status: u16 = head
        .split_ascii_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status code");
    (status, head, body)
}

fn get(addr: SocketAddr, target: &str) -> (u16, String, Vec<u8>) {
    http(
        addr,
        format!("GET {target} HTTP/1.1\r\nHost: x\r\n\r\n").as_bytes(),
    )
}

/// Streams `text` as a chunked POST in small multi-line chunks, the
/// way a producer tailing strace output would.
fn ingest_chunked(addr: SocketAddr, name: &str, text: &str) -> (u16, Vec<u8>) {
    let mut s = TcpStream::connect(addr).unwrap();
    write!(
        s,
        "POST /ingest/{name} HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: chunked\r\n\r\n"
    )
    .unwrap();
    for chunk in text.as_bytes().chunks(200) {
        write!(s, "{:x}\r\n", chunk.len()).unwrap();
        s.write_all(chunk).unwrap();
        s.write_all(b"\r\n").unwrap();
        s.flush().unwrap();
    }
    s.write_all(b"0\r\n\r\n").unwrap();
    s.flush().unwrap();
    let mut resp = Vec::new();
    s.read_to_end(&mut resp).unwrap();
    let split = resp.windows(4).position(|w| w == b"\r\n\r\n").unwrap();
    let status: u16 = String::from_utf8_lossy(&resp[..split])
        .split_ascii_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap();
    (status, resp[split + 4..].to_vec())
}

/// Minimal target encoding for filter expressions.
fn encode(s: &str) -> String {
    s.replace('%', "%25")
        .replace(' ', "%20")
        .replace('"', "%22")
}

/// The offline `stinspect query --emit events` body over `input`,
/// built with the exact CLI wiring (topdirs:2 map, pushdown, analysis
/// columns) and the shared renderers.
fn offline_query_body(input: &str, filter: Option<&str>, emit: &str) -> String {
    let mut inspector = st_source::Inspector::open(input)
        .unwrap()
        .map_boxed(Box::new(st_core::CallTopDirs::new(2)))
        .pushdown(true)
        .columns(
            st_store::ColumnSet::ALL
                .without(st_store::ColumnSet::REQUESTED | st_store::ColumnSet::OFFSET),
        );
    if let Some(expr) = filter {
        inspector = inspector.filter(st_query::parse_expr(expr).unwrap());
    }
    let session = inspector.session().unwrap();
    match emit {
        "events" => {
            let snap = session.log().snapshot();
            st_core::render::render_events_tsv(&session.view(), &snap)
        }
        "stats" => st_core::render::render_stats_text(&session.mapped(), &session.view()),
        "dfg" => st_core::render::render_dfg_dot(&session.mapped(), &session.view()),
        other => panic!("bad emit {other}"),
    }
}

#[test]
fn concurrent_ingest_matches_offline_pipeline() {
    let dir = tempdir("e2e");
    let store = dir.join("live.stlog2");
    let mut config = ServeConfig::new(&store);
    config.block_events = 16; // several blocks per case, so pushdown has granules
    let handle = Daemon::start(config).unwrap();
    let addr = handle.addr();

    // 8 producers ingest concurrently over their own connections.
    let n = 8;
    let texts: Vec<String> = (0..n).map(|i| stream_text(i, 60)).collect();
    let mut clients = Vec::new();
    for (i, text) in texts.iter().enumerate() {
        let text = text.clone();
        clients.push(std::thread::spawn(move || {
            let name = format!("c{i}_host{}_{}.st", i % 2, 9000 + i);
            ingest_chunked(addr, &name, &text)
        }));
    }
    for c in clients {
        let (status, body) = c.join().unwrap();
        assert_eq!(status, 200, "{}", String::from_utf8_lossy(&body));
    }

    // The sealed store's event set is interleaving-independent: the
    // TSV rows (every column resolved) equal the union of offline
    // parses of the same inputs, regardless of arrival order.
    let (status, _, body) = get(addr, "/query?emit=events");
    assert_eq!(status, 200);
    let served = String::from_utf8(body).unwrap();
    let mut served_rows: Vec<&str> = served.lines().skip(1).collect();
    served_rows.sort_unstable();

    let interner = st_model::Interner::new();
    let mut offline_rows: Vec<String> = Vec::new();
    for (i, text) in texts.iter().enumerate() {
        let name = format!("c{i}_host{}_{}.st", i % 2, 9000 + i);
        let meta = st_model::CaseMeta::parse_trace_file_name(&name, &interner).unwrap();
        let parsed = st_strace::parse_str(text, &interner);
        assert!(parsed.warnings.is_empty());
        let snap = interner.snapshot();
        for e in &parsed.events {
            let call = match e.call {
                st_model::Syscall::Other(sym) => snap.resolve(sym).to_string(),
                named => named.static_name().unwrap_or("?").to_string(),
            };
            offline_rows.push(format!(
                "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
                snap.resolve(meta.cid),
                snap.resolve(meta.host),
                meta.rid,
                e.pid,
                call,
                e.start.format_time_of_day(),
                e.dur.format_duration(),
                snap.resolve(e.path),
                e.size.map(|s| s.to_string()).unwrap_or_else(|| "-".into()),
                e.ok,
            ));
        }
    }
    offline_rows.sort_unstable();
    assert_eq!(served_rows.len(), offline_rows.len());
    assert_eq!(
        served_rows,
        offline_rows.iter().map(String::as_str).collect::<Vec<_>>()
    );

    // HTTP bodies are byte-identical to the offline CLI pipeline on
    // the same container + filter, for every emit mode. Two queries at
    // the same generation also exercise the warm refilter path.
    let store_spec = store.display().to_string();
    let filter = r#"call=read path~"/data/*""#;
    for emit in ["events", "stats", "dfg"] {
        let target = format!("/query?filter={}&emit={emit}", encode(filter));
        let (status, _, body) = get(addr, &target);
        assert_eq!(status, 200);
        let offline = offline_query_body(&store_spec, Some(filter), emit);
        assert_eq!(String::from_utf8(body).unwrap(), offline, "emit={emit}");
    }

    // The live DFG endpoint merges per-stream partials; every stream
    // has completed, so it is a well-formed graph mentioning both the
    // read and write activity families.
    let (status, _, dot) = get(addr, "/dfg");
    assert_eq!(status, 200);
    let dot = String::from_utf8(dot).unwrap();
    assert!(dot.starts_with("digraph"), "{dot}");
    assert!(dot.contains("label=\"read\\n/data/s"), "{dot}");
    assert!(dot.contains("label=\"write\\n/data/out\""), "{dot}");

    let (status, _, _) = http(addr, b"POST /shutdown HTTP/1.1\r\nHost: x\r\n\r\n");
    assert_eq!(status, 200);
    handle.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn over_cap_connections_are_rejected_with_503() {
    let dir = tempdir("cap");
    let mut config = ServeConfig::new(dir.join("live.stlog2"));
    config.max_conns = 2;
    let handle = Daemon::start(config).unwrap();
    let addr = handle.addr();

    // Two silent connections occupy both slots...
    let hold1 = TcpStream::connect(addr).unwrap();
    let hold2 = TcpStream::connect(addr).unwrap();
    // ...give the accept loop a moment to take them...
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    let status = loop {
        let (status, _, _) = get(addr, "/status");
        if status == 503 || std::time::Instant::now() > deadline {
            break status;
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    };
    assert_eq!(status, 503, "third connection must be turned away");

    drop(hold1);
    drop(hold2);
    // Slots free up again; the rejection was counted.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    let body = loop {
        let (status, _, body) = get(addr, "/status");
        if status == 200 {
            break String::from_utf8(body).unwrap();
        }
        assert!(std::time::Instant::now() < deadline, "slots never freed");
        std::thread::sleep(std::time::Duration::from_millis(20));
    };
    assert!(
        body.contains("conns_rejected=") && !body.contains("conns_rejected=0"),
        "{body}"
    );

    handle.shutdown();
    handle.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn graceful_shutdown_leaves_fsck_clean_store() {
    let dir = tempdir("shutdown");
    let store = dir.join("live.stlog2");
    let handle = Daemon::start(ServeConfig::new(&store)).unwrap();
    let addr = handle.addr();

    for i in 0..3 {
        let (status, _) = ingest_chunked(
            addr,
            &format!("g{i}_hostA_{}.st", 7000 + i),
            &stream_text(i, 25),
        );
        assert_eq!(status, 200);
    }
    handle.shutdown();
    handle.join().unwrap();

    // The finished container is clean end to end and holds every case.
    let salvaged = st_store::open_salvage_seek(&store).unwrap();
    assert!(salvaged.report.is_clean(), "{:?}", salvaged.report);
    assert_eq!(salvaged.reader.read().unwrap().cases().len(), 3);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn over_cap_stream_is_rejected_with_413_and_leaves_no_trace() {
    let dir = tempdir("413");
    let store = dir.join("live.stlog2");
    let mut config = ServeConfig::new(&store);
    config.max_stream_events = 100;
    let handle = Daemon::start(config).unwrap();
    let addr = handle.addr();

    // 700 lines: the cap check runs after every 256-line batch, so it
    // fires mid-stream, on the first batch past 100 events.
    let text = stream_text(5, 700);
    let mut s = TcpStream::connect(addr).unwrap();
    let head = format!(
        "POST /ingest/big_hostZ_77.st HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n",
        text.len()
    );
    // The daemon answers and closes without reading the rest of the
    // body, so the tail of the upload may fail; the response does not.
    let _ = s
        .write_all(head.as_bytes())
        .and_then(|()| s.write_all(text.as_bytes()));
    let mut resp = Vec::new();
    let mut buf = [0u8; 4096];
    while let Ok(n @ 1..) = s.read(&mut buf) {
        resp.extend_from_slice(&buf[..n]);
    }
    let resp = String::from_utf8_lossy(&resp);
    assert!(resp.starts_with("HTTP/1.1 413"), "{resp}");

    // The stream's partial is gone from the live DFG, no stream was
    // sealed...
    let (status, _, dot) = get(addr, "/dfg");
    assert_eq!(status, 200);
    let dot = String::from_utf8(dot).unwrap();
    assert!(!dot.contains("/data/"), "{dot}");
    let status = String::from_utf8(get(addr, "/status").2).unwrap();
    assert!(status.contains("streams_sealed=0"), "{status}");
    // ...although a batch of its events was ingested before the check.
    assert!(!status.contains("events_ingested=0"), "{status}");
    // The sealed store holds no case for it either.
    handle.shutdown();
    handle.join().unwrap();
    let salvaged = st_store::open_salvage_seek(&store).unwrap();
    assert!(salvaged.report.is_clean(), "{:?}", salvaged.report);
    assert!(salvaged.reader.read().unwrap().cases().is_empty());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn tail_long_polls_and_metrics_report() {
    let dir = tempdir("tail");
    let handle = Daemon::start(ServeConfig::new(dir.join("live.stlog2"))).unwrap();
    let addr = handle.addr();

    // Empty feed: the poll waits for the timeout, then returns empty
    // with the cursor for the next call.
    let (status, head, body) = get(addr, "/tail?since=0&timeout_ms=50");
    assert_eq!(status, 200);
    assert!(body.is_empty());
    assert!(head.to_ascii_lowercase().contains("x-st-next: 0"), "{head}");

    let (status, _) = ingest_chunked(addr, "t_hostB_4242.st", &stream_text(0, 10));
    assert_eq!(status, 200);

    let (status, head, body) = get(addr, "/tail?since=0&timeout_ms=2000");
    assert_eq!(status, 200);
    let feed = String::from_utf8(body).unwrap();
    assert_eq!(feed.lines().count(), 10, "{feed}");
    assert!(
        feed.lines()
            .all(|l| l.starts_with("t\thostB\t4242\t9000\t")),
        "{feed}"
    );
    assert!(
        head.to_ascii_lowercase().contains("x-st-next: 10"),
        "{head}"
    );

    // Resuming past the end returns an empty page, not a replay.
    let (_, _, body) = get(addr, "/tail?since=10&timeout_ms=50");
    assert!(body.is_empty());

    let (status, _, body) = get(addr, "/metrics");
    assert_eq!(status, 200);
    let json = String::from_utf8(body).unwrap();
    assert!(json.contains("st-obs/1"), "{json}");
    assert!(json.contains("serve.events_ingested"), "{json}");
    assert!(json.contains("stinspectd"), "{json}");

    handle.shutdown();
    handle.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A strace stream from three processes of one rank, with some `read`s
/// split into `<unfinished ...>`/`resumed` pairs around another pid's
/// `write`: strace completes those events after a later-starting one,
/// so completion order and start order differ.
fn multi_pid_stream_text(i: usize, records: usize) -> String {
    let ts = |t: usize| format!("09:00:{:02}.{:06}", 10 + t / 1_000_000, t % 1_000_000);
    let mut out = String::new();
    let mut t = 0usize;
    for j in 0..records {
        let pid = 100 * (i + 1) + j % 3;
        let dir = (i + j) % 3;
        if j % 7 == 3 {
            let other = pid + 10;
            out.push_str(&format!(
                "{pid}  {} read(3</data/s{dir}/f{}>, <unfinished ...>\n",
                ts(t),
                j % 4
            ));
            out.push_str(&format!(
                "{other}  {} write(4</data/out/log{i}>, \"...\", 50) = 50 <0.000011>\n",
                ts(t + 5)
            ));
            out.push_str(&format!(
                "{pid}  {} <... read resumed> \"...\", 832) = 832 <0.000020>\n",
                ts(t + 20)
            ));
        } else if j % 11 == 5 {
            out.push_str(&format!(
                "{pid}  {} openat(AT_FDCWD, \"/usr/lib/x86_64-linux-gnu/libc{j}.so\", O_RDONLY|O_CLOEXEC) = 3</usr/lib/x86_64-linux-gnu/libc{j}.so> <0.000031>\n",
                ts(t)
            ));
        } else {
            out.push_str(&format!(
                "{pid}  {} read(3</data/s{dir}/f{}>, \"...\", 832) = 832 <0.000009>\n",
                ts(t),
                j % 4
            ));
        }
        t += 40;
    }
    out
}

/// `(activity labels, (from, to) → count)` of a DOT body as
/// `render_dot_plain` writes it, with activities named by their label
/// and the markers by their ids (`start`, `end`). Node ids depend on
/// the order in which activities were discovered, so graphs are
/// compared through labels.
type NamedDfg = (
    std::collections::BTreeSet<String>,
    std::collections::BTreeMap<(String, String), u64>,
);

fn named_dfg(dot: &str) -> NamedDfg {
    let mut labels: std::collections::BTreeMap<String, String> = Default::default();
    let mut edges = std::collections::BTreeMap::new();
    for line in dot.lines().map(str::trim) {
        let Some((lhs, attrs)) = line.split_once(" [label=\"") else {
            continue;
        };
        let label = attrs.split_once('"').expect("closed label").0.to_string();
        match lhs.split_once(" -> ") {
            Some((from, to)) => {
                let name = |id: &str| labels.get(id).cloned().unwrap_or_else(|| id.to_string());
                let count: u64 = label.parse().expect("edge label is a count");
                let key = (name(from), name(to));
                assert!(edges.insert(key, count).is_none(), "duplicate edge {line}");
            }
            None if lhs.starts_with('n') => {
                labels.insert(lhs.to_string(), label);
            }
            None => {}
        }
    }
    (labels.into_values().collect(), edges)
}

#[test]
fn live_dfg_equals_batch_dfg_over_sealed_store() {
    let dir = tempdir("dfg");
    let store = dir.join("live.stlog2");
    let handle = Daemon::start(ServeConfig::new(&store)).unwrap();
    let addr = handle.addr();
    let texts: Vec<String> = (0..4).map(|i| multi_pid_stream_text(i, 400)).collect();
    let name = |i: usize| format!("m{i}_host{}_{}.st", i % 2, 500 + i);

    // Every activity the finished graph may hold, as its DOT label
    // (`call\npath`), from an offline parse of all the texts.
    let interner = st_model::Interner::new();
    let mut names = std::collections::BTreeSet::new();
    for (i, text) in texts.iter().enumerate() {
        let meta = st_model::CaseMeta::parse_trace_file_name(&name(i), &interner).unwrap();
        let parsed = st_strace::parse_str(text, &interner);
        assert!(parsed.warnings.is_empty(), "{:?}", parsed.warnings);
        let snap = interner.snapshot();
        let ctx = st_core::mapping::MapCtx { snapshot: &snap };
        for e in &parsed.events {
            let name =
                st_core::Mapping::activity_name(&st_core::CallTopDirs::new(2), &ctx, &meta, e);
            names.insert(name.unwrap().replacen(':', "\\n", 1));
        }
    }

    // Stream 0 stops midway, past one 256-line ingest batch: its
    // in-flight partial already shows in /dfg, with well-formed names.
    let (head, tail) = texts[0].split_at(texts[0].match_indices('\n').nth(299).unwrap().0 + 1);
    let mut open = TcpStream::connect(addr).unwrap();
    write!(
        open,
        "POST /ingest/{} HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: chunked\r\n\r\n{:x}\r\n{head}\r\n",
        name(0),
        head.len()
    )
    .unwrap();
    open.flush().unwrap();
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    let ingested = || -> u64 {
        let status = String::from_utf8(get(addr, "/status").2).unwrap();
        let field = status
            .split_whitespace()
            .find_map(|f| f.strip_prefix("events_ingested="));
        field.unwrap().parse().unwrap()
    };
    while ingested() == 0 {
        assert!(
            std::time::Instant::now() < deadline,
            "first batch never drained"
        );
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    let (status, _, dot) = get(addr, "/dfg");
    assert_eq!(status, 200);
    let (live_nodes, _) = named_dfg(&String::from_utf8(dot).unwrap());
    assert!(!live_nodes.is_empty());
    assert!(live_nodes.is_subset(&names), "{live_nodes:?} ⊄ {names:?}");

    for (i, text) in texts.iter().enumerate().skip(1) {
        let (status, body) = ingest_chunked(addr, &name(i), text);
        assert_eq!(status, 200, "{}", String::from_utf8_lossy(&body));
    }
    write!(open, "{:x}\r\n{tail}\r\n0\r\n\r\n", tail.len()).unwrap();
    let mut resp = String::new();
    open.read_to_string(&mut resp).unwrap();
    assert!(resp.starts_with("HTTP/1.1 200"), "{resp}");

    // Every stream is done: the live graph is the batch topdirs:2 DFG
    // over the sealed store, node for node and edge count for edge count.
    let (status, _, dot) = get(addr, "/dfg");
    assert_eq!(status, 200);
    let live = named_dfg(&String::from_utf8(dot).unwrap());
    handle.shutdown();
    handle.join().unwrap();
    let batch = st_source::Inspector::open(&store.display().to_string())
        .unwrap()
        .map_boxed(Box::new(st_core::CallTopDirs::new(2)))
        .session()
        .unwrap()
        .dfg();
    let batch = named_dfg(&st_core::render::render_dot_plain(&batch));
    assert_eq!(live.0, batch.0);
    assert_eq!(live.1, batch.1);
    assert_eq!(live.0, names);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn concurrent_queries_match_offline_bodies() {
    let dir = tempdir("queries");
    let store = dir.join("live.stlog2");
    let mut config = ServeConfig::new(&store);
    config.block_events = 16;
    let handle = Daemon::start(config).unwrap();
    let addr = handle.addr();
    for i in 0..4 {
        let (status, _) = ingest_chunked(
            addr,
            &format!("q{i}_hostA_{}.st", 300 + i),
            &stream_text(i, 60),
        );
        assert_eq!(status, 200);
    }

    // Eight connections query one checkpoint generation at once; no
    // lock serializes them, and every body equals the offline CLI's.
    let filter = r#"class=read path~"/data/*""#;
    let emits = ["events", "stats", "dfg"];
    let start = std::sync::Arc::new(std::sync::Barrier::new(8));
    let clients: Vec<_> = (0..8)
        .map(|k| {
            let target = format!("/query?filter={}&emit={}", encode(filter), emits[k % 3]);
            let start = start.clone();
            std::thread::spawn(move || {
                start.wait();
                get(addr, &target)
            })
        })
        .collect();
    let store_spec = store.display().to_string();
    for (k, client) in clients.into_iter().enumerate() {
        let (status, _, body) = client.join().unwrap();
        assert_eq!(status, 200);
        let offline = offline_query_body(&store_spec, Some(filter), emits[k % 3]);
        assert_eq!(String::from_utf8(body).unwrap(), offline, "query {k}");
    }
    handle.shutdown();
    handle.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Starts `config`'s daemon and shuts it down without it ever seeing a
/// connection; the join must finish within 2 s of the request.
fn shutdown_idle(config: ServeConfig) {
    let handle = Daemon::start(config).unwrap();
    let (done, joined) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        handle.shutdown();
        let _ = done.send(handle.join());
    });
    joined
        .recv_timeout(std::time::Duration::from_secs(2))
        .expect("daemon joins within 2 s of shutdown")
        .unwrap();
}

#[test]
fn idle_daemon_shuts_down_promptly() {
    let dir = tempdir("idle");
    shutdown_idle(ServeConfig::new(dir.join("live.stlog2")));
    let salvaged = st_store::open_salvage_seek(&dir.join("live.stlog2")).unwrap();
    assert!(salvaged.report.is_clean(), "{:?}", salvaged.report);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn daemon_bound_to_unspecified_address_shuts_down_promptly() {
    let dir = tempdir("unspecified");
    let mut config = ServeConfig::new(dir.join("live.stlog2"));
    config.addr = "0.0.0.0:0".to_string();
    shutdown_idle(config);
    let _ = std::fs::remove_dir_all(&dir);
}
