//! Input-kind × subcommand matrix: every analysis subcommand must
//! accept every input kind — a v1 store file, a v2 store file, a
//! directory of strace files, a single strace file, and a `sim:` spec —
//! and produce byte-identical stdout for the same underlying run.
//!
//! The golden files under `tests/golden/matrix_*.golden` were captured
//! from the pre-`Inspector`-redesign binary (each subcommand reading a
//! v2 store through its then-private resolution path), so they also pin
//! that the session-API rewrite changed no output byte. Regenerate after
//! intentional format changes with `UPDATE_GOLDEN=1 cargo test -p st-cli
//! --test matrix`.

use std::path::{Path, PathBuf};
use std::process::Command;

use st_store::{read_store, to_bytes_v1};

fn stinspect() -> Command {
    Command::new(env!("CARGO_BIN_EXE_stinspect"))
}

fn golden_path(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("matrix_{name}.golden"))
}

/// Builds the shared fixture set: the simulated `ls` run as a v2 store,
/// a v1 store, a directory of strace files, and a single strace file.
struct Fixture {
    dir: PathBuf,
    v2: PathBuf,
    v1: PathBuf,
    traces: PathBuf,
    one_file: PathBuf,
}

impl Fixture {
    fn build(tag: &str) -> Fixture {
        let dir =
            std::env::temp_dir().join(format!("stinspect-matrix-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let out = stinspect()
            .args(["simulate", "ls", "--out"])
            .arg(&dir)
            .arg("--emit-strace")
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let v2 = dir.join("ls.stlog");
        let traces = dir.join("ls-traces");
        // The v1 container is written through the legacy encoder from the
        // identical log, so its event set matches the other kinds exactly.
        let log = read_store(&v2).unwrap();
        let v1 = dir.join("ls-v1.stlog");
        std::fs::write(&v1, to_bytes_v1(&log).unwrap()).unwrap();
        // Any single trace file is a valid one-case input of its own.
        let mut files: Vec<PathBuf> = std::fs::read_dir(&traces)
            .unwrap()
            .filter_map(|e| e.ok().map(|e| e.path()))
            .collect();
        files.sort();
        let one_file = files.into_iter().next().expect("emitted traces");
        Fixture {
            dir,
            v2,
            v1,
            traces,
            one_file,
        }
    }

    /// Every input kind naming the same run, labelled for assertions.
    fn kinds(&self) -> Vec<(&'static str, String)> {
        vec![
            ("v2-store", self.v2.display().to_string()),
            ("v1-store", self.v1.display().to_string()),
            ("strace-dir", self.traces.display().to_string()),
            ("sim-spec", "sim:ls".to_string()),
        ]
    }
}

impl Drop for Fixture {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Runs one subcommand against `input`, asserting success and returning
/// stdout.
fn run(argv: &[&str], input: &str) -> Vec<u8> {
    let args: Vec<&str> = argv
        .iter()
        .map(|a| if *a == "<input>" { input } else { *a })
        .collect();
    let out = stinspect().args(&args).output().unwrap();
    assert!(
        out.status.success(),
        "{args:?}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    out.stdout
}

#[test]
fn every_subcommand_accepts_every_input_kind() {
    let fx = Fixture::build("all");
    let update = std::env::var("UPDATE_GOLDEN").is_ok();
    // `<input>` is substituted per kind; diff takes it on both sides.
    let commands: &[(&str, Vec<&str>)] = &[
        ("dfg", vec!["dfg", "<input>"]),
        ("stats", vec!["stats", "<input>"]),
        ("timeline", vec!["timeline", "<input>", "read:/usr/lib"]),
        (
            "diff",
            vec!["diff", "<input>", "<input>", "--cid-a", "a", "--cid-b", "b"],
        ),
        (
            "query",
            vec![
                "query",
                "<input>",
                "--filter",
                "class=read",
                "--emit",
                "events",
            ],
        ),
    ];
    for (name, argv) in commands {
        let golden = golden_path(name);
        if update {
            // Goldens are captured from the v2 store input (the kind the
            // pre-redesign binary supported on every subcommand).
            std::fs::write(&golden, run(argv, &fx.v2.display().to_string())).unwrap();
            continue;
        }
        let expected = std::fs::read(&golden)
            .unwrap_or_else(|_| panic!("missing {} — run UPDATE_GOLDEN=1", golden.display()));
        for (kind, input) in fx.kinds() {
            let got = run(argv, &input);
            assert!(
                got == expected,
                "{name} on {kind} diverges from the golden output\n--- got ---\n{}",
                String::from_utf8_lossy(&got)
            );
        }
    }
}

#[test]
fn single_strace_file_is_a_valid_input() {
    // A lone trace file (no directory) resolves to a one-case log on
    // every subcommand — the input kind the TraceSource layer added.
    let fx = Fixture::build("one");
    let one = fx.one_file.display().to_string();
    let stats = run(&["stats", "<input>"], &one);
    let text = String::from_utf8_lossy(&stats);
    assert!(text.contains("1 cases"), "{text}");
    let query = run(
        &[
            "query",
            "<input>",
            "--filter",
            "class=read",
            "--emit",
            "events",
        ],
        &one,
    );
    let text = String::from_utf8_lossy(&query);
    assert!(text.lines().count() > 1, "{text}");
    // Both diff sides may be the same single file: structurally identical.
    let diff = run(&["diff", "<input>", "<input>"], &one);
    assert!(
        String::from_utf8_lossy(&diff).contains("graphs are identical"),
        "{}",
        String::from_utf8_lossy(&diff)
    );
}

/// Deterministically corrupts one block of a v2 container: a single
/// bit flip inside the first block body (located via the documented
/// layout — header, then strings and directory framed as
/// `u64 len + body + crc32`, then the blocks length prefix).
fn corrupt_first_block(v2: &Path, out: &Path) {
    let mut image = std::fs::read(v2).unwrap();
    let mut off = 12usize;
    for _ in 0..2 {
        let len = u64::from_le_bytes(image[off..off + 8].try_into().unwrap()) as usize;
        off += 8 + len + 4;
    }
    off += 8; // blocks section length prefix
    image[off + 3] ^= 0x08;
    std::fs::write(out, image).unwrap();
}

#[test]
fn salvage_row_output_is_pinned_on_a_corrupted_store() {
    // The robustness row of the matrix: one deterministically corrupted
    // v2 store × {dfg, stats, query, fsck}. Salvage mode must produce
    // byte-identical stdout run over run (golden-pinned), fsck must use
    // its degraded exit code, and strict mode must reject the store.
    let fx = Fixture::build("salvage");
    let bad = fx.dir.join("ls-corrupt.stlog");
    corrupt_first_block(&fx.v2, &bad);
    let input = bad.display().to_string();
    let update = std::env::var("UPDATE_GOLDEN").is_ok();

    let commands: &[(&str, Vec<&str>, i32)] = &[
        ("salvage_dfg", vec!["--salvage", "dfg", "<input>"], 0),
        ("salvage_stats", vec!["--salvage", "stats", "<input>"], 0),
        (
            "salvage_query",
            vec![
                "--salvage",
                "query",
                "<input>",
                "--filter",
                "class=read",
                "--emit",
                "events",
            ],
            0,
        ),
        ("salvage_fsck", vec!["fsck", "<input>"], 3),
    ];
    for (name, argv, want_code) in commands {
        let args: Vec<&str> = argv
            .iter()
            .map(|a| if *a == "<input>" { input.as_str() } else { *a })
            .collect();
        let out = stinspect().args(&args).output().unwrap();
        assert_eq!(
            out.status.code(),
            Some(*want_code),
            "{name}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        // fsck echoes the store path; normalize it so the golden is
        // machine-independent.
        let got = String::from_utf8_lossy(&out.stdout).replace(&input, "<store>");
        let golden = golden_path(name);
        if update {
            std::fs::write(&golden, got.as_bytes()).unwrap();
            continue;
        }
        let expected = std::fs::read_to_string(&golden)
            .unwrap_or_else(|_| panic!("missing {} — run UPDATE_GOLDEN=1", golden.display()));
        assert!(
            got == expected,
            "{name} diverges from the golden output\n--- got ---\n{got}"
        );
    }

    // Without --salvage the same store is a hard error on every
    // analysis subcommand.
    let out = stinspect().args(["stats", &input]).output().unwrap();
    assert!(
        !out.status.success(),
        "strict mode accepted a corrupt store"
    );
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("checksum"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

/// Normalizes a `--metrics=json` line for golden comparison: the
/// store path, every `wall_ns`/`self_ns` timing, and the
/// machine-dependent route-plan notes are replaced with fixed tokens.
/// Everything else — the schema tag, the stage tree shape, call
/// counts, and the byte/block/event counters — is deterministic for a
/// fixed fixture and stays pinned.
fn normalize_metrics_json(line: &str, store: &str) -> String {
    let mut s = line.trim_end().replace(store, "<store>");
    for key in ["\"wall_ns\":", "\"self_ns\":"] {
        let mut out = String::new();
        let mut rest = s.as_str();
        while let Some(i) = rest.find(key) {
            let j = i + key.len();
            out.push_str(&rest[..j]);
            out.push('0');
            rest = rest[j..].trim_start_matches(|c: char| c.is_ascii_digit());
        }
        out.push_str(rest);
        s = out;
    }
    for (key, token) in [
        ("\"route.reason\":\"", "<reason>"),
        ("\"route.workers\":\"", "<n>"),
    ] {
        if let Some(i) = s.find(key) {
            let j = i + key.len();
            let end = j + s[j..].find('"').expect("closing quote");
            s.replace_range(j..end, token);
        }
    }
    s
}

/// Scans a JSON document for structural validity without a parser:
/// brackets and braces must balance outside string literals, with
/// escapes honored. A Perfetto load would reject anything this scan
/// rejects.
fn json_brackets_balance(doc: &str) -> bool {
    let mut depth: i64 = 0;
    let mut in_str = false;
    let mut escaped = false;
    for c in doc.chars() {
        if in_str {
            match (escaped, c) {
                (true, _) => escaped = false,
                (false, '\\') => escaped = true,
                (false, '"') => in_str = false,
                _ => {}
            }
            continue;
        }
        match c {
            '"' => in_str = true,
            '{' | '[' => depth += 1,
            '}' | ']' => {
                depth -= 1;
                if depth < 0 {
                    return false;
                }
            }
            _ => {}
        }
    }
    depth == 0 && !in_str
}

#[test]
fn metrics_json_is_pinned_and_chrome_trace_is_well_formed() {
    let fx = Fixture::build("metrics");
    let input = fx.v2.display().to_string();
    let update = std::env::var("UPDATE_GOLDEN").is_ok();

    // One matrix row with --metrics=json: the stage tree and counter
    // totals on stderr's last line are schema-stable and (after
    // normalizing paths, timings, and the worker plan) byte-pinned.
    let out = stinspect()
        .args([
            "query",
            &input,
            "--filter",
            "class=read",
            "--emit",
            "stats",
            "--metrics=json",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    let json_line = stderr
        .lines()
        .rev()
        .find(|l| l.starts_with("{\"schema\":\"st-obs/1\""))
        .expect("a metrics JSON line on stderr");
    assert!(json_brackets_balance(json_line), "{json_line}");
    // The ad-hoc pushdown line and the report render the same counter.
    let pushdown_line = stderr
        .lines()
        .find(|l| l.starts_with("pushdown:"))
        .expect("pushdown summary line");
    let bytes_read = pushdown_line
        .rsplit("read ")
        .next()
        .and_then(|tail| tail.split(' ').next())
        .unwrap();
    assert!(
        json_line.contains(&format!("\"bytes_read\":{bytes_read}")),
        "JSON report and pushdown line disagree on bytes_read:\n{pushdown_line}\n{json_line}"
    );
    let got = normalize_metrics_json(json_line, &input);
    let golden = golden_path("metrics_query_json");
    if update {
        std::fs::write(&golden, format!("{got}\n")).unwrap();
    } else {
        let expected = std::fs::read_to_string(&golden)
            .unwrap_or_else(|_| panic!("missing {} — run UPDATE_GOLDEN=1", golden.display()));
        assert!(
            format!("{got}\n") == expected,
            "metrics JSON diverges from the golden output\n--- got ---\n{got}"
        );
    }

    // --metrics=chrome writes a structurally valid trace-event
    // document with complete ("ph":"X") events carrying the span paths.
    let trace = fx.dir.join("trace.json");
    let out = stinspect()
        .args(["dfg", &input, "--metrics=chrome", "--metrics-out"])
        .arg(&trace)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let doc = std::fs::read_to_string(&trace).unwrap();
    assert!(doc.starts_with("{\"traceEvents\":["), "{doc}");
    assert!(json_brackets_balance(&doc), "unbalanced trace document");
    for needle in [
        "\"ph\":\"X\"",
        "\"displayTimeUnit\":\"ms\"",
        "\"otherData\"",
        "stinspect/session",
        "\"name\":\"store.decode_block\"",
    ] {
        assert!(doc.contains(needle), "missing {needle} in {doc}");
    }

    // chrome without a file sink is a usage error, not silent stderr spam.
    let out = stinspect()
        .args(["stats", &input, "--metrics=chrome"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn parse_ingests_every_input_kind() {
    // `parse` is the store-writer face of the same resolution layer:
    // any input kind can be ingested into a (v2) container.
    let fx = Fixture::build("parse");
    for (kind, input) in fx.kinds() {
        let out_store = fx.dir.join(format!("reingested-{kind}.stlog"));
        let out = stinspect()
            .arg("parse")
            .arg(&input)
            .arg("-o")
            .arg(&out_store)
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "parse {kind}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains("6 cases"), "parse {kind}: {stdout}");
        assert_eq!(
            &std::fs::read(&out_store).unwrap()[..8],
            b"STLOG2\0\0",
            "parse {kind} must write the current store format"
        );
    }
}
