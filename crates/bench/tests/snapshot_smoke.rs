//! Smoke test of `bench_snapshot --quick`: the harness builds, runs to
//! completion and writes every section with real timings.

use std::process::Command;

/// Top-level sections of the snapshot, in the order they are written.
const SECTIONS: &[&str] = &[
    "quick",
    "cores",
    "parse",
    "mapping",
    "dfg",
    "stats",
    "concurrency",
    "render",
    "figures",
    "query",
    "pushdown",
    "ooc",
    "requery",
    "salvage",
    "obs",
    "serve",
    "source_open",
];

#[test]
fn quick_snapshot_writes_every_section_with_positive_timings() {
    let dir = std::env::temp_dir().join(format!("st-snapshot-smoke-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let out = dir.join("snapshot.json");
    let status = Command::new(env!("CARGO_BIN_EXE_bench_snapshot"))
        .arg("--quick")
        .arg("--out")
        .arg(&out)
        .status()
        .expect("run bench_snapshot");
    assert!(status.success(), "bench_snapshot exited with {status}");
    let json = std::fs::read_to_string(&out).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();

    // The writer indents top-level keys by exactly two spaces.
    let top: Vec<&str> = json
        .lines()
        .filter_map(|l| l.strip_prefix("  \""))
        .filter_map(|l| l.split('"').next())
        .collect();
    assert_eq!(top, SECTIONS, "top-level sections");

    let mut timings = 0;
    for (at, _) in json.match_indices("_ns\": ") {
        let key_start = json[..at].rfind('"').unwrap() + 1;
        let key = &json[key_start..at + 3];
        let value: String = json[at + 6..]
            .chars()
            .take_while(|c| c.is_ascii_digit() || *c == '.')
            .collect();
        let value: f64 = value
            .parse()
            .unwrap_or_else(|_| panic!("{key}: not a number"));
        assert!(value > 0.0, "{key} is {value}");
        timings += 1;
    }
    assert!(timings > 0, "no `*_ns` field found");

    // The paper-scale statistics row splits the first call (interval
    // index build included) from a warm repeat and a per-cid view.
    for field in ["first_compute_ns", "warm_compute_ns", "cid_view_ns"] {
        assert!(
            json.contains(&format!("\"{field}\": ")),
            "stats.ior_ssf_fpp lacks {field}"
        );
    }

    assert!(
        !json.contains("build_par4_ns_per_event"),
        "the dfg section still times a parallel build"
    );
}
