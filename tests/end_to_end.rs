//! Whole-system integration: simulate → strace text → parse → store →
//! reload → map → DFG → stats → render, asserting the pipeline is
//! lossless where the paper requires it to be.

use std::sync::Arc;

use st_inspector::prelude::*;

mod common;
use common::dfg_edges_by_name;

fn simulate_ls_pair() -> EventLog {
    let filter = TraceFilter::only([Syscall::Read, Syscall::Write]);
    let mut log = EventLog::with_new_interner();
    let sim = Simulation::new(SimConfig::small(3));
    sim.run(
        "a",
        vec![st_inspector::sim::workloads::ls_ops(); 3],
        &filter,
        &mut log,
    );
    let sim_b = Simulation::new(SimConfig {
        base_rid: 9115,
        ..SimConfig::small(3)
    });
    sim_b.run(
        "b",
        vec![st_inspector::sim::workloads::ls_l_ops(); 3],
        &filter,
        &mut log,
    );
    log
}

#[test]
fn strace_text_roundtrip_preserves_the_dfg() {
    let original = simulate_ls_pair();
    let dir = std::env::temp_dir().join(format!("st-e2e-text-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    write_log_to_dir(&original, &dir, &WriteOptions::default()).unwrap();

    let loaded = load_dir(&dir, Interner::new_shared(), &LoadOptions::default()).unwrap();
    assert!(loaded.warnings.is_empty(), "{:?}", loaded.warnings);
    assert_eq!(loaded.log.case_count(), original.case_count());
    assert_eq!(loaded.log.total_events(), original.total_events());

    let mapping = CallTopDirs::new(2);
    let direct = Dfg::from_mapped(&MappedLog::new(&original, &mapping));
    let via_text = Dfg::from_mapped(&MappedLog::new(&loaded.log, &mapping));
    assert_eq!(dfg_edges_by_name(&direct), dfg_edges_by_name(&via_text));

    // Statistics survive too (durations/sizes are carried verbatim).
    let s1 = IoStatistics::compute(&MappedLog::new(&original, &mapping));
    let s2 = IoStatistics::compute(&MappedLog::new(&loaded.log, &mapping));
    for (_, name, stat) in s1.iter() {
        let other = s2.get_by_name(name).expect(name);
        assert_eq!(stat.bytes, other.bytes, "{name}");
        assert_eq!(stat.total_dur, other.total_dur, "{name}");
        assert_eq!(stat.events, other.events, "{name}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn store_roundtrip_preserves_the_dfg_and_filters() {
    let original = simulate_ls_pair();
    let path = std::env::temp_dir().join(format!("st-e2e-store-{}.stlog", std::process::id()));
    write_store(&original, &path).unwrap();
    let reloaded = read_store(&path).unwrap();
    let mapping = CallTopDirs::new(2);
    assert_eq!(
        dfg_edges_by_name(&Dfg::from_mapped(&MappedLog::new(&original, &mapping))),
        dfg_edges_by_name(&Dfg::from_mapped(&MappedLog::new(&reloaded, &mapping)))
    );

    // Store-side filtered read == in-memory filter (Fig. 6 step 1).
    let store_filtered = Inspector::open(path.to_str().unwrap())
        .unwrap()
        .filter_expr(r#"path~"*/usr/lib*""#)
        .unwrap()
        .log()
        .unwrap();
    let mem_filtered = original.filter_path_contains("/usr/lib");
    assert_eq!(store_filtered.total_events(), mem_filtered.total_events());
    assert_eq!(store_filtered.case_count(), mem_filtered.case_count());
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn full_pipeline_runs_on_ior_and_renders() {
    let log = st_bench::experiments::ior_ssf_fpp(st_bench::experiments::Scale::Small);
    let config = st_bench::experiments::Scale::Small.config();
    let mapping = st_bench::experiments::site_mapping(&config, 1);
    let scratch = log.filter_path_contains(&config.paths.scratch);
    let mapped = MappedLog::new(&scratch, &mapping);
    let dfg = Dfg::from_mapped(&mapped);
    dfg.check_invariants().unwrap();
    let stats = IoStatistics::compute(&mapped);
    let dot = DfgViewer::new(&dfg)
        .with_stats(&stats)
        .with_styler(StatisticsColoring::by_load(&stats))
        .render_dot();
    assert!(dot.contains("digraph"));
    assert!(dot.contains("$SCRATCH/ssf"));
    assert!(dot.contains("MB/s"));
    // Rates and loads are finite and normalized.
    let mut total_load = 0.0;
    for (_, _, s) in stats.iter() {
        assert!(s.rel_dur.is_finite() && (0.0..=1.0).contains(&s.rel_dur));
        assert!(s.mean_rate_bps.is_finite());
        total_load += s.rel_dur;
    }
    assert!((total_load - 1.0).abs() < 1e-9);
}

#[test]
fn parallel_loader_matches_sequential_end_to_end() {
    let original = simulate_ls_pair();
    let dir = std::env::temp_dir().join(format!("st-e2e-par-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    write_log_to_dir(&original, &dir, &WriteOptions::default()).unwrap();

    let seq = load_dir(
        &dir,
        Interner::new_shared(),
        &LoadOptions {
            threads: 1,
            ..Default::default()
        },
    )
    .unwrap();
    let par = load_dir(
        &dir,
        Interner::new_shared(),
        &LoadOptions {
            threads: 4,
            ..Default::default()
        },
    )
    .unwrap();

    let mapping = CallTopDirs::new(2);
    let m_seq = MappedLog::new(&seq.log, &mapping);
    let m_par = MappedLog::new(&par.log, &mapping);
    assert_eq!(
        dfg_edges_by_name(&Dfg::from_mapped(&m_seq)),
        dfg_edges_by_name(&Dfg::from_mapped(&m_par))
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn unfinished_resumed_interleaving_survives_roundtrip() {
    // Build a case with overlapping events from two pids (SMT, Fig. 2c)
    // and check the writer's unfinished/resumed split parses back.
    let mut log = EventLog::with_new_interner();
    let interner = Arc::clone(log.interner());
    let meta = CaseMeta {
        cid: interner.intern("c"),
        host: interner.intern("h"),
        rid: 1,
    };
    let p = interner.intern("/usr/lib/x86_64-linux-gnu/libselinux.so.1");
    let events = vec![
        Event::new(Pid(77423), Syscall::Read, Micros(1_000), Micros(500), p)
            .with_size(404)
            .with_requested(405),
        Event::new(Pid(77424), Syscall::Read, Micros(1_200), Micros(50), p)
            .with_size(100)
            .with_requested(100),
        Event::new(Pid(77423), Syscall::Read, Micros(2_000), Micros(40), p)
            .with_size(0)
            .with_requested(405),
    ];
    log.push_case(Case::from_events(meta, events));

    let dir = std::env::temp_dir().join(format!("st-e2e-unf-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    write_log_to_dir(&log, &dir, &WriteOptions::default()).unwrap();
    let body = std::fs::read_to_string(dir.join("c_h_1.st")).unwrap();
    assert!(body.contains("<unfinished ...>"), "{body}");
    assert!(body.contains("resumed>"), "{body}");

    let loaded = load_dir(&dir, Interner::new_shared(), &LoadOptions::default()).unwrap();
    assert!(loaded.warnings.is_empty(), "{:?}", loaded.warnings);
    assert_eq!(loaded.log.total_events(), 3);
    let merged = &loaded.log.cases()[0].events[0];
    assert_eq!(merged.start, Micros(1_000));
    assert_eq!(merged.dur, Micros(500));
    assert_eq!(merged.size, Some(404));
    std::fs::remove_dir_all(&dir).unwrap();
}
