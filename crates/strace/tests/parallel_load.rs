//! A parallel directory load equals the sequential load exactly: the
//! same cases with the same raw symbol ids, and the same interner
//! string table, whatever the worker count, in memory and streaming.

use st_model::{Case, Interner, Symbol};
use st_strace::{load_dir, write_log_to_dir, LoadOptions, WriteOptions};

/// The loaded cases and the interner's strings in symbol order.
fn load(dir: &std::path::Path, threads: usize, streaming: bool) -> (Vec<Case>, Vec<String>) {
    let interner = Interner::new_shared();
    let opts = LoadOptions {
        threads,
        streaming,
        ..LoadOptions::default()
    };
    let loaded = load_dir(dir, std::sync::Arc::clone(&interner), &opts).unwrap();
    let strings = (0..interner.len() as u32)
        .map(|i| interner.resolve(Symbol(i)).to_string())
        .collect();
    (loaded.log.cases().to_vec(), strings)
}

#[test]
fn parallel_load_equals_sequential_load_including_symbol_ids() {
    let dir = std::env::temp_dir().join(format!("st-parallel-load-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let log = st_source::sim::workload_log("ior-ssf-fpp", true).expect("known workload");
    write_log_to_dir(&log, &dir, &WriteOptions::default()).unwrap();

    for streaming in [false, true] {
        let (cases, strings) = load(&dir, 1, streaming);
        assert_eq!(cases.len(), 192, "96 ranks in each of two runs");
        for threads in [2, 2, 4, 8] {
            let (par_cases, par_strings) = load(&dir, threads, streaming);
            assert!(
                par_cases == cases,
                "threads={threads} streaming={streaming}: cases differ"
            );
            assert_eq!(
                par_strings, strings,
                "threads={threads} streaming={streaming}: string tables differ"
            );
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
