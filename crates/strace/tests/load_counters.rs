//! The loader's `symbols_interned` counter counts each new string once,
//! however many workers intern into the shared table at the same time.

use st_model::Interner;
use st_strace::{load_dir, write_log_to_dir, LoadOptions, WriteOptions};

#[test]
fn symbols_interned_is_the_same_for_every_worker_count() {
    let dir = std::env::temp_dir().join(format!("st-load-counters-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let log = st_source::sim::workload_log("ior-ssf-fpp", true).expect("known workload");
    write_log_to_dir(&log, &dir, &WriteOptions::default()).unwrap();

    st_obs::set_enabled(true);
    let count = |threads: usize| {
        let mark = st_obs::mark();
        let opts = LoadOptions {
            threads,
            ..LoadOptions::default()
        };
        load_dir(&dir, Interner::new_shared(), &opts).unwrap();
        st_obs::report_since(&mark).counter("symbols_interned")
    };
    let sequential = count(1);
    assert!(sequential > 0);
    for threads in [2, 2, 4, 8] {
        assert_eq!(count(threads), sequential, "threads={threads}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
