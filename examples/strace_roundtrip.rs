//! End-to-end substrate demo: simulate → emit authentic strace text →
//! parse it back → store it → reload → verify nothing was lost.
//!
//! This is the full data path a real deployment would use (Fig. 1
//! tracing, Sec. III parsing, Sec. V HDF5-style storage), minus the
//! cluster.
//!
//! ```text
//! cargo run --example strace_roundtrip
//! ```

use std::sync::Arc;

use st_inspector::prelude::*;

fn main() {
    // 1) Simulate the Fig. 1 commands.
    let filter = TraceFilter::only([Syscall::Read, Syscall::Write]);
    let sim = Simulation::new(SimConfig::small(3));
    let mut original = EventLog::with_new_interner();
    sim.run(
        "a",
        vec![st_inspector::sim::workloads::ls_ops(); 3],
        &filter,
        &mut original,
    );

    // 2) Emit strace text files with the Fig. 1 naming convention.
    let dir = std::env::temp_dir().join(format!("st-roundtrip-{}", std::process::id()));
    let paths = write_log_to_dir(&original, &dir, &WriteOptions::default()).expect("emit");
    println!(
        "emitted {} strace files into {}",
        paths.len(),
        dir.display()
    );
    let body = std::fs::read_to_string(&paths[0]).unwrap();
    println!(
        "--- {} ---",
        paths[0].file_name().unwrap().to_string_lossy()
    );
    print!("{body}");

    // 3) Parse the directory back (parallel loader).
    let interner = Interner::new_shared();
    let loaded = load_dir(&dir, Arc::clone(&interner), &LoadOptions::default()).expect("load");
    assert!(loaded.warnings.is_empty(), "{:?}", loaded.warnings);
    println!(
        "parsed back: {} cases, {} events (original had {})",
        loaded.log.case_count(),
        loaded.log.total_events(),
        original.total_events()
    );
    assert_eq!(loaded.log.total_events(), original.total_events());

    // 4) Store as a single container file and reload.
    let store_path = dir.join("eventlog.stlog");
    write_store(&loaded.log, &store_path).expect("store");
    let reloaded = read_store(&store_path).expect("read");
    assert_eq!(reloaded.total_events(), original.total_events());
    println!(
        "stored + reloaded {} events via {} ({} bytes)",
        reloaded.total_events(),
        store_path.display(),
        std::fs::metadata(&store_path).unwrap().len()
    );

    // 5) The DFG from the round-tripped log matches the direct one.
    let mapping = CallTopDirs::new(2);
    let direct = Dfg::from_mapped(&MappedLog::new(&original, &mapping));
    let roundtripped = Dfg::from_mapped(&MappedLog::new(&reloaded, &mapping));
    assert_eq!(
        direct.edges().collect::<Vec<_>>(),
        roundtripped.edges().collect::<Vec<_>>()
    );
    println!("DFG equality after round trip: OK");

    std::fs::remove_dir_all(&dir).ok();
}
