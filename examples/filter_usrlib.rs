//! Fig. 4: restricting the synthesis to a directory.
//!
//! "One could modify the query to restrict the synthesis to a particular
//! section of the event-log": the mapping `f₁` maps an event only if its
//! path contains `/usr/lib`, and names nodes by the path remainder, so
//! individual library files become visible.
//!
//! ```text
//! cargo run --example filter_usrlib
//! ```

use st_bench::experiments::ls_experiment;
use st_inspector::prelude::*;

fn main() {
    let exp = ls_experiment();

    // f1: partial mapping — only /usr/lib events, named by file.
    let mapping = PathFilter::new("/usr/lib", PathSuffix::new("/usr/lib"));
    let mapped = MappedLog::new(&exp.cx, &mapping);
    println!(
        "{} of {} events map under f1",
        mapped.mapped_events(),
        exp.cx.total_events()
    );

    let dfg = Dfg::from_mapped(&mapped);
    let stats = IoStatistics::compute(&mapped);
    println!("\nG[L_f1(Cx)]:\n{}", render_summary(&dfg, Some(&stats)));

    let dot = DfgViewer::new(&dfg)
        .with_stats(&stats)
        .with_styler(StatisticsColoring::by_load(&stats))
        .render_dot();
    std::fs::write("filter_usrlib.dot", &dot).expect("write dot");
    println!("wrote filter_usrlib.dot");

    // The same query done store-side: persist, then push the path
    // filter into the reader (the paper's
    // `event_log.apply_fp_filter('/usr/lib')`).
    let store_path = std::env::temp_dir().join("usrlib-demo.stlog");
    write_store(&exp.cx, &store_path).expect("store");
    let filtered = Inspector::open(store_path.to_str().expect("UTF-8 temp path"))
        .and_then(|inspector| inspector.filter_expr(r#"path~"*/usr/lib*""#))
        .and_then(Inspector::log)
        .expect("filtered read");
    println!(
        "store-side filter: {} events under /usr/lib (same as in-memory: {})",
        filtered.total_events(),
        mapped.mapped_events()
    );
    let _ = std::fs::remove_file(&store_path);
}
