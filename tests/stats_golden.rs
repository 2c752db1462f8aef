//! Golden-file test for the per-activity statistics at the paper's
//! scale: the Sec. V-A IOR log (96 SSF + 96 FPP ranks) under the site
//! mapping, as `IoStatistics::to_csv()` for the full log and for the
//! per-cid views. The large concurrency values (thousands of windowed
//! overlaps, a hundred ranks at once) are pinned only here. Regenerate
//! after an intentional change with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test stats_golden
//! ```

mod common;

use common::check_golden;
use st_bench::experiments::{ior_ssf_fpp, site_mapping, Scale};
use st_inspector::prelude::*;

#[test]
fn paper_scale_ior_statistics_match_golden() {
    let log = ior_ssf_fpp(Scale::Paper);
    let mapped = MappedLog::new(&log, &site_mapping(&Scale::Paper.config(), 0));
    let mut out = String::from("# compute\n");
    out.push_str(&IoStatistics::compute(&mapped).to_csv());

    let mut cids: Vec<Symbol> = log.cases().iter().map(|c| c.meta.cid).collect();
    cids.dedup();
    let snap = log.snapshot();
    let full = LogView::full(&log);
    for cid in cids {
        let view = full.refine(|meta, _| meta.cid == cid);
        out.push_str(&format!("# compute_view cid={}\n", snap.resolve(cid)));
        out.push_str(&IoStatistics::compute_view(&mapped, &view).to_csv());
    }
    check_golden("ior_stats_paper.golden", &out);
}
