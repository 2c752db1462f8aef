//! Seeded input generation (set-up only; never timed as an operation).

use st_ior::workload::StartupProfile;
use st_ior::{run_ior, Api, IorOptions};
use std::sync::Arc;

use st_model::{EventLog, Interner};
use st_sim::{SimConfig, TraceFilter};

use crate::measure::Rng;

/// One of the paper's two Sec. V experiments: a log holding two IOR
/// runs told apart by command id.
pub struct Experiment {
    pub name: &'static str,
    pub cids: [&'static str; 2],
    pub log: EventLog,
}

/// Both paper experiments at the paper's scale (2 hosts × 48 ranks),
/// with the simulator's jitter and rank order drawn from `seed`:
/// Sec. V-A SSF (`s`) vs FPP (`f`), and Sec. V-B MPI-IO (`g`) vs POSIX
/// (`r`) on one shared file. Both logs intern their strings in
/// `interner`.
pub fn paper_ior(seed: u64, interner: &Arc<Interner>) -> Vec<Experiment> {
    let rng = Rng::new(seed);
    let profile = StartupProfile::default();
    let run = |tag: u64, filter: TraceFilter, runs: [(&str, bool, Api, &str); 2]| {
        let config = SimConfig {
            seed: rng.fork(tag).next_u64(),
            ..SimConfig::default()
        };
        let mut log = EventLog::new(interner.clone());
        for (cid, fpp, api, subdir) in runs {
            let test_file = format!("{}/{subdir}/test", config.paths.scratch);
            let opts = IorOptions::paper_experiment(fpp, api, &test_file);
            run_ior(cid, &opts, &profile, &config, &filter, &mut log);
        }
        log
    };
    vec![
        Experiment {
            name: "ior-ssf-fpp",
            cids: ["s", "f"],
            log: run(
                1,
                TraceFilter::experiment_a(),
                [
                    ("s", false, Api::Posix, "ssf"),
                    ("f", true, Api::Posix, "fpp"),
                ],
            ),
        },
        Experiment {
            name: "ior-mpiio",
            cids: ["g", "r"],
            log: run(
                2,
                TraceFilter::experiment_b(),
                [
                    ("g", false, Api::Mpiio, "ssf"),
                    ("r", false, Api::Posix, "ssf"),
                ],
            ),
        },
    ]
}
