//! Helpers shared by the root integration tests.

use idle_waves::idlewave::sweep::{run_sweep, Scenario, SweepOptions};
use idle_waves::prelude::SimConfig;

/// Run `configs` as one sweep on `threads` supervision threads, scenario
/// `i` under the id `s<i>`, and return each record's id and trace
/// fingerprint in report order. Every record must be `Ok`. Each call
/// writes to its own temporary directory (named after `tag`, the thread
/// count and the process), so tests can run concurrently.
pub fn sweep_fingerprints(tag: &str, configs: &[SimConfig], threads: usize) -> Vec<(String, u64)> {
    let dir =
        std::env::temp_dir().join(format!("idle-waves-{tag}-{threads}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let scenarios: Vec<Scenario> = configs
        .iter()
        .enumerate()
        .map(|(i, cfg)| Scenario::new(format!("s{i}"), cfg.clone()))
        .collect();
    let opts = SweepOptions {
        threads,
        ..SweepOptions::default()
    };
    let report = run_sweep(&scenarios, &opts, &dir.join("results.jsonl")).expect("sweep runs");
    let _ = std::fs::remove_dir_all(&dir);
    report
        .results
        .into_iter()
        .map(|r| {
            assert!(r.is_ok(), "scenario {} failed: {r:?}", r.id);
            let fp = r
                .summary
                .expect("ok records carry a summary")
                .trace_fingerprint;
            (r.id, fp)
        })
        .collect()
}
