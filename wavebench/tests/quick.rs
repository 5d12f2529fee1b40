//! Quick-scale runs of every workload: each passes its own output checks,
//! reports every metric, and its count metrics repeat exactly.

use std::path::PathBuf;
use std::time::Duration;

use wavebench::{per_layer, run, Outcome, Plan, Scale, END_TO_END, WORKLOADS};

fn plan(workload: &str, seed: u64, trace: bool) -> Plan {
    Plan {
        seed,
        seconds: Duration::from_secs(1),
        trace,
        scale: Scale::Quick,
        work: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("quick-{workload}-{trace}")),
    }
}

fn run_ok(workload: &str, seed: u64, trace: bool) -> Outcome {
    let out = run(workload, &plan(workload, seed, trace))
        .unwrap_or_else(|e| panic!("{workload}: set-up failed: {e}"));
    assert!(
        out.failures.is_empty(),
        "{workload}: output checks failed: {:#?}",
        out.failures
    );
    assert_eq!(out.failed, 0, "{workload}: operations failed");
    assert!(out.attempted > 0, "{workload}: nothing attempted");
    out
}

#[test]
fn every_workload_checks_its_outputs_and_reports_every_end_to_end_metric() {
    for w in WORKLOADS {
        let out = run_ok(w, 7, false);
        for (name, _) in END_TO_END {
            let v = out.e2e.get(name).copied().unwrap_or(f64::NAN);
            assert!(v.is_finite() && v > 0.0, "{w}: {name} = {v}");
        }
        let json = wavebench::result_json(&out, false);
        assert!(json.starts_with("{\"correct\": true"), "{json}");
    }
}

#[test]
fn traced_runs_report_every_layer_and_counts_repeat_exactly() {
    for w in WORKLOADS {
        let a = run_ok(w, 3, true);
        let b = run_ok(w, 3, true);
        for (name, unit, who) in per_layer() {
            let (va, vb) = (a.layers.get(&name), b.layers.get(&name));
            assert!(va.is_some_and(|v| v.is_finite()), "{w}: {name} missing");
            if unit == "count" {
                assert_eq!(va, vb, "{w}: count {name} differs between identical runs");
            }
            // Differences of two timings may fall to or below zero.
            let difference = [
                "trace.overhead_pct",
                "sweep.overhead_us",
                "serve.queue_wait_ms",
            ];
            if who.contains(&w) && unit != "count" && !difference.contains(&name.as_str()) {
                assert!(*va.unwrap() > 0.0, "{w}: {name} = {va:?}");
            }
        }
    }
}

#[test]
fn generators_depend_only_on_the_seed() {
    use tracefmt::json;
    let cfgs = |seed| -> Vec<String> {
        wavebench::gen::engine_paper(seed, Scale::Quick)
            .iter()
            .map(|c| json::to_string(&c.cfg))
            .chain(
                wavebench::gen::sweep_suite(seed, Scale::Quick)
                    .iter()
                    .map(|s| json::to_string(&s.config)),
            )
            .collect()
    };
    assert_eq!(cfgs(5), cfgs(5));
    assert_ne!(cfgs(5), cfgs(6));
    let mut a = wavebench::gen::ServeMix::new(9, Scale::Quick);
    let mut b = wavebench::gen::ServeMix::new(9, Scale::Quick);
    for _ in 0..50 {
        assert_eq!(a.next_ask(), b.next_ask());
    }
}

#[test]
fn unknown_workloads_are_refused() {
    assert!(run("nope", &plan("nope", 1, false)).is_err());
}

#[test]
fn benchmark_json_lists_exactly_the_reported_metrics() {
    use tracefmt::json::Json;
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
    let doc = Json::parse(&text).expect("BENCHMARK.json parses");
    let listed = |key: &str| -> Vec<(String, String)> {
        let Some(Json::Array(items)) = doc.get(key) else {
            panic!("BENCHMARK.json has no {key} list");
        };
        items
            .iter()
            .map(|m| {
                let s = |k: &str| {
                    m.get(k)
                        .and_then(Json::as_str)
                        .unwrap_or_default()
                        .to_string()
                };
                (s("name"), s("unit"))
            })
            .collect()
    };
    let e2e: Vec<(String, String)> = END_TO_END
        .iter()
        .map(|&(n, u)| (n.to_string(), u.to_string()))
        .collect();
    assert_eq!(listed("end_to_end"), e2e);
    let layers: Vec<(String, String)> = per_layer()
        .into_iter()
        .map(|(n, u, _)| (n, u.to_string()))
        .collect();
    assert_eq!(listed("per_layer"), layers);
    let Some(Json::Array(workloads)) = doc.get("workloads") else {
        panic!("BENCHMARK.json has no workloads list");
    };
    let names: Vec<&str> = workloads
        .iter()
        .filter_map(|w| w.get("name").and_then(Json::as_str))
        .collect();
    assert_eq!(names, WORKLOADS);
}
