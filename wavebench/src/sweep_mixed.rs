//! The sweep-fabric probe of a traced `engine-paper` run: `run_sweep`
//! with 2 workers and 2 shards over the sweep-mixed suite of a few hundred
//! small scenarios, with the result cache reset before each call to hold
//! exactly half of the suite. Per-scenario fixed costs of the fabric
//! dominate; simulation is small. Every call is paired with a standalone
//! pooled pass over the same configs, which gives the fabric overhead.
//!
//! `sweep-mixed` is not a workload of its own: its wall time swings too
//! far between runs on a shared 2-vCPU machine to carry a bound.

use std::path::{Path, PathBuf};
use std::time::Duration;

use idlewave::sweep::{run_sweep, Scenario, SweepOptions, SweepReport};
use mpisim::{
    config_fingerprint, fused_path_eligible, try_run_summary_pooled, EnginePools, RunLimits,
};
use tracefmt::{fnv1a_64, json};

use crate::gen;
use crate::now;
use crate::spans::Tracer;
use crate::stats::{median, RunTimes};
use crate::{pins, Outcome, Plan};

struct Suite {
    scenarios: Vec<Scenario>,
    /// Reference events per scenario, from the cold reference sweep.
    events: Vec<u64>,
    fused: Vec<bool>,
    /// Cache entries of the half the reset removes (odd indices).
    miss_entries: Vec<PathBuf>,
    opts: SweepOptions,
    out_path: PathBuf,
    cache: PathBuf,
    fnv: u64,
    pools: EnginePools,
}

#[derive(Default)]
struct Window {
    sweep_ms: Vec<f64>,
    /// Standalone run times of every suite scenario.
    times: RunTimes,
    /// Standalone pooled time of the whole suite, per call (ms).
    standalone_ms: Vec<f64>,
    last: Option<SweepReport>,
    attempted: u64,
    failed: u64,
}

/// The sweep fabric's per-layer metrics, from `secs` of traced calls over
/// the sweep-mixed suite.
///
/// # Errors
/// The reference or pre-warm sweep could not run.
pub fn traced_layers(plan: &Plan, secs: Duration, out: &mut Outcome) -> Result<(), String> {
    let mut suite = prepare(plan, out)?;
    let mut traced = Tracer::new(true, now());
    let win = measure(&mut suite, secs, &mut traced, out);
    out.attempted += win.attempted;
    out.failed += win.failed;
    layers(plan, &suite, &win, &mut traced, out)
}

/// Per-layer metrics of a traced window, plus an all-hit and an all-miss
/// call; writes the spans out.
fn layers(
    plan: &Plan,
    suite: &Suite,
    win: &Window,
    traced: &mut Tracer,
    out: &mut Outcome,
) -> Result<(), String> {
    let n = suite.scenarios.len() as f64;
    let us = |v: Vec<f64>| median(&v) / 1e3;
    let wall: Vec<f64> = win.sweep_ms.iter().map(|ms| ms * 1e3 / n).collect();
    let overhead: Vec<f64> = win
        .sweep_ms
        .iter()
        .zip(&win.standalone_ms)
        .map(|(w, s)| (w - s) * 1e3 / n)
        .collect();
    out.layer("sweep.per_scenario_us", median(&wall));
    out.layer("sweep.overhead_us", median(&overhead));
    out.layer("simcheck.budget_us", us(traced.self_ns("simcheck.budget")));
    out.layer(
        "mpisim.config_fingerprint_us",
        us(traced.self_ns("mpisim.config_fingerprint")),
    );
    out.layer(
        "tracefmt.config_json_us",
        us(traced.self_ns("tracefmt.config_json")),
    );
    if let Some(r) = &win.last {
        out.layer("sweep.cache_hits", r.cache_hits as f64);
        out.layer("sweep.cache_misses", r.cache_misses as f64);
        out.layer("sweep.cache_quarantined", r.cache_quarantined as f64);
        out.layer("sweep.retired_workers", r.retired_workers as f64);
        out.layer("sweep.hit_ratio", r.cache_hits as f64 / n);
    }
    // All-hit and all-miss calls: the cache holds the whole suite after a
    // call, and holds nothing once its directory is removed.
    let all = suite.scenarios.len();
    let hit = traced.span("sweep.all_hit", 0, |_| sweep_call(suite, all, 0, out));
    let _ = std::fs::remove_dir_all(&suite.cache);
    let miss = traced.span("sweep.all_miss", 0, |_| sweep_call(suite, 0, all, out));
    out.layer("sweep.hit_us", hit.as_secs_f64() * 1e6 / n);
    out.layer("sweep.miss_us", miss.as_secs_f64() * 1e6 / n);
    let path = plan
        .work
        .join(format!("spans-sweep-mixed-{}.jsonl", plan.seed));
    traced
        .write_jsonl(&path)
        .map_err(|e| format!("writing spans: {e}"))
}

fn read_fnv(path: &Path) -> Result<u64, String> {
    std::fs::read(path)
        .map(|b| fnv1a_64(&b))
        .map_err(|e| format!("reading {}: {e}", path.display()))
}

/// Cold reference sweep, pinned digest, pre-warmed half cache, warm pool.
fn prepare(plan: &Plan, out: &mut Outcome) -> Result<Suite, String> {
    let scenarios = gen::sweep_suite(plan.seed, plan.scale);
    let dir = plan.work.join("sweep");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let out_path = dir.join("merged.jsonl");
    let cache = dir.join("cache");
    let opts = SweepOptions {
        threads: 2,
        shards: Some(2),
        cache_dir: Some(cache.clone()),
        ..SweepOptions::default()
    };

    // The reference: every scenario simulated, no cache involved.
    let cold = SweepOptions {
        cache_dir: None,
        ..opts.clone()
    };
    let reference = run_sweep(&scenarios, &cold, &out_path)
        .map_err(|e| format!("reference sweep failed: {e}"))?;
    if !reference.all_ok() {
        return Err(format!(
            "reference sweep: {} scenarios did not complete",
            reference.failures()
        ));
    }
    let fnv = read_fnv(&out_path)?;
    out.line(format!(
        "pin sweep-mixed seed={} report_fnv={fnv:#018x}",
        plan.seed
    ));
    if let Some(want) = pins::pinned(plan.scale, "sweep-mixed", plan.seed, "report_fnv") {
        out.check(want == fnv, || {
            format!("merged report FNV {fnv:#018x} != pinned {want:#018x}")
        });
    }
    let events = reference
        .results
        .iter()
        .map(|r| r.summary.map_or(0, |s| s.events))
        .collect();

    // Pre-warm the even half.
    let half: Vec<Scenario> = scenarios.iter().step_by(2).cloned().collect();
    let warm = run_sweep(&half, &opts, &dir.join("prewarm.jsonl"))
        .map_err(|e| format!("pre-warm sweep failed: {e}"))?;
    out.check(warm.all_ok() && warm.cache_misses == half.len(), || {
        format!("pre-warm sweep: {warm:?}")
    });
    let miss_entries = scenarios
        .iter()
        .skip(1)
        .step_by(2)
        .map(|s| cache.join(format!("{:016x}.entry", config_fingerprint(&s.config))))
        .collect();
    let fused = scenarios
        .iter()
        .map(|s| fused_path_eligible(&s.config))
        .collect();
    let mut suite = Suite {
        scenarios,
        events,
        fused,
        miss_entries,
        opts,
        out_path,
        cache,
        fnv,
        pools: EnginePools::new(),
    };
    // Settle the standalone pool on every shape once.
    let mut warmup = RunTimes::new(suite.events.clone(), suite.fused.clone());
    standalone(&mut suite, &mut warmup, &mut Tracer::new(false, now()), out);
    Ok(suite)
}

/// One timed `run_sweep` call over the whole suite, checked against the
/// reference and the expected cache split.
fn sweep_call(suite: &Suite, hits: usize, misses: usize, out: &mut Outcome) -> Duration {
    let start = now();
    let got = run_sweep(&suite.scenarios, &suite.opts, &suite.out_path);
    let dt = start.elapsed();
    match got {
        Ok(r) => {
            let fnv = read_fnv(&suite.out_path).unwrap_or(0);
            out.check(
                r.all_ok()
                    && fnv == suite.fnv
                    && r.cache_hits == hits
                    && r.cache_misses == misses
                    && r.cache_quarantined == 0
                    && r.retired_workers == 0,
                || {
                    format!(
                        "sweep call: ok={} fnv={fnv:#x} (want {:#x}) hits={} (want {hits}) \
                         misses={} (want {misses}) quarantined={} retired={}",
                        r.all_ok(),
                        suite.fnv,
                        r.cache_hits,
                        r.cache_misses,
                        r.cache_quarantined,
                        r.retired_workers
                    )
                },
            );
        }
        Err(e) => out.fail(format!("sweep call failed: {e}")),
    }
    dt
}

/// Pooled summary runs of every suite config on this thread: the
/// simulation the sweep wraps, without the fabric. Records each run in
/// `times` and returns the pass's total in ms.
fn standalone(suite: &mut Suite, times: &mut RunTimes, t: &mut Tracer, out: &mut Outcome) -> f64 {
    let mut total = 0.0;
    for (i, s) in suite.scenarios.iter().enumerate() {
        let id = i as u64;
        if t.on() {
            t.span("simcheck.budget", id, |_| {
                simcheck::budget::budget(&s.config)
            });
            t.span("mpisim.config_fingerprint", id, |_| {
                config_fingerprint(&s.config)
            });
            t.span("tracefmt.config_json", id, |_| json::to_string(&s.config));
        }
        let start = now();
        let got = t.span("mpisim.run", id, |_| {
            try_run_summary_pooled(&s.config, &RunLimits::none(), &mut suite.pools)
        });
        let ms = start.elapsed().as_secs_f64() * 1e3;
        let ev = suite.events[i];
        match got {
            Ok((_, stats)) => out.check(stats.events == ev, || {
                format!(
                    "{}: standalone run {} events, sweep {ev}",
                    s.id, stats.events
                )
            }),
            Err(e) => out.fail(format!("{}: standalone run failed: {e}", s.id)),
        }
        times.push(i, ms);
        total += ms;
    }
    total
}

fn measure(suite: &mut Suite, secs: Duration, t: &mut Tracer, out: &mut Outcome) -> Window {
    let n = suite.scenarios.len();
    let mut w = Window {
        times: RunTimes::new(suite.events.clone(), suite.fused.clone()),
        ..Window::default()
    };
    let end = now() + secs;
    let mut call = 0u64;
    while now() < end || w.sweep_ms.is_empty() {
        for p in &suite.miss_entries {
            let _ = std::fs::remove_file(p);
        }
        let failures_before = out.failures.len();
        let dt = t.span("sweep.run_sweep", call, |_| {
            sweep_call(suite, n.div_ceil(2), n / 2, out)
        });
        w.attempted += n as u64;
        if out.failures.len() > failures_before {
            w.failed += n as u64;
        }
        w.sweep_ms.push(dt.as_secs_f64() * 1e3);
        let pass_ms = standalone(suite, &mut w.times, t, out);
        w.standalone_ms.push(pass_ms);
        call += 1;
    }
    // The counters of the last call, for the per-layer counts.
    for p in &suite.miss_entries {
        let _ = std::fs::remove_file(p);
    }
    w.last = run_sweep(&suite.scenarios, &suite.opts, &suite.out_path).ok();
    w
}
