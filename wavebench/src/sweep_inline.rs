//! `sweep-inline`: the per-scenario work of a parameter sweep, on one
//! thread and without the sweep fabric. For each scenario of the
//! sweep-mixed suite (256 small scenarios, 48–128 ranks × 16 steps) it
//! runs what `run_sweep` runs for a scenario: the budget pre-flight
//! (`simcheck::budget`), the cache key (`config_fingerprint` and the
//! config's JSON) and the pooled summary simulation. The fixed costs are
//! about a fifth of a scenario's time here (≈ 30 µs next to ≈ 130 µs of
//! simulation); in `engine-paper` they vanish next to runs of a million
//! events.
//!
//! The fabric's worker threads, shards and disk are left out: with them,
//! `run_sweep`'s wall time swings too far between runs on a shared 2-vCPU
//! machine to carry a bound. A traced engine-paper run measures that
//! layer (`crate::sweep_mixed`), and a traced run of this workload probes
//! the service (`crate::serve_open`).

use std::time::Duration;

use idlewave::sweep::Scenario;
use mpisim::{
    config_fingerprint, fused_path_eligible, try_run_summary_pooled, Engine, EnginePools,
    RunLimits, RunSummary,
};
use tracefmt::{fnv1a_64, json};

use crate::gen;
use crate::now;
use crate::spans::Tracer;
use crate::stats::{median, RunTimes};
use crate::{pins, Outcome, Plan, SETUPS};

/// A suite scenario with the reference values every timed pass is
/// checked against.
struct Item {
    scenario: Scenario,
    events: u64,
    digest: u64,
    /// Trace fingerprint of the full-trace reference run.
    fingerprint: u64,
    /// The cache key: `config_fingerprint` of the config.
    key: u64,
    json_fnv: u64,
    events_predicted: u64,
}

/// Run times of one measured window, per scenario: the whole
/// per-scenario pipeline, and the simulation call alone.
struct Window {
    op: RunTimes,
    sim: RunTimes,
    passes: u64,
    failed: u64,
}

/// Run the workload.
///
/// # Errors
/// A scenario that does not run at all during set-up, or a failure of the
/// serve probe's set-up in a traced run.
pub fn run(plan: &Plan) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let cpu = crate::allowed_cpus().last().copied();
    let pin = crate::pin_for_measurement(cpu, "sweep-inline", &mut out);
    let mut setup_s = Vec::new();
    let mut items = Vec::new();
    let mut pools = EnginePools::new();
    for _ in 0..SETUPS {
        let t0 = now();
        let mut o = Outcome::default();
        pools = EnginePools::new();
        items = gen::sweep_suite(plan.seed, plan.scale)
            .into_iter()
            .map(|s| prepare(s, &mut pools, &mut o))
            .collect::<Result<_, _>>()?;
        setup_s.push(t0.elapsed().as_secs_f64());
        out.failures.append(&mut o.failures);
    }
    out.e2e("setup_s", median(&setup_s));
    let suite_fnv = fnv1a_64(
        items
            .iter()
            .map(|i| format!("{:016x}\n", i.fingerprint))
            .collect::<String>()
            .as_bytes(),
    );
    out.line(format!(
        "pin sweep-inline seed={} suite_fnv={suite_fnv:#018x}",
        plan.seed
    ));
    if let Some(want) = pins::pinned(plan.scale, "sweep-inline", plan.seed, "suite_fnv") {
        out.check(want == suite_fnv, || {
            format!("suite trace fingerprints FNV {suite_fnv:#018x} != pinned {want:#018x}")
        });
    }

    let origin = now();
    // A traced run gives a third of its window to each of: the suite
    // untraced, the suite traced, and the serve probe.
    let third = plan.seconds / 3;
    let untraced_secs = if plan.trace { third } else { plan.seconds };
    let base = measure(
        &items,
        &mut pools,
        untraced_secs,
        &mut Tracer::new(false, origin),
        &mut out,
    );
    let untraced_rate = scenarios_per_s(&base);
    let mut traced = Tracer::new(true, origin);
    let win = if plan.trace {
        measure(&items, &mut pools, third, &mut traced, &mut out)
    } else {
        base
    };

    let n = items.len() as u64;
    out.attempted += win.passes * n;
    out.failed += win.failed;
    let (_, fused, general, _) = win.sim.rates();
    let (_, _, _, pass_ms) = win.op.rates();
    out.e2e("throughput_per_s", scenarios_per_s(&win));
    out.e2e("sim_events_per_s.fused", fused);
    out.e2e("sim_events_per_s.general", general);
    out.e2e("op_ms", pass_ms);
    out.line(format!(
        "sweep-inline: {} passes over {n} scenarios; fastest pass {pass_ms:.4} ms, \
         of which simulation {:.4} ms",
        win.passes,
        win.sim.rates().3
    ));

    if plan.trace {
        out.layer(
            "trace.overhead_pct",
            100.0 * (untraced_rate - scenarios_per_s(&win)) / untraced_rate,
        );
        let us = |v: Vec<f64>| median(&v) / 1e3;
        out.layer("simcheck.budget_us", us(traced.self_ns("simcheck.budget")));
        out.layer(
            "mpisim.config_fingerprint_us",
            us(traced.self_ns("mpisim.config_fingerprint")),
        );
        out.layer(
            "tracefmt.config_json_us",
            us(traced.self_ns("tracefmt.config_json")),
        );
        out.layer("mpisim.small_run_us", us(traced.self_ns("mpisim.run")));
        let path = plan
            .work
            .join(format!("spans-sweep-inline-{}.jsonl", plan.seed));
        traced
            .write_jsonl(&path)
            .map_err(|e| format!("writing spans: {e}"))?;
        // The service places its own threads on both CPUs.
        drop(pin);
        crate::serve_open::traced_layers(plan, plan.seconds - 2 * third, &mut out)?;
    }
    Ok(out)
}

/// Scenarios per second through the whole pipeline, each scenario at its
/// fastest.
fn scenarios_per_s(w: &Window) -> f64 {
    let (_, _, _, pass_ms) = w.op.rates();
    w.op.len() as f64 * 1e3 / pass_ms
}

/// Full-trace reference run, budget check, and one untimed pooled run
/// that settles the pool on the scenario's shape.
fn prepare(scenario: Scenario, pools: &mut EnginePools, out: &mut Outcome) -> Result<Item, String> {
    let id = scenario.id.clone();
    let cfg = &scenario.config;
    let (trace, stats) = Engine::try_new(cfg.clone())
        .and_then(|e| e.try_run_with_stats(&RunLimits::none()))
        .map_err(|e| format!("{id}: reference run failed: {e}"))?;
    let budget = simcheck::budget::budget(cfg);
    if budget.events_exact {
        out.check(budget.events_predicted == stats.events, || {
            format!(
                "{id}: {} events, budget predicted exactly {}",
                stats.events, budget.events_predicted
            )
        });
    }
    let item = Item {
        events: stats.events,
        digest: RunSummary::of_trace(&trace).digest,
        fingerprint: trace.fingerprint(),
        key: config_fingerprint(cfg),
        json_fnv: fnv1a_64(json::to_string(cfg).as_bytes()),
        events_predicted: budget.events_predicted,
        scenario,
    };
    let mut t = Tracer::new(false, now());
    step(&item, 0, pools, &mut t, out);
    Ok(item)
}

/// One scenario through the pipeline, checked against its reference.
/// Returns the wall ms of the whole step and of the simulation call, or
/// `None` when a check failed.
fn step(
    item: &Item,
    id: u64,
    pools: &mut EnginePools,
    t: &mut Tracer,
    out: &mut Outcome,
) -> Option<(f64, f64)> {
    let cfg = &item.scenario.config;
    let start = now();
    let budget = t.span("simcheck.budget", id, |_| simcheck::budget::budget(cfg));
    let key = t.span("mpisim.config_fingerprint", id, |_| config_fingerprint(cfg));
    let text = t.span("tracefmt.config_json", id, |_| json::to_string(cfg));
    let sim_start = now();
    let got = t.span("mpisim.run", id, |_| {
        try_run_summary_pooled(cfg, &RunLimits::none(), pools)
    });
    let sim_ms = sim_start.elapsed().as_secs_f64() * 1e3;
    let op_ms = start.elapsed().as_secs_f64() * 1e3;
    let name = &item.scenario.id;
    let json_fnv = fnv1a_64(text.as_bytes());
    match got {
        Ok((summary, stats))
            if summary.digest == item.digest
                && stats.events == item.events
                && budget.events_predicted == item.events_predicted
                && json_fnv == item.json_fnv
                && key == item.key =>
        {
            Some((op_ms, sim_ms))
        }
        Ok((summary, stats)) => {
            out.fail(format!(
                "{name}: pooled run or cache key diverged from the reference \
                 (digest {:#x} vs {:#x}, events {} vs {}, budget events {} vs {}, \
                 config JSON FNV {json_fnv:#x} vs {:#x}, cache key {key:#x} vs {:#x})",
                summary.digest,
                item.digest,
                stats.events,
                item.events,
                budget.events_predicted,
                item.events_predicted,
                item.json_fnv,
                item.key
            ));
            None
        }
        Err(e) => {
            out.fail(format!("{name}: pooled run failed: {e}"));
            None
        }
    }
}

/// Passes over the suite until `secs` have elapsed.
fn measure(
    items: &[Item],
    pools: &mut EnginePools,
    secs: Duration,
    t: &mut Tracer,
    out: &mut Outcome,
) -> Window {
    let events: Vec<u64> = items.iter().map(|i| i.events).collect();
    let fused: Vec<bool> = items
        .iter()
        .map(|i| fused_path_eligible(&i.scenario.config))
        .collect();
    let mut w = Window {
        op: RunTimes::new(events.clone(), fused.clone()),
        sim: RunTimes::new(events, fused),
        passes: 0,
        failed: 0,
    };
    let end = now() + secs;
    while now() < end || w.passes == 0 {
        for (i, item) in items.iter().enumerate() {
            match step(item, i as u64, pools, t, out) {
                Some((op_ms, sim_ms)) => {
                    w.op.push(i, op_ms);
                    w.sim.push(i, sim_ms);
                }
                None => w.failed += 1,
            }
        }
        w.passes += 1;
    }
    w
}
