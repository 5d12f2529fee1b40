//! `engine-paper`: one thread runs the paper scenarios back to back in
//! pooled summary mode. Simulation is nearly all of the work, split about
//! evenly between the fused cascade and the event loop.

use std::time::Duration;

use mpisim::{
    fused_path_eligible, try_run_summary_pooled, Engine, EnginePools, RunLimits, RunSummary,
};

use crate::gen::{self, EngineCase};
use crate::now;
use crate::spans::Tracer;
use crate::stats::{fastest, median, Dist, RunTimes};
use crate::{pins, Outcome, Plan, SETUPS};

/// A scenario with its reference numbers, checked on every timed run.
struct Prepared {
    case: EngineCase,
    pools: EnginePools,
    events: u64,
    digest: u64,
    peak_queue: usize,
}

/// Run times of one measured window.
struct Window {
    times: RunTimes,
    runs: u64,
    failed: u64,
}

/// Run the workload.
///
/// # Errors
/// A scenario that does not build or run at all during set-up.
pub fn run(plan: &Plan) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    // One thread simulates; pinned, it never migrates between CPUs. In
    // four alternating pairs of 45 s runs, pinning cut the quartile
    // spread of the simulation rates from 0.055–0.070 to 0.023–0.024.
    let cpu = crate::allowed_cpus().last().copied();
    let pin = crate::pin_for_measurement(cpu, "engine", &mut out);
    let mut setup_s = Vec::new();
    let mut prepared = Vec::new();
    for _ in 0..SETUPS {
        let t0 = now();
        let mut o = Outcome::default();
        prepared = gen::engine_paper(plan.seed, plan.scale)
            .into_iter()
            .map(|case| prepare(case, plan, &mut o))
            .collect::<Result<_, _>>()?;
        setup_s.push(t0.elapsed().as_secs_f64());
        out.failures.append(&mut o.failures);
        out.lines = o.lines;
    }
    out.e2e("setup_s", median(&setup_s));

    let origin = now();
    // A traced run gives a third of its window to each of: the scenarios
    // untraced, the scenarios traced, and the sweep fabric traced.
    let third = plan.seconds / 3;
    let untraced_secs = if plan.trace { third } else { plan.seconds };
    let base = measure(
        &mut prepared,
        untraced_secs,
        &mut Tracer::new(false, origin),
        &mut out,
    );
    let untraced_rate = base.times.rates().0;
    let mut traced = Tracer::new(true, origin);
    let win = if plan.trace {
        measure(&mut prepared, third, &mut traced, &mut out)
    } else {
        base
    };

    out.attempted += win.runs;
    out.failed += win.failed;
    let (all, fused, general, pass_ms) = win.times.rates();
    out.e2e("throughput_per_s", all);
    out.e2e("sim_events_per_s.fused", fused);
    out.e2e("sim_events_per_s.general", general);
    out.e2e("op_ms", pass_ms);
    for (i, p) in prepared.iter().enumerate() {
        let ms = win.times.of(i);
        if let Some(d) = Dist::of(ms) {
            out.line(d.line(&format!("run_ms.{}", p.case.name), "ms"));
            out.line(format!(
                "run_ms.{} fastest = {:.4} ms ({} events)",
                p.case.name,
                fastest(ms),
                p.events
            ));
        }
    }

    if plan.trace {
        // Per-layer numbers come from the traced half; the untraced half
        // ran the same scenarios with tracing off.
        out.layer(
            "trace.overhead_pct",
            100.0 * (untraced_rate - all) / untraced_rate,
        );
        layers(&prepared, &traced, &mut out);
        let path = plan
            .work
            .join(format!("spans-engine-paper-{}.jsonl", plan.seed));
        traced
            .write_jsonl(&path)
            .map_err(|e| format!("writing spans: {e}"))?;
        // The sweep runs its two workers on every CPU, as a sweep does.
        drop(pin);
        crate::sweep_mixed::traced_layers(plan, plan.seconds - 2 * third, &mut out)?;
    }
    Ok(out)
}

/// Reference run, path and budget checks, and a budget-sized pool.
fn prepare(case: EngineCase, plan: &Plan, out: &mut Outcome) -> Result<Prepared, String> {
    let name = case.name;
    out.check(fused_path_eligible(&case.cfg) == case.fused, || {
        format!("{name}: fused-path eligibility is not {}", case.fused)
    });
    let (trace, stats) = Engine::try_new(case.cfg.clone())
        .and_then(|e| e.try_run_with_stats(&RunLimits::none()))
        .map_err(|e| format!("{name}: reference run failed: {e}"))?;
    let fingerprint = trace.fingerprint();
    out.line(format!(
        "pin engine-paper seed={} {name}={fingerprint:#018x}",
        plan.seed
    ));
    if let Some(want) = pins::pinned(plan.scale, "engine-paper", plan.seed, name) {
        out.check(want == fingerprint, || {
            format!("{name}: trace fingerprint {fingerprint:#018x} != pinned {want:#018x}")
        });
    }
    let budget = simcheck::budget::budget(&case.cfg);
    if budget.events_exact {
        out.check(budget.events_predicted == stats.events, || {
            format!(
                "{name}: {} events, budget predicted exactly {}",
                stats.events, budget.events_predicted
            )
        });
    }
    let mut p = Prepared {
        pools: EnginePools::with_budget(&budget.pool),
        events: stats.events,
        digest: RunSummary::of_trace(&trace).digest,
        peak_queue: stats.peak_queue,
        case,
    };
    // One untimed pooled run settles the pool and proves the summary path
    // simulates exactly what the full trace recorded.
    timed_run(&mut p, 0, &mut Tracer::new(false, now()), out);
    Ok(p)
}

/// One pooled summary run, checked against the reference. Returns the
/// wall milliseconds of the run call, or `None` when it failed a check.
fn timed_run(p: &mut Prepared, id: u64, t: &mut Tracer, out: &mut Outcome) -> Option<f64> {
    if t.on() {
        // Construction alone, timed from outside: build from the pool and
        // hand the buffers straight back.
        t.span("mpisim.construct", id, |_| {
            if let Ok(e) = Engine::try_new_pooled(p.case.cfg.clone(), &mut p.pools) {
                e.recycle(&mut p.pools);
            }
        });
    }
    let start = now();
    let got = t.span("mpisim.run", id, |_| {
        try_run_summary_pooled(&p.case.cfg, &RunLimits::none(), &mut p.pools)
    });
    let ms = start.elapsed().as_secs_f64() * 1e3;
    let name = p.case.name;
    match got {
        Ok((summary, stats))
            if summary.digest == p.digest
                && stats.events == p.events
                && stats.peak_queue == p.peak_queue =>
        {
            Some(ms)
        }
        Ok((summary, stats)) => {
            out.fail(format!(
                "{name}: pooled summary run diverged from the full-trace reference \
                 (digest {:#x} vs {:#x}, events {} vs {}, peak queue {} vs {})",
                summary.digest, p.digest, stats.events, p.events, stats.peak_queue, p.peak_queue
            ));
            None
        }
        Err(e) => {
            out.fail(format!("{name}: pooled run failed: {e}"));
            None
        }
    }
}

/// Run passes over every scenario until `secs` have elapsed.
fn measure(prepared: &mut [Prepared], secs: Duration, t: &mut Tracer, out: &mut Outcome) -> Window {
    let mut w = Window {
        times: RunTimes::new(
            prepared.iter().map(|p| p.events).collect(),
            prepared.iter().map(|p| p.case.fused).collect(),
        ),
        runs: 0,
        failed: 0,
    };
    let end = now() + secs;
    while now() < end || w.runs == 0 {
        for (i, p) in prepared.iter_mut().enumerate() {
            w.runs += 1;
            match timed_run(p, i as u64, t, out) {
                Some(ms) => w.times.push(i, ms),
                None => w.failed += 1,
            }
        }
    }
    w
}

/// Per-layer metrics from the traced window.
fn layers(prepared: &[Prepared], t: &Tracer, out: &mut Outcome) {
    let us = |v: Vec<f64>| median(&v) / 1e3;
    out.layer("mpisim.construct_us", us(t.self_ns("mpisim.construct")));
    let (mut fused, mut all) = (0u64, 0u64);
    for (i, p) in prepared.iter().enumerate() {
        let name = p.case.name;
        let run_ns: Vec<f64> = t
            .spans()
            .iter()
            .filter(|s| s.name == "mpisim.run" && s.id == i as u64)
            .map(|s| s.self_ns() as f64)
            .collect();
        out.layer(
            &format!("mpisim.run_ns_per_event.{name}"),
            fastest(&run_ns) / p.events as f64,
        );
        out.layer(&format!("mpisim.events.{name}"), p.events as f64);
        out.layer(&format!("mpisim.peak_queue.{name}"), p.peak_queue as f64);
        all += p.events;
        if p.case.fused {
            fused += p.events;
        }
    }
    out.layer("mpisim.fused_event_share", fused as f64 / all as f64);
}
