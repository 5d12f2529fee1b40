//! Static cost/budget analysis (SC018–SC024): predict a run's event
//! count, queue occupancy, memory footprint, simulated time, wave extent,
//! and wall time from the [`SimConfig`] alone — before anything runs.
//!
//! The paper's thesis is that wave behaviour is analytically predictable
//! from config parameters (Eq. 2); this module extends that closure from
//! wave *speed* to run *cost*. The event count follows exactly from the
//! engine's dispatch rules for the compute model:
//!
//! * one `ExecEnd` per rank-step (injections, noise, stalls and
//!   recovering crashes lengthen phases but add no events);
//! * one `EagerArrive` per eager message, or three events per rendezvous
//!   message (`RtsArrive`, `CtsArrive`, `XferDone`);
//! * messages per step are the static graph's edge count — the regular
//!   pattern's `total_messages`, or the scheduled round's `edges()`.
//!
//! So for compute-bound configs without active message faults, fail-stop
//! crashes, or a finite eager buffer, the prediction is **exact**
//! ([`BudgetReport::events_exact`]), and the workspace drift tests hold it
//! to the actual [`mpisim::RunStats`] on every golden-figure scenario.
//! Memory-bound configs add socket-bandwidth rescheduling events whose
//! count depends on arrival interleaving; those are estimated and flagged
//! inexact.
//!
//! The report feeds three consumers: [`mpisim::EnginePools::with_budget`]
//! pre-sizes every pooled buffer (eliminating warmup runs), the sweep
//! runner gates scenarios against an event budget and derives per-scenario
//! watchdogs from the predicted sim time, and `wavesim analyze` prints
//! the report as single-line JSON for CI golden diffs.

use mpisim::{
    config_fingerprint, fused_path_eligible, nominal_exec_duration, nominal_step_duration,
    Diagnostic, Mode, PoolBudget, SimConfig,
};
use simdes::{SimDuration, SimTime};
use tracefmt::json::{Json, ToJson};
use tracefmt::PhaseRecord;
use workload::{Boundary, Direction};

use crate::checks::effective_mode;

/// Eq. 2 wave-extent prediction for the largest injected delay: how far
/// and how fast the idle wave travels, and whether it crosses every rank
/// before the run ends. `None` when the config has no injections or uses
/// an explicit schedule (σ/d/boundary semantics are undefined there).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WavePrediction {
    /// Propagation factor: 2 for bidirectional rendezvous, else 1.
    pub sigma: u32,
    /// Pattern neighbour distance d.
    pub distance: u32,
    /// Rank of the injection the prediction is for.
    pub source_rank: u32,
    /// Step of that injection.
    pub source_step: u32,
    /// Hops from the source to the last rank the front must reach: the
    /// far chain end (open boundary) or the antipode (periodic).
    pub hops: u64,
    /// Step index by which the front has crossed every rank.
    pub exit_step: u64,
    /// Whether the run is long enough for the front to reach every rank
    /// (`exit_step <= steps - 1`).
    pub covers_run: bool,
}

/// The budget analyzer's schema'd output: every statically predicted cost
/// of running one [`SimConfig`]. Serialize with [`ToJson`]; the JSON
/// schema (`budget-report-v1`) is documented in `docs/ANALYZER.md`.
#[derive(Debug, Clone, PartialEq)]
pub struct BudgetReport {
    /// [`mpisim::config_fingerprint`] of the analyzed config.
    pub fingerprint: u64,
    /// Ranks in the job.
    pub ranks: u32,
    /// Bulk-synchronous steps.
    pub steps: u32,
    /// The message mode every send actually uses (protocol size decision
    /// plus the guaranteed small-buffer rendezvous downgrade).
    pub mode: Mode,
    /// Total messages across the whole run (static graph edges summed
    /// over steps).
    pub messages_total: u64,
    /// Predicted total delivered events.
    pub events_predicted: u64,
    /// Whether `events_predicted` is exact (compute model, no active
    /// message faults, no fail-stop crash, no finite eager buffer that
    /// could dynamically overflow) or an estimate.
    pub events_exact: bool,
    /// Of `events_predicted`, how many the calendar queue actually
    /// delivers. Zero when the plain run takes the fused fast path (the
    /// step-major sweep never touches the calendar, and every event is
    /// counted as elided); equal to `events_predicted` otherwise.
    /// Budgeted, checkpointed, and restored runs always deliver the full
    /// count regardless.
    pub events_delivered_predicted: u64,
    /// Whether [`mpisim::fused_path_eligible`] holds, i.e. a plain
    /// un-budgeted run of this config skips the event loop entirely.
    pub fused: bool,
    /// Predicted peak event-queue occupancy (a safe upper estimate, used
    /// to pre-size the calendar queue).
    pub peak_queue_predicted: u64,
    /// The buffer shape handed to [`mpisim::EnginePools::with_budget`].
    pub pool: PoolBudget,
    /// Estimated peak resident bytes of the pooled engine buffers.
    pub pool_bytes_predicted: u64,
    /// Bytes of a retained full trace (`ranks × steps` phase records).
    pub trace_bytes_predicted: u64,
    /// Bytes of the streaming summary fold (O(ranks)).
    pub summary_bytes_predicted: u64,
    /// Predicted simulated time for the whole run: nominal steps plus
    /// every injected delay, rank-fault delay, and mean noise.
    pub sim_time_predicted: SimDuration,
    /// Eq. 2 wave extent for the largest injection, when defined.
    pub wave: Option<WavePrediction>,
    /// Calibration used for the wall-time estimate, if any (events per
    /// wall-clock second, from a committed `BENCH_*.json`).
    pub events_per_sec: Option<f64>,
    /// Predicted wall-clock seconds (`events_predicted / events_per_sec`).
    pub wall_time_predicted_secs: Option<f64>,
}

/// Caller-supplied ceilings that [`budget_checks`] gates a report
/// against. All optional; `None` disables that gate.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Budgets {
    /// Maximum predicted events per scenario (the sweep `--budget` flag).
    pub max_events: Option<u64>,
    /// Maximum predicted resident bytes (pools plus retained trace).
    pub max_bytes: Option<u64>,
    /// The deterministic sim-time watchdog budget the run will get.
    pub watchdog: Option<SimTime>,
    /// Wall-clock ceiling in seconds (needs a calibrated report).
    pub wall_timeout_secs: Option<f64>,
}

/// Analyze `cfg` and predict its run costs. No calibration: the report's
/// wall-time fields stay `None`. See [`budget_calibrated`].
pub fn budget(cfg: &SimConfig) -> BudgetReport {
    predict(cfg, None)
}

/// [`budget`] with a throughput calibration (events per wall-clock
/// second, e.g. from a committed `BENCH_*.json`), filling in the
/// wall-time prediction.
pub fn budget_calibrated(cfg: &SimConfig, events_per_sec: f64) -> BudgetReport {
    predict(cfg, Some(events_per_sec))
}

fn predict(cfg: &SimConfig, events_per_sec: Option<f64>) -> BudgetReport {
    let n = u64::from(cfg.ranks());
    let steps = u64::from(cfg.steps);
    let mode = effective_mode(cfg);

    // Messages: static graph edges, summed over every step. A cyclic
    // schedule repeats its rounds; the pattern is step-invariant.
    let (messages_total, max_step_messages, requests_per_rank) = match &cfg.schedule {
        Some(sched) => {
            let rounds = sched.rounds_per_cycle();
            let per_round: Vec<u64> = (0..rounds)
                .map(|r| sched.graph_for(r).edges() as u64)
                .collect();
            let total: u64 = (0..cfg.steps)
                .map(|s| per_round[(s % rounds) as usize])
                .sum();
            let reqs = (0..rounds)
                .flat_map(|round| {
                    let g = sched.graph_for(round);
                    (0..g.ranks()).map(move |r| g.send_partners(r).len() + g.recv_partners(r).len())
                })
                .max()
                .unwrap_or(0);
            (total, per_round.iter().copied().max().unwrap_or(0), reqs)
        }
        None => {
            let per_step = cfg.pattern.total_messages(cfg.ranks()) as u64;
            let reqs = (0..cfg.ranks())
                .map(|r| {
                    cfg.pattern.send_partners(r, cfg.ranks()).len()
                        + cfg.pattern.recv_partners(r, cfg.ranks()).len()
                })
                .max()
                .unwrap_or(0);
            (per_step * steps, per_step, reqs)
        }
    };

    let events_per_message: u64 = match mode {
        Mode::Eager => 1,
        Mode::Rendezvous => 3,
    };

    // Memory-bound socket-bandwidth bookkeeping: every rank joining or
    // leaving its socket's work set reschedules all current members, and
    // every scheduled completion is eventually popped (stale epochs are
    // discarded on delivery but still count as delivered events). Per
    // socket of k ranks per step that is ~k² WorkEnd events plus one
    // WorkStart per rank — an interleaving-dependent estimate.
    let (mb_events, mb_queue_allowance) = if cfg.exec.is_memory_bound() {
        let sockets = cfg.network.machine.total_sockets();
        let mut counts = vec![0u64; sockets as usize];
        for r in 0..cfg.ranks() {
            counts[cfg.network.socket_of(r) as usize] += 1;
        }
        let k2: u64 = counts.iter().map(|&k| k * k).sum();
        (n * steps + k2 * steps, k2)
    } else {
        (0, 0)
    };

    let events_predicted = n * steps + messages_total * events_per_message + mb_events;
    // Fused runs sweep the recurrence directly: nothing passes through the
    // calendar queue, so the queue delivers zero events (the semantic
    // count above still holds — the engine reports delivered + elided).
    let fused = fused_path_eligible(cfg);
    let events_delivered_predicted = if fused { 0 } else { events_predicted };
    let events_exact = !cfg.exec.is_memory_bound()
        && !cfg.faults.messages.is_some_and(|m| m.is_active())
        && !cfg
            .faults
            .rank_faults
            .iter()
            .any(|f| matches!(f.kind, mpisim::RankFaultKind::Crash { outage: None }))
        && !(mode == Mode::Eager && cfg.eager_buffer_bytes.is_some());

    // Peak queue: every rank holds at most one phase event, plus the
    // in-flight message events of roughly two steps of skewed ranks, plus
    // the memory-bound stale-completion allowance.
    let peak_queue_predicted = n + 2 * max_step_messages * events_per_message + mb_queue_allowance;

    let trace_records = (n * steps) as usize;
    let pool = PoolBudget {
        ranks: cfg.ranks(),
        steps: cfg.steps,
        peak_queue: peak_queue_predicted as usize,
        requests_per_rank,
        trace_records,
    };
    let trace_bytes_predicted = (trace_records * std::mem::size_of::<PhaseRecord>()) as u64;
    // The summary fold keeps one finish time per rank plus fixed counters.
    let summary_bytes_predicted = n * std::mem::size_of::<SimTime>() as u64 + 64;

    // Simulated time: nominal steps, plus every delay source's expected
    // contribution. Same building blocks as the sweep watchdog, but as a
    // central estimate (means, not worst cases).
    let mut sim_time = nominal_step_duration(cfg).times(steps.max(1));
    sim_time += cfg
        .injections
        .injections()
        .iter()
        .map(|i| i.duration)
        .sum::<SimDuration>();
    sim_time += cfg.faults.total_rank_fault_delay();
    sim_time += cfg.noise.mean().times(steps);

    let wave = wave_prediction(cfg);

    let wall_time_predicted_secs = events_per_sec
        .filter(|eps| *eps > 0.0)
        .map(|eps| events_predicted as f64 / eps);

    BudgetReport {
        fingerprint: config_fingerprint(cfg),
        ranks: cfg.ranks(),
        steps: cfg.steps,
        mode,
        messages_total,
        events_predicted,
        events_exact,
        events_delivered_predicted,
        fused,
        peak_queue_predicted,
        pool,
        pool_bytes_predicted: pool.bytes(),
        trace_bytes_predicted,
        summary_bytes_predicted,
        sim_time_predicted: sim_time,
        wave,
        events_per_sec,
        wall_time_predicted_secs,
    }
}

/// Eq. 2 extent of the wave launched by the *largest* injected delay.
fn wave_prediction(cfg: &SimConfig) -> Option<WavePrediction> {
    if cfg.schedule.is_some() {
        return None;
    }
    let inj = cfg
        .injections
        .injections()
        .iter()
        .max_by_key(|i| (i.duration, std::cmp::Reverse((i.rank, i.step))))?;
    let sigma: u64 = if cfg.pattern.direction == Direction::Bidirectional
        && effective_mode(cfg) == Mode::Rendezvous
    {
        2
    } else {
        1
    };
    let d = u64::from(cfg.pattern.distance).max(1);
    let n = u64::from(cfg.ranks());
    // saturating: tolerate invalid configs (rank >= n) — budget() also
    // runs pre-flight on scenarios the analyzer will reject.
    let hops = match cfg.pattern.boundary {
        Boundary::Open => {
            u64::from(inj.rank).max(n.saturating_sub(1).saturating_sub(u64::from(inj.rank)))
        }
        Boundary::Periodic => n / 2,
    };
    let exit_step = u64::from(inj.step) + hops.div_ceil(sigma * d);
    Some(WavePrediction {
        sigma: sigma as u32,
        distance: d as u32,
        source_rank: inj.rank,
        source_step: inj.step,
        hops,
        exit_step,
        covers_run: exit_step < u64::from(cfg.steps),
    })
}

/// Gate a report against caller budgets and the config's own fault plan:
/// SC018 (event budget exceeded), SC019 (sim-time watchdog infeasible —
/// the predicted runtime alone outlasts it, refining SC017's
/// cadence-only view), SC021 (degradation window opens after the
/// predicted end and can never act), SC022 (the run is too short for the
/// predicted wave to reach every rank), SC023 (memory budget exceeded),
/// SC024 (predicted wall time past the wall-clock timeout).
pub fn budget_checks(cfg: &SimConfig, report: &BudgetReport, budgets: &Budgets) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    if let Some(max) = budgets.max_events {
        if report.events_predicted > max {
            out.push(Diagnostic::warning(
                "SC018",
                "events_predicted",
                report.events_predicted,
                format!(
                    "predicted event count exceeds the {max}-event budget: \
                     the scenario is over budget before it runs{}",
                    if report.events_exact {
                        ""
                    } else {
                        " (estimate; memory-bound or faulty configs drift)"
                    }
                ),
            ));
        }
    }
    if let Some(watchdog) = budgets.watchdog {
        if report.sim_time_predicted.nanos() > watchdog.0 {
            out.push(Diagnostic::warning(
                "SC019",
                "sim_time_predicted",
                report.sim_time_predicted,
                format!(
                    "predicted simulated time already exceeds the sim-time \
                     watchdog budget (t = {watchdog}): the watchdog aborts a \
                     healthy run — raise the factor or shorten the scenario"
                ),
            ));
        }
    }
    let predicted_end = SimTime(report.sim_time_predicted.nanos());
    let nominal_first_exec = nominal_exec_duration(cfg);
    for (i, deg) in cfg.faults.degradations.iter().enumerate() {
        // SC016 already covers windows that close before communication
        // starts; SC021 is the mirror image at the far end.
        if deg.until.0 <= nominal_first_exec.nanos() {
            continue;
        }
        if deg.from >= predicted_end {
            out.push(Diagnostic::note(
                "SC021",
                format!("faults.degradations[{i}]"),
                format!("from {}", deg.from),
                format!(
                    "degradation window opens at t = {} but the run is \
                     predicted to end by t = {predicted_end}: the window can \
                     never affect a transfer",
                    deg.from
                ),
            ));
        }
    }
    if let Some(w) = &report.wave {
        if !w.covers_run {
            out.push(Diagnostic::warning(
                "SC022",
                "steps",
                report.steps,
                format!(
                    "Eq. 2 predicts the idle wave from rank {} (step {}) \
                     needs until step {} to cross all {} hops (σ = {}, \
                     d = {}), but the run ends at step {}: the outermost \
                     ranks never observe the wave",
                    w.source_rank,
                    w.source_step,
                    w.exit_step,
                    w.hops,
                    w.sigma,
                    w.distance,
                    report.steps
                ),
            ));
        }
    }
    if let Some(max) = budgets.max_bytes {
        let bytes = report.pool_bytes_predicted + report.trace_bytes_predicted;
        if bytes > max {
            out.push(Diagnostic::warning(
                "SC023",
                "pool_bytes_predicted",
                bytes,
                format!(
                    "predicted peak memory ({bytes} B pooled buffers plus \
                     retained trace) exceeds the {max}-byte budget"
                ),
            ));
        }
    }
    if let (Some(limit), Some(wall)) = (budgets.wall_timeout_secs, report.wall_time_predicted_secs)
    {
        if wall > limit {
            out.push(Diagnostic::note(
                "SC024",
                "wall_time_predicted_secs",
                format!("{wall:.3}"),
                format!(
                    "calibrated wall-time prediction ({wall:.3} s at \
                     {:.0} events/s) exceeds the {limit:.3} s wall-clock \
                     timeout: expect the supervisor to abandon the attempt",
                    report.events_per_sec.unwrap_or(0.0)
                ),
            ));
        }
    }
    out
}

/// SC020 across a sweep suite: scenarios whose configs hash to the same
/// [`mpisim::config_fingerprint`] are byte-identical runs — duplicated
/// simulation budget. `ids` and `fingerprints` are parallel slices.
pub fn duplicate_fingerprint_checks(ids: &[&str], fingerprints: &[u64]) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let mut seen: Vec<(u64, usize)> = Vec::new();
    for (i, &fp) in fingerprints.iter().enumerate() {
        match seen.iter().find(|&&(f, _)| f == fp) {
            Some(&(_, first)) => out.push(Diagnostic::warning(
                "SC020",
                format!("scenarios[{i}]"),
                ids.get(i).copied().unwrap_or("?"),
                format!(
                    "config fingerprint {fp:016x} duplicates scenario '{}': \
                     identical configs produce bit-identical results — the \
                     second run spends budget to learn nothing",
                    ids.get(first).copied().unwrap_or("?")
                ),
            )),
            None => seen.push((fp, i)),
        }
    }
    out
}

impl ToJson for WavePrediction {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("sigma", Json::UInt(u64::from(self.sigma))),
            ("distance", Json::UInt(u64::from(self.distance))),
            ("source_rank", Json::UInt(u64::from(self.source_rank))),
            ("source_step", Json::UInt(u64::from(self.source_step))),
            ("hops", Json::UInt(self.hops)),
            ("exit_step", Json::UInt(self.exit_step)),
            ("covers_run", Json::Bool(self.covers_run)),
        ])
    }
}

impl ToJson for BudgetReport {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("schema", Json::Str("budget-report-v1".into())),
            (
                "fingerprint",
                Json::Str(format!("{:016x}", self.fingerprint)),
            ),
            ("ranks", Json::UInt(u64::from(self.ranks))),
            ("steps", Json::UInt(u64::from(self.steps))),
            (
                "mode",
                Json::Str(
                    match self.mode {
                        Mode::Eager => "eager",
                        Mode::Rendezvous => "rendezvous",
                    }
                    .into(),
                ),
            ),
            ("messages_total", Json::UInt(self.messages_total)),
            ("events_predicted", Json::UInt(self.events_predicted)),
            ("events_exact", Json::Bool(self.events_exact)),
            (
                "events_delivered_predicted",
                Json::UInt(self.events_delivered_predicted),
            ),
            ("fused", Json::Bool(self.fused)),
            (
                "peak_queue_predicted",
                Json::UInt(self.peak_queue_predicted),
            ),
            (
                "requests_per_rank",
                Json::UInt(self.pool.requests_per_rank as u64),
            ),
            (
                "pool_bytes_predicted",
                Json::UInt(self.pool_bytes_predicted),
            ),
            (
                "trace_bytes_predicted",
                Json::UInt(self.trace_bytes_predicted),
            ),
            (
                "summary_bytes_predicted",
                Json::UInt(self.summary_bytes_predicted),
            ),
            (
                "sim_time_predicted_ns",
                Json::UInt(self.sim_time_predicted.nanos()),
            ),
            (
                "wave",
                match &self.wave {
                    Some(w) => w.to_json(),
                    None => Json::Null,
                },
            ),
            (
                "events_per_sec",
                match self.events_per_sec {
                    Some(e) => Json::Float(e),
                    None => Json::Null,
                },
            ),
            (
                "wall_time_predicted_secs",
                match self.wall_time_predicted_secs {
                    Some(s) => Json::Float(s),
                    None => Json::Null,
                },
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpisim::{try_run_checkpointed_pooled, CheckpointPolicy, EnginePools, Protocol, RunLimits};
    use netmodel::presets;
    use noise_model::InjectionPlan;
    use workload::{Boundary, CommGraph, CommPattern, CommSchedule, Direction};

    fn chain(n: u32, steps: u32) -> SimConfig {
        SimConfig::baseline(
            presets::loggopsim_like(n),
            CommPattern::next_neighbor(Direction::Unidirectional, Boundary::Open),
            steps,
        )
    }

    #[test]
    fn eager_chain_event_count_is_exact() {
        // 10 ranks, 8 steps, open unidirectional d = 1: 9 messages/step.
        let cfg = chain(10, 8);
        let r = budget(&cfg);
        assert!(r.events_exact);
        assert_eq!(r.messages_total, 9 * 8);
        assert_eq!(r.events_predicted, 10 * 8 + 9 * 8);
        let (_, stats) = mpisim::Engine::new(cfg)
            .try_run_with_stats(&RunLimits::none())
            .unwrap();
        assert_eq!(
            stats.events, r.events_predicted,
            "static prediction must be exact"
        );
    }

    #[test]
    fn rendezvous_triples_the_message_events() {
        let mut cfg = chain(10, 8);
        cfg.protocol = Protocol::Rendezvous;
        let r = budget(&cfg);
        assert_eq!(r.mode, Mode::Rendezvous);
        assert_eq!(r.events_predicted, 10 * 8 + 9 * 8 * 3);
        let (_, stats) = mpisim::Engine::new(cfg)
            .try_run_with_stats(&RunLimits::none())
            .unwrap();
        assert_eq!(stats.events, r.events_predicted);
    }

    #[test]
    fn scheduled_configs_count_round_edges() {
        let mut cfg = chain(8, 6);
        cfg.schedule = Some(CommSchedule::hypercube_allreduce(8));
        let r = budget(&cfg);
        // log2(8) = 3 rounds of 8 directed edges each, cycled over 6 steps.
        assert_eq!(r.messages_total, 6 * 8);
        let (_, stats) = mpisim::Engine::new(cfg)
            .try_run_with_stats(&RunLimits::none())
            .unwrap();
        assert_eq!(
            stats.events, r.events_predicted,
            "schedule prediction must be exact"
        );
    }

    #[test]
    fn injections_and_noise_add_no_events_but_lengthen_time() {
        let mut quiet = chain(10, 8);
        let r_quiet = budget(&quiet);
        quiet.injections = InjectionPlan::single(5, 0, simdes::SimDuration::from_millis(10));
        let r_inj = budget(&quiet);
        assert_eq!(r_quiet.events_predicted, r_inj.events_predicted);
        assert!(r_inj.sim_time_predicted > r_quiet.sim_time_predicted);
        let (_, stats) = mpisim::Engine::new(quiet)
            .try_run_with_stats(&RunLimits::none())
            .unwrap();
        assert_eq!(stats.events, r_inj.events_predicted);
    }

    #[test]
    fn fused_runs_predict_zero_delivered_events() {
        // The plain eager chain fuses: the calendar never sees an event,
        // but the semantic count (delivered + elided) stays exact.
        let cfg = chain(10, 8);
        let r = budget(&cfg);
        assert!(r.fused);
        assert_eq!(r.events_delivered_predicted, 0);
        let (_, stats) = mpisim::Engine::new(cfg)
            .try_run_with_stats(&RunLimits::none())
            .unwrap();
        assert_eq!(stats.peak_queue, 0, "fused runs skip the calendar");
        assert_eq!(stats.events, r.events_predicted);

        // Rendezvous is outside the fused domain: everything is delivered.
        let mut rdvz = chain(10, 8);
        rdvz.protocol = Protocol::Rendezvous;
        let r = budget(&rdvz);
        assert!(!r.fused);
        assert_eq!(r.events_delivered_predicted, r.events_predicted);
    }

    #[test]
    fn budgeted_pools_sized_from_the_report_settle_on_run_1() {
        let cfg = chain(16, 10);
        let r = budget(&cfg);
        let mut pools = EnginePools::with_budget(&r.pool);
        for _ in 0..3 {
            let policy = CheckpointPolicy::none();
            try_run_checkpointed_pooled(&cfg, &RunLimits::none(), &policy, |_| {}, &mut pools)
                .expect("completes");
            assert_eq!(
                pools.grows(),
                0,
                "predicted budget must cover run {}",
                pools.runs()
            );
        }
    }

    #[test]
    fn sc018_fires_only_over_budget() {
        let cfg = chain(10, 8);
        let r = budget(&cfg);
        let tight = Budgets {
            max_events: Some(r.events_predicted - 1),
            ..Budgets::default()
        };
        let out = budget_checks(&cfg, &r, &tight);
        assert!(out.iter().any(|d| d.code == "SC018"), "{out:?}");
        let roomy = Budgets {
            max_events: Some(r.events_predicted),
            ..Budgets::default()
        };
        assert!(budget_checks(&cfg, &r, &roomy)
            .iter()
            .all(|d| d.code != "SC018"));
    }

    #[test]
    fn sc019_refines_the_watchdog_feasibility() {
        let cfg = chain(10, 8);
        let r = budget(&cfg);
        let starved = Budgets {
            watchdog: Some(SimTime(r.sim_time_predicted.nanos() / 2)),
            ..Budgets::default()
        };
        let out = budget_checks(&cfg, &r, &starved);
        let w = out.iter().find(|d| d.code == "SC019").expect("SC019");
        assert!(w.message.contains("watchdog"), "{w}");
    }

    #[test]
    fn sc021_flags_windows_after_the_predicted_end() {
        let mut cfg = chain(10, 8);
        let end = budget(&cfg).sim_time_predicted;
        cfg.faults = mpisim::FaultPlan::none().with_degradation(mpisim::LinkDegradation {
            from: SimTime(end.nanos() * 2),
            until: SimTime(end.nanos() * 3),
            link: None,
            latency_factor: 4.0,
            bandwidth_factor: 1.0,
        });
        let r = budget(&cfg);
        let out = budget_checks(&cfg, &r, &Budgets::default());
        assert!(out.iter().any(|d| d.code == "SC021"), "{out:?}");
        // A window inside the run is silent.
        cfg.faults.degradations[0].from = SimTime(end.nanos() / 2);
        let r = budget(&cfg);
        assert!(budget_checks(&cfg, &r, &Budgets::default())
            .iter()
            .all(|d| d.code != "SC021"));
    }

    #[test]
    fn sc022_warns_when_the_wave_cannot_reach_the_edge() {
        let mut cfg = chain(16, 4);
        // From rank 0, 15 hops at σ·d = 1 needs 15 steps; 4 steps cut it.
        cfg.injections = InjectionPlan::single(0, 0, simdes::SimDuration::from_millis(9));
        let r = budget(&cfg);
        let w = r.wave.expect("wave prediction");
        assert!(!w.covers_run);
        let out = budget_checks(&cfg, &r, &Budgets::default());
        assert!(out.iter().any(|d| d.code == "SC022"), "{out:?}");
        // A long-enough run covers and stays silent.
        cfg.steps = 30;
        let r = budget(&cfg);
        assert!(r.wave.expect("wave").covers_run);
        assert!(budget_checks(&cfg, &r, &Budgets::default())
            .iter()
            .all(|d| d.code != "SC022"));
    }

    #[test]
    fn sc020_names_the_duplicated_scenario() {
        let a = chain(10, 8);
        let b = chain(12, 8);
        let fps = [
            config_fingerprint(&a),
            config_fingerprint(&b),
            config_fingerprint(&a),
        ];
        let out = duplicate_fingerprint_checks(&["base", "wide", "base-again"], &fps);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].code, "SC020");
        assert!(out[0].message.contains("'base'"), "{}", out[0]);
        assert!(out[0].field.contains("scenarios[2]"), "{}", out[0]);
    }

    #[test]
    fn report_json_round_trips_the_schema_fields() {
        let mut cfg = chain(10, 8);
        cfg.injections = InjectionPlan::single(5, 0, simdes::SimDuration::from_millis(5));
        let r = budget_calibrated(&cfg, 1e6);
        let j = r.to_json();
        assert_eq!(
            j.get("schema").and_then(|v| v.as_str()),
            Some("budget-report-v1")
        );
        for key in [
            "fingerprint",
            "ranks",
            "steps",
            "mode",
            "messages_total",
            "events_predicted",
            "events_exact",
            "events_delivered_predicted",
            "fused",
            "peak_queue_predicted",
            "pool_bytes_predicted",
            "trace_bytes_predicted",
            "summary_bytes_predicted",
            "sim_time_predicted_ns",
            "wave",
            "events_per_sec",
            "wall_time_predicted_secs",
        ] {
            assert!(j.get(key).is_some(), "missing {key}");
        }
        assert!(r.wall_time_predicted_secs.unwrap() > 0.0);
    }

    #[test]
    fn explicit_schedules_get_no_wave_prediction() {
        let mut cfg = chain(8, 6);
        cfg.schedule = Some(CommSchedule::uniform(CommGraph::from_sends(vec![
            vec![1],
            vec![2],
            vec![3],
            vec![0],
            vec![5],
            vec![6],
            vec![7],
            vec![4],
        ])));
        cfg.injections = InjectionPlan::single(1, 0, simdes::SimDuration::from_millis(5));
        assert!(budget(&cfg).wave.is_none());
    }
}
