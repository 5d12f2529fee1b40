//! Fused fast-path property suite: the correctness contract for the
//! handler-level fast path is that a plain run — which takes the fused
//! step-major sweep whenever [`fused_path_eligible`] holds — is
//! **bit-identical** to every other way of producing the same scenario:
//!
//! * the general event loop (forced by giving the run an event budget),
//! * a checkpointed run resumed from any cut point (checkpointed and
//!   restored engines always replay through the general loop, so every
//!   cut is also a fused-vs-general cross-check),
//! * the streaming summary fold of either path, and
//! * the independent max-plus reference recurrence, on the closed-form
//!   domain [`reference::supports`] describes.
//!
//! The configs are drawn from a family that crosses networks (a flat
//! chain and a multi-socket, multi-node allocation), protocols (eager,
//! rendezvous, default), directions, neighbour distances 1–3,
//! boundaries, up to two injections (sometimes on one rank), noise,
//! imbalance, and message-fault plans, so both fused-eligible and
//! ineligible configs are exercised and the eligibility predicate itself
//! is property-tested against the engine's behaviour (`peak_queue == 0`
//! iff fused).

use idle_waves::mpisim::{
    fused_path_eligible, reference, try_run_summary_pooled, CheckpointPolicy, Engine, EnginePools,
    FaultPlan, RunLimits, RunStats, RunSummary, Snapshot,
};
use idle_waves::prelude::*;

const MS: SimDuration = SimDuration::from_millis(1);

/// A stochastic config family straddling the fused-eligibility boundary:
/// network × protocol × direction × distance × boundary × injections ×
/// noise × imbalance × faults. Draws the config fails validation for
/// (too few ranks for the distance) are redrawn, not narrowed away.
fn random_config(g: &mut Gen) -> SimConfig {
    loop {
        let cfg = draw_config(g);
        if !has_errors(&cfg.check()) {
            return cfg;
        }
    }
}

fn draw_config(g: &mut Gen) -> SimConfig {
    let ranks = g.u32(4, 10);
    let steps = g.u32(3, 7);
    let mut e = if g.bool() {
        WaveExperiment::flat_chain(ranks)
    } else {
        // Two to four ranks per node, split over both sockets: every
        // pattern then crosses the socket, node and network link domains.
        let ppn = g.u32(2, 4);
        WaveExperiment::on_network(machines::emmy_like(ranks.div_ceil(ppn), ppn, ranks))
    };
    e = e
        .direction(if g.bool() {
            Direction::Unidirectional
        } else {
            Direction::Bidirectional
        })
        .boundary(if g.bool() {
            Boundary::Open
        } else {
            Boundary::Periodic
        })
        .distance(g.u32(1, 3))
        .texec(MS)
        .steps(steps)
        .seed(g.any_u64());
    e = match g.u32(0, 2) {
        0 => e.eager(),
        1 => e.rendezvous(),
        _ => e, // default protocol: mode decided by message size
    };
    let mut inj_rank = g.u32(0, ranks - 1);
    for _ in 0..g.u32(0, 2) {
        e = e.inject(inj_rank, g.u32(0, steps - 1), MS.times(g.u64(1, 5)));
        if g.bool() {
            inj_rank = g.u32(0, ranks - 1);
        }
    }
    if g.bool() {
        e = e.noise(DelayDistribution::Exponential {
            mean: SimDuration::from_micros(g.u64(10, 300)),
        });
    }
    let mut cfg = e.into_config();
    if g.bool() {
        cfg.imbalance = (0..ranks).map(|r| 1.0 + 0.01 * f64::from(r % 4)).collect();
    }
    if g.bool() {
        cfg.faults = FaultPlan::none().with_drops(g.f64(0.05, 0.3), SimDuration::from_micros(100));
    }
    cfg
}

/// Run the scenario through the general event loop: an event budget the
/// run never reaches still disables the plain fast paths.
fn general_run(cfg: &SimConfig) -> (Trace, RunStats) {
    Engine::new(cfg.clone())
        .try_run_with_stats(&RunLimits::events(100_000_000))
        .expect("general run completes under a non-binding budget")
}

#[test]
fn plain_runs_match_the_general_event_loop_bitwise() {
    for_all("fused path is bit-identical to the event loop", 60, |g| {
        let cfg = random_config(g);
        let fused = fused_path_eligible(&cfg);
        let (plain, plain_stats) = Engine::new(cfg.clone())
            .try_run_with_stats(&RunLimits::none())
            .expect("plain run completes");
        let (general, general_stats) = general_run(&cfg);

        assert_eq!(plain.fingerprint(), general.fingerprint(), "{cfg:?}");
        assert_eq!(plain, general, "trace diverged between paths");

        // Every statistic except queue occupancy is path-independent; a
        // fused run never touches the calendar, so its peak is zero, and
        // that is exactly when the eligibility predicate says so.
        let mut normalized = general_stats.clone();
        normalized.peak_queue = plain_stats.peak_queue;
        assert_eq!(plain_stats, normalized, "stats diverged between paths");
        assert_eq!(
            plain_stats.peak_queue == 0,
            fused,
            "peak_queue must be zero iff the run fused (eligible = {fused})"
        );
        assert!(general_stats.peak_queue > 0, "the event loop queues");
    });
}

#[test]
fn summary_folds_agree_across_paths_and_trace_modes() {
    for_all("summary digest is path-independent", 40, |g| {
        let cfg = random_config(g);
        let mut pools = EnginePools::new();
        let (fused_sum, _) = try_run_summary_pooled(&cfg, &RunLimits::none(), &mut pools)
            .expect("plain summary run completes");
        let (general_sum, _) =
            try_run_summary_pooled(&cfg, &RunLimits::events(100_000_000), &mut pools)
                .expect("general summary run completes");
        let (full, _) = general_run(&cfg);

        assert_eq!(fused_sum, general_sum, "summary diverged between paths");
        assert_eq!(
            fused_sum,
            RunSummary::of_trace(&full),
            "summary fold must equal the fold over the retained trace"
        );
    });
}

#[test]
fn checkpoint_cuts_replay_to_the_fused_result() {
    for_all("any cut resumes to the fused trace", 40, |g| {
        let cfg = random_config(g);
        // Cut anywhere, including mid-step: the checkpointed run and the
        // resumed remainder both use the general loop, and both must land
        // on the same bits as the (possibly fused) plain run.
        let cut = g.u64(1, 80);
        let policy = CheckpointPolicy {
            every_sim_time: None,
            every_events: Some(cut),
        };
        let mut first: Option<Snapshot> = None;
        let (checkpointed, _) = Engine::new(cfg.clone())
            .try_run_checkpointed(&RunLimits::none(), &policy, |s| {
                if first.is_none() {
                    first = Some(s.clone());
                }
            })
            .expect("checkpointed run completes");
        let plain = run(&cfg);
        assert_eq!(plain, checkpointed, "checkpoint cadence changed the run");

        let Some(snap) = first else {
            return; // run delivered fewer than `cut` events
        };
        let decoded = Snapshot::decode(snap.encode().as_bytes()).expect("own encoding decodes");
        let resumed = Engine::restore(cfg, &decoded)
            .expect("valid snapshot")
            .try_run_with_stats(&RunLimits::none())
            .expect("resumed run completes")
            .0;
        assert_eq!(
            resumed.fingerprint(),
            plain.fingerprint(),
            "fingerprint diverged after resuming at cut {cut}"
        );
        assert_eq!(resumed, plain, "trace diverged after resuming at cut {cut}");
    });
}

#[test]
fn closed_form_domain_matches_the_reference_recurrence() {
    let hits = std::cell::Cell::new(0u32);
    for_all("engine equals the max-plus recurrence", 60, |g| {
        let cfg = random_config(g);
        if !reference::supports(&cfg) {
            return;
        }
        hits.set(hits.get() + 1);
        let trace = idle_waves::mpisim::run(&cfg);
        assert_eq!(
            trace,
            reference::reference_trace(&cfg),
            "engine and recurrence disagree on {cfg:?}"
        );
    });
    assert!(
        hits.get() >= 10,
        "config family barely exercises the closed-form domain ({} hits)",
        hits.get()
    );
}
