//! Determinism tests: the same master seed must produce bit-identical
//! traces no matter how often, in what process, or on how many threads
//! the simulation runs. This is the property every golden-figure test
//! and every claim in the paper reproduction rests on, and it is exactly
//! what accidental `HashMap` iteration, thread-scheduling dependence, or
//! global RNG state would silently break.

mod common;

use common::sweep_fingerprints;
use idle_waves::idlewave::{WaveExperiment, WaveTrace};
use idle_waves::mpisim::{
    try_run_checkpointed_pooled, try_run_summary_pooled, CheckpointPolicy, Engine, EnginePools,
    RunLimits, RunSummary, SimError,
};
use idle_waves::prelude::*;

const MS: SimDuration = SimDuration::from_millis(1);

/// A deliberately "busy" configuration: noise on every rank, an injected
/// delay, rendezvous handshakes, and a periodic ring — every stochastic
/// and ordering-sensitive code path at once.
fn noisy_config(seed: u64) -> SimConfig {
    WaveExperiment::flat_chain(20)
        .direction(Direction::Bidirectional)
        .boundary(Boundary::Periodic)
        .rendezvous()
        .texec(MS.times(2))
        .steps(24)
        .inject(7, 1, MS.times(9))
        .noise_percent(8.0)
        .seed(seed)
        .into_config()
}

#[test]
fn same_seed_gives_bit_identical_traces() {
    let cfg = noisy_config(0xD5EED);
    let a = WaveTrace::from_config(cfg.clone());
    let b = WaveTrace::from_config(cfg);
    assert_eq!(a.trace, b.trace, "re-running the same config diverged");
    assert_eq!(a.baseline_comm, b.baseline_comm);
    assert_eq!(a.step_duration, b.step_duration);
}

#[test]
fn different_seeds_actually_differ() {
    // Guards the test above against vacuity: if the noise model ignored
    // the seed, "same seed ⇒ same trace" would hold trivially.
    let a = WaveTrace::from_config(noisy_config(1));
    let b = WaveTrace::from_config(noisy_config(2));
    assert_ne!(a.trace, b.trace, "noise is not seed-dependent");
}

#[test]
fn batch_results_are_independent_of_thread_count() {
    // Ten seeds through the sweep fabric: every record succeeds with the
    // trace a direct run produces, however many threads ran the batch.
    let configs: Vec<SimConfig> = (0..10).map(noisy_config).collect();
    let direct: Vec<u64> = configs
        .iter()
        .map(|cfg| WaveTrace::from_config(cfg.clone()).trace.fingerprint())
        .collect();
    for threads in [1, 2, 4, 8] {
        let swept = sweep_fingerprints("determinism-threads", &configs, threads);
        let fps: Vec<u64> = swept.into_iter().map(|(_, fp)| fp).collect();
        assert_eq!(fps, direct, "a seed diverged on {threads} threads");
    }
}

#[test]
fn batch_order_matches_input_order() {
    // Each config gets a distinguishable step count so a shuffled result
    // vector cannot masquerade as correct.
    let configs: Vec<SimConfig> = (0..8)
        .map(|i| {
            let mut c = noisy_config(i);
            c.steps = 10 + i as u32;
            c
        })
        .collect();
    let out = sweep_fingerprints("determinism-order", &configs, 4);
    assert_eq!(out.len(), configs.len());
    for (i, ((id, fp), cfg)) in out.iter().zip(&configs).enumerate() {
        assert_eq!(id, &format!("s{i}"), "slot {i} holds the wrong run");
        let direct = WaveTrace::from_config(cfg.clone()).trace.fingerprint();
        assert_eq!(*fp, direct, "slot {i} holds another config's trace");
    }
}

#[test]
fn pooled_runs_recover_from_a_tripped_watchdog() {
    // Both pooled entry points hand their buffers back on the error path
    // too: a tripped event budget still counts as a pooled run, and the
    // pool's next run is bit-identical to a fresh unpooled one.
    let cfg = noisy_config(3);
    let tripped = RunLimits::events(10);
    let none = RunLimits::none();
    let ckpt = CheckpointPolicy::none();
    let (fresh, fresh_stats) = Engine::new(cfg.clone())
        .try_run_with_stats(&none)
        .expect("fresh run completes");
    let mut pools = EnginePools::new();

    let err = try_run_checkpointed_pooled(&cfg, &tripped, &ckpt, |_| {}, &mut pools)
        .expect_err("10 events cannot finish the run");
    assert!(matches!(err, SimError::Watchdog { .. }), "{err:?}");
    assert_eq!(pools.runs(), 1, "a failed full run must recycle");
    let (trace, _) = try_run_checkpointed_pooled(&cfg, &none, &ckpt, |_| {}, &mut pools)
        .expect("pooled run completes");
    assert_eq!(trace.fingerprint(), fresh.fingerprint());

    let err = try_run_summary_pooled(&cfg, &tripped, &mut pools)
        .expect_err("10 events cannot finish the run");
    assert!(matches!(err, SimError::Watchdog { .. }), "{err:?}");
    assert_eq!(pools.runs(), 3, "a failed summary run must recycle");
    let (summary, stats) =
        try_run_summary_pooled(&cfg, &none, &mut pools).expect("pooled summary completes");
    assert_eq!(summary.digest, RunSummary::of_trace(&fresh).digest);
    assert_eq!(stats.events, fresh_stats.events);
}

#[test]
fn rng_streams_are_stable_across_processes() {
    // Pin the first few draws of a derived stream to literal values: this
    // fails if the xoshiro/SplitMix constants, the seeding walk, or the
    // stream-derivation scheme ever change — exactly the silent drift
    // that would invalidate all checked-in golden figures.
    let mut r = SeedFactory::new(42).stream("exec-noise", 3);
    let first: Vec<u64> = (0..4).map(|_| r.next_u64()).collect();
    assert_eq!(
        first,
        [
            0x8eef99a3ef80621f,
            0x4ab995a3bc13c8f8,
            0xe583e6ed37982b00,
            0x6a12050330633c2b,
        ],
        "derived RNG stream drifted — all golden figures are now invalid"
    );
    // Distinct master seeds shift the whole stream.
    let mut other = SeedFactory::new(43).stream("exec-noise", 3);
    assert_ne!(first[0], other.next_u64());
}
