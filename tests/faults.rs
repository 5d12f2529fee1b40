//! Fault-injection integration tests: determinism of faulty runs and a
//! golden drop-and-retransmit trace.
//!
//! The fault subsystem samples drops, corruptions, and backoff delays
//! from per-link RNG streams derived from the master seed, so a faulty
//! run must be exactly as reproducible as a clean one: bit-identical
//! across re-runs, process lifetimes, and sweep-fabric thread counts. The
//! golden test pins one concrete drop-and-retransmit schedule so that
//! any change to the fault RNG stream layout, backoff arithmetic, or
//! retransmission event ordering fails loudly.
//!
//! Regenerate the golden after an intentional change with:
//!
//! ```text
//! GOLDEN_REGEN=1 cargo test --test faults -- --nocapture
//! ```

mod common;

use common::sweep_fingerprints;
use idle_waves::idlewave::{WaveExperiment, WaveTrace};
use idle_waves::mpisim::{FaultPlan, LinkDegradation, MessageFaults};
use idle_waves::prelude::*;

const MS: SimDuration = SimDuration::from_millis(1);

/// A fault plan exercising every mechanism at once: message drops and
/// corruption with retransmission, a degradation window, and a rank
/// stall — parameterised so the generator can vary it.
fn chaotic_config(seed: u64, drop: f64, corrupt: f64, rendezvous: bool) -> SimConfig {
    let mut e = WaveExperiment::flat_chain(12)
        .texec(MS)
        .steps(8)
        .inject(3, 1, MS.times(4))
        .faults(
            FaultPlan::none()
                .with_messages(MessageFaults {
                    drop_prob: drop,
                    corrupt_prob: corrupt,
                    rto: SimDuration::from_micros(200),
                    ..MessageFaults::default()
                })
                .with_degradation(LinkDegradation {
                    from: SimTime(MS.times(2).nanos()),
                    until: SimTime(MS.times(5).nanos()),
                    link: None,
                    latency_factor: 3.0,
                    bandwidth_factor: 2.0,
                })
                .with_stall(7, 2, MS),
        )
        .seed(seed);
    if rendezvous {
        e = e.rendezvous();
    }
    e.into_config()
}

#[test]
fn fault_injected_runs_are_bit_identical_for_any_seed_and_plan() {
    for_all("faulty runs replay exactly", 12, |g: &mut Gen| {
        let cfg = chaotic_config(g.any_u64(), g.f64(0.0, 0.35), g.f64(0.0, 0.2), g.bool());
        let a = WaveTrace::try_from_config(cfg.clone()).expect("plan is feasible");
        let b = WaveTrace::try_from_config(cfg).expect("plan is feasible");
        assert_eq!(
            a.trace, b.trace,
            "re-running a fault-injected config diverged"
        );
        assert_eq!(a.trace.fingerprint(), b.trace.fingerprint());
    });
}

#[test]
fn fault_injected_batches_are_independent_of_thread_count() {
    let configs: Vec<SimConfig> = (0..6)
        .map(|i| chaotic_config(1000 + i, 0.25, 0.1, i % 2 == 0))
        .collect();
    let direct: Vec<u64> = configs
        .iter()
        .map(|cfg| WaveTrace::from_config(cfg.clone()).trace.fingerprint())
        .collect();
    for threads in [1, 2, 4, 8] {
        let swept = sweep_fingerprints("faults-threads", &configs, threads);
        let fps: Vec<u64> = swept.into_iter().map(|(_, fp)| fp).collect();
        assert_eq!(fps, direct, "a config diverged on {threads} threads");
    }
}

#[test]
fn faults_actually_fire_in_the_chaotic_config() {
    // Guards the determinism tests against vacuity: if the fault plan
    // were silently ignored, "same seed ⇒ same trace" would hold for the
    // wrong reason.
    let faulty =
        WaveTrace::try_from_config(chaotic_config(7, 0.3, 0.1, true)).expect("plan is feasible");
    let mut clean_cfg = chaotic_config(7, 0.3, 0.1, true);
    clean_cfg.faults = FaultPlan::none();
    let clean = WaveTrace::try_from_config(clean_cfg).expect("clean config runs");
    assert_ne!(
        faulty.trace.fingerprint(),
        clean.trace.fingerprint(),
        "the fault plan had no effect on the trace"
    );
    assert!(
        faulty.total_runtime() > clean.total_runtime(),
        "retransmissions, degradation, and the stall must cost time"
    );
}

// ------------------------------------------------- golden: drop & resend

/// Per-rank `comm_end` of step 0 in microseconds for the golden
/// drop-and-retransmit scenario below. Regenerate with `GOLDEN_REGEN=1`.
const GOLDEN_STEP0_COMM_END_US: &[f64] = &[4507.8, 4507.8, 2507.8, 1507.8, 5007.8, 5007.8];
/// Total runtime of the golden scenario in microseconds.
const GOLDEN_RUNTIME_US: f64 = 47559.2;

fn golden_config() -> SimConfig {
    WaveExperiment::flat_chain(6)
        .texec(MS)
        .steps(8)
        .rendezvous()
        .faults(FaultPlan::none().with_messages(MessageFaults {
            drop_prob: 0.35,
            rto: SimDuration::from_micros(500),
            ..MessageFaults::default()
        }))
        .seed(0xFA17)
        .into_config()
}

#[test]
fn golden_drop_and_retransmit_trace() {
    let wt = WaveTrace::try_from_config(golden_config()).expect("plan is feasible");
    if std::env::var_os("GOLDEN_REGEN").is_some() {
        println!("const GOLDEN_STEP0_COMM_END_US: &[f64] = &[");
        for r in 0..wt.trace.ranks() {
            println!("    {:.1},", wt.trace.record(r, 0).comm_end.0 as f64 / 1e3);
        }
        println!("];");
        println!(
            "const GOLDEN_RUNTIME_US: f64 = {:.1};",
            wt.total_runtime().0 as f64 / 1e3
        );
        return;
    }
    assert_eq!(wt.trace.ranks() as usize, GOLDEN_STEP0_COMM_END_US.len());
    for (r, &want_us) in GOLDEN_STEP0_COMM_END_US.iter().enumerate() {
        let got_us = wt.trace.record(r as u32, 0).comm_end.0 as f64 / 1e3;
        assert!(
            (got_us - want_us).abs() < 0.1,
            "rank {r} step 0 comm_end: got {got_us:.1} us, golden {want_us:.1} us"
        );
    }
    let runtime_us = wt.total_runtime().0 as f64 / 1e3;
    assert!(
        (runtime_us - GOLDEN_RUNTIME_US).abs() < 0.1,
        "total runtime: got {runtime_us:.1} us, golden {GOLDEN_RUNTIME_US} us"
    );
    // The golden schedule must actually contain a retransmission: at
    // least one rank's step-0 communication phase ends an RTO after the
    // fastest rank's.
    let fastest = GOLDEN_STEP0_COMM_END_US
        .iter()
        .cloned()
        .fold(f64::INFINITY, f64::min);
    assert!(
        GOLDEN_STEP0_COMM_END_US
            .iter()
            .any(|&t| t >= fastest + 500.0),
        "no retransmission visible in the golden step-0 schedule"
    );
}
