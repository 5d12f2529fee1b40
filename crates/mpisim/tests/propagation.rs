//! Integration tests: the engine must reproduce the paper's qualitative
//! delay-propagation mechanics (Figs. 4, 5, 7) on controlled
//! configurations before any statistical analysis is built on top.

use mpisim::{run, Protocol, RunLimits, SimConfig};
use netmodel::{ClusterNetwork, Hockney, PointToPoint};
use noise_model::InjectionPlan;
use simdes::{SimDuration, SimTime};
use tracefmt::Trace;
use workload::{Boundary, CommPattern, Direction};

const TEXEC: SimDuration = SimDuration::from_millis(3);

fn flat_net(ranks: u32) -> ClusterNetwork {
    // 1 us latency, 3 GB/s: T_comm << T_exec as in the paper's controlled
    // experiments.
    let link = PointToPoint::Hockney(Hockney::new(SimDuration::from_micros(1), 3e9));
    ClusterNetwork::flat(ranks, link)
}

fn cfg(
    ranks: u32,
    dir: Direction,
    boundary: Boundary,
    protocol: Protocol,
    steps: u32,
) -> SimConfig {
    let mut c = SimConfig::baseline(
        flat_net(ranks),
        CommPattern::next_neighbor(dir, boundary),
        steps,
    );
    c.protocol = protocol;
    c
}

/// Idle time of (rank, step) beyond the nominal communication baseline.
fn idle(trace: &Trace, baseline: SimDuration, rank: u32, step: u32) -> SimDuration {
    trace.record(rank, step).idle_beyond(baseline)
}

/// First step at which `rank` idles longer than `threshold`, if any.
fn first_idle_step(
    trace: &Trace,
    baseline: SimDuration,
    rank: u32,
    threshold: SimDuration,
) -> Option<u32> {
    (0..trace.steps()).find(|&s| idle(trace, baseline, rank, s) > threshold)
}

#[test]
fn noise_free_run_is_perfectly_regular() {
    let c = cfg(
        8,
        Direction::Bidirectional,
        Boundary::Periodic,
        Protocol::Eager,
        10,
    );
    let t = run(&c);
    let baseline = mpisim::nominal_comm_duration(&c);
    let step = mpisim::nominal_step_duration(&c);
    for r in 0..8 {
        // Everyone finishes at exactly steps x (T_exec + T_comm).
        assert_eq!(t.finish_time(r), SimTime::ZERO + step.times(10));
        for s in 0..10 {
            assert_eq!(
                idle(&t, baseline, r, s),
                SimDuration::ZERO,
                "rank {r} step {s}"
            );
            assert_eq!(t.record(r, s).exec_duration(), TEXEC);
        }
    }
}

#[test]
fn fig4_eager_unidirectional_wave_moves_one_rank_per_step() {
    // Delay of 4.5 execution phases at rank 5, step 0 (paper Fig. 4).
    let delay = TEXEC.mul_f64(4.5);
    let mut c = cfg(
        18,
        Direction::Unidirectional,
        Boundary::Open,
        Protocol::Eager,
        14,
    );
    c.injections = InjectionPlan::single(5, 0, delay);
    let t = run(&c);
    let baseline = mpisim::nominal_comm_duration(&c);
    let th = delay.mul_f64(0.5);

    // Ranks below the injection never idle: eager sends let them run free.
    for r in 0..5 {
        assert_eq!(first_idle_step(&t, baseline, r, th), None, "rank {r} idled");
    }
    // The delayed rank itself never waits (it is the source).
    assert_eq!(first_idle_step(&t, baseline, 5, th), None);
    // Downstream: rank 5+k first idles at step k-1 — one rank per step.
    for k in 1..=8u32 {
        assert_eq!(
            first_idle_step(&t, baseline, 5 + k, th),
            Some(k - 1),
            "wave front wrong at rank {}",
            5 + k
        );
        // The idle period carries (approximately) the full delay.
        let got = idle(&t, baseline, 5 + k, k - 1);
        assert!(
            got > delay.mul_f64(0.95) && got < delay.mul_f64(1.05),
            "idle at rank {} is {got}, expected ~{delay}",
            5 + k
        );
    }
}

#[test]
fn fig5ab_eager_unidirectional_periodic_wave_dies_at_injector() {
    let delay = TEXEC.mul_f64(4.5);
    let steps = 22;
    let mut c = cfg(
        18,
        Direction::Unidirectional,
        Boundary::Periodic,
        Protocol::Eager,
        steps,
    );
    c.injections = InjectionPlan::single(5, 0, delay);
    let t = run(&c);
    let baseline = mpisim::nominal_comm_duration(&c);
    let th = delay.mul_f64(0.25);

    // The wave wraps: rank (5 + k) mod 18 idles at step k-1, for k = 1..17.
    for k in 1..=17u32 {
        let r = (5 + k) % 18;
        assert_eq!(
            first_idle_step(&t, baseline, r, th),
            Some(k - 1),
            "rank {r}"
        );
    }
    // After wrapping around (17 hops) it hits the injector and dies: the
    // injector consumes the buffered eager messages without waiting.
    assert_eq!(
        first_idle_step(&t, baseline, 5, th),
        None,
        "wave should die at injector"
    );
    // And no rank idles twice: sum of big idles equals one traversal.
    for r in 0..18 {
        let big_idles = (0..steps)
            .filter(|&s| idle(&t, baseline, r, s) > th)
            .count();
        assert!(big_idles <= 1, "rank {r} idled {big_idles} times");
    }
}

#[test]
fn fig5cd_eager_bidirectional_propagates_both_directions() {
    let delay = TEXEC.mul_f64(4.5);
    let mut c = cfg(
        18,
        Direction::Bidirectional,
        Boundary::Open,
        Protocol::Eager,
        14,
    );
    c.injections = InjectionPlan::single(5, 0, delay);
    let t = run(&c);
    let baseline = mpisim::nominal_comm_duration(&c);
    let th = delay.mul_f64(0.5);

    // Upward at one rank per step...
    for k in 1..=6u32 {
        assert_eq!(first_idle_step(&t, baseline, 5 + k, th), Some(k - 1));
    }
    // ...and downward at one rank per step.
    for k in 1..=5u32 {
        assert_eq!(first_idle_step(&t, baseline, 5 - k, th), Some(k - 1));
    }
}

#[test]
fn fig5ef_rendezvous_unidirectional_also_propagates_backwards() {
    let delay = TEXEC.mul_f64(4.5);
    let mut c = cfg(
        18,
        Direction::Unidirectional,
        Boundary::Open,
        Protocol::Rendezvous,
        14,
    );
    c.injections = InjectionPlan::single(5, 0, delay);
    let t = run(&c);
    let baseline = mpisim::nominal_comm_duration(&c);
    let th = delay.mul_f64(0.5);

    // Rendezvous couples the sender to the receiver: rank 4 cannot get rid
    // of its message to 5, so the wave also travels downwards, one rank
    // per step in both directions (σ = 1).
    for k in 1..=6u32 {
        assert_eq!(
            first_idle_step(&t, baseline, 5 + k, th),
            Some(k - 1),
            "up {k}"
        );
    }
    for k in 1..=5u32 {
        assert_eq!(
            first_idle_step(&t, baseline, 5 - k, th),
            Some(k - 1),
            "down {k}"
        );
    }
}

#[test]
fn fig5gh_bidirectional_rendezvous_doubles_the_speed() {
    let delay = TEXEC.mul_f64(4.5);
    let mut c = cfg(
        18,
        Direction::Bidirectional,
        Boundary::Open,
        Protocol::Rendezvous,
        14,
    );
    c.injections = InjectionPlan::single(5, 0, delay);
    let t = run(&c);
    let baseline = mpisim::nominal_comm_duration(&c);
    let th = delay.mul_f64(0.4);

    // σ = 2: the front advances TWO ranks per step in both directions.
    // Upwards: ranks 6,7 idle in step 0; 8,9 in step 1; 10,11 in step 2...
    for k in 1..=8u32 {
        let expect = (k - 1) / 2;
        assert_eq!(
            first_idle_step(&t, baseline, 5 + k, th),
            Some(expect),
            "upward rank {}",
            5 + k
        );
    }
    // Downwards: ranks 4,3 in step 0; 2,1 in step 1; 0 in step 2.
    for k in 1..=5u32 {
        let expect = (k - 1) / 2;
        assert_eq!(
            first_idle_step(&t, baseline, 5 - k, th),
            Some(expect),
            "downward rank {}",
            5 - k
        );
    }
}

#[test]
fn fig7_distance_two_scales_speed_and_bidirectional_doubles_it() {
    let delay = TEXEC.mul_f64(4.5);
    // d = 2 unidirectional rendezvous: front moves 2 ranks per step.
    let mut c = SimConfig::baseline(
        flat_net(18),
        CommPattern {
            direction: Direction::Unidirectional,
            distance: 2,
            boundary: Boundary::Open,
        },
        12,
    );
    c.protocol = Protocol::Rendezvous;
    c.injections = InjectionPlan::single(5, 0, delay);
    let t = run(&c);
    let baseline = mpisim::nominal_comm_duration(&c);
    let th = delay.mul_f64(0.4);
    for k in 1..=8u32 {
        let expect = (k - 1) / 2;
        assert_eq!(
            first_idle_step(&t, baseline, 5 + k, th),
            Some(expect),
            "uni d=2 rank {}",
            5 + k
        );
    }

    // d = 2 bidirectional rendezvous: front moves 4 ranks per step.
    let mut c2 = SimConfig::baseline(
        flat_net(22),
        CommPattern {
            direction: Direction::Bidirectional,
            distance: 2,
            boundary: Boundary::Open,
        },
        12,
    );
    c2.protocol = Protocol::Rendezvous;
    c2.injections = InjectionPlan::single(5, 0, delay);
    let t2 = run(&c2);
    let baseline2 = mpisim::nominal_comm_duration(&c2);
    for k in 1..=12u32 {
        let expect = (k - 1) / 4;
        assert_eq!(
            first_idle_step(&t2, baseline2, 5 + k, th),
            Some(expect),
            "bi d=2 rank {}",
            5 + k
        );
    }
}

#[test]
fn all_eight_fig5_combinations_run_to_completion() {
    // Deadlock-freedom scan over the full Fig. 5 matrix.
    for dir in [Direction::Unidirectional, Direction::Bidirectional] {
        for boundary in [Boundary::Open, Boundary::Periodic] {
            for protocol in [Protocol::Eager, Protocol::Rendezvous] {
                let mut c = cfg(18, dir, boundary, protocol, 20);
                c.injections = InjectionPlan::single(5, 0, TEXEC.mul_f64(4.5));
                let t = run(&c);
                assert_eq!(t.ranks(), 18);
                assert_eq!(t.steps(), 20);
            }
        }
    }
}

#[test]
fn open_boundary_wave_runs_out_at_the_last_rank() {
    let delay = TEXEC.mul_f64(4.5);
    let steps = 16;
    let mut c = cfg(
        18,
        Direction::Unidirectional,
        Boundary::Open,
        Protocol::Eager,
        steps,
    );
    c.injections = InjectionPlan::single(5, 0, delay);
    let t = run(&c);
    let tc = mpisim::nominal_comm_duration(&c);

    // An open unidirectional eager chain is a pipeline: rank r settles at
    // pure T_exec pace with a fixed offset r·T_comm (rank 0 has no receive
    // partner, and eager data always pre-arrives after the first step).
    // The delay resets the pipeline offset: while rank 5 stalls, all its
    // subsequent receives pre-arrive, so its offset collapses to zero and
    // rebuilds downstream of it. Everything at or above rank 5 is late by
    // exactly the injected delay — the wave never decays on a silent
    // system.
    for r in 0..18u32 {
        let base = SimTime::ZERO + TEXEC.times(u64::from(steps));
        let expect = if r < 5 {
            base + tc.times(u64::from(r))
        } else {
            base + delay + tc.times(u64::from(r - 5))
        };
        assert_eq!(t.finish_time(r), expect, "rank {r}");
    }
}

#[test]
fn finite_eager_buffer_falls_back_to_rendezvous_semantics() {
    // With room for zero outstanding messages the eager protocol
    // effectively becomes rendezvous: the wave must propagate backwards
    // too (cf. fig5ef).
    let delay = TEXEC.mul_f64(4.5);
    let mut c = cfg(
        18,
        Direction::Unidirectional,
        Boundary::Open,
        Protocol::Eager,
        14,
    );
    c.eager_buffer_bytes = Some(0); // no message fits
    c.injections = InjectionPlan::single(5, 0, delay);
    let t = run(&c);
    let baseline = mpisim::nominal_comm_duration(&c)
        + c.network.ctrl_latency(0, 1)
        + c.network.ctrl_latency(1, 0);
    let th = delay.mul_f64(0.4);
    assert_eq!(
        first_idle_step(&t, baseline, 4, th),
        Some(0),
        "no backward wave"
    );
    assert_eq!(first_idle_step(&t, baseline, 3, th), Some(1));
}

#[test]
fn generous_eager_buffer_never_falls_back() {
    let delay = TEXEC.mul_f64(4.5);
    let mut a = cfg(
        18,
        Direction::Unidirectional,
        Boundary::Open,
        Protocol::Eager,
        14,
    );
    a.injections = InjectionPlan::single(5, 0, delay);
    let mut b = a.clone();
    b.eager_buffer_bytes = Some(1 << 30);
    assert_eq!(run(&a), run(&b));
}

#[test]
fn runs_are_deterministic() {
    let mut c = cfg(
        12,
        Direction::Bidirectional,
        Boundary::Periodic,
        Protocol::Rendezvous,
        10,
    );
    c.injections = InjectionPlan::single(3, 1, TEXEC.times(2));
    c.noise = noise_model::DelayDistribution::Exponential {
        mean: SimDuration::from_micros(300),
    };
    let t1 = run(&c);
    let t2 = run(&c);
    assert_eq!(t1, t2);

    let mut c3 = c.clone();
    c3.seed ^= 1;
    let t3 = run(&c3);
    assert_ne!(t1, t3, "different seeds must differ under noise");
}

#[test]
fn rendezvous_baseline_comm_includes_handshake() {
    let c = cfg(
        8,
        Direction::Unidirectional,
        Boundary::Periodic,
        Protocol::Rendezvous,
        5,
    );
    let t = run(&c);
    let expected = mpisim::nominal_comm_duration(&c);
    for r in 0..8 {
        for s in 0..5 {
            assert_eq!(
                t.record(r, s).comm_duration(),
                expected,
                "rank {r} step {s}"
            );
        }
    }
}

#[test]
fn send_serialization_lengthens_the_comm_phase() {
    // Bidirectional eager ring: each rank has two sends. With a single
    // injection port they serialize, so the baseline comm phase doubles
    // (minus the shared latency term).
    let a = cfg(
        8,
        Direction::Bidirectional,
        Boundary::Periodic,
        Protocol::Eager,
        5,
    );
    let mut b = a.clone();
    b.serialize_sends = true;
    let ta = run(&a);
    let tb = run(&b);
    let ca = ta.record(3, 2).comm_duration();
    let cb = tb.record(3, 2).comm_duration();
    assert!(
        cb > ca,
        "serialized comm {cb} should exceed overlapped {ca}"
    );
    // The engine's measured comm phase must equal the analytic baseline in
    // both modes.
    assert_eq!(ca, mpisim::nominal_comm_duration(&a));
    assert_eq!(cb, mpisim::nominal_comm_duration(&b));
}

#[test]
fn persistent_imbalance_drags_the_whole_ring() {
    // The classic coupled-chain result: one rank that is persistently 10%
    // slower slows EVERY rank to its pace (in a periodic bidirectional
    // ring nobody can run ahead of the laggard for long).
    let mut c = cfg(
        10,
        Direction::Bidirectional,
        Boundary::Periodic,
        Protocol::Eager,
        30,
    );
    c.imbalance = vec![1.0; 10];
    c.imbalance[4] = 1.1;
    let t = run(&c);
    let step = mpisim::nominal_step_duration(&c);
    // Expected pace: T_exec grows by 10% on the laggard; everyone's
    // steady-state step takes ~0.1*T_exec longer.
    let laggard_step = step + TEXEC.mul_f64(0.1);
    let expect_min = SimTime::ZERO + laggard_step.times(30) - step; // transient slack
    for r in 0..10 {
        assert!(
            t.finish_time(r) >= expect_min,
            "rank {r} finished at {} — escaped the laggard's pace",
            t.finish_time(r)
        );
    }
    // And the laggard itself never waits (everyone else waits for it).
    let baseline = mpisim::nominal_comm_duration(&c);
    for s in 5..30 {
        assert!(
            idle(&t, baseline, 4, s) < SimDuration::from_micros(50),
            "laggard idled at step {s}"
        );
    }
}

#[test]
fn imbalance_vector_is_validated() {
    let mut c = cfg(
        4,
        Direction::Unidirectional,
        Boundary::Open,
        Protocol::Eager,
        2,
    );
    c.imbalance = vec![1.0, 2.0]; // wrong length
    let result = std::panic::catch_unwind(|| run(&c));
    assert!(result.is_err());
}

#[test]
fn run_stats_account_for_all_traffic() {
    // Periodic uni ring of 8 ranks x 6 steps: exactly 48 messages.
    let c = cfg(
        8,
        Direction::Unidirectional,
        Boundary::Periodic,
        Protocol::Eager,
        6,
    );
    let (trace, stats) = mpisim::Engine::new(c.clone())
        .try_run_with_stats(&RunLimits::none())
        .expect("completes");
    assert_eq!(trace.ranks(), 8);
    assert_eq!(stats.messages, 8 * 6);
    assert_eq!(stats.eager_fallbacks, 0);
    // This run takes the fused fast path: the event count stays the
    // scenario's semantic count (one ExecEnd per rank-step plus one
    // eager arrival per message) even though the calendar never sees
    // the events — and because it never does, no queue depth builds up.
    assert_eq!(stats.events, 8 * 6 + 8 * 6);
    assert_eq!(stats.peak_queue, 0, "fused runs skip the calendar");

    // Rendezvous doubles nothing message-wise but adds control events,
    // and it takes the general event loop.
    let mut r = c.clone();
    r.protocol = Protocol::Rendezvous;
    let (_, rs) = mpisim::Engine::new(r)
        .try_run_with_stats(&RunLimits::none())
        .expect("completes");
    assert_eq!(rs.messages, 8 * 6);
    assert!(rs.events > stats.events, "handshakes add events");
    assert!(rs.peak_queue >= 8, "at least one pending event per rank");

    // A zero-capacity buffer forces every send to fall back.
    let mut f = c;
    f.eager_buffer_bytes = Some(0);
    let (_, fs) = mpisim::Engine::new(f)
        .try_run_with_stats(&RunLimits::none())
        .expect("completes");
    assert_eq!(fs.eager_fallbacks, 8 * 6);
}
