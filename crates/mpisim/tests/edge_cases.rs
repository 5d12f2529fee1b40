//! Engine edge cases: configurations at the boundary of the supported
//! domain must behave sensibly, not just the paper's canonical setups.

use mpisim::{run, Engine, Protocol, RunLimits, SimConfig};
use netmodel::{ClusterNetwork, Hockney, PointToPoint};
use noise_model::{DelayDistribution, Injection, InjectionPlan};
use simdes::{SimDuration, SimTime};
use workload::{Boundary, CommGraph, CommPattern, CommSchedule, Direction};

const MS: SimDuration = SimDuration::from_millis(1);

fn flat(ranks: u32, dir: Direction, boundary: Boundary, steps: u32) -> SimConfig {
    let link = PointToPoint::Hockney(Hockney::new(SimDuration::from_micros(1), 3e9));
    let mut c = SimConfig::baseline(
        ClusterNetwork::flat(ranks, link),
        CommPattern::next_neighbor(dir, boundary),
        steps,
    );
    c.exec = workload::ExecModel::Compute { duration: MS };
    c
}

#[test]
fn minimal_three_rank_periodic_ring_works() {
    let mut c = flat(3, Direction::Bidirectional, Boundary::Periodic, 8);
    c.protocol = Protocol::Rendezvous;
    c.injections = InjectionPlan::single(1, 0, MS.times(5));
    let t = run(&c);
    assert_eq!(t.ranks(), 3);
    // Both neighbours idle immediately (everyone is adjacent to everyone).
    let baseline = mpisim::nominal_comm_duration(&c);
    assert!(t.record(0, 0).idle_beyond(baseline) > MS.times(4));
    assert!(t.record(2, 0).idle_beyond(baseline) > MS.times(4));
}

#[test]
fn two_rank_open_chain_works() {
    let c = flat(2, Direction::Bidirectional, Boundary::Open, 5);
    let t = run(&c);
    assert_eq!(t.ranks(), 2);
    assert_eq!(
        t.record(0, 4).comm_duration(),
        mpisim::nominal_comm_duration(&c)
    );
}

#[test]
fn single_step_run_works() {
    let mut c = flat(6, Direction::Unidirectional, Boundary::Open, 1);
    c.injections = InjectionPlan::single(2, 0, MS.times(3));
    let t = run(&c);
    assert_eq!(t.steps(), 1);
    assert_eq!(t.record(2, 0).injected, MS.times(3));
}

#[test]
fn repeated_injections_on_one_rank_all_apply() {
    let mut c = flat(10, Direction::Unidirectional, Boundary::Open, 6);
    c.injections = InjectionPlan::from_list(vec![
        Injection {
            rank: 3,
            step: 0,
            duration: MS.times(2),
        },
        Injection {
            rank: 3,
            step: 2,
            duration: MS.times(3),
        },
        Injection {
            rank: 3,
            step: 4,
            duration: MS,
        },
    ]);
    let t = run(&c);
    assert_eq!(t.record(3, 0).injected, MS.times(2));
    assert_eq!(t.record(3, 2).injected, MS.times(3));
    assert_eq!(t.record(3, 4).injected, MS);
    // A rank close enough downstream sees all three waves before the run
    // ends (the wave from step s reaches rank 3+k at step s+k): rank 5
    // collects them at steps 1, 3 and 5 and ends 2+3+1 = 6 ms late.
    // Distant ranks see only the waves that arrive in time — rank 9 never
    // meets the later two.
    let late5 = t.finish_time(5).since(t.finish_time(0));
    assert!(late5 >= MS.times(6), "rank 5 only {late5} late");
    let late9 = t.finish_time(9).since(t.finish_time(0));
    assert!(
        late9 >= MS.times(2) && late9 < MS.times(3),
        "rank 9: {late9}"
    );
}

#[test]
fn injection_in_the_final_step_still_recorded() {
    let mut c = flat(6, Direction::Unidirectional, Boundary::Open, 4);
    c.injections = InjectionPlan::single(5, 3, MS.times(7));
    let t = run(&c);
    // The last rank's final phase carries the delay; nobody else notices
    // (rank 5 has no downstream neighbour on an open chain).
    assert_eq!(t.record(5, 3).injected, MS.times(7));
    for r in 0..5 {
        assert_eq!(t.record(r, 3).injected, SimDuration::ZERO);
    }
}

#[test]
fn delay_longer_than_the_whole_run_is_survived() {
    let mut c = flat(6, Direction::Bidirectional, Boundary::Periodic, 4);
    c.injections = InjectionPlan::single(2, 0, SimDuration::from_secs(1));
    let t = run(&c);
    // Everything ends after the monster delay; no deadlock, no overflow.
    assert!(t.total_runtime() > SimTime::ZERO + SimDuration::from_secs(1));
}

#[test]
fn two_opposing_waves_on_one_open_chain() {
    // Delays at both ends of an open bidirectional chain: the waves run
    // towards each other and annihilate in the middle.
    let mut c = flat(17, Direction::Bidirectional, Boundary::Open, 16);
    c.injections = InjectionPlan::from_list(vec![
        Injection {
            rank: 0,
            step: 0,
            duration: MS.times(10),
        },
        Injection {
            rank: 16,
            step: 0,
            duration: MS.times(10),
        },
    ]);
    let t = run(&c);
    let baseline = mpisim::nominal_comm_duration(&c);
    // The middle rank is hit exactly once: both fronts reach it in the
    // same step and merge.
    let idles = (0..16)
        .filter(|&s| t.record(8, s).idle_beyond(baseline) > MS.times(5))
        .count();
    assert_eq!(idles, 1, "middle rank should idle exactly once");
    // Total excess equals one delay, not two (nonlinear cancellation).
    let quiet = {
        let mut q = c.clone();
        q.injections = InjectionPlan::none();
        run(&q)
    };
    let excess = t.total_runtime().since(quiet.total_runtime());
    assert!(
        excess <= MS.times(10),
        "excess {excess} exceeds a single delay — waves superposed?"
    );
}

#[test]
fn schedule_with_silent_rounds_runs() {
    // Alternate a communication round with a pure-compute round.
    let ring = CommGraph::from_sends((0..6).map(|r| vec![(r + 1) % 6]).collect());
    let silent = CommGraph::silent(6);
    let mut c = flat(6, Direction::Unidirectional, Boundary::Periodic, 8);
    c.schedule = Some(CommSchedule::cyclic(vec![ring, silent]));
    let t = run(&c);
    // Silent rounds have zero-length comm phases.
    for r in 0..6 {
        assert_eq!(t.record(r, 1).comm_duration(), SimDuration::ZERO);
        assert!(t.record(r, 0).comm_duration() > SimDuration::ZERO);
    }
}

#[test]
fn schedule_delay_respects_round_structure() {
    // Delay during a silent round does not propagate until the next
    // communicating round.
    let ring = CommGraph::from_sends((0..6).map(|r| vec![(r + 1) % 6]).collect());
    let silent = CommGraph::silent(6);
    let mut c = flat(6, Direction::Unidirectional, Boundary::Periodic, 8);
    c.schedule = Some(CommSchedule::cyclic(vec![silent, ring]));
    c.injections = InjectionPlan::single(2, 0, MS.times(5));
    let t = run(&c);
    let baseline = SimDuration::from_micros(100);
    // Step 0 is silent: nobody waits on rank 2 yet.
    for r in 0..6 {
        assert!(t.record(r, 0).comm_duration() <= baseline);
    }
    // Step 1 communicates: rank 3 eats the wave.
    assert!(t.record(3, 1).idle_beyond(baseline) > MS.times(4));
}

#[test]
fn asymmetric_custom_graph_star_topology() {
    // A star: every leaf sends to hub 0; the hub sends to nobody. A leaf
    // delay stalls only the hub.
    let mut sends = vec![Vec::new(); 6];
    for leaf in 1..6u32 {
        sends[leaf as usize] = vec![0];
    }
    let star = CommGraph::from_sends(sends);
    let mut c = flat(6, Direction::Unidirectional, Boundary::Periodic, 6);
    c.schedule = Some(CommSchedule::uniform(star));
    c.injections = InjectionPlan::single(3, 0, MS.times(6));
    let t = run(&c);
    let baseline = SimDuration::from_micros(100);
    assert!(
        t.record(0, 0).idle_beyond(baseline) > MS.times(5),
        "hub must wait"
    );
    for leaf in [1u32, 2, 4, 5] {
        assert!(
            t.record(leaf, 0).idle_beyond(baseline) < MS,
            "leaf {leaf} has no dependency on the delayed leaf"
        );
    }
}

#[test]
fn heavy_noise_on_rendezvous_ring_terminates() {
    // A deadlock stress: strong noise, rendezvous handshakes, periodic
    // ring, serialized sends — 80 ranks, 30 steps.
    let mut c = flat(80, Direction::Bidirectional, Boundary::Periodic, 30);
    c.protocol = Protocol::Rendezvous;
    c.serialize_sends = true;
    c.noise = DelayDistribution::Exponential {
        mean: SimDuration::from_micros(500),
    };
    c.injections = InjectionPlan::single(11, 2, MS.times(40));
    let (t, stats) = Engine::new(c)
        .try_run_with_stats(&RunLimits::none())
        .expect("completes");
    assert_eq!(t.ranks(), 80);
    assert_eq!(stats.messages, 2 * 80 * 30);
}

#[test]
fn empirical_noise_drives_the_engine() {
    let mut c = flat(8, Direction::Unidirectional, Boundary::Periodic, 10);
    c.noise = DelayDistribution::empirical(vec![
        SimDuration::from_micros(5),
        SimDuration::from_micros(50),
        SimDuration::from_micros(500),
    ]);
    let t = run(&c);
    // Every phase's recorded noise is one of the three values.
    for rec in t.iter() {
        let ns = rec.noise.nanos();
        assert!(
            [5_000, 50_000, 500_000].contains(&ns),
            "unexpected noise {ns}"
        );
    }
    let mut c2 = flat(8, Direction::Unidirectional, Boundary::Periodic, 10);
    c2.noise = DelayDistribution::empirical(vec![SimDuration::from_micros(5)]);
    assert!(run_twice_equal(&c2));
}

fn run_twice_equal(c: &SimConfig) -> bool {
    run(c) == run(c)
}

#[test]
fn mixed_injection_and_imbalance_compose() {
    let mut c = flat(6, Direction::Bidirectional, Boundary::Periodic, 12);
    c.imbalance = vec![1.0, 1.0, 1.05, 1.0, 1.0, 1.0];
    c.injections = InjectionPlan::single(4, 1, MS.times(3));
    let t = run(&c);
    // The imbalanced rank's work phase is 5% longer every step...
    assert_eq!(t.record(2, 0).exec_duration(), MS.mul_f64(1.05));
    // ...and the injected rank pays its delay on top of waiting.
    assert_eq!(t.record(4, 1).injected, MS.times(3));
}

#[test]
fn loggops_injection_gap_paces_serialized_sends() {
    // Tiny payloads on a LogGOPS link with a large injection gap g: with
    // send serialisation, a rank's second send cannot leave before g has
    // elapsed, so the bidirectional comm phase is dominated by g.
    use netmodel::LogGops;
    let gap = SimDuration::from_millis(2);
    let link = PointToPoint::LogGops(LogGops {
        l: SimDuration::from_micros(1),
        o: SimDuration::from_nanos(100),
        g: gap,
        big_g_per_byte: 1e-12, // payload time negligible
        big_o_per_byte: 0.0,
    });
    let mut c = SimConfig::baseline(
        ClusterNetwork::flat(6, link),
        CommPattern::next_neighbor(Direction::Bidirectional, Boundary::Periodic),
        3,
    );
    c.protocol = Protocol::Eager;
    c.exec = workload::ExecModel::Compute { duration: MS };
    c.msg_bytes = 64;

    let fast = run(&c); // overlapping sends: comm ~ one transfer
    let mut paced_cfg = c.clone();
    paced_cfg.serialize_sends = true;
    let paced = run(&paced_cfg);

    let comm_fast = fast.record(2, 0).comm_duration();
    let comm_paced = paced.record(2, 0).comm_duration();
    assert!(
        comm_fast < SimDuration::from_micros(50),
        "fast comm {comm_fast}"
    );
    // Second send leaves g after the first: the receive depending on it
    // completes ~g later.
    assert!(
        comm_paced >= gap,
        "paced comm {comm_paced} should be dominated by the injection gap"
    );
}
