//! Checkpoint/restart integration tests: the correctness contract is
//! that for *any* cut point, restoring a snapshot and finishing the run
//! produces a trace bit-identical to the uninterrupted run — across
//! seeds, protocols, fault plans, on-disk round trips, and threads. The
//! rejection paths are also pinned here: a torn or tampered file, a
//! future format version, and a mismatched config must each fail with
//! their own diagnostic code (`RT004`, `RT003`, `RT005`) rather than a
//! panic or a silently wrong resume.

use idle_waves::mpisim::{
    CheckpointPolicy, Engine, FaultPlan, RunLimits, SimError, Snapshot, SNAPSHOT_VERSION,
};
use idle_waves::prelude::*;
use idle_waves::tracefmt::fnv1a_64;

const MS: SimDuration = SimDuration::from_millis(1);

/// A stochastic config covering every ordering-sensitive code path:
/// random topology, protocol, seed, one injected delay, and (half the
/// time) message-drop faults with retransmission.
fn random_config(g: &mut Gen) -> SimConfig {
    let ranks = g.u32(4, 8);
    let steps = g.u32(3, 6);
    let mut e = WaveExperiment::flat_chain(ranks)
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
        .texec(MS)
        .steps(steps)
        .seed(g.any_u64());
    e = match g.u32(0, 2) {
        0 => e.eager(),
        1 => e.rendezvous(),
        _ => e,
    };
    if g.bool() {
        e = e.inject(g.u32(0, ranks - 1), g.u32(0, steps - 1), MS.times(5));
    }
    let mut cfg = e.into_config();
    if g.bool() {
        cfg.faults = FaultPlan::none().with_drops(g.f64(0.05, 0.3), SimDuration::from_micros(100));
    }
    cfg
}

/// Run `cfg` to completion, also capturing the first snapshot taken
/// after `cut` delivered events (None when the run is shorter than
/// that).
fn run_with_cut(cfg: &SimConfig, cut: u64) -> (Trace, Option<Snapshot>) {
    let policy = CheckpointPolicy {
        every_sim_time: None,
        every_events: Some(cut),
    };
    let mut first: Option<Snapshot> = None;
    let (trace, _) = Engine::try_new(cfg.clone())
        .expect("valid config")
        .try_run_checkpointed(&RunLimits::none(), &policy, |s| {
            if first.is_none() {
                first = Some(s.clone());
            }
        })
        .expect("uninterrupted run completes");
    (trace, first)
}

#[test]
fn restore_matches_uninterrupted_run_for_any_cut_point() {
    for_all("checkpoint restore is bit-identical", 40, |g: &mut Gen| {
        let cfg = random_config(g);
        let cut = g.u64(1, 60);
        let (full, snap) = run_with_cut(&cfg, cut);
        let Some(snap) = snap else {
            return; // run delivered fewer than `cut` events: nothing to resume
        };
        // Round-trip through the on-disk format before resuming, so the
        // property also covers serialization, not just in-memory state.
        let decoded = Snapshot::decode(snap.encode().as_bytes()).expect("own encoding decodes");
        let resumed = Engine::restore(cfg, &decoded)
            .expect("valid snapshot")
            .try_run_with_stats(&RunLimits::none())
            .expect("resumed run completes")
            .0;
        assert_eq!(
            resumed.fingerprint(),
            full.fingerprint(),
            "fingerprint diverged after resuming at cut {cut}"
        );
        assert_eq!(resumed, full, "trace diverged after resuming at cut {cut}");
    });
}

/// Random cut points over a *calendar-scale* run: at 96 ranks with a 3 ms
/// execution phase, the engine's calendar queue holds events spread across
/// the active run, future year buckets, and the overflow segment (each
/// step schedules a full execution phase ahead — past the fitted year), so
/// the snapshot's `pending` view and `EventQueue::restore` are exercised
/// over every segment of a partially drained calendar, not just a handful
/// of heap entries. Resume must stay bit-identical regardless of which
/// segment each pending event sat in.
#[test]
fn calendar_queue_cuts_resume_bit_identically_at_scale() {
    for_all("calendar cuts resume bit-identically", 12, |g: &mut Gen| {
        let ranks = 96;
        let cfg = WaveExperiment::flat_chain(ranks)
            .texec(SimDuration::from_millis(3))
            .steps(5)
            .inject(g.u32(0, ranks - 1), 0, SimDuration::from_millis(13))
            .seed(g.any_u64())
            .into_config();
        // Cuts land anywhere in the run, including mid-generation where
        // a tie batch is half delivered and the rest still queued.
        let cut = g.u64(1, u64::from(ranks) * 8);
        let (full, snap) = run_with_cut(&cfg, cut);
        let Some(snap) = snap else { return };
        let decoded = Snapshot::decode(snap.encode().as_bytes()).expect("own encoding decodes");
        let resumed = Engine::restore(cfg, &decoded)
            .expect("valid snapshot")
            .try_run_with_stats(&RunLimits::none())
            .expect("resumed run completes")
            .0;
        assert_eq!(
            resumed.fingerprint(),
            full.fingerprint(),
            "fingerprint diverged after resuming at cut {cut}"
        );
        assert_eq!(resumed, full, "trace diverged after resuming at cut {cut}");
    });
}

/// Splicing the body of one run's snapshot with the footer of another —
/// the realistic "restored the wrong file half" corruption — must be
/// rejected as RT004 (digest mismatch), not silently restored.
#[test]
fn cross_restore_corruption_is_rejected_as_rt004() {
    let mut g = Gen::from_seed(0x5EED5);
    let cfg_a = random_config(&mut g);
    let cfg_b = random_config(&mut g);
    let (_, snap_a) = run_with_cut(&cfg_a, 8);
    let (_, snap_b) = run_with_cut(&cfg_b, 8);
    let text_a = snap_a.expect("snapshot captured").encode();
    let text_b = snap_b.expect("snapshot captured").encode();
    let body_a = text_a.split('\n').next().expect("body line");
    let footer_b = text_b.split('\n').nth(1).expect("footer line");
    let spliced = format!("{body_a}\n{footer_b}\n");
    assert_eq!(
        rejection_code(Snapshot::decode(spliced.as_bytes()).unwrap_err()),
        "RT004",
        "a snapshot body under another run's footer must fail the digest check"
    );
}

#[test]
fn restored_runs_are_identical_across_threads() {
    let mut g = Gen::from_seed(0xC4EC4);
    let mut cfg = random_config(&mut g);
    cfg.faults = FaultPlan::none().with_drops(0.2, SimDuration::from_micros(120));
    let (full, snap) = run_with_cut(&cfg, 20);
    let want = full.fingerprint();
    let bytes = snap.expect("busy run outlives the cut").encode();
    let handles: Vec<_> = (0..4)
        .map(|_| {
            let bytes = bytes.clone();
            let cfg = cfg.clone();
            std::thread::spawn(move || {
                let snap = Snapshot::decode(bytes.as_bytes()).expect("decode");
                Engine::restore(cfg, &snap)
                    .expect("restore")
                    .try_run_with_stats(&RunLimits::none())
                    .expect("resumed run completes")
                    .0
                    .fingerprint()
            })
        })
        .collect();
    for h in handles {
        assert_eq!(h.join().expect("no panic"), want);
    }
}

/// The diagnostic code a failed restore/decode came back with.
fn rejection_code(err: SimError) -> String {
    match err {
        SimError::Snapshot(d) => d.code.to_string(),
        other => panic!("expected a snapshot rejection, got: {other}"),
    }
}

#[test]
fn rejection_paths_have_distinct_diagnostic_codes() {
    let mut g = Gen::from_seed(0xBADF11E);
    let cfg = {
        let mut c = random_config(&mut g);
        c.faults = FaultPlan::none();
        c
    };
    let (_, snap) = run_with_cut(&cfg, 10);
    let text = snap.expect("snapshot captured").encode();

    // Torn file: the footer line never made it to disk.
    let body = text.split('\n').next().expect("body line");
    assert_eq!(
        rejection_code(Snapshot::decode(body.as_bytes()).unwrap_err()),
        "RT004"
    );

    // Corrupt file: one flipped byte in the body breaks the digest.
    let mut flipped = text.clone().into_bytes();
    flipped[10] ^= 0x20;
    assert_eq!(
        rejection_code(Snapshot::decode(&flipped).unwrap_err()),
        "RT004"
    );

    // Future format version, with a *valid* digest so only the version
    // check can reject it.
    let versioned = body.replacen(
        &format!("\"version\":{SNAPSHOT_VERSION}"),
        "\"version\":99",
        1,
    );
    assert_ne!(versioned, body, "version field not found in the body");
    let tampered = format!(
        "{versioned}\n{{\"snapshot_digest\":{}}}\n",
        fnv1a_64(versioned.as_bytes())
    );
    assert_eq!(
        rejection_code(Snapshot::decode(tampered.as_bytes()).unwrap_err()),
        "RT003"
    );

    // Config mismatch: the snapshot is intact but belongs to a different
    // experiment.
    let snap = Snapshot::decode(text.as_bytes()).expect("intact snapshot");
    let mut other = cfg;
    other.seed = other.seed.wrapping_add(1);
    assert_eq!(
        rejection_code(Engine::restore(other, &snap).err().expect("seed differs")),
        "RT005"
    );
}
