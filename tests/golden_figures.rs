//! Golden-figure regression tests.
//!
//! Each test regenerates a paper figure's data series at `Scale::Quick`
//! and compares it against checked-in expectations with a numeric
//! tolerance (never string equality). Because the whole pipeline is
//! deterministic — integer-nanosecond simulation time plus the in-tree
//! xoshiro256++ streams — the tolerances can be tight; their job is to
//! let the comparison survive benign float-formatting differences while
//! still failing loudly on any behavioural change to the simulator,
//! noise model, RNG streams, or analysis code.
//!
//! Regenerating the goldens after an *intentional* change:
//!
//! ```text
//! GOLDEN_REGEN=1 cargo test --test golden_figures -- --nocapture
//! ```
//!
//! prints every table as Rust literals ready to paste back into this
//! file.

use bench::{fig4, fig6, fig7, fig8, throughput, Scale};

/// Tolerance for millisecond-valued times: goldens are stored at 0.1 µs
/// print precision, so even a microsecond-level behavioural shift in the
/// communication model trips the comparison.
const MS_TOL: f64 = 1e-4;

fn regen() -> bool {
    std::env::var_os("GOLDEN_REGEN").is_some()
}

#[track_caller]
fn assert_close(actual: f64, expected: f64, tol: f64, what: &str) {
    let err = (actual - expected).abs();
    let bound = tol * expected.abs().max(1.0);
    assert!(
        err <= bound,
        "{what}: actual {actual} vs golden {expected} (err {err:e} > {bound:e})"
    );
}

// ---------------------------------------------------------------- Fig. 4

/// (rank, step, arrival [ms], idle amplitude [ms]) per wave arrival.
const FIG4_ARRIVALS: &[(u32, u32, f64, f64)] = &[
    (6, 0, 3.0000, 13.5000),
    (7, 1, 6.0044, 13.5000),
    (8, 2, 9.0089, 13.5000),
    (9, 3, 12.0133, 13.5000),
];
const FIG4_SPEED_RATIO: f64 = 1.0;

#[test]
fn fig4_basic_propagation_matches_golden() {
    let f = fig4::generate(Scale::Quick);
    if regen() {
        println!("const FIG4_ARRIVALS: &[(u32, u32, f64, f64)] = &[");
        for a in &f.arrivals {
            println!(
                "    ({}, {}, {:.4}, {:.4}),",
                a.rank,
                a.step,
                a.time.as_millis_f64(),
                a.amplitude.as_millis_f64()
            );
        }
        println!("];");
        println!("const FIG4_SPEED_RATIO: f64 = {:.6};", f.speed_ratio);
        return;
    }
    assert_eq!(
        f.arrivals.len(),
        FIG4_ARRIVALS.len(),
        "arrival count drifted"
    );
    for (a, &(rank, step, time_ms, idle_ms)) in f.arrivals.iter().zip(FIG4_ARRIVALS) {
        assert_eq!((a.rank, a.step), (rank, step), "front shape drifted");
        assert_close(a.time.as_millis_f64(), time_ms, MS_TOL, "arrival time");
        assert_close(a.amplitude.as_millis_f64(), idle_ms, MS_TOL, "amplitude");
    }
    assert_close(f.speed_ratio, FIG4_SPEED_RATIO, 1e-6, "Eq. 2 speed ratio");
}

// ------------------------------------------------- Fig. 4 at 1024 ranks

/// `Trace::fingerprint` of the 1024-rank Fig. 4 wave — the throughput
/// bench's optimization target scenario (`BENCH_*.json`, wave-1024).
/// Fingerprint-only rather than a full arrival table to keep the repo
/// small; any behavioural change to the engine, event queue, RNG
/// streams, or trace recording at this scale trips it.
const FIG4_WAVE_1024_FINGERPRINT: u64 = 0x722a9d145052dda4;

#[test]
fn fig4_wave_1024_fingerprint_matches_golden() {
    let cfg = throughput::wave_config(1024, 64);
    let trace = mpisim::run(&cfg);
    if regen() {
        println!(
            "const FIG4_WAVE_1024_FINGERPRINT: u64 = {:#018x};",
            trace.fingerprint()
        );
        return;
    }
    assert_eq!(
        trace.fingerprint(),
        FIG4_WAVE_1024_FINGERPRINT,
        "1024-rank wave trace drifted (fingerprint {:#018x})",
        trace.fingerprint()
    );
}

// ---------------------------------------------------------------- Fig. 6

/// (label, extinction step or -1 for "alive at end", total idle [ms],
/// per-step active-wave counts).
const FIG6_VARIANTS: &[(&str, i64, f64, &[u32])] = &[
    (
        "(a) equal",
        4,
        338.0,
        &[8, 8, 8, 4, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    ),
    (
        "(b) half",
        8,
        350.0,
        &[8, 8, 8, 4, 4, 4, 4, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    ),
    (
        "(c) random",
        16,
        386.9,
        &[8, 8, 8, 4, 3, 3, 3, 2, 2, 2, 2, 2, 2, 2, 2, 1, 0, 0, 0, 0],
    ),
];

#[test]
fn fig6_wave_interaction_matches_golden() {
    let vs = fig6::generate(Scale::Quick);
    if regen() {
        println!("const FIG6_VARIANTS: &[(&str, i64, f64, &[u32])] = &[");
        for v in &vs {
            let ext = v.profile.extinction_step.map_or(-1, i64::from);
            println!(
                "    (\"{}\", {ext}, {:.1}, &{:?}),",
                v.label,
                v.profile.total_idle.as_millis_f64(),
                v.profile.per_step
            );
        }
        println!("];");
        return;
    }
    assert_eq!(vs.len(), FIG6_VARIANTS.len());
    for (v, &(label, ext, idle_ms, per_step)) in vs.iter().zip(FIG6_VARIANTS) {
        assert_eq!(v.label, label);
        assert_eq!(
            v.profile.extinction_step.map_or(-1, i64::from),
            ext,
            "{label}: extinction step drifted"
        );
        assert_eq!(
            v.profile.per_step, per_step,
            "{label}: activity profile drifted"
        );
        assert_close(
            v.profile.total_idle.as_millis_f64(),
            idle_ms,
            2e-4, // golden stored at 0.1 ms print precision
            &format!("{label}: total idle"),
        );
    }
}

// ---------------------------------------------------------------- Fig. 7

/// (label, measured speed [ranks/s], Eq. 2 prediction [ranks/s]).
const FIG7_PANELS: &[(&str, f64, f64)] = &[
    ("(a) unidirectional d=2", 664.93, 664.93),
    ("(b) bidirectional d=2", 1329.86, 1329.86),
];

#[test]
fn fig7_distance2_speeds_match_golden() {
    let ps = fig7::generate(Scale::Quick);
    if regen() {
        println!("const FIG7_PANELS: &[(&str, f64, f64)] = &[");
        for p in &ps {
            println!(
                "    (\"{}\", {:.2}, {:.2}),",
                p.label, p.measured, p.predicted
            );
        }
        println!("];");
        return;
    }
    assert_eq!(ps.len(), FIG7_PANELS.len());
    for (p, &(label, measured, predicted)) in ps.iter().zip(FIG7_PANELS) {
        assert_eq!(p.label, label);
        assert_close(p.measured, measured, 1e-4, &format!("{label}: measured"));
        assert_close(p.predicted, predicted, 1e-4, &format!("{label}: predicted"));
    }
    // The headline claim of the figure: σ = 2 doubles the d = 2 speed.
    assert_close(
        ps[1].measured / ps[0].measured,
        2.0,
        1e-3,
        "bidirectional doubling",
    );
}

// ---------------------------------------------------------------- Fig. 8

/// (system, E [%], median, min, max decay rate [µs/rank]) per scan row.
const FIG8_ROWS: &[(&str, f64, f64, f64, f64)] = &[
    ("InfiniBand system", 2.0, 60.2, 30.0, 79.0),
    ("InfiniBand system", 6.0, 182.3, 95.6, 241.3),
    ("InfiniBand system", 10.0, 304.4, 161.2, 403.5),
    ("Omni-Path system", 2.0, 60.7, 31.6, 80.2),
    ("Omni-Path system", 6.0, 182.8, 97.2, 242.5),
    ("Omni-Path system", 10.0, 304.9, 162.9, 404.8),
    ("Simulated system", 2.0, 59.1, 26.2, 76.4),
    ("Simulated system", 6.0, 181.2, 91.8, 238.4),
    ("Simulated system", 10.0, 303.3, 157.4, 400.6),
];

#[test]
fn fig8_decay_vs_noise_matches_golden() {
    let scans = fig8::generate(Scale::Quick);
    if regen() {
        println!("const FIG8_ROWS: &[(&str, f64, f64, f64, f64)] = &[");
        for scan in &scans {
            for r in &scan.rows {
                println!(
                    "    (\"{}\", {:.1}, {:.1}, {:.1}, {:.1}),",
                    scan.system, r.e_percent, r.summary.median, r.summary.min, r.summary.max
                );
            }
        }
        println!("];");
        return;
    }
    let rows: Vec<_> = scans
        .iter()
        .flat_map(|s| s.rows.iter().map(move |r| (s.system, r)))
        .collect();
    assert_eq!(rows.len(), FIG8_ROWS.len(), "scan shape drifted");
    for ((system, r), &(g_system, g_e, g_median, g_min, g_max)) in rows.iter().zip(FIG8_ROWS) {
        assert_eq!(*system, g_system);
        let what = format!("{system} @ E={g_e}%");
        assert_close(r.e_percent, g_e, 1e-12, &format!("{what}: level"));
        // Decay rates are stored at 0.1 µs/rank print precision.
        assert_close(r.summary.median, g_median, 5e-3, &format!("{what}: median"));
        assert_close(r.summary.min, g_min, 5e-3, &format!("{what}: min"));
        assert_close(r.summary.max, g_max, 5e-3, &format!("{what}: max"));
    }
}
