//! Integration tests of the tooling chain through the public facade:
//! config serialisation, trace export, seed loops, and the extension
//! analyses working together.

use idle_waves::idlewave::{continuum, spectrum, WaveExperiment, WaveTrace};
use idle_waves::prelude::*;

const MS: SimDuration = SimDuration::from_millis(1);

#[test]
fn config_json_round_trip_reproduces_the_run() {
    let cfg = WaveExperiment::flat_chain(10)
        .direction(Direction::Bidirectional)
        .boundary(Boundary::Periodic)
        .rendezvous()
        .texec(MS.times(2))
        .steps(8)
        .inject(3, 1, MS.times(5))
        .noise_percent(4.0)
        .seed(77)
        .into_config();
    let original = idle_waves::mpisim::run(&cfg);

    let json = idle_waves::tracefmt::json::to_string(&cfg);
    let back: SimConfig = idle_waves::tracefmt::json::from_str(&json).expect("config parses");
    assert_eq!(cfg, back, "config must round-trip losslessly");
    let replayed = idle_waves::mpisim::run(&back);
    assert_eq!(
        original, replayed,
        "a stored config must replay bit-exactly"
    );
}

#[test]
fn trace_exports_are_mutually_consistent() {
    let wt = WaveExperiment::flat_chain(6)
        .texec(MS)
        .steps(4)
        .inject(2, 0, MS.times(3))
        .run();
    let csv = idle_waves::tracefmt::to_csv(&wt.trace);
    // One row per (rank, step) plus the header.
    assert_eq!(csv.lines().count(), 6 * 4 + 1);
    // The CSV's comm_end values agree with the trace API.
    let last_line = csv.lines().last().unwrap();
    let fields: Vec<&str> = last_line.split(',').collect();
    let rank: u32 = fields[0].parse().unwrap();
    let step: u32 = fields[1].parse().unwrap();
    let comm_end: u64 = fields[4].parse().unwrap();
    assert_eq!(wt.trace.record(rank, step).comm_end.nanos(), comm_end);

    // SVG and ASCII render the same run without panicking and show the
    // injected delay.
    let svg =
        idle_waves::tracefmt::svg_timeline(&wt.trace, &idle_waves::tracefmt::SvgOptions::default());
    assert!(svg.contains("#3465a4"), "delay colour missing");
    let ascii = ascii_timeline(&wt.trace, &AsciiOptions::default());
    assert!(ascii.contains('D'));
}

#[test]
fn batch_spectrum_continuum_compose() {
    // A small statistical pipeline using the extension modules together:
    // run 6 seeds, extract each run's structure history, and check the
    // continuum's silent-speed prediction against each.
    let base = WaveExperiment::flat_chain(16)
        .boundary(Boundary::Periodic)
        .texec(MS.times(2))
        .steps(18)
        .inject(4, 0, MS.times(8))
        .into_config();
    let mut runs = Vec::new();
    for seed in 0..6 {
        let mut cfg = base.clone();
        cfg.seed = seed;
        runs.push(WaveTrace::from_config(cfg));
    }

    let model = continuum::ContinuumModel::silent(&base);
    for wt in &runs {
        // Silent system: all runs identical regardless of seed.
        assert_eq!(wt.trace, runs[0].trace);
        // The travelling wave leaves a mode-1 signature mid-run.
        let front = wt.trace.step_front(9);
        let skew = spectrum::step_skew_signal(&front);
        assert_eq!(spectrum::dominant_mode(&skew).mode, 1);
        // Continuum survival: no decay on a silent ring.
        assert_eq!(model.survival_hops(MS.times(8)), u32::MAX);
    }
}

#[test]
fn the_workspace_is_simlint_clean() {
    // The linter the CI runs must also pass from the test suite, so a
    // regression is caught even where CI is not wired. CARGO_MANIFEST_DIR
    // is the workspace root for the umbrella crate.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let report = idle_waves::simcheck::lint::lint_workspace(root).expect("workspace scan");
    assert!(
        report.files_scanned > 100,
        "scan looks incomplete: {} files",
        report.files_scanned
    );
    let rendered: Vec<String> = report.violations.iter().map(ToString::to_string).collect();
    assert!(
        report.is_clean(),
        "simlint violations:\n{}",
        rendered.join("\n")
    );
}

#[test]
fn committed_analyze_goldens_match_the_prediction() {
    // scripts/verify.sh diffs `wavesim analyze` output against the
    // goldens under tests/goldens/analyze/; this test pins the same
    // contract through the library API, so `cargo test` alone catches
    // drift between the budget model and the committed reports.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    for name in ["fig4-quick", "rendezvous-ring", "noisy-decay"] {
        let cfg_text = std::fs::read_to_string(root.join(format!("examples/configs/{name}.json")))
            .expect("committed example config");
        let cfg: SimConfig =
            idle_waves::tracefmt::json::from_str(&cfg_text).expect("example config parses");
        let report = idle_waves::simcheck::budget::budget(&cfg);
        let golden =
            std::fs::read_to_string(root.join(format!("tests/goldens/analyze/{name}.json")))
                .expect("committed analyze golden");
        assert_eq!(
            idle_waves::tracefmt::json::to_string(&report),
            golden.trim(),
            "{name}: analyze golden drifted — regenerate with \
             `wavesim analyze --config examples/configs/{name}.json`"
        );
    }
}

#[test]
fn wave_trace_accessors_are_consistent_with_raw_trace() {
    let wt: WaveTrace = WaveExperiment::flat_chain(8)
        .texec(MS)
        .steps(5)
        .inject(2, 0, MS.times(4))
        .run();
    for r in 0..8 {
        let total: SimDuration = (0..5).map(|s| wt.idle(r, s)).sum();
        assert_eq!(total, wt.total_idle(r), "rank {r}");
        let (step, max) = wt.max_idle(r);
        assert_eq!(max, wt.idle(r, step));
    }
    assert_eq!(wt.total_runtime(), wt.trace.total_runtime());
}
