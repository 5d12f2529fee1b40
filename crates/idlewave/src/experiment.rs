//! Ergonomic construction of idle-wave experiments.
//!
//! [`WaveExperiment`] is a builder over `mpisim::SimConfig` covering the
//! paper's experimental grid: chain length and placement, communication
//! direction/distance/boundary, protocol (by message size or forced),
//! execution-phase length, injected delays, noise level, and seed. The
//! result of a run is a [`WaveTrace`], which pairs the raw trace with the
//! analytic baselines needed by all analyses.

use mpisim::{
    nominal_comm_duration, nominal_step_duration, run, Diagnostic, Engine, Protocol, RunLimits,
    SimConfig,
};
use netmodel::{ClusterNetwork, Hockney, PointToPoint};
use noise_model::{presets, DelayDistribution, InjectionPlan};
use simdes::{SimDuration, SimTime};
use tracefmt::Trace;
use workload::{Boundary, CommPattern, CommSchedule, Direction, ExecModel};

/// Builder for idle-wave experiments.
#[derive(Debug, Clone)]
pub struct WaveExperiment {
    cfg: SimConfig,
}

impl WaveExperiment {
    /// A flat chain of `ranks` single-core nodes on an InfiniBand-like
    /// link — the configuration of the paper's controlled experiments
    /// (one process per node, Sec. IV). Defaults: unidirectional open
    /// next-neighbour pattern, 3 ms compute phases, 8192-byte messages,
    /// protocol by size, 20 steps, no delays, no noise.
    pub fn flat_chain(ranks: u32) -> Self {
        let link = PointToPoint::Hockney(Hockney::new(SimDuration::from_micros_f64(1.7), 3e9));
        let net = ClusterNetwork::flat(ranks, link);
        let cfg = SimConfig::baseline(
            net,
            CommPattern::next_neighbor(Direction::Unidirectional, Boundary::Open),
            20,
        );
        WaveExperiment { cfg }
    }

    /// Start from an explicit placed job (e.g. a `netmodel::presets`
    /// machine) for multi-rank-per-node experiments (Figs. 6, 9).
    pub fn on_network(net: ClusterNetwork) -> Self {
        let cfg = SimConfig::baseline(
            net,
            CommPattern::next_neighbor(Direction::Bidirectional, Boundary::Periodic),
            20,
        );
        WaveExperiment { cfg }
    }

    /// Set the communication direction.
    pub fn direction(mut self, d: Direction) -> Self {
        self.cfg.pattern.direction = d;
        self
    }

    /// Set the boundary condition.
    pub fn boundary(mut self, b: Boundary) -> Self {
        self.cfg.pattern.boundary = b;
        self
    }

    /// Set the neighbour distance `d`.
    pub fn distance(mut self, d: u32) -> Self {
        self.cfg.pattern.distance = d;
        self
    }

    /// Use an explicit per-step communication schedule (collectives and
    /// irregular graphs), overriding the regular pattern.
    pub fn schedule(mut self, s: CommSchedule) -> Self {
        self.cfg.schedule = Some(s);
        self
    }

    /// Set the message size in bytes (protocol may switch if `Auto`).
    pub fn msg_bytes(mut self, bytes: u64) -> Self {
        self.cfg.msg_bytes = bytes;
        self
    }

    /// Force the eager protocol regardless of size.
    pub fn eager(mut self) -> Self {
        self.cfg.protocol = Protocol::Eager;
        self
    }

    /// Force the rendezvous protocol regardless of size.
    pub fn rendezvous(mut self) -> Self {
        self.cfg.protocol = Protocol::Rendezvous;
        self
    }

    /// Set the execution-phase length of the compute-bound model.
    pub fn texec(mut self, t: SimDuration) -> Self {
        self.cfg.exec = ExecModel::Compute { duration: t };
        self
    }

    /// Use an explicit execution model (e.g. memory-bound).
    pub fn exec_model(mut self, m: ExecModel) -> Self {
        self.cfg.exec = m;
        self
    }

    /// Set the number of bulk-synchronous steps.
    pub fn steps(mut self, n: u32) -> Self {
        self.cfg.steps = n;
        self
    }

    /// Add one injected delay (accumulates with earlier calls).
    pub fn inject(mut self, rank: u32, step: u32, duration: SimDuration) -> Self {
        let mut list = self.cfg.injections.injections().to_vec();
        list.push(noise_model::Injection {
            rank,
            step,
            duration,
        });
        self.cfg.injections = InjectionPlan::from_list(list);
        self
    }

    /// Replace the whole injection plan.
    pub fn injections(mut self, plan: InjectionPlan) -> Self {
        self.cfg.injections = plan;
        self
    }

    /// Inject exponential application noise at level `E` percent of the
    /// current compute-phase duration (paper Eq. 3).
    ///
    /// # Panics
    ///
    /// If the execution model is not compute-bound — `E` is defined
    /// relative to a fixed `T_exec`.
    pub fn noise_percent(mut self, e: f64) -> Self {
        let t_exec = match self.cfg.exec {
            ExecModel::Compute { duration } => duration,
            ExecModel::MemoryBound { .. } => {
                panic!("noise_percent requires a compute-bound execution model")
            }
        };
        self.cfg.noise = presets::application_noise(e, t_exec);
        self
    }

    /// Use an explicit noise distribution (e.g. a `presets::SystemPreset`).
    pub fn noise(mut self, d: DelayDistribution) -> Self {
        self.cfg.noise = d;
        self
    }

    /// Attach a fault plan: message drop/corruption with retransmission,
    /// link degradation windows, rank stalls and crashes (see
    /// `docs/FAULTS.md`).
    pub fn faults(mut self, plan: mpisim::FaultPlan) -> Self {
        self.cfg.faults = plan;
        self
    }

    /// Set the master seed.
    pub fn seed(mut self, s: u64) -> Self {
        self.cfg.seed = s;
        self
    }

    /// The underlying configuration.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// Consume the builder, returning the configuration.
    pub fn into_config(self) -> SimConfig {
        self.cfg
    }

    /// Static analysis of the configuration as built so far, without
    /// running anything: every `simcheck` diagnostic, including warnings
    /// like the SC001 rendezvous wait-cycle and the SC008 truncated-wave
    /// prediction.
    pub fn analyze(&self) -> Vec<Diagnostic> {
        simcheck::analyze(&self.cfg)
    }

    /// Run the experiment.
    ///
    /// # Panics
    ///
    /// If the configuration fails the `simcheck` pre-check with
    /// error-severity diagnostics.
    pub fn run(self) -> WaveTrace {
        WaveTrace::from_config(self.cfg)
    }

    /// Run the experiment, returning the analyzer's error diagnostics
    /// instead of panicking on an invalid configuration.
    pub fn try_run(self) -> Result<WaveTrace, Vec<Diagnostic>> {
        WaveTrace::try_from_config(self.cfg)
    }
}

/// A completed run plus the analytic baselines all analyses need.
#[derive(Debug, Clone)]
pub struct WaveTrace {
    /// The configuration that produced the trace.
    pub cfg: SimConfig,
    /// The raw per-phase trace.
    pub trace: Trace,
    /// Communication-phase duration on an undisturbed run.
    pub baseline_comm: SimDuration,
    /// `T_exec + T_comm`, the denominator of Eq. 2.
    pub step_duration: SimDuration,
}

impl WaveTrace {
    /// Simulate `cfg` and wrap the result.
    ///
    /// # Panics
    ///
    /// If the configuration fails the `simcheck` pre-check with
    /// error-severity diagnostics; the panic message is the rendered
    /// report. Use [`WaveTrace::try_from_config`] to handle them instead.
    pub fn from_config(cfg: SimConfig) -> Self {
        simcheck::validate_strict(&cfg);
        let trace = run(&cfg);
        WaveTrace::wrap(cfg, trace)
    }

    /// Like [`WaveTrace::from_config`], but both an invalid configuration
    /// and a run-time failure (deadlock/stall, `RT001`) come back as
    /// diagnostics instead of a panic.
    pub fn try_from_config(cfg: SimConfig) -> Result<Self, Vec<Diagnostic>> {
        let errors: Vec<Diagnostic> = simcheck::analyze(&cfg)
            .into_iter()
            .filter(Diagnostic::is_error)
            .collect();
        if !errors.is_empty() {
            return Err(errors);
        }
        let (trace, _) = Engine::try_new(cfg.clone())
            .and_then(|e| e.try_run_with_stats(&RunLimits::none()))
            .map_err(|e| e.into_diagnostics())?;
        Ok(WaveTrace::wrap(cfg, trace))
    }

    fn wrap(cfg: SimConfig, trace: Trace) -> Self {
        let baseline_comm = nominal_comm_duration(&cfg);
        let step_duration = nominal_step_duration(&cfg);
        WaveTrace {
            cfg,
            trace,
            baseline_comm,
            step_duration,
        }
    }

    /// Idle time of `(rank, step)` beyond the communication baseline.
    pub fn idle(&self, rank: u32, step: u32) -> SimDuration {
        self.trace
            .record(rank, step)
            .idle_beyond(self.baseline_comm)
    }

    /// Largest idle of `rank` over all steps, with the step it occurred in.
    pub fn max_idle(&self, rank: u32) -> (u32, SimDuration) {
        (0..self.trace.steps())
            .map(|s| (s, self.idle(rank, s)))
            .max_by_key(|&(_, d)| d)
            .expect("at least one step")
    }

    /// First step in which `rank` idles longer than `threshold`.
    pub fn first_idle_step(&self, rank: u32, threshold: SimDuration) -> Option<u32> {
        (0..self.trace.steps()).find(|&s| self.idle(rank, s) > threshold)
    }

    /// Total idle time of `rank` across the run.
    pub fn total_idle(&self, rank: u32) -> SimDuration {
        self.trace.total_idle_beyond(rank, self.baseline_comm)
    }

    /// Number of ranks idling beyond `threshold` in `step` — the "wave
    /// activity" of a step.
    pub fn activity(&self, step: u32, threshold: SimDuration) -> u32 {
        (0..self.trace.ranks())
            .filter(|&r| self.idle(r, step) > threshold)
            .count() as u32
    }

    /// Wall-clock end of the run.
    pub fn total_runtime(&self) -> SimTime {
        self.trace.total_runtime()
    }

    /// A wave-detection threshold that ignores noise-induced idles: five
    /// times the mean injected noise plus 5 % of the largest injected
    /// delay, but at least 10 µs.
    pub fn default_threshold(&self) -> SimDuration {
        let noise_floor = self.cfg.noise.mean().times(5);
        let delay_frac = self.cfg.injections.max_duration().mul_f64(0.05);
        noise_floor
            .max(delay_frac)
            .max(SimDuration::from_micros(10))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_produces_the_documented_defaults() {
        let cfg = WaveExperiment::flat_chain(18).into_config();
        assert_eq!(cfg.ranks(), 18);
        assert_eq!(cfg.msg_bytes, 8192);
        assert_eq!(cfg.steps, 20);
        assert_eq!(cfg.pattern.distance, 1);
        assert!(cfg.injections.is_empty());
        assert!(cfg.noise.is_silent());
    }

    #[test]
    fn builder_settings_stick() {
        let cfg = WaveExperiment::flat_chain(18)
            .direction(Direction::Bidirectional)
            .boundary(Boundary::Periodic)
            .distance(2)
            .rendezvous()
            .texec(SimDuration::from_millis(1))
            .steps(7)
            .inject(5, 0, SimDuration::from_millis(9))
            .noise_percent(10.0)
            .seed(42)
            .into_config();
        assert_eq!(cfg.pattern.direction, Direction::Bidirectional);
        assert_eq!(cfg.pattern.boundary, Boundary::Periodic);
        assert_eq!(cfg.pattern.distance, 2);
        assert_eq!(cfg.protocol, Protocol::Rendezvous);
        assert_eq!(cfg.steps, 7);
        assert_eq!(cfg.seed, 42);
        assert_eq!(cfg.injections.delay_for(5, 0), SimDuration::from_millis(9));
        // E = 10 % of 1 ms = 100 us mean.
        assert_eq!(cfg.noise.mean(), SimDuration::from_micros(100));
    }

    #[test]
    fn analyze_surfaces_the_wait_cycle_without_running() {
        let warnings = WaveExperiment::flat_chain(8)
            .direction(Direction::Bidirectional)
            .boundary(Boundary::Periodic)
            .rendezvous()
            .analyze();
        assert!(warnings.iter().any(|d| d.code == "SC001"), "{warnings:?}");
    }

    #[test]
    fn try_run_reports_errors_instead_of_panicking() {
        let mut cfg = WaveExperiment::flat_chain(8).into_config();
        cfg.msg_bytes = 0;
        let errors = WaveTrace::try_from_config(cfg).expect_err("must be invalid");
        assert!(errors.iter().all(|d| d.is_error()));
        assert!(errors.iter().any(|d| d.code == "SC004"), "{errors:?}");
        // The happy path still works through the same gate.
        let wt = WaveExperiment::flat_chain(4).steps(2).try_run();
        assert!(wt.is_ok());
    }

    #[test]
    fn try_run_reports_runtime_stalls_as_rt001_diagnostics() {
        // A fail-stop crash passes static analysis (SC016 is a warning)
        // but stalls the run; try_run must surface it as a value.
        let errors = WaveExperiment::flat_chain(6)
            .texec(SimDuration::from_millis(1))
            .steps(4)
            .faults(mpisim::FaultPlan::none().with_crash(2, 1, None))
            .try_run()
            .expect_err("fail-stop crash must stall");
        assert!(errors.iter().any(|d| d.code == "RT001"), "{errors:?}");
        assert!(
            errors.iter().any(|d| d.message.contains("fail-stop")),
            "{errors:?}"
        );
    }

    #[test]
    fn faults_builder_attaches_the_plan() {
        let cfg = WaveExperiment::flat_chain(6)
            .faults(mpisim::FaultPlan::none().with_drops(0.1, SimDuration::from_micros(500)))
            .into_config();
        assert!(!cfg.faults.is_empty());
    }

    #[test]
    #[should_panic(expected = "SC002")]
    fn run_panics_with_the_rendered_report_on_invalid_configs() {
        // d = 5 on an 8-rank periodic ring: partners alias (needs n > 2d).
        let _ = WaveExperiment::flat_chain(8)
            .boundary(Boundary::Periodic)
            .distance(5)
            .run();
    }

    #[test]
    fn injections_accumulate_across_calls() {
        let cfg = WaveExperiment::flat_chain(8)
            .inject(1, 0, SimDuration::from_millis(1))
            .inject(2, 3, SimDuration::from_millis(2))
            .into_config();
        assert_eq!(cfg.injections.injections().len(), 2);
    }

    #[test]
    fn wave_trace_exposes_idle_and_baselines() {
        let wt = WaveExperiment::flat_chain(8)
            .texec(SimDuration::from_millis(1))
            .steps(6)
            .inject(3, 0, SimDuration::from_millis(4))
            .run();
        assert!(wt.baseline_comm > SimDuration::ZERO);
        assert!(wt.step_duration > SimDuration::from_millis(1));
        // Rank 4 idles ~4 ms in step 0.
        let (step, idle) = wt.max_idle(4);
        assert_eq!(step, 0);
        assert!(idle > SimDuration::from_millis(3));
        assert_eq!(wt.first_idle_step(4, wt.default_threshold()), Some(0));
        assert!(wt.total_idle(2).is_zero());
        assert_eq!(wt.activity(0, wt.default_threshold()), 1);
    }

    #[test]
    #[should_panic(expected = "compute-bound")]
    fn noise_percent_rejects_memory_bound_models() {
        let _ = WaveExperiment::flat_chain(4)
            .exec_model(ExecModel::MemoryBound {
                bytes: 1,
                core_bw_bps: 1.0,
                socket_bw_bps: 1.0,
            })
            .noise_percent(5.0);
    }

    #[test]
    fn default_threshold_scales_with_noise_and_delay() {
        let quiet = WaveExperiment::flat_chain(4).steps(2).run();
        assert_eq!(quiet.default_threshold(), SimDuration::from_micros(10));
        let noisy = WaveExperiment::flat_chain(4)
            .steps(2)
            .noise_percent(10.0) // mean 300 us => threshold 1.5 ms
            .run();
        assert_eq!(noisy.default_threshold(), SimDuration::from_micros(1500));
    }
}
