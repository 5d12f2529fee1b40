//! `wavebench` — the idle-wave simulator's end-to-end benchmark.
//!
//! One process runs one named workload for a fixed number of seconds,
//! checks every output it gets, and prints its metrics by name with their
//! units. `--trace 0` measures the end-to-end metrics with tracing off;
//! `--trace 1` repeats the workload with spans around every call into the
//! program's layers (`mpisim`, `simcheck::budget`, `tracefmt`,
//! `idlewave::sweep`, `idlewave::serve`) and reports per-layer self times
//! and counts instead. A traced `engine-paper` run also probes the sweep
//! fabric, and a traced `sweep-inline` run the service. See
//! `wavebench/README.md` for the metric map.

pub mod engine_paper;
pub mod gen;
pub mod pins;
pub mod serve_open;
pub mod spans;
pub mod stats;
pub mod sweep_inline;
pub mod sweep_mixed;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Duration;

/// The workloads, in the order `BENCHMARK.json` lists them. There is no
/// `sweep-mixed` or `serve-open` workload: the sweep fabric's wall time
/// and the service's rate and latency swing too far between runs on a
/// shared 2-vCPU machine to carry a bound. Traced runs still measure both
/// layers: `engine-paper` probes the fabric, `sweep-inline` the service.
pub const WORKLOADS: [&str; 2] = ["engine-paper", "sweep-inline"];

/// Input size of a run: `Full` is what the benchmark measures, `Quick`
/// shrinks every input so the self-tests finish in seconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Benchmark-sized inputs.
    Full,
    /// Test-sized inputs.
    Quick,
}

impl Scale {
    /// `full` at full scale, `quick` otherwise.
    pub fn pick<T>(self, full: T, quick: T) -> T {
        match self {
            Scale::Full => full,
            Scale::Quick => quick,
        }
    }
}

/// What one run is asked to do.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Workload seed: the same seed generates the same inputs.
    pub seed: u64,
    /// Measured time.
    pub seconds: Duration,
    /// Record spans and report per-layer metrics.
    pub trace: bool,
    /// Input size.
    pub scale: Scale,
    /// Scratch directory for sweep outputs, caches and journals.
    pub work: PathBuf,
}

/// Everything one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted in the measured window.
    pub attempted: u64,
    /// Operations that failed, were refused, shed or timed out.
    pub failed: u64,
    /// Output checks that did not hold; any entry fails the run.
    pub failures: Vec<String>,
    /// End-to-end metrics (`name -> value`), units per [`END_TO_END`].
    pub e2e: BTreeMap<String, f64>,
    /// Per-layer metrics (`name -> value`), units per [`per_layer`].
    pub layers: BTreeMap<String, f64>,
    /// Human-readable report lines: distributions with their tail
    /// percentile and sample count, and workload-specific figures.
    pub lines: Vec<String>,
}

impl Outcome {
    /// Record a failed output check.
    pub fn fail(&mut self, what: impl Into<String>) {
        self.failures.push(what.into());
    }

    /// Check `ok`, recording `what` as a failure when it does not hold.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    /// Set an end-to-end metric.
    pub fn e2e(&mut self, name: &str, value: f64) {
        self.e2e.insert(name.to_string(), value);
    }

    /// Set a per-layer metric.
    pub fn layer(&mut self, name: &str, value: f64) {
        self.layers.insert(name.to_string(), value);
    }

    /// Add a report line.
    pub fn line(&mut self, s: impl Into<String>) {
        self.lines.push(s.into());
    }
}

/// End-to-end metrics: every workload reports every one of these with
/// tracing off. Each has the meaning listed in `wavebench/README.md` for
/// the workload that reports it.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("throughput_per_s", "1/s"),
    ("sim_events_per_s.fused", "1/s"),
    ("sim_events_per_s.general", "1/s"),
    ("op_ms", "ms"),
];

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 5;

/// The engine-paper scenario names, as they appear in metric names.
pub const ENGINE_SCENARIOS: [&str; 4] = ["fig4-eager", "fig8-noise", "fig7-rdvz", "drops5"];

/// Per-layer metrics of a traced run: `(name, unit, workloads that call
/// the layer)`. A workload reports 0 for a layer it does not call.
pub fn per_layer() -> Vec<(String, &'static str, &'static [&'static str])> {
    const E: &[&str] = &["engine-paper"];
    const S: &[&str] = &["sweep-inline"];
    const ALL: &[&str] = &["engine-paper", "sweep-inline"];
    let mut v: Vec<(String, &'static str, &'static [&'static str])> = Vec::new();
    let mut add = |name: &str, unit: &'static str, who: &'static [&'static str]| {
        v.push((name.to_string(), unit, who));
    };
    add("mpisim.construct_us", "us", E);
    for s in ENGINE_SCENARIOS {
        add(&format!("mpisim.run_ns_per_event.{s}"), "ns", E);
        add(&format!("mpisim.events.{s}"), "count", E);
        add(&format!("mpisim.peak_queue.{s}"), "count", E);
    }
    add("mpisim.fused_event_share", "ratio", E);
    add("sweep.per_scenario_us", "us", E);
    add("sweep.overhead_us", "us", E);
    add("sweep.hit_us", "us", E);
    add("sweep.miss_us", "us", E);
    add("simcheck.budget_us", "us", ALL);
    add("mpisim.config_fingerprint_us", "us", ALL);
    add("tracefmt.config_json_us", "us", ALL);
    add("mpisim.small_run_us", "us", S);
    add("sweep.cache_hits", "count", E);
    add("sweep.cache_misses", "count", E);
    add("sweep.cache_quarantined", "count", E);
    add("sweep.retired_workers", "count", E);
    add("sweep.hit_ratio", "ratio", E);
    add("serve.ping_rtt_us", "us", S);
    add("serve.ack_ms", "ms", S);
    add("serve.result_ms", "ms", S);
    add("serve.queue_wait_ms", "ms", S);
    add("tracefmt.wire_parse_us", "us", S);
    add("tracefmt.wire_encode_us", "us", S);
    add("serve.connect_ms", "ms", S);
    for c in [
        "accepted",
        "shed",
        "completed",
        "cache_hits",
        "cache_misses",
    ] {
        add(&format!("serve.stats.{c}"), "count", S);
    }
    add("loadgen.late_p99_ms", "ms", S);
    add("trace.overhead_pct", "%", ALL);
    v
}

/// Run `workload` under `plan`.
///
/// # Errors
/// An unknown workload name, or a set-up failure (the program could not
/// be started or its scratch directory written).
pub fn run(workload: &str, plan: &Plan) -> Result<Outcome, String> {
    std::fs::create_dir_all(&plan.work)
        .map_err(|e| format!("cannot create {}: {e}", plan.work.display()))?;
    let mut out = match workload {
        "engine-paper" => engine_paper::run(plan),
        "sweep-inline" => sweep_inline::run(plan),
        other => return Err(format!("unknown workload '{other}' (one of {WORKLOADS:?})")),
    }?;
    out.e2e
        .entry("peak_rss_mb".to_string())
        .or_insert_with(peak_rss_mb);
    if plan.trace {
        for (name, _, who) in per_layer() {
            if !who.contains(&workload) {
                out.layers.entry(name).or_insert(0.0);
            }
        }
    }
    Ok(out)
}

/// The benchmark's one clock read. Wall time is what it measures; it
/// never reaches the program's inputs or results.
pub fn now() -> std::time::Instant {
    // simlint: allow(wall-clock)
    std::time::Instant::now()
}

/// Write every dirty page of the file system that holds `dir` to disk
/// (Linux `syncfs`). The kernel writes a dirty page back about 30 s after
/// it was written. Flushing before each measured phase keeps writeback of
/// files an earlier phase or run wrote out of the phase's timings.
pub fn sync_disk(dir: &std::path::Path) {
    #[cfg(target_os = "linux")]
    if let Ok(f) = std::fs::File::open(dir) {
        use std::os::fd::AsRawFd;
        extern "C" {
            fn syncfs(fd: i32) -> i32;
        }
        // SAFETY: `syncfs` is the libc prototype and `f` keeps the fd
        // open for the call.
        unsafe {
            syncfs(f.as_raw_fd());
        }
    }
    #[cfg(not(target_os = "linux"))]
    let _ = dir;
}

/// The calling thread's CPU affinity mask (Linux), as 1024 bits.
type CpuMask = [u64; 16];

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// The CPUs the calling thread may run on, ascending (Linux
/// `sched_getaffinity`); empty where that cannot be read.
pub fn allowed_cpus() -> Vec<usize> {
    #[cfg(target_os = "linux")]
    {
        let mut mask: CpuMask = [0; 16];
        // SAFETY: the libc prototype; `mask` is a live buffer of the size
        // passed, and pid 0 is the calling thread.
        if unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) } != 0 {
            return Vec::new();
        }
        (0..mask.len() * 64)
            .filter(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
            .collect()
    }
    #[cfg(not(target_os = "linux"))]
    Vec::new()
}

/// The calling thread, and every thread it starts while this lives,
/// restricted to one CPU. Dropping it restores the thread's former CPUs.
#[derive(Debug)]
pub struct CpuPin {
    #[cfg_attr(not(target_os = "linux"), allow(dead_code))]
    former: CpuMask,
}

impl CpuPin {
    /// Pin the calling thread to `cpu` (Linux `sched_setaffinity`).
    /// `None` where affinity cannot be set.
    pub fn to(cpu: usize) -> Option<CpuPin> {
        #[cfg(target_os = "linux")]
        {
            let mut former: CpuMask = [0; 16];
            let size = std::mem::size_of_val(&former);
            // SAFETY: the libc prototypes; both masks are live buffers of
            // `size` bytes, and pid 0 is the calling thread.
            if cpu >= size * 8 || unsafe { sched_getaffinity(0, size, former.as_mut_ptr()) } != 0 {
                return None;
            }
            let mut one: CpuMask = [0; 16];
            one[cpu / 64] = 1 << (cpu % 64);
            // SAFETY: as above.
            let set = unsafe { sched_setaffinity(0, size, one.as_ptr()) };
            (set == 0).then_some(CpuPin { former })
        }
        #[cfg(not(target_os = "linux"))]
        {
            let _ = cpu;
            None
        }
    }
}

impl Drop for CpuPin {
    fn drop(&mut self) {
        #[cfg(target_os = "linux")]
        // SAFETY: the libc prototype; `former` is a live mask of the size
        // passed.
        unsafe {
            sched_setaffinity(0, std::mem::size_of_val(&self.former), self.former.as_ptr());
        }
    }
}

/// Pin the calling thread to `cpu` for a measurement and say so in the
/// report.
pub fn pin_for_measurement(cpu: Option<usize>, who: &str, out: &mut Outcome) -> Option<CpuPin> {
    let pin = cpu.and_then(CpuPin::to);
    match (&pin, cpu) {
        (Some(_), Some(c)) => out.line(format!("{who} pinned to CPU {c}")),
        _ => out.line(format!("{who} not pinned: CPU affinity is unavailable")),
    }
    pin
}

/// Peak resident set size of this process in MB (`VmHWM`), 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The result line: one JSON object with `correct`, `attempted`,
/// `failed` and the metrics the run is asked for.
pub fn result_json(out: &Outcome, trace: bool) -> String {
    let units: BTreeMap<String, &str> = if trace {
        per_layer().into_iter().map(|(n, u, _)| (n, u)).collect()
    } else {
        END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect()
    };
    let values = if trace { &out.layers } else { &out.e2e };
    let metrics: Vec<String> = units
        .iter()
        .map(|(name, unit)| {
            let v = values.get(name).copied().unwrap_or(f64::NAN);
            let v = if v.is_finite() {
                format!("{v}")
            } else {
                "null".to_string()
            };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failures.is_empty(),
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    )
}
