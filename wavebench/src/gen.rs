//! Seeded workload generators. Each takes the workload seed and returns
//! only program inputs (configs and scenarios); the same seed always
//! yields the same inputs.

use idlewave::sweep::Scenario;
use idlewave::WaveExperiment;
use mpisim::{FaultPlan, SimConfig};
use simdes::{splitmix64, SimDuration};
use workload::{Boundary, Direction};

use crate::Scale;

/// A splitmix64 stream.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`, salted so the workloads draw unrelated values.
    pub fn new(seed: u64, salt: u64) -> Rng {
        Rng(splitmix64(seed ^ salt.rotate_left(32)))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = splitmix64(self.0);
        self.0
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// One engine-paper scenario.
#[derive(Debug, Clone)]
pub struct EngineCase {
    /// Metric-name suffix (see [`crate::ENGINE_SCENARIOS`]).
    pub name: &'static str,
    /// The configuration to simulate.
    pub cfg: SimConfig,
    /// Whether the scenario is meant to take the fused path.
    pub fused: bool,
}

const T_EXEC: SimDuration = SimDuration::from_millis(3);

/// The paper's controlled experiment: flat chain, 3 ms compute phases,
/// one injected delay at a seeded rank in step 0.
fn paper_wave(ranks: u32, steps: u32, src: u32, delay: SimDuration, seed: u64) -> WaveExperiment {
    WaveExperiment::flat_chain(ranks)
        .texec(T_EXEC)
        .steps(steps)
        .inject(src, 0, delay)
        .seed(seed)
}

/// The engine-paper set: the Fig. 4 eager one-way wave and a Fig. 8
/// noisy-decay wave (both fused), the rendezvous two-way σ = 2 wave and
/// the wave with 5 % message drops (both on the event loop).
pub fn engine_paper(seed: u64, scale: Scale) -> Vec<EngineCase> {
    let mut r = Rng::new(seed, 0xE61E);
    let big = scale.pick(4096, 96);
    let mid = scale.pick(1024, 64);
    let src = 2 + r.below(30) as u32;
    let delay = T_EXEC.mul_f64(4.5);
    vec![
        EngineCase {
            name: "fig4-eager",
            cfg: paper_wave(big, scale.pick(200, 12), src, delay, r.next_u64())
                .eager()
                .into_config(),
            fused: true,
        },
        EngineCase {
            name: "fig8-noise",
            cfg: paper_wave(mid, scale.pick(150, 12), src, T_EXEC * 30, r.next_u64())
                .boundary(Boundary::Periodic)
                .eager()
                .noise_percent(4.0)
                .into_config(),
            fused: true,
        },
        EngineCase {
            name: "fig7-rdvz",
            cfg: paper_wave(mid, scale.pick(100, 12), src, delay, r.next_u64())
                .direction(Direction::Bidirectional)
                .rendezvous()
                .into_config(),
            fused: false,
        },
        EngineCase {
            name: "drops5",
            cfg: paper_wave(mid, scale.pick(40, 12), src, delay, r.next_u64())
                .eager()
                .faults(FaultPlan::none().with_drops(0.05, SimDuration::from_micros(200)))
                .into_config(),
            fused: false,
        },
    ]
}

/// A small sweep or serve scenario of one of three kinds: eager one-way
/// (fused), eager one-way with 2 % noise (fused), rendezvous two-way
/// (event loop).
fn small_scenario(id: String, ranks: u32, steps: u32, kind: u64, r: &mut Rng) -> Scenario {
    let src = r.below(u64::from(ranks / 2)) as u32;
    let texec = SimDuration::from_micros(500);
    let mut w = WaveExperiment::flat_chain(ranks)
        .texec(texec)
        .steps(steps)
        .inject(src, 0, texec.mul_f64(4.5))
        .seed(r.next_u64());
    w = match kind {
        0 => w.eager(),
        1 => w.eager().noise_percent(2.0),
        _ => w.direction(Direction::Bidirectional).rendezvous(),
    };
    Scenario::new(id, w.into_config())
}

/// The sweep-mixed suite: 256 small scenarios, 48–128 ranks × 16 steps,
/// half eager one-way, a quarter noisy, a quarter rendezvous. The mix of
/// shapes is the same for every seed; the seed orders the shapes and draws
/// each scenario's injection rank and RNG seed. Scenarios come in pairs of
/// one shape, so the even and the odd half also have the same mix.
pub fn sweep_suite(seed: u64, scale: Scale) -> Vec<Scenario> {
    let mut r = Rng::new(seed, 0x5EE9);
    let mut shapes: Vec<(u32, u64)> = (0..scale.pick(128, 6))
        .map(|i| ([48, 64, 96, 128][(i / 4) % 4], [0, 0, 1, 2][i % 4]))
        .collect();
    for i in (1..shapes.len()).rev() {
        shapes.swap(i, r.below(i as u64 + 1) as usize);
    }
    let steps = scale.pick(16, 8);
    shapes
        .iter()
        .flat_map(|&shape| [shape, shape])
        .enumerate()
        .map(|(i, (ranks, kind))| small_scenario(format!("s{i:03}"), ranks, steps, kind, &mut r))
        .collect()
}

/// What one request of the serve probe asks for.
#[derive(Debug, Clone, PartialEq)]
pub enum Ask {
    /// Submit a scenario the service has never seen (simulates).
    Fresh(Scenario),
    /// Submit, under a new id, the config of warm scenario `k` (a cache
    /// hit).
    Repeat(Scenario, usize),
    /// Query the completed record of warm scenario `k` (read only).
    Query(usize),
}

/// Shares of the serve probe's request kinds, in tenths: fresh submits,
/// repeat submits, queries. No usage log of the service exists, so these
/// are assumptions, not measurements. Half the requests take the whole
/// path (admission, journal, simulation, cache write), so the engine and
/// the journal stay in every phase. The rest split between the cache-hit
/// path and the read-only path, each large enough to give its own median
/// from over a hundred samples at the low rate.
pub const SERVE_SHARES: [u64; 3] = [5, 3, 2];

/// Ranks and steps of every serve probe scenario, and the size of the warm
/// set: the shape of the repository's own serve benchmark population,
/// `bench::throughput::serve_suite` (`loadgen_scenarios(48, 16, 16)`).
const SERVE_RANKS: u32 = 16;
const SERVE_STEPS: u32 = 16;
const SERVE_WARM: usize = 48;

/// The serve probe's population: `warm` scenarios the set-up submits once
/// (so repeats hit the cache and queries find a record), and a request
/// stream generator.
#[derive(Debug, Clone)]
pub struct ServeMix {
    /// Scenarios submitted during set-up.
    pub warm: Vec<Scenario>,
    rng: Rng,
    fresh: usize,
    repeats: usize,
}

impl ServeMix {
    /// The population for `seed`.
    pub fn new(seed: u64, scale: Scale) -> ServeMix {
        let mut rng = Rng::new(seed, 0x5E7E);
        let warm = (0..scale.pick(SERVE_WARM, 6))
            .map(|k| {
                let kind = k as u64 % 3;
                small_scenario(format!("w{k:03}"), SERVE_RANKS, SERVE_STEPS, kind, &mut rng)
            })
            .collect();
        ServeMix {
            warm,
            rng,
            fresh: 0,
            repeats: 0,
        }
    }

    /// The next request, drawn by [`SERVE_SHARES`].
    pub fn next_ask(&mut self) -> Ask {
        let roll = self.rng.below(10);
        let k = self.rng.below(self.warm.len() as u64) as usize;
        if roll < SERVE_SHARES[0] {
            let n = self.fresh;
            self.fresh += 1;
            let kind = n as u64 % 3;
            Ask::Fresh(small_scenario(
                format!("f{n:05}"),
                SERVE_RANKS,
                SERVE_STEPS,
                kind,
                &mut self.rng,
            ))
        } else if roll < SERVE_SHARES[0] + SERVE_SHARES[1] {
            let n = self.repeats;
            self.repeats += 1;
            let s = Scenario::new(format!("r{n:05}"), self.warm[k].config.clone());
            Ask::Repeat(s, k)
        } else {
            Ask::Query(k)
        }
    }
}
