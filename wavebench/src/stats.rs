//! Order statistics for timing samples.

/// A timing distribution as the benchmark reports it: the median, the
/// highest percentile that still has ten samples beyond it, and the
/// sample count behind both.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Dist {
    /// Number of samples.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// The percentile [`Dist::tail`] was taken at, in percent.
    pub tail_pct: f64,
    /// Value at [`Dist::tail_pct`].
    pub tail: f64,
}

impl Dist {
    /// Summarise `values` (any order). `None` when empty.
    pub fn of(values: &[f64]) -> Option<Dist> {
        if values.is_empty() {
            return None;
        }
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        // Ten samples beyond the tail percentile: q = 1 - 10/n. With
        // fewer than twenty samples the median is the best we can state.
        let q = (1.0 - 10.0 / n as f64).max(0.5);
        Some(Dist {
            n,
            p50: quantile(&v, 0.5),
            tail_pct: q * 100.0,
            tail: quantile(&v, q),
        })
    }

    /// One human-readable report line: `name p50 unit (pXX tail, n=N)`.
    pub fn line(&self, name: &str, unit: &str) -> String {
        format!(
            "{name} = {:.4} {unit} (p{:.2} {:.4} {unit}, n={})",
            self.p50, self.tail_pct, self.tail, self.n
        )
    }
}

/// Linear-interpolated quantile `q` in `[0, 1]` of an ascending slice.
///
/// # Panics
/// Panics on an empty slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    sorted[lo] + (sorted[hi] - sorted[lo]) * frac
}

/// The fastest of `values` (any order), 0 when empty. Run times on a
/// shared machine are the program's own time plus interference from
/// neighbours, which comes and goes within a fraction of a second; the
/// fastest of hundreds of runs tracks the former and repeats far better
/// between runs than the median or the 10th percentile does.
pub fn fastest(values: &[f64]) -> f64 {
    values.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// Median of `values` (any order); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    Dist::of(values).map_or(0.0, |d| d.p50)
}

/// Run times of a set of scenarios, each run many times, split by the
/// engine path each scenario takes.
#[derive(Debug, Clone, Default)]
pub struct RunTimes {
    events: Vec<u64>,
    fused: Vec<bool>,
    ms: Vec<Vec<f64>>,
}

impl RunTimes {
    /// Scenario `i` delivers `events[i]` semantic events and takes the
    /// fused path iff `fused[i]`.
    pub fn new(events: Vec<u64>, fused: Vec<bool>) -> RunTimes {
        let ms = vec![Vec::new(); events.len()];
        RunTimes { events, fused, ms }
    }

    /// Record one run of scenario `i`.
    pub fn push(&mut self, i: usize, ms: f64) {
        self.ms[i].push(ms);
    }

    /// Number of scenarios.
    pub fn len(&self) -> usize {
        self.ms.len()
    }

    /// Whether there are no scenarios.
    pub fn is_empty(&self) -> bool {
        self.ms.is_empty()
    }

    /// The recorded run times of scenario `i`.
    pub fn of(&self, i: usize) -> &[f64] {
        &self.ms[i]
    }

    /// Events per second over all, the fused and the event-loop
    /// scenarios, and the time of one pass over all of them (ms), each
    /// scenario at its fastest run time.
    pub fn rates(&self) -> (f64, f64, f64, f64) {
        let (mut f_ev, mut f_ms, mut g_ev, mut g_ms) = (0u64, 0.0, 0u64, 0.0);
        for ((&ev, &fused), ms) in self.events.iter().zip(&self.fused).zip(&self.ms) {
            let t = fastest(ms);
            if fused {
                (f_ev, f_ms) = (f_ev + ev, f_ms + t);
            } else {
                (g_ev, g_ms) = (g_ev + ev, g_ms + t);
            }
        }
        let per_s = |ev: u64, ms: f64| ev as f64 * 1e3 / ms;
        (
            per_s(f_ev + g_ev, f_ms + g_ms),
            per_s(f_ev, f_ms),
            per_s(g_ev, g_ms),
            f_ms + g_ms,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let d = Dist::of(&v).unwrap();
        assert_eq!(d.n, 1000);
        assert!((d.tail_pct - 99.0).abs() < 1e-9);
        assert!((d.p50 - 500.5).abs() < 1e-9);
        let beyond = v.iter().filter(|&&x| x > d.tail).count();
        assert_eq!(beyond, 10);
    }

    #[test]
    fn small_samples_fall_back_to_the_median() {
        let d = Dist::of(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!(d.p50, 2.0);
        assert_eq!(d.tail_pct, 50.0);
        assert!(Dist::of(&[]).is_none());
    }
}
