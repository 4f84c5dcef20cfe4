//! The `max_rps_at_slo` search: the highest offered step rate a probe
//! sustains within the latency limit.
//!
//! Rates live on a fixed geometric grid (`GRID_BASE · GRID_RATIO^k`),
//! so the resolution is one grid ratio (5 %, finer than a tenth) and,
//! for any pass/fail predicate that is monotone in the rate, binary
//! search over the grid index returns the largest passing grid rate —
//! which is itself monotone in where the predicate flips.

/// The p99 step latency a probe must stay within (the ROADMAP limit).
pub const SLO_P99_MS: f64 = 50.0;
/// Lowest rate on the grid (steps per second).
pub const GRID_BASE: f64 = 40.0;
/// Ratio between neighbouring grid rates.
pub const GRID_RATIO: f64 = 1.05;
/// Number of grid rates (the top one is about 1,900 steps/s).
pub const GRID_LEN: usize = 80;

/// The `k`-th grid rate.
pub fn grid_rate(k: usize) -> f64 {
    GRID_BASE * GRID_RATIO.powi(k as i32)
}

/// One probe's verdict.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Probe {
    /// Offered step rate (steps per second).
    pub rate: f64,
    /// p99 step latency (ms), as the median over the probe's slices.
    pub p99_ms: f64,
    /// Failed or refused operations.
    pub failed: u64,
    /// Whether generator lateness grew over the probe.
    pub lateness_growing: bool,
}

impl Probe {
    /// Within the limit, with no failures and no growing backlog.
    pub fn passes(&self) -> bool {
        self.p99_ms <= SLO_P99_MS && self.failed == 0 && !self.lateness_growing
    }
}

/// Binary search over the grid with `probe` (called once per probed
/// rate). Returns the largest passing grid rate — `None` if even the
/// lowest fails — and every probe made, in order.
pub fn max_rate(mut probe: impl FnMut(f64) -> Probe) -> (Option<f64>, Vec<Probe>) {
    let mut probes = Vec::new();
    // Invariant: every index <= pass passes (pass = -1: none known),
    // every index >= fail fails (fail = GRID_LEN: none known).
    let (mut pass, mut fail) = (-1i64, GRID_LEN as i64);
    while fail - pass > 1 {
        let mid = (pass + fail) / 2;
        let p = probe(grid_rate(mid as usize));
        probes.push(p);
        if p.passes() {
            pass = mid;
        } else {
            fail = mid;
        }
    }
    let best = (pass >= 0).then(|| grid_rate(pass as usize));
    (best, probes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_is_finer_than_a_tenth() {
        for k in 1..GRID_LEN {
            let step = grid_rate(k) / grid_rate(k - 1);
            assert!(step < 1.1, "grid step {step}");
        }
    }

    #[test]
    fn at_most_seven_probes() {
        let (_, probes) = max_rate(|rate| Probe {
            rate,
            p99_ms: 1.0,
            failed: 0,
            lateness_growing: false,
        });
        assert!(probes.len() <= 7, "{} probes", probes.len());
    }
}
