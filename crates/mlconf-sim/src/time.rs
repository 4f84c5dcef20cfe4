//! Simulated time as integer microseconds.
//!
//! Integer time gives the event queue a total order with exact equality,
//! which keeps runs bit-for-bit reproducible; `f64` seconds are only used
//! at the API boundary.

/// A point in simulated time (microseconds since simulation start).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0);

    /// Creates a time from raw microseconds.
    pub fn from_micros(us: u64) -> Self {
        SimTime(us)
    }

    /// Creates a time from seconds, rounding to microseconds and
    /// saturating at the representable range.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative or NaN.
    pub fn from_secs_f64(secs: f64) -> Self {
        assert!(secs >= 0.0 && !secs.is_nan(), "invalid sim time {secs}");
        SimTime((secs * 1e6).round().min(u64::MAX as f64) as u64)
    }

    /// Raw microseconds.
    pub fn as_micros(&self) -> u64 {
        self.0
    }

    /// Seconds as `f64`.
    pub fn as_secs_f64(&self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Advances by a duration in seconds.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative or NaN.
    pub fn advance(&self, secs: f64) -> SimTime {
        assert!(secs >= 0.0 && !secs.is_nan(), "invalid advance {secs}");
        SimTime(self.0.saturating_add((secs * 1e6).round() as u64))
    }

    /// Duration since an earlier time, in seconds (0 if `earlier` is
    /// later).
    pub fn since(&self, earlier: SimTime) -> f64 {
        self.0.saturating_sub(earlier.0) as f64 / 1e6
    }

    /// The later of two times.
    pub fn max(self, other: SimTime) -> SimTime {
        if self >= other {
            self
        } else {
            other
        }
    }
}

impl std::fmt::Display for SimTime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_secs() {
        let t = SimTime::from_secs_f64(1.25);
        assert_eq!(t.as_micros(), 1_250_000);
        assert!((t.as_secs_f64() - 1.25).abs() < 1e-9);
    }

    #[test]
    fn advance_and_since() {
        let t0 = SimTime::ZERO;
        let t1 = t0.advance(0.5);
        let t2 = t1.advance(0.25);
        assert!((t2.since(t0) - 0.75).abs() < 1e-9);
        assert_eq!(t0.since(t2), 0.0, "since saturates at zero");
    }

    #[test]
    fn ordering_is_total() {
        let a = SimTime::from_micros(5);
        let b = SimTime::from_micros(7);
        assert!(a < b);
        assert_eq!(a.max(b), b);
        assert_eq!(b.max(a), b);
    }

    #[test]
    #[should_panic(expected = "invalid sim time")]
    fn rejects_negative() {
        SimTime::from_secs_f64(-1.0);
    }

    #[test]
    fn display_formats_seconds() {
        assert_eq!(SimTime::from_secs_f64(2.5).to_string(), "2.500000s");
    }
}
