//! Results of a simulated training run.

use mlconf_util::stats::OnlineStats;

use crate::memory::Infeasibility;

/// Where a training step's wall-clock time went, summed over the measured
/// window (seconds of aggregate worker time).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PhaseBreakdown {
    /// Gradient computation.
    pub compute: f64,
    /// Gradient push / reduce-scatter.
    pub push: f64,
    /// Model pull / all-gather.
    pub pull: f64,
    /// Waiting in the server apply queue (PS) — zero for all-reduce.
    pub server_queue: f64,
    /// Server apply service time.
    pub server_apply: f64,
    /// Synchronization wait (barrier or staleness block).
    pub sync_wait: f64,
}

impl PhaseBreakdown {
    /// Total accounted time.
    pub fn total(&self) -> f64 {
        self.compute
            + self.push
            + self.pull
            + self.server_queue
            + self.server_apply
            + self.sync_wait
    }

    /// Fraction of time in communication (push + pull).
    pub fn comm_fraction(&self) -> f64 {
        let t = self.total();
        if t == 0.0 {
            0.0
        } else {
            (self.push + self.pull) / t
        }
    }
}

/// Outcome of simulating a configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct SimResult {
    infeasibility: Option<Infeasibility>,
    steps_measured: u64,
    global_batch: u64,
    duration_secs: f64,
    step_time: OnlineStats,
    phases: PhaseBreakdown,
    avg_staleness_steps: f64,
    cluster_price_per_hour: f64,
}

impl SimResult {
    /// Builds a feasible result from engine measurements.
    ///
    /// # Panics
    ///
    /// Panics if `duration_secs` or `global_batch` are non-positive while
    /// steps were measured.
    pub fn feasible(
        steps_measured: u64,
        global_batch: u64,
        duration_secs: f64,
        step_time: OnlineStats,
        phases: PhaseBreakdown,
        avg_staleness_steps: f64,
        cluster_price_per_hour: f64,
    ) -> Self {
        if steps_measured > 0 {
            assert!(duration_secs > 0.0, "measured steps in zero time");
            assert!(global_batch > 0, "measured steps with empty batches");
        }
        SimResult {
            infeasibility: None,
            steps_measured,
            global_batch,
            duration_secs,
            step_time,
            phases,
            avg_staleness_steps,
            cluster_price_per_hour,
        }
    }

    /// Builds an infeasible (e.g. OOM) result.
    pub fn infeasible(why: Infeasibility, cluster_price_per_hour: f64) -> Self {
        SimResult {
            infeasibility: Some(why),
            steps_measured: 0,
            global_batch: 0,
            duration_secs: 0.0,
            step_time: OnlineStats::new(),
            phases: PhaseBreakdown::default(),
            avg_staleness_steps: 0.0,
            cluster_price_per_hour,
        }
    }

    /// Whether the configuration ran at all.
    pub fn is_feasible(&self) -> bool {
        self.infeasibility.is_none()
    }

    /// The infeasibility reason, if any.
    pub fn infeasibility(&self) -> Option<Infeasibility> {
        self.infeasibility
    }

    /// Measured steps (per worker-step-group; one global step in BSP).
    pub fn steps_measured(&self) -> u64 {
        self.steps_measured
    }

    /// Global minibatch size (samples consumed per global step).
    pub fn global_batch(&self) -> u64 {
        self.global_batch
    }

    /// Wall-clock seconds of the measured window.
    pub fn duration_secs(&self) -> f64 {
        self.duration_secs
    }

    /// Steady-state training throughput in samples/second (0 if
    /// infeasible).
    pub fn throughput(&self) -> f64 {
        if self.duration_secs <= 0.0 {
            0.0
        } else {
            self.steps_measured as f64 * self.global_batch as f64 / self.duration_secs
        }
    }

    /// Distribution of per-step wall-clock times.
    pub fn step_time(&self) -> &OnlineStats {
        &self.step_time
    }

    /// Aggregate phase breakdown over the measured window.
    pub fn phases(&self) -> &PhaseBreakdown {
        &self.phases
    }

    /// Mean gradient staleness in steps (0 under BSP / all-reduce); feeds
    /// the statistical-efficiency penalty in `mlconf-workloads`.
    pub fn avg_staleness_steps(&self) -> f64 {
        self.avg_staleness_steps
    }

    /// Dollar cost per hour of the cluster that was simulated.
    pub fn cluster_price_per_hour(&self) -> f64 {
        self.cluster_price_per_hour
    }

    /// Dollar cost per training sample at the measured throughput.
    pub fn cost_per_sample(&self) -> f64 {
        let tput = self.throughput();
        if tput <= 0.0 {
            f64::INFINITY
        } else {
            self.cluster_price_per_hour / 3600.0 / tput
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::Infeasibility;

    fn stats(values: &[f64]) -> OnlineStats {
        values.iter().copied().collect()
    }

    #[test]
    fn feasible_throughput() {
        let r = SimResult::feasible(
            100,
            256,
            50.0,
            stats(&[0.5; 4]),
            PhaseBreakdown::default(),
            0.0,
            2.0,
        );
        assert!(r.is_feasible());
        assert_eq!(r.throughput(), 100.0 * 256.0 / 50.0);
        // cost/sample = (2 $/h / 3600 s/h) / 512 samples/s
        assert!((r.cost_per_sample() - 2.0 / 3600.0 / 512.0).abs() < 1e-15);
    }

    #[test]
    fn infeasible_result_behaviour() {
        let r = SimResult::infeasible(
            Infeasibility::WorkerOom {
                required: 10,
                available: 5,
            },
            2.0,
        );
        assert!(!r.is_feasible());
        assert_eq!(r.throughput(), 0.0);
        assert_eq!(r.cost_per_sample(), f64::INFINITY);
        assert!(r.infeasibility().is_some());
    }

    #[test]
    fn phase_breakdown_fractions() {
        let p = PhaseBreakdown {
            compute: 6.0,
            push: 2.0,
            pull: 2.0,
            server_queue: 0.0,
            server_apply: 0.0,
            sync_wait: 0.0,
        };
        assert_eq!(p.total(), 10.0);
        assert!((p.comm_fraction() - 0.4).abs() < 1e-12);
        assert_eq!(PhaseBreakdown::default().comm_fraction(), 0.0);
    }

    #[test]
    #[should_panic(expected = "zero time")]
    fn feasible_rejects_inconsistent_measurements() {
        SimResult::feasible(
            10,
            1,
            0.0,
            OnlineStats::new(),
            PhaseBreakdown::default(),
            0.0,
            1.0,
        );
    }
}
