//! Failure and checkpointing models.
//!
//! Two complementary treatments:
//!
//! - [`FailureModel`] — the *expected-overhead* view: long jobs lose a
//!   predictable fraction of throughput to checkpoint duty cycle and
//!   crash-recovery, scaling with cluster size and step time.
//! - [`CrashEvent`] — *injected* outages: a specific worker goes dark
//!   for a window of simulated time, and the engines play the outage
//!   out event-by-event. This is where synchronization semantics show
//!   their teeth: a BSP barrier transmits one node's outage to every
//!   worker, while asynchronous execution contains it.

use crate::time::SimTime;

/// An injected outage of one worker.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CrashEvent {
    /// Index of the affected worker (0-based).
    pub worker: u32,
    /// Outage start, seconds of simulated time.
    pub at_secs: f64,
    /// Outage duration in seconds (detection + restart + rejoin).
    pub outage_secs: f64,
}

impl CrashEvent {
    /// Validates the event.
    ///
    /// # Panics
    ///
    /// Panics on negative/non-finite times.
    pub fn validate(&self) {
        assert!(
            self.at_secs >= 0.0 && self.at_secs.is_finite(),
            "invalid crash time {}",
            self.at_secs
        );
        assert!(
            self.outage_secs > 0.0 && self.outage_secs.is_finite(),
            "invalid outage {}",
            self.outage_secs
        );
    }

    /// Outage window start as simulated time.
    pub fn window_start(&self) -> SimTime {
        SimTime::from_secs_f64(self.at_secs)
    }

    /// Outage window end as simulated time.
    pub fn window_end(&self) -> SimTime {
        SimTime::from_secs_f64(self.at_secs + self.outage_secs)
    }
}

/// If `t` falls inside one of `worker`'s outage windows, returns the
/// earliest time the worker may proceed; otherwise returns `t`.
/// Cascading windows are resolved by iterating to a fixed point.
pub fn next_available(crashes: &[CrashEvent], worker: u32, t: SimTime) -> SimTime {
    let mut now = t;
    loop {
        let mut moved = false;
        for c in crashes.iter().filter(|c| c.worker == worker) {
            if now >= c.window_start() && now < c.window_end() {
                now = c.window_end();
                moved = true;
            }
        }
        if !moved {
            return now;
        }
    }
}

/// Failure/checkpoint overhead parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FailureModel {
    /// Mean time between failures of a single node, in hours.
    pub node_mtbf_hours: f64,
    /// Time to detect a failure and restart the job, in seconds.
    pub restart_secs: f64,
    /// Steps between checkpoints.
    pub checkpoint_interval_steps: u32,
    /// Seconds to write one checkpoint (training pauses).
    pub checkpoint_secs: f64,
}

impl FailureModel {
    /// Defaults for a public cloud: 30-day node MTBF, 2-minute restart,
    /// checkpoint every 500 steps costing 10 s.
    pub fn cloud_default() -> Self {
        FailureModel {
            node_mtbf_hours: 720.0,
            restart_secs: 120.0,
            checkpoint_interval_steps: 500,
            checkpoint_secs: 10.0,
        }
    }

    /// Validates the parameters.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is non-positive or non-finite.
    pub fn validate(&self) {
        assert!(
            self.node_mtbf_hours > 0.0 && self.node_mtbf_hours.is_finite(),
            "invalid mtbf"
        );
        assert!(self.restart_secs >= 0.0, "invalid restart time");
        assert!(self.checkpoint_interval_steps > 0, "invalid ckpt interval");
        assert!(self.checkpoint_secs >= 0.0, "invalid ckpt cost");
    }

    /// Expected throughput degradation factor in `(0, 1]`: useful
    /// progress per wall-clock second relative to a failure-free run.
    ///
    /// Composed of the checkpoint duty cycle and the expected loss per
    /// failure (restart plus half a checkpoint interval of lost work),
    /// with failures arriving at `nodes / mtbf`.
    pub fn efficiency_factor(&self, step_secs: f64, nodes: u32) -> f64 {
        self.validate();
        assert!(
            step_secs > 0.0 && step_secs.is_finite(),
            "invalid step time {step_secs}"
        );
        let interval_secs = self.checkpoint_interval_steps as f64 * step_secs;
        let ckpt_overhead = self.checkpoint_secs / (interval_secs + self.checkpoint_secs);
        let failures_per_sec = nodes as f64 / (self.node_mtbf_hours * 3600.0);
        let loss_per_failure = self.restart_secs + 0.5 * interval_secs;
        let failure_overhead = (failures_per_sec * loss_per_failure).min(0.95);
        ((1.0 - ckpt_overhead) * (1.0 - failure_overhead)).clamp(0.01, 1.0)
    }
}

impl Default for FailureModel {
    fn default() -> Self {
        Self::cloud_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factor_in_unit_interval() {
        let f = FailureModel::cloud_default();
        for nodes in [1, 8, 64] {
            for step in [0.01, 0.1, 1.0, 10.0] {
                let e = f.efficiency_factor(step, nodes);
                assert!(e > 0.0 && e <= 1.0, "nodes={nodes} step={step}: {e}");
            }
        }
    }

    #[test]
    fn more_nodes_lose_more() {
        let f = FailureModel::cloud_default();
        assert!(f.efficiency_factor(0.5, 64) < f.efficiency_factor(0.5, 4));
    }

    #[test]
    fn flakier_nodes_lose_more() {
        let good = FailureModel::cloud_default();
        let bad = FailureModel {
            node_mtbf_hours: 24.0,
            ..good
        };
        assert!(bad.efficiency_factor(0.5, 16) < good.efficiency_factor(0.5, 16));
    }

    #[test]
    fn frequent_checkpoints_cost_duty_cycle() {
        let sparse = FailureModel::cloud_default();
        let frequent = FailureModel {
            checkpoint_interval_steps: 10,
            ..sparse
        };
        assert!(frequent.efficiency_factor(0.5, 8) < sparse.efficiency_factor(0.5, 8));
    }

    #[test]
    fn near_perfect_for_reliable_small_cluster() {
        let f = FailureModel {
            node_mtbf_hours: 1e6,
            restart_secs: 1.0,
            checkpoint_interval_steps: 100_000,
            checkpoint_secs: 0.1,
        };
        assert!(f.efficiency_factor(1.0, 2) > 0.999);
    }

    #[test]
    #[should_panic(expected = "invalid step time")]
    fn rejects_bad_step_time() {
        FailureModel::cloud_default().efficiency_factor(0.0, 4);
    }

    #[test]
    fn next_available_outside_window_is_identity() {
        let crashes = [CrashEvent {
            worker: 0,
            at_secs: 10.0,
            outage_secs: 5.0,
        }];
        let t = SimTime::from_secs_f64(3.0);
        assert_eq!(next_available(&crashes, 0, t), t);
        // Other workers unaffected even inside the window.
        let inside = SimTime::from_secs_f64(12.0);
        assert_eq!(next_available(&crashes, 1, inside), inside);
    }

    #[test]
    fn next_available_defers_to_window_end() {
        let crashes = [CrashEvent {
            worker: 2,
            at_secs: 10.0,
            outage_secs: 5.0,
        }];
        let inside = SimTime::from_secs_f64(12.0);
        assert_eq!(
            next_available(&crashes, 2, inside),
            SimTime::from_secs_f64(15.0)
        );
        // Window end itself is available (half-open interval).
        let boundary = SimTime::from_secs_f64(15.0);
        assert_eq!(next_available(&crashes, 2, boundary), boundary);
    }

    #[test]
    fn cascading_windows_resolve() {
        let crashes = [
            CrashEvent {
                worker: 0,
                at_secs: 10.0,
                outage_secs: 5.0,
            },
            CrashEvent {
                worker: 0,
                at_secs: 14.0,
                outage_secs: 6.0,
            },
        ];
        let t = SimTime::from_secs_f64(11.0);
        assert_eq!(next_available(&crashes, 0, t), SimTime::from_secs_f64(20.0));
    }

    #[test]
    #[should_panic(expected = "invalid outage")]
    fn crash_event_validation() {
        CrashEvent {
            worker: 0,
            at_secs: 1.0,
            outage_secs: 0.0,
        }
        .validate();
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// `next_available` never travels backwards in time, and its
        /// result never lands strictly inside one of the worker's own
        /// outage windows.
        #[test]
        fn next_available_monotone_and_outside_windows(
            raw in proptest::collection::vec((0u32..4, 0.0f64..500.0, 0.1f64..60.0), 0..6),
            worker in 0u32..4,
            t_secs in 0.0f64..600.0,
        ) {
            let crashes: Vec<CrashEvent> = raw
                .into_iter()
                .map(|(worker, at_secs, outage_secs)| CrashEvent {
                    worker,
                    at_secs,
                    outage_secs,
                })
                .collect();
            let t = SimTime::from_secs_f64(t_secs);
            let out = next_available(&crashes, worker, t);
            prop_assert!(out >= t, "went backwards: {out:?} < {t:?}");
            for c in crashes.iter().filter(|c| c.worker == worker) {
                prop_assert!(
                    out < c.window_start() || out >= c.window_end(),
                    "landed inside outage [{:?}, {:?}): {out:?}",
                    c.window_start(),
                    c.window_end()
                );
            }
            // Idempotent: an available instant stays put.
            prop_assert_eq!(next_available(&crashes, worker, out), out);
        }

        /// Efficiency stays a valid degradation factor in `(0, 1]` over
        /// the whole plausible parameter space.
        #[test]
        fn efficiency_factor_in_unit_interval(
            mtbf_hours in 1.0f64..1e5,
            restart_secs in 0.0f64..3600.0,
            interval_steps in 1u32..100_000,
            ckpt_secs in 0.0f64..300.0,
            step_secs in 1e-3f64..100.0,
            nodes in 1u32..256,
        ) {
            let f = FailureModel {
                node_mtbf_hours: mtbf_hours,
                restart_secs,
                checkpoint_interval_steps: interval_steps,
                checkpoint_secs: ckpt_secs,
            };
            let e = f.efficiency_factor(step_secs, nodes);
            prop_assert!(e > 0.0 && e <= 1.0, "factor out of (0,1]: {e}");
            prop_assert!(e.is_finite());
        }
    }
}
