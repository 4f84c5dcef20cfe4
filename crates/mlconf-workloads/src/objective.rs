//! Tuning objectives and trial outcomes.
//!
//! A *trial* runs one configuration (in the simulator) and produces the
//! scalar the tuner minimizes — time-to-accuracy, dollar cost, or a
//! deadline-penalized cost — plus the bookkeeping the experiment harness
//! needs (search cost, throughput, failure reasons).

use mlconf_sim::outcome::SimResult;
use rand::Rng;

use crate::workload::Workload;

/// Fixed per-trial provisioning time (cluster spin-up, data staging) in
/// seconds, charged to search cost.
pub const PROVISIONING_SECS: f64 = 120.0;

/// What the tuner minimizes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Objective {
    /// Wall-clock seconds to reach the workload's target quality.
    TimeToAccuracy,
    /// Dollar cost to reach the target quality.
    CostToAccuracy,
    /// Dollar cost, with configurations missing the deadline penalized
    /// proportionally to how badly they miss it.
    DeadlineCost {
        /// Deadline on time-to-accuracy in seconds.
        deadline_secs: f64,
        /// Penalty multiplier per unit of relative overshoot.
        penalty: f64,
    },
}

impl Objective {
    /// Stable name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            Objective::TimeToAccuracy => "time-to-accuracy",
            Objective::CostToAccuracy => "cost-to-accuracy",
            Objective::DeadlineCost { .. } => "deadline-cost",
        }
    }
}

/// Result of evaluating one configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct TrialOutcome {
    /// The objective value (lower is better); `None` when the
    /// configuration failed to run (OOM or unmappable).
    pub objective: Option<f64>,
    /// Why the trial failed, when it did.
    pub failure: Option<String>,
    /// Predicted wall-clock seconds to the target quality.
    pub tta_secs: f64,
    /// Predicted dollars to the target quality.
    pub cost_usd: f64,
    /// Measured steady-state throughput in samples/second.
    pub throughput: f64,
    /// Measured mean gradient staleness in steps.
    pub staleness_steps: f64,
    /// Machine-seconds spent *running this trial* during the search
    /// (provisioning + profiling run, times nodes) — the currency of E4.
    pub search_cost_machine_secs: f64,
    /// When the trial timed out, the objective-space lower bound implied
    /// by the cutoff (the run was killed at the cutoff, so its true
    /// objective is at least this). `None` for uncensored trials.
    pub censored_at: Option<f64>,
    /// How many execution attempts this outcome consumed (1 = succeeded
    /// or failed on the first try; retries of crashed attempts add one
    /// each).
    pub attempts: u32,
}

impl TrialOutcome {
    /// A failed trial (infeasible or unmappable configuration).
    pub fn failed(reason: impl Into<String>, search_cost_machine_secs: f64) -> Self {
        TrialOutcome {
            objective: None,
            failure: Some(reason.into()),
            tta_secs: f64::INFINITY,
            cost_usd: f64::INFINITY,
            throughput: 0.0,
            staleness_steps: 0.0,
            search_cost_machine_secs,
            censored_at: None,
            attempts: 1,
        }
    }

    /// Whether the trial produced a usable measurement.
    pub fn is_ok(&self) -> bool {
        self.objective.is_some()
    }

    /// Whether the trial's measurement is right-censored (it was killed
    /// at a timeout cutoff; the true objective is ≥ [`Self::censored_at`]).
    pub fn is_censored(&self) -> bool {
        self.censored_at.is_some()
    }
}

/// Scores a simulation result against an objective, sampling the
/// workload's (noisy) convergence behaviour with `rng`.
///
/// Returns a failed outcome when the simulated configuration was
/// infeasible.
pub fn score<R: Rng + ?Sized>(
    objective: Objective,
    workload: &Workload,
    sim: &SimResult,
    rng: &mut R,
) -> TrialOutcome {
    // Search cost is charged whether or not the trial succeeded: a failed
    // provisioning attempt still burns machine time.
    let nodes_secs = |run_secs: f64| run_secs + PROVISIONING_SECS;
    if !sim.is_feasible() {
        let reason = sim
            .infeasibility()
            .map(|i| i.to_string())
            .unwrap_or_else(|| "infeasible".to_owned());
        // Failed runs are detected at provisioning/first-step time.
        let cost = nodes_secs(0.0) * price_nodes(sim);
        return TrialOutcome::failed(reason, cost);
    }

    let epochs = workload.convergence().sample_epochs(
        sim.global_batch(),
        sim.avg_staleness_steps(),
        workload.job().dataset_samples(),
        rng,
    );
    let samples = epochs * workload.job().dataset_samples() as f64;
    let tta_secs = samples / sim.throughput();
    let cost_usd = tta_secs / 3600.0 * sim.cluster_price_per_hour();
    let value = match objective {
        Objective::TimeToAccuracy => tta_secs,
        Objective::CostToAccuracy => cost_usd,
        Objective::DeadlineCost {
            deadline_secs,
            penalty,
        } => {
            if tta_secs <= deadline_secs {
                cost_usd
            } else {
                cost_usd * (1.0 + penalty * (tta_secs / deadline_secs - 1.0))
            }
        }
    };
    TrialOutcome {
        objective: Some(value),
        failure: None,
        tta_secs,
        cost_usd,
        throughput: sim.throughput(),
        staleness_steps: sim.avg_staleness_steps(),
        search_cost_machine_secs: nodes_secs(sim.duration_secs()) * price_nodes(sim),
        censored_at: None,
        attempts: 1,
    }
}

/// Number of nodes inferred from the cluster price (the `SimResult` does
/// not carry the cluster itself); search cost uses machine-seconds, i.e.
/// run time × nodes, and we recover nodes from price ratios at reporting
/// time. To keep the unit honest we charge *price-weighted* seconds: one
/// machine-second of an expensive box costs proportionally more.
fn price_nodes(sim: &SimResult) -> f64 {
    // Normalize to the cheapest catalog machine so the unit reads as
    // "equivalent small-machine seconds".
    const BASE_PRICE_PER_HOUR: f64 = 0.10;
    sim.cluster_price_per_hour() / BASE_PRICE_PER_HOUR
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::mlp_mnist;
    use mlconf_sim::memory::Infeasibility;
    use mlconf_sim::outcome::PhaseBreakdown;
    use mlconf_util::rng::Pcg64;
    use mlconf_util::stats::OnlineStats;

    fn sim_result(throughput_steps: u64, batch: u64, secs: f64, staleness: f64) -> SimResult {
        let st: OnlineStats = [secs / throughput_steps as f64].into_iter().collect();
        SimResult::feasible(
            throughput_steps,
            batch,
            secs,
            st,
            PhaseBreakdown::default(),
            staleness,
            4.0,
        )
    }

    #[test]
    fn tta_objective_matches_composition() {
        let w = mlp_mnist();
        let sim = sim_result(100, 512, 20.0, 0.0); // 2560 samples/s
        let mut rng = Pcg64::seed(1);
        let out = score(Objective::TimeToAccuracy, &w, &sim, &mut rng);
        assert!(out.is_ok());
        let epochs = w
            .convergence()
            .epochs_to_target(512, 0.0, w.job().dataset_samples());
        // Noise CV is 5%; the sampled value should be within a few sigma.
        let want = epochs * w.job().dataset_samples() as f64 / sim.throughput();
        let got = out.objective.unwrap();
        assert!((got / want - 1.0).abs() < 0.25, "got {got} want ~{want}");
        assert_eq!(got, out.tta_secs);
    }

    #[test]
    fn cost_objective_scales_with_price() {
        let w = mlp_mnist();
        let sim = sim_result(100, 512, 20.0, 0.0);
        let mut rng = Pcg64::seed(2);
        let out = score(Objective::CostToAccuracy, &w, &sim, &mut rng);
        assert!((out.cost_usd - out.tta_secs / 3600.0 * 4.0).abs() < 1e-9);
        assert_eq!(out.objective.unwrap(), out.cost_usd);
    }

    #[test]
    fn deadline_penalty_applies_only_past_deadline() {
        let w = mlp_mnist();
        let sim = sim_result(100, 512, 20.0, 0.0);
        let mut r1 = Pcg64::seed(3);
        let mut r2 = Pcg64::seed(3);
        let loose = score(
            Objective::DeadlineCost {
                deadline_secs: 1e9,
                penalty: 10.0,
            },
            &w,
            &sim,
            &mut r1,
        );
        let tight = score(
            Objective::DeadlineCost {
                deadline_secs: 1.0,
                penalty: 10.0,
            },
            &w,
            &sim,
            &mut r2,
        );
        assert_eq!(loose.objective.unwrap(), loose.cost_usd);
        assert!(tight.objective.unwrap() > tight.cost_usd);
    }

    #[test]
    fn staleness_worsens_objective() {
        let w = mlp_mnist();
        let fresh = sim_result(100, 512, 20.0, 0.0);
        let stale = sim_result(100, 512, 20.0, 4.0);
        let mut r1 = Pcg64::seed(4);
        let mut r2 = Pcg64::seed(4);
        let a = score(Objective::TimeToAccuracy, &w, &fresh, &mut r1);
        let b = score(Objective::TimeToAccuracy, &w, &stale, &mut r2);
        assert!(b.objective.unwrap() > a.objective.unwrap());
    }

    #[test]
    fn infeasible_sim_fails_with_reason_and_cost() {
        let w = mlp_mnist();
        let sim = SimResult::infeasible(
            Infeasibility::WorkerOom {
                required: 10,
                available: 5,
            },
            4.0,
        );
        let mut rng = Pcg64::seed(5);
        let out = score(Objective::TimeToAccuracy, &w, &sim, &mut rng);
        assert!(!out.is_ok());
        assert!(out.failure.as_deref().unwrap().contains("OOM"));
        assert!(out.search_cost_machine_secs > 0.0);
        assert_eq!(out.tta_secs, f64::INFINITY);
    }

    #[test]
    fn search_cost_includes_provisioning() {
        let w = mlp_mnist();
        let sim = sim_result(100, 512, 20.0, 0.0);
        let mut rng = Pcg64::seed(6);
        let out = score(Objective::TimeToAccuracy, &w, &sim, &mut rng);
        // (20 run + 120 provisioning) × price-normalized nodes (4.0/0.1).
        assert!((out.search_cost_machine_secs - 140.0 * 40.0).abs() < 1e-9);
    }

    #[test]
    fn objective_names() {
        assert_eq!(Objective::TimeToAccuracy.name(), "time-to-accuracy");
        assert_eq!(
            Objective::DeadlineCost {
                deadline_secs: 1.0,
                penalty: 1.0
            }
            .name(),
            "deadline-cost"
        );
    }
}
