//! Scripted fault injection for trial execution.
//!
//! Real tuning runs do not observe a clean `(configuration → objective)`
//! function: profiling clusters crash mid-measurement, runs hang past any
//! reasonable cutoff, nodes OOM, and stragglers corrupt the measured
//! sample. A [`FaultPlan`] scripts those events *by trial index and
//! attempt*, fully deterministically, so any tuner can be replayed
//! through an identical adversarial schedule — the chaos harness behind
//! the E9 robustness experiment and the `TrialExecutor` retry layer in
//! `mlconf-tuners`.
//!
//! Plans are plain data: CSV round-trippable (`mlconf-tuners::history_io`),
//! comparable, and generatable from a `(seed, severity)` pair via
//! [`FaultPlan::scripted`] so two invocations anywhere produce
//! byte-identical schedules.

use rand::Rng;

use crate::straggler::StragglerModel;
use mlconf_util::rng::Pcg64;

/// One kind of injected fault.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// The attempt dies partway through its measurement: no observation,
    /// `at_frac` of the run's machine cost is burned. Retryable.
    Crash {
        /// Fraction of the full run completed before the crash, in
        /// `(0, 1]`.
        at_frac: f64,
    },
    /// The attempt hangs: it runs until the executor's cutoff and is
    /// killed, yielding a right-censored observation. Not retryable (a
    /// rerun would hang the same way).
    Hang,
    /// A node OOMs at startup: the trial fails outright with only
    /// provisioning cost. Not retryable (deterministic for the config).
    Oom,
    /// The measurement is corrupted by stragglers: the attempt is
    /// simulated under [`StragglerModel::scaled`]`(severity)` — played
    /// out through the engine, not bolted on after the fact.
    Straggle {
        /// Straggler severity multiplier (1 = cloud default).
        severity: f64,
    },
}

impl FaultKind {
    /// Stable short name for serialization and reports.
    pub fn name(&self) -> &'static str {
        match self {
            FaultKind::Crash { .. } => "crash",
            FaultKind::Hang => "hang",
            FaultKind::Oom => "oom",
            FaultKind::Straggle { .. } => "straggle",
        }
    }

    /// The numeric parameter carried by the kind (`at_frac` for crashes,
    /// `severity` for stragglers, 0 otherwise).
    pub fn param(&self) -> f64 {
        match self {
            FaultKind::Crash { at_frac } => *at_frac,
            FaultKind::Straggle { severity } => *severity,
            FaultKind::Hang | FaultKind::Oom => 0.0,
        }
    }

    /// Reconstructs a kind from its `name`/`param` pair (the
    /// serialization format used by `history_io`).
    pub fn from_name_param(name: &str, param: f64) -> Option<FaultKind> {
        match name {
            "crash" => Some(FaultKind::Crash { at_frac: param }),
            "hang" => Some(FaultKind::Hang),
            "oom" => Some(FaultKind::Oom),
            "straggle" => Some(FaultKind::Straggle { severity: param }),
            _ => None,
        }
    }

    /// Whether a retry can possibly succeed after this fault.
    pub fn retryable(&self) -> bool {
        matches!(self, FaultKind::Crash { .. })
    }

    /// Checks the kind's parameter, returning a description of the
    /// problem if it is out of range.
    ///
    /// # Errors
    ///
    /// Returns a human-readable reason when the parameter is invalid.
    pub fn try_validate(&self) -> Result<(), String> {
        match self {
            FaultKind::Crash { at_frac } if !(*at_frac > 0.0 && *at_frac <= 1.0) => {
                Err(format!("crash at_frac must be in (0,1], got {at_frac}"))
            }
            FaultKind::Straggle { severity } if !(*severity >= 0.0 && severity.is_finite()) => Err(
                format!("straggle severity must be finite and >= 0, got {severity}"),
            ),
            _ => Ok(()),
        }
    }

    /// Validates the kind's parameter.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range parameters.
    pub fn validate(&self) {
        if let Err(reason) = self.try_validate() {
            panic!("{reason}");
        }
    }

    /// The straggler model an attempt under this fault should be
    /// simulated with, if the fault perturbs the simulation itself.
    pub fn straggler_override(&self) -> Option<StragglerModel> {
        match self {
            FaultKind::Straggle { severity } => Some(StragglerModel::scaled(*severity)),
            _ => None,
        }
    }
}

/// One scheduled fault: `kind` strikes attempt number `attempt`
/// (0-based) of trial number `trial` (0-based, in execution order).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// Trial index the fault targets.
    pub trial: usize,
    /// Attempt number within the trial (0 = first execution).
    pub attempt: u32,
    /// What happens.
    pub kind: FaultKind,
}

/// A deterministic, replayable schedule of injected faults.
///
/// At most one fault applies per `(trial, attempt)` pair; later pushes
/// for the same pair are rejected. Trials/attempts not named in the plan
/// execute cleanly.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

/// Per-attempt fault probabilities of the scripted generator at
/// severity 1 (scaled linearly, capped below 1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultRates {
    /// Probability an attempt crashes mid-measurement.
    pub crash: f64,
    /// Probability a trial's first attempt hangs past the cutoff.
    pub hang: f64,
    /// Probability a trial OOMs at startup.
    pub oom: f64,
    /// Probability an attempt's measurement is straggler-corrupted.
    pub straggle: f64,
    /// Straggler severity applied when a straggle fault strikes.
    pub straggle_severity: f64,
}

impl FaultRates {
    /// The base rates (severity 1): 8% crash, 5% hang, 3% OOM, 10%
    /// straggle at 4× cloud-default severity.
    pub fn base() -> Self {
        FaultRates {
            crash: 0.08,
            hang: 0.05,
            oom: 0.03,
            straggle: 0.10,
            straggle_severity: 4.0,
        }
    }
}

/// Attempts per trial the scripted generator pre-draws faults for (so
/// retries of a crashed attempt can themselves be faulted).
pub const SCRIPTED_ATTEMPTS: u32 = 6;

impl FaultPlan {
    /// An empty plan (every trial executes cleanly).
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// The scheduled events, ordered by `(trial, attempt)`.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Whether the plan schedules no faults at all.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Adds one event.
    ///
    /// # Panics
    ///
    /// Panics if the `(trial, attempt)` slot is already scheduled or the
    /// kind's parameter is out of range.
    pub fn push(&mut self, event: FaultEvent) {
        event.kind.validate();
        assert!(
            self.event_for(event.trial, event.attempt).is_none(),
            "duplicate fault for trial {} attempt {}",
            event.trial,
            event.attempt
        );
        self.events.push(event);
        self.events.sort_by_key(|e| (e.trial, e.attempt));
    }

    /// The fault scheduled for `(trial, attempt)`, if any.
    pub fn event_for(&self, trial: usize, attempt: u32) -> Option<FaultKind> {
        self.events
            .iter()
            .find(|e| e.trial == trial && e.attempt == attempt)
            .map(|e| e.kind)
    }

    /// Generates a deterministic plan over `trials` trials at `severity`
    /// (0 = no faults, 1 = [`FaultRates::base`], scaled linearly and
    /// capped at 80% per category). Identical `(trials, severity, seed)`
    /// always yields an identical plan, independent of everything else.
    ///
    /// Hang and OOM faults only strike attempt 0 (they are properties of
    /// the trial, not of a retry); crash and straggle faults are drawn
    /// independently for each of the first [`SCRIPTED_ATTEMPTS`] attempts
    /// so retries face the same weather as first tries.
    ///
    /// # Panics
    ///
    /// Panics if `severity` is negative or non-finite.
    pub fn scripted(trials: usize, severity: f64, seed: u64) -> Self {
        assert!(
            severity >= 0.0 && severity.is_finite(),
            "severity must be finite and >= 0, got {severity}"
        );
        let rates = FaultRates::base();
        let p = |base: f64| (base * severity).min(0.8);
        let mut rng = Pcg64::with_stream(seed, FAULT_PLAN_STREAM);
        let mut plan = FaultPlan::none();
        for trial in 0..trials {
            // Trial-scoped faults: decided once, strike attempt 0.
            let u: f64 = rng.gen();
            if u < p(rates.oom) {
                plan.push(FaultEvent {
                    trial,
                    attempt: 0,
                    kind: FaultKind::Oom,
                });
            } else if u < p(rates.oom) + p(rates.hang) {
                plan.push(FaultEvent {
                    trial,
                    attempt: 0,
                    kind: FaultKind::Hang,
                });
            }
            // Attempt-scoped faults: independent per attempt. All draws
            // happen unconditionally so the stream position (and thus
            // every later trial's schedule) is independent of which
            // faults actually fired.
            for attempt in 0..SCRIPTED_ATTEMPTS {
                let v: f64 = rng.gen();
                let at_frac: f64 = rng.gen_range(0.1..0.9);
                let w: f64 = rng.gen();
                if plan.event_for(trial, attempt).is_some() {
                    continue;
                }
                if v < p(rates.crash) {
                    plan.push(FaultEvent {
                        trial,
                        attempt,
                        kind: FaultKind::Crash { at_frac },
                    });
                } else if w < p(rates.straggle) {
                    plan.push(FaultEvent {
                        trial,
                        attempt,
                        kind: FaultKind::Straggle {
                            severity: rates.straggle_severity,
                        },
                    });
                }
            }
        }
        plan
    }

    /// The named severity presets used by E9 and the CLI's
    /// `--fault-plan mild|moderate|severe`.
    pub fn severity_of(name: &str) -> Option<f64> {
        match name {
            "mild" => Some(0.5),
            "moderate" => Some(1.0),
            "severe" => Some(2.0),
            _ => None,
        }
    }
}

/// RNG stream tag reserved for scripted fault-plan generation, so plan
/// draws never collide with simulation or evaluator streams.
const FAULT_PLAN_STREAM: u64 = 0xfa17_91a5;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_schedules_nothing() {
        let p = FaultPlan::none();
        assert!(p.is_empty());
        assert_eq!(p.event_for(0, 0), None);
        assert_eq!(p.event_for(17, 3), None);
    }

    #[test]
    fn push_and_lookup() {
        let mut p = FaultPlan::none();
        p.push(FaultEvent {
            trial: 3,
            attempt: 1,
            kind: FaultKind::Hang,
        });
        p.push(FaultEvent {
            trial: 3,
            attempt: 0,
            kind: FaultKind::Crash { at_frac: 0.5 },
        });
        assert_eq!(p.event_for(3, 1), Some(FaultKind::Hang));
        assert!(matches!(p.event_for(3, 0), Some(FaultKind::Crash { .. })));
        assert_eq!(p.event_for(3, 2), None);
        // Events come back sorted by (trial, attempt).
        assert_eq!(p.events()[0].attempt, 0);
    }

    #[test]
    #[should_panic(expected = "duplicate fault")]
    fn duplicate_slot_rejected() {
        let mut p = FaultPlan::none();
        let e = FaultEvent {
            trial: 1,
            attempt: 0,
            kind: FaultKind::Oom,
        };
        p.push(e);
        p.push(e);
    }

    #[test]
    #[should_panic(expected = "at_frac")]
    fn crash_fraction_validated() {
        let mut p = FaultPlan::none();
        p.push(FaultEvent {
            trial: 0,
            attempt: 0,
            kind: FaultKind::Crash { at_frac: 0.0 },
        });
    }

    #[test]
    fn scripted_is_deterministic() {
        let a = FaultPlan::scripted(40, 1.0, 7);
        let b = FaultPlan::scripted(40, 1.0, 7);
        assert_eq!(a, b);
        let c = FaultPlan::scripted(40, 1.0, 8);
        assert_ne!(a, c, "different seeds must give different plans");
    }

    #[test]
    fn scripted_zero_severity_is_clean() {
        assert!(FaultPlan::scripted(100, 0.0, 1).is_empty());
    }

    #[test]
    fn scripted_severity_scales_fault_count() {
        let mild = FaultPlan::scripted(200, 0.5, 3).events().len();
        let severe = FaultPlan::scripted(200, 2.0, 3).events().len();
        assert!(
            severe > mild,
            "severe ({severe}) should schedule more faults than mild ({mild})"
        );
        assert!(mild > 0, "mild severity should still schedule some faults");
    }

    #[test]
    fn scripted_prefix_stable() {
        // The schedule for trial i does not depend on how many trials
        // the plan was generated for (stream draws are unconditional).
        let short = FaultPlan::scripted(10, 1.0, 5);
        let long = FaultPlan::scripted(30, 1.0, 5);
        for t in 0..10 {
            for a in 0..SCRIPTED_ATTEMPTS {
                assert_eq!(short.event_for(t, a), long.event_for(t, a));
            }
        }
    }

    #[test]
    fn hang_and_oom_only_strike_first_attempts() {
        let p = FaultPlan::scripted(300, 2.0, 9);
        for e in p.events() {
            if matches!(e.kind, FaultKind::Hang | FaultKind::Oom) {
                assert_eq!(e.attempt, 0, "{e:?}");
            }
            e.kind.validate();
        }
    }

    #[test]
    fn kind_name_param_roundtrip() {
        for kind in [
            FaultKind::Crash { at_frac: 0.4 },
            FaultKind::Hang,
            FaultKind::Oom,
            FaultKind::Straggle { severity: 3.0 },
        ] {
            let back = FaultKind::from_name_param(kind.name(), kind.param()).unwrap();
            assert_eq!(back, kind);
        }
        assert_eq!(FaultKind::from_name_param("bogus", 1.0), None);
    }

    #[test]
    fn severity_presets() {
        assert_eq!(FaultPlan::severity_of("mild"), Some(0.5));
        assert_eq!(FaultPlan::severity_of("moderate"), Some(1.0));
        assert_eq!(FaultPlan::severity_of("severe"), Some(2.0));
        assert_eq!(FaultPlan::severity_of("apocalyptic"), None);
    }

    #[test]
    fn retryability() {
        assert!(FaultKind::Crash { at_frac: 0.5 }.retryable());
        assert!(!FaultKind::Hang.retryable());
        assert!(!FaultKind::Oom.retryable());
        assert!(!FaultKind::Straggle { severity: 2.0 }.retryable());
    }
}
