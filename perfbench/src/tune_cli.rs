//! `tune-cli`: the paper's in-process user path. Spawned
//! `mlconf tune --json` BO runs exercise the model and the simulator
//! with no sockets, journal or locks, and use both cores through
//! parallel hyperparameter fits.

use std::collections::BTreeMap;
use std::process::Command;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

use mlconf_serve::json::{parse, Json};
use mlconf_tuners::drift::{DriftConfig, ReTunePolicy};
use mlconf_tuners::executor::TrialExecutor;
use mlconf_tuners::factory::build_tuner;
use mlconf_tuners::session::{Ask, AskTellSession, TrialEvent, TrialObserver, TuningSession};
use mlconf_tuners::tuner::{TrialHistory, Tuner};
use mlconf_workloads::evaluator::ConfigEvaluator;
use mlconf_workloads::objective::Objective;
use mlconf_workloads::tunespace::default_config;
use mlconf_workloads::workload::by_name;

use crate::plan::{tune_plan, TuneRun, TUNE_BUDGET};
use crate::proc::Usage;
use crate::report::{zip_metrics, Outcome, END_TO_END};
use crate::serve_bo::{ok_frac, regrets as regrets_of};
use crate::stats::{mean, median, quantile};
use crate::trace::{self, residual_pct, Tracer, STEP_TOLERANCE_PCT};
use crate::Env;

/// Figures this workload prints beside the result but keeps out of it.
pub const INFO: [(&str, &str); 5] = [
    ("step_p50_ms", "ms"),
    ("step_p99_ms", "ms"),
    ("step_p90_ms", "ms"),
    ("step_mean_ms", "ms"),
    ("tune_wall_s", "s"),
];

/// `mlconf tune`'s default cluster-size ceiling.
const MAX_NODES: i64 = 32;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 31;

fn evaluator(run: &TuneRun) -> ConfigEvaluator {
    let workload = by_name(run.workload).expect("suite workload");
    ConfigEvaluator::new(workload, Objective::TimeToAccuracy, MAX_NODES, run.seed)
}

fn tuner(run: &TuneRun, evaluator: &ConfigEvaluator) -> Box<dyn Tuner + Send> {
    build_tuner(
        "bo",
        evaluator.space().clone(),
        TUNE_BUDGET,
        run.seed,
        Some(default_config(MAX_NODES)),
    )
    .expect("stock tuner")
}

/// Times each step of a `TuningSession`: ask, evaluation and tell, from
/// one trial's completion (or the start of the run) to the next's.
struct StepClock {
    last: Instant,
    steps_ms: Arc<Mutex<Vec<f64>>>,
}

impl TrialObserver for StepClock {
    fn on_event(&mut self, event: &TrialEvent<'_>) {
        if let TrialEvent::TrialCompleted { .. } = event {
            let now = Instant::now();
            let ms = (now - self.last).as_secs_f64() * 1e3;
            self.steps_ms
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push(ms);
            self.last = now;
        }
    }
}

/// The run in-process, through the `TuningSession` the CLI drives, with
/// the CLI's executor and re-tune settings. Returns the history and the
/// time (ms) of each step.
fn reference(run: &TuneRun, evaluator: &ConfigEvaluator) -> (TrialHistory, Vec<f64>) {
    let steps_ms = Arc::new(Mutex::new(Vec::with_capacity(TUNE_BUDGET)));
    let mut tuner = tuner(run, evaluator);
    let clock = StepClock {
        last: Instant::now(),
        steps_ms: Arc::clone(&steps_ms),
    };
    let history = TuningSession::new(evaluator, TUNE_BUDGET, run.seed)
        .executor(TrialExecutor::passthrough().with_seed(run.seed))
        .retune(ReTunePolicy::Off, DriftConfig::default())
        .observe_with(Box::new(clock))
        .run(tuner.as_mut())
        .history;
    let steps = std::mem::take(&mut *steps_ms.lock().unwrap_or_else(PoisonError::into_inner));
    (history, steps)
}

/// One finished `mlconf tune --json` run.
struct CliRun {
    wall_s: f64,
    usage: Option<Usage>,
    summary: Json,
}

/// Runs `mlconf tune --json`.
fn tune(env: &Env, run: &TuneRun, budget: usize) -> Result<CliRun, String> {
    let done = crate::proc::run_to_end(
        Command::new(&env.mlconf)
            .args(["tune", "--workload", run.workload, "--json"])
            .args([
                "--budget",
                &budget.to_string(),
                "--seed",
                &run.seed.to_string(),
            ]),
    )?;
    if !done.status.success() {
        return Err(format!("mlconf tune failed: {}", done.stderr.trim()));
    }
    let last = done.stdout.lines().last().unwrap_or_default();
    let summary = parse(last).map_err(|e| format!("mlconf tune --json: {e}"))?;
    Ok(CliRun {
        wall_s: done.wall_s,
        usage: done.usage,
        summary,
    })
}

/// Runs `tune-cli`.
///
/// # Errors
///
/// Fails when the CLI cannot be run.
pub fn run(env: &Env) -> Result<Outcome, String> {
    let runs = tune_plan(env.seed);
    if env.trace {
        return traced(env, &runs);
    }
    let setup: Vec<f64> = (0..SETUP_REPS)
        .map(|_| tune(env, &runs[0], 0).map(|r| r.wall_s))
        .collect::<Result<_, _>>()?;

    let mut out = Outcome::default();
    let mut wall = 0.0;
    let mut usages = Vec::new();
    let mut regrets = Vec::new();
    let mut steps_ms = Vec::new();
    for run in &runs {
        out.attempted += 1;
        let cli = match tune(env, run, TUNE_BUDGET) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("perfbench: {e}");
                out.failed += 1;
                continue;
            }
        };
        wall += cli.wall_s;
        usages.push(cli.usage);
        let cli_best = cli
            .summary
            .get("best")
            .and_then(|b| b.get("objective"))
            .and_then(Json::as_f64);

        let evaluator = evaluator(run);
        let (reference, steps) = reference(run, &evaluator);
        steps_ms.extend(steps);
        let in_process = reference.best().and_then(|b| b.outcome.objective);
        out.check(
            "cli_best_matches_in_process",
            cli_best.is_some() && cli_best == in_process,
            format!(
                "{} seed {}: CLI best {cli_best:?}, in-process TuningSession best {in_process:?}",
                run.workload, run.seed
            ),
        );
        regrets.extend(regrets_of(&evaluator, [&reference]));
    }
    out.check(
        "regret_defined",
        regrets.len() == runs.len(),
        format!(
            "{}/{} runs found a feasible configuration",
            regrets.len(),
            runs.len()
        ),
    );
    // NaN, so not `correct`, when any run's use is unknown.
    let (peak_rss_mb, cpu_s) = usages
        .iter()
        .try_fold((f64::NAN, 0.0), |(peak, cpu), u| {
            u.map(|u| (peak.max(u.peak_rss_mb), cpu + u.cpu_s))
        })
        .unwrap_or((f64::NAN, f64::NAN));
    out.metrics = zip_metrics(
        &END_TO_END,
        &[
            median(&setup),
            cpu_s * 1e3 / steps_ms.len().max(1) as f64,
            ok_frac(&out),
            peak_rss_mb,
            median(&regrets),
        ],
    );
    out.info = zip_metrics(
        &INFO,
        &[
            quantile(&steps_ms, 0.5),
            quantile(&steps_ms, 0.99),
            quantile(&steps_ms, 0.9),
            mean(&steps_ms),
            wall,
        ],
    );
    Ok(out)
}

/// The in-process tuning loop the CLI runs, one span per step with the
/// ask, the simulator evaluation and the tell inside it, on about half
/// the steps (see [`trace::sampled`]). Returns the history and the
/// times (µs) of the traced and of the bare steps.
fn tuning_loop(run: &TuneRun, t: &mut Tracer) -> (TrialHistory, Vec<f64>, Vec<f64>) {
    let evaluator = evaluator(run);
    let mut tuner = tuner(run, &evaluator);
    let mut core = AskTellSession::new(TUNE_BUDGET, run.seed);
    let (mut traced, mut plain) = (Vec::new(), Vec::new());
    for op in 0.. {
        t.enabled = trace::sampled(op);
        let start = Instant::now();
        let pending = match t.span("session.ask", "step", op, || core.ask(tuner.as_mut())) {
            Ok(Ask::Trial(p)) => p,
            _ => break,
        };
        let outcome = t.span("sim.evaluate", "step", op, || {
            evaluator.evaluate_with_fidelity(&pending.config, pending.rep, pending.fidelity)
        });
        t.count("sim.evaluations", 1.0);
        let told = t.span("session.tell", "step", op, || {
            core.tell_outcome(tuner.as_mut(), outcome)
        });
        told.expect("a trial was pending");
        let end = Instant::now();
        let us = (end - start).as_secs_f64() * 1e6;
        if t.enabled {
            t.push("step", "", op, start, end);
            traced.push(us);
        } else {
            plain.push(us);
        }
    }
    (core.history().clone(), traced, plain)
}

/// The traced run: each CLI run's loop in-process, checked against the
/// `TuningSession` the CLI uses, and its model fits replayed.
fn traced(env: &Env, runs: &[TuneRun]) -> Result<Outcome, String> {
    let mut t = Tracer::new(true, Instant::now());
    let mut out = Outcome::default();
    let (mut traced_steps, mut plain_steps) = (Vec::new(), Vec::new());
    let mut histories = Vec::new();
    for run in runs {
        out.attempted += 1;
        let (history, traced, plain) = tuning_loop(run, &mut t);
        let evaluator = evaluator(run);
        let (reference, _) = reference(run, &evaluator);
        out.check(
            "traced_loop_matches_tuning_session",
            history == reference,
            format!(
                "{} seed {}: traced ask/tell loop vs TuningSession history",
                run.workload, run.seed
            ),
        );
        traced_steps.extend(traced);
        plain_steps.extend(plain);
        histories.push((evaluator, history));
    }
    t.enabled = true;
    for (evaluator, history) in &histories {
        trace::replay_gp(evaluator.space(), &[history], &mut t);
    }
    let parts = t.total("session.ask") + t.total("sim.evaluate") + t.total("session.tell");
    let step_residual = residual_pct(t.total("step"), parts);
    out.check(
        "step_spans_reconcile",
        step_residual.abs() <= STEP_TOLERANCE_PCT,
        format!("step vs ask+evaluate+tell residual {step_residual:.2}% (tolerance {STEP_TOLERANCE_PCT}%)"),
    );
    let extra = BTreeMap::from([
        (
            "trace.overhead_pct",
            trace::overhead_pct(&plain_steps, &traced_steps),
        ),
        ("trace.request_residual_pct", 0.0),
        ("trace.step_residual_pct", step_residual),
    ]);
    out.metrics = trace::layer_metrics(&t, None, &extra);
    trace::write_spans(env, &t);
    Ok(out)
}
