//! `serve-bo`: the service's real traffic. A spawned `mlconf serve`
//! with default flags hosts [`BO_SESSIONS`] BO sessions; the client
//! scores every suggestion with the simulator, so outcomes are real and
//! BO's per-step cost grows with each session's history.

use mlconf_bench::oracle::find_oracle;
use mlconf_serve::RegistryConfig;
use mlconf_tuners::tuner::TrialHistory;
use mlconf_workloads::evaluator::ConfigEvaluator;
use mlconf_workloads::objective::Objective;
use mlconf_workloads::workload::by_name;

use crate::loadgen::{self, history_from_status, perform, LoadReport, Tenant, P99_SLICE_OPS};
use crate::plan::{bo_plan, Event, OpKind, BO_MAX_NODES, BO_PREP_TRIALS, BO_SESSIONS, BO_WORKLOAD};
use crate::report::{zip_metrics, Outcome, END_TO_END};
use crate::stats::{mean, median, quantile};
use crate::trace::{self, Phase, SERVE_SHARDS};
use crate::Env;

/// Figures this workload prints beside the result but keeps out of it.
pub const INFO: [(&str, &str); 4] = [
    ("step_p50_ms", "ms"),
    ("step_p99_ms", "ms"),
    ("step_p90_ms", "ms"),
    ("step_mean_ms", "ms"),
];

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 15;
/// Halton candidates of the oracle that normalizes `regret`.
pub const ORACLE_CANDIDATES: usize = 1500;
/// Final histories whose model fits the traced run replays.
const GP_REPLAY_HISTORIES: usize = 2;

/// Runs `serve-bo`.
///
/// # Errors
///
/// Fails when the service cannot be set up or prepared.
pub fn run(env: &Env) -> Result<Outcome, String> {
    let plan = bo_plan(env.seed, env.seconds);
    let specs: Vec<_> = plan.sessions.iter().map(|s| s.json()).collect();
    let workload = by_name(BO_WORKLOAD).expect("suite workload");
    let evaluator = ConfigEvaluator::new(
        workload,
        Objective::TimeToAccuracy,
        BO_MAX_NODES,
        plan.eval_seed,
    );

    let setup = crate::proc::setup(env, "bo", &[], &specs, SETUP_REPS)?;
    let addr = setup.server.addr.clone();
    let tenants: Vec<Tenant<'_>> = setup
        .ids
        .iter()
        .map(|id| Tenant {
            id: id.clone(),
            evaluator: &evaluator,
        })
        .collect();
    let op = |c: &mut _, e: &Event| perform(c, &tenants, e);

    // Untimed preparation: round-robin steps until every session holds
    // BO_PREP_TRIALS trials.
    let prep_events: Vec<Event> = (0..BO_PREP_TRIALS)
        .flat_map(|_| 0..BO_SESSIONS)
        .map(|session| Event {
            at: 0.0,
            session,
            kind: OpKind::Step,
        })
        .collect();
    let clock = std::time::Instant::now();
    let prep = loadgen::run(&prep_events, &addr, env.workers, &op);
    eprintln!(
        "perfbench: preparation took {:.1} s",
        clock.elapsed().as_secs_f64()
    );
    if prep.failed() > 0 {
        return Err(format!("{} preparation steps failed", prep.failed()));
    }
    let clock = std::time::Instant::now();
    let cpu_before = setup.server.cpu_s();
    let window = loadgen::run(&plan.window, &addr, env.workers, &op);
    let step_cpu_ms = step_cpu_ms(cpu_before, setup.server.cpu_s(), &window);
    eprintln!(
        "perfbench: window took {:.1} s",
        clock.elapsed().as_secs_f64()
    );

    let mut client = loadgen::client(&addr);
    let served: Vec<_> = setup
        .ids
        .iter()
        .map(|id| {
            loadgen::status(&mut client, id)
                .and_then(|s| history_from_status(evaluator.space(), &s))
        })
        .collect::<Result<_, _>>()?;
    let rss_mb = setup.server.peak_rss_mb().unwrap_or(f64::NAN);
    setup.server.kill();

    let mut out = Outcome {
        attempted: window.records.len() as u64,
        failed: window.failed(),
        ..Outcome::default()
    };
    let expected = plan.sessions.iter().map(|s| s.budget).collect::<Vec<_>>();
    let reached = served
        .iter()
        .zip(&expected)
        .filter(|(h, &b)| h.len() == b)
        .count();
    out.check(
        "sessions_reach_budget",
        reached == BO_SESSIONS,
        format!("{reached}/{BO_SESSIONS} sessions hold their full budget of trials"),
    );

    let phases = [Phase::from_report(&prep), Phase::from_report(&window)];
    let config = RegistryConfig {
        snapshot_every: 0,
        shards: SERVE_SHARDS,
        max_sessions: 0,
    };
    let clock = std::time::Instant::now();
    let (replayed, layers) = if env.trace {
        let t = trace::trace_serve(env, "bo", &config, &specs, &phases)?;
        (t.histories.clone(), Some(t))
    } else {
        let steps = trace::steps_by_session(&phases, specs.len());
        let (_, histories) = trace::replay_components(None, 0, &specs, &steps, env.workers, false)?;
        (histories, None)
    };
    eprintln!(
        "perfbench: in-process replay took {:.1} s",
        clock.elapsed().as_secs_f64()
    );
    let identical = served.iter().zip(&replayed).filter(|(a, b)| a == b).count();
    out.check(
        "histories_bit_identical",
        identical == BO_SESSIONS,
        format!(
            "{identical}/{BO_SESSIONS} served histories equal the in-process AskTellSession replay"
        ),
    );

    match layers {
        Some(mut t) => {
            let histories: Vec<_> = served.iter().take(GP_REPLAY_HISTORIES).collect();
            trace::replay_gp(evaluator.space(), &histories, &mut t.tracer);
            trace::finish_serve(env, t, &window, &mut out);
        }
        None => {
            let regrets = regrets(&evaluator, &served);
            out.check(
                "regret_defined",
                regrets.len() == BO_SESSIONS,
                format!(
                    "{}/{BO_SESSIONS} sessions found a feasible configuration",
                    regrets.len()
                ),
            );
            let steps = window.latencies_ms(OpKind::Step);
            out.metrics = zip_metrics(
                &END_TO_END,
                &[
                    setup.setup_s,
                    step_cpu_ms,
                    ok_frac(&out),
                    rss_mb,
                    median(&regrets),
                ],
            );
            out.info = zip_metrics(
                &INFO,
                &[
                    quantile(&steps, 0.5),
                    window.p99_ms(OpKind::Step, P99_SLICE_OPS),
                    quantile(&steps, 0.9),
                    mean(&steps),
                ],
            );
        }
    }
    Ok(out)
}

/// Each history's regret: the true (noise-free) objective of its best
/// configuration over the oracle's. Histories without a feasible best
/// have none.
pub fn regrets<'a>(
    evaluator: &ConfigEvaluator,
    histories: impl IntoIterator<Item = &'a TrialHistory>,
) -> Vec<f64> {
    let oracle = find_oracle(evaluator, ORACLE_CANDIDATES);
    histories
        .into_iter()
        .filter_map(TrialHistory::best)
        .filter_map(|b| evaluator.true_objective(&b.config))
        .map(|v| v / oracle.value)
        .collect()
}

/// The server's CPU time (ms) over a window, per step the window
/// completed; NaN when either reading is missing.
pub fn step_cpu_ms(before: Option<f64>, after: Option<f64>, window: &LoadReport) -> f64 {
    let steps = window.latencies_ms(OpKind::Step).len().max(1) as f64;
    match (before, after) {
        (Some(b), Some(a)) => (a - b) * 1e3 / steps,
        _ => f64::NAN,
    }
}

/// Share of attempted operations that succeeded.
pub fn ok_frac(out: &Outcome) -> f64 {
    1.0 - out.failed as f64 / out.attempted.max(1) as f64
}
