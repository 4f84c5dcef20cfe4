//! `serve-churn`: many cheap sessions over a live-session bound. Tuner
//! compute is nil (random search), so HTTP/JSON framing, registry
//! locks, eviction and revival, fsynced journal appends and snapshot
//! installs do all the work; status reads beside the steps show a gain
//! for one that costs the other.

use std::time::Instant;

use mlconf_serve::json::Json;
use mlconf_serve::RegistryConfig;
use mlconf_workloads::evaluator::ConfigEvaluator;
use mlconf_workloads::objective::Objective;
use mlconf_workloads::workload::by_name;

use crate::loadgen::{self, perform, Tenant, P99_SLICE_OPS};
use crate::plan::{
    churn_plan, ChurnPlan, Event, OpKind, CHURN_MAX_LIVE, CHURN_MAX_NODES, CHURN_RATE,
    CHURN_SESSIONS, CHURN_SNAPSHOT_EVERY, CHURN_WORKLOAD,
};
use crate::proc::{copy_tree, Server};
use crate::report::{zip_metrics, Outcome, END_TO_END};
use crate::search::{self, Probe};
use crate::serve_bo::{ok_frac, regrets, step_cpu_ms};
use crate::stats::{mean, median, quantile};
use crate::trace::{self, Phase, SERVE_SHARDS};
use crate::Env;

/// Figures this workload measures and prints but keeps out of the
/// result: their run-to-run spread on a 2-core host with a shared disk
/// (waits on fsync and on cores, a few heavy status reads, the knee of
/// a rate search) exceeds any bound a regression gate could use, or
/// (`recover_s`) no other workload has them. See the README.
pub const INFO: [(&str, &str); 7] = [
    ("step_p50_ms", "ms"),
    ("step_p99_ms", "ms"),
    ("step_p90_ms", "ms"),
    ("step_mean_ms", "ms"),
    ("read_p99_ms", "ms"),
    ("max_rps_at_slo", "1/s"),
    ("recover_s", "s"),
];

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;
/// Crash-and-restart cycles per run; `recover_s` is their median.
const RECOVERY_REPS: usize = 3;

/// The server flags of this workload.
fn flags() -> Vec<String> {
    vec![
        "--snapshot-every".into(),
        CHURN_SNAPSHOT_EVERY.to_string(),
        "--max-sessions".into(),
        CHURN_MAX_LIVE.to_string(),
    ]
}

/// Seconds of the nominal window: half the run's `--seconds`; the rate
/// search spends the other half.
pub fn window_seconds(seconds: f64) -> f64 {
    seconds / 2.0
}

/// Seconds each rate-search probe offers load for (about six probes
/// share half the run's `--seconds`).
pub fn probe_seconds(seconds: f64) -> f64 {
    (seconds / 12.0).max(1.0)
}

/// Runs `serve-churn`.
///
/// # Errors
///
/// Fails when the service cannot be set up or restarted.
pub fn run(env: &Env) -> Result<Outcome, String> {
    let plan = churn_plan(env.seed);
    let specs: Vec<Json> = plan.sessions.iter().map(|s| s.json()).collect();
    let workload = by_name(CHURN_WORKLOAD).expect("suite workload");
    let evaluator = ConfigEvaluator::new(
        workload,
        Objective::TimeToAccuracy,
        CHURN_MAX_NODES,
        plan.eval_seed,
    );

    let setup = crate::proc::setup(env, "churn", &flags(), &specs, SETUP_REPS)?;
    // Every rate-search probe starts from this copy of the journals:
    // all sessions created, none stepped.
    let base = env.work.join("churn-base");
    if !env.trace {
        copy_tree(&setup.dir, &base).map_err(|e| format!("copy journals: {e}"))?;
    }
    let tenants: Vec<Tenant<'_>> = setup
        .ids
        .iter()
        .map(|id| Tenant {
            id: id.clone(),
            evaluator: &evaluator,
        })
        .collect();
    let events = plan.events(CHURN_RATE, window_seconds(env.seconds));
    let cpu_before = setup.server.cpu_s();
    let window = loadgen::run(&events, &setup.server.addr, env.workers, &|c, e| {
        perform(c, &tenants, e)
    });
    let step_cpu_ms = step_cpu_ms(cpu_before, setup.server.cpu_s(), &window);
    let rss_mb = setup.server.peak_rss_mb().unwrap_or(f64::NAN);
    let mut out = Outcome {
        attempted: window.records.len() as u64,
        failed: window.failed(),
        ..Outcome::default()
    };

    if env.trace {
        setup.server.kill();
        let config = RegistryConfig {
            snapshot_every: CHURN_SNAPSHOT_EVERY,
            shards: SERVE_SHARDS,
            max_sessions: CHURN_MAX_LIVE,
        };
        let t = trace::trace_serve(
            env,
            "churn",
            &config,
            &specs,
            &[Phase::from_report(&window)],
        )?;
        trace::finish_serve(env, t, &window, &mut out);
        return Ok(out);
    }

    // Crash after the window, restart over the same journals, and time
    // until every session answers its status again; then crash that
    // server too and repeat. Every restart must see every acknowledged
    // report.
    let mut acked = vec![0u64; CHURN_SESSIONS];
    let mut unsure = vec![0u64; CHURN_SESSIONS];
    for r in window.records.iter().filter(|r| r.kind == OpKind::Step) {
        if r.ok {
            acked[r.session] += 1;
        } else {
            // A failed step may or may not have had its report applied.
            unsure[r.session] += 1;
        }
    }
    setup.server.kill();
    let mut recoveries = Vec::with_capacity(RECOVERY_REPS);
    let mut lost = 0;
    for _ in 0..RECOVERY_REPS {
        let t0 = Instant::now();
        let restarted = Server::spawn(&env.mlconf, &setup.dir, &flags())?;
        let trials = all_trial_counts(&restarted.addr, &setup.ids, env.workers)?;
        recoveries.push(t0.elapsed().as_secs_f64());
        restarted.kill();
        lost = lost.max(
            (0..CHURN_SESSIONS)
                .filter(|&s| trials[s] < acked[s] || trials[s] > acked[s] + unsure[s])
                .count(),
        );
    }
    let recover_s = crate::stats::median(&recoveries);
    out.check(
        "acked_reports_survive_sigkill",
        lost == 0,
        format!("{lost}/{CHURN_SESSIONS} sessions disagree with their acknowledged reports after SIGKILL"),
    );

    let (best, probes) =
        search::max_rate(|rate| probe(env, &plan, &base, &setup.ids, &evaluator, rate));
    for p in &probes {
        eprintln!(
            "perfbench: probe {:.1} steps/s: p99 {:.2} ms (median of 1-s slices), {} failed, lateness growing: {} -> {}",
            p.rate,
            p.p99_ms,
            p.failed,
            p.lateness_growing,
            if p.passes() { "pass" } else { "fail" }
        );
    }
    out.check(
        "slo_met_at_some_rate",
        best.is_some(),
        format!(
            "{} probes; lowest grid rate {} steps/s",
            probes.len(),
            search::grid_rate(0)
        ),
    );

    // The sessions' histories, replayed in-process from the window's
    // acknowledged reports, give the regret.
    let steps = trace::steps_by_session(&[Phase::from_report(&window)], specs.len());
    let (_, histories) = trace::replay_components(None, 0, &specs, &steps, env.workers, false)?;
    let regrets = regrets(&evaluator, &histories);

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
            window.p99_ms(OpKind::Read, P99_SLICE_OPS),
            best.unwrap_or(f64::NAN),
            recover_s,
        ],
    );
    Ok(out)
}

/// Every session's trial count, read over at most `workers`
/// connections.
fn all_trial_counts(addr: &str, ids: &[String], workers: usize) -> Result<Vec<u64>, String> {
    let events: Vec<Event> = (0..ids.len())
        .map(|session| Event {
            at: 0.0,
            session,
            kind: OpKind::Read,
        })
        .collect();
    let counts: Vec<std::sync::Mutex<Option<u64>>> =
        ids.iter().map(|_| Default::default()).collect();
    let report = loadgen::run(&events, addr, workers, &|client, event| {
        let n = loadgen::trial_count(client, &ids[event.session]).ok();
        *counts[event.session].lock().expect("count slot poisoned") = n;
        (n.is_some(), None, 0.0)
    });
    if report.failed() > 0 {
        return Err(format!(
            "{} sessions did not answer after restart",
            report.failed()
        ));
    }
    Ok(counts
        .into_iter()
        .map(|c| c.into_inner().expect("count slot poisoned").unwrap_or(0))
        .collect())
}

/// One rate-search probe: a fresh server over a copy of the post-set-up
/// journals, offered `rate` steps/s for [`probe_seconds`]. Its directory
/// stays until the run ends, so deleting it cannot stall the next probe.
fn probe(
    env: &Env,
    plan: &ChurnPlan,
    base: &std::path::Path,
    ids: &[String],
    evaluator: &ConfigEvaluator,
    rate: f64,
) -> Probe {
    let failed_probe = Probe {
        rate,
        p99_ms: f64::INFINITY,
        failed: 1,
        lateness_growing: true,
    };
    let dir = env.work.join(format!("churn-probe-{rate:.0}"));
    let _ = std::fs::remove_dir_all(&dir);
    if copy_tree(base, &dir).is_err() {
        return failed_probe;
    }
    let Ok(server) = Server::spawn(&env.mlconf, &dir, &flags()) else {
        return failed_probe;
    };
    let tenants: Vec<Tenant<'_>> = ids
        .iter()
        .map(|id| Tenant {
            id: id.clone(),
            evaluator,
        })
        .collect();
    let events = plan.events(rate, probe_seconds(env.seconds));
    let report = loadgen::run(&events, &server.addr, env.workers, &|c, e| {
        perform(c, &tenants, e)
    });
    server.kill();
    Probe {
        rate,
        // Slices of about one second of offered steps.
        p99_ms: report.p99_ms(OpKind::Step, rate.round() as usize),
        failed: report.failed(),
        lateness_growing: report.lateness_growing(),
    }
}
