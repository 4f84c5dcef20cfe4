//! The open-loop HTTP load generator.
//!
//! Operations are due at times fixed in advance by the plan. At most
//! `workers` threads (the host's core count) send them, each over one
//! keep-alive connection, so the client never holds more connections
//! than cores. A worker takes the earliest due operation whose session
//! has nothing in flight — ask/tell is serial per session — and sleeps
//! when nothing is due yet. Latency runs from the *scheduled* time, so
//! a stall charges its queueing to every operation it delays (no
//! coordinated omission), and each operation's lateness (sent − due)
//! shows when the generator itself fell behind.
//!
//! The client never retries (`max_retries = 0`): a 429, a 503 or a
//! timeout is a failed operation, counted in `ok_frac`.

use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use mlconf_serve::api::{config_from_json, outcome_from_json, outcome_to_json};
use mlconf_serve::client::Client;
use mlconf_serve::json::{obj, parse, Json};
use mlconf_space::space::ConfigSpace;
use mlconf_tuners::tuner::TrialHistory;
use mlconf_workloads::evaluator::ConfigEvaluator;

use crate::plan::{Event, OpKind};

/// Per-request socket timeout of the benchmark client.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(10);

/// What happened to one scheduled operation.
#[derive(Debug, Clone)]
pub struct OpRecord {
    /// Index of the event in the schedule.
    pub event: usize,
    /// Target session index.
    pub session: usize,
    /// What it did.
    pub kind: OpKind,
    /// Seconds from the window start at which it was due.
    pub due: f64,
    /// Seconds from the window start at which it was sent.
    pub sent: f64,
    /// Seconds from the window start at which it was acknowledged.
    pub done: f64,
    /// Whether every request of the operation succeeded.
    pub ok: bool,
    /// The report body a step sent (for the traced replay).
    pub report_body: Option<String>,
    /// Microseconds the client spent scoring the suggestion.
    pub eval_us: f64,
}

impl OpRecord {
    /// Latency from the scheduled send, in milliseconds.
    pub fn latency_ms(&self) -> f64 {
        (self.done - self.due) * 1e3
    }

    /// How late the generator sent it, in milliseconds.
    pub fn lateness_ms(&self) -> f64 {
        (self.sent - self.due) * 1e3
    }
}

/// Everything one open-loop run measured.
#[derive(Debug, Clone, Default)]
pub struct LoadReport {
    /// One record per scheduled operation, in the order they were sent.
    pub records: Vec<OpRecord>,
    /// TCP connections the client opened.
    pub connections_opened: u64,
}

impl LoadReport {
    /// Latencies (ms) of the successful operations of one kind.
    pub fn latencies_ms(&self, kind: OpKind) -> Vec<f64> {
        self.records
            .iter()
            .filter(|r| r.ok && r.kind == kind)
            .map(OpRecord::latency_ms)
            .collect()
    }

    /// The p99 latency (ms) of successful operations of `kind`, taken
    /// per slice of at least `per_slice` consecutive operations (by due
    /// time) and reported as the median over the slices — the plain p99
    /// when there are fewer than twice that many. One transient stall
    /// on a shared host moves one slice; an overload moves them all.
    pub fn p99_ms(&self, kind: OpKind, per_slice: usize) -> f64 {
        let mut ops: Vec<&OpRecord> = self
            .records
            .iter()
            .filter(|r| r.ok && r.kind == kind)
            .collect();
        ops.sort_by(|a, b| a.due.total_cmp(&b.due));
        let slices = (ops.len() / per_slice.max(1)).max(1);
        let per = ops.len().div_ceil(slices).max(1);
        let p99s: Vec<f64> = ops
            .chunks(per)
            .map(|c| {
                crate::stats::quantile(&c.iter().map(|r| r.latency_ms()).collect::<Vec<_>>(), 0.99)
            })
            .collect();
        crate::stats::median(&p99s)
    }

    /// Generator lateness (ms) of every operation.
    pub fn lateness_ms(&self) -> Vec<f64> {
        self.records.iter().map(OpRecord::lateness_ms).collect()
    }

    /// Operations that failed or were refused.
    pub fn failed(&self) -> u64 {
        self.records.iter().filter(|r| !r.ok).count() as u64
    }

    /// Whether the generator fell further behind as the run went on:
    /// the median lateness of the last quarter of operations (by due
    /// time) exceeds that of the first quarter by more than
    /// [`LATENESS_GROWTH_MS`]. A server that keeps up shows only
    /// bounded, stationary lateness.
    pub fn lateness_growing(&self) -> bool {
        let mut by_due: Vec<&OpRecord> = self.records.iter().collect();
        by_due.sort_by(|a, b| a.due.total_cmp(&b.due));
        let quarter = by_due.len() / 4;
        if quarter == 0 {
            return false;
        }
        let first: Vec<f64> = by_due[..quarter].iter().map(|r| r.lateness_ms()).collect();
        let last: Vec<f64> = by_due[by_due.len() - quarter..]
            .iter()
            .map(|r| r.lateness_ms())
            .collect();
        crate::stats::median(&last) > crate::stats::median(&first) + LATENESS_GROWTH_MS
    }
}

/// Operations per slice of a window's p99 ([`LoadReport::p99_ms`]):
/// enough that each slice's p99 has ten samples beyond it.
pub const P99_SLICE_OPS: usize = 1000;

/// Lateness growth (ms, last quarter over first) that marks a backlog.
pub const LATENESS_GROWTH_MS: f64 = 10.0;

/// A benchmark client: no retries, bounded timeouts.
pub fn client(addr: &str) -> Client {
    let mut client = Client::new(addr, 0);
    client.max_retries = 0;
    client.request_timeout = REQUEST_TIMEOUT;
    client
}

/// Shared scheduling state of one open-loop run.
struct Queue {
    /// First event that may still be unstarted.
    head: usize,
    started: Vec<bool>,
    /// Sessions with an operation in flight.
    busy: Vec<bool>,
    unstarted: usize,
}

/// Runs `events` (sorted by due time) against `addr` with at most
/// `workers` threads and connections. `op` performs one event over the
/// worker's client and returns its record's outcome fields
/// `(ok, report_body, eval_us)`.
pub fn run<F>(events: &[Event], addr: &str, workers: usize, op: &F) -> LoadReport
where
    F: Fn(&mut Client, &Event) -> (bool, Option<String>, f64) + Sync,
{
    let (records, clients) = run_with(events, workers, &|| client(addr), &|c, _, e| op(c, e));
    LoadReport {
        records,
        connections_opened: clients.iter().map(Client::connections_opened).sum(),
    }
}

/// The scheduler behind [`run`], generic over each worker's context
/// (a client here, a tracer in the in-process replay). `op` gets the
/// event's index too. Returns the records, in the order they were sent,
/// and every worker's context.
pub fn run_with<C, M, F>(
    events: &[Event],
    workers: usize,
    make: &M,
    op: &F,
) -> (Vec<OpRecord>, Vec<C>)
where
    C: Send,
    M: Fn() -> C + Sync,
    F: Fn(&mut C, usize, &Event) -> (bool, Option<String>, f64) + Sync,
{
    let sessions = events.iter().map(|e| e.session + 1).max().unwrap_or(0);
    let queue = Mutex::new(Queue {
        head: 0,
        started: vec![false; events.len()],
        busy: vec![false; sessions],
        unstarted: events.len(),
    });
    let wake = Condvar::new();
    let start = Instant::now();
    let workers = workers.clamp(1, events.len().max(1));
    let per_worker: Vec<(Vec<OpRecord>, C)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let (queue, wake) = (&queue, &wake);
                scope.spawn(move || {
                    let mut ctx = make();
                    let mut records = Vec::new();
                    while let Some(i) = next_event(events, queue, wake, start) {
                        let event = &events[i];
                        let sent = start.elapsed().as_secs_f64();
                        let (ok, report_body, eval_us) = op(&mut ctx, i, event);
                        let done = start.elapsed().as_secs_f64();
                        queue.lock().expect("queue lock poisoned").busy[event.session] = false;
                        wake.notify_all();
                        records.push(OpRecord {
                            event: i,
                            session: event.session,
                            kind: event.kind,
                            due: event.at,
                            sent,
                            done,
                            ok,
                            report_body,
                            eval_us,
                        });
                    }
                    (records, ctx)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load worker panicked"))
            .collect()
    });
    let mut records = Vec::new();
    let mut contexts = Vec::new();
    for (r, ctx) in per_worker {
        records.extend(r);
        contexts.push(ctx);
    }
    records.sort_by(|a, b| a.sent.total_cmp(&b.sent));
    (records, contexts)
}

/// Claims the earliest due event whose session is idle, waiting for it
/// to come due; `None` once every event has been claimed.
fn next_event(
    events: &[Event],
    queue: &Mutex<Queue>,
    wake: &Condvar,
    start: Instant,
) -> Option<usize> {
    let mut q = queue.lock().expect("queue lock poisoned");
    loop {
        if q.unstarted == 0 {
            return None;
        }
        while q.head < events.len() && q.started[q.head] {
            q.head += 1;
        }
        let eligible =
            (q.head..events.len()).find(|&i| !q.started[i] && !q.busy[events[i].session]);
        let Some(i) = eligible else {
            q = wake.wait(q).expect("queue lock poisoned");
            continue;
        };
        let due = Duration::from_secs_f64(events[i].at);
        let now = start.elapsed();
        if due > now {
            // Re-scan after waking: an earlier event may have become
            // eligible, or another worker may have claimed this one.
            q = wake
                .wait_timeout(q, due - now)
                .expect("queue lock poisoned")
                .0;
            continue;
        }
        q.started[i] = true;
        q.busy[events[i].session] = true;
        q.unstarted -= 1;
        return Some(i);
    }
}

/// A hosted session as the client sees it.
pub struct Tenant<'e> {
    /// Server-assigned session id.
    pub id: String,
    /// The simulator that scores its suggestions.
    pub evaluator: &'e ConfigEvaluator,
}

/// One step over `client`: suggest, score the suggestion with the
/// simulator, report it under a dedup key. Returns the report body and
/// the scoring time (µs), or why the step failed.
pub fn step(client: &mut Client, tenant: &Tenant<'_>) -> Result<(String, f64), String> {
    let id = &tenant.id;
    let (status, body) = client
        .request("POST", &format!("/sessions/{id}/suggest"), None)
        .map_err(|e| format!("suggest {id}: {e}"))?;
    if status != 200 {
        return Err(format!("suggest {id}: status {status}: {body}"));
    }
    let suggestion = parse(&body).map_err(|e| format!("suggest {id}: {e}"))?;
    if suggestion.get("done").and_then(Json::as_bool) == Some(true) {
        return Err(format!("suggest {id}: session finished early"));
    }
    let field = |k: &str| {
        suggestion
            .get(k)
            .ok_or_else(|| format!("suggest {id}: no `{k}`"))
    };
    let cfg = config_from_json(tenant.evaluator.space(), field("config")?)
        .map_err(|e| format!("suggest {id}: {e}"))?;
    let rep = field("rep")?.as_i64().unwrap_or(0) as u64;
    let fidelity = field("fidelity")?.as_f64().unwrap_or(1.0);
    let trial = field("trial")?.as_i64().unwrap_or(0);
    let t = Instant::now();
    let outcome = tenant.evaluator.evaluate_with_fidelity(&cfg, rep, fidelity);
    let eval_us = t.elapsed().as_secs_f64() * 1e6;
    let report = obj([
        ("outcome", outcome_to_json(&outcome)),
        ("key", Json::Str(format!("t{trial}"))),
    ])
    .render();
    let (status, body) = client
        .request("POST", &format!("/sessions/{id}/report"), Some(&report))
        .map_err(|e| format!("report {id}: {e}"))?;
    if status != 200 {
        return Err(format!("report {id}: status {status}: {body}"));
    }
    Ok((report, eval_us))
}

/// `GET /sessions/{id}`, decoded.
pub fn status(client: &mut Client, id: &str) -> Result<Json, String> {
    let (code, body) = client
        .request("GET", &format!("/sessions/{id}"), None)
        .map_err(|e| format!("status {id}: {e}"))?;
    if code != 200 {
        return Err(format!("status {id}: status {code}: {body}"));
    }
    parse(&body).map_err(|e| format!("status {id}: {e}"))
}

/// `GET /sessions/{id}` during a timed window: checks the status code
/// and that a JSON object came back, without decoding it — decoding a
/// long history costs the client far more than the server spends
/// producing it, and would make the generator the bottleneck.
fn read(client: &mut Client, id: &str) -> Result<(), String> {
    let (code, body) = client
        .request("GET", &format!("/sessions/{id}"), None)
        .map_err(|e| format!("status {id}: {e}"))?;
    if code == 200 && body.starts_with('{') && body.ends_with('}') {
        Ok(())
    } else {
        Err(format!("status {id}: status {code}"))
    }
}

/// A session's trial count from `GET /sessions/{id}`, read from the
/// top-level `"trials"` field without decoding the whole history.
///
/// # Errors
///
/// Fails when the request fails or the field is missing.
pub fn trial_count(client: &mut Client, id: &str) -> Result<u64, String> {
    let (code, body) = client
        .request("GET", &format!("/sessions/{id}"), None)
        .map_err(|e| format!("status {id}: {e}"))?;
    if code != 200 {
        return Err(format!("status {id}: status {code}"));
    }
    // The spec has no `trials` key, so the first match is the count.
    let at = body
        .find("\"trials\":")
        .ok_or_else(|| format!("status {id}: no trials"))?;
    let digits: String = body[at + 9..]
        .chars()
        .skip_while(|c| c.is_whitespace())
        .take_while(char::is_ascii_digit)
        .collect();
    digits
        .parse()
        .map_err(|_| format!("status {id}: bad trials"))
}

/// Runs one scheduled event against `tenants`, logging the first
/// failure to stderr.
pub fn perform(
    client: &mut Client,
    tenants: &[Tenant<'_>],
    event: &Event,
) -> (bool, Option<String>, f64) {
    let tenant = &tenants[event.session];
    let result = match event.kind {
        OpKind::Step => step(client, tenant).map(|(body, us)| (Some(body), us)),
        OpKind::Read => read(client, &tenant.id).map(|()| (None, 0.0)),
    };
    match result {
        Ok((body, us)) => (true, body, us),
        Err(e) => {
            eprintln!("perfbench: {e}");
            (false, None, 0.0)
        }
    }
}

/// Creates every session in `specs` over at most `workers` connections
/// and returns their ids in order.
///
/// # Errors
///
/// Fails on the first refused or failed create.
pub fn create_all(addr: &str, specs: &[Json], workers: usize) -> Result<Vec<String>, String> {
    let events: Vec<Event> = (0..specs.len())
        .map(|session| Event {
            at: 0.0,
            session,
            kind: OpKind::Step,
        })
        .collect();
    let ids: Vec<Mutex<Option<String>>> = specs.iter().map(|_| Mutex::new(None)).collect();
    let report = run(&events, addr, workers, &|client, event| {
        let body = specs[event.session].render();
        let created = client
            .request("POST", "/sessions", Some(&body))
            .ok()
            .filter(|(status, _)| *status == 201)
            .and_then(|(_, body)| parse(&body).ok())
            .and_then(|v| v.get("id").and_then(Json::as_str).map(str::to_owned));
        let ok = created.is_some();
        *ids[event.session].lock().expect("id slot poisoned") = created;
        (ok, None, 0.0)
    });
    if report.failed() > 0 {
        return Err(format!("{} session creates failed", report.failed()));
    }
    Ok(ids
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("id slot poisoned")
                .expect("created")
        })
        .collect())
}

/// The history a `GET /sessions/{id}` status body carries.
///
/// # Errors
///
/// Fails on a malformed history.
pub fn history_from_status(space: &ConfigSpace, status: &Json) -> Result<TrialHistory, String> {
    let mut history = TrialHistory::new();
    let trials = status
        .get("history")
        .and_then(Json::as_arr)
        .ok_or("status has no history")?;
    for t in trials {
        let cfg = t
            .get("config")
            .ok_or("trial has no config")
            .and_then(|c| config_from_json(space, c).map_err(|_| "bad config"))?;
        let outcome = t
            .get("outcome")
            .ok_or("trial has no outcome")
            .and_then(|o| outcome_from_json(o).map_err(|_| "bad outcome"))?;
        history.push(cfg, outcome);
    }
    Ok(history)
}
