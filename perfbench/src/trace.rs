//! The traced run (`--trace 1`): per-layer numbers from spans recorded
//! in the benchmark's own code around the public calls into each layer.
//!
//! The traced run first drives the workload exactly as the untimed run
//! does, then replays the recorded operations in-process with at most
//! `nproc` threads through three instrumented paths:
//!
//! - [`replay_registry`]: each request as the server handles it —
//!   `http::frame_len` + `read_request`, `json::parse`,
//!   `SessionRegistry::get`, the session lock, the `ServedSession`
//!   handler, `Json::render`, `http::write_response` — under one
//!   `request` parent span;
//! - [`replay_components`]: the work inside those handlers, mirrored
//!   call for call — `Journal::append`, `AskTellSession::ask`/`tell`,
//!   `snapshot::install` at the server's cadence on the same filesystem;
//! - [`replay_gp`]: the recorded training sets through
//!   `hyperopt::fit_optimized`, `GaussianProcess::fit`/`extend` and
//!   `maximize_acquisition_threads`, single-threaded so
//!   `ops::kernel_evals` counts every evaluation.
//!
//! Spans stay in memory and are written as JSON lines when the run ends.
//! [`reconcile`] checks that component spans add up to their parents.

use std::collections::BTreeMap;
use std::io::{BufReader, Write as _};
use std::path::Path;
use std::sync::{Arc, Mutex, PoisonError, Weak};
use std::time::Instant;

use mlconf_gp::acquisition::{maximize_acquisition_threads, Acquisition};
use mlconf_gp::{fit_optimized, GaussianProcess, HyperoptOptions, Kernel, KernelFamily};
use mlconf_serve::api::{
    executed_from_json, executed_to_json, spec_from_json, spec_to_json, tagged_num, SessionSpec,
};
use mlconf_serve::http::{frame_len, read_request, write_response, ReadLimits};
use mlconf_serve::journal::{Journal, JournalOp};
use mlconf_serve::json::{obj, parse, Json};
use mlconf_serve::snapshot::{self, SessionFiles, SnapshotData};
use mlconf_serve::{RegistryConfig, ServedSession, SessionRegistry};
use mlconf_space::space::ConfigSpace;
use mlconf_tuners::drift::{DriftConfig, DriftCtl};
use mlconf_tuners::factory::build_tuner;
use mlconf_tuners::session::{Ask, AskTellSession};
use mlconf_tuners::tuner::{TrialHistory, TrialRecord, Tuner};
use mlconf_util::rng::Pcg64;
use mlconf_workloads::tunespace::default_config;

use crate::loadgen::{run_with, LoadReport};
use crate::plan::{Event, OpKind};
use crate::report::Metric;
use crate::stats::{mean, quantile};

/// Registry and IO shards of `mlconf serve` with default flags.
pub const SERVE_SHARDS: usize = 4;
/// Largest |residual| (% of the parent) allowed between a `request`
/// span and the sum of its child spans.
pub const REQUEST_TOLERANCE_PCT: f64 = 10.0;
/// Largest |residual| (% of the parent) allowed between the handler
/// spans (`served.suggest` + `served.report`) and the mirrored
/// components (journal + ask + tell + snapshot). Wider than the request
/// tolerance: the two sides are separate executions of the same work.
pub const STEP_TOLERANCE_PCT: f64 = 25.0;
/// Fewest never-revived sessions the handler-vs-components
/// reconciliation needs; with fewer it is skipped (on `serve-churn`
/// nearly every session is evicted and revived).
pub const MIN_STEP_SESSIONS: usize = 8;

/// Every per-layer metric, in output order, with its unit. A layer the
/// workload never calls reports 0.
pub const PER_LAYER: [(&str, &str); 40] = [
    ("loadgen.lateness_ms.p99", "ms"),
    ("client.connections_opened", "count"),
    ("client.failed", "count"),
    ("http.parse_us.p50", "us"),
    ("http.write_us.p50", "us"),
    ("json.parse_us.p50", "us"),
    ("json.render_us.p99", "us"),
    ("json.status_bytes.mean", "bytes"),
    ("registry.get_us.p99", "us"),
    ("registry.lock_wait_us.p99", "us"),
    ("registry.revivals", "count"),
    ("registry.revive_us.p99", "us"),
    ("registry.evictions", "count"),
    ("served.suggest_us.p50", "us"),
    ("served.suggest_us.p99", "us"),
    ("served.report_us.p50", "us"),
    ("served.report_us.p99", "us"),
    ("journal.append_us.p50", "us"),
    ("journal.append_us.p99", "us"),
    ("journal.appends", "count"),
    ("journal.bytes", "bytes"),
    ("snapshot.install_us.p50", "us"),
    ("snapshot.install_us.p99", "us"),
    ("snapshot.installs", "count"),
    ("snapshot.bytes", "bytes"),
    ("session.ask_us.p50", "us"),
    ("session.ask_us.p99", "us"),
    ("session.tell_us.p50", "us"),
    ("gp.hyperopt_us.p50", "us"),
    ("gp.hyperopt_us.p99", "us"),
    ("gp.hyperopt_calls", "count"),
    ("gp.fit_us.p50", "us"),
    ("gp.extend_us.p50", "us"),
    ("gp.acq_us.p50", "us"),
    ("gp.kernel_evals", "count"),
    ("sim.evaluate_us.p50", "us"),
    ("sim.evaluations", "count"),
    ("trace.overhead_pct", "%"),
    ("trace.request_residual_pct", "%"),
    ("trace.step_residual_pct", "%"),
];

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call it wraps.
    pub name: &'static str,
    /// Name of the enclosing span (empty at top level).
    pub parent: &'static str,
    /// Operation the span belongs to (spans of one request share it).
    pub op: u64,
    /// Start, µs after the run's epoch.
    pub start_us: f64,
    /// Duration, µs.
    pub dur_us: f64,
}

/// In-memory span and counter store of one thread. With `enabled` off
/// it records nothing, so the same code path runs untraced.
#[derive(Debug)]
pub struct Tracer {
    /// Whether spans are recorded.
    pub enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    samples: BTreeMap<&'static str, Vec<f64>>,
    counters: BTreeMap<&'static str, f64>,
}

impl Tracer {
    /// A tracer whose span times count from `epoch`.
    pub fn new(enabled: bool, epoch: Instant) -> Self {
        Tracer {
            enabled,
            epoch,
            spans: Vec::new(),
            samples: BTreeMap::new(),
            counters: BTreeMap::new(),
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: &'static str,
        op: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        if !self.enabled {
            return f();
        }
        let t0 = Instant::now();
        let out = f();
        self.push(name, parent, op, t0, Instant::now());
        out
    }

    /// Records a span measured by the caller.
    pub fn push(
        &mut self,
        name: &'static str,
        parent: &'static str,
        op: u64,
        t0: Instant,
        t1: Instant,
    ) {
        let dur_us = (t1 - t0).as_secs_f64() * 1e6;
        self.spans.push(Span {
            name,
            parent,
            op,
            start_us: (t0 - self.epoch).as_secs_f64() * 1e6,
            dur_us,
        });
        self.sample(name, dur_us);
    }

    /// Records a non-time sample (bytes, say) under `name`.
    pub fn sample(&mut self, name: &'static str, value: f64) {
        self.samples.entry(name).or_default().push(value);
    }

    /// Adds `by` to counter `name`.
    pub fn count(&mut self, name: &'static str, by: f64) {
        *self.counters.entry(name).or_default() += by;
    }

    /// Moves everything `other` recorded into this tracer.
    pub fn absorb(&mut self, other: Tracer) {
        self.spans.extend(other.spans);
        for (k, v) in other.samples {
            self.samples.entry(k).or_default().extend(v);
        }
        for (k, v) in other.counters {
            *self.counters.entry(k).or_default() += v;
        }
    }

    /// Samples recorded under `name` (durations in µs for spans).
    pub fn samples(&self, name: &str) -> &[f64] {
        self.samples.get(name).map_or(&[], Vec::as_slice)
    }

    /// Sum of the samples under `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.samples(name).iter().sum()
    }

    /// Counter value (0 when never counted).
    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0.0)
    }

    /// Total duration (µs) and number of the spans named `name` whose
    /// operation id satisfies `keep`.
    pub fn sum_where(&self, name: &str, keep: impl Fn(u64) -> bool) -> (f64, usize) {
        self.spans
            .iter()
            .filter(|s| s.name == name && keep(s.op))
            .fold((0.0, 0), |(sum, n), s| (sum + s.dur_us, n + 1))
    }

    /// Spans recorded.
    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    /// Writes every span as one JSON line.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"name\":\"{}\",\"parent\":\"{}\",\"op\":{},\"start_us\":{:.3},\"dur_us\":{:.3}}}",
                s.name, s.parent, s.op, s.start_us, s.dur_us
            )?;
        }
        out.flush()
    }
}

/// The tuner and state machine a served session runs, built exactly as
/// the registry builds them from a spec.
pub fn machinery(spec: &SessionSpec) -> (Box<dyn Tuner + Send>, AskTellSession<'static>) {
    let tuner = build_tuner(
        &spec.tuner,
        spec.space(),
        spec.budget,
        spec.seed,
        Some(default_config(spec.max_nodes)),
    )
    .expect("plan specs name stock tuners");
    let core = AskTellSession::new(spec.budget, spec.seed)
        .stop_conditions(spec.conditions.iter().copied())
        .warm_start(spec.warm_start.iter().cloned())
        .drift_ctl(DriftCtl::new(
            spec.retune_policy,
            DriftConfig::default(),
            spec.space(),
            spec.seed,
        ));
    (tuner, core)
}

/// One replayed phase: its operations in the order they were sent,
/// with the report body each step sent.
#[derive(Debug, Clone, Default)]
pub struct Phase {
    /// Operations, all due at once (the replay runs closed-loop).
    pub events: Vec<Event>,
    /// Report body of each step event (`None` for reads).
    pub bodies: Vec<Option<String>>,
}

impl Phase {
    /// The successful operations of a load report, in sent order.
    pub fn from_report(report: &LoadReport) -> Phase {
        let ok = report.records.iter().filter(|r| r.ok);
        Phase {
            events: ok
                .clone()
                .map(|r| Event {
                    at: 0.0,
                    session: r.session,
                    kind: r.kind,
                })
                .collect(),
            bodies: ok.map(|r| r.report_body.clone()).collect(),
        }
    }
}

/// Every session's report bodies across `phases`, in the order sent.
pub fn steps_by_session(phases: &[Phase], sessions: usize) -> Vec<Vec<String>> {
    let mut steps = vec![Vec::new(); sessions];
    for phase in phases {
        for (event, body) in phase.events.iter().zip(&phase.bodies) {
            if let Some(body) = body {
                steps[event.session].push(body.clone());
            }
        }
    }
    steps
}

/// What the request-pipeline replay measured.
#[derive(Debug)]
pub struct RegistryReplay {
    /// Spans of the traced operations; counters of all of them.
    pub tracer: Tracer,
    /// Per traced step: its suggest and report request times summed (µs).
    pub traced_step_us: Vec<f64>,
    /// The same for the steps replayed without spans.
    pub plain_step_us: Vec<f64>,
    /// Per session: whether the replay ever evicted and revived it.
    pub revived: Vec<bool>,
}

/// Per-worker state of the registry replay.
struct ReplayWorker {
    tracer: Tracer,
    traced_step_us: Vec<f64>,
    plain_step_us: Vec<f64>,
}

type Handle = Arc<Mutex<ServedSession>>;

/// What the replay knows about one session's handle: the last one a
/// `get` returned, and whether a `get` ever revived the session.
struct Touch {
    last: Weak<Mutex<ServedSession>>,
    revived: bool,
}

/// Whether replayed operation `op` runs with spans: a seeded coin per
/// operation, so traced and bare operations see the same mix of work
/// and the gap between their median step times is the tracing overhead.
pub fn sampled(op: u64) -> bool {
    crate::plan::derive(0x7ace, 0, op) & 1 == 0
}

/// Replays `phases` through a fresh in-process registry over `dir` with
/// the serve tier's configuration, request by request, with spans on
/// about half the operations (see [`sampled`]). Revivals and evictions
/// are counted on every operation.
///
/// # Errors
///
/// Fails when a replayed request fails.
pub fn replay_registry(
    dir: &Path,
    config: RegistryConfig,
    specs: &[Json],
    phases: &[Phase],
    workers: usize,
) -> Result<RegistryReplay, String> {
    let registry = SessionRegistry::open(dir, config).map_err(|e| format!("open registry: {e}"))?;
    let epoch = Instant::now();
    let mut tracer = Tracer::new(true, epoch);
    let parked = |r: &SessionRegistry| r.shard_stats().iter().map(|s| s.parked).sum::<usize>();

    // Creates run one at a time in plan order, so replay ids follow the
    // plan; each new session is touched once to learn its handle.
    let mut ids = Vec::with_capacity(specs.len());
    let mut handles: Vec<Mutex<Touch>> = Vec::with_capacity(specs.len());
    for (i, spec) in specs.iter().enumerate() {
        let raw = raw_request("POST", "/sessions", &spec.render());
        let (_, body) = handle(&registry, &raw, &mut tracer, i as u64, None)?;
        let id = body
            .get("id")
            .and_then(Json::as_str)
            .ok_or("create answered no id")?
            .to_owned();
        let handle = registry.get(&id).ok_or("created session vanished")?;
        handles.push(Mutex::new(Touch {
            last: Arc::downgrade(&handle),
            revived: false,
        }));
        ids.push(id);
    }
    tracer.count("registry.evictions", parked(&registry) as f64);

    let (mut traced_step_us, mut plain_step_us) = (Vec::new(), Vec::new());
    for (p, phase) in phases.iter().enumerate() {
        let parked_before = parked(&registry);
        let revivals_before = tracer.counter("registry.revivals");
        let (records, contexts) = run_with(
            &phase.events,
            workers,
            &|| ReplayWorker {
                tracer: Tracer::new(true, epoch),
                traced_step_us: Vec::new(),
                plain_step_us: Vec::new(),
            },
            &|w: &mut ReplayWorker, i, event| {
                let id = &ids[event.session];
                let weak = &handles[event.session];
                // Spans of a step carry its session, for `reconcile`.
                let op = ((event.session as u64) << 40) | ((p as u64 + 1) << 32) | i as u64;
                w.tracer.enabled = sampled(op);
                let result = match event.kind {
                    OpKind::Step => {
                        let body = phase.bodies[i].as_deref().unwrap_or("{}");
                        let suggest = raw_request("POST", &format!("/sessions/{id}/suggest"), "");
                        let report = raw_request("POST", &format!("/sessions/{id}/report"), body);
                        handle(&registry, &suggest, &mut w.tracer, op, Some(weak)).and_then(
                            |(a, _)| {
                                let (b, _) =
                                    handle(&registry, &report, &mut w.tracer, op, Some(weak))?;
                                if w.tracer.enabled {
                                    w.traced_step_us.push(a + b);
                                } else {
                                    w.plain_step_us.push(a + b);
                                }
                                Ok(())
                            },
                        )
                    }
                    OpKind::Read => {
                        let get = raw_request("GET", &format!("/sessions/{id}"), "");
                        handle(&registry, &get, &mut w.tracer, op, Some(weak)).map(|_| ())
                    }
                };
                match result {
                    Ok(()) => (true, None, 0.0),
                    Err(e) => {
                        eprintln!("perfbench: replay: {e}");
                        (false, None, 0.0)
                    }
                }
            },
        );
        if let Some(bad) = records.iter().find(|r| !r.ok) {
            return Err(format!("replayed operation {} failed", bad.event));
        }
        for w in contexts {
            traced_step_us.extend(w.traced_step_us);
            plain_step_us.extend(w.plain_step_us);
            tracer.absorb(w.tracer);
        }
        // Evictions between two quiet points: sessions parked since,
        // plus the parked ones revived meanwhile.
        let revived = tracer.counter("registry.revivals") - revivals_before;
        let evicted = parked(&registry) as f64 - parked_before as f64 + revived;
        tracer.count("registry.evictions", evicted);
    }
    let revived = handles
        .into_iter()
        .map(|h| {
            h.into_inner()
                .unwrap_or_else(PoisonError::into_inner)
                .revived
        })
        .collect();
    Ok(RegistryReplay {
        tracer,
        traced_step_us,
        plain_step_us,
        revived,
    })
}

/// The bytes a client sends for one request.
fn raw_request(method: &str, path: &str, body: &str) -> Vec<u8> {
    format!(
        "{method} {path} HTTP/1.1\r\nhost: bench\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

fn lock(session: &Handle) -> std::sync::MutexGuard<'_, ServedSession> {
    session.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Handles one request the way the server's IO shard does, with a span
/// around each layer call. Returns the whole request's time (µs, timed
/// traced or not) and the response value.
fn handle(
    registry: &SessionRegistry,
    raw: &[u8],
    t: &mut Tracer,
    op: u64,
    weak: Option<&Mutex<Touch>>,
) -> Result<(f64, Json), String> {
    const P: &str = "request";
    let start = Instant::now();
    let limits = ReadLimits::default();
    let request = t
        .span("http.parse", P, op, || {
            let n = frame_len(raw, &limits).ok().flatten()?;
            read_request(&mut BufReader::new(&raw[..n]), &limits).ok()
        })
        .ok_or("unparseable request")?;
    let segments: Vec<&str> = request.path.split('/').filter(|s| !s.is_empty()).collect();
    let body_json = |t: &mut Tracer| {
        t.span("json.parse", P, op, || parse(&request.body))
            .map_err(|e| format!("bad body: {e}"))
    };
    let (status, value) = match (request.method.as_str(), segments.as_slice()) {
        ("POST", ["sessions"]) => {
            let spec = body_json(t)?;
            let created = t.span("registry.create", P, op, || registry.create(&spec));
            (201, created.map_err(|e| e.to_string())?)
        }
        ("POST", ["sessions", id, action]) => {
            let session = get(registry, id, t, op, weak)?;
            let value = if *action == "suggest" {
                let mut s = t.span("registry.lock_wait", P, op, || lock(&session));
                t.span("served.suggest", P, op, || s.suggest())
            } else {
                let body = body_json(t)?;
                let mut s = t.span("registry.lock_wait", P, op, || lock(&session));
                t.span("served.report", P, op, || s.report(&body))
            };
            (200, value.map_err(|e| e.to_string())?)
        }
        ("GET", ["sessions", id]) => {
            let session = get(registry, id, t, op, weak)?;
            let s = t.span("registry.lock_wait", P, op, || lock(&session));
            (200, t.span("served.status", P, op, || s.status_json()))
        }
        _ => return Err(format!("unrouted {} {}", request.method, request.path)),
    };
    let rendered = t.span("json.render", P, op, || value.render());
    if request.method == "GET" && t.enabled {
        t.sample("json.status_bytes", rendered.len() as f64);
    }
    let mut out = Vec::with_capacity(rendered.len() + 128);
    t.span("http.write", P, op, || {
        write_response(&mut out, status, &rendered, false)
    })
    .map_err(|e| format!("write: {e}"))?;
    let end = Instant::now();
    if t.enabled {
        t.push(P, "", op, start, end);
    }
    Ok(((end - start).as_secs_f64() * 1e6, value))
}

/// `SessionRegistry::get`, spanned; a handle that differs from the one
/// this session had before (or whose old handle is gone) means the get
/// revived a parked session.
fn get(
    registry: &SessionRegistry,
    id: &str,
    t: &mut Tracer,
    op: u64,
    weak: Option<&Mutex<Touch>>,
) -> Result<Handle, String> {
    let t0 = Instant::now();
    let session = registry
        .get(id)
        .ok_or_else(|| format!("unknown session {id}"))?;
    let t1 = Instant::now();
    let revived = weak.is_some_and(|weak| {
        let mut touch = weak.lock().unwrap_or_else(PoisonError::into_inner);
        let same = touch
            .last
            .upgrade()
            .is_some_and(|old| Arc::ptr_eq(&old, &session));
        touch.last = Arc::downgrade(&session);
        touch.revived |= !same;
        !same
    });
    if revived {
        t.count("registry.revivals", 1.0);
    }
    if t.enabled {
        t.push("registry.get", "request", op, t0, t1);
        if revived {
            t.push("registry.revive", "request", op, t0, t1);
        }
    }
    Ok(session)
}

/// One session of the component mirror.
struct Mirror {
    spec: SessionSpec,
    tuner: Box<dyn Tuner + Send>,
    core: AskTellSession<'static>,
    /// Journal files, when the mirror writes them.
    disk: Option<(SessionFiles, Journal)>,
    seq: u64,
    since_snapshot: u64,
    /// Checkpoint every N operations; 0 when not writing journals.
    snapshot_every: u64,
    last_report: Option<(String, Json)>,
}

/// Replays every session's steps (`steps[s]`: its report bodies, in
/// order) through the components a `ServedSession` calls: journal
/// appends and snapshot installs under `dir` (skipped when `dir` is
/// `None`), `AskTellSession::ask` and `tell` with the recorded
/// outcomes. Returns the tracer and every session's final history.
///
/// # Errors
///
/// Fails on journal errors or when the mirror's machine refuses a step.
pub fn replay_components(
    dir: Option<&Path>,
    snapshot_every: u64,
    specs: &[Json],
    steps: &[Vec<String>],
    workers: usize,
    traced: bool,
) -> Result<(Tracer, Vec<TrialHistory>), String> {
    let epoch = Instant::now();
    let slots: Vec<Mutex<Option<TrialHistory>>> = specs.iter().map(|_| Mutex::new(None)).collect();
    let events: Vec<Event> = (0..specs.len())
        .map(|session| Event {
            at: 0.0,
            session,
            kind: OpKind::Step,
        })
        .collect();
    let errors = Mutex::new(Vec::new());
    let (_, tracers) = run_with(
        &events,
        workers,
        &|| Tracer::new(traced, epoch),
        &|t: &mut Tracer, _, event| {
            let s = event.session;
            match mirror_session(dir, snapshot_every, s, &specs[s], &steps[s], t) {
                Ok(history) => {
                    *slots[s].lock().unwrap_or_else(PoisonError::into_inner) = Some(history);
                    (true, None, 0.0)
                }
                Err(e) => {
                    errors
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .push(e);
                    (false, None, 0.0)
                }
            }
        },
    );
    if let Some(e) = errors
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner)
        .first()
    {
        return Err(e.clone());
    }
    let mut tracer = Tracer::new(traced, epoch);
    for t in tracers {
        tracer.absorb(t);
    }
    let histories = slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                .unwrap_or_else(PoisonError::into_inner)
                .unwrap_or_default()
        })
        .collect();
    Ok((tracer, histories))
}

fn mirror_session(
    dir: Option<&Path>,
    snapshot_every: u64,
    index: usize,
    spec_json: &Json,
    steps: &[String],
    t: &mut Tracer,
) -> Result<TrialHistory, String> {
    let spec = spec_from_json(spec_json).map_err(|e| e.to_string())?;
    let (tuner, core) = machinery(&spec);
    let id = format!("m{index}");
    let disk = match dir {
        None => None,
        Some(dir) => {
            let files = SessionFiles::new(dir, &id);
            let journal = Journal::create(files.active.clone()).map_err(|e| e.to_string())?;
            Some((files, journal))
        }
    };
    let mut m = Mirror {
        spec,
        tuner,
        core,
        disk,
        seq: 0,
        since_snapshot: 0,
        snapshot_every: if dir.is_some() { snapshot_every } else { 0 },
        last_report: None,
    };
    let op = index as u64;
    // Creation is not part of a step, so its append goes untimed.
    m.append(
        t,
        op,
        &JournalOp::Create {
            spec: spec_to_json(&m.spec),
        },
        false,
    )?;
    m.seq = 1;
    for body in steps {
        let body = parse(body).map_err(|e| format!("recorded report: {e}"))?;
        let executed = executed_from_json(&body).map_err(|e| e.to_string())?;
        let key = body.get("key").and_then(Json::as_str).map(str::to_owned);

        m.append(t, op, &JournalOp::Suggest, true)?;
        let asked = t.span("session.ask", "served.suggest", op, || {
            m.core.ask(m.tuner.as_mut())
        });
        if !matches!(asked, Ok(Ask::Trial(_))) {
            return Err(format!("mirror session {index}: ask gave {asked:?}"));
        }
        m.after_op(t, op)?;

        m.append(
            t,
            op,
            &JournalOp::Report {
                executed: executed_to_json(&executed),
                key: key.clone(),
            },
            true,
        )?;
        let told = t.span("session.tell", "served.report", op, || {
            m.core.tell(m.tuner.as_mut(), executed)
        });
        let trial = told.map_err(|e| format!("mirror session {index}: {e}"))?;
        m.last_report = key.map(|k| (k, report_response(&m.core, trial)));
        m.after_op(t, op)?;
    }
    Ok(m.core.history().clone())
}

impl Mirror {
    fn append(
        &mut self,
        t: &mut Tracer,
        op: u64,
        record: &JournalOp,
        timed: bool,
    ) -> Result<(), String> {
        let Some((files, journal)) = self.disk.as_mut() else {
            return Ok(());
        };
        let before = std::fs::metadata(&files.active).map_or(0, |m| m.len());
        let appended = if timed {
            t.span("journal.append", "served", op, || journal.append(record))
        } else {
            journal.append(record)
        };
        appended.map_err(|e| format!("journal append: {e}"))?;
        let after = std::fs::metadata(&files.active).map_or(0, |m| m.len());
        t.count("journal.appends", 1.0);
        t.count("journal.bytes", after.saturating_sub(before) as f64);
        Ok(())
    }

    /// The registry's bookkeeping after an operation: a checkpoint every
    /// `snapshot_every` operations.
    fn after_op(&mut self, t: &mut Tracer, op: u64) -> Result<(), String> {
        self.seq += 1;
        self.since_snapshot += 1;
        if self.snapshot_every == 0 || self.since_snapshot < self.snapshot_every {
            return Ok(());
        }
        let Some(state) = self.tuner.checkpoint() else {
            return Ok(());
        };
        let data = SnapshotData {
            seq: self.seq,
            spec: self.spec.clone(),
            session: self.core.resume_state(),
            tuner: state,
            last_report: self.last_report.clone(),
        };
        let (files, journal) = self.disk.as_mut().expect("snapshots imply journals");
        t.span("snapshot.install", "served", op, || {
            snapshot::install(files, &data)
        })
        .map_err(|e| format!("snapshot install: {e}"))?;
        *journal = Journal::open_append(files.active.clone()).map_err(|e| e.to_string())?;
        t.count("snapshot.installs", 1.0);
        t.count(
            "snapshot.bytes",
            std::fs::metadata(&files.snap).map_or(0, |m| m.len()) as f64,
        );
        self.since_snapshot = 0;
        Ok(())
    }
}

/// The report acknowledgement a `ServedSession` caches for dedup, which
/// its snapshots carry.
fn report_response(core: &AskTellSession<'_>, trial: usize) -> Json {
    let best = core.history().best().and_then(|b| b.outcome.objective);
    obj([
        ("trial", Json::Num(trial as f64)),
        ("trials", Json::Num(core.history().len() as f64)),
        ("best_objective", best.map_or(Json::Null, tagged_num)),
        ("finished", Json::Bool(core.is_finished())),
    ])
}

/// Replays the model fits BO made over each of `histories`: at every
/// ask after the initial design, the training set as `BoTuner` builds
/// it, a hyperparameter fit every third trial, a refit and an extend of
/// the cached model otherwise, and an acquisition maximization. Runs on
/// one thread so `ops::kernel_evals` sees every kernel evaluation.
pub fn replay_gp(space: &ConfigSpace, histories: &[&TrialHistory], t: &mut Tracer) {
    const P: &str = "gp";
    const HYPEROPT_EVERY: usize = 3;
    let dims = space.dims();
    let init = (3 * dims).clamp(4, 12);
    let opts = HyperoptOptions {
        threads: 1,
        ..HyperoptOptions::default()
    };
    mlconf_gp::reset_kernel_evals();
    for (h, history) in histories.iter().enumerate() {
        let mut rng = Pcg64::seed(0x6770 + h as u64);
        let mut kernel: Option<Kernel> = None;
        let mut cached: Option<GaussianProcess> = None;
        let mut last_hyperopt = 0;
        for n in init..history.len() {
            let trials = &history.trials()[..n];
            let (xs, ys) = training_data(space, trials);
            if xs.len() < 2 {
                continue;
            }
            let op = (h * 10_000 + n) as u64;
            let gp = if kernel.is_none() || n >= last_hyperopt + HYPEROPT_EVERY {
                let template = kernel
                    .clone()
                    .unwrap_or_else(|| Kernel::new(KernelFamily::Matern52, dims));
                t.count("gp.hyperopt_calls", 1.0);
                let Ok(gp) = t.span("gp.hyperopt", P, op, || {
                    fit_optimized(&template, &xs, &ys, &opts, &mut rng)
                }) else {
                    continue;
                };
                kernel = Some(gp.kernel().clone());
                last_hyperopt = n;
                gp
            } else {
                let k = kernel.clone().expect("set by the first hyperopt");
                let prev = cached.as_ref().expect("set with the kernel");
                let noise = prev.noise_variance();
                let m = prev.n_train();
                // The cached model is extended when the training set grew
                // by appending (no penalty rewrote an old target) and
                // refit otherwise; time both.
                let _ = t.span("gp.extend", P, op, || prev.extend(&xs[m..], &ys[m..]));
                let Ok(gp) = t.span("gp.fit", P, op, || {
                    GaussianProcess::fit(k, xs.clone(), ys.clone(), noise)
                }) else {
                    continue;
                };
                gp
            };
            let best = ys.iter().copied().fold(f64::INFINITY, f64::min);
            let mut ranked: Vec<(f64, &Vec<f64>)> = ys.iter().copied().zip(&xs).collect();
            ranked.sort_by(|a, b| a.0.total_cmp(&b.0));
            let anchors: Vec<Vec<f64>> = ranked.iter().take(3).map(|(_, x)| (*x).clone()).collect();
            t.span("gp.acq", P, op, || {
                maximize_acquisition_threads(
                    &gp,
                    Acquisition::default_ei(),
                    best,
                    dims,
                    256,
                    &anchors,
                    &mut rng,
                    1,
                )
            });
            cached = Some(gp);
        }
    }
    t.count("gp.kernel_evals", mlconf_gp::kernel_evals() as f64);
}

/// `BoTuner`'s training set: encoded configurations and `log10` of the
/// objective, failures at twice the worst success, timeouts just above
/// their bound.
fn training_data(space: &ConfigSpace, trials: &[TrialRecord]) -> (Vec<Vec<f64>>, Vec<f64>) {
    let worst = trials
        .iter()
        .filter_map(|t| t.outcome.objective)
        .fold(f64::NEG_INFINITY, f64::max);
    let penalty = if worst.is_finite() {
        (worst * 2.0).max(worst + 1e-9)
    } else {
        1.0
    };
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    for t in trials {
        let Ok(enc) = space.encode(&t.config) else {
            continue;
        };
        let y = match (t.outcome.objective, t.outcome.censored_at) {
            (Some(v), _) => v,
            (None, Some(bound)) => bound * 1.5,
            (None, None) => penalty,
        };
        xs.push(enc);
        ys.push(y.max(1e-12).log10());
    }
    (xs, ys)
}

/// What the in-process replays of a serve workload measured.
#[derive(Debug)]
pub struct ServeTrace {
    /// Request-pipeline and component spans together.
    pub tracer: Tracer,
    /// Every session's history as the component mirror rebuilt it.
    pub histories: Vec<TrialHistory>,
    /// Traced over bare median step time of the request replay, %.
    pub overhead_pct: f64,
    /// `request` spans against their layer spans, % of the parents.
    pub request_residual_pct: f64,
    /// Handler spans against the mirrored components, % of the parents.
    pub step_residual_pct: f64,
    /// Sessions the step reconciliation compared (never revived).
    pub step_sessions: usize,
}

/// Replays a serve workload's recorded `phases` in-process: the request
/// pipeline (spans on half the operations), then the component mirror.
///
/// # Errors
///
/// Fails when a replay fails.
pub fn trace_serve(
    env: &crate::Env,
    name: &str,
    config: &RegistryConfig,
    specs: &[Json],
    phases: &[Phase],
) -> Result<ServeTrace, String> {
    let replay = replay_registry(
        &env.work.join(format!("{name}-replay")),
        config.clone(),
        specs,
        phases,
        env.workers,
    )?;
    let mirror_dir = env.work.join(format!("{name}-mirror"));
    std::fs::create_dir_all(&mirror_dir).map_err(|e| format!("mirror dir: {e}"))?;
    let steps = steps_by_session(phases, specs.len());
    let (components, histories) = replay_components(
        Some(&mirror_dir),
        config.snapshot_every,
        specs,
        &steps,
        env.workers,
        true,
    )?;
    let (request_residual_pct, step_residual_pct, step_sessions) =
        reconcile(&replay.tracer, &components, &replay.revived);
    let overhead_pct = overhead_pct(&replay.plain_step_us, &replay.traced_step_us);
    let mut tracer = replay.tracer;
    tracer.absorb(components);
    Ok(ServeTrace {
        tracer,
        histories,
        overhead_pct,
        request_residual_pct,
        step_residual_pct,
        step_sessions,
    })
}

/// Finishes a serve workload's traced run: adds the window's simulator
/// timings, checks both reconciliations, sets the per-layer metrics and
/// writes the spans.
pub fn finish_serve(
    env: &crate::Env,
    mut t: ServeTrace,
    window: &LoadReport,
    out: &mut crate::report::Outcome,
) {
    for r in window
        .records
        .iter()
        .filter(|r| r.kind == OpKind::Step && r.ok)
    {
        t.tracer.sample("sim.evaluate", r.eval_us);
        t.tracer.count("sim.evaluations", 1.0);
    }
    out.check(
        "request_spans_reconcile",
        t.request_residual_pct.abs() <= REQUEST_TOLERANCE_PCT,
        format!(
            "request residual {:.2}% (tolerance {REQUEST_TOLERANCE_PCT}%)",
            t.request_residual_pct
        ),
    );
    if t.step_sessions >= MIN_STEP_SESSIONS {
        out.check(
            "step_spans_reconcile",
            t.step_residual_pct.abs() <= STEP_TOLERANCE_PCT,
            format!(
                "handler vs journal+ask+tell+snapshot residual per step {:.2}% (tolerance {STEP_TOLERANCE_PCT}%), median over {} never-revived sessions",
                t.step_residual_pct, t.step_sessions
            ),
        );
    } else {
        // Nearly every session was evicted and revived: too few remain
        // for a median, so there is nothing to reconcile.
        eprintln!(
            "perfbench: step reconciliation skipped: {} never-revived sessions, fewer than {MIN_STEP_SESSIONS}",
            t.step_sessions
        );
        t.step_residual_pct = 0.0;
    }
    let extra = BTreeMap::from([
        ("trace.overhead_pct", t.overhead_pct),
        ("trace.request_residual_pct", t.request_residual_pct),
        ("trace.step_residual_pct", t.step_residual_pct),
    ]);
    out.metrics = layer_metrics(&t.tracer, Some(window), &extra);
    write_spans(env, &t.tracer);
}

/// Writes the run's spans beside the build, logging where.
pub fn write_spans(env: &crate::Env, tracer: &Tracer) {
    let path = env
        .work
        .parent()
        .unwrap_or(&env.work)
        .join(format!("spans-{}-seed{}.jsonl", env.workload, env.seed));
    match tracer.write_jsonl(&path) {
        Ok(()) => eprintln!(
            "perfbench: {} spans written to {}",
            tracer.span_count(),
            path.display()
        ),
        Err(e) => eprintln!("perfbench: cannot write spans: {e}"),
    }
}

/// How much slower (%) the median traced step is than the median bare
/// one.
pub fn overhead_pct(plain_us: &[f64], traced_us: &[f64]) -> f64 {
    let base = crate::stats::median(plain_us);
    if base > 0.0 {
        100.0 * (crate::stats::median(traced_us) - base) / base
    } else {
        0.0
    }
}

/// Residual of a parent against its components, as % of the parent.
pub fn residual_pct(parent: f64, children: f64) -> f64 {
    if parent > 0.0 {
        100.0 * (parent - children) / parent
    } else {
        0.0
    }
}

/// The two reconciliations of a serve workload's traced run: request
/// spans against their layer spans (totals), and handler spans against
/// the mirrored components (means per step). Returns the `request` and
/// `step` residuals in %, and how many sessions the second compared.
pub fn reconcile(registry: &Tracer, components: &Tracer, revived: &[bool]) -> (f64, f64, usize) {
    let children: f64 = [
        "http.parse",
        "json.parse",
        "registry.get",
        "registry.create",
        "registry.lock_wait",
        "served.suggest",
        "served.report",
        "served.status",
        "json.render",
        "http.write",
    ]
    .iter()
    .map(|n| registry.total(n))
    .sum();
    let request = residual_pct(registry.total("request"), children);
    // The replay traces about half the steps and the mirror all of them,
    // so compare the mean per step, session by session, and take the
    // median over sessions: the two sides are separate executions, and
    // a stall of the shared disk during one fsync lands in one session,
    // not in the median. Sessions the replay evicted and revived are
    // left out: revival by full replay installs a snapshot on the
    // session's next operation, which the mirror, never evicting, does
    // not do. Registry step ops carry the session above bit 40; mirror
    // ops are the session index.
    let handlers = per_step_by_session(
        registry,
        &["served.suggest", "served.report"],
        "served.suggest",
        |op| op >> 40,
    );
    let parts = per_step_by_session(
        components,
        &[
            "journal.append",
            "session.ask",
            "session.tell",
            "snapshot.install",
        ],
        "session.ask",
        |op| op,
    );
    let (handlers, parts): (Vec<f64>, Vec<f64>) = handlers
        .iter()
        .filter(|(session, _)| !revived.get(**session as usize).copied().unwrap_or(false))
        .filter_map(|(session, h)| parts.get(session).map(|p| (*h, *p)))
        .unzip();
    let step = residual_pct(
        crate::stats::median(&handlers),
        crate::stats::median(&parts),
    );
    (request, step, handlers.len())
}

/// Each session's time (µs) in the spans `names` per `per` span, with
/// spans grouped by `session_of(op)`.
fn per_step_by_session(
    t: &Tracer,
    names: &[&str],
    per: &str,
    session_of: fn(u64) -> u64,
) -> BTreeMap<u64, f64> {
    let mut totals: BTreeMap<u64, (f64, usize)> = BTreeMap::new();
    for span in &t.spans {
        let entry = totals.entry(session_of(span.op)).or_default();
        if names.contains(&span.name) {
            entry.0 += span.dur_us;
        }
        if span.name == per {
            entry.1 += 1;
        }
    }
    totals
        .into_iter()
        .filter(|(_, (_, steps))| *steps > 0)
        .map(|(session, (us, steps))| (session, us / steps as f64))
        .collect()
}

/// The per-layer metrics from everything the traced run recorded.
pub fn layer_metrics(
    t: &Tracer,
    load: Option<&LoadReport>,
    extra: &BTreeMap<&str, f64>,
) -> Vec<Metric> {
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let value = match name {
                "loadgen.lateness_ms.p99" => load.map_or(0.0, |l| quantile(&l.lateness_ms(), 0.99)),
                "client.connections_opened" => load.map_or(0.0, |l| l.connections_opened as f64),
                "client.failed" => load.map_or(0.0, |l| l.failed() as f64),
                "json.status_bytes.mean" => mean(t.samples("json.status_bytes")),
                _ => match extra.get(name) {
                    Some(v) => *v,
                    None => from_tracer(t, name),
                },
            };
            Metric::new(name, unit, value)
        })
        .collect()
}

/// `layer.what_us.pNN` → quantile of span `layer.what`; anything else
/// is a counter.
fn from_tracer(t: &Tracer, name: &str) -> f64 {
    for (suffix, q) in [("_us.p50", 0.5), ("_us.p99", 0.99)] {
        if let Some(span) = name.strip_suffix(suffix) {
            return quantile(t.samples(span), q);
        }
    }
    t.counter(name)
}
