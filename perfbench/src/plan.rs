//! Seeded workload inputs: session specs and open-loop arrival
//! schedules. Everything here is a pure function of `--seed` (and of
//! `--seconds`, which sets how much load the window offers), so the
//! same seed gives the same inputs on every commit.

use mlconf_bench::loadgen::{schedule, Arrivals};
use mlconf_serve::json::{obj, Json};
use mlconf_util::rng::SplitMix64;

/// Sessions `serve-bo` hosts.
pub const BO_SESSIONS: usize = 32;
/// Trials each `serve-bo` session holds before the timed window.
pub const BO_PREP_TRIALS: usize = 30;
/// Offered step rate of the `serve-bo` window (steps per second, all
/// sessions together).
pub const BO_RATE: f64 = 34.0;
/// Suite workload whose simulator scores `serve-bo` suggestions.
pub const BO_WORKLOAD: &str = "mf-netflix";
/// Cluster-size ceiling of the `serve-bo` space (the CLI default).
pub const BO_MAX_NODES: i64 = 32;

/// Sessions `serve-churn` hosts (four times the live bound).
pub const CHURN_SESSIONS: usize = 512;
/// The server's live-session bound on `serve-churn`.
pub const CHURN_MAX_LIVE: usize = 128;
/// Journaled operations between snapshots on `serve-churn`.
pub const CHURN_SNAPSHOT_EVERY: u64 = 16;
/// Offered step rate of the nominal `serve-churn` window, about half of
/// the seed commit's `max_rps_at_slo` (steps per second).
pub const CHURN_RATE: f64 = 200.0;
/// Steps per status read on `serve-churn`.
pub const CHURN_STEPS_PER_READ: u64 = 8;
/// Zipf exponent of `serve-churn` session popularity.
pub const CHURN_ZIPF: f64 = 0.8;
/// Trial budget of a `serve-churn` session (never reached).
pub const CHURN_BUDGET: usize = 100_000;
/// Suite workload whose simulator scores `serve-churn` suggestions.
pub const CHURN_WORKLOAD: &str = "mlp-mnist";
/// Cluster-size ceiling of the `serve-churn` space.
pub const CHURN_MAX_NODES: i64 = 8;

/// Suite workloads `tune-cli` tunes, one CLI run each.
pub const TUNE_WORKLOADS: [&str; 2] = ["mf-netflix", "w2v-wiki"];
/// `tune-cli` runs per entry of [`TUNE_WORKLOADS`], each with its own
/// seed: enough steps that the step percentiles do not hang on one
/// seed's trajectory.
pub const TUNE_REPEATS: usize = 4;
/// Trial budget of each `tune-cli` run.
pub const TUNE_BUDGET: usize = 120;

/// What one scheduled operation does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// suggest → client evaluation → acknowledged report.
    Step,
    /// `GET /sessions/{id}`.
    Read,
}

/// One scheduled operation of the open loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Event {
    /// Seconds from the start of the window at which it is due.
    pub at: f64,
    /// Index of the session it targets.
    pub session: usize,
    /// What it does.
    pub kind: OpKind,
}

/// One session's creating spec.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionPlan {
    /// Tuner short name.
    pub tuner: &'static str,
    /// Trial budget.
    pub budget: usize,
    /// Session seed (its RNG and tuner).
    pub seed: u64,
    /// Cluster-size ceiling of the space.
    pub max_nodes: i64,
}

impl SessionPlan {
    /// The `POST /sessions` body.
    pub fn json(&self) -> Json {
        obj([
            ("tuner", Json::Str(self.tuner.into())),
            ("budget", Json::Num(self.budget as f64)),
            ("seed", Json::Num(self.seed as f64)),
            ("max_nodes", Json::Num(self.max_nodes as f64)),
        ])
    }
}

/// A seed for stream `stream`, item `index` of the run seeded `seed`.
/// Kept below 2^53 so a seed survives the trip through a JSON number.
pub fn derive(seed: u64, stream: u64, index: u64) -> u64 {
    let mut mix = SplitMix64::new(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let a = mix.next_u64();
    let mut mix = SplitMix64::new(a ^ index.wrapping_mul(0xbf58_476d_1ce4_e5b9));
    mix.next_u64() >> 11
}

/// A uniform draw in `[0, 1)`.
fn unit(rng: &mut SplitMix64) -> f64 {
    (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
}

/// Inputs of `serve-bo`.
#[derive(Debug, Clone, PartialEq)]
pub struct BoPlan {
    /// One `bo` session per entry.
    pub sessions: Vec<SessionPlan>,
    /// Base seed of the evaluator that scores suggestions.
    pub eval_seed: u64,
    /// Timed-window steps, sorted by due time.
    pub window: Vec<Event>,
}

/// `serve-bo`: [`BO_SESSIONS`] BO sessions, each taken from
/// [`BO_PREP_TRIALS`] trials through its share of `BO_RATE × seconds`
/// window steps by its own Poisson arrivals.
pub fn bo_plan(seed: u64, seconds: f64) -> BoPlan {
    let per_session = ((BO_RATE * seconds) / BO_SESSIONS as f64).round().max(1.0) as usize;
    let per_session_rate = per_session as f64 / seconds;
    let sessions: Vec<SessionPlan> = (0..BO_SESSIONS)
        .map(|i| SessionPlan {
            tuner: "bo",
            budget: BO_PREP_TRIALS + per_session,
            seed: derive(seed, 1, i as u64),
            max_nodes: BO_MAX_NODES,
        })
        .collect();
    let mut window: Vec<Event> = (0..BO_SESSIONS)
        .flat_map(|i| {
            schedule(
                &Arrivals::Poisson {
                    rate: per_session_rate,
                },
                per_session,
                derive(seed, 2, i as u64),
            )
            .into_iter()
            .map(move |at| Event {
                at,
                session: i,
                kind: OpKind::Step,
            })
        })
        .collect();
    window.sort_by(|a, b| a.at.total_cmp(&b.at).then(a.session.cmp(&b.session)));
    BoPlan {
        sessions,
        eval_seed: derive(seed, 3, 0),
        window,
    }
}

/// Inputs of `serve-churn`.
#[derive(Debug, Clone, PartialEq)]
pub struct ChurnPlan {
    /// One `random` session per entry.
    pub sessions: Vec<SessionPlan>,
    /// Base seed of the evaluator that scores suggestions.
    pub eval_seed: u64,
    /// Cumulative popularity over sessions (last entry is 1).
    pub popularity_cdf: Vec<f64>,
    /// Seed of the arrival stream shared by the window and every probe.
    pub arrival_seed: u64,
}

/// `serve-churn`: [`CHURN_SESSIONS`] random-search sessions whose
/// popularity follows a Zipf law over a seeded ranking.
pub fn churn_plan(seed: u64) -> ChurnPlan {
    let sessions = (0..CHURN_SESSIONS)
        .map(|i| SessionPlan {
            tuner: "random",
            budget: CHURN_BUDGET,
            seed: derive(seed, 4, i as u64),
            max_nodes: CHURN_MAX_NODES,
        })
        .collect();
    // Fisher–Yates over session indices: rank r goes to session rank[r].
    let mut rank: Vec<usize> = (0..CHURN_SESSIONS).collect();
    let mut rng = SplitMix64::new(derive(seed, 5, 0));
    for i in (1..rank.len()).rev() {
        let j = (rng.next_u64() % (i as u64 + 1)) as usize;
        rank.swap(i, j);
    }
    let mut weight = vec![0.0; CHURN_SESSIONS];
    for (r, &session) in rank.iter().enumerate() {
        weight[session] = 1.0 / ((r + 1) as f64).powf(CHURN_ZIPF);
    }
    let total: f64 = weight.iter().sum();
    let mut acc = 0.0;
    let mut popularity_cdf: Vec<f64> = weight
        .iter()
        .map(|w| {
            acc += w / total;
            acc
        })
        .collect();
    *popularity_cdf.last_mut().expect("sessions exist") = 1.0;
    ChurnPlan {
        sessions,
        eval_seed: derive(seed, 6, 0),
        popularity_cdf,
        arrival_seed: derive(seed, 7, 0),
    }
}

impl ChurnPlan {
    /// Operations offered at `step_rate` steps per second for
    /// `duration` seconds, plus one status read per
    /// [`CHURN_STEPS_PER_READ`] steps on average.
    ///
    /// Every rate scales one fixed unit-rate arrival stream, so a lower
    /// rate offers a time-stretched prefix of the same operations: the
    /// probes of the rate search differ only in how fast they arrive.
    pub fn events(&self, step_rate: f64, duration: f64) -> Vec<Event> {
        assert!(
            step_rate > 0.0 && duration > 0.0,
            "positive rate and duration"
        );
        let reads_per_step = 1.0 / CHURN_STEPS_PER_READ as f64;
        let mut rng = SplitMix64::new(self.arrival_seed);
        let mut unit_time = 0.0;
        let mut events = Vec::new();
        loop {
            // Unit-rate stream of steps and reads together.
            unit_time += -(1.0 - unit(&mut rng)).ln() / (1.0 + reads_per_step);
            let at = unit_time / step_rate;
            if at >= duration {
                return events;
            }
            let kind = if unit(&mut rng) * (1.0 + reads_per_step) < 1.0 {
                OpKind::Step
            } else {
                OpKind::Read
            };
            let u = unit(&mut rng);
            let session = self
                .popularity_cdf
                .partition_point(|&c| c <= u)
                .min(self.popularity_cdf.len() - 1);
            events.push(Event { at, session, kind });
        }
    }
}

/// One `mlconf tune` run of `tune-cli`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TuneRun {
    /// Suite workload name.
    pub workload: &'static str,
    /// `--seed` of the run (tuner and evaluator noise).
    pub seed: u64,
}

/// `tune-cli`: [`TUNE_REPEATS`] BO runs of [`TUNE_BUDGET`] trials per
/// entry of [`TUNE_WORKLOADS`], the workloads taken in turn.
pub fn tune_plan(seed: u64) -> Vec<TuneRun> {
    (0..TUNE_REPEATS * TUNE_WORKLOADS.len())
        .map(|i| TuneRun {
            workload: TUNE_WORKLOADS[i % TUNE_WORKLOADS.len()],
            seed: derive(seed, 8, i as u64) % 1_000_000,
        })
        .collect()
}
