//! `mlconf-perfbench` — the repository's one benchmark.
//!
//! One command runs a named workload against the release binaries,
//! checks that the program's outputs are correct, and prints every
//! metric by name with its unit. See `perfbench/README.md` for why each
//! workload exists, what each metric means and which layer moves it.
//!
//! - [`plan`]: seeded inputs (session specs, arrival schedules);
//! - [`loadgen`]: the open-loop HTTP load generator (at most `nproc` threads and
//!   connections, latency timed from the scheduled send);
//! - [`proc`]: building, spawning and killing the `mlconf` binary;
//! - [`search`]: the `max_rps_at_slo` rate search;
//! - [`serve_bo`], [`serve_churn`], [`tune_cli`]: the three workloads;
//! - [`trace`]: the traced in-process replay behind `--trace 1`;
//! - [`report`]: metric records, the name grammar and the result line.

pub mod loadgen;
pub mod plan;
pub mod proc;
pub mod report;
pub mod search;
pub mod serve_bo;
pub mod serve_churn;
pub mod stats;
pub mod trace;
pub mod tune_cli;

use std::path::PathBuf;

/// Where one benchmark run finds the program and keeps its working files.
#[derive(Debug, Clone)]
pub struct Env {
    /// The `mlconf` release binary.
    pub mlconf: PathBuf,
    /// The workload name from `--workload`.
    pub workload: String,
    /// Working directory for journals and spans (inside the build
    /// directory, removed at the end of the run).
    pub work: PathBuf,
    /// Client threads and connections: the host's core count.
    pub workers: usize,
    /// The workload seed from `--seed`.
    pub seed: u64,
    /// Seconds of offered load in the nominal window, from `--seconds`.
    pub seconds: f64,
    /// Whether this is the traced run (`--trace 1`).
    pub trace: bool,
}

/// The host's core count, which also caps client threads and
/// connections.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}
