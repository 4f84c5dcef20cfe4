//! Memory-feasibility model.
//!
//! Real configuration searches are littered with OOM cliffs: a batch size
//! that fits on one machine type kills another, and too few parameter
//! servers cannot hold the model plus optimizer state. The tuner must
//! learn to avoid these regions from *failed trials*, so the simulator
//! reports memory infeasibility as a first-class outcome rather than
//! silently clamping.

use crate::job::JobSpec;
use crate::runconfig::{Arch, RunConfig};

/// Bytes of optimizer state per model parameter (e.g. Adam's two moments
/// at fp32).
pub const OPTIMIZER_BYTES_PER_PARAM: f64 = 8.0;

/// Fixed per-process framework footprint in bytes.
pub const FRAMEWORK_OVERHEAD_BYTES: f64 = 512.0 * 1024.0 * 1024.0;

/// Why a configuration cannot run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Infeasibility {
    /// A worker's working set exceeds node memory.
    WorkerOom {
        /// Bytes required on the worker.
        required: u64,
        /// Bytes available on the node.
        available: u64,
    },
    /// A parameter server's shard (model + optimizer state) exceeds node
    /// memory.
    ServerOom {
        /// Bytes required on the server.
        required: u64,
        /// Bytes available on the node.
        available: u64,
    },
}

impl std::fmt::Display for Infeasibility {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Infeasibility::WorkerOom {
                required,
                available,
            } => write!(
                f,
                "worker OOM: needs {:.2} GiB, node has {:.2} GiB",
                *required as f64 / (1 << 30) as f64,
                *available as f64 / (1 << 30) as f64
            ),
            Infeasibility::ServerOom {
                required,
                available,
            } => write!(
                f,
                "server OOM: needs {:.2} GiB, node has {:.2} GiB",
                *required as f64 / (1 << 30) as f64,
                *available as f64 / (1 << 30) as f64
            ),
        }
    }
}

/// Bytes a worker needs: full model replica, optimizer state (all-reduce
/// keeps it on workers; PS keeps it on servers), activations for the
/// minibatch, input buffers, and framework overhead.
pub fn worker_bytes(job: &JobSpec, rc: &RunConfig) -> u64 {
    let batch = rc.batch_per_worker() as f64;
    let optimizer_on_worker = match rc.arch() {
        Arch::AllReduce => job.num_params() as f64 * OPTIMIZER_BYTES_PER_PARAM,
        Arch::ParameterServer { .. } => 0.0,
    };
    let total = job.model_bytes()
        + optimizer_on_worker
        + batch * job.activation_bytes_per_sample()
        + 2.0 * batch * job.bytes_per_sample() // double-buffered input
        + FRAMEWORK_OVERHEAD_BYTES;
    total as u64
}

/// Bytes a parameter server needs: its model shard, the shard's optimizer
/// state, per-worker receive buffers, and framework overhead.
///
/// # Panics
///
/// Panics if called for an all-reduce configuration (no servers exist).
pub fn server_bytes(job: &JobSpec, rc: &RunConfig) -> u64 {
    let servers = rc.num_servers();
    assert!(servers > 0, "server_bytes on a serverless architecture");
    let shard =
        (job.model_bytes() + job.num_params() as f64 * OPTIMIZER_BYTES_PER_PARAM) / servers as f64;
    let recv_buffers = rc.num_workers() as f64 * (job.gradient_bytes() / servers as f64);
    (shard + recv_buffers + FRAMEWORK_OVERHEAD_BYTES) as u64
}

/// Checks memory feasibility of a run configuration.
///
/// Returns `None` when the configuration fits, or the first violation.
pub fn check(job: &JobSpec, rc: &RunConfig) -> Option<Infeasibility> {
    let node = rc.cluster().machine().mem_bytes();
    let w = worker_bytes(job, rc);
    if w > node {
        return Some(Infeasibility::WorkerOom {
            required: w,
            available: node,
        });
    }
    if rc.num_servers() > 0 {
        let s = server_bytes(job, rc);
        if s > node {
            return Some(Infeasibility::ServerOom {
                required: s,
                available: node,
            });
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{machine_by_name, ClusterSpec};
    use crate::runconfig::SyncMode;

    fn small_job() -> JobSpec {
        JobSpec::new("small", 1_000_000, 1e6, 1e3, 1e4, 1.0, 100_000)
    }

    fn huge_model_job() -> JobSpec {
        // 4B params → 16 GB dense model.
        JobSpec::new("huge", 4_000_000_000, 1e6, 1e3, 1e4, 1.0, 100_000)
    }

    fn rc(job_arch: Arch, nodes: u32, batch: u32) -> RunConfig {
        RunConfig::new(
            ClusterSpec::new(machine_by_name("c4.2xlarge").unwrap(), nodes), // 15 GB
            job_arch,
            batch,
            4,
            false,
        )
        .unwrap()
    }

    #[test]
    fn small_job_fits() {
        let r = rc(
            Arch::ParameterServer {
                num_ps: 2,
                sync: SyncMode::Bsp,
            },
            8,
            64,
        );
        assert_eq!(check(&small_job(), &r), None);
    }

    #[test]
    fn huge_model_ooms_worker() {
        let r = rc(Arch::AllReduce, 8, 32);
        match check(&huge_model_job(), &r) {
            Some(Infeasibility::WorkerOom {
                required,
                available,
            }) => {
                assert!(required > available);
            }
            other => panic!("expected worker OOM, got {other:?}"),
        }
    }

    #[test]
    fn too_few_servers_oom_but_more_servers_fit() {
        // ~2B params = 8 GB model + 16 GB optimizer = 24 GB of server
        // state. One 15 GB server OOMs; four share it fine. Workers hold
        // only the 8 GB replica, which fits.
        let job = JobSpec::new("big", 2_000_000_000, 1e6, 1e3, 1e2, 1.0, 100_000);
        let one_ps = rc(
            Arch::ParameterServer {
                num_ps: 1,
                sync: SyncMode::Bsp,
            },
            8,
            4,
        );
        assert!(matches!(
            check(&job, &one_ps),
            Some(Infeasibility::ServerOom { .. })
        ));
        let four_ps = rc(
            Arch::ParameterServer {
                num_ps: 4,
                sync: SyncMode::Bsp,
            },
            8,
            4,
        );
        assert_eq!(check(&job, &four_ps), None);
    }

    #[test]
    fn giant_batch_ooms_worker() {
        // 10 KB activations/sample: ~1.4M samples ≈ 14 GB > 15 GB minus
        // overheads.
        let r = rc(Arch::AllReduce, 4, 1_500_000);
        assert!(matches!(
            check(&small_job(), &r),
            Some(Infeasibility::WorkerOom { .. })
        ));
    }

    #[test]
    fn allreduce_workers_carry_optimizer_state() {
        let job = small_job();
        let ps = rc(
            Arch::ParameterServer {
                num_ps: 1,
                sync: SyncMode::Bsp,
            },
            4,
            64,
        );
        let ar = rc(Arch::AllReduce, 4, 64);
        assert!(worker_bytes(&job, &ar) > worker_bytes(&job, &ps));
    }

    #[test]
    fn display_is_informative() {
        let msg = Infeasibility::WorkerOom {
            required: 16 << 30,
            available: 15 << 30,
        }
        .to_string();
        assert!(msg.contains("16.00 GiB"));
    }
}
