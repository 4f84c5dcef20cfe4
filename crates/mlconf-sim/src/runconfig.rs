//! The validated system configuration a single simulation run executes
//! under — the decoded form of a tuner-proposed `Configuration`.

use crate::cluster::ClusterSpec;

/// Synchronization discipline of parameter-server training.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncMode {
    /// Bulk-synchronous parallel: a barrier every step.
    Bsp,
    /// Fully asynchronous: no coordination between workers.
    Async,
    /// Stale-synchronous parallel: the fastest worker may lead the
    /// slowest by at most `staleness` steps.
    Ssp {
        /// Maximum permitted lead, in steps.
        staleness: u32,
    },
}

impl SyncMode {
    /// Stable name for reports and categorical knobs.
    pub fn name(&self) -> &'static str {
        match self {
            SyncMode::Bsp => "bsp",
            SyncMode::Async => "async",
            SyncMode::Ssp { .. } => "ssp",
        }
    }
}

impl std::fmt::Display for SyncMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SyncMode::Ssp { staleness } => write!(f, "ssp({staleness})"),
            other => f.write_str(other.name()),
        }
    }
}

/// Distribution architecture.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arch {
    /// Parameter-server: `num_ps` dedicated server nodes, the rest are
    /// workers.
    ParameterServer {
        /// Number of dedicated server nodes (≥ 1, < cluster size).
        num_ps: u32,
        /// Synchronization discipline.
        sync: SyncMode,
    },
    /// Ring all-reduce: every node is a worker; synchronous by
    /// construction.
    AllReduce,
}

impl Arch {
    /// Stable name for reports and categorical knobs.
    pub fn name(&self) -> &'static str {
        match self {
            Arch::ParameterServer { .. } => "ps",
            Arch::AllReduce => "allreduce",
        }
    }
}

/// Error raised when a run configuration is structurally invalid for its
/// cluster.
#[derive(Debug, Clone, PartialEq)]
pub struct InvalidRunConfig {
    reason: String,
}

impl InvalidRunConfig {
    /// The reason the configuration is invalid.
    pub fn reason(&self) -> &str {
        &self.reason
    }
}

impl std::fmt::Display for InvalidRunConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid run configuration: {}", self.reason)
    }
}

impl std::error::Error for InvalidRunConfig {}

/// A fully specified system configuration for one training run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunConfig {
    cluster: ClusterSpec,
    arch: Arch,
    batch_per_worker: u32,
    threads_per_worker: u32,
    /// Whether gradient traffic is compressed (4× smaller payloads at a
    /// small compute overhead).
    compress_gradients: bool,
}

impl RunConfig {
    /// Creates and validates a run configuration.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidRunConfig`] when the PS count leaves no workers,
    /// thread counts exceed cores, or batch/thread values are zero.
    pub fn new(
        cluster: ClusterSpec,
        arch: Arch,
        batch_per_worker: u32,
        threads_per_worker: u32,
        compress_gradients: bool,
    ) -> Result<Self, InvalidRunConfig> {
        let fail = |reason: String| Err(InvalidRunConfig { reason });
        if batch_per_worker == 0 {
            return fail("batch_per_worker must be positive".into());
        }
        if threads_per_worker == 0 {
            return fail("threads_per_worker must be positive".into());
        }
        if threads_per_worker > cluster.machine().cores() {
            return fail(format!(
                "threads_per_worker {threads_per_worker} exceeds {} cores of {}",
                cluster.machine().cores(),
                cluster.machine().name()
            ));
        }
        if let Arch::ParameterServer { num_ps, sync } = arch {
            if num_ps == 0 {
                return fail("parameter-server architecture needs num_ps >= 1".into());
            }
            if num_ps >= cluster.num_nodes() {
                return fail(format!(
                    "num_ps {num_ps} leaves no workers on a {}-node cluster",
                    cluster.num_nodes()
                ));
            }
            if let SyncMode::Ssp { staleness } = sync {
                if staleness == 0 {
                    return fail("ssp staleness must be >= 1 (0 is bsp)".into());
                }
            }
        }
        Ok(RunConfig {
            cluster,
            arch,
            batch_per_worker,
            threads_per_worker,
            compress_gradients,
        })
    }

    /// The cluster this run executes on.
    pub fn cluster(&self) -> &ClusterSpec {
        &self.cluster
    }

    /// The distribution architecture.
    pub fn arch(&self) -> Arch {
        self.arch
    }

    /// Per-worker minibatch size.
    pub fn batch_per_worker(&self) -> u32 {
        self.batch_per_worker
    }

    /// Compute threads per worker.
    pub fn threads_per_worker(&self) -> u32 {
        self.threads_per_worker
    }

    /// Whether gradient compression is enabled.
    pub fn compress_gradients(&self) -> bool {
        self.compress_gradients
    }

    /// Number of worker nodes under this configuration.
    pub fn num_workers(&self) -> u32 {
        match self.arch {
            Arch::ParameterServer { num_ps, .. } => self.cluster.num_nodes() - num_ps,
            Arch::AllReduce => self.cluster.num_nodes(),
        }
    }

    /// Number of dedicated server nodes (0 for all-reduce).
    pub fn num_servers(&self) -> u32 {
        match self.arch {
            Arch::ParameterServer { num_ps, .. } => num_ps,
            Arch::AllReduce => 0,
        }
    }

    /// Global (summed) minibatch size per step.
    pub fn global_batch(&self) -> u64 {
        self.batch_per_worker as u64 * self.num_workers() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{machine_by_name, ClusterSpec};

    fn cluster(n: u32) -> ClusterSpec {
        ClusterSpec::new(machine_by_name("c4.2xlarge").unwrap(), n)
    }

    #[test]
    fn ps_roles_split() {
        let rc = RunConfig::new(
            cluster(10),
            Arch::ParameterServer {
                num_ps: 3,
                sync: SyncMode::Bsp,
            },
            64,
            4,
            false,
        )
        .unwrap();
        assert_eq!(rc.num_workers(), 7);
        assert_eq!(rc.num_servers(), 3);
        assert_eq!(rc.global_batch(), 7 * 64);
    }

    #[test]
    fn allreduce_uses_all_nodes() {
        let rc = RunConfig::new(cluster(8), Arch::AllReduce, 32, 8, true).unwrap();
        assert_eq!(rc.num_workers(), 8);
        assert_eq!(rc.num_servers(), 0);
        assert!(rc.compress_gradients());
    }

    #[test]
    fn rejects_ps_eating_all_nodes() {
        let r = RunConfig::new(
            cluster(4),
            Arch::ParameterServer {
                num_ps: 4,
                sync: SyncMode::Bsp,
            },
            64,
            4,
            false,
        );
        assert!(r.is_err());
        assert!(r.unwrap_err().to_string().contains("no workers"));
    }

    #[test]
    fn rejects_thread_oversubscription() {
        // c4.2xlarge has 8 cores.
        let r = RunConfig::new(cluster(4), Arch::AllReduce, 64, 9, false);
        assert!(r.unwrap_err().reason().contains("cores"));
    }

    #[test]
    fn rejects_zero_batch_and_zero_staleness() {
        assert!(RunConfig::new(cluster(4), Arch::AllReduce, 0, 4, false).is_err());
        let r = RunConfig::new(
            cluster(4),
            Arch::ParameterServer {
                num_ps: 1,
                sync: SyncMode::Ssp { staleness: 0 },
            },
            32,
            4,
            false,
        );
        assert!(r.is_err());
    }

    #[test]
    fn sync_mode_names() {
        assert_eq!(SyncMode::Bsp.name(), "bsp");
        assert_eq!(SyncMode::Ssp { staleness: 3 }.to_string(), "ssp(3)");
        assert_eq!(Arch::AllReduce.name(), "allreduce");
    }
}
