//! Worker compute-time model.
//!
//! Minibatch gradient computation scales with FLOPs but not linearly in
//! threads: a serial fraction (Amdahl) plus a per-thread coordination
//! overhead capture the sublinear scaling measured on real training
//! frameworks.

use crate::cluster::MachineType;
use crate::job::JobSpec;

/// Parameters of the compute model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ComputeModel {
    /// Serial (non-parallelizable) fraction of minibatch work.
    pub serial_fraction: f64,
    /// Per-additional-thread coordination overhead, as a fraction of the
    /// ideal per-thread time.
    pub thread_overhead: f64,
    /// Multiplicative compute overhead when gradient compression is on.
    pub compression_overhead: f64,
    /// Fixed per-step framework overhead in seconds (kernel launches,
    /// data loading bookkeeping).
    pub per_step_overhead_secs: f64,
}

impl ComputeModel {
    /// Defaults calibrated to typical data-parallel CPU training: 5%
    /// serial work, 2% per-thread coordination cost, 10% compression
    /// overhead, 1 ms fixed per-step cost.
    pub fn default_model() -> Self {
        ComputeModel {
            serial_fraction: 0.05,
            thread_overhead: 0.02,
            compression_overhead: 0.10,
            per_step_overhead_secs: 1e-3,
        }
    }

    /// Effective parallel speedup of `threads` threads under Amdahl's law
    /// with coordination overhead.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn speedup(&self, threads: u32) -> f64 {
        assert!(threads > 0, "speedup of zero threads");
        let t = threads as f64;
        let amdahl = 1.0 / (self.serial_fraction + (1.0 - self.serial_fraction) / t);
        let overhead = 1.0 + self.thread_overhead * (t - 1.0);
        amdahl / overhead
    }

    /// Expected (noise-free) seconds to compute one minibatch gradient.
    ///
    /// # Panics
    ///
    /// Panics if `batch == 0` or `threads == 0`.
    pub fn batch_time(
        &self,
        job: &JobSpec,
        machine: &MachineType,
        batch: u32,
        threads: u32,
        compressed: bool,
    ) -> f64 {
        assert!(batch > 0, "zero batch");
        let flops = job.flops_per_batch(batch as u64);
        let single_thread_rate = machine.gflops_per_core() * 1e9;
        let base = flops / (single_thread_rate * self.speedup(threads));
        let comp = if compressed {
            1.0 + self.compression_overhead
        } else {
            1.0
        };
        base * comp + self.per_step_overhead_secs
    }
}

impl Default for ComputeModel {
    fn default() -> Self {
        Self::default_model()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::machine_by_name;

    fn job() -> JobSpec {
        JobSpec::new("t", 1_000_000, 1e7, 1e3, 1e3, 1.0, 1_000_000)
    }

    #[test]
    fn speedup_monotone_then_saturating() {
        let m = ComputeModel::default_model();
        assert_eq!(m.speedup(1), 1.0 / (1.0 + 0.0)); // exactly 1 at t=1
        assert!(m.speedup(2) > m.speedup(1));
        assert!(m.speedup(8) > m.speedup(4));
        // Sub-linear: 8 threads deliver well under 8x.
        assert!(m.speedup(8) < 8.0);
        // Amdahl ceiling: serial fraction 5% caps speedup near 20 even
        // with many threads; coordination overhead eventually reverses it.
        assert!(m.speedup(32) < 1.0 / m.serial_fraction);
    }

    #[test]
    fn batch_time_scales_with_batch() {
        let m = ComputeModel::default_model();
        let mach = machine_by_name("c4.2xlarge").unwrap();
        let t32 = m.batch_time(&job(), &mach, 32, 4, false);
        let t64 = m.batch_time(&job(), &mach, 64, 4, false);
        assert!(t64 > t32);
        // Near-proportional modulo fixed overhead.
        assert!((t64 - m.per_step_overhead_secs) / (t32 - m.per_step_overhead_secs) > 1.9);
    }

    #[test]
    fn more_threads_is_faster() {
        let m = ComputeModel::default_model();
        let mach = machine_by_name("c4.4xlarge").unwrap();
        let t1 = m.batch_time(&job(), &mach, 128, 1, false);
        let t8 = m.batch_time(&job(), &mach, 128, 8, false);
        assert!(t8 < t1);
    }

    #[test]
    fn compression_costs_compute() {
        let m = ComputeModel::default_model();
        let mach = machine_by_name("c4.2xlarge").unwrap();
        let plain = m.batch_time(&job(), &mach, 64, 4, false);
        let comp = m.batch_time(&job(), &mach, 64, 4, true);
        assert!(comp > plain);
    }

    #[test]
    fn faster_machines_compute_faster() {
        let m = ComputeModel::default_model();
        let slow = machine_by_name("m4.2xlarge").unwrap(); // 20 GFLOP/s/core
        let fast = machine_by_name("c4.2xlarge").unwrap(); // 32 GFLOP/s/core
        assert!(
            m.batch_time(&job(), &fast, 64, 4, false) < m.batch_time(&job(), &slow, 64, 4, false)
        );
    }

    #[test]
    #[should_panic(expected = "zero batch")]
    fn rejects_zero_batch() {
        ComputeModel::default_model().batch_time(
            &job(),
            &machine_by_name("m4.large").unwrap(),
            0,
            1,
            false,
        );
    }
}
