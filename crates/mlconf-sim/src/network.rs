//! Flow-level network model.
//!
//! The simulator models communication phases analytically at flow
//! granularity (not packets): a transfer's duration is latency plus bytes
//! over the bottleneck bandwidth, where the bottleneck accounts for NIC
//! sharing at both endpoints. This is the standard fidelity level for
//! cluster-configuration studies — it reproduces the compute/communication
//! crossovers tuners must navigate without packet-level cost.

use crate::cluster::ClusterSpec;

/// Compression ratio applied to gradient payloads when compression is on
/// (e.g. fp32 → 8-bit quantization).
pub const COMPRESSION_RATIO: f64 = 4.0;

/// Parameters of the network model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetworkModel {
    /// Fraction of nominal NIC bandwidth achievable by bulk transfers
    /// (protocol and framing overhead).
    pub efficiency: f64,
    /// Extra per-transfer software latency in seconds (serialization,
    /// RPC dispatch) added to the wire latency.
    pub software_latency_secs: f64,
}

impl NetworkModel {
    /// Defaults: 90% achievable bandwidth, 100 µs software overhead per
    /// transfer.
    pub fn default_model() -> Self {
        NetworkModel {
            efficiency: 0.90,
            software_latency_secs: 100e-6,
        }
    }

    /// Achievable bytes/second on one NIC of the cluster's machine type.
    pub fn nic_rate(&self, cluster: &ClusterSpec) -> f64 {
        cluster.machine().net_bytes_per_sec() * self.efficiency
    }

    /// A copy of this model with achievable bandwidth scaled by
    /// `factor` — how scenario scripts model fabric congestion drift
    /// (every rate derived from [`NetworkModel::nic_rate`] shrinks with
    /// it).
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not positive/finite.
    pub fn with_bandwidth_scaled(&self, factor: f64) -> NetworkModel {
        assert!(
            factor > 0.0 && factor.is_finite(),
            "bandwidth scale must be positive and finite, got {factor}"
        );
        NetworkModel {
            efficiency: self.efficiency * factor,
            ..*self
        }
    }

    /// Expected achievable rate for a flow between two *randomly placed*
    /// nodes, accounting for rack topology: a `frac` portion of such
    /// flows crosses the oversubscribed core.
    pub fn scattered_rate(&self, cluster: &ClusterSpec) -> f64 {
        let frac = cluster.topology().cross_rack_fraction();
        let slow = cluster.topology().cross_rack_slowdown();
        self.nic_rate(cluster) / (1.0 + frac * (slow - 1.0))
    }

    /// Achievable rate on a ring's bottleneck link: any ring spanning
    /// more than one rack contains cross-rack links, and the ring moves
    /// at its slowest link's pace.
    pub fn ring_rate(&self, cluster: &ClusterSpec) -> f64 {
        self.nic_rate(cluster) / cluster.topology().cross_rack_slowdown()
    }

    /// Duration of a single point-to-point transfer of `bytes` when the
    /// sender's NIC is shared `sender_flows`-ways and the receiver's
    /// `receiver_flows`-ways.
    ///
    /// # Panics
    ///
    /// Panics if either flow count is zero or `bytes` is negative.
    pub fn transfer_time(
        &self,
        cluster: &ClusterSpec,
        bytes: f64,
        sender_flows: u32,
        receiver_flows: u32,
    ) -> f64 {
        assert!(sender_flows > 0 && receiver_flows > 0, "zero flows");
        assert!(bytes >= 0.0, "negative bytes");
        let rate = self.scattered_rate(cluster);
        let share = rate / sender_flows.max(receiver_flows) as f64;
        cluster.one_way_latency() + self.software_latency_secs + bytes / share
    }

    /// Duration of the gradient **push** phase in a parameter-server
    /// round where `workers` workers each send `bytes_per_worker` total,
    /// sharded evenly across `servers` servers, all concurrently.
    ///
    /// The bottleneck is whichever is slower: a worker's NIC sending its
    /// full gradient, or a server's NIC receiving one shard from every
    /// worker (incast).
    ///
    /// # Panics
    ///
    /// Panics if `workers == 0` or `servers == 0`.
    pub fn ps_shard_phase(
        &self,
        cluster: &ClusterSpec,
        bytes_per_worker: f64,
        workers: u32,
        servers: u32,
    ) -> f64 {
        assert!(workers > 0 && servers > 0, "ps phase needs both roles");
        let rate = self.scattered_rate(cluster);
        let worker_egress = bytes_per_worker / rate;
        let server_ingress = bytes_per_worker * workers as f64 / servers as f64 / rate;
        cluster.one_way_latency() + self.software_latency_secs + worker_egress.max(server_ingress)
    }

    /// Duration of the model **pull** phase: each worker fetches the full
    /// model (`model_bytes`) from the servers, each server serving its
    /// shard to every worker.
    ///
    /// Symmetric to [`NetworkModel::ps_shard_phase`] with directions
    /// reversed; the formula is identical.
    ///
    /// # Panics
    ///
    /// Panics if `workers == 0` or `servers == 0`.
    pub fn ps_pull_phase(
        &self,
        cluster: &ClusterSpec,
        model_bytes: f64,
        workers: u32,
        servers: u32,
    ) -> f64 {
        self.ps_shard_phase(cluster, model_bytes, workers, servers)
    }

    /// Duration of a ring all-reduce of `bytes` across `participants`
    /// nodes: `2(p−1)/p · bytes / rate` plus `2(p−1)` latency hops
    /// (reduce-scatter then all-gather).
    ///
    /// Returns 0 for a single participant.
    ///
    /// # Panics
    ///
    /// Panics if `participants == 0`.
    pub fn ring_allreduce(&self, cluster: &ClusterSpec, bytes: f64, participants: u32) -> f64 {
        assert!(participants > 0, "allreduce needs participants");
        if participants == 1 {
            return 0.0;
        }
        let p = participants as f64;
        let rate = self.ring_rate(cluster);
        let steps = 2.0 * (p - 1.0);
        let volume = steps / p * bytes / rate;
        let latency = steps * (cluster.one_way_latency() + self.software_latency_secs);
        volume + latency
    }
}

impl Default for NetworkModel {
    fn default() -> Self {
        Self::default_model()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{machine_by_name, ClusterSpec};

    fn cluster(n: u32) -> ClusterSpec {
        ClusterSpec::new(machine_by_name("c4.2xlarge").unwrap(), n) // 1 Gbps NIC
    }

    #[test]
    fn transfer_time_components() {
        let net = NetworkModel::default_model();
        let c = cluster(2);
        let t = net.transfer_time(&c, 1e9 * 0.9 / 8.0, 1, 1);
        // One second of payload at achievable rate plus latencies.
        assert!((t - (1.0 + c.one_way_latency() + net.software_latency_secs)).abs() < 1e-9);
    }

    #[test]
    fn sharing_slows_transfers() {
        let net = NetworkModel::default_model();
        let c = cluster(4);
        let solo = net.transfer_time(&c, 1e8, 1, 1);
        let shared = net.transfer_time(&c, 1e8, 4, 1);
        assert!(shared > solo * 3.0);
    }

    #[test]
    fn incast_dominates_with_many_workers_few_servers() {
        let net = NetworkModel::default_model();
        let c = cluster(17);
        let few_servers = net.ps_shard_phase(&c, 1e8, 16, 1);
        let many_servers = net.ps_shard_phase(&c, 1e8, 16, 8);
        assert!(
            few_servers > many_servers * 4.0,
            "{few_servers} vs {many_servers}"
        );
    }

    #[test]
    fn more_servers_never_slower() {
        let net = NetworkModel::default_model();
        let c = cluster(33);
        let mut prev = f64::INFINITY;
        for servers in 1..=16 {
            let t = net.ps_shard_phase(&c, 1e8, 16, servers);
            assert!(t <= prev + 1e-12, "servers={servers}: {t} > {prev}");
            prev = t;
        }
    }

    #[test]
    fn server_count_saturates_at_worker_egress() {
        // Once servers >= workers, the worker's own NIC is the bottleneck.
        let net = NetworkModel::default_model();
        let c = cluster(64);
        let t16 = net.ps_shard_phase(&c, 1e8, 8, 16);
        let t32 = net.ps_shard_phase(&c, 1e8, 8, 32);
        assert!((t16 - t32).abs() < 1e-12);
    }

    #[test]
    fn allreduce_volume_term_saturates() {
        let net = NetworkModel::default_model();
        let c = cluster(64);
        // 2(p-1)/p -> 2 as p grows: the volume term roughly doubles from
        // p=2 to large p, no more.
        let t2 = net.ring_allreduce(&c, 1e9, 2);
        let t64 = net.ring_allreduce(&c, 1e9, 64);
        assert!(t64 < t2 * 2.5, "{t64} vs {t2}");
        assert!(t64 > t2);
    }

    #[test]
    fn allreduce_single_node_is_free() {
        let net = NetworkModel::default_model();
        assert_eq!(net.ring_allreduce(&cluster(1), 1e9, 1), 0.0);
    }

    #[test]
    fn allreduce_latency_term_grows_linearly() {
        let net = NetworkModel::default_model();
        let c = cluster(64);
        // Tiny payload: latency dominates, and scales with 2(p-1).
        let t4 = net.ring_allreduce(&c, 1.0, 4);
        let t8 = net.ring_allreduce(&c, 1.0, 8);
        let ratio = t8 / t4;
        assert!((ratio - 14.0 / 6.0).abs() < 0.05, "ratio {ratio}");
    }

    #[test]
    fn faster_nics_transfer_faster() {
        let net = NetworkModel::default_model();
        let slow = ClusterSpec::new(machine_by_name("m4.large").unwrap(), 8); // 0.45 Gbps
        let fast = ClusterSpec::new(machine_by_name("c4.8xlarge").unwrap(), 8); // 10 Gbps
        assert!(net.ring_allreduce(&fast, 1e9, 8) < net.ring_allreduce(&slow, 1e9, 8));
    }

    #[test]
    #[should_panic(expected = "zero flows")]
    fn rejects_zero_flows() {
        NetworkModel::default_model().transfer_time(&cluster(2), 1.0, 0, 1);
    }

    #[test]
    fn oversubscription_slows_everything_rings_worst() {
        use crate::cluster::Topology;
        let net = NetworkModel::default_model();
        let flat = cluster(16);
        let racked = cluster(16).with_topology(Topology::TwoTier {
            racks: 4,
            oversubscription: 4.0,
        });
        // Ring pays the full factor (bottleneck link crosses the core).
        let ring_flat = net.ring_allreduce(&flat, 1e9, 16);
        let ring_racked = net.ring_allreduce(&racked, 1e9, 16);
        assert!(
            ring_racked > ring_flat * 3.0,
            "ring {ring_racked} vs flat {ring_flat}"
        );
        // Scattered PS flows pay the blended factor (some traffic stays
        // in-rack), so the penalty is strictly smaller than the ring's.
        let ps_flat = net.ps_shard_phase(&flat, 1e9, 12, 4);
        let ps_racked = net.ps_shard_phase(&racked, 1e9, 12, 4);
        let ring_penalty = ring_racked / ring_flat;
        let ps_penalty = ps_racked / ps_flat;
        assert!(ps_penalty > 1.5, "racking must hurt PS too: {ps_penalty}");
        assert!(
            ps_penalty < ring_penalty,
            "ps penalty {ps_penalty} should be below ring penalty {ring_penalty}"
        );
    }

    #[test]
    fn single_rack_two_tier_equals_flat() {
        use crate::cluster::Topology;
        let net = NetworkModel::default_model();
        let flat = cluster(8);
        let one_rack = cluster(8).with_topology(Topology::TwoTier {
            racks: 1,
            oversubscription: 8.0,
        });
        assert_eq!(
            net.ring_allreduce(&flat, 1e8, 8),
            net.ring_allreduce(&one_rack, 1e8, 8)
        );
        assert_eq!(net.scattered_rate(&flat), net.scattered_rate(&one_rack));
    }

    #[test]
    fn full_bisection_two_tier_equals_flat() {
        use crate::cluster::Topology;
        let net = NetworkModel::default_model();
        let flat = cluster(8);
        let fat_tree = cluster(8).with_topology(Topology::TwoTier {
            racks: 4,
            oversubscription: 1.0,
        });
        assert!((net.scattered_rate(&flat) - net.scattered_rate(&fat_tree)).abs() < 1e-9);
        assert!((net.ring_rate(&flat) - net.ring_rate(&fat_tree)).abs() < 1e-9);
    }
}
