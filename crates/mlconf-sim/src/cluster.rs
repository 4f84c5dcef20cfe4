//! Cluster and machine-type descriptions.
//!
//! Machine types mirror a cloud catalog (the knob CherryPick-class tuners
//! search over): cores, memory, NIC bandwidth, per-core compute rate, and
//! an hourly price used by cost-aware objectives.

/// A machine (VM) type available to the cluster.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineType {
    name: String,
    cores: u32,
    mem_gb: f64,
    net_gbps: f64,
    gflops_per_core: f64,
    price_per_hour: f64,
}

impl MachineType {
    /// Creates a machine type.
    ///
    /// # Panics
    ///
    /// Panics if any numeric field is non-positive or non-finite.
    pub fn new(
        name: impl Into<String>,
        cores: u32,
        mem_gb: f64,
        net_gbps: f64,
        gflops_per_core: f64,
        price_per_hour: f64,
    ) -> Self {
        assert!(cores > 0, "machine needs cores");
        for (label, v) in [
            ("mem_gb", mem_gb),
            ("net_gbps", net_gbps),
            ("gflops_per_core", gflops_per_core),
            ("price_per_hour", price_per_hour),
        ] {
            assert!(v > 0.0 && v.is_finite(), "machine {label} invalid: {v}");
        }
        MachineType {
            name: name.into(),
            cores,
            mem_gb,
            net_gbps,
            gflops_per_core,
            price_per_hour,
        }
    }

    /// Type name (e.g. `"c4.2xlarge"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Physical cores.
    pub fn cores(&self) -> u32 {
        self.cores
    }

    /// Memory in GiB.
    pub fn mem_gb(&self) -> f64 {
        self.mem_gb
    }

    /// Memory in bytes.
    pub fn mem_bytes(&self) -> u64 {
        (self.mem_gb * 1024.0 * 1024.0 * 1024.0) as u64
    }

    /// NIC bandwidth in Gbit/s.
    pub fn net_gbps(&self) -> f64 {
        self.net_gbps
    }

    /// NIC bandwidth in bytes/second.
    pub fn net_bytes_per_sec(&self) -> f64 {
        self.net_gbps * 1e9 / 8.0
    }

    /// Per-core compute rate in GFLOP/s.
    pub fn gflops_per_core(&self) -> f64 {
        self.gflops_per_core
    }

    /// Whole-machine compute rate in FLOP/s.
    pub fn flops_total(&self) -> f64 {
        self.gflops_per_core * 1e9 * self.cores as f64
    }

    /// Price in dollars per hour.
    pub fn price_per_hour(&self) -> f64 {
        self.price_per_hour
    }

    /// A copy of this type with its per-core compute rate scaled by
    /// `factor` — how scenario scripts model workload-phase and
    /// co-tenant interference shifts without inventing new catalog
    /// entries. Price and the rest of the shape are unchanged (the cloud
    /// bills the same for a slow hour).
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not positive/finite.
    pub fn with_compute_scaled(&self, factor: f64) -> MachineType {
        assert!(
            factor > 0.0 && factor.is_finite(),
            "compute scale must be positive and finite, got {factor}"
        );
        MachineType {
            gflops_per_core: self.gflops_per_core * factor,
            ..self.clone()
        }
    }
}

/// The built-in machine catalog (EC2-inspired shapes; the tuner's
/// `machine_type` categorical knob indexes into this).
pub fn default_catalog() -> Vec<MachineType> {
    vec![
        // Balanced small.
        MachineType::new("m4.large", 2, 8.0, 0.45, 20.0, 0.10),
        // Balanced large.
        MachineType::new("m4.2xlarge", 8, 32.0, 1.0, 20.0, 0.40),
        // Compute-optimized.
        MachineType::new("c4.2xlarge", 8, 15.0, 1.0, 32.0, 0.40),
        MachineType::new("c4.4xlarge", 16, 30.0, 2.0, 32.0, 0.80),
        // Memory-optimized.
        MachineType::new("r4.2xlarge", 8, 61.0, 1.0, 20.0, 0.53),
        // Network-optimized big box.
        MachineType::new("c4.8xlarge", 36, 60.0, 10.0, 32.0, 1.60),
    ]
}

/// Looks up a machine type by name in the default catalog.
pub fn machine_by_name(name: &str) -> Option<MachineType> {
    default_catalog().into_iter().find(|m| m.name() == name)
}

/// Names of all machine types in the default catalog, for building the
/// categorical knob.
pub fn catalog_names() -> Vec<String> {
    default_catalog()
        .iter()
        .map(|m| m.name().to_owned())
        .collect()
}

/// The cluster's network fabric.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum Topology {
    /// Full-bisection fabric: every node pair communicates at NIC rate.
    #[default]
    Flat,
    /// Two-tier leaf/spine fabric: nodes are spread over `racks`
    /// top-of-rack switches whose uplinks are oversubscribed by
    /// `oversubscription` (≥ 1.0) — cross-rack flows see
    /// `nic_rate / oversubscription`.
    TwoTier {
        /// Number of racks (nodes are spread evenly).
        racks: u32,
        /// Core oversubscription factor (1.0 = full bisection).
        oversubscription: f64,
    },
}

impl Topology {
    /// Validates the topology parameters.
    ///
    /// # Panics
    ///
    /// Panics on zero racks or an oversubscription factor below 1.
    pub fn validate(&self) {
        if let Topology::TwoTier {
            racks,
            oversubscription,
        } = self
        {
            assert!(*racks > 0, "two-tier topology needs racks >= 1");
            assert!(
                *oversubscription >= 1.0 && oversubscription.is_finite(),
                "oversubscription must be >= 1, got {oversubscription}"
            );
        }
    }

    /// Expected fraction of uniformly random node-pair traffic that
    /// crosses racks (0 for flat or single-rack fabrics).
    pub fn cross_rack_fraction(&self) -> f64 {
        match self {
            Topology::Flat => 0.0,
            Topology::TwoTier { racks, .. } => {
                if *racks <= 1 {
                    0.0
                } else {
                    1.0 - 1.0 / *racks as f64
                }
            }
        }
    }

    /// The bandwidth divisor applied to cross-rack flows.
    pub fn cross_rack_slowdown(&self) -> f64 {
        match self {
            Topology::Flat => 1.0,
            Topology::TwoTier {
                racks,
                oversubscription,
            } => {
                if *racks <= 1 {
                    1.0
                } else {
                    *oversubscription
                }
            }
        }
    }
}

/// A concrete cluster: `num_nodes` homogeneous machines (persistent
/// per-node speed heterogeneity is added by the straggler model).
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterSpec {
    machine: MachineType,
    num_nodes: u32,
    /// Datacenter round-trip latency between any two nodes, in seconds.
    rtt_secs: f64,
    topology: Topology,
}

impl ClusterSpec {
    /// Creates a cluster of `num_nodes` machines of one type on a flat
    /// (full-bisection) fabric.
    ///
    /// # Panics
    ///
    /// Panics if `num_nodes == 0` or the latency is not positive/finite.
    pub fn new(machine: MachineType, num_nodes: u32) -> Self {
        ClusterSpec::with_rtt(machine, num_nodes, 0.25e-3)
    }

    /// Creates a cluster with an explicit network round-trip time.
    ///
    /// # Panics
    ///
    /// Panics if `num_nodes == 0` or `rtt_secs` is not positive/finite.
    pub fn with_rtt(machine: MachineType, num_nodes: u32, rtt_secs: f64) -> Self {
        assert!(num_nodes > 0, "cluster needs at least one node");
        assert!(
            rtt_secs > 0.0 && rtt_secs.is_finite(),
            "invalid rtt {rtt_secs}"
        );
        ClusterSpec {
            machine,
            num_nodes,
            rtt_secs,
            topology: Topology::Flat,
        }
    }

    /// Replaces the network topology.
    ///
    /// # Panics
    ///
    /// Panics if the topology parameters are invalid.
    pub fn with_topology(mut self, topology: Topology) -> Self {
        topology.validate();
        self.topology = topology;
        self
    }

    /// The network fabric.
    pub fn topology(&self) -> Topology {
        self.topology
    }

    /// The machine type of every node.
    pub fn machine(&self) -> &MachineType {
        &self.machine
    }

    /// Cluster size.
    pub fn num_nodes(&self) -> u32 {
        self.num_nodes
    }

    /// Pairwise network round-trip time in seconds.
    pub fn rtt_secs(&self) -> f64 {
        self.rtt_secs
    }

    /// One-way latency in seconds.
    pub fn one_way_latency(&self) -> f64 {
        self.rtt_secs / 2.0
    }

    /// Total hourly price of the cluster.
    pub fn price_per_hour(&self) -> f64 {
        self.machine.price_per_hour() * self.num_nodes as f64
    }

    /// A copy of this cluster resized to `num_nodes`, preserving the
    /// machine type, latency, and topology — spot-preemption waves and
    /// autoscaler steps in scenario scripts.
    ///
    /// # Panics
    ///
    /// Panics if `num_nodes == 0`.
    pub fn resized(&self, num_nodes: u32) -> ClusterSpec {
        assert!(num_nodes > 0, "cluster needs at least one node");
        ClusterSpec {
            num_nodes,
            ..self.clone()
        }
    }

    /// A copy of this cluster with every node swapped to `machine`,
    /// preserving size, latency, and topology.
    pub fn with_machine(&self, machine: MachineType) -> ClusterSpec {
        ClusterSpec {
            machine,
            ..self.clone()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn machine_derived_quantities() {
        let m = MachineType::new("test", 4, 16.0, 1.0, 25.0, 0.5);
        assert_eq!(m.cores(), 4);
        assert_eq!(m.flops_total(), 4.0 * 25.0 * 1e9);
        assert_eq!(m.net_bytes_per_sec(), 1e9 / 8.0);
        assert_eq!(m.mem_bytes(), 16 * 1024 * 1024 * 1024);
    }

    #[test]
    #[should_panic(expected = "invalid")]
    fn machine_rejects_nonpositive() {
        MachineType::new("bad", 2, 0.0, 1.0, 1.0, 1.0);
    }

    #[test]
    fn catalog_is_usable() {
        let cat = default_catalog();
        assert!(cat.len() >= 4);
        // Names unique.
        let mut names: Vec<&str> = cat.iter().map(|m| m.name()).collect();
        names.sort();
        let n = names.len();
        names.dedup();
        assert_eq!(names.len(), n);
        // Lookup works.
        assert!(machine_by_name("c4.2xlarge").is_some());
        assert!(machine_by_name("nope").is_none());
        assert_eq!(catalog_names().len(), n);
    }

    #[test]
    fn bigger_machines_cost_more() {
        let small = machine_by_name("m4.large").unwrap();
        let big = machine_by_name("c4.8xlarge").unwrap();
        assert!(big.price_per_hour() > small.price_per_hour());
        assert!(big.flops_total() > small.flops_total());
    }

    #[test]
    fn cluster_price_scales_with_nodes() {
        let m = machine_by_name("m4.large").unwrap();
        let c = ClusterSpec::new(m.clone(), 10);
        assert!((c.price_per_hour() - 10.0 * m.price_per_hour()).abs() < 1e-12);
        assert_eq!(c.num_nodes(), 10);
        assert!(c.one_way_latency() > 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn cluster_rejects_zero_nodes() {
        ClusterSpec::new(machine_by_name("m4.large").unwrap(), 0);
    }

    #[test]
    fn topology_fractions_and_slowdowns() {
        assert_eq!(Topology::Flat.cross_rack_fraction(), 0.0);
        assert_eq!(Topology::Flat.cross_rack_slowdown(), 1.0);
        let t = Topology::TwoTier {
            racks: 4,
            oversubscription: 3.0,
        };
        assert!((t.cross_rack_fraction() - 0.75).abs() < 1e-12);
        assert_eq!(t.cross_rack_slowdown(), 3.0);
        let single = Topology::TwoTier {
            racks: 1,
            oversubscription: 3.0,
        };
        assert_eq!(single.cross_rack_fraction(), 0.0);
        assert_eq!(single.cross_rack_slowdown(), 1.0);
    }

    #[test]
    fn default_topology_is_flat() {
        let c = ClusterSpec::new(machine_by_name("m4.large").unwrap(), 4);
        assert_eq!(c.topology(), Topology::Flat);
        let racked = c.with_topology(Topology::TwoTier {
            racks: 2,
            oversubscription: 2.0,
        });
        assert!(matches!(racked.topology(), Topology::TwoTier { .. }));
    }

    #[test]
    #[should_panic(expected = "oversubscription")]
    fn rejects_sub_unit_oversubscription() {
        ClusterSpec::new(machine_by_name("m4.large").unwrap(), 4).with_topology(
            Topology::TwoTier {
                racks: 2,
                oversubscription: 0.5,
            },
        );
    }
}
