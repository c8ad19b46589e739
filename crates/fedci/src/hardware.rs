//! Cluster hardware descriptions, with presets for the paper's testbed
//! (Table II).
//!
//! A cluster's *speed factor* scales task execution: a task specified as
//! `compute_seconds` on the reference machine (speed 1.0, calibrated to
//! Qiming) takes `compute_seconds / speed_factor` on a cluster. The paper's
//! DHA scheduler exploits exactly this heterogeneity ("DHA prefers Taiyi, a
//! higher performance cluster", Fig. 11).

/// Hardware description of one cluster.
#[derive(Clone, Debug, PartialEq)]
pub struct ClusterSpec {
    /// Human-readable name.
    pub name: String,
    /// Base clock of the CPU in GHz.
    pub cpu_ghz: f64,
    /// Physical cores per node.
    pub cores_per_node: u32,
    /// RAM per node in GB.
    pub ram_gb: u32,
    /// Number of nodes in the cluster.
    pub nodes: u32,
    /// Relative single-core performance vs. the reference cluster.
    pub speed_factor: f64,
    /// Typical batch-queue wait when requesting additional nodes, seconds.
    /// Big oversubscribed machines (Taiyi) have long queues; lab machines
    /// are immediate. Reproduces the paper's "powerful but long queue times"
    /// vs. "fewer resources but immediately available" trade-off.
    pub provision_delay_s: f64,
}

impl ClusterSpec {
    /// **Taiyi** — 2.5 PF supercomputer (Table II): 2× Xeon Gold 6148
    /// @2.4 GHz, 192 GB, 815 nodes. Newest hardware, longest queue.
    pub fn taiyi() -> Self {
        ClusterSpec {
            name: "Taiyi".into(),
            cpu_ghz: 2.4,
            cores_per_node: 40,
            ram_gb: 192,
            nodes: 815,
            speed_factor: 1.10,
            provision_delay_s: 90.0,
        }
    }

    /// **Qiming** — 0.3 PF academic supercomputer: 2× Xeon E5-2690
    /// @2.6 GHz, 64 GB, 230 nodes. The reference machine (speed 1.0).
    pub fn qiming() -> Self {
        ClusterSpec {
            name: "Qiming".into(),
            cpu_ghz: 2.6,
            cores_per_node: 16,
            ram_gb: 64,
            nodes: 230,
            speed_factor: 1.00,
            provision_delay_s: 30.0,
        }
    }

    /// **Dept. cluster** — teaching/research cluster: 2× Xeon Platinum 8260
    /// @2.4 GHz, 770 GB, 26 nodes.
    pub fn dept_cluster() -> Self {
        ClusterSpec {
            name: "Dept. cluster".into(),
            cpu_ghz: 2.4,
            cores_per_node: 48,
            ram_gb: 770,
            nodes: 26,
            speed_factor: 1.05,
            provision_delay_s: 15.0,
        }
    }

    /// **Lab cluster** — local compute: 2× Xeon Gold 5320 @2.2 GHz, 128 GB,
    /// 2 nodes. Immediately available.
    pub fn lab_cluster() -> Self {
        ClusterSpec {
            name: "Lab cluster".into(),
            cpu_ghz: 2.2,
            cores_per_node: 26,
            ram_gb: 128,
            nodes: 2,
            speed_factor: 0.95,
            provision_delay_s: 2.0,
        }
    }

    /// **Workstation** — the submitting host: Core i5-9400 @2.9 GHz, 16 GB.
    pub fn workstation() -> Self {
        ClusterSpec {
            name: "Workstation".into(),
            cpu_ghz: 2.9,
            cores_per_node: 6,
            ram_gb: 16,
            nodes: 1,
            speed_factor: 0.90,
            provision_delay_s: 0.0,
        }
    }

    /// A uniform synthetic cluster, handy for scalability experiments where
    /// the paper deploys all endpoints on Qiming.
    pub fn uniform(name: &str, speed_factor: f64) -> Self {
        ClusterSpec {
            name: name.into(),
            speed_factor,
            ..Self::qiming()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's full testbed in Table II order.
    fn table2_testbed() -> Vec<ClusterSpec> {
        vec![
            ClusterSpec::taiyi(),
            ClusterSpec::qiming(),
            ClusterSpec::dept_cluster(),
            ClusterSpec::lab_cluster(),
            ClusterSpec::workstation(),
        ]
    }

    #[test]
    fn table2_matches_paper() {
        let tb = table2_testbed();
        assert_eq!(tb.len(), 5);
        assert_eq!(tb[0].name, "Taiyi");
        assert_eq!(tb[0].nodes, 815);
        assert_eq!(tb[0].ram_gb, 192);
        assert_eq!(tb[1].nodes, 230);
        assert_eq!(tb[2].ram_gb, 770);
        assert_eq!(tb[3].nodes, 2);
        assert_eq!(tb[4].cores_per_node, 6);
    }

    #[test]
    fn taiyi_is_fastest_and_slowest_to_provision() {
        let tb = table2_testbed();
        let taiyi = &tb[0];
        assert!(tb.iter().all(|c| c.speed_factor <= taiyi.speed_factor));
        assert!(tb
            .iter()
            .all(|c| c.provision_delay_s <= taiyi.provision_delay_s));
    }

    #[test]
    fn qiming_is_reference() {
        assert_eq!(ClusterSpec::qiming().speed_factor, 1.0);
    }

    #[test]
    fn total_cores() {
        let cores = |c: ClusterSpec| c.cores_per_node as u64 * c.nodes as u64;
        assert_eq!(cores(ClusterSpec::lab_cluster()), 52);
        assert_eq!(cores(ClusterSpec::taiyi()), 32_600);
    }

    #[test]
    fn uniform_clone_overrides_speed() {
        let u = ClusterSpec::uniform("ep3", 1.5);
        assert_eq!(u.name, "ep3");
        assert_eq!(u.speed_factor, 1.5);
        assert_eq!(u.cores_per_node, ClusterSpec::qiming().cores_per_node);
    }
}
