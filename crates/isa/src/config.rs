//! Machine and cluster configuration.
//!
//! [`MachineConfig`] describes one machine in the family the paper studies:
//! an 8-wide out-of-order superscalar whose execution core is partitioned
//! into 1, 2, 4 or 8 clusters. The baseline parameters follow Table 1 of
//! the paper; [`ClusterLayout`] selects the partitioning, with per-cluster
//! resources derived by dividing the aggregate resources and rounding
//! partial resources up (footnote 1: each cluster in the 8x1w machine
//! still has a memory port and a floating point ALU).

use crate::op::PortKind;
use serde::{Deserialize, Serialize};
use std::fmt;

/// The cluster partitioning of the machine's execution core.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ClusterLayout {
    /// Monolithic baseline: one 8-wide cluster.
    C1x8w,
    /// Two 4-wide clusters.
    C2x4w,
    /// Four 2-wide clusters (the configuration in Figure 1).
    C4x2w,
    /// Eight 1-wide clusters.
    C8x1w,
}

impl ClusterLayout {
    /// All layouts studied by the paper, monolithic first.
    pub const ALL: [ClusterLayout; 4] = [
        ClusterLayout::C1x8w,
        ClusterLayout::C2x4w,
        ClusterLayout::C4x2w,
        ClusterLayout::C8x1w,
    ];

    /// The clustered (non-monolithic) layouts, in paper order (2, 4, 8).
    pub const CLUSTERED: [ClusterLayout; 3] = [
        ClusterLayout::C2x4w,
        ClusterLayout::C4x2w,
        ClusterLayout::C8x1w,
    ];

    /// Number of clusters.
    #[inline]
    pub const fn clusters(self) -> usize {
        match self {
            ClusterLayout::C1x8w => 1,
            ClusterLayout::C2x4w => 2,
            ClusterLayout::C4x2w => 4,
            ClusterLayout::C8x1w => 8,
        }
    }

    /// Issue width of each cluster.
    #[inline]
    pub const fn cluster_width(self) -> usize {
        8 / self.clusters()
    }

    /// The layout's conventional name in the paper (`1x8w`, `2x4w`, ...).
    pub const fn name(self) -> &'static str {
        match self {
            ClusterLayout::C1x8w => "1x8w",
            ClusterLayout::C2x4w => "2x4w",
            ClusterLayout::C4x2w => "4x2w",
            ClusterLayout::C8x1w => "8x1w",
        }
    }
}

impl fmt::Display for ClusterLayout {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Front-end parameters (Table 1, "Front-end" row).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FrontEndConfig {
    /// Instructions fetched per cycle.
    pub fetch_width: usize,
    /// Pipeline stages from fetch to dispatch; a branch-misprediction
    /// redirect costs this many cycles of refill.
    pub depth_to_dispatch: u32,
    /// gshare global-history bits.
    pub gshare_history_bits: u32,
    /// Entries in the decoupling buffer between the front-end pipe and
    /// dispatch. When the buffer fills, fetch stalls.
    pub skid_buffer: usize,
    /// Whether a fetch group ends at a taken branch. The paper models a
    /// high-bandwidth front end; the default (`false`) lets a group span
    /// correctly-predicted taken branches.
    pub break_on_taken: bool,
}

impl Default for FrontEndConfig {
    fn default() -> Self {
        FrontEndConfig {
            fetch_width: 8,
            depth_to_dispatch: 13,
            gshare_history_bits: 16,
            skid_buffer: 64,
            break_on_taken: false,
        }
    }
}

/// A finite second-level cache backed by main memory.
///
/// The paper's headline experiments use an infinite 20-cycle L2 "to
/// reduce simulation times", but §2.1 notes they *verified* the CPI
/// breakdowns against runs with a finite L2 and a 200-cycle memory; this
/// configuration reproduces that verification setup.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct L2Config {
    /// L2 capacity in bytes.
    pub bytes: usize,
    /// L2 associativity.
    pub ways: usize,
    /// L2 line size in bytes.
    pub line_bytes: usize,
    /// Additional cycles an L2 miss pays to reach main memory.
    pub memory_latency: u32,
}

impl Default for L2Config {
    fn default() -> Self {
        L2Config {
            bytes: 512 * 1024,
            ways: 8,
            line_bytes: 64,
            memory_latency: 200,
        }
    }
}

/// Memory-hierarchy parameters (Table 1, "Memory" row).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemoryConfig {
    /// L1 data cache size in bytes (32 KB).
    pub l1_bytes: usize,
    /// L1 associativity (4-way).
    pub l1_ways: usize,
    /// L1 line size in bytes.
    pub l1_line_bytes: usize,
    /// Additional cycles an L1 miss pays to reach the L2.
    pub l2_latency: u32,
    /// Finite L2 + main memory behind the L1 miss path; `None` models the
    /// paper's infinite L2 (every L1 miss costs exactly `l2_latency`).
    pub l2: Option<L2Config>,
}

impl Default for MemoryConfig {
    fn default() -> Self {
        MemoryConfig {
            l1_bytes: 32 * 1024,
            l1_ways: 4,
            l1_line_bytes: 64,
            l2_latency: 20,
            l2: None,
        }
    }
}

impl MemoryConfig {
    /// Number of sets in the L1.
    pub fn l1_sets(&self) -> usize {
        self.l1_bytes / (self.l1_ways * self.l1_line_bytes)
    }

    /// The §2.1 verification configuration: finite 512 KB L2 with a
    /// 200-cycle memory behind it.
    pub fn with_finite_l2(mut self) -> Self {
        self.l2 = Some(L2Config::default());
        self
    }
}

/// Per-cluster resources, derived from a [`ClusterLayout`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ClusterConfig {
    /// Scheduling-window entries at this cluster (aggregate 128 divided
    /// among the clusters).
    pub window_entries: usize,
    /// Instructions the cluster can issue per cycle.
    pub issue_width: usize,
    /// Integer issue slots per cycle.
    pub int_ports: usize,
    /// Floating-point issue slots per cycle.
    pub fp_ports: usize,
    /// Memory issue slots per cycle.
    pub mem_ports: usize,
}

impl ClusterConfig {
    /// Issue slots of the given kind per cycle.
    #[inline]
    pub const fn ports(&self, kind: PortKind) -> usize {
        match kind {
            PortKind::Int => self.int_ports,
            PortKind::Fp => self.fp_ports,
            PortKind::Mem => self.mem_ports,
        }
    }
}

/// Errors produced when validating a [`MachineConfig`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// The aggregate window is not divisible by the cluster count.
    WindowNotDivisible {
        /// Aggregate window entries.
        window: usize,
        /// Number of clusters.
        clusters: usize,
    },
    /// The ROB is smaller than the aggregate window.
    RobSmallerThanWindow {
        /// ROB entries.
        rob: usize,
        /// Aggregate window entries.
        window: usize,
    },
    /// The inter-cluster forwarding latency is zero on a clustered machine.
    ZeroForwardingLatency,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::WindowNotDivisible { window, clusters } => write!(
                f,
                "window of {window} entries does not divide among {clusters} clusters"
            ),
            ConfigError::RobSmallerThanWindow { rob, window } => {
                write!(f, "ROB of {rob} entries is smaller than the {window}-entry window")
            }
            ConfigError::ZeroForwardingLatency => {
                write!(f, "clustered machine requires a forwarding latency of at least 1 cycle")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Full configuration of one simulated machine.
///
/// ```
/// use ccs_isa::{ClusterLayout, MachineConfig};
/// let m = MachineConfig::micro05_baseline().with_layout(ClusterLayout::C8x1w);
/// assert_eq!(m.cluster_count(), 8);
/// assert_eq!(m.cluster.window_entries, 16);
/// // Partial resources round up: every 1-wide cluster keeps a memory port
/// // and an FP ALU (footnote 1 of the paper).
/// assert_eq!(m.cluster.mem_ports, 1);
/// assert_eq!(m.cluster.fp_ports, 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MachineConfig {
    /// The cluster partitioning.
    pub layout: ClusterLayout,
    /// Front-end parameters.
    pub front_end: FrontEndConfig,
    /// Aggregate scheduling-window entries (128).
    pub window_total: usize,
    /// Reorder-buffer entries (256).
    pub rob_entries: usize,
    /// Instructions committed per cycle.
    pub commit_width: usize,
    /// Aggregate integer issue slots per cycle (8).
    pub int_total: usize,
    /// Aggregate floating-point issue slots per cycle (4).
    pub fp_total: usize,
    /// Aggregate memory issue slots per cycle (4).
    pub mem_total: usize,
    /// Inter-cluster forwarding latency in cycles (the paper shows results
    /// for 2; 1–4 were modelled).
    pub forward_latency: u32,
    /// Values each cluster can broadcast onto the global bypass network
    /// per cycle. `None` models the paper's assumption of "enough capacity
    /// to support peak execution rates"; `Some(b)` serializes broadcasts,
    /// the limited-bandwidth extension the paper leaves to future work.
    pub forward_bandwidth: Option<u32>,
    /// Memory hierarchy.
    pub memory: MemoryConfig,
    /// Derived per-cluster resources.
    pub cluster: ClusterConfig,
}

impl MachineConfig {
    /// The monolithic baseline of Table 1: 8-wide, 128-entry window,
    /// 256-entry ROB, 13-stage front end, 16-bit gshare, 32 KB 4-way L1,
    /// 20-cycle infinite L2, 2-cycle inter-cluster forwarding latency
    /// (irrelevant for the monolithic layout but inherited by
    /// [`with_layout`](Self::with_layout)).
    pub fn micro05_baseline() -> Self {
        Self::build(
            ClusterLayout::C1x8w,
            FrontEndConfig::default(),
            128,
            256,
            8,
            8,
            4,
            4,
            2,
            MemoryConfig::default(),
        )
        .expect("baseline parameters are valid")
    }

    /// Builds and validates a configuration.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if the window does not divide among the
    /// clusters, the ROB is smaller than the window, or a clustered layout
    /// is given a zero forwarding latency.
    #[allow(clippy::too_many_arguments)]
    pub fn build(
        layout: ClusterLayout,
        front_end: FrontEndConfig,
        window_total: usize,
        rob_entries: usize,
        commit_width: usize,
        int_total: usize,
        fp_total: usize,
        mem_total: usize,
        forward_latency: u32,
        memory: MemoryConfig,
    ) -> Result<Self, ConfigError> {
        let n = layout.clusters();
        if !window_total.is_multiple_of(n) {
            return Err(ConfigError::WindowNotDivisible {
                window: window_total,
                clusters: n,
            });
        }
        if rob_entries < window_total {
            return Err(ConfigError::RobSmallerThanWindow {
                rob: rob_entries,
                window: window_total,
            });
        }
        if n > 1 && forward_latency == 0 {
            return Err(ConfigError::ZeroForwardingLatency);
        }
        let cluster = ClusterConfig {
            window_entries: window_total / n,
            issue_width: layout.cluster_width(),
            int_ports: int_total.div_ceil(n),
            fp_ports: fp_total.div_ceil(n),
            mem_ports: mem_total.div_ceil(n),
        };
        Ok(MachineConfig {
            layout,
            front_end,
            window_total,
            rob_entries,
            commit_width,
            int_total,
            fp_total,
            mem_total,
            forward_latency,
            forward_bandwidth: None,
            memory,
            cluster,
        })
    }

    /// Returns the same machine with a different cluster partitioning.
    ///
    /// # Panics
    ///
    /// Panics if the aggregate window does not divide among the new
    /// layout's clusters (it always does for the paper's parameters).
    #[must_use]
    pub fn with_layout(&self, layout: ClusterLayout) -> Self {
        let mut cfg = Self::build(
            layout,
            self.front_end,
            self.window_total,
            self.rob_entries,
            self.commit_width,
            self.int_total,
            self.fp_total,
            self.mem_total,
            self.forward_latency,
            self.memory,
        )
        // Invariant: `self` was already validated by `build`, and
        // re-dividing validated aggregate resources over any of the four
        // paper layouts (1/2/4/8 clusters) cannot fail.
        .expect("window divides among the paper's layouts");
        cfg.forward_bandwidth = self.forward_bandwidth;
        cfg
    }

    /// Returns the same machine with a different inter-cluster forwarding
    /// latency (the paper models 1–4 cycles).
    #[must_use]
    pub fn with_forward_latency(&self, cycles: u32) -> Self {
        let mut cfg = *self;
        cfg.forward_latency = cycles;
        cfg
    }

    /// Returns the same machine with a per-cluster broadcast bandwidth
    /// limit on the global bypass network (`None` = unlimited).
    ///
    /// # Panics
    ///
    /// Panics if a zero bandwidth is given.
    #[must_use]
    pub fn with_forward_bandwidth(&self, per_cluster_per_cycle: Option<u32>) -> Self {
        assert!(
            per_cluster_per_cycle.is_none_or(|b| b >= 1),
            "forward bandwidth must be at least 1"
        );
        let mut cfg = *self;
        cfg.forward_bandwidth = per_cluster_per_cycle;
        cfg
    }

    /// Returns the same machine with the §2.1 verification memory system
    /// (finite 512 KB L2, 200-cycle memory).
    #[must_use]
    pub fn with_finite_l2(&self) -> Self {
        let mut cfg = *self;
        cfg.memory = cfg.memory.with_finite_l2();
        cfg
    }

    /// Number of clusters.
    #[inline]
    pub fn cluster_count(&self) -> usize {
        self.layout.clusters()
    }

    /// Whether the machine is monolithic (a single cluster).
    #[inline]
    pub fn is_monolithic(&self) -> bool {
        self.cluster_count() == 1
    }

    /// The forwarding latency between two clusters: zero within a cluster,
    /// [`forward_latency`](Self::forward_latency) cycles across clusters.
    #[inline]
    pub fn forwarding_between(&self, from: usize, to: usize) -> u32 {
        if from == to {
            0
        } else {
            self.forward_latency
        }
    }
}

impl Default for MachineConfig {
    fn default() -> Self {
        Self::micro05_baseline()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_matches_table_1() {
        let m = MachineConfig::micro05_baseline();
        assert_eq!(m.front_end.fetch_width, 8);
        assert_eq!(m.front_end.depth_to_dispatch, 13);
        assert_eq!(m.front_end.gshare_history_bits, 16);
        assert_eq!(m.window_total, 128);
        assert_eq!(m.rob_entries, 256);
        assert_eq!(m.int_total, 8);
        assert_eq!(m.fp_total, 4);
        assert_eq!(m.mem_total, 4);
        assert_eq!(m.memory.l1_bytes, 32 * 1024);
        assert_eq!(m.memory.l1_ways, 4);
        assert_eq!(m.memory.l2_latency, 20);
        assert_eq!(m.forward_latency, 2);
    }

    #[test]
    fn layout_resources_divide_and_round_up() {
        let base = MachineConfig::micro05_baseline();

        let c2 = base.with_layout(ClusterLayout::C2x4w);
        assert_eq!(c2.cluster.window_entries, 64);
        assert_eq!(c2.cluster.issue_width, 4);
        assert_eq!(c2.cluster.int_ports, 4);
        assert_eq!(c2.cluster.fp_ports, 2);
        assert_eq!(c2.cluster.mem_ports, 2);

        let c4 = base.with_layout(ClusterLayout::C4x2w);
        assert_eq!(c4.cluster.window_entries, 32);
        assert_eq!(c4.cluster.issue_width, 2);
        assert_eq!(c4.cluster.int_ports, 2);
        assert_eq!(c4.cluster.fp_ports, 1);
        assert_eq!(c4.cluster.mem_ports, 1);

        let c8 = base.with_layout(ClusterLayout::C8x1w);
        assert_eq!(c8.cluster.window_entries, 16);
        assert_eq!(c8.cluster.issue_width, 1);
        assert_eq!(c8.cluster.int_ports, 1);
        // Footnote 1: partial resources round up.
        assert_eq!(c8.cluster.fp_ports, 1);
        assert_eq!(c8.cluster.mem_ports, 1);
    }

    #[test]
    fn forwarding_is_zero_within_cluster() {
        let m = MachineConfig::micro05_baseline().with_layout(ClusterLayout::C4x2w);
        assert_eq!(m.forwarding_between(2, 2), 0);
        assert_eq!(m.forwarding_between(0, 3), 2);
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let err = MachineConfig::build(
            ClusterLayout::C8x1w,
            FrontEndConfig::default(),
            100,
            256,
            8,
            8,
            4,
            4,
            2,
            MemoryConfig::default(),
        )
        .unwrap_err();
        assert!(matches!(err, ConfigError::WindowNotDivisible { .. }));

        let err = MachineConfig::build(
            ClusterLayout::C1x8w,
            FrontEndConfig::default(),
            128,
            64,
            8,
            8,
            4,
            4,
            2,
            MemoryConfig::default(),
        )
        .unwrap_err();
        assert!(matches!(err, ConfigError::RobSmallerThanWindow { .. }));

        let err = MachineConfig::build(
            ClusterLayout::C2x4w,
            FrontEndConfig::default(),
            128,
            256,
            8,
            8,
            4,
            4,
            0,
            MemoryConfig::default(),
        )
        .unwrap_err();
        assert_eq!(err, ConfigError::ZeroForwardingLatency);
        assert!(!err.to_string().is_empty());
    }

    #[test]
    fn layout_names() {
        assert_eq!(ClusterLayout::C1x8w.to_string(), "1x8w");
        assert_eq!(ClusterLayout::C8x1w.name(), "8x1w");
        assert_eq!(ClusterLayout::ALL.len(), 4);
        assert_eq!(ClusterLayout::CLUSTERED.len(), 3);
    }

    #[test]
    fn l1_sets_derived_from_geometry() {
        let mem = MemoryConfig::default();
        assert_eq!(mem.l1_sets(), 32 * 1024 / (4 * 64));
    }

    #[test]
    fn forward_latency_override() {
        let m = MachineConfig::micro05_baseline()
            .with_layout(ClusterLayout::C2x4w)
            .with_forward_latency(4);
        assert_eq!(m.forwarding_between(0, 1), 4);
    }

    #[test]
    fn ports_accessor_matches_fields() {
        let c = MachineConfig::micro05_baseline().cluster;
        assert_eq!(c.ports(PortKind::Int), c.int_ports);
        assert_eq!(c.ports(PortKind::Fp), c.fp_ports);
        assert_eq!(c.ports(PortKind::Mem), c.mem_ports);
    }
}

#[cfg(test)]
mod properties {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    /// Every layout × window size (8..=512 entries) × forwarding latency,
    /// each with a ROB surplus drawn from `StdRng::seed_from_u64(seed)`,
    /// where `seed` is the case's index in that enumeration.
    #[test]
    fn build_is_total_and_consistent() {
        let mut seed = 0u64;
        for layout in ClusterLayout::ALL {
            for window_exp in 3u32..10 {
                for fwd in 0u32..6 {
                    check_build(seed, layout, window_exp, fwd);
                    seed += 1;
                }
            }
        }
    }

    fn check_build(seed: u64, layout: ClusterLayout, window_exp: u32, fwd: u32) {
        let rob_extra = StdRng::seed_from_u64(seed).random_range(0usize..512);
        let window = 1usize << window_exp;
        let rob = window + rob_extra;
        let case = format!("case seed {seed}: {layout:?} window {window} rob {rob} fwd {fwd}");
        let result = MachineConfig::build(
            layout,
            FrontEndConfig::default(),
            window,
            rob,
            8,
            8,
            4,
            4,
            fwd,
            MemoryConfig::default(),
        );
        match result {
            Ok(cfg) => {
                // Power-of-two windows always divide the layouts.
                assert_eq!(
                    cfg.cluster.window_entries * cfg.cluster_count(),
                    window,
                    "{case}"
                );
                // Ports cover the aggregate with round-up.
                assert!(cfg.cluster.int_ports * cfg.cluster_count() >= 8, "{case}");
                assert!(cfg.cluster.fp_ports * cfg.cluster_count() >= 4, "{case}");
                assert!(cfg.cluster.mem_ports * cfg.cluster_count() >= 4, "{case}");
                assert!(cfg.rob_entries >= cfg.window_total, "{case}");
                // Forwarding is symmetric in shape.
                for a in 0..cfg.cluster_count() {
                    for b in 0..cfg.cluster_count() {
                        assert_eq!(
                            cfg.forwarding_between(a, b),
                            cfg.forwarding_between(b, a),
                            "{case}"
                        );
                        if a == b {
                            assert_eq!(cfg.forwarding_between(a, b), 0, "{case}");
                        }
                    }
                }
            }
            Err(e) => {
                // Only the documented failure cases occur.
                let documented = matches!(
                    e,
                    ConfigError::ZeroForwardingLatency
                        | ConfigError::WindowNotDivisible { .. }
                        | ConfigError::RobSmallerThanWindow { .. }
                );
                assert!(documented, "{case}: {e:?}");
                // Zero-latency failures only on clustered layouts.
                if e == ConfigError::ZeroForwardingLatency {
                    assert!(layout.clusters() > 1 && fwd == 0, "{case}");
                }
            }
        }
    }

    #[test]
    fn layout_switching_preserves_aggregates() {
        let base = MachineConfig::micro05_baseline();
        for layout in ClusterLayout::ALL {
            let m = base.with_layout(layout);
            assert_eq!(m.window_total, base.window_total, "{layout:?}");
            assert_eq!(m.rob_entries, base.rob_entries, "{layout:?}");
            assert_eq!(m.int_total, base.int_total, "{layout:?}");
            assert_eq!(m.cluster.issue_width * m.cluster_count(), 8, "{layout:?}");
        }
    }
}
