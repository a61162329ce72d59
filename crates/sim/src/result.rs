//! Simulation results and aggregate statistics.

use crate::record::{Cycle, InstRecord};
use ccs_isa::MachineConfig;
use serde::{Deserialize, Serialize};

/// The per-cycle ready-vs-issued census behind Figure 15.
///
/// For every execute cycle, the simulator counts how many instructions
/// were ready across all clusters (*available ILP*) and how many actually
/// issued (*achieved ILP*), and accumulates achieved per available bucket.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct IlpCensus {
    /// `buckets[a] = (cycles with available ILP a, total instructions
    /// issued on those cycles)`.
    buckets: Vec<(u64, u64)>,
}

impl IlpCensus {
    /// Records one cycle with `available` ready instructions of which
    /// `achieved` issued.
    #[inline]
    pub fn record(&mut self, available: usize, achieved: usize) {
        if self.buckets.len() <= available {
            self.buckets.resize(available + 1, (0, 0));
        }
        let b = &mut self.buckets[available];
        b.0 += 1;
        b.1 += achieved as u64;
    }

    /// Mean achieved ILP on cycles with exactly `available` ready
    /// instructions, or `None` if no such cycle occurred.
    pub fn achieved_at(&self, available: usize) -> Option<f64> {
        let &(cycles, issued) = self.buckets.get(available)?;
        (cycles > 0).then(|| issued as f64 / cycles as f64)
    }

    /// Number of cycles observed with exactly `available` ready
    /// instructions.
    pub fn cycles_at(&self, available: usize) -> u64 {
        self.buckets.get(available).map_or(0, |b| b.0)
    }

    /// The largest available-ILP value observed.
    pub fn max_available(&self) -> usize {
        self.buckets.len().saturating_sub(1)
    }

    /// Iterates `(available, cycles, mean achieved)` over populated buckets.
    pub fn series(&self) -> impl Iterator<Item = (usize, u64, f64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, b)| b.0 > 0)
            .map(|(a, &(cycles, issued))| (a, cycles, issued as f64 / cycles as f64))
    }

    /// Merges another census into this one.
    pub fn merge(&mut self, other: &IlpCensus) {
        if self.buckets.len() < other.buckets.len() {
            self.buckets.resize(other.buckets.len(), (0, 0));
        }
        for (dst, src) in self.buckets.iter_mut().zip(&other.buckets) {
            dst.0 += src.0;
            dst.1 += src.1;
        }
    }
}

/// The outcome of one simulation run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimResult {
    /// The machine configuration simulated.
    pub config: MachineConfig,
    /// Total cycles (the commit cycle of the last instruction, plus one).
    pub cycles: Cycle,
    /// Per-instruction event records, parallel to the trace.
    pub records: Vec<InstRecord>,
    /// Conditional branches the front end mispredicted.
    pub mispredicts: u64,
    /// Conditional branches simulated.
    pub conditional_branches: u64,
    /// L1 data-cache misses.
    pub l1_misses: u64,
    /// L1 data-cache accesses.
    pub l1_accesses: u64,
    /// Operand deliveries that crossed clusters (§2.1's "global values").
    pub global_values: u64,
    /// The ready/issued census (Figure 15).
    pub ilp: IlpCensus,
    /// Dispatch cycles lost to steering stalls (policy stalled or target
    /// full while the ROB had space).
    pub steer_stall_cycles: u64,
}

impl SimResult {
    /// Instructions simulated.
    #[inline]
    pub fn instructions(&self) -> usize {
        self.records.len()
    }

    /// Cycles per instruction.
    pub fn cpi(&self) -> f64 {
        if self.records.is_empty() {
            return 0.0;
        }
        self.cycles as f64 / self.records.len() as f64
    }

    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        self.records.len() as f64 / self.cycles as f64
    }

    /// Branch misprediction rate over conditional branches.
    pub fn mispredict_rate(&self) -> f64 {
        if self.conditional_branches == 0 {
            return 0.0;
        }
        self.mispredicts as f64 / self.conditional_branches as f64
    }

    /// L1 miss rate.
    pub fn l1_miss_rate(&self) -> f64 {
        if self.l1_accesses == 0 {
            return 0.0;
        }
        self.l1_misses as f64 / self.l1_accesses as f64
    }

    /// Cross-cluster operand deliveries per instruction (the paper reports
    /// 0.12 / 0.2 / 0.25 for its 2-, 4- and 8-cluster policies).
    pub fn global_values_per_inst(&self) -> f64 {
        if self.records.is_empty() {
            return 0.0;
        }
        self.global_values as f64 / self.records.len() as f64
    }

    /// Instructions executed per cluster, for load-distribution reports.
    pub fn per_cluster_counts(&self) -> Vec<u64> {
        let n = self.config.cluster_count();
        let mut counts = vec![0u64; n];
        for r in &self.records {
            counts[r.cluster as usize] += 1;
        }
        counts
    }

    /// Total cycles ready instructions spent waiting to issue (aggregate
    /// contention exposure, §3).
    pub fn total_contention_cycles(&self) -> u64 {
        self.records.iter().map(InstRecord::contention_wait).sum()
    }

    /// Placement counts per steering cause, in the order
    /// `[Only, Dependence, LoadBalance, NoDeps, Proactive]` — the
    /// diagnostic behind Figure 6(b)'s cause attribution.
    pub fn steer_cause_counts(&self) -> [u64; 5] {
        let mut counts = [0u64; 5];
        for r in &self.records {
            counts[r.steer_cause.index()] += 1;
        }
        counts
    }

    /// A 64-bit digest of every field except `config` (which callers
    /// identify separately): the counters, each record's fields and the
    /// ILP census, fed in a fixed order at explicit widths.
    ///
    /// Bit-identical runs digest identically, and the value does not
    /// depend on `Debug` renderings or on whether metrics were observed.
    /// Each mixing step is a bijection of the running state and of the
    /// incoming word, so a change to any single field always changes the
    /// digest.
    pub fn digest(&self) -> u64 {
        let mut h = WordMix::new();
        for w in [
            self.cycles,
            self.mispredicts,
            self.conditional_branches,
            self.l1_misses,
            self.l1_accesses,
            self.global_values,
            self.steer_stall_cycles,
            self.records.len() as u64,
        ] {
            h.word(w);
        }
        for r in &self.records {
            for w in r.digest_words() {
                h.word(w);
            }
        }
        h.word(self.ilp.buckets.len() as u64);
        for &(cycles, issued) in &self.ilp.buckets {
            h.word(cycles);
            h.word(issued);
        }
        h.finish()
    }

    /// Number of clusters that executed more than `threshold` of the
    /// instructions — the utilization measure behind §7's observation
    /// that much of gzip's stall-over-steer speedup happens "in long
    /// stretches of the execution where only 3 clusters are used",
    /// confirming that cluster utilization is not a metric to optimize.
    pub fn active_clusters(&self, threshold: f64) -> usize {
        let total = self.records.len().max(1) as f64;
        self.per_cluster_counts()
            .iter()
            .filter(|&&c| c as f64 / total > threshold)
            .count()
    }
}

/// The word-at-a-time mixer behind [`SimResult::digest`]: xor the word
/// in, multiply by an odd constant, rotate. Every step is invertible, and
/// a murmur-style finalizer spreads the last words over all output bits.
struct WordMix(u64);

impl WordMix {
    fn new() -> Self {
        WordMix(0xcbf2_9ce4_8422_2325)
    }

    #[inline]
    fn word(&mut self, w: u64) {
        self.0 = (self.0 ^ w)
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .rotate_left(26);
    }

    fn finish(self) -> u64 {
        let mut z = self.0;
        z = (z ^ (z >> 33)).wrapping_mul(0xff51_afd7_ed55_8ccd);
        z = (z ^ (z >> 33)).wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        z ^ (z >> 33)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ilp_census_means() {
        let mut c = IlpCensus::default();
        c.record(3, 2);
        c.record(3, 3);
        c.record(1, 1);
        assert_eq!(c.achieved_at(3), Some(2.5));
        assert_eq!(c.achieved_at(1), Some(1.0));
        assert_eq!(c.achieved_at(0), None);
        assert_eq!(c.achieved_at(99), None);
        assert_eq!(c.cycles_at(3), 2);
        assert_eq!(c.max_available(), 3);
        let series: Vec<_> = c.series().collect();
        assert_eq!(series, vec![(1, 1, 1.0), (3, 2, 2.5)]);
    }

    #[test]
    fn ilp_census_merge() {
        let mut a = IlpCensus::default();
        a.record(2, 2);
        let mut b = IlpCensus::default();
        b.record(2, 1);
        b.record(5, 4);
        a.merge(&b);
        assert_eq!(a.achieved_at(2), Some(1.5));
        assert_eq!(a.achieved_at(5), Some(4.0));
    }

    fn empty_result() -> SimResult {
        SimResult {
            config: MachineConfig::micro05_baseline(),
            cycles: 0,
            records: Vec::new(),
            mispredicts: 0,
            conditional_branches: 0,
            l1_misses: 0,
            l1_accesses: 0,
            global_values: 0,
            ilp: IlpCensus::default(),
            steer_stall_cycles: 0,
        }
    }

    /// A named single-field perturbation.
    type Mutation<T> = (&'static str, fn(&mut T));

    /// A schedule from a real run, to perturb one field at a time.
    fn real_result() -> SimResult {
        let trace = ccs_trace::Benchmark::Gzip.generate(1, 2_000);
        let config = MachineConfig::micro05_baseline().with_layout(ccs_isa::ClusterLayout::C4x2w);
        crate::simulate(&config, &trace, &mut crate::policies::LeastLoaded).unwrap()
    }

    #[test]
    fn digest_changes_with_every_field() {
        use crate::{CommitBound, DispatchBound, ReadyBound, SteerCause};
        use ccs_trace::DynIdx;
        let base = real_result();
        let digest = base.digest();
        let record_mutations: [Mutation<InstRecord>; 21] = [
            ("fetch", |r| r.fetch += 1),
            ("dispatch", |r| r.dispatch += 1),
            ("ready", |r| r.ready += 1),
            ("issue", |r| r.issue += 1),
            ("complete", |r| r.complete += 1),
            ("commit", |r| r.commit += 1),
            ("cluster", |r| r.cluster ^= 1),
            ("mispredicted", |r| r.mispredicted ^= true),
            ("l1_miss", |r| r.l1_miss ^= true),
            ("mem_extra", |r| r.mem_extra += 1),
            ("dispatch_bound variant", |r| {
                r.dispatch_bound = match r.dispatch_bound {
                    DispatchBound::InOrder => DispatchBound::FrontEnd,
                    _ => DispatchBound::InOrder,
                }
            }),
            ("dispatch_bound index", |r| {
                r.dispatch_bound = match r.dispatch_bound {
                    DispatchBound::Redirect(i) => DispatchBound::Redirect(DynIdx::new(i.raw() + 1)),
                    _ => DispatchBound::Redirect(DynIdx::new(0)),
                }
            }),
            ("steer stall freed_by", |r| {
                r.dispatch_bound = match r.dispatch_bound {
                    DispatchBound::SteerStall { freed_by: None } => DispatchBound::SteerStall {
                        freed_by: Some(DynIdx::new(0)),
                    },
                    _ => DispatchBound::SteerStall { freed_by: None },
                }
            }),
            ("ready_bound variant", |r| {
                r.ready_bound = match r.ready_bound {
                    ReadyBound::Dispatch => ReadyBound::Operand {
                        slot: 0,
                        producer: DynIdx::new(0),
                        fwd: 0,
                    },
                    ReadyBound::Operand { .. } => ReadyBound::Dispatch,
                }
            }),
            ("ready_bound slot", |r| {
                if let ReadyBound::Operand { slot, .. } = &mut r.ready_bound {
                    *slot ^= 1;
                }
            }),
            ("ready_bound producer", |r| {
                if let ReadyBound::Operand { producer, .. } = &mut r.ready_bound {
                    *producer = DynIdx::new(producer.raw() + 1);
                }
            }),
            ("ready_bound fwd", |r| {
                if let ReadyBound::Operand { fwd, .. } = &mut r.ready_bound {
                    *fwd += 1;
                }
            }),
            ("commit_bound", |r| {
                r.commit_bound = match r.commit_bound {
                    CommitBound::Bandwidth => CommitBound::InOrder,
                    _ => CommitBound::Bandwidth,
                }
            }),
            ("steer_cause", |r| {
                r.steer_cause = match r.steer_cause {
                    SteerCause::Proactive => SteerCause::NoDeps,
                    _ => SteerCause::Proactive,
                }
            }),
            ("predicted_critical", |r| r.predicted_critical ^= true),
            ("loc", |r| r.loc = f32::from_bits(r.loc.to_bits() ^ 1)),
        ];
        // One record with operand-bound readiness, so the operand payload
        // mutations hit live fields.
        let i = base
            .records
            .iter()
            .position(|r| matches!(r.ready_bound, ReadyBound::Operand { .. }))
            .expect("some instruction waits on an operand");
        for (name, mutate) in record_mutations {
            let mut drifted = base.clone();
            mutate(&mut drifted.records[i]);
            assert_ne!(
                drifted.records[i], base.records[i],
                "{name} mutation is a no-op"
            );
            assert_ne!(drifted.digest(), digest, "digest misses {name}");
        }

        let result_mutations: [Mutation<SimResult>; 10] = [
            ("cycles", |r| r.cycles += 1),
            ("mispredicts", |r| r.mispredicts += 1),
            ("conditional_branches", |r| r.conditional_branches += 1),
            ("l1_misses", |r| r.l1_misses += 1),
            ("l1_accesses", |r| r.l1_accesses += 1),
            ("global_values", |r| r.global_values += 1),
            ("steer_stall_cycles", |r| r.steer_stall_cycles += 1),
            ("records", |r| {
                r.records.pop();
            }),
            ("ilp bucket", |r| r.ilp.record(1, 1)),
            ("ilp length", |r| r.ilp.buckets.push((0, 0))),
        ];
        for (name, mutate) in result_mutations {
            let mut drifted = base.clone();
            mutate(&mut drifted);
            assert_ne!(drifted.digest(), digest, "digest misses {name}");
        }

        // `config` is identified by the cell key, not the digest.
        let mut other_config = base.clone();
        other_config.config = MachineConfig::micro05_baseline();
        assert_eq!(other_config.digest(), digest);
    }

    #[test]
    fn digest_tags_enum_variants() {
        use crate::DispatchBound;
        use ccs_trace::DynIdx;
        let i = DynIdx::new(7);
        let variants = [
            DispatchBound::FrontEnd,
            DispatchBound::InOrder,
            DispatchBound::Redirect(i),
            DispatchBound::RobFull(i),
            DispatchBound::SteerStall { freed_by: Some(i) },
            DispatchBound::SteerStall { freed_by: None },
        ];
        let mut digests: Vec<u64> = variants
            .iter()
            .map(|&bound| {
                let mut r = empty_result();
                let mut rec = InstRecord::empty();
                rec.dispatch_bound = bound;
                r.records.push(rec);
                r.digest()
            })
            .collect();
        digests.sort_unstable();
        digests.dedup();
        assert_eq!(digests.len(), variants.len(), "variants digest alike");
    }

    #[test]
    fn digest_is_a_pure_function_of_the_schedule() {
        let a = real_result();
        assert_eq!(a.digest(), a.digest());
        assert_eq!(a.digest(), real_result().digest(), "rerun digests alike");

        let trace = ccs_trace::Benchmark::Gzip.generate(1, 2_000);
        let mut observer = crate::RunObserver::for_machine(a.config.cluster_count());
        let observed = crate::simulate_observed(
            &a.config,
            &trace,
            &mut crate::policies::LeastLoaded,
            &crate::SimBudget::unbounded(),
            &mut observer,
        )
        .unwrap();
        assert_eq!(observed.digest(), a.digest(), "metrics change the digest");
    }

    #[test]
    fn rates_on_empty_results_are_zero() {
        let r = empty_result();
        assert_eq!(r.cpi(), 0.0);
        assert_eq!(r.ipc(), 0.0);
        assert_eq!(r.mispredict_rate(), 0.0);
        assert_eq!(r.l1_miss_rate(), 0.0);
        assert_eq!(r.global_values_per_inst(), 0.0);
        assert_eq!(r.total_contention_cycles(), 0);
        assert_eq!(r.instructions(), 0);
    }

    #[test]
    fn cpi_and_ipc_are_reciprocal() {
        let mut r = empty_result();
        r.cycles = 50;
        r.records = vec![InstRecord::empty(); 100];
        assert!((r.cpi() - 0.5).abs() < 1e-12);
        assert!((r.ipc() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn steer_cause_counts_partition_records() {
        let mut r = empty_result();
        let mut rec = InstRecord::empty();
        rec.steer_cause = crate::SteerCause::Dependence;
        r.records.push(rec);
        rec.steer_cause = crate::SteerCause::LoadBalance;
        r.records.push(rec);
        r.records.push(rec);
        let c = r.steer_cause_counts();
        assert_eq!(c, [0, 1, 2, 0, 0]);
        assert_eq!(c.iter().sum::<u64>() as usize, r.records.len());
    }

    #[test]
    fn active_clusters_counts_above_threshold() {
        let mut r = empty_result();
        r.config = MachineConfig::micro05_baseline().with_layout(ccs_isa::ClusterLayout::C2x4w);
        let mut rec = InstRecord::empty();
        for _ in 0..95 {
            rec.cluster = 0;
            r.records.push(rec);
        }
        for _ in 0..5 {
            rec.cluster = 1;
            r.records.push(rec);
        }
        assert_eq!(r.active_clusters(0.10), 1);
        assert_eq!(r.active_clusters(0.01), 2);
    }

    #[test]
    fn per_cluster_counts_sum_to_total() {
        let mut r = empty_result();
        let mut rec = InstRecord::empty();
        rec.cluster = 0;
        r.records.push(rec);
        rec.cluster = 0;
        r.records.push(rec);
        let counts = r.per_cluster_counts();
        assert_eq!(counts.iter().sum::<u64>(), 2);
    }
}
