//! Post-hoc structural invariant checking for engine results.
//!
//! [`check_invariants`] re-derives, from nothing but the trace and the
//! machine configuration, every structural property a correct schedule
//! must satisfy — issue-width and port caps, operand visibility under the
//! forwarding model, in-order dispatch/commit, window and ROB occupancy,
//! deterministic branch-predictor replay — and reports each violation
//! with the offending cycle and instruction. [`verify`] gates a finished
//! run on the checker — `verify(config, trace, simulate(…)?)` is the
//! `checked` run mode: it fails the run if any invariant is violated.
//!
//! The checker deliberately shares no code with the engine's hot path:
//! memory dependences are re-resolved with a plain `HashMap` sweep (not
//! the open-addressed [`LastStoreTable`](ccs_trace::Trace::memory_deps)),
//! occupancy is re-derived by event replay rather than by tracking live
//! windows, and the predictor is replayed fresh. An optimization bug in
//! the engine therefore cannot hide itself from the checker.

use crate::engine::SimError;
use crate::record::{Cycle, ReadyBound};
use crate::result::SimResult;
use ccs_isa::{BranchClass, MachineConfig, OpClass, PortKind};
use ccs_trace::{DynIdx, Trace};
use ccs_uarch::{BranchPredictor, Gshare};
use std::collections::HashMap;
use std::fmt;

/// One violated structural invariant, located as precisely as possible.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// The cycle at which the invariant was violated.
    pub cycle: Cycle,
    /// The offending instruction, when one is identifiable.
    pub inst: Option<DynIdx>,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.inst {
            Some(i) => write!(f, "cycle {}, inst {}: {}", self.cycle, i.raw(), self.message),
            None => write!(f, "cycle {}: {}", self.cycle, self.message),
        }
    }
}

/// Checks every structural invariant of `result` against `trace` and
/// `config`, returning all violations sorted by (cycle, instruction).
///
/// An empty vector means the schedule is structurally sound. The checks,
/// in the order applied per instruction:
///
/// 1. the recorded cluster exists;
/// 2. dispatch respects the front-end pipeline depth
///    (`dispatch ≥ fetch + depth`);
/// 3. readiness respects the dispatch floor (`ready ≥ dispatch + 1`);
/// 4. no instruction issues before it is ready (`issue ≥ ready`);
/// 5. execution latency matches the op class plus recorded memory
///    penalty, and the penalty is zero without an L1 miss;
/// 6. commit strictly follows completion (`commit > complete`);
/// 7. fetch, dispatch and commit are in program order;
/// 8. every operand (register and true memory dependence) is visible
///    before issue under the forwarding model
///    (`ready ≥ producer.complete + fwd`), and with unlimited broadcast
///    bandwidth the ready time *equals* the analytic formula;
/// 9. a recorded [`ReadyBound::Operand`] names an actual dependence.
///
/// Then globally:
///
/// 10. per (cycle, cluster), issue width and per-port caps are honored;
/// 11. per cycle, commit and dispatch bandwidth are honored;
/// 12. window occupancy, replayed from dispatch/issue events, never
///     exceeds the per-cluster window size;
/// 13. ROB occupancy, replayed from dispatch/commit events, never
///     exceeds the ROB size;
/// 14. a fresh gshare replayed over the trace in program order
///     reproduces every recorded misprediction, and the aggregate
///     mispredict / conditional-branch / L1 counters match the records;
/// 15. the total cycle count is the last commit plus one.
pub fn check_invariants(
    config: &MachineConfig,
    trace: &Trace,
    result: &SimResult,
) -> Vec<Violation> {
    let mut v = Checker {
        config,
        trace,
        result,
        violations: Vec::new(),
    };
    v.check_all();
    v.violations
        .sort_by(|a, b| (a.cycle, a.inst.map(DynIdx::raw)).cmp(&(b.cycle, b.inst.map(DynIdx::raw))));
    v.violations
}

/// Gates `result` on [`check_invariants`]: passes a clean result
/// through, converts any violation into [`SimError::InvariantViolated`].
///
/// # Errors
///
/// Returns [`SimError::InvariantViolated`] carrying the first violation
/// in (cycle, instruction) order and the total count.
pub fn verify(
    config: &MachineConfig,
    trace: &Trace,
    result: SimResult,
) -> Result<SimResult, SimError> {
    let violations = check_invariants(config, trace, &result);
    let count = violations.len();
    match violations.into_iter().next() {
        Some(first) => Err(SimError::InvariantViolated { first, count }),
        None => Ok(result),
    }
}

struct Checker<'a> {
    config: &'a MachineConfig,
    trace: &'a Trace,
    result: &'a SimResult,
    violations: Vec<Violation>,
}

impl Checker<'_> {
    fn fail(&mut self, cycle: Cycle, inst: Option<usize>, message: String) {
        self.violations.push(Violation {
            cycle,
            inst: inst.map(|i| DynIdx::new(i as u32)),
            message,
        });
    }

    fn check_all(&mut self) {
        if self.trace.is_empty() {
            if self.result.cycles != 0 {
                let cycles = self.result.cycles;
                self.fail(cycles, None, "empty trace must take zero cycles".into());
            }
            return;
        }
        let mem_deps = reference_memory_deps(self.trace);
        self.check_per_instruction(&mem_deps);
        self.check_issue_bandwidth();
        self.check_commit_and_dispatch_bandwidth();
        self.check_window_occupancy();
        self.check_rob_occupancy();
        self.check_predictor_replay();
        self.check_totals();
    }

    fn check_per_instruction(&mut self, mem_deps: &[Option<u32>]) {
        let insts = self.trace.as_slice();
        let records = &self.result.records;
        let clusters = self.config.cluster_count();
        let depth = self.config.front_end.depth_to_dispatch as Cycle;
        let unlimited_bcast = self.config.forward_bandwidth.is_none();

        for (i, r) in records.iter().enumerate() {
            let inst = &insts[i];
            if (r.cluster as usize) >= clusters {
                self.fail(
                    r.dispatch,
                    Some(i),
                    format!("steered to cluster {} of {clusters}", r.cluster),
                );
                continue; // every later check would index out of range
            }
            if r.dispatch < r.fetch + depth {
                self.fail(
                    r.dispatch,
                    Some(i),
                    format!(
                        "dispatched at {} before clearing the {depth}-stage front end \
                         (fetched at {})",
                        r.dispatch, r.fetch
                    ),
                );
            }
            if r.ready < r.dispatch + 1 {
                self.fail(
                    r.ready,
                    Some(i),
                    format!("ready at {} under the dispatch floor {}", r.ready, r.dispatch + 1),
                );
            }
            if r.issue < r.ready {
                self.fail(
                    r.issue,
                    Some(i),
                    format!("issued at {} before ready at {}", r.issue, r.ready),
                );
            }
            let expected_latency = inst.op().latency() as Cycle + r.mem_extra as Cycle;
            if r.complete != r.issue + expected_latency {
                self.fail(
                    r.complete,
                    Some(i),
                    format!(
                        "{} completed after {} cycles; the op class plus memory penalty \
                         takes {expected_latency}",
                        inst.op(),
                        // Saturate: a corrupt schedule can complete "before"
                        // issuing, and the checker must stay total on garbage.
                        r.complete.saturating_sub(r.issue)
                    ),
                );
            }
            if !r.l1_miss && r.mem_extra != 0 {
                self.fail(
                    r.issue,
                    Some(i),
                    format!("{} extra memory cycles without an L1 miss", r.mem_extra),
                );
            }
            if r.commit <= r.complete {
                self.fail(
                    r.commit,
                    Some(i),
                    format!("committed at {} but completed at {}", r.commit, r.complete),
                );
            }
            if i > 0 {
                let p = &records[i - 1];
                for (what, a, b) in [
                    ("fetch", p.fetch, r.fetch),
                    ("dispatch", p.dispatch, r.dispatch),
                    ("commit", p.commit, r.commit),
                ] {
                    if b < a {
                        self.fail(
                            b,
                            Some(i),
                            format!("{what} at {b} precedes the previous instruction's {a}"),
                        );
                    }
                }
            }

            // Operand visibility: register dependences plus the true
            // memory dependence, under the forwarding model.
            let deps = inst
                .deps
                .iter()
                .filter_map(|d| *d)
                .chain(mem_deps[i].map(DynIdx::new));
            let mut analytic_ready = r.dispatch + 1;
            for p in deps.clone() {
                let pr = &records[p.index()];
                let fwd = self
                    .config
                    .forwarding_between(pr.cluster as usize, r.cluster as usize)
                    as Cycle;
                let visible = pr.complete + fwd;
                if r.ready < visible {
                    self.fail(
                        r.ready,
                        Some(i),
                        format!(
                            "ready at {} before operand from inst {} becomes visible at \
                             {visible} (complete {} + fwd {fwd})",
                            r.ready,
                            p.raw(),
                            pr.complete
                        ),
                    );
                }
                analytic_ready = analytic_ready.max(visible);
            }
            if unlimited_bcast && r.ready != analytic_ready {
                self.fail(
                    r.ready,
                    Some(i),
                    format!(
                        "ready at {} but operands and the dispatch floor imply \
                         exactly {analytic_ready}",
                        r.ready
                    ),
                );
            }
            if let ReadyBound::Operand { producer, .. } = r.ready_bound {
                if !deps.clone().any(|d| d == producer) {
                    self.fail(
                        r.ready,
                        Some(i),
                        format!(
                            "ready bound names inst {} which is not a dependence",
                            producer.raw()
                        ),
                    );
                }
            }
        }
    }

    fn check_issue_bandwidth(&mut self) {
        let insts = self.trace.as_slice();
        // (cycle, cluster) -> [width, int, fp, mem] slots consumed.
        let mut used: HashMap<(Cycle, u8), [usize; 4]> = HashMap::new();
        for (i, r) in self.result.records.iter().enumerate() {
            let slot = match insts[i].op().port() {
                PortKind::Int => 1,
                PortKind::Fp => 2,
                PortKind::Mem => 3,
            };
            let u = used.entry((r.issue, r.cluster)).or_default();
            u[0] += 1;
            u[slot] += 1;
        }
        let caps = [
            ("issue width", self.config.cluster.issue_width),
            ("int ports", self.config.cluster.int_ports),
            ("fp ports", self.config.cluster.fp_ports),
            ("mem ports", self.config.cluster.mem_ports),
        ];
        let mut over: Vec<_> = used
            .into_iter()
            .flat_map(|((cycle, cluster), u)| {
                caps.into_iter()
                    .enumerate()
                    .filter(move |&(k, (_, cap))| u[k] > cap)
                    .map(move |(k, (what, cap))| (cycle, cluster, what, u[k], cap))
            })
            .collect();
        over.sort();
        for (cycle, cluster, what, got, cap) in over {
            self.fail(
                cycle,
                None,
                format!("cluster {cluster} issued {got} instructions against its {what} of {cap}"),
            );
        }
    }

    fn check_commit_and_dispatch_bandwidth(&mut self) {
        type TimeOf = fn(&crate::record::InstRecord) -> Cycle;
        let cases: [(&str, usize, TimeOf); 3] = [
            ("commit width", self.config.commit_width, |r| r.commit),
            ("dispatch width", self.config.front_end.fetch_width, |r| r.dispatch),
            ("fetch width", self.config.front_end.fetch_width, |r| r.fetch),
        ];
        for (what, cap, time_of) in cases {
            let mut per_cycle: HashMap<Cycle, usize> = HashMap::new();
            for t in self.result.records.iter().map(time_of) {
                *per_cycle.entry(t).or_default() += 1;
            }
            let mut over: Vec<_> = per_cycle.into_iter().filter(|&(_, n)| n > cap).collect();
            over.sort_unstable();
            for (cycle, n) in over {
                self.fail(cycle, None, format!("{n} instructions against a {what} of {cap}"));
            }
        }
    }

    /// Replays dispatch (+1) and issue (−1) events per cluster. An entry
    /// leaves the window the cycle it issues, and that slot is reusable
    /// the same cycle (issue runs before dispatch in the engine's stage
    /// order), so removals sort before additions within a cycle.
    fn check_window_occupancy(&mut self) {
        let cap = self.config.cluster.window_entries;
        let clusters = self.config.cluster_count();
        // (cycle, phase, delta): phase 0 = issue removals, 1 = dispatch adds.
        let mut events: Vec<Vec<(Cycle, u8, i64)>> = vec![Vec::new(); clusters];
        for r in &self.result.records {
            let Some(ev) = events.get_mut(r.cluster as usize) else {
                continue; // out-of-range cluster already reported
            };
            ev.push((r.dispatch, 1, 1));
            ev.push((r.issue, 0, -1));
        }
        for (c, mut ev) in events.into_iter().enumerate() {
            ev.sort_unstable();
            let mut occ: i64 = 0;
            let mut reported = false;
            for (cycle, _, delta) in ev {
                occ += delta;
                if occ > cap as i64 && !reported {
                    self.fail(
                        cycle,
                        None,
                        format!("cluster {c} window holds {occ} entries of {cap}"),
                    );
                    reported = true; // one report per cluster is enough
                }
            }
        }
    }

    /// Replays dispatch (+1) and commit (−1) events against the ROB. The
    /// engine commits before it dispatches within a cycle, so removals
    /// sort first here too.
    fn check_rob_occupancy(&mut self) {
        let cap = self.config.rob_entries;
        let mut ev: Vec<(Cycle, u8, i64)> = Vec::with_capacity(self.result.records.len() * 2);
        for r in &self.result.records {
            ev.push((r.dispatch, 1, 1));
            ev.push((r.commit, 0, -1));
        }
        ev.sort_unstable();
        let mut occ: i64 = 0;
        for (cycle, _, delta) in ev {
            occ += delta;
            if occ > cap as i64 {
                self.fail(cycle, None, format!("ROB holds {occ} entries of {cap}"));
                return;
            }
        }
    }

    /// Fetch is in order, so a fresh gshare consulted once per
    /// conditional branch in program order must reproduce exactly the
    /// recorded mispredictions.
    fn check_predictor_replay(&mut self) {
        let mut bp = Gshare::new(self.config.front_end.gshare_history_bits);
        let mut conditional = 0u64;
        let mut mispredicted = 0u64;
        for (i, inst) in self.trace.as_slice().iter().enumerate() {
            let r = &self.result.records[i];
            let is_cond = inst
                .branch
                .is_some_and(|b| b.class == BranchClass::Conditional);
            if !is_cond {
                if r.mispredicted {
                    self.fail(
                        r.fetch,
                        Some(i),
                        "mispredict recorded on a non-conditional instruction".into(),
                    );
                }
                continue;
            }
            // Invariant: `is_cond` above required `inst.branch` to be a
            // Some(Conditional).
            let br = inst.branch.expect("conditional branch has an outcome");
            conditional += 1;
            let pred = bp.predict(inst.pc());
            bp.update(inst.pc(), br.taken);
            let miss = pred != br.taken;
            mispredicted += miss as u64;
            if r.mispredicted != miss {
                self.fail(
                    r.fetch,
                    Some(i),
                    format!(
                        "gshare replay says mispredicted={miss}, record says {}",
                        r.mispredicted
                    ),
                );
            }
        }
        if conditional != self.result.conditional_branches {
            self.fail(
                0,
                None,
                format!(
                    "{} conditional branches in the trace, {} counted",
                    conditional, self.result.conditional_branches
                ),
            );
        }
        if mispredicted != self.result.mispredicts {
            self.fail(
                0,
                None,
                format!(
                    "gshare replay mispredicts {} branches, result counts {}",
                    mispredicted, self.result.mispredicts
                ),
            );
        }
    }

    fn check_totals(&mut self) {
        let records = &self.result.records;
        // Invariant: `check_all` returns early for empty traces before
        // calling this.
        let last_commit = records.last().expect("non-empty trace").commit;
        if self.result.cycles != last_commit + 1 {
            self.fail(
                self.result.cycles,
                None,
                format!("run took {} cycles but the last commit is at {last_commit}", self.result.cycles),
            );
        }
        let mem_insts = self
            .trace
            .as_slice()
            .iter()
            .filter(|i| i.mem_addr.is_some())
            .count() as u64;
        if self.result.l1_accesses != mem_insts {
            self.fail(
                0,
                None,
                format!(
                    "{} L1 accesses counted for {mem_insts} memory instructions",
                    self.result.l1_accesses
                ),
            );
        }
        let misses = records.iter().filter(|r| r.l1_miss).count() as u64;
        if self.result.l1_misses != misses {
            self.fail(
                0,
                None,
                format!(
                    "{} L1 misses counted but {misses} records carry the miss flag",
                    self.result.l1_misses
                ),
            );
        }
    }
}

/// Memory dependences re-resolved the obvious way: a `HashMap` sweep
/// tracking the last store per 8-byte word, independent of the engine's
/// open-addressed table.
fn reference_memory_deps(trace: &Trace) -> Vec<Option<u32>> {
    let mut last_store: HashMap<u64, u32> = HashMap::new();
    trace
        .as_slice()
        .iter()
        .enumerate()
        .map(|(i, inst)| match (inst.op(), inst.mem_addr) {
            (OpClass::Store, Some(addr)) => {
                last_store.insert(addr >> 3, i as u32);
                None
            }
            (OpClass::Load, Some(addr)) => last_store.get(&(addr >> 3)).copied(),
            _ => None,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::simulate;
    use crate::policies::LeastLoaded;
    use ccs_isa::ClusterLayout;
    use ccs_trace::Benchmark;

    fn checked_run(layout: ClusterLayout) -> SimResult {
        let trace = Benchmark::Vpr.generate(1, 2_000);
        let cfg = MachineConfig::micro05_baseline().with_layout(layout);
        let result = simulate(&cfg, &trace, &mut LeastLoaded).expect("engine run");
        verify(&cfg, &trace, result).expect("engine satisfies its invariants")
    }

    #[test]
    fn engine_results_pass_on_every_layout() {
        for layout in ClusterLayout::ALL {
            let r = checked_run(layout);
            assert!(r.cycles > 0);
        }
    }

    #[test]
    fn limited_bandwidth_results_pass() {
        let trace = Benchmark::Gzip.generate(2, 1_500);
        let cfg = MachineConfig::micro05_baseline()
            .with_layout(ClusterLayout::C4x2w)
            .with_forward_bandwidth(Some(1));
        let result = simulate(&cfg, &trace, &mut LeastLoaded).unwrap();
        assert_eq!(check_invariants(&cfg, &trace, &result), vec![]);
    }

    #[test]
    fn tampered_issue_cycle_is_caught() {
        let trace = Benchmark::Vpr.generate(1, 500);
        let cfg = MachineConfig::micro05_baseline().with_layout(ClusterLayout::C2x4w);
        let mut result = simulate(&cfg, &trace, &mut LeastLoaded).unwrap();
        // Pull one instruction's issue a cycle early: breaks issue ≥ ready
        // (or, if it was contention-delayed, the latency identity).
        let victim = result
            .records
            .iter()
            .position(|r| r.issue == r.ready && r.issue > 0)
            .expect("some instruction issues the cycle it becomes ready");
        result.records[victim].issue -= 1;
        let violations = check_invariants(&cfg, &trace, &result);
        assert!(
            violations.iter().any(|v| v.inst == Some(DynIdx::new(victim as u32))),
            "tampering went unnoticed: {violations:?}"
        );
    }

    #[test]
    fn tampered_cluster_is_caught() {
        let trace = Benchmark::Gap.generate(1, 400);
        let cfg = MachineConfig::micro05_baseline().with_layout(ClusterLayout::C2x4w);
        let mut result = simulate(&cfg, &trace, &mut LeastLoaded).unwrap();
        result.records[10].cluster = 7; // only clusters 0 and 1 exist
        let violations = check_invariants(&cfg, &trace, &result);
        assert!(violations.iter().any(|v| v.message.contains("cluster 7")));
    }

    #[test]
    fn tampered_mispredict_flag_is_caught() {
        let trace = Benchmark::Gcc.generate(1, 800);
        let cfg = MachineConfig::micro05_baseline();
        let mut result = simulate(&cfg, &trace, &mut LeastLoaded).unwrap();
        let branch = result
            .records
            .iter()
            .position(|r| r.mispredicted)
            .expect("gcc model mispredicts within 800 instructions");
        result.records[branch].mispredicted = false;
        let violations = check_invariants(&cfg, &trace, &result);
        assert!(violations.iter().any(|v| v.message.contains("gshare replay")));
    }

    #[test]
    fn tampered_cycle_total_is_caught() {
        let trace = Benchmark::Gap.generate(1, 300);
        let cfg = MachineConfig::micro05_baseline();
        let mut result = simulate(&cfg, &trace, &mut LeastLoaded).unwrap();
        result.cycles += 1;
        let violations = check_invariants(&cfg, &trace, &result);
        assert!(violations.iter().any(|v| v.message.contains("last commit")));
    }

    #[test]
    fn violations_render_location() {
        let v = Violation {
            cycle: 42,
            inst: Some(DynIdx::new(7)),
            message: "boom".into(),
        };
        assert_eq!(v.to_string(), "cycle 42, inst 7: boom");
        let v = Violation {
            cycle: 3,
            inst: None,
            message: "boom".into(),
        };
        assert_eq!(v.to_string(), "cycle 3: boom");
    }

    #[test]
    fn checked_error_reports_first_violation() {
        let trace = Benchmark::Gap.generate(1, 300);
        let cfg = MachineConfig::micro05_baseline();
        let result = simulate(&cfg, &trace, &mut LeastLoaded).unwrap();
        // Confirm the checked gate passes a sound run through unchanged.
        let checked = verify(&cfg, &trace, result.clone()).unwrap();
        assert_eq!(checked.cycles, result.cycles);
        assert_eq!(checked.records, result.records);
    }
}
