//! Property-based tests: random traces and configurations must preserve
//! the simulator's and analyses' core invariants.
//!
//! Each property runs a fixed number of cases. Case `seed` draws all of
//! its inputs from `StdRng::seed_from_u64(seed)`, and every assertion
//! names the seed, so a failing case replays alone.

use clustercrit::critpath::analyze;
use clustercrit::isa::{
    ArchReg, BranchInfo, ClusterLayout, MachineConfig, OpClass, Pc, StaticInst,
};
use clustercrit::sim::{
    policies::{LeastLoaded, RoundRobin},
    simulate, SteeringPolicy,
};
use clustercrit::trace::{Trace, TraceBuilder};
use rand::rngs::StdRng;
use rand::{Rng, RngExt, SeedableRng};
use std::ops::Range;

/// A generated instruction blueprint: op class + small operand indices.
struct InstSpec {
    op_sel: u8,
    src1: Option<u8>,
    src2: Option<u8>,
    dst: u8,
    addr: u32,
    taken: bool,
    pc_slot: u8,
}

fn inst_spec(rng: &mut StdRng) -> InstSpec {
    InstSpec {
        op_sel: rng.random_range(0u8..6),
        src1: operand(rng),
        src2: operand(rng),
        dst: rng.random_range(0u8..16),
        addr: rng.next_u64() as u32,
        taken: rng.random_bool(0.5),
        pc_slot: rng.random_range(0u8..32),
    }
}

/// A source operand three times out of four, none otherwise.
fn operand(rng: &mut StdRng) -> Option<u8> {
    (rng.random_range(0u8..4) != 0).then(|| rng.random_range(0u8..16))
}

/// Between `len.start` and `len.end - 1` blueprints.
fn inst_specs(rng: &mut StdRng, len: Range<usize>) -> Vec<InstSpec> {
    let n = rng.random_range(len);
    (0..n).map(|_| inst_spec(rng)).collect()
}

/// Materializes blueprints into a well-formed trace.
fn build_trace(specs: &[InstSpec]) -> Trace {
    let mut b = TraceBuilder::new();
    for s in specs {
        let pc = Pc::new(0x1000 + 4 * s.pc_slot as u64);
        let reg = |n: u8| ArchReg::int(1 + (n % 30) as u16);
        let srcs = [s.src1.map(reg), s.src2.map(reg)];
        match s.op_sel {
            0 | 1 => {
                // Integer ALU with 0-2 sources.
                b.push_simple(
                    StaticInst::new(pc, OpClass::IntAlu)
                        .with_srcs(srcs)
                        .with_dst(reg(s.dst)),
                );
            }
            2 => {
                b.push_mem(
                    StaticInst::new(pc, OpClass::Load)
                        .with_srcs(srcs)
                        .with_dst(reg(s.dst)),
                    s.addr as u64,
                );
            }
            3 => {
                b.push_mem(
                    StaticInst::new(pc, OpClass::Store).with_srcs(srcs),
                    s.addr as u64,
                );
            }
            4 => {
                b.push_branch(
                    StaticInst::new(pc, OpClass::Branch).with_srcs(srcs),
                    BranchInfo::conditional(s.taken),
                );
            }
            _ => {
                b.push_simple(
                    StaticInst::new(pc, OpClass::FpMul)
                        .with_srcs(srcs)
                        .with_dst(ArchReg::fp((s.dst % 30) as u16)),
                );
            }
        }
    }
    b.finish()
}

fn any_layout(rng: &mut StdRng) -> ClusterLayout {
    ClusterLayout::ALL[rng.random_range(0..ClusterLayout::ALL.len())]
}

/// `seed` names the case in every assertion message.
fn check_invariants(
    seed: u64,
    trace: &Trace,
    layout: ClusterLayout,
    policy: &mut dyn SteeringPolicy,
) {
    let cfg = MachineConfig::micro05_baseline().with_layout(layout);
    let result = simulate(&cfg, trace, policy)
        .unwrap_or_else(|e| panic!("case seed {seed}: baseline policies never deadlock: {e}"));

    // Event ordering per instruction.
    for (i, rec) in result.records.iter().enumerate() {
        assert!(rec.fetch + 13 <= rec.dispatch, "case seed {seed}: inst {i}");
        assert!(rec.dispatch < rec.ready, "case seed {seed}: inst {i}");
        assert!(rec.ready <= rec.issue, "case seed {seed}: inst {i}");
        assert!(rec.issue < rec.complete, "case seed {seed}: inst {i}");
        assert!(rec.complete < rec.commit, "case seed {seed}: inst {i}");
        assert!(
            (rec.cluster as usize) < cfg.cluster_count(),
            "case seed {seed}: inst {i}"
        );
    }
    // In-order dispatch and commit.
    for w in result.records.windows(2) {
        assert!(w[0].dispatch <= w[1].dispatch, "case seed {seed}");
        assert!(w[0].commit <= w[1].commit, "case seed {seed}");
    }
    // Dataflow respected, including forwarding.
    for (i, inst) in trace.iter() {
        for p in inst.producers() {
            let pr = &result.records[p.index()];
            let cr = &result.records[i.index()];
            let fwd = cfg.forwarding_between(pr.cluster as usize, cr.cluster as usize);
            assert!(
                cr.issue >= pr.complete + fwd as u64,
                "case seed {seed}: inst {i} used operand from {p} too early"
            );
        }
    }
    // Exact critical-path attribution.
    let analysis = analyze(trace, &result);
    assert_eq!(
        analysis.breakdown.total(),
        result.cycles,
        "case seed {seed}"
    );
    // The last instruction's execute node is always critical... only when
    // its commit is complete-bound; weaker invariant: some instruction is
    // E-critical for non-empty traces.
    if !trace.is_empty() {
        assert!(analysis.critical_count() >= 1, "case seed {seed}");
    }
}

#[test]
fn random_traces_respect_invariants() {
    for seed in 0..48 {
        let mut rng = StdRng::seed_from_u64(seed);
        let trace = build_trace(&inst_specs(&mut rng, 1..200));
        let layout = any_layout(&mut rng);
        trace
            .validate()
            .unwrap_or_else(|e| panic!("case seed {seed}: {e}"));
        if rng.random_bool(0.5) {
            check_invariants(seed, &trace, layout, &mut RoundRobin::default());
        } else {
            check_invariants(seed, &trace, layout, &mut LeastLoaded);
        }
    }
}

#[test]
fn simulation_is_deterministic() {
    for seed in 0..48 {
        let mut rng = StdRng::seed_from_u64(seed);
        let trace = build_trace(&inst_specs(&mut rng, 1..120));
        let cfg = MachineConfig::micro05_baseline().with_layout(any_layout(&mut rng));
        let run = || {
            simulate(&cfg, &trace, &mut LeastLoaded)
                .unwrap_or_else(|e| panic!("case seed {seed}: {e}"))
        };
        let (a, b) = (run(), run());
        assert_eq!(a.cycles, b.cycles, "case seed {seed}");
        assert_eq!(a.records, b.records, "case seed {seed}");
    }
}

#[test]
fn cycles_scale_sanely_with_trace_length() {
    for seed in 0..48 {
        let mut rng = StdRng::seed_from_u64(seed);
        let trace = build_trace(&inst_specs(&mut rng, 8..150));
        let cfg = MachineConfig::micro05_baseline();
        let result = simulate(&cfg, &trace, &mut LeastLoaded)
            .unwrap_or_else(|e| panic!("case seed {seed}: {e}"));
        // Lower bound: pipeline depth. Upper bound: worst case fully
        // serial L2-missing loads plus mispredict refills.
        assert!(
            result.cycles >= 14,
            "case seed {seed}: {} cycles",
            result.cycles
        );
        assert!(
            result.cycles <= 64 * trace.len() as u64 + 100,
            "case seed {seed}: {} cycles for {} instructions",
            result.cycles,
            trace.len()
        );
    }
}

#[test]
fn trace_builder_dependences_point_backwards() {
    for seed in 0..48 {
        let mut rng = StdRng::seed_from_u64(seed);
        let trace = build_trace(&inst_specs(&mut rng, 0..300));
        assert!(trace.validate().is_ok(), "case seed {seed}");
        for (i, inst) in trace.iter() {
            for p in inst.producers() {
                assert!(
                    p.index() < i.index(),
                    "case seed {seed}: inst {i} reads {p}"
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// List-scheduler legality: the idealized schedule must itself respect the
// machine's constraints within every region.
// ---------------------------------------------------------------------------

mod listsched_legality {
    use super::*;
    use clustercrit::isa::PortKind;
    use clustercrit::listsched::{list_schedule, ListScheduleConfig};
    use std::collections::HashMap;

    /// `case` names the input in every assertion message.
    fn check_schedule_legality(case: &str, trace: &Trace, layout: ClusterLayout) {
        let mono_cfg = MachineConfig::micro05_baseline();
        let mono =
            simulate(&mono_cfg, trace, &mut LeastLoaded).unwrap_or_else(|e| panic!("{case}: {e}"));
        let machine = mono_cfg.with_layout(layout);
        let r = list_schedule(
            trace,
            &mono,
            &ListScheduleConfig::new(machine).with_placements(),
        );
        let placements = r.placements.as_ref().expect("placements recorded");
        assert_eq!(placements.len(), trace.len(), "{case}");

        // Per (region, cycle, cluster): width and port usage.
        let mut width: HashMap<(u32, u64, u32), usize> = HashMap::new();
        let mut ports: HashMap<(u32, u64, u32, u8), usize> = HashMap::new();
        for (i, p) in placements.iter().enumerate() {
            assert!(
                (p.cluster as usize) < machine.cluster_count(),
                "{case}: inst {i}"
            );
            assert!(p.finish > p.issue, "{case}: inst {i} has zero latency");
            *width.entry((p.region, p.issue, p.cluster)).or_insert(0) += 1;
            let kind = match trace.as_slice()[i].op().port() {
                PortKind::Int => 0u8,
                PortKind::Fp => 1,
                PortKind::Mem => 2,
            };
            *ports
                .entry((p.region, p.issue, p.cluster, kind))
                .or_insert(0) += 1;
        }
        for (&(_, _, _), &w) in &width {
            assert!(
                w <= machine.cluster.issue_width,
                "{case}: width violated: {w}"
            );
        }
        for (&(_, _, _, kind), &u) in &ports {
            let cap = match kind {
                0 => machine.cluster.int_ports,
                1 => machine.cluster.fp_ports,
                _ => machine.cluster.mem_ports,
            };
            assert!(u <= cap, "{case}: port {kind} violated: {u} > {cap}");
        }
        // Dataflow + forwarding within regions.
        for (i, inst) in trace.iter() {
            let pi = &placements[i.index()];
            for d in inst.producers() {
                let pd = &placements[d.index()];
                if pd.region != pi.region {
                    continue; // regions are barriers
                }
                let fwd = machine.forwarding_between(pd.cluster as usize, pi.cluster as usize);
                assert!(
                    pi.issue >= pd.finish + fwd as u64,
                    "{case}: inst {i} issued before operand from {d} was visible"
                );
            }
        }
    }

    #[test]
    fn idealized_schedules_are_legal() {
        for seed in 0..24 {
            let mut rng = StdRng::seed_from_u64(seed);
            let trace = super::build_trace(&super::inst_specs(&mut rng, 8..250));
            let layout = super::any_layout(&mut rng);
            check_schedule_legality(&format!("case seed {seed}"), &trace, layout);
        }
    }

    #[test]
    fn benchmark_schedules_are_legal() {
        use clustercrit::trace::Benchmark;
        for bench in [Benchmark::Vpr, Benchmark::Mcf] {
            let trace = bench.generate(1, 2_000);
            let case = format!("{bench:?} seed 1");
            check_schedule_legality(&case, &trace, ClusterLayout::C8x1w);
            check_schedule_legality(&case, &trace, ClusterLayout::C2x4w);
        }
    }
}
