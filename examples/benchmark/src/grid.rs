//! `grid_1m`: `run_grid` over {gcc, mcf, vpr} × the three clustered
//! layouts × {Focused, StallOverSteer} at one million instructions, one
//! thread. One round is one call over all 18 cells, the way the figure
//! exhibits and `GridRequest::run` call the executor: it holds every
//! cell's outcome, per-instruction records included, until it returns.

use crate::layers::evaluate_traced;
use crate::report::Report;
use crate::spans::Tracer;
use crate::{expected, median_setup, Ctx};
use ccs_core::grid::{evaluate_cell, run_cells};
use ccs_core::{CellSpec, GridRequest, PolicyKind, Resilience};
use ccs_isa::{ClusterLayout, MachineConfig};
use ccs_trace::{Benchmark, TraceStore};
use std::sync::Mutex;
use std::time::Instant;

pub const LEN: usize = 1_000_000;
const BENCHES: [Benchmark; 3] = [Benchmark::Gcc, Benchmark::Mcf, Benchmark::Vpr];
const POLICIES: [PolicyKind; 2] = [PolicyKind::Focused, PolicyKind::StallOverSteer];
const SETUP_REPS: usize = 5;

pub fn cells(seed: u64, len: usize) -> Vec<CellSpec> {
    GridRequest::new(MachineConfig::micro05_baseline(), len)
        .benchmarks(BENCHES)
        .layouts(ClusterLayout::CLUSTERED)
        .policies(POLICIES)
        .sample_seeds([seed])
        .build()
}

/// `bench/layout/policy`, the label `expected.json` uses for a cell.
pub fn label(spec: &CellSpec) -> String {
    format!(
        "{}/{}/{}",
        spec.benchmark.name(),
        spec.config.layout.name(),
        spec.policy.name()
    )
}

pub fn run(ctx: &Ctx) -> Result<Report, String> {
    measure(ctx, LEN)
}

/// The workload at trace length `len` (tests run it small).
pub fn measure(ctx: &Ctx, len: usize) -> Result<Report, String> {
    let specs = cells(ctx.seed, len);
    let store = TraceStore::global();
    // Set-up generates the three traces and their memory dependences,
    // the per-trace precompute every cell of the grid shares.
    let setup_s = median_setup(SETUP_REPS, || {
        store.clear();
        for bench in BENCHES {
            store.get(bench, ctx.seed, len).memory_deps();
        }
    });
    let instructions: usize = specs
        .iter()
        .map(|s| store.get(s.benchmark, s.sample_seed, len).len() * s.options.epochs as usize)
        .sum();

    let mut report = Report::new(ctx.trace);
    let (hits0, misses0) = (store.hits(), store.misses());
    let mut rounds: Vec<Vec<(u64, u64)>> = Vec::new();
    let mut round_s: Vec<f64> = Vec::new();
    let mut latencies_s: Vec<f64> = Vec::new();
    let start = Instant::now();
    while rounds.is_empty() || start.elapsed().as_secs_f64() + round_s[0] <= ctx.seconds {
        // `run_grid` is `run_cells` with this cell function and a no-op
        // observer; the observer here timestamps each finished cell. On
        // one thread cells finish in order, so a cell's latency is the
        // time since the previous one finished.
        let finished = Mutex::new(Vec::with_capacity(specs.len()));
        let round_start = Instant::now();
        let results = run_cells(
            &specs,
            1,
            &Resilience::default(),
            |_, spec, cancel| evaluate_cell(spec, cancel),
            |index, _| {
                let at = Instant::now();
                finished.lock().expect("observer lock").push((index, at));
            },
        );
        round_s.push(round_start.elapsed().as_secs_f64());
        let mut cell_s = vec![f64::INFINITY; specs.len()];
        let mut previous = round_start;
        for (index, at) in finished.into_inner().expect("observer lock") {
            cell_s[index] = (at - previous).as_secs_f64();
            previous = at;
        }
        let mut outcomes = Vec::with_capacity(specs.len());
        for (result, latency) in results.iter().zip(&mut cell_s) {
            report.attempted += 1;
            match result.status.outcome() {
                Some(o) => outcomes.push((o.result.cycles, o.cpi().to_bits())),
                None => {
                    report.failed += 1;
                    *latency = f64::INFINITY;
                    outcomes.push((0, 0));
                }
            }
        }
        latencies_s.extend(cell_s);
        rounds.push(outcomes);
    }
    let (hits, misses) = (store.hits() - hits0, store.misses() - misses0);
    let peak_rss_mb = crate::report::peak_rss_mb("/proc/self/status")?;
    let total_s: f64 = round_s.iter().sum();
    report.note(format!(
        "grid_1m: len {len}, seed {}, {} cells x {} rounds, {:.3} Minst/s (both epochs), peak RSS {peak_rss_mb:.0} MB",
        ctx.seed,
        specs.len(),
        rounds.len(),
        (instructions * rounds.len()) as f64 / total_s / 1e6
    ));

    if report.failed > 0 {
        report.fail(format!("{} cells failed", report.failed));
    }
    if rounds.iter().any(|r| *r != rounds[0]) {
        report.fail("cell results differ between rounds");
    }
    let got: expected::GridCells = specs
        .iter()
        .zip(&rounds[0])
        .map(|(s, (cycles, cpi_bits))| (label(s), *cycles, *cpi_bits))
        .collect();
    match expected::grid_cells(ctx.seed, len)? {
        Some(want) if want == got => report.note("cell cycles and CPI bits match expected.json"),
        Some(_) => report.fail(format!("cells differ from expected.json: got {got:?}")),
        None => report.note(format!("cells (cell, cycles, cpi_bits): {got:?}")),
    }

    if ctx.trace {
        // Re-run the first round layer by layer, keeping every outcome
        // until the round ends as the executor does; the layers' self
        // times are shares of that round's untraced wall time.
        let mut tracer = Tracer::new(true);
        let mut kept = Vec::with_capacity(specs.len());
        for (i, spec) in specs.iter().enumerate() {
            tracer.set_request(i as u64);
            let outcome = tracer.span("core.cell", |t| evaluate_traced(t, store, spec))?;
            if (outcome.result.cycles, outcome.cpi().to_bits()) != rounds[0][i] {
                report.fail(format!("traced {} differs from run_grid", label(spec)));
            }
            kept.push(outcome);
        }
        drop(kept);
        report.set_layer_shares(&tracer, round_s[0] * 1e9);
        let residual = report.value("residual_pct").expect("set with the shares");
        if residual.abs() > 5.0 {
            report.note(format!(
                "layer self times are {residual:.1}% off the untraced wall time: the \
                 executor's own cost, or the host's speed changed between the round and the replay"
            ));
        }
        report.set(
            "trace.store_hit_pct",
            100.0 * hits as f64 / (hits + misses).max(1) as f64,
        );
        report.set("core.grid_cells", latencies_s.len() as f64);
        crate::write_spans(ctx, &tracer, &mut report);
    } else {
        report.set("setup_s", setup_s);
        report.set("ops_per_s", latencies_s.len() as f64 / total_s);
        report.set_latencies(&latencies_s);
        report.set("peak_rss_mb", peak_rss_mb);
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_grid_smoke_runs_and_traces_consistently() {
        let started = Instant::now();
        for trace in [false, true] {
            let ctx = Ctx::for_test("grid_1m", 3, trace);
            let report = measure(&ctx, 1_000).expect("grid runs");
            assert!(report.correct, "{:?}", report.notes());
            assert_eq!(report.attempted, 18);
            assert_eq!(report.failed, 0);
            report.render().expect("every metric measured");
        }
        assert!(
            started.elapsed().as_secs() < 10,
            "smoke run took {:?}",
            started.elapsed()
        );
    }
}
