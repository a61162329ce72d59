//! `figures`: every `all_figures` exhibit, in its order, at a fixed trace
//! length on two grid threads — the paper-reproduction run users do.
//! One operation is one full pass over the 22 exhibits.

use crate::report::Report;
use crate::spans::Tracer;
use crate::stats::median;
use crate::{expected, timed, Ctx};
use ccs_bench::{figures, HarnessOptions};
use ccs_scenario::gallery::GALLERY;
use ccs_trace::{fnv1a, Benchmark, SourceRegistry, TraceStore};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Trace length of the figure run: short enough for several passes per
/// run, so the pass time is a median rather than one sample.
pub const LEN: usize = 5_000;
const THREADS: usize = 2;
/// Set-up takes milliseconds here, and its speed drifts with the host's
/// state over a fraction of a second, so its median needs many samples
/// spread over the run: these before the first pass, then one after
/// every pass of an untraced run.
const SETUP_REPS: usize = 5;

type Render = fn(&HarnessOptions) -> String;

/// The exhibits of `all_figures`, in order, under their span names.
pub const EXHIBITS: [(&str, Render); 22] = [
    ("figures.tab1", |_| figures::tab1().to_string()),
    ("figures.fig2", |o| figures::fig2(o).to_string()),
    ("figures.fig2_latency_sweep", |o| {
        figures::fig2_latency_sweep(o).to_string()
    }),
    ("figures.fig3", |o| figures::fig3(o).to_string()),
    ("figures.fig4", |o| figures::fig4(o).to_string()),
    ("figures.fig5", |o| figures::fig5(o).to_string()),
    ("figures.fig6", |o| figures::fig6(o).to_string()),
    ("figures.fig8", |o| figures::fig8(o).to_string()),
    ("figures.fig14", |o| figures::fig14(o).to_string()),
    ("figures.adaptive_policy", |o| {
        figures::adaptive_exhibit(o).to_string()
    }),
    ("figures.fig15", |o| figures::fig15(o).to_string()),
    ("figures.sec2_global_comm", |o| {
        figures::sec2_global_comm(o).to_string()
    }),
    ("figures.sec4_listsched", |o| {
        figures::sec4_listsched(o).to_string()
    }),
    ("figures.sec6_consumers", |o| {
        figures::sec6_consumers(o).to_string()
    }),
    ("figures.slack_distribution", |o| {
        figures::slack_distribution(o).to_string()
    }),
    ("figures.finite_l2_check", |o| {
        figures::finite_l2_check(o).to_string()
    }),
    ("figures.ablate_stall_threshold", |o| {
        figures::ablate_stall_threshold(o).to_string()
    }),
    ("figures.ablate_loc_levels", |o| {
        figures::ablate_loc_levels(o).to_string()
    }),
    ("figures.ablate_interconnect", |o| {
        figures::ablate_interconnect(o).to_string()
    }),
    ("figures.ablate_proactive", |o| {
        figures::ablate_proactive(o).to_string()
    }),
    ("figures.ablate_window", |o| {
        figures::ablate_window(o).to_string()
    }),
    ("figures.scenario_gallery", |o| {
        figures::scenario_exhibit(o).to_string()
    }),
];

pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let opts = HarnessOptions {
        len: LEN,
        seed: ctx.seed,
        threads: THREADS,
        ..HarnessOptions::smoke()
    };
    let store = TraceStore::global();
    let scenarios = GALLERY
        .iter()
        .map(|entry| ccs_scenario::register_manifest(entry.text).map(|(_, id)| id))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("scenario gallery: {e}"))?;
    // Set-up generates every trace the passes use, with its memory
    // dependences: the harness trace of every benchmark, and the trace
    // of every gallery scenario the scenario exhibit sweeps.
    let setup = || {
        store.clear();
        for bench in Benchmark::ALL {
            store.get(bench, ctx.seed, LEN).memory_deps();
        }
        for id in &scenarios {
            SourceRegistry::global()
                .trace_in(store, *id, ctx.seed, LEN)
                .memory_deps();
        }
    };
    let mut setup_s: Vec<f64> = (0..SETUP_REPS).map(|_| timed(setup)).collect();

    let mut report = Report::new(ctx.trace);
    let mut tracer = Tracer::new(ctx.trace);
    let (hits0, misses0, cells0) = (store.hits(), store.misses(), ccs_core::cells_run());
    let mut passes_s: Vec<f64> = Vec::new();
    let mut hashes: Vec<u64> = Vec::new();
    let start = Instant::now();
    while passes_s.is_empty()
        || start.elapsed().as_secs_f64() + passes_s[passes_s.len() - 1] <= ctx.seconds
    {
        tracer.set_request(passes_s.len() as u64);
        let pass = Instant::now();
        let mut text = String::new();
        for (span, render) in EXHIBITS {
            report.attempted += 1;
            let rendered = tracer.span(span, |_| catch_unwind(AssertUnwindSafe(|| render(&opts))));
            match rendered {
                Ok(exhibit) => text.push_str(&exhibit),
                Err(_) => {
                    report.failed += 1;
                    text.push_str("FAILED ");
                    text.push_str(span);
                }
            }
            text.push('\n');
        }
        passes_s.push(pass.elapsed().as_secs_f64());
        hashes.push(fnv1a(text.as_bytes()));
        if !ctx.trace {
            setup_s.push(timed(setup));
        }
    }
    let cells = ccs_core::cells_run() - cells0;

    report.note(format!(
        "figures: len {LEN}, seed {}, {THREADS} threads, {} passes, {} grid cells, exhibit text fnv1a {:#018x}",
        ctx.seed,
        passes_s.len(),
        cells,
        hashes[0]
    ));
    if report.failed > 0 {
        report.fail(format!("{} exhibits panicked", report.failed));
    }
    if hashes.iter().any(|h| *h != hashes[0]) {
        report.fail("exhibit text differs between passes");
    }
    match expected::figures_fnv1a(ctx.seed, LEN)? {
        Some(want) if want != hashes[0] => report.fail(format!(
            "exhibit text fnv1a {:#018x}, expected {want:#018x}",
            hashes[0]
        )),
        Some(_) => report.note("exhibit text matches expected.json"),
        None => {}
    }

    if ctx.trace {
        let total_ns = passes_s.iter().sum::<f64>() * 1e9;
        report.set_layer_shares(&tracer, total_ns);
        let (hits, misses) = (store.hits() - hits0, store.misses() - misses0);
        report.set(
            "trace.store_hit_pct",
            100.0 * hits as f64 / (hits + misses).max(1) as f64,
        );
        report.set("core.grid_cells", cells as f64);
        crate::write_spans(ctx, &tracer, &mut report);
    } else {
        report.set("setup_s", median(&setup_s));
        report.set(
            "ops_per_s",
            passes_s.len() as f64 / passes_s.iter().sum::<f64>(),
        );
        report.set_latencies(&passes_s);
        report.set(
            "peak_rss_mb",
            crate::report::peak_rss_mb("/proc/self/status")?,
        );
    }
    Ok(report)
}
