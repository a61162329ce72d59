//! Regenerates every table and figure of the paper, in order: the
//! exhibits of `ccs_bench::figures::EXHIBITS`.
//!
//! `--only NAME` (repeatable) renders just the named exhibits, still in
//! registry order; an unknown name exits 2 and lists the valid ones.
//! `--csv` prints only the selected exhibits' CSV bodies, and exits 2
//! if one of them has no CSV form.
//!
//! In the text run each exhibit runs isolated: a panic inside one
//! figure is caught, annotated, and the remaining figures still render.
//! The process exits nonzero if any exhibit failed, so CI notices
//! partial output. A panic in a CSV run ends it, since a CSV stream
//! with a hole in it is no use.
use ccs_bench::figures::{Exhibit, EXHIBITS};
use ccs_bench::{cpi_stack_report, outln, print_stdout, HarnessOptions};
use ccs_core::{GridRequest, PolicyKind};
use ccs_isa::{ClusterLayout, MachineConfig};
use ccs_obs::StageTimers;
use ccs_trace::{Benchmark, TraceStore};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// The exhibits `--only NAME` selects (all of them without it), in
/// registry order, and whether `--csv` was given.
fn selection(
    mut args: impl Iterator<Item = String>,
) -> Result<(Vec<&'static Exhibit>, bool), String> {
    let (mut names, mut csv) = (Vec::new(), false);
    while let Some(arg) = args.next() {
        if arg == "--only" {
            names.push(args.next().unwrap_or_default());
        } else {
            csv |= arg == "--csv";
        }
    }
    let valid: Vec<&str> = EXHIBITS.iter().map(|e| e.name).collect();
    if let Some(bad) = names.iter().find(|n| !valid.contains(&n.as_str())) {
        let valid = valid.join(", ");
        return Err(format!("unknown exhibit `{bad}`; valid names: {valid}"));
    }
    let selected: Vec<&Exhibit> = EXHIBITS
        .iter()
        .filter(|e| names.is_empty() || names.iter().any(|n| n == e.name))
        .collect();
    match selected.iter().find(|e| csv && e.csv.is_none()) {
        Some(e) => Err(format!("--csv: exhibit `{}` has no CSV form", e.name)),
        None => Ok((selected, csv)),
    }
}

fn main() {
    let opts = HarnessOptions::from_env_and_args();
    let (selected, csv) = selection(std::env::args().skip(1)).unwrap_or_else(|msg| {
        eprintln!("all_figures: {msg}");
        std::process::exit(2);
    });
    if csv {
        for exhibit in selected {
            let render = exhibit.csv.expect("selection admits CSV exhibits only");
            print_stdout(format_args!("{}", render(&opts)));
        }
        return;
    }
    outln!(
        "clustercrit — full reproduction run ({opts:?}, {} grid workers)\n",
        opts.effective_threads()
    );
    let start = Instant::now();
    let cells_before = ccs_core::cells_run();
    let mut timers = StageTimers::new();
    let sep = "=".repeat(78);
    let mut failed: Vec<&'static str> = Vec::new();
    // Warm the shared trace cache up front so trace generation is
    // charged to its own stage instead of the first figure to miss.
    timers.time("trace-gen", || {
        for bench in Benchmark::ALL {
            for seed in opts.sample_seeds() {
                TraceStore::global().get(bench, seed, opts.len);
            }
        }
    });
    let figures_start = Instant::now();
    for exhibit in selected {
        match catch_unwind(AssertUnwindSafe(|| (exhibit.text)(&opts))) {
            Ok(text) => outln!("{sep}\n{text}"),
            Err(payload) => {
                let msg = payload
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string panic payload".to_string());
                outln!("{sep}\nFIGURE FAILED: {}: {msg}", exhibit.name);
                failed.push(exhibit.name);
            }
        }
    }
    timers.add("simulate+analysis", figures_start.elapsed());

    // With --metrics, run one metered reference grid (the Figure 4 core:
    // every benchmark on each clustered layout under focused steering)
    // and print the reconciled CPI stack it implies.
    if opts.metrics {
        let report = timers.time("metrics-grid", || {
            let specs = GridRequest::new(MachineConfig::micro05_baseline(), opts.len)
                .benchmarks(Benchmark::ALL)
                .layouts(ClusterLayout::CLUSTERED)
                .policies([PolicyKind::Focused])
                .options(opts.run_options())
                .build();
            let results =
                ccs_core::run_grid_resilient(&specs, opts.effective_threads(), &opts.resilience());
            cpi_stack_report(&results)
        });
        outln!("{sep}\n{report}");
        if report.contains("FAILED") {
            failed.push("metrics_cpi_stack");
        }
    }

    let elapsed = start.elapsed();
    let cells = ccs_core::cells_run() - cells_before;
    let store = TraceStore::global();
    outln!("{sep}");
    outln!(
        "total wall-clock: {:.2}s on {} threads — {} grid cells ({:.1} cells/sec), \
         trace cache: {} traces, {} hits / {} misses",
        elapsed.as_secs_f64(),
        opts.effective_threads(),
        cells,
        cells as f64 / elapsed.as_secs_f64().max(1e-9),
        store.len(),
        store.hits(),
        store.misses(),
    );
    outln!("stage timings:\n{timers}");
    if !failed.is_empty() {
        eprintln!("{} exhibit(s) failed: {}", failed.len(), failed.join(", "));
        std::process::exit(1);
    }
}
