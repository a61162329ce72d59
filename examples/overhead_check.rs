//! Quick manual check of metrics-on vs metrics-off grid throughput.
//!
//! Takes the minimum wall-clock of several alternating runs per mode —
//! robust against scheduler noise — and prints the overhead. Claims
//! about speed go through the benchmark instead (`bash
//! examples/benchmark/run.sh`, judged with `benchmark compare`); this
//! is the fast sanity-check version.

use clustercrit::core::{run_grid_resilient, GridRequest, PolicyKind, Resilience, RunOptions};
use clustercrit::isa::{ClusterLayout, MachineConfig};
use clustercrit::trace::Benchmark;
use std::time::{Duration, Instant};

fn main() {
    let build = |metrics: bool| {
        GridRequest::new(MachineConfig::micro05_baseline(), 40_000)
            .benchmarks([Benchmark::Vpr, Benchmark::Gzip, Benchmark::Mcf, Benchmark::Twolf])
            .layouts(ClusterLayout::CLUSTERED)
            .policies([PolicyKind::Focused, PolicyKind::StallOverSteer])
            .options(RunOptions::default().with_epochs(1).with_metrics(metrics))
            .build()
    };
    // Warm the trace cache so the timings measure simulation only.
    run_grid_resilient(&build(false), 1, &Resilience::default());
    let mut best = [Duration::MAX; 2];
    for rep in 0..8 {
        for (i, metrics) in [false, true].into_iter().enumerate() {
            let t = Instant::now();
            run_grid_resilient(&build(metrics), 1, &Resilience::default());
            let dt = t.elapsed();
            best[i] = best[i].min(dt);
            println!("rep {rep} metrics={metrics:<5} {dt:>8.1?}");
        }
    }
    println!(
        "best off {:?}  best on {:?}  overhead {:+.2}%",
        best[0],
        best[1],
        (best[1].as_secs_f64() / best[0].as_secs_f64() - 1.0) * 100.0
    );
}
