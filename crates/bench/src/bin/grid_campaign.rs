//! Runs the full benchmark × layout × policy grid as a *checkpointed
//! campaign*: every finished cell is streamed to an append-only JSONL
//! manifest, failed or hung cells are isolated and annotated instead of
//! taking the run down, and `--resume` (or `CCS_RESUME=1`) picks an
//! interrupted campaign back up without re-running finished cells.
//!
//! Exit code: `0` when every cell completed, `1` when any cell failed
//! or timed out, `2` when the campaign is still incomplete.
//!
//! `--predict-order` (or `CCS_PREDICT_ORDER=1`) orders the pending
//! cells best-first by their `ccs-predict` analytic cycle bound —
//! longest predicted cells start first, which tightens the parallel
//! tail and makes a truncated/killed campaign finish the expensive
//! cells earliest — and records each cell's predicted envelope in its
//! manifest record. Ordering is metadata-only: every simulated bit is
//! identical with it on or off.
//!
//! With `--servers A,B,C` (or `CCS_SERVERS`) the grid is submitted to
//! running `ccs-serve` daemons instead of being evaluated in-process,
//! *sharded*: each cell routes to the daemon owning its key on a
//! consistent-hash ring, and cells a shard fails to answer ride the
//! ring to the next successor. `--server HOST:PORT` (or `CCS_SERVER`)
//! is the same path over a one-shard ring. Results are bit-identical
//! wherever a cell lands, and the exit codes are unchanged; a daemon
//! that never answers leaves the campaign incomplete (`2`).
//! Checkpointing and `--resume` are the daemons' business in this mode
//! (they cache and journal server-side). `CCS_MANIFEST` (when set)
//! receives one checkpoint-record JSON line per answered cell, sorted
//! by key, so scripts can diff a remote campaign's digests against a
//! local run.
//!
//! With `--scenario FILE` (or `CCS_SCENARIO`) the campaign runs one
//! `ccs-scenario` manifest instead of the twelve benchmarks: the file
//! is parsed, validated, and registered content-addressed, and the same
//! layout × policy × seed sweep runs over the scenario workload. Works
//! in-process and against `--server`/`--servers` (the manifest travels
//! in the wire cells, so remote daemons re-register the identical
//! source).

use ccs_bench::{
    cpi_stack_report, outln, scenario_target, servers_target, HarnessOptions, TextTable,
};
use ccs_client::ClusterClient;
use ccs_core::checkpoint::{run_campaign, CampaignOptions, CheckpointRecord};
use ccs_core::{fetch_cell_trace, CellSpec, PolicyKind, ShardMap};
use ccs_isa::{ClusterLayout, MachineConfig};
use ccs_obs::StageTimers;
use ccs_serve::WireCellSpec;
use ccs_trace::{Benchmark, TraceStore};

/// The workload column of the campaign tables: the scenario's
/// registered name for scenario cells, the benchmark for the rest.
fn workload_col(spec: &CellSpec) -> String {
    if spec.scenario.is_some() {
        spec.workload_label()
    } else {
        format!("{:?}", spec.benchmark)
    }
}

/// Shards the specs across a daemon cluster with ring failover and
/// renders the same table. Exit codes mirror the local campaign.
fn run_against_cluster(servers: &[String], specs: &[CellSpec], manifest: Option<&str>) -> i32 {
    let mut cells = Vec::with_capacity(specs.len());
    for spec in specs {
        match WireCellSpec::from_cell(spec) {
            Ok(cell) => cells.push(cell),
            Err(e) => {
                eprintln!("cell not wire-addressable: {e}");
                return 3;
            }
        }
    }
    let map = match ShardMap::new(servers) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("grid_campaign: {e}");
            return 3;
        }
    };
    outln!(
        "grid campaign: {} cells via {} shards (ring v{:016x})",
        cells.len(),
        map.len(),
        map.version()
    );
    let cluster = ClusterClient::new(map);
    let outcome = match cluster.submit_grid(&cells, |_| {}) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("grid_campaign: {e}");
            return 3;
        }
    };
    let mut table = TextTable::new(
        ["bench", "layout", "policy", "seed", "status", "shard", "CPI / error"]
            .map(String::from)
            .to_vec(),
    );
    for (i, (spec, record)) in specs.iter().zip(&outcome.records).enumerate() {
        let shard = outcome.served_by[i].clone().unwrap_or_else(|| "-".into());
        let (status, detail) = match record {
            Some(r) => (
                r.status.clone(),
                if r.is_ok() {
                    format!("{:.4}{}", r.cpi(), if r.cached { " (cached)" } else { "" })
                } else {
                    r.error.clone().unwrap_or_default()
                },
            ),
            None => ("UNFINISHED".to_string(), String::new()),
        };
        table.row(vec![
            workload_col(spec),
            format!("{:?}", spec.config.layout),
            format!("{:?}", spec.policy),
            spec.sample_seed.to_string(),
            status,
            shard,
            detail,
        ]);
    }
    outln!("{table}");
    if let Some(path) = manifest {
        let mut lines: Vec<String> = outcome
            .records
            .iter()
            .flatten()
            .map(|r| r.to_checkpoint().to_json_line())
            .collect();
        lines.sort_unstable();
        if let Some(dir) = std::path::Path::new(path).parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        if let Err(e) = std::fs::write(path, lines.join("\n") + "\n") {
            eprintln!("grid_campaign: manifest {path}: {e}");
            return 3;
        }
        outln!("wrote {} records to {path}", lines.len());
    }
    outln!(
        "cluster grid done: {} ok, {} failed, {} timed out, {} cached; \
         {} failovers across {} waves",
        outcome.ok, outcome.failed, outcome.timed_out, outcome.cached,
        outcome.failovers, outcome.waves
    );
    outcome.exit_code()
}

fn main() {
    let opts = HarnessOptions::from_env_and_args();
    let manifest = std::env::var("CCS_MANIFEST")
        .unwrap_or_else(|_| "results/checkpoints/grid_campaign.jsonl".to_string());

    let mut timers = StageTimers::new();
    let base = MachineConfig::micro05_baseline();
    let run_opts = opts.run_options();
    let seeds = opts.sample_seeds();

    // With --scenario FILE (or CCS_SCENARIO), the campaign sweeps the
    // same layout × policy × seed axes over one registered scenario
    // workload instead of the twelve benchmarks.
    let scenario = scenario_target().map(|path| {
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("grid_campaign: scenario {path}: {e}");
                std::process::exit(3);
            }
        };
        match ccs_scenario::register_manifest(&text) {
            Ok((scenario, id)) => {
                outln!("scenario workload: {} ({id})", scenario.name);
                id
            }
            Err(e) => {
                eprintln!("grid_campaign: scenario {path}: {e}");
                std::process::exit(3);
            }
        }
    });

    let mut specs = Vec::new();
    if let Some(id) = scenario {
        for layout in ClusterLayout::CLUSTERED {
            for policy in PolicyKind::LADDER {
                if policy == PolicyKind::Proactive && layout != ClusterLayout::C8x1w {
                    continue;
                }
                for &seed in &seeds {
                    specs.push(CellSpec::for_scenario(
                        base.with_layout(layout),
                        id,
                        seed,
                        opts.len,
                        policy,
                        run_opts,
                    ));
                }
            }
        }
    } else {
        for bench in Benchmark::ALL {
            for layout in ClusterLayout::CLUSTERED {
                for policy in PolicyKind::LADDER {
                    // Like the paper's Figure 14, the proactive bar exists
                    // only on the 8-cluster machine.
                    if policy == PolicyKind::Proactive && layout != ClusterLayout::C8x1w {
                        continue;
                    }
                    for &seed in &seeds {
                        specs.push(CellSpec::new(
                            base.with_layout(layout),
                            bench,
                            seed,
                            opts.len,
                            policy,
                            run_opts,
                        ));
                    }
                }
            }
        }
    }

    if let Some(servers) = servers_target() {
        let manifest = std::env::var("CCS_MANIFEST").ok();
        std::process::exit(run_against_cluster(&servers, &specs, manifest.as_deref()));
    }

    outln!(
        "grid campaign: {} cells, manifest {manifest}{}{}",
        specs.len(),
        if opts.resume { " (resuming)" } else { "" },
        if opts.predict_order {
            " (predict-ordered)"
        } else {
            ""
        }
    );
    // Warm the shared trace cache so trace generation is charged to its
    // own stage rather than the first cells to touch each workload.
    timers.time("trace-gen", || {
        let mut warmed = std::collections::HashSet::new();
        for spec in &specs {
            if warmed.insert((spec.scenario, spec.benchmark, spec.sample_seed, spec.len)) {
                fetch_cell_trace(TraceStore::global(), spec);
            }
        }
    });
    let campaign = CampaignOptions::new(&manifest)
        .with_resume(opts.resume)
        .with_predict_order(opts.predict_order);
    let threads = opts.threads_for(specs.len());
    let report = timers.time("simulate", || {
        run_campaign(&specs, threads, &opts.resilience(), &campaign)
    });
    let report = match report {
        Ok(report) => report,
        Err(e) => {
            eprintln!("campaign aborted: {e}");
            std::process::exit(3);
        }
    };

    let mut table = TextTable::new(
        ["bench", "layout", "policy", "seed", "status", "att", "CPI / error"]
            .map(String::from)
            .to_vec(),
    );
    for (spec, record) in specs.iter().zip(&report.records) {
        let (status, attempts, detail) = match record {
            Some(r) => (r.status.clone(), r.attempts.to_string(), describe(r)),
            None => ("UNFINISHED".to_string(), "-".to_string(), String::new()),
        };
        table.row(vec![
            workload_col(spec),
            format!("{:?}", spec.config.layout),
            format!("{:?}", spec.policy),
            spec.sample_seed.to_string(),
            status,
            attempts,
            detail,
        ]);
    }
    outln!("{table}");

    // With --metrics, aggregate the in-process cells' counters into a
    // reconciled CPI stack. Cells skipped on resume contribute no
    // metrics (the manifest records only their digest), so the stack
    // covers the cells this invocation ran.
    if opts.metrics {
        let ran: Vec<_> = report.results.iter().flatten().cloned().collect();
        let stack_report = timers.time("analysis", || cpi_stack_report(&ran));
        outln!("{stack_report}");
    }

    outln!("{}", report.summary());
    outln!("stage timings:\n{timers}");
    std::process::exit(report.exit_code());
}

/// The CPI for completed cells, the (truncated) error for failed ones.
fn describe(record: &CheckpointRecord) -> String {
    if record.is_ok() {
        format!("{:.4}", f64::from_bits(record.cpi_bits))
    } else {
        let err = record.error.as_deref().unwrap_or("unknown error");
        let mut short: String = err.chars().take(60).collect();
        if short.len() < err.len() {
            short.push('…');
        }
        short
    }
}
