//! The `ccs-client` CLI.
//!
//! ```text
//! ccs-client [--server HOST:PORT] grid [--bench NAME]... [--len N]
//!            [--samples N] [--seed N] [--epochs N] [--retries N]
//! ccs-client [--server HOST:PORT] status
//! ccs-client [--server HOST:PORT] metrics
//! ccs-client [--server HOST:PORT] drain
//! ```
//!
//! The server address defaults to `$CCS_SERVER`, then
//! `127.0.0.1:7405`. `grid` submits the same benchmark × clustered
//! layout × policy-ladder grid the batch `grid_campaign` binary runs,
//! streams per-cell results as they finish, and exits with the same
//! codes: `0` all ok, `1` any failure/timeout, `2` incomplete.

use ccs_client::{Client, RetryPolicy};
use ccs_core::PolicyKind;
use ccs_isa::ClusterLayout;
use ccs_serve::WireCellSpec;
use ccs_trace::Benchmark;

const DEFAULT_SERVER: &str = "127.0.0.1:7405";

fn usage() -> ! {
    eprintln!(
        "usage: ccs-client [--server HOST:PORT] <grid|status|metrics|drain> [grid flags]\n\
         \x20 grid flags: [--bench NAME]... [--len N] [--samples N] [--seed N] [--epochs N] [--retries N]"
    );
    std::process::exit(2)
}

struct GridFlags {
    benches: Vec<Benchmark>,
    len: usize,
    samples: u64,
    seed: u64,
    epochs: u32,
    retries: u32,
}

impl Default for GridFlags {
    fn default() -> Self {
        GridFlags {
            benches: Benchmark::ALL.to_vec(),
            len: 20_000,
            samples: 1,
            seed: 1,
            epochs: 2,
            retries: 5,
        }
    }
}

/// The same grid the batch `grid_campaign` binary builds: every
/// benchmark × clustered layout × policy ladder, with the proactive bar
/// only on the 8-cluster machine (paper Figure 14).
fn build_grid(flags: &GridFlags) -> Vec<WireCellSpec> {
    let mut cells = Vec::new();
    for &bench in &flags.benches {
        for layout in ClusterLayout::CLUSTERED {
            for policy in PolicyKind::LADDER {
                if policy == PolicyKind::Proactive && layout != ClusterLayout::C8x1w {
                    continue;
                }
                for k in 0..flags.samples.max(1) {
                    let seed = flags.seed + 1_000 * k;
                    cells.push(
                        WireCellSpec::new(bench, seed, flags.len, layout, policy)
                            .with_epochs(flags.epochs),
                    );
                }
            }
        }
    }
    cells
}

fn parse_bench(name: &str) -> Result<Benchmark, String> {
    Benchmark::ALL
        .into_iter()
        .find(|b| b.name() == name)
        .ok_or_else(|| format!("unknown benchmark {name:?}"))
}

/// A number at the type of the flag's field: garbage and values out of
/// the field's range are both refused.
fn parse_num<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("{flag}: not a number in range: {value:?}"))
}

/// A parsed command line: the server address, the command and its grid
/// flags.
struct Cli {
    server: String,
    command: String,
    flags: GridFlags,
}

/// Parses the arguments after the program name; `server` is the
/// address used when `--server` is absent. `Err` carries the message
/// to print above the usage text (empty for `--help`).
fn parse_args(args: impl IntoIterator<Item = String>, mut server: String) -> Result<Cli, String> {
    let mut command: Option<String> = None;
    let mut flags = GridFlags::default();
    let mut benches_given = false;

    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        let mut value = |what: &str| -> Result<String, String> {
            args.next().ok_or_else(|| format!("{arg} needs a {what}"))
        };
        match arg.as_str() {
            "--server" => server = value("HOST:PORT")?,
            "--bench" => {
                if !benches_given {
                    flags.benches.clear();
                    benches_given = true;
                }
                let bench = parse_bench(&value("NAME")?)?;
                flags.benches.push(bench);
            }
            "--len" => flags.len = parse_num(&arg, &value("count")?)?,
            "--samples" => flags.samples = parse_num(&arg, &value("count")?)?,
            "--seed" => flags.seed = parse_num(&arg, &value("seed")?)?,
            "--epochs" => flags.epochs = parse_num(&arg, &value("count")?)?,
            "--retries" => flags.retries = parse_num(&arg, &value("count")?)?,
            "--help" | "-h" => return Err(String::new()),
            "grid" | "status" | "metrics" | "drain" if command.is_none() => {
                command = Some(arg.clone())
            }
            other => return Err(format!("unexpected argument {other:?}")),
        }
    }
    let command = command.ok_or_else(String::new)?;
    Ok(Cli {
        server,
        command,
        flags,
    })
}

fn main() {
    let default_server = std::env::var("CCS_SERVER").unwrap_or_else(|_| DEFAULT_SERVER.to_string());
    let Cli {
        server,
        command,
        flags,
    } = parse_args(std::env::args().skip(1), default_server).unwrap_or_else(|message| {
        if !message.is_empty() {
            eprintln!("{message}");
        }
        usage()
    });

    let mut client = match Client::connect(&server) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("ccs-client: {e}");
            std::process::exit(2);
        }
    };

    let code = match command.as_str() {
        "grid" => run_grid(&mut client, &flags),
        "status" => run_status(&mut client),
        "metrics" => run_metrics(&mut client),
        "drain" => run_drain(&mut client),
        _ => usage(),
    };
    std::process::exit(code);
}

fn run_grid(client: &mut Client, flags: &GridFlags) -> i32 {
    let cells = build_grid(flags);
    println!("submitting {} cells", cells.len());
    let policy = RetryPolicy {
        max_attempts: flags.retries,
        ..RetryPolicy::default()
    };
    let outcome = client.submit_grid_with_policy(&cells, &policy, |record| {
        let detail = if record.is_ok() {
            format!("CPI {:.4}{}", record.cpi(), if record.cached { " (cached)" } else { "" })
        } else {
            record.error.clone().unwrap_or_default()
        };
        println!("cell {:>4}  {:7}  {}  {detail}", record.index, record.status, record.key);
    });
    match outcome {
        Ok(outcome) => {
            println!(
                "grid done: {} ok, {} failed, {} timed out, {} cached",
                outcome.ok, outcome.failed, outcome.timed_out, outcome.cached
            );
            outcome.exit_code()
        }
        Err(e) => {
            eprintln!("ccs-client: {e}");
            2
        }
    }
}

fn run_status(client: &mut Client) -> i32 {
    match client.status() {
        Ok(s) => {
            println!(
                "protocol v{} draining={} queue {}/{} workers {}\n\
                 cache {}/{} (hits {} misses {})\n\
                 admitted {} evaluated {} busy-rejects {} protocol-errors {}\n\
                 approx-answered {} recovered {} peer-hits {}",
                s.protocol,
                s.draining,
                s.queue_depth,
                s.queue_capacity,
                s.workers,
                s.cache_len,
                s.cache_capacity,
                s.cache_hits,
                s.cache_misses,
                s.cells_admitted,
                s.cells_evaluated,
                s.admission_rejects,
                s.protocol_errors,
                s.approx_answered,
                s.recovered,
                s.peer_hits,
            );
            0
        }
        Err(e) => {
            eprintln!("ccs-client: {e}");
            2
        }
    }
}

fn run_metrics(client: &mut Client) -> i32 {
    match client.metrics_json() {
        Ok(json) => {
            println!("{json}");
            0
        }
        Err(e) => {
            eprintln!("ccs-client: {e}");
            2
        }
    }
}

fn run_drain(client: &mut Client) -> i32 {
    match client.drain() {
        Ok(pending) => {
            println!("draining ({pending} cells pending)");
            0
        }
        Err(e) => {
            eprintln!("ccs-client: {e}");
            2
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Cli, String> {
        parse_args(
            args.iter().map(|a| a.to_string()),
            DEFAULT_SERVER.to_string(),
        )
    }

    #[test]
    fn grid_flags_parse_at_their_field_type() {
        let cli = parse(&[
            "--server", "h:1", "grid", "--bench", "gzip", "--len", "1000",
        ])
        .expect("valid command line");
        assert_eq!((cli.server.as_str(), cli.command.as_str()), ("h:1", "grid"));
        assert_eq!(cli.flags.benches, vec![Benchmark::Gzip]);
        assert_eq!(cli.flags.len, 1_000);
        let cli = parse(&["grid", "--epochs", "4294967295", "--retries", "7"]).unwrap();
        assert_eq!((cli.flags.epochs, cli.flags.retries), (u32::MAX, 7));
    }

    #[test]
    fn out_of_range_numbers_are_refused_not_wrapped() {
        for (flag, value) in [
            ("--epochs", "4294967297"),
            ("--retries", "4294967296"),
            ("--len", "18446744073709551616"),
            ("--samples", "-1"),
            ("--seed", "12x"),
        ] {
            let err = parse(&["grid", flag, value]).err();
            assert!(
                err.as_deref().is_some_and(|e| e.contains(flag)),
                "{flag} {value} must be refused, got {err:?}"
            );
        }
    }

    #[test]
    fn malformed_command_lines_are_refused() {
        assert!(parse(&[]).is_err(), "a command is required");
        assert!(parse(&["grid", "--bench", "nope"]).is_err());
        assert!(parse(&["grid", "--len"]).is_err(), "a flag needs its value");
        assert!(parse(&["status", "extra"]).is_err());
    }
}
