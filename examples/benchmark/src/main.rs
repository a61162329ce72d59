//! The clustercrit benchmark: one process per workload run, printing
//! every metric by name and unit and checking the outputs.
//!
//! ```text
//! benchmark --workload W --seed N [--seconds S] [--trace 0|1]
//! benchmark repeat --runs N [--seconds S] [--seed N] [--out FILE]
//! benchmark compare PARENT.jsonl CHANGE.jsonl
//! ```
//!
//! A workload run prints notes, then one JSON result line: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1` (spans go to `<target>/benchmark/<workload>.spans.json`).
//! See README.md.

mod compare;
mod expected;
mod figures;
mod grid;
mod json;
mod layers;
mod report;
mod serve;
mod spans;
mod stats;

use report::Report;
use spans::Tracer;
use std::path::PathBuf;
use std::time::Instant;

/// The benchmark definition: workloads, metrics, bounds, run length.
pub const BENCHMARK_JSON: &str = include_str!("../../../BENCHMARK.json");

type Workload = fn(&Ctx) -> Result<Report, String>;

const WORKLOADS: [(&str, Workload); 5] = [
    ("figures", figures::run),
    ("grid_1m", grid::run),
    ("serve_miss", serve::run_miss),
    ("serve_hot", serve::run_hot),
    ("serve_connect", serve::run_connect),
];

/// One workload run's parameters.
pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Where spans files and daemon journals go: `<target>/benchmark`.
    pub out_dir: PathBuf,
}

impl Ctx {
    #[cfg(test)]
    pub fn for_test(workload: &str, seed: u64, trace: bool) -> Ctx {
        Ctx {
            workload: workload.to_string(),
            seed,
            seconds: 0.0,
            trace,
            out_dir: out_dir(),
        }
    }
}

fn out_dir() -> PathBuf {
    let exe = std::env::current_exe().unwrap_or_default();
    let profile_dir = exe.parent().and_then(|p| p.parent()).unwrap_or(&exe);
    profile_dir.join("benchmark")
}

/// Wall time of one call of `f`, in s.
pub fn timed(f: impl FnOnce()) -> f64 {
    let start = Instant::now();
    f();
    start.elapsed().as_secs_f64()
}

/// Runs `setup` `reps` times and returns the median wall time in s.
pub fn median_setup(reps: usize, mut setup: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..reps).map(|_| timed(&mut setup)).collect();
    stats::median(&times)
}

pub fn write_spans(ctx: &Ctx, tracer: &Tracer, report: &mut Report) {
    let path = ctx.out_dir.join(format!("{}.spans.json", ctx.workload));
    match tracer.write(&path, &ctx.workload) {
        Ok(()) => report.note(format!("spans written to {}", path.display())),
        Err(e) => report.note(format!("could not write spans to {}: {e}", path.display())),
    }
}

fn default_seconds() -> f64 {
    json::f64_field(&json::compact(BENCHMARK_JSON), "run_seconds").unwrap_or(10.0)
}

fn usage() -> ! {
    eprintln!(
        "usage: benchmark --workload {} --seed N [--seconds S] [--trace 0|1]\n\
         \x20      benchmark repeat --runs N [--seconds S] [--seed N] [--out FILE]\n\
         \x20      benchmark compare PARENT.jsonl CHANGE.jsonl",
        WORKLOADS.map(|(name, _)| name).join("|")
    );
    std::process::exit(2)
}

/// `--flag value` pairs; a bare `--trace` means `--trace 1`.
fn flags(args: &[String]) -> Vec<(String, String)> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].clone();
        if !flag.starts_with("--") {
            eprintln!("unexpected argument {flag:?}");
            usage();
        }
        match args.get(i + 1).filter(|v| !v.starts_with("--")) {
            Some(value) => {
                out.push((flag, value.clone()));
                i += 2;
            }
            None if flag == "--trace" => {
                out.push((flag, "1".into()));
                i += 1;
            }
            None => {
                eprintln!("{flag} needs a value");
                usage();
            }
        }
    }
    out
}

fn parse<T: std::str::FromStr>(flag: &str, value: &str) -> T {
    value.parse().unwrap_or_else(|_| {
        eprintln!("{flag}: cannot parse {value:?}");
        usage()
    })
}

fn run_workload(args: &[String]) -> i32 {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, default_seconds(), false);
    for (flag, value) in flags(args) {
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(parse::<u64>(&flag, &value)),
            "--seconds" => seconds = parse::<f64>(&flag, &value),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            _ => usage(),
        }
    }
    let (Some(workload), Some(seed)) = (workload, seed) else {
        usage()
    };
    if !(seconds.is_finite() && seconds > 0.0) {
        usage();
    }
    let Some((_, run)) = WORKLOADS.iter().find(|(name, _)| *name == workload) else {
        usage()
    };
    let ctx = Ctx {
        workload,
        seed,
        seconds,
        trace,
        out_dir: out_dir(),
    };
    match run(&ctx).and_then(|report| Ok((report.render()?, report))) {
        Ok((line, report)) => {
            for note in report.notes() {
                println!("{note}");
            }
            println!("{line}");
            0
        }
        Err(e) => {
            eprintln!("benchmark {}: {e}", ctx.workload);
            1
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("repeat") => {
            let mut runs = 5;
            let mut seconds = default_seconds();
            let mut seed = 1;
            let mut out = out_dir().join("repeat.jsonl");
            for (flag, value) in flags(&args[1..]) {
                match flag.as_str() {
                    "--runs" => runs = parse(&flag, &value),
                    "--seconds" => seconds = parse(&flag, &value),
                    "--seed" => seed = parse(&flag, &value),
                    "--out" => out = PathBuf::from(value),
                    _ => usage(),
                }
            }
            let workloads = WORKLOADS.map(|(name, _)| name);
            report_err(compare::repeat(runs, seconds, seed, &workloads, &out))
        }
        Some("compare") if args.len() == 3 => {
            match compare::compare(&PathBuf::from(&args[1]), &PathBuf::from(&args[2])) {
                Ok(regressed) => i32::from(regressed),
                Err(e) => report_err(Err(e)),
            }
        }
        Some(flag) if flag.starts_with("--") => run_workload(&args),
        _ => usage(),
    };
    std::process::exit(code)
}

fn report_err(result: Result<(), String>) -> i32 {
    match result {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("benchmark: {e}");
            1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use json::{array_field, compact, str_field};

    #[test]
    fn workloads_match_benchmark_json() {
        let doc = compact(BENCHMARK_JSON);
        let listed: Vec<String> = array_field(&doc, "workloads")
            .unwrap()
            .iter()
            .map(|w| str_field(w, "name").unwrap())
            .collect();
        assert_eq!(listed, WORKLOADS.map(|(name, _)| name));
        let command = array_field(&doc, "command").unwrap();
        assert_eq!(command, ["\"bash\"", "\"examples/benchmark/run.sh\""]);
        assert!(json::f64_field(&doc, "run_seconds").is_some());
    }

    #[test]
    fn bare_trace_flag_means_traced() {
        let args: Vec<String> = ["--workload", "figures", "--trace"]
            .map(String::from)
            .to_vec();
        assert_eq!(
            flags(&args),
            vec![
                ("--workload".into(), "figures".into()),
                ("--trace".into(), "1".into())
            ]
        );
    }
}
