//! `repeat` runs workloads in fresh processes and summarises each
//! end-to-end metric; `compare` judges a change against its parent from
//! two `repeat` outputs, by the rule the bounds in `BENCHMARK.json` are
//! written for.

use crate::json::{array_field, compact, f64_field, quoted, str_field, u64_field};
use crate::report::END_TO_END;
use crate::stats::quartiles;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::process::{Command, Stdio};

/// One workload run read back from a `repeat` output line.
struct Run {
    workload: String,
    run: u64,
    failed: u64,
    metrics: BTreeMap<String, f64>,
}

/// The value of end-to-end metric `name` in a result line.
fn metric_value(line: &str, name: &str) -> Option<f64> {
    let at = line.find(&format!("\"{name}\":{{"))?;
    f64_field(&line[at..], "value")
}

fn parse_run(line: &str) -> Result<Run, String> {
    let metrics = END_TO_END
        .iter()
        .map(|(name, _)| {
            metric_value(line, name)
                .map(|v| (name.to_string(), v))
                .ok_or(format!("metric {name} has no value"))
        })
        .collect::<Result<_, String>>()?;
    Ok(Run {
        workload: str_field(line, "workload").ok_or("no workload")?,
        run: u64_field(line, "run").ok_or("no run index")?,
        failed: u64_field(line, "failed").ok_or("no failed count")?,
        metrics,
    })
}

fn load(path: &Path) -> Result<Vec<Run>, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| parse_run(l).map_err(|e| format!("{}: {e}", path.display())))
        .collect()
}

/// Runs every workload `runs` times, each in a fresh process, with the
/// workload order reversed on odd rounds and seed `seed + round`;
/// appends each result to `out` and prints median and quartiles.
pub fn repeat(
    runs: u64,
    seconds: f64,
    seed: u64,
    workloads: &[&str],
    out: &Path,
) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    if let Some(dir) = out.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    let mut file =
        std::fs::File::create(out).map_err(|e| format!("create {}: {e}", out.display()))?;
    let mut lines = String::new();
    for round in 0..runs {
        let mut order = workloads.to_vec();
        if round % 2 == 1 {
            order.reverse();
        }
        for workload in order {
            let run_seed = seed + round;
            let output = Command::new(&exe)
                .args(["--workload", workload, "--seed", &run_seed.to_string()])
                .args(["--seconds", &seconds.to_string(), "--trace", "0"])
                .stderr(Stdio::inherit())
                .output()
                .map_err(|e| format!("spawn {}: {e}", exe.display()))?;
            let stdout = String::from_utf8_lossy(&output.stdout);
            let result = stdout.lines().last().unwrap_or_default();
            if !output.status.success() || u64_field(result, "attempted").is_none() {
                return Err(format!(
                    "{workload} seed {run_seed} failed ({}): {stdout}",
                    output.status
                ));
            }
            let line = format!(
                "{{\"workload\":{},\"seed\":{run_seed},\"run\":{round},\"result\":{result}}}\n",
                quoted(workload)
            );
            file.write_all(line.as_bytes())
                .map_err(|e| format!("write {}: {e}", out.display()))?;
            lines.push_str(&line);
            eprintln!("repeat: round {round} {workload} done");
        }
    }
    file.flush()
        .map_err(|e| format!("write {}: {e}", out.display()))?;
    let runs: Vec<Run> = lines.lines().map(parse_run).collect::<Result<_, _>>()?;
    println!("{}", summary(&runs));
    println!("results in {}", out.display());
    Ok(())
}

fn by_workload(runs: &[Run]) -> BTreeMap<&str, Vec<&Run>> {
    let mut out: BTreeMap<&str, Vec<&Run>> = BTreeMap::new();
    for r in runs {
        out.entry(&r.workload).or_default().push(r);
    }
    for list in out.values_mut() {
        list.sort_by_key(|r| r.run);
    }
    out
}

fn summary(runs: &[Run]) -> String {
    let mut out = format!(
        "{:<14} {:<16} {:>4} {:>14} {:>14} {:>14} {:>8}\n",
        "workload", "metric", "n", "q1", "median", "q3", "iqr %"
    );
    for (workload, list) in by_workload(runs) {
        for metric in list[0].metrics.keys() {
            let values: Vec<f64> = list
                .iter()
                .filter_map(|r| r.metrics.get(metric).copied())
                .collect();
            let (q1, med, q3) = quartiles(&values);
            let _ = writeln!(
                out,
                "{workload:<14} {metric:<16} {:>4} {q1:>14.6} {med:>14.6} {q3:>14.6} {:>8.2}",
                values.len(),
                100.0 * (q3 - q1) / med.abs()
            );
        }
    }
    out
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Won at least 9 in 10 pairs, medians apart by more than the
    /// parent's interquartile range.
    Gain,
    /// Median worse than the parent's by more than the bound, however
    /// noisy the runs.
    Regression,
    /// Within the bound by median, but the change's own spread exceeds
    /// the bound and not every change run beats every parent run.
    Unresolved,
    /// No worse than the parent by more than the bound.
    WithinBound,
}

/// Judges one metric of one workload. Runs pair up by index; ties count
/// for neither side. `fewer_failures` is false when the change failed
/// more operations than the parent, which voids a gain.
pub fn classify(
    parent: &[f64],
    change: &[f64],
    lower_is_better: bool,
    bound: f64,
    fewer_failures: bool,
) -> Verdict {
    let better = |c: f64, p: f64| if lower_is_better { c < p } else { c > p };
    let (p_q1, p_med, p_q3) = quartiles(parent);
    let (c_q1, c_med, c_q3) = quartiles(change);
    let pairs = parent.len().min(change.len());
    let wins = parent
        .iter()
        .zip(change)
        .filter(|(p, c)| better(**c, **p))
        .count();
    if fewer_failures
        && pairs > 0
        && wins as f64 >= 0.9 * pairs as f64
        && better(c_med, p_med)
        && (c_med - p_med).abs() > p_q3 - p_q1
    {
        return Verdict::Gain;
    }
    let worse_by = if lower_is_better {
        c_med - p_med
    } else {
        p_med - c_med
    } / p_med.abs();
    if worse_by > bound {
        return Verdict::Regression;
    }
    let all_better = change.iter().all(|c| parent.iter().all(|p| better(*c, *p)));
    if (c_q3 - c_q1) / c_med.abs() > bound && !all_better {
        Verdict::Unresolved
    } else {
        Verdict::WithinBound
    }
}

/// Prints a verdict per workload and end-to-end metric; returns whether
/// any metric regressed.
pub fn compare(parent_path: &Path, change_path: &Path) -> Result<bool, String> {
    let doc = compact(crate::BENCHMARK_JSON);
    let metrics: Vec<(String, bool, f64)> = array_field(&doc, "end_to_end")
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .map(|m| {
            let name = str_field(m, "name");
            let better = str_field(m, "better");
            let bound = f64_field(m, "bound");
            match (name, better, bound) {
                (Some(n), Some(b), Some(x)) => Ok((n, b == "lower", x)),
                _ => Err(format!("malformed end_to_end entry {m}")),
            }
        })
        .collect::<Result<_, String>>()?;
    let (parent_runs, change_runs) = (load(parent_path)?, load(change_path)?);
    let (parent, change) = (by_workload(&parent_runs), by_workload(&change_runs));
    let mut regressed = false;
    println!(
        "{:<14} {:<16} {:>14} {:>14} {:>8}  verdict",
        "workload", "metric", "parent median", "change median", "delta %"
    );
    for (workload, p_list) in &parent {
        let Some(c_list) = change.get(workload) else {
            println!("{workload:<14} (no change runs)");
            continue;
        };
        let failures = |list: &[&Run]| list.iter().map(|r| r.failed).sum::<u64>();
        let fewer_failures = failures(c_list) <= failures(p_list);
        for (name, lower, bound) in &metrics {
            let values = |list: &[&Run]| -> Vec<f64> {
                list.iter()
                    .filter_map(|r| r.metrics.get(name).copied())
                    .collect()
            };
            let (p, c) = (values(p_list), values(c_list));
            if p.is_empty() || c.is_empty() {
                continue;
            }
            let verdict = classify(&p, &c, *lower, *bound, fewer_failures);
            regressed |= verdict == Verdict::Regression;
            let (p_med, c_med) = (quartiles(&p).1, quartiles(&c).1);
            println!(
                "{workload:<14} {name:<16} {p_med:>14.6} {c_med:>14.6} {:>8.2}  {verdict:?} (bound {:.0}%, {} pairs)",
                100.0 * (c_med - p_med) / p_med.abs(),
                bound * 100.0,
                p.len().min(c.len())
            );
        }
    }
    Ok(regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    const PARENT: [f64; 10] = [10.0, 10.2, 9.9, 10.1, 10.0, 10.3, 9.8, 10.1, 10.0, 10.2];

    #[test]
    fn a_gain_needs_nine_in_ten_wins_beyond_the_parent_iqr() {
        let faster: Vec<f64> = PARENT.iter().map(|p| p * 0.8).collect();
        assert_eq!(classify(&PARENT, &faster, true, 0.1, true), Verdict::Gain);
        assert_eq!(
            classify(&PARENT, &faster, true, 0.1, false),
            Verdict::WithinBound,
            "more failures void a gain"
        );
        let slightly: Vec<f64> = PARENT.iter().map(|p| p - 0.01).collect();
        assert_eq!(
            classify(&PARENT, &slightly, true, 0.1, true),
            Verdict::WithinBound,
            "inside the parent's IQR"
        );
        let throughput: Vec<f64> = PARENT.iter().map(|p| p * 1.3).collect();
        assert_eq!(
            classify(&PARENT, &throughput, false, 0.1, true),
            Verdict::Gain
        );
    }

    #[test]
    fn regressions_and_wide_spreads_are_reported() {
        let slower: Vec<f64> = PARENT.iter().map(|p| p * 1.2).collect();
        assert_eq!(
            classify(&PARENT, &slower, true, 0.1, true),
            Verdict::Regression
        );
        assert_eq!(classify(&PARENT, &slower, false, 0.1, true), Verdict::Gain);
        let noisy = [5.0, 15.0, 6.0, 14.0, 10.0, 7.0, 13.0, 8.0, 12.0, 10.0];
        assert_eq!(
            classify(&PARENT, &noisy, true, 0.1, true),
            Verdict::Unresolved
        );
        let noisy_and_slower: Vec<f64> = noisy.iter().map(|v| v * 1.5).collect();
        assert_eq!(
            classify(&PARENT, &noisy_and_slower, true, 0.1, true),
            Verdict::Regression,
            "a median beyond the bound is a regression however noisy the runs"
        );
        let same = PARENT;
        assert_eq!(
            classify(&PARENT, &same, true, 0.1, true),
            Verdict::WithinBound
        );
    }

    #[test]
    fn repeat_lines_parse_back() {
        let mut report = crate::report::Report::new(false);
        for (i, (name, _)) in END_TO_END.iter().enumerate() {
            report.set(name, 0.012 * (i + 1) as f64);
        }
        report.set("latency_tail_ms", f64::INFINITY);
        let line = format!(
            r#"{{"workload":"figures","seed":3,"run":2,"result":{}}}"#,
            report.render().unwrap()
        );
        let run = parse_run(&line).unwrap();
        assert_eq!(
            (run.workload.as_str(), run.run, run.failed),
            ("figures", 2, 0)
        );
        assert_eq!(run.metrics["setup_s"], 0.012);
        assert_eq!(run.metrics["ops_per_s"], 0.024);
        assert_eq!(run.metrics["latency_tail_ms"], f64::INFINITY);
        assert!(summary(&[run]).contains("setup_s"));
        assert!(parse_run(r#"{"workload":"figures","run":0,"result":{"failed":0}}"#).is_err());
    }
}
