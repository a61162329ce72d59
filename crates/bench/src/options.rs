//! Harness configuration.

use ccs_core::{Resilience, RunOptions};
use std::time::Duration;

/// Shared configuration for the figure harness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HarnessOptions {
    /// Dynamic instructions per benchmark trace.
    pub len: usize,
    /// Workload generation seed.
    pub seed: u64,
    /// Training + measurement epochs for policy cells.
    pub epochs: u32,
    /// Trace samples per benchmark, averaged like the paper's three
    /// 100M-instruction samples at different execution offsets.
    pub samples: u32,
    /// Worker threads for grid evaluation (`0` = one per available
    /// core). Results are bit-identical for every value; only
    /// wall-clock time changes.
    pub threads: usize,
    /// Pick the worker count per grid from its size
    /// ([`ccs_core::auto_threads`]): serial for grids too small to
    /// amortize spawn/join, one worker per core otherwise. Set by
    /// `--threads auto` / `CCS_THREADS=auto`; overrides `threads`.
    pub threads_auto: bool,
    /// Run every cell in checked mode (structural invariant audits on
    /// each epoch's schedule); roughly doubles per-cell cost.
    pub checked: bool,
    /// Resume a checkpointed campaign: skip cells already recorded in
    /// the manifest instead of truncating it.
    pub resume: bool,
    /// Order campaign cells best-first by their analytic cycle bound
    /// (`ccs-predict`) and record the predicted envelope in the
    /// manifest. Metadata-only: results stay bit-identical.
    pub predict_order: bool,
    /// Attempts per grid cell before it is reported as failed.
    pub max_attempts: u32,
    /// Wall-clock deadline per cell attempt in milliseconds (`0` = no
    /// watchdog).
    pub deadline_ms: u64,
    /// Cycle budget per simulation (`0` = unbounded); exceeding it
    /// reports the cell as timed out.
    pub cycle_budget: u64,
    /// Collect observability metrics on each cell's measured epoch and
    /// report per-stage timings plus a CPI stack. Schedules and results
    /// are bit-identical with metrics on or off.
    pub metrics: bool,
}

impl HarnessOptions {
    /// Defaults: 20 000 instructions, seed 1, 2 epochs, one grid worker
    /// per core — overridable via the `CCS_LEN`, `CCS_SEED`,
    /// `CCS_EPOCHS`, `CCS_SAMPLES` and `CCS_THREADS` environment
    /// variables (`CCS_THREADS=auto` sizes the pool per grid via
    /// [`ccs_core::auto_threads`]). `CCS_CHECKED=1` turns on checked (invariant-audited)
    /// simulation for every cell. Resilience knobs: `CCS_RESUME=1`
    /// resumes a checkpointed campaign, `CCS_MAX_ATTEMPTS` retries
    /// failing cells, `CCS_DEADLINE_MS` arms the per-cell wall-clock
    /// watchdog and `CCS_CYCLE_BUDGET` bounds each simulation.
    /// `CCS_METRICS=1` collects observability metrics and prints stage
    /// timings and a CPI stack. `CCS_PREDICT_ORDER=1` orders campaign
    /// cells best-first by their analytic cycle bound.
    ///
    /// The command line then applies `--threads N` / `--threads=N` (`N`
    /// a count or `auto`), `--resume`, `--predict-order` and
    /// `--metrics` on top; other arguments are left to the binary. A
    /// malformed or missing `--threads` value exits with status 2.
    pub fn from_env_and_args() -> Self {
        let mut opts = Self::from_vars(|name| std::env::var(name).ok());
        let mut args = std::env::args().skip(1);
        while let Some(arg) = args.next() {
            let threads = match arg.strip_prefix("--threads=") {
                Some(v) => Some(v.to_string()),
                None if arg == "--threads" => Some(args.next().unwrap_or_default()),
                None => None,
            };
            match threads.as_deref() {
                Some("auto") => opts.threads_auto = true,
                Some(v) => match v.parse() {
                    Ok(n) => (opts.threads, opts.threads_auto) = (n, false),
                    Err(_) => {
                        eprintln!("--threads {v:?}: expected a worker count or `auto`");
                        std::process::exit(2);
                    }
                },
                None => {
                    opts.resume |= arg == "--resume";
                    opts.predict_order |= arg == "--predict-order";
                    opts.metrics |= arg == "--metrics";
                }
            }
        }
        opts
    }

    /// The environment half of [`from_env_and_args`](Self::from_env_and_args)
    /// over an arbitrary variable lookup. Each variable is parsed at its
    /// field's type, so a value that is unparsable or out of range for
    /// the field (`CCS_EPOCHS=4294967297`, `CCS_THREADS=auto`) falls
    /// back to the default instead of wrapping.
    fn from_vars(var: impl Fn(&str) -> Option<String>) -> Self {
        fn parse<T: std::str::FromStr>(value: Option<String>, default: T) -> T {
            value.and_then(|v| v.parse().ok()).unwrap_or(default)
        }
        let flag = |name: &str| parse(var(name), 0u64) != 0;
        HarnessOptions {
            len: parse(var("CCS_LEN"), 20_000),
            seed: parse(var("CCS_SEED"), 1),
            epochs: parse(var("CCS_EPOCHS"), 2),
            samples: parse(var("CCS_SAMPLES"), 1),
            threads: parse(var("CCS_THREADS"), 0),
            threads_auto: var("CCS_THREADS").is_some_and(|v| v == "auto"),
            checked: flag("CCS_CHECKED"),
            resume: flag("CCS_RESUME"),
            predict_order: flag("CCS_PREDICT_ORDER"),
            max_attempts: parse(var("CCS_MAX_ATTEMPTS"), 1u32).max(1),
            deadline_ms: parse(var("CCS_DEADLINE_MS"), 0),
            cycle_budget: parse(var("CCS_CYCLE_BUDGET"), 0),
            metrics: flag("CCS_METRICS"),
        }
    }

    /// The effective grid worker count: `threads`, with `0` resolved to
    /// the number of available cores.
    pub fn effective_threads(&self) -> usize {
        if self.threads == 0 {
            std::thread::available_parallelism()
                .map(usize::from)
                .unwrap_or(1)
        } else {
            self.threads
        }
    }

    /// The worker count for a grid of `cells` cells over this
    /// configuration's trace length: [`ccs_core::auto_threads`] in
    /// `--threads auto` mode (tiny grids stay serial), otherwise
    /// [`effective_threads`](Self::effective_threads).
    pub fn threads_for(&self, cells: usize) -> usize {
        if self.threads_auto {
            ccs_core::auto_threads(cells, self.len)
        } else {
            self.effective_threads()
        }
    }

    /// The seeds of the individual samples.
    pub fn sample_seeds(&self) -> Vec<u64> {
        (0..self.samples.max(1) as u64)
            .map(|k| self.seed + 1_000 * k)
            .collect()
    }

    /// A small configuration for fast tests.
    pub fn smoke() -> Self {
        HarnessOptions {
            len: 2_000,
            seed: 1,
            epochs: 2,
            samples: 1,
            threads: 2,
            threads_auto: false,
            checked: false,
            resume: false,
            predict_order: false,
            max_attempts: 1,
            deadline_ms: 0,
            cycle_budget: 0,
            metrics: false,
        }
    }

    /// The policy-evaluation options these harness options imply.
    pub fn run_options(&self) -> RunOptions {
        let mut opts = RunOptions::default()
            .with_epochs(self.epochs)
            .with_checked(self.checked)
            .with_metrics(self.metrics);
        if self.cycle_budget > 0 {
            opts = opts.with_cycle_budget(self.cycle_budget);
        }
        opts
    }

    /// The per-cell retry/watchdog policy these harness options imply.
    pub fn resilience(&self) -> Resilience {
        let mut res = Resilience::default().with_max_attempts(self.max_attempts);
        if self.deadline_ms > 0 {
            res = res.with_deadline(Duration::from_millis(self.deadline_ms));
        }
        res
    }
}

/// The value of `--NAME VALUE` / `--NAME=VALUE` on the command line,
/// else the environment variable `env` when set and non-empty.
fn flag_or_env(name: &str, env: &str) -> Option<String> {
    let flag = format!("--{name}");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if let Some(v) = arg.strip_prefix(&flag).and_then(|v| v.strip_prefix('=')) {
            return Some(v.to_string());
        }
        if arg == flag {
            return args.next();
        }
    }
    std::env::var(env).ok().filter(|s| !s.is_empty())
}

/// The scenario manifest the campaign should run instead of the twelve
/// benchmarks: `--scenario FILE` / `--scenario=FILE` on the command
/// line, else the `CCS_SCENARIO` environment variable, else `None`
/// (benchmark grid). The file holds a `ccs-scenario` manifest; the
/// campaign registers it and sweeps the same layout × policy × seed
/// axes over the scenario workload.
pub fn scenario_target() -> Option<String> {
    flag_or_env("scenario", "CCS_SCENARIO")
}

/// The daemons a campaign should submit to instead of evaluating
/// in-process: `--servers a,b,c` / `--servers=a,b,c` (or the
/// comma-separated `CCS_SERVERS`), else the single address of
/// `--server HOST:PORT` (or `CCS_SERVER`) as a one-shard list, else
/// `None` (run locally). Kept outside [`HarnessOptions`] so that
/// struct stays `Copy`.
pub fn servers_target() -> Option<Vec<String>> {
    let list: Vec<String> = match flag_or_env("servers", "CCS_SERVERS") {
        Some(list) => list
            .split(',')
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .map(String::from)
            .collect(),
        None => flag_or_env("server", "CCS_SERVER").into_iter().collect(),
    };
    Some(list).filter(|l| !l.is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_options_are_small() {
        let o = HarnessOptions::smoke();
        assert!(o.len <= 5_000);
        assert_eq!(o.run_options().epochs, 2);
        assert_eq!(o.sample_seeds(), vec![1]);
    }

    #[test]
    fn sample_seeds_are_distinct() {
        let mut o = HarnessOptions::smoke();
        o.samples = 3;
        let seeds = o.sample_seeds();
        assert_eq!(seeds.len(), 3);
        let set: std::collections::HashSet<_> = seeds.iter().collect();
        assert_eq!(set.len(), 3);
    }

    #[test]
    fn resilience_and_budget_knobs_map_through() {
        let mut o = HarnessOptions::smoke();
        assert_eq!(o.resilience(), Resilience::default());
        assert_eq!(o.run_options().cycle_budget, None);
        o.max_attempts = 3;
        o.deadline_ms = 250;
        o.cycle_budget = 1_000;
        let res = o.resilience();
        assert_eq!(res.max_attempts, 3);
        assert_eq!(res.deadline, Some(Duration::from_millis(250)));
        assert_eq!(o.run_options().cycle_budget, Some(1_000));
    }

    #[test]
    fn metrics_knob_maps_through() {
        let mut o = HarnessOptions::smoke();
        assert!(!o.run_options().metrics);
        o.metrics = true;
        assert!(o.run_options().metrics);
    }

    #[test]
    fn effective_threads_resolves_auto() {
        let mut o = HarnessOptions::smoke();
        o.threads = 0;
        assert!(o.effective_threads() >= 1);
        o.threads = 3;
        assert_eq!(o.effective_threads(), 3);
    }

    #[test]
    fn numeric_variables_parse_at_their_field_type() {
        let opts = |vars: &[(&str, &str)]| {
            let vars: std::collections::HashMap<String, String> = vars
                .iter()
                .map(|&(k, v)| (k.to_string(), v.to_string()))
                .collect();
            HarnessOptions::from_vars(|name| vars.get(name).cloned())
        };
        let defaults = opts(&[]);
        assert_eq!(
            (defaults.len, defaults.epochs, defaults.samples),
            (20_000, 2, 1)
        );
        let set = opts(&[
            ("CCS_SAMPLES", "3"),
            ("CCS_EPOCHS", "4"),
            ("CCS_MAX_ATTEMPTS", "5"),
        ]);
        assert_eq!((set.samples, set.epochs, set.max_attempts), (3, 4, 5));
        // Out of range for a u32 field: the default, not the value
        // modulo 2^32.
        let wide = opts(&[
            ("CCS_SAMPLES", "4294967298"),
            ("CCS_EPOCHS", "4294967297"),
            ("CCS_MAX_ATTEMPTS", "4294967296"),
        ]);
        assert_eq!((wide.samples, wide.epochs, wide.max_attempts), (1, 2, 1));
        assert_eq!(wide.sample_seeds(), vec![1]);
        // `auto` is not a count: `threads` keeps its default and the
        // auto flag is set.
        let auto = opts(&[("CCS_THREADS", "auto")]);
        assert_eq!((auto.threads, auto.threads_auto), (0, true));
        assert_eq!(opts(&[("CCS_THREADS", "3")]).threads, 3);
        assert_eq!(opts(&[("CCS_SEED", "18446744073709551616")]).seed, 1);
    }

    #[test]
    fn threads_auto_keeps_tiny_grids_serial() {
        let mut o = HarnessOptions::smoke();
        o.threads_auto = true;
        // 12 cells x 2 000 instructions is below the parallel-worthwhile
        // threshold: auto mode must not spawn workers for it.
        assert_eq!(o.threads_for(12), 1);
        assert_eq!(o.threads_for(1), 1);
        // Without auto mode the explicit count wins regardless of size.
        o.threads_auto = false;
        assert_eq!(o.threads_for(12), o.effective_threads());
        // Big grids in auto mode follow the machine.
        o.threads_auto = true;
        o.len = 100_000;
        assert_eq!(o.threads_for(200), ccs_core::auto_threads(200, 100_000));
    }
}
