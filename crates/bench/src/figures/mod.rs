//! One module per paper exhibit.
//!
//! Every function takes [`HarnessOptions`] and returns a displayable
//! report. [`EXHIBITS`] lists them in print order; `all_figures`
//! renders that list.

mod ablate;
mod adaptive;
mod fig14;
mod fig15;
mod fig2;
mod fig3;
mod fig4;
mod fig5;
mod fig6;
mod fig8;
mod memory;
mod scenarios;
mod sections;
mod slackfig;
mod tab1;

pub use ablate::{
    ablate_interconnect, ablate_loc_levels, ablate_proactive, ablate_stall_threshold,
    ablate_window, InterconnectAblation, LocLevelsAblation, ProactiveAblation,
    StallThresholdAblation, WindowAblation,
};
pub use adaptive::{
    adaptive_exhibit, AdaptiveBar, AdaptiveExhibit, EXHIBIT_POLICIES, STATIC_POLICIES,
};
pub use fig14::{fig14, Fig14};
pub use fig15::{fig15, Fig15};
pub use fig2::{fig2, fig2_latency_sweep, Fig2, Fig2LatencySweep};
pub use fig3::{fig3, Fig3};
pub use fig4::{fig4, Fig4};
pub use fig5::{fig5, Fig5};
pub use fig6::{fig6, Fig6};
pub use fig8::{fig8, Fig8};
pub use memory::{finite_l2_check, MemoryVerification, MemoryVerificationRow};
pub use scenarios::{scenario_exhibit, ScenarioBar, ScenarioExhibit, SCENARIO_POLICIES};
pub use sections::{sec2_global_comm, sec4_listsched, sec6_consumers, Sec2, Sec4, Sec6};
pub use slackfig::{slack_distribution, SlackDistribution, SlackRow};
pub use tab1::{tab1, Tab1};

use crate::HarnessOptions;
use ccs_core::CcsError;
use ccs_isa::MachineConfig;
use ccs_sim::{policies::LeastLoaded, simulate, SimResult};
use ccs_trace::{Benchmark, Trace, TraceStore};
use std::sync::Arc;

/// One exhibit of the evaluation: its name and how to render it, as
/// text and, where it has a plottable form, as CSV.
#[derive(Debug, Clone, Copy)]
pub struct Exhibit {
    /// The exhibit's name, as `all_figures --only NAME` selects it.
    pub name: &'static str,
    /// Renders the printable report.
    pub text: fn(&HarnessOptions) -> String,
    /// Renders the plottable series, for exhibits that have one.
    pub csv: Option<fn(&HarnessOptions) -> String>,
}

/// The [`Exhibit`] named `$name` rendering figure function `$fig`, with
/// its `to_csv` form when marked `csv`.
macro_rules! exhibit {
    ($name:literal, $fig:expr) => {
        Exhibit {
            name: $name,
            text: |o| $fig(o).to_string(),
            csv: None,
        }
    };
    ($name:literal, $fig:expr, csv) => {
        Exhibit {
            name: $name,
            text: |o| $fig(o).to_string(),
            csv: Some(|o| $fig(o).to_csv()),
        }
    };
}

/// Every exhibit, in print order: Table 1, the paper's figures and its
/// §2/§4/§6 text results, then the ablation sweeps and the scenario
/// gallery. The adaptive exhibit sits beside Figure 14, whose static
/// ladder it extends.
pub const EXHIBITS: &[Exhibit] = &[
    exhibit!("tab1", |_| tab1()),
    exhibit!("fig2", fig2, csv),
    exhibit!("fig2_latency_sweep", fig2_latency_sweep),
    exhibit!("fig3", fig3),
    exhibit!("fig4", fig4, csv),
    exhibit!("fig5", fig5),
    exhibit!("fig6", fig6),
    exhibit!("fig8", fig8, csv),
    exhibit!("fig14", fig14, csv),
    exhibit!("adaptive_policy", adaptive_exhibit, csv),
    exhibit!("fig15", fig15, csv),
    exhibit!("sec2_global_comm", sec2_global_comm),
    exhibit!("sec4_listsched", sec4_listsched),
    exhibit!("sec6_consumers", sec6_consumers),
    exhibit!("slack_distribution", slack_distribution),
    exhibit!("finite_l2_check", finite_l2_check),
    exhibit!("ablate_stall_threshold", ablate_stall_threshold),
    exhibit!("ablate_loc_levels", ablate_loc_levels),
    exhibit!("ablate_interconnect", ablate_interconnect),
    exhibit!("ablate_proactive", ablate_proactive),
    exhibit!("ablate_window", ablate_window),
    exhibit!("scenario_gallery", scenario_exhibit, csv),
];

/// The harness trace for one benchmark (the first sample), from the
/// process-wide [`TraceStore`] — generated once, shared by every figure
/// and every grid worker.
pub(crate) fn trace_for(bench: Benchmark, opts: &HarnessOptions) -> Arc<Trace> {
    TraceStore::global().get(bench, opts.seed, opts.len)
}

/// Runs the reference monolithic execution (policy-free baseline used by
/// the idealized studies).
pub(crate) fn mono_result(trace: &Trace) -> SimResult {
    let cfg = MachineConfig::micro05_baseline();
    simulate(&cfg, trace, &mut LeastLoaded).expect("monolithic baseline cannot deadlock")
}

/// Arithmetic mean, rejecting empty series with a typed error. An
/// exhibit averaging zero cells would silently report 0.0 — a harness
/// bug, not a number.
pub(crate) fn try_mean(values: impl IntoIterator<Item = f64>) -> Result<f64, CcsError> {
    let mut sum = 0.0;
    let mut n = 0usize;
    for v in values {
        sum += v;
        n += 1;
    }
    if n == 0 {
        return Err(CcsError::EmptyInput {
            what: "figure series to average",
        });
    }
    Ok(sum / n as f64)
}

/// Arithmetic mean over a series the caller guarantees non-empty.
/// Figure code builds each series from a fixed benchmark/layout
/// enumeration, so an empty one is a bug; the panic is isolated per
/// exhibit by the `all_figures` driver.
pub(crate) fn mean(values: impl IntoIterator<Item = f64>) -> f64 {
    try_mean(values).expect("mean of an empty figure series")
}

/// `numerator / baseline`, rejecting a zero or non-finite baseline with
/// a typed error. Figure normalizations divide by a baseline's cycle or
/// CPI measurement; if that baseline degenerated (a zero-length cell, a
/// propagated NaN), a silent division would print NaN/inf into the
/// exhibit instead of failing at the source.
pub(crate) fn try_ratio(
    numerator: f64,
    baseline: f64,
    what: &'static str,
) -> Result<f64, CcsError> {
    if baseline == 0.0 || !baseline.is_finite() {
        return Err(CcsError::DegenerateBaseline {
            what,
            value: baseline,
        });
    }
    let r = numerator / baseline;
    if !r.is_finite() {
        return Err(CcsError::DegenerateBaseline { what, value: r });
    }
    Ok(r)
}

/// [`try_ratio`] for series the caller guarantees non-degenerate (fixed
/// enumerations over successful cells). The panic is isolated per
/// exhibit by the `all_figures` driver.
pub(crate) fn ratio(numerator: f64, baseline: f64, what: &'static str) -> f64 {
    try_ratio(numerator, baseline, what).expect("degenerate figure baseline")
}

/// Formats one numeric CSV cell to four decimals, refusing non-finite
/// values. `{:.4}` happily prints `NaN` or `inf` into an artifact that
/// downstream plotting would then parse; a non-finite value reaching a
/// renderer is an upstream harness bug and must fail here, at the last
/// gate before the artifact.
pub(crate) fn csv_num(v: f64) -> String {
    assert!(v.is_finite(), "non-finite value in CSV output: {v}");
    format!("{v:.4}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_of_values() {
        assert_eq!(mean([1.0, 2.0, 3.0]), 2.0);
        assert_eq!(mean([4.0]), 4.0);
    }

    #[test]
    #[should_panic(expected = "mean of an empty figure series")]
    fn mean_of_empty_series_is_a_bug() {
        let _ = mean([]);
    }

    #[test]
    fn try_mean_reports_empty_series_as_a_typed_error() {
        assert_eq!(try_mean([2.0, 4.0]).unwrap(), 3.0);
        let err = try_mean([]).unwrap_err();
        assert!(matches!(err, CcsError::EmptyInput { .. }));
        assert!(err.to_string().contains("figure series"));
    }

    #[test]
    fn try_ratio_rejects_degenerate_baselines() {
        assert_eq!(try_ratio(3.0, 2.0, "test").unwrap(), 1.5);
        for bad in [0.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let err = try_ratio(1.0, bad, "test").unwrap_err();
            assert!(matches!(err, CcsError::DegenerateBaseline { .. }), "{bad}");
        }
        // A NaN numerator over a finite baseline is also caught.
        assert!(try_ratio(f64::NAN, 2.0, "test").is_err());
    }

    #[test]
    #[should_panic(expected = "degenerate figure baseline")]
    fn ratio_panics_on_zero_baseline() {
        let _ = ratio(1.0, 0.0, "test");
    }

    #[test]
    fn csv_num_formats_finite_values() {
        assert_eq!(csv_num(1.0), "1.0000");
        assert_eq!(csv_num(0.12345), "0.1235");
    }

    #[test]
    #[should_panic(expected = "non-finite value in CSV output")]
    fn csv_num_refuses_nan() {
        let _ = csv_num(f64::NAN);
    }

    #[test]
    fn trace_and_mono_helpers() {
        let opts = HarnessOptions::smoke();
        let t = trace_for(Benchmark::Gap, &opts);
        assert!(t.len() >= opts.len);
        let m = mono_result(&t);
        assert!(m.cpi() > 0.0);
    }
}
