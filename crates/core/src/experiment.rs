//! The two-phase experiment driver.

use crate::bank::{LocMode, PredictorBank};
use crate::error::CcsError;
use crate::policy::PolicyKind;
use ccs_critpath::{analyze, CritPathAnalysis};
use ccs_isa::MachineConfig;
use ccs_predictors::TokenDetector;
use ccs_sim::{simulate_budgeted, Cycle, RunObserver, SimBudget, SimError, SimMetrics, SimResult};
use ccs_trace::Trace;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

/// Where criticality training samples come from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrainingSource {
    /// The exact critical path from the dependence-graph analysis — the
    /// idealized (converged) form of the detector's signal.
    ExactGraph,
    /// The Fields token-passing detector sampling the retiring stream —
    /// the hardware-realistic mechanism the paper's pipeline carries.
    TokenDetector(TokenDetector),
}

/// Options controlling a [`run_cell`] evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunOptions {
    /// Total simulation epochs. The predictors are trained on the
    /// critical path after each epoch; the *last* epoch is the measured
    /// one. Two epochs (one cold training run + one measured run) match
    /// the paper's converged-predictor methodology; more epochs let the
    /// learned load-balance candidates settle further.
    pub epochs: u32,
    /// The LoC implementation policies read.
    pub loc_mode: LocMode,
    /// Seed for the probabilistic counter updates.
    pub seed: u64,
    /// The criticality training signal.
    pub training: TrainingSource,
    /// Run every epoch in *checked* mode: the structural invariant
    /// checker ([`ccs_sim::check_invariants`]) audits each schedule and
    /// the critical-path breakdown must conserve the cycle count, with
    /// any violation surfaced as [`SimError::InvariantViolated`]. Adds
    /// one audit pass per epoch (~2× cost); off by default.
    pub checked: bool,
    /// Deterministic watchdog: give up any single epoch once its cycle
    /// counter passes this value, surfacing
    /// [`SimError::BudgetExhausted`] (a timeout, not a defect). `None`
    /// (the default) leaves only the engine's internal deadlock limit.
    pub cycle_budget: Option<Cycle>,
    /// Collect observability metrics ([`SimMetrics`]) on the measured
    /// (final) epoch. Metrics are write-only observers — the schedule and
    /// result are bit-identical with metrics on or off — but gathering
    /// them costs a little time, so this is off by default.
    pub metrics: bool,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            epochs: 2,
            loc_mode: LocMode::Quantized16,
            seed: 0xC1A5,
            training: TrainingSource::ExactGraph,
            checked: false,
            cycle_budget: None,
            metrics: false,
        }
    }
}

impl RunOptions {
    /// Convenience: the same options with the exact LoC reference
    /// implementation.
    #[must_use]
    pub fn exact_loc(mut self) -> Self {
        self.loc_mode = LocMode::Exact;
        self
    }

    /// Convenience: the same options with a different epoch count.
    #[must_use]
    pub fn with_epochs(mut self, epochs: u32) -> Self {
        self.epochs = epochs;
        self
    }

    /// Convenience: the same options trained by the token-passing
    /// detector instead of the exact critical path.
    #[must_use]
    pub fn with_token_detector(mut self, detector: TokenDetector) -> Self {
        self.training = TrainingSource::TokenDetector(detector);
        self
    }

    /// Convenience: the same options with checked mode on or off.
    #[must_use]
    pub fn with_checked(mut self, checked: bool) -> Self {
        self.checked = checked;
        self
    }

    /// Convenience: the same options with a per-epoch cycle budget.
    #[must_use]
    pub fn with_cycle_budget(mut self, cycle_budget: Cycle) -> Self {
        self.cycle_budget = Some(cycle_budget);
        self
    }

    /// Convenience: the same options with metrics collection on or off.
    #[must_use]
    pub fn with_metrics(mut self, metrics: bool) -> Self {
        self.metrics = metrics;
        self
    }
}

/// The outcome of evaluating one (machine, workload, policy) cell.
#[derive(Debug, Clone)]
pub struct CellOutcome {
    /// The policy evaluated.
    pub kind: PolicyKind,
    /// Timing results of the measured (final) epoch.
    pub result: SimResult,
    /// Critical-path analysis of the measured epoch.
    pub analysis: CritPathAnalysis,
    /// The trained predictor state after the measured epoch.
    pub bank: PredictorBank,
    /// Observability metrics of the measured epoch, when
    /// [`RunOptions::metrics`] was set.
    pub metrics: Option<SimMetrics>,
}

impl CellOutcome {
    /// Cycles per instruction of the measured epoch.
    pub fn cpi(&self) -> f64 {
        self.result.cpi()
    }

    /// This cell's CPI normalized to a baseline cell (the paper's
    /// normalized-CPI axis).
    pub fn normalized_cpi(&self, baseline: &CellOutcome) -> f64 {
        self.cpi() / baseline.cpi()
    }
}

/// Evaluates `kind` on `config` running `trace`, using the paper's
/// two-phase methodology: each epoch simulates, extracts the critical
/// path, and trains the predictor bank; the final epoch is the measured
/// one.
///
/// Fully deterministic for fixed inputs and options.
///
/// # Errors
///
/// Returns [`CcsError::Sim`] for simulator failures (deadlock, exhausted
/// [`RunOptions::cycle_budget`], checked-mode invariant violations).
pub fn run_cell(
    config: &MachineConfig,
    trace: &Trace,
    kind: PolicyKind,
    options: &RunOptions,
) -> Result<CellOutcome, CcsError> {
    run_custom_cancellable(config, trace, kind.config(), kind, options, None)
}

/// Like [`run_cell`], but with an explicit [`PolicyConfig`](crate::PolicyConfig) — the entry
/// point for ablation studies (stall-threshold sweeps, proactive-override
/// sweeps) — and an optional cooperative cancel flag that a watchdog can
/// raise mid-epoch, which the resilient grid executor uses to enforce
/// wall-clock deadlines. `kind` labels the outcome; the configuration
/// governs the policy's behaviour.
///
/// # Errors
///
/// As for [`run_cell`], plus [`SimError::Cancelled`] (as
/// [`CcsError::Sim`]) when `cancel` is observed raised.
pub fn run_custom_cancellable(
    config: &MachineConfig,
    trace: &Trace,
    policy_config: crate::PolicyConfig,
    kind: PolicyKind,
    options: &RunOptions,
    cancel: Option<Arc<AtomicBool>>,
) -> Result<CellOutcome, CcsError> {
    let budget = SimBudget {
        max_cycles: options.cycle_budget,
        cancel,
    };
    let mut bank = PredictorBank::new(options.loc_mode, options.seed);
    let epochs = options.epochs.max(1);
    let mut last: Option<(SimResult, CritPathAnalysis)> = None;
    let mut metrics: Option<SimMetrics> = None;
    for epoch in 0..epochs {
        let measured = epoch + 1 == epochs;
        let mut policy = crate::CellPolicy::build(kind, policy_config, bank, kind.name());
        // Metrics are gathered only on the measured epoch (training epochs
        // exist to converge the predictors, not to be reported on), through
        // the same engine body as the unobserved path.
        let result = if options.metrics && measured {
            let mut observer = RunObserver::for_machine(config.cluster_count());
            let result =
                ccs_sim::simulate_observed(config, trace, &mut policy, &budget, &mut observer)?;
            metrics = Some(observer.into_metrics());
            result
        } else {
            simulate_budgeted(config, trace, &mut policy, &budget)?
        };
        let result = if options.checked {
            ccs_sim::verify(config, trace, result)?
        } else {
            result
        };
        let analysis = analyze(trace, &result);
        if options.checked && analysis.breakdown.total() != result.cycles {
            return Err(CcsError::Sim(SimError::InvariantViolated {
                first: ccs_sim::Violation {
                    cycle: result.cycles,
                    inst: None,
                    message: format!(
                        "critical-path breakdown sums to {} cycles, run took {}",
                        analysis.breakdown.total(),
                        result.cycles
                    ),
                },
                count: 1,
            }));
        }
        bank = policy.into_bank();
        match options.training {
            TrainingSource::ExactGraph => {
                bank.train_criticality(trace, &analysis.e_critical);
            }
            TrainingSource::TokenDetector(det) => {
                det.run(trace, &result, |pc, critical| bank.train_sample(pc, critical));
                bank.finish_epoch();
            }
        }
        last = Some((result, analysis));
    }
    // Invariant: the loop above runs `options.epochs.max(1)` >= 1
    // iterations, and every iteration either sets `last` or returns Err.
    let (result, analysis) = last.expect("at least one epoch ran");
    Ok(CellOutcome {
        kind,
        result,
        analysis,
        bank,
        metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccs_critpath::CostCategory;
    use ccs_isa::ClusterLayout;
    use ccs_trace::Benchmark;

    fn cfg(layout: ClusterLayout) -> MachineConfig {
        MachineConfig::micro05_baseline().with_layout(layout)
    }

    #[test]
    fn cells_are_deterministic() {
        let trace = Benchmark::Vpr.generate(1, 3_000);
        let opts = RunOptions::default();
        let a = run_cell(&cfg(ClusterLayout::C4x2w), &trace, PolicyKind::Focused, &opts).unwrap();
        let b = run_cell(&cfg(ClusterLayout::C4x2w), &trace, PolicyKind::Focused, &opts).unwrap();
        assert_eq!(a.result.cycles, b.result.cycles);
    }

    #[test]
    fn training_epochs_change_behavior() {
        let trace = Benchmark::Vpr.generate(1, 4_000);
        let cold = run_cell(
            &cfg(ClusterLayout::C4x2w),
            &trace,
            PolicyKind::Focused,
            &RunOptions::default().with_epochs(1),
        )
        .unwrap();
        let warm = run_cell(
            &cfg(ClusterLayout::C4x2w),
            &trace,
            PolicyKind::Focused,
            &RunOptions::default().with_epochs(2),
        )
        .unwrap();
        // The warm run has trained predictors (footprint > 0) and a
        // generally different schedule.
        assert!(warm.bank.trained_epochs() >= 2);
        assert!(cold.bank.trained_epochs() >= 1);
        // Criticality annotations only appear once trained.
        let warm_pred = warm
            .result
            .records
            .iter()
            .filter(|r| r.predicted_critical)
            .count();
        let cold_pred = cold
            .result
            .records
            .iter()
            .filter(|r| r.predicted_critical)
            .count();
        assert_eq!(cold_pred, 0, "first epoch is untrained");
        assert!(warm_pred > 0, "measured epoch sees trained predictions");
    }

    #[test]
    fn dependence_steering_beats_nothing_much_but_runs_everywhere() {
        // Smoke: the full ladder runs on every layout without deadlock.
        let trace = Benchmark::Gcc.generate(2, 2_500);
        for layout in ClusterLayout::ALL {
            for kind in [PolicyKind::Dependence, PolicyKind::Proactive] {
                let out = run_cell(&cfg(layout), &trace, kind, &RunOptions::default()).unwrap();
                assert!(out.cpi() > 0.1, "{layout} {kind:?}");
                assert_eq!(out.analysis.breakdown.total(), out.result.cycles);
            }
        }
    }

    #[test]
    fn loc_scheduling_reduces_critical_contention_on_spine_ribs() {
        // §4's headline: LoC scheduling halves contention-related stalls
        // on code with criticality ties (vpr's spine and ribs).
        let trace = Benchmark::Vpr.generate(3, 8_000);
        let machine = cfg(ClusterLayout::C8x1w);
        let opts = RunOptions::default().with_epochs(3);
        let focused = run_cell(&machine, &trace, PolicyKind::Focused, &opts).unwrap();
        let with_loc = run_cell(&machine, &trace, PolicyKind::FocusedLoc, &opts).unwrap();
        let f_cont = focused.analysis.breakdown.get(CostCategory::Contention);
        let l_cont = with_loc.analysis.breakdown.get(CostCategory::Contention);
        assert!(
            l_cont as f64 <= f_cont as f64 * 1.05,
            "LoC scheduling should not increase critical contention: {l_cont} vs {f_cont}"
        );
        // And performance should not regress meaningfully.
        assert!(
            with_loc.cpi() <= focused.cpi() * 1.03,
            "loc {} vs focused {}",
            with_loc.cpi(),
            focused.cpi()
        );
    }

    #[test]
    fn stall_over_steer_rescues_serial_chains() {
        // §5: gzip-like execute-critical code pays heavy forwarding under
        // load-balance steering; stalling keeps the chain collocated.
        let trace = Benchmark::Gzip.generate(1, 8_000);
        let machine = cfg(ClusterLayout::C8x1w);
        let opts = RunOptions::default().with_epochs(3);
        let without = run_cell(&machine, &trace, PolicyKind::FocusedLoc, &opts).unwrap();
        let with = run_cell(&machine, &trace, PolicyKind::StallOverSteer, &opts).unwrap();
        assert!(
            with.cpi() < without.cpi(),
            "stall-over-steer should speed up gzip: {} vs {}",
            with.cpi(),
            without.cpi()
        );
        let fwd_without = without.analysis.breakdown.get(CostCategory::FwdDelay);
        let fwd_with = with.analysis.breakdown.get(CostCategory::FwdDelay);
        assert!(
            fwd_with < fwd_without,
            "critical forwarding should drop: {fwd_with} vs {fwd_without}"
        );
    }

    #[test]
    fn normalized_cpi_is_relative() {
        let trace = Benchmark::Gap.generate(1, 2_000);
        let opts = RunOptions::default();
        let mono = run_cell(&cfg(ClusterLayout::C1x8w), &trace, PolicyKind::FocusedLoc, &opts)
            .unwrap();
        let clus = run_cell(&cfg(ClusterLayout::C4x2w), &trace, PolicyKind::FocusedLoc, &opts)
            .unwrap();
        let norm = clus.normalized_cpi(&mono);
        assert!(norm >= 0.9, "clustered should not beat monolithic: {norm}");
        assert!((mono.normalized_cpi(&mono) - 1.0).abs() < 1e-12);
    }
}

#[cfg(test)]
mod detector_training_tests {
    use super::*;
    use ccs_isa::ClusterLayout;
    use ccs_trace::Benchmark;

    #[test]
    fn token_detector_training_still_rescues_gzip() {
        // The hardware-realistic detector should deliver most of the
        // benefit of exact-graph training for stall-over-steer.
        let trace = Benchmark::Gzip.generate(1, 8_000);
        let machine =
            MachineConfig::micro05_baseline().with_layout(ClusterLayout::C8x1w);
        let exact_opts = RunOptions::default().with_epochs(3);
        let det_opts = RunOptions::default()
            .with_epochs(3)
            .with_token_detector(TokenDetector::default());
        let loc_only =
            run_cell(&machine, &trace, PolicyKind::FocusedLoc, &det_opts).unwrap();
        let exact = run_cell(&machine, &trace, PolicyKind::StallOverSteer, &exact_opts).unwrap();
        let detector =
            run_cell(&machine, &trace, PolicyKind::StallOverSteer, &det_opts).unwrap();
        assert!(
            detector.cpi() < loc_only.cpi(),
            "detector-trained stall-over-steer must beat not stalling: {} vs {}",
            detector.cpi(),
            loc_only.cpi()
        );
        assert!(
            detector.cpi() <= exact.cpi() * 1.15,
            "detector {} should be close to exact {}",
            detector.cpi(),
            exact.cpi()
        );
    }

    #[test]
    fn detector_training_is_deterministic() {
        let trace = Benchmark::Vpr.generate(2, 3_000);
        let machine = MachineConfig::micro05_baseline().with_layout(ClusterLayout::C4x2w);
        let opts = RunOptions::default().with_token_detector(TokenDetector::default());
        let a = run_cell(&machine, &trace, PolicyKind::FocusedLoc, &opts).unwrap();
        let b = run_cell(&machine, &trace, PolicyKind::FocusedLoc, &opts).unwrap();
        assert_eq!(a.result.cycles, b.result.cycles);
    }
}

#[cfg(test)]
mod utilization_tests {
    use super::*;
    use ccs_isa::ClusterLayout;
    use ccs_trace::Benchmark;

    #[test]
    fn gzip_speedup_comes_with_low_cluster_utilization() {
        // §7: "Much of the 20% speedup this policy achieves in gzip on the
        // 8-cluster machine occurs in long stretches of the execution
        // where only 3 clusters are used. This confirms our earlier
        // observation that cluster utilization is not a metric to be
        // optimized."
        let trace = Benchmark::Gzip.generate(1, 8_000);
        let machine =
            MachineConfig::micro05_baseline().with_layout(ClusterLayout::C8x1w);
        let opts = RunOptions::default().with_epochs(3);
        let focused = run_cell(&machine, &trace, PolicyKind::Focused, &opts).unwrap();
        let stalled =
            run_cell(&machine, &trace, PolicyKind::StallOverSteer, &opts).unwrap();
        // The faster policy uses FEWER clusters.
        let focused_active = focused.result.active_clusters(0.05);
        let stalled_active = stalled.result.active_clusters(0.05);
        assert!(
            stalled.cpi() < focused.cpi(),
            "stall {} vs focused {}",
            stalled.cpi(),
            focused.cpi()
        );
        assert!(
            stalled_active < focused_active,
            "stall uses {stalled_active} clusters vs focused {focused_active}"
        );
        // gzip leaves a meaningful share of the machine idle while faster
        // (the paper saw stretches with only 3 of 8 clusters used).
        assert!(stalled_active <= 6, "stalled active {stalled_active}");
    }
}
