//! One cell's two-phase evaluation, called layer by layer through each
//! crate's public functions so every layer gets its own span. It makes
//! the same calls as `ccs_core::run_cell` for default run options, which
//! the traced runs check by comparing cycles and CPI bits.

use crate::spans::Tracer;
use ccs_core::{CellOutcome, CellPolicy, CellSpec, PredictorBank, TrainingSource};
use ccs_sim::{simulate_budgeted, SimBudget};
use ccs_trace::TraceStore;

pub fn evaluate_traced(
    t: &mut Tracer,
    store: &TraceStore,
    spec: &CellSpec,
) -> Result<CellOutcome, String> {
    let options = spec.options;
    if options.training != TrainingSource::ExactGraph || options.checked || options.metrics {
        return Err(format!(
            "traced evaluation covers default run options only: {options:?}"
        ));
    }
    let trace = t.span("trace.generate", |_| {
        ccs_core::fetch_cell_trace(store, spec)
    });
    t.span("trace.precompute", |_| trace.memory_deps().len());
    let policy_config = spec.policy_config.unwrap_or_else(|| spec.policy.config());
    let budget = SimBudget {
        max_cycles: options.cycle_budget,
        cancel: None,
    };
    let mut bank = PredictorBank::new(options.loc_mode, options.seed);
    let mut last = None;
    for _ in 0..options.epochs.max(1) {
        let (policy, result) = t
            .span("sim.engine", |_| {
                let mut policy =
                    CellPolicy::build(spec.policy, policy_config, bank, spec.policy.name());
                simulate_budgeted(&spec.config, &trace, &mut policy, &budget).map(|r| (policy, r))
            })
            .map_err(|e| format!("{}: {e}", spec.workload_label()))?;
        let analysis = t.span("critpath.analyze", |_| {
            ccs_critpath::analyze(&trace, &result)
        });
        bank = t.span("core.train", |_| {
            let mut bank = policy.into_bank();
            bank.train_criticality(&trace, &analysis.e_critical);
            bank
        });
        last = Some((result, analysis));
    }
    let (result, analysis) = last.expect("at least one epoch ran");
    Ok(CellOutcome {
        kind: spec.policy,
        result,
        analysis,
        bank,
        metrics: None,
    })
}
