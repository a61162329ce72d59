//! The paper's steering and scheduling policies, and the experiment
//! driver that evaluates them.
//!
//! This crate is the reproduction's *core contribution* layer. On top of
//! the `ccs-sim` substrate it implements the full policy ladder of the
//! paper's Figure 14:
//!
//! 1. **Dependence-based steering** (Kemp & Franklin) — collocate a
//!    consumer with a pending producer; load-balance when the desired
//!    cluster is full.
//! 2. **Focused steering and scheduling** (Fields et al.) — prefer the
//!    *predicted-critical* producer's cluster and issue predicted-critical
//!    instructions first. The paper's "state of the art" baseline.
//! 3. **`l` — LoC-based scheduling** (§4): replace the binary criticality
//!    priority with the 16-level *likelihood of criticality*, letting the
//!    scheduler prioritize *among* critical instructions.
//! 4. **`s` — stall-over-steer** (§5): when an execute-critical
//!    instruction's desired cluster is full (LoC ≥ 30%), stall dispatch
//!    instead of load-balancing it away from its producer.
//! 5. **`p` — proactive load-balancing** (§6): push non-critical
//!    consumers away from their producers (steer only one consumer to a
//!    producer; learned load-balance candidates; a most-critical-consumer
//!    override keeps the truly critical consumer collocated).
//!
//! All five are configurations of one [`PaperPolicy`] driven by a shared
//! [`PredictorBank`] (Fields binary predictor + LoC predictor + learned
//! load-balance candidates). [`run_cell`] runs the paper's two-phase
//! methodology: simulate, extract the critical path, train the
//! predictors, re-simulate — mirroring the online-converged predictor of
//! the hardware proposal with a deterministic equivalent.
//!
//! # Example
//!
//! ```
//! use ccs_core::{run_cell, PolicyKind, RunOptions};
//! use ccs_isa::{ClusterLayout, MachineConfig};
//! use ccs_trace::Benchmark;
//!
//! let trace = Benchmark::Vpr.generate(1, 4_000);
//! let cfg = MachineConfig::micro05_baseline().with_layout(ClusterLayout::C4x2w);
//! let focused = run_cell(&cfg, &trace, PolicyKind::Focused, &RunOptions::default()).unwrap();
//! let with_loc = run_cell(&cfg, &trace, PolicyKind::FocusedLoc, &RunOptions::default()).unwrap();
//! assert!(focused.result.cpi() > 0.0 && with_loc.result.cpi() > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod adaptive;
mod bank;
mod baselines;
pub mod checkpoint;
pub mod error;
mod experiment;
pub mod grid;
pub mod json;
mod policy;
pub mod queue;
pub mod shard;

pub use adaptive::{AdaptivePolicy, CellPolicy, IneffPolicy, WindowSignals};
pub use bank::{LocMode, PredictorBank};
pub use baselines::{FirstConsumer, ModN};
pub use checkpoint::cell_key;
pub use error::CcsError;
pub use queue::{Admission, BoundedQueue};
pub use shard::ShardMap;
pub use experiment::{
    run_cell, run_custom_cancellable, CellOutcome, RunOptions, TrainingSource,
};
pub use grid::{
    aggregate_breakdown, aggregate_metrics, auto_threads, cells_run, fetch_cell_trace,
    parallel_map, run_grid, run_grid_resilient, CellResult, CellSpec, CellStatus, GridRequest,
    Resilience,
};
pub use policy::{PaperPolicy, PolicyConfig, PolicyKind, ProactiveConfig};
