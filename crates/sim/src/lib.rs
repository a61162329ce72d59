//! Cycle-level clustered out-of-order superscalar timing simulator.
//!
//! This crate implements the paper's simulated machine family from
//! scratch: a monolithic front end (8-wide fetch, 13 stages to dispatch,
//! 16-bit gshare) feeding a partitioned execution core — 1, 2, 4 or 8
//! clusters, each a self-contained dynamically-scheduled core with its own
//! scheduling window and issue ports, connected by a global bypass network
//! with a configurable forwarding latency (Figure 1 / Table 1 of the
//! paper).
//!
//! Cluster assignment ([`SteeringPolicy::steer`]) and scheduling priority
//! ([`SteeringPolicy::priority`]) are pluggable: every policy the paper
//! studies (dependence-based, focused, LoC-scheduled, stall-over-steer,
//! proactive load-balancing) is an implementation of the same trait, in
//! the `ccs-core` crate.
//!
//! The simulator records, per dynamic instruction, the cycle of every
//! pipeline event *and the binding constraint* that determined it
//! ([`DispatchBound`], [`ReadyBound`], [`CommitBound`]), which is what
//! lets `ccs-critpath` reconstruct the Fields dependence graph exactly.
//!
//! # Example
//!
//! ```
//! use ccs_isa::{ClusterLayout, MachineConfig};
//! use ccs_sim::{simulate, policies::LeastLoaded};
//! use ccs_trace::Benchmark;
//!
//! let trace = Benchmark::Gzip.generate(1, 5_000);
//! let config = MachineConfig::micro05_baseline().with_layout(ClusterLayout::C4x2w);
//! let result = simulate(&config, &trace, &mut LeastLoaded::default()).unwrap();
//! assert!(result.cpi() > 0.1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod check;
mod engine;
pub mod policies;
mod policy;
mod record;
mod result;
pub mod viz;

pub use check::{check_invariants, verify, Violation};
pub use engine::{simulate, simulate_budgeted, simulate_observed, SimBudget, SimError};
// Observability vocabulary, re-exported so engine callers need not depend
// on `ccs-obs` directly.
pub use ccs_obs::{DispatchStall, MetricsSink, NullSink, RunObserver, SimMetrics};
pub use policy::{
    ProducerInfo, SteerCause, SteerDecision, SteerOutcome, SteerView, SteeringPolicy,
};
pub use record::{CommitBound, Cycle, DispatchBound, InstRecord, ReadyBound};
pub use result::{IlpCensus, SimResult};
