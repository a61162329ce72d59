//! The figure harness: code that regenerates every table and figure of
//! the paper's evaluation.
//!
//! Each exhibit has a library function in [`figures`] producing a
//! printable report, and a binary (`src/bin/…`) that runs it:
//!
//! | Binary | Paper exhibit |
//! |---|---|
//! | `tab1_config` | Table 1 — machine parameters |
//! | `fig2_idealized` | Figure 2 — idealized list scheduling (plus the footnote-3 latency sweep) |
//! | `fig4_focused` | Figure 4 — focused steering & scheduling |
//! | `fig5_breakdown` | Figure 5 — critical-path CPI breakdown |
//! | `fig6_lost_cycles` | Figure 6 — classified contention & forwarding events |
//! | `fig8_loc_dist` | Figure 8 — distribution of LoC values |
//! | `fig14_policies` | Figure 14 — the policy ladder |
//! | `fig15_ilp` | Figure 15 — achieved vs available ILP |
//! | `sec2_global_comm` | §2.1 — global values per instruction |
//! | `sec4_listsched_loc` | §4 — list scheduler with LoC / binary knowledge |
//! | `sec6_consumers` | §6 — producer/consumer criticality statistics |
//! | `all_figures` | everything above, in order |
//!
//! Trace length and seeds are controlled by [`HarnessOptions`]
//! (environment variables `CCS_LEN`, `CCS_SEED`, `CCS_EPOCHS`), so the
//! harness can be scaled from smoke-test to full runs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod figures;
mod obsreport;
mod options;
mod report;
mod table;

pub use obsreport::cpi_stack_report;
pub use options::{scenario_target, servers_target, HarnessOptions};
pub use report::make_report;
pub use table::TextTable;
