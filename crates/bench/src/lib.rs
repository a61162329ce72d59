//! The figure harness: code that regenerates every table and figure of
//! the paper's evaluation.
//!
//! Each exhibit has a library function in [`figures`] producing a
//! printable report. [`figures::EXHIBITS`] lists them all in print
//! order; the `all_figures` binary renders that list, or the part of it
//! selected with `--only NAME`.
//!
//! Trace length and seeds are controlled by [`HarnessOptions`]
//! (environment variables `CCS_LEN`, `CCS_SEED`, `CCS_EPOCHS`), so the
//! harness can be scaled from smoke-test to full runs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod figures;
mod obsreport;
mod options;
mod out;
mod report;
mod table;

pub use obsreport::cpi_stack_report;
pub use options::{scenario_target, servers_target, HarnessOptions};
pub use out::print_stdout;
pub use report::make_report;
pub use table::TextTable;
