//! Runs the headline exhibits and writes a markdown reproduction report
//! to stdout (redirect into `results/REPORT.md`).
use ccs_bench::{make_report, HarnessOptions};

fn main() {
    let opts = HarnessOptions::from_env_and_args();
    print!("{}", make_report(&opts));
}
