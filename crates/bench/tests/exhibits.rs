//! The exhibit registry and its front door, `all_figures`: the pinned
//! exhibit order, the benchmark's copy of it, refused selections, and a
//! reader that closes the pipe early.

use ccs_bench::figures::EXHIBITS;
use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};

fn all_figures(args: &[&str]) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_all_figures"));
    cmd.args(args).env("CCS_LEN", "500");
    cmd
}

/// The names are unique and in the pinned print order, seven exhibits
/// have a CSV form, and the benchmark's `figures` workload, which keeps
/// its own copy of the list, names the same spans in the same order.
#[test]
fn the_registry_order_is_pinned_and_the_benchmark_follows_it() {
    let names: Vec<&str> = EXHIBITS.iter().map(|e| e.name).collect();
    assert_eq!(
        names.join(" "),
        "tab1 fig2 fig2_latency_sweep fig3 fig4 fig5 fig6 fig8 fig14 adaptive_policy fig15 \
         sec2_global_comm sec4_listsched sec6_consumers slack_distribution finite_l2_check \
         ablate_stall_threshold ablate_loc_levels ablate_interconnect ablate_proactive \
         ablate_window scenario_gallery"
    );
    let distinct: std::collections::HashSet<&str> = names.iter().copied().collect();
    assert_eq!(distinct.len(), names.len());
    let csv: Vec<&str> = EXHIBITS
        .iter()
        .filter(|e| e.csv.is_some())
        .map(|e| e.name)
        .collect();
    assert_eq!(
        csv.join(" "),
        "fig2 fig4 fig8 fig14 adaptive_policy fig15 scenario_gallery"
    );

    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../examples/benchmark/src/figures.rs"
    );
    let source = std::fs::read_to_string(path).expect("read the benchmark's figures workload");
    let spans: Vec<&str> = source
        .split("\"figures.")
        .skip(1)
        .filter_map(|rest| rest.split_once('"').map(|(name, _)| name))
        .collect();
    assert_eq!(spans, names);
}

#[test]
fn bad_selections_and_thread_counts_exit_2() {
    let valid: Vec<&str> = EXHIBITS.iter().map(|e| e.name).collect();
    let valid = format!("valid names: {}", valid.join(", "));
    for (args, says) in [
        (&["--only", "tab1", "--only", "fig7"][..], valid.as_str()),
        (
            &["--only", "fig14", "--only", "fig3", "--csv"],
            "`fig3` has no CSV form",
        ),
        (&["--threads", "abc"], "--threads"),
        (&["--only", "tab1", "--threads"], "--threads"),
    ] {
        let out = all_figures(args).output().expect("spawn all_figures");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?}");
        assert!(stderr.contains(says), "{args:?}: {stderr}");
    }
}

#[test]
fn a_reader_closing_the_pipe_early_is_not_a_failure() {
    let mut child = all_figures(&["--only", "tab1", "--only", "fig3"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn all_figures");
    let mut line = String::new();
    // Read one line; dropping the reader closes the pipe.
    BufReader::new(child.stdout.take().expect("piped stdout"))
        .read_line(&mut line)
        .expect("read the first line");
    assert!(line.contains("full reproduction run"), "{line}");
    let out = child.wait_with_output().expect("wait for all_figures");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}
