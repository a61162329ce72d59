//! The serve daemon's opt-in approximate tier, end to end against a
//! live daemon: a cold `approx` submission returns the analytic
//! envelope fast (no evaluation, no queueing); escalating by
//! re-submitting without the flag returns the exact, cache-compatible
//! record; a later `approx` request for the now-cached cell answers
//! exactly. The journal and the daemon's hit/evaluated/approx counters
//! must agree with the story throughout.

use ccs_client::{ApproxAnswer, Client};
use ccs_core::PolicyKind;
use ccs_isa::ClusterLayout;
use ccs_serve::{load_journal, JournalEvent, ServeConfig, Server, WireCellSpec};
use ccs_trace::Benchmark;
use std::path::PathBuf;

const LEN: usize = 1_500;

fn tmp_journal(tag: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!(
        "ccs-serve-approx-journal-{tag}-{}",
        std::process::id()
    ));
    p
}

fn start_server(journal: PathBuf) -> (std::net::SocketAddr, std::thread::JoinHandle<()>) {
    let server = Server::bind(ServeConfig {
        workers: 2,
        queue_capacity: 64,
        cache_capacity: 64,
        journal: Some(journal),
        ..ServeConfig::default()
    })
    .expect("bind loopback");
    let addr = server.local_addr();
    let handle = std::thread::spawn(move || server.run().expect("serve until drain"));
    (addr, handle)
}

#[test]
fn approx_answers_envelope_then_escalates_to_exact() {
    let journal_path = tmp_journal("ladder");
    let (addr, handle) = start_server(journal_path.clone());
    let mut client = Client::connect(&addr.to_string()).expect("connect");

    let cell = WireCellSpec::new(
        Benchmark::Vpr,
        1,
        LEN,
        ClusterLayout::C4x2w,
        PolicyKind::Focused,
    )
    .with_epochs(2);

    // Cold cell, approx flag: the daemon must answer with the analytic
    // envelope without evaluating anything.
    let answer = client.submit_cell_approx(&cell).expect("approx submit");
    let (key, lo, hi, ipc_hi, confidence) = match answer {
        ApproxAnswer::Envelope {
            key,
            cycles_lo,
            cycles_hi,
            ipc_hi,
            confidence,
        } => (key, cycles_lo, cycles_hi, ipc_hi, confidence),
        ApproxAnswer::Exact(rec) => panic!("cold cell answered exactly: {rec:?}"),
    };
    assert!(lo > 50, "envelope must be non-trivial, got cycles_lo={lo}");
    assert!(lo <= hi, "envelope must be ordered: [{lo}, {hi}]");
    assert!(ipc_hi > 0.0, "IPC ceiling must be positive");
    assert!(
        ["high", "medium", "low"].contains(&confidence.as_str()),
        "confidence grade must be named: {confidence:?}"
    );

    let status = client.status().expect("status");
    assert_eq!(status.approx_answered, 1, "one envelope served");
    assert_eq!(status.cells_evaluated, 0, "approx must not simulate");
    assert_eq!(status.cells_admitted, 0, "approx must not enqueue");
    assert_eq!(status.cache_misses, 1, "the approx lookup missed");
    assert_eq!(status.cache_hits, 0);

    // Escalate: the same cell without the flag runs for real, and the
    // exact result must land inside the envelope just quoted.
    let exact = client.submit_cell(&cell).expect("exact submit");
    assert_eq!(exact.key, key, "both paths key the same cell");
    assert!(exact.is_ok(), "escalated cell must simulate cleanly");
    assert!(!exact.cached, "first evaluation is not a cache hit");
    assert!(
        lo <= exact.cycles && exact.cycles <= hi,
        "exact {} cycles must land inside the quoted envelope [{lo}, {hi}]",
        exact.cycles
    );
    let achieved_ipc = 1.0 / exact.cpi();
    assert!(
        achieved_ipc <= ipc_hi,
        "achieved IPC {achieved_ipc} must respect the quoted ceiling {ipc_hi}"
    );

    // Approx again: the daemon now holds the simulated record, and a
    // cached exact answer always beats an envelope.
    let again = client.submit_cell_approx(&cell).expect("approx resubmit");
    match again {
        ApproxAnswer::Exact(rec) => {
            assert!(rec.cached, "served from the result cache");
            assert_eq!(rec.cycles, exact.cycles, "bit-identical cycles");
            assert_eq!(rec.cpi_bits, exact.cpi_bits, "bit-identical CPI");
            assert_eq!(rec.digest, exact.digest, "bit-identical schedule digest");
        }
        ApproxAnswer::Envelope { .. } => panic!("cached cell must answer exactly"),
    }

    let status = client.status().expect("status");
    assert_eq!(status.approx_answered, 1, "a cache hit is not an envelope");
    assert_eq!(status.cells_evaluated, 1, "exactly the escalated run");
    assert_eq!(status.cache_hits, 1, "the approx resubmit hit");
    assert_eq!(status.cache_misses, 2, "cold approx + cold escalation");

    client.drain().expect("drain");
    handle.join().expect("daemon exits cleanly after drain");

    // The journal tells the same story: one approx event for our key,
    // one evaluated cell, no torn lines.
    let (events, skipped) = load_journal(&journal_path).expect("journal loads");
    std::fs::remove_file(&journal_path).ok();
    assert_eq!(skipped, 0, "no torn or foreign journal lines");
    let approx_events: Vec<&JournalEvent> = events
        .iter()
        .filter(|e| matches!(e, JournalEvent::ApproxServed { .. }))
        .collect();
    assert_eq!(approx_events.len(), 1, "one envelope, one journal event");
    assert!(
        matches!(approx_events[0], JournalEvent::ApproxServed { key: k, .. } if *k == key),
        "journaled approx key must match the served cell"
    );
    let done = events
        .iter()
        .filter(|e| matches!(e, JournalEvent::CellDone { .. }))
        .count();
    assert_eq!(done, 1, "exactly the escalated evaluation is journaled");
    assert!(
        matches!(events.last(), Some(JournalEvent::Drained { .. })),
        "journal ends with the drain"
    );
}

/// The dynamic policies are first-class wire citizens: an `approx`
/// submission for an adaptive cell answers with the envelope demoted
/// one confidence grade (the tightness tag is calibrated on the static
/// ladder), the escalated exact run lands inside that envelope, and a
/// resubmission is a bit-identical cache hit — for both dynamic kinds.
#[test]
fn dynamic_policies_ride_the_wire_with_demoted_confidence() {
    let journal_path = tmp_journal("dynamic");
    let (addr, handle) = start_server(journal_path.clone());
    let mut client = Client::connect(&addr.to_string()).expect("connect");

    let layout = ClusterLayout::C4x2w;
    let cell = WireCellSpec::new(Benchmark::Vpr, 1, LEN, layout, PolicyKind::Adaptive)
        .with_epochs(2);

    // The daemon predicts from the same trace and machine the wire spec
    // names, so the quoted grade must be exactly the local prediction's,
    // demoted one step.
    let machine = ccs_isa::MachineConfig::micro05_baseline().with_layout(layout);
    let trace = ccs_trace::TraceStore::global().get(Benchmark::Vpr, 1, LEN);
    let local = ccs_predict::predict(&machine, &trace);
    let expected = local.demoted();

    let answer = client.submit_cell_approx(&cell).expect("approx submit");
    let (lo, hi, confidence) = match answer {
        ApproxAnswer::Envelope {
            cycles_lo,
            cycles_hi,
            confidence,
            ..
        } => (cycles_lo, cycles_hi, confidence),
        ApproxAnswer::Exact(rec) => panic!("cold cell answered exactly: {rec:?}"),
    };
    assert_eq!(
        confidence,
        expected.confidence.name(),
        "wire confidence must be the locally predicted grade, demoted"
    );
    assert_eq!((lo, hi), (expected.cycles_lo, expected.cycles_hi));

    // Escalate both dynamic kinds to exact evaluations.
    let exact = client.submit_cell(&cell).expect("exact adaptive submit");
    assert!(exact.is_ok(), "adaptive cell must simulate cleanly");
    assert!(
        lo <= exact.cycles && exact.cycles <= hi,
        "exact {} cycles must land inside the quoted envelope [{lo}, {hi}]",
        exact.cycles
    );
    let ineff = WireCellSpec::new(Benchmark::Vpr, 1, LEN, layout, PolicyKind::IneffSteer)
        .with_epochs(2);
    let ineff_exact = client.submit_cell(&ineff).expect("exact ineff submit");
    assert!(ineff_exact.is_ok(), "ineff-steer cell must simulate cleanly");
    assert_ne!(
        exact.key, ineff_exact.key,
        "the two dynamic kinds must key distinct cells"
    );

    // Resubmissions are cache hits, bit for bit.
    let again = client.submit_cell(&cell).expect("adaptive resubmit");
    assert!(again.cached, "served from the result cache");
    assert_eq!(again.cycles, exact.cycles, "bit-identical cycles");
    assert_eq!(again.cpi_bits, exact.cpi_bits, "bit-identical CPI");
    assert_eq!(again.digest, exact.digest, "bit-identical schedule digest");

    client.drain().expect("drain");
    handle.join().expect("daemon exits cleanly after drain");
    std::fs::remove_file(&journal_path).ok();
}

/// A seeded mix of `n` cells over every benchmark, the clustered
/// layouts, two cheap policies and six seeds, so some cells repeat.
fn seeded_mix(seed: u64, n: usize) -> Vec<WireCellSpec> {
    const LAYOUTS: [ClusterLayout; 3] = [
        ClusterLayout::C2x4w,
        ClusterLayout::C4x2w,
        ClusterLayout::C8x1w,
    ];
    const POLICIES: [PolicyKind; 2] = [PolicyKind::Focused, PolicyKind::FocusedLoc];
    let mut state = seed;
    let mut next = |bound: usize| {
        // splitmix64
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ((z ^ (z >> 31)) % bound as u64) as usize
    };
    (0..n)
        .map(|_| {
            let bench = Benchmark::ALL[next(Benchmark::ALL.len())];
            let layout = LAYOUTS[next(LAYOUTS.len())];
            let policy = POLICIES[next(POLICIES.len())];
            let seed = 1 + next(6) as u64;
            WireCellSpec::new(bench, seed, LEN, layout, policy)
        })
        .collect()
}

/// The envelope tier is measurably cheaper than simulation: one seeded
/// cell mix, sent to a fresh daemon as approx submissions and then to
/// another fresh daemon as full ones, answers faster as envelopes.
#[test]
fn envelope_tier_answers_a_cell_mix_faster_than_simulation() {
    let cells = seeded_mix(7, 24);

    let journal_path = tmp_journal("mix-approx");
    let (addr, handle) = start_server(journal_path.clone());
    let mut client = Client::connect(&addr.to_string()).expect("connect");
    let started = std::time::Instant::now();
    for cell in &cells {
        match client.submit_cell_approx(cell).expect("approx submit") {
            ApproxAnswer::Envelope {
                cycles_lo,
                cycles_hi,
                ..
            } => assert!(
                cycles_lo <= cycles_hi,
                "envelope must be ordered: [{cycles_lo}, {cycles_hi}]"
            ),
            ApproxAnswer::Exact(rec) => panic!("fresh daemon answered exactly: {rec:?}"),
        }
    }
    let approx_wall = started.elapsed();
    let status = client.status().expect("status");
    assert_eq!(status.cells_evaluated, 0, "approx must not simulate");
    client.drain().expect("drain");
    handle.join().expect("daemon exits cleanly after drain");
    std::fs::remove_file(&journal_path).ok();

    let journal_path = tmp_journal("mix-full");
    let (addr, handle) = start_server(journal_path.clone());
    let mut client = Client::connect(&addr.to_string()).expect("connect");
    let started = std::time::Instant::now();
    for cell in &cells {
        let record = client.submit_cell(cell).expect("full submit");
        assert!(
            record.is_ok(),
            "full simulation must complete ok: {record:?}"
        );
    }
    let full_wall = started.elapsed();
    client.drain().expect("drain");
    handle.join().expect("daemon exits cleanly after drain");
    std::fs::remove_file(&journal_path).ok();

    println!(
        "{} cells: approx {approx_wall:?}, full {full_wall:?}",
        cells.len()
    );
    assert!(
        approx_wall < full_wall,
        "envelopes ({approx_wall:?}) must be cheaper than simulation ({full_wall:?})"
    );
}
