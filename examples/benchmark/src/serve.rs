//! The served workloads. Each spawns the shipped `ccs-serve` daemon (two
//! workers, journaling) and drives it from this process over at most two
//! connections:
//!
//! - `serve_miss`: cells nobody asked for before, len 1 500. A
//!   closed-loop phase (two connections, 8-cell grids) measures capacity;
//!   two open-loop phases of seeded Poisson arrivals follow, timed from
//!   each cell's scheduled arrival: a steady one at a fixed low rate that
//!   gives the end-to-end latency, and a loaded one at a fixed share of
//!   the measured capacity, where cells queue.
//! - `serve_hot`: a warmed daemon; one closed-loop connection, 75% exact
//!   resubmissions (cache hits) and 25% `approx` requests for cells never
//!   simulated. Nothing simulates or digests.
//! - `serve_connect`: one fresh connection per cache hit, in sequence —
//!   the accept loop's cost.
//!
//! Traced runs replay a seeded sample of the exact requests the run
//! sent through the serve layers in-process and report each layer's
//! share of the measured latency of those requests.

use crate::layers::evaluate_traced;
use crate::report::Report;
use crate::spans::Tracer;
use crate::stats::{latency_summary, median, percentile, poisson_schedule, tail_percentile, Rng};
use crate::Ctx;
use ccs_client::{ApproxAnswer, Client};
use ccs_core::checkpoint::{cell_key, CheckpointRecord};
use ccs_core::{CellResult, CellSpec, CellStatus, PolicyKind};
use ccs_isa::ClusterLayout;
use ccs_predict::{Confidence, Prediction};
use ccs_serve::{
    Journal, JournalEvent, Request, Response, ResultCache, StatusReply, WireCellRecord,
    WireCellSpec,
};
use ccs_trace::{Benchmark, Trace, TraceStore};
use std::collections::HashSet;
use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::Mutex;
use std::time::{Duration, Instant};

const LEN: usize = 1_500;
const WORKERS: &str = "2";
/// Each boot waits a uniformly random part of the accept loop's 20 ms
/// polling interval for its first connection; the median of several
/// boots steadies that. A `serve_miss` boot warms only 16 cells, so the
/// wait is a large share of it and it takes more boots.
const MISS_SETUP_REPS: usize = 21;
const HOT_SETUP_REPS: usize = 7;
/// Cells per closed-loop grid submission.
const GRID_CELLS: usize = 8;
/// Offered load of the steady open-loop phase, cells/s: a quarter of
/// the daemon's capacity on a 2-vCPU host, and still under half of it
/// when a shared host runs at half speed, so latency follows service
/// time instead of blowing up near saturation.
const OPEN_RATE: f64 = 200.0;
/// Offered load of the loaded open-loop phase, as a share of the
/// capacity the closed loop just measured: cells queue behind each
/// other, and the rate follows the host's speed instead of saturating a
/// slow host.
const LOADED_SHARE: f64 = 0.6;
/// Shares of `serve_miss` run time spent in the closed-loop and the
/// loaded phases (the steady phase has the rest), and the capacity
/// (cells/s) their fixed cell counts are sized for. Fixed counts keep
/// the work, and the daemon's trace-store footprint, the same on a fast
/// or a slow host.
const CLOSED_SHARE: f64 = 0.2;
const LOADED_TIME_SHARE: f64 = 0.2;
const SIZING_RATE: f64 = 750.0;
const MISS_POLICIES: [PolicyKind; 3] = [
    PolicyKind::Focused,
    PolicyKind::FocusedLoc,
    PolicyKind::StallOverSteer,
];
/// Distinct sample seeds per benchmark in the `serve_miss` mix.
const MISS_SEEDS: usize = 10_000;
const HOT_POLICIES: [PolicyKind; 2] = [PolicyKind::Focused, PolicyKind::StallOverSteer];
const HOT_HIT_SHARE: f64 = 0.75;
/// Sample seeds per benchmark of the never-simulated `approx` cells.
const APPROX_SEEDS: u64 = 4;
/// One in this many sent cells is re-run in-process after the timed
/// region and must match the daemon's record.
const CHECK_EVERY: usize = 16;
/// About this many requests are replayed layer by layer in a traced run
/// of `serve_hot` or `serve_connect`.
const REPLAY_TARGET: usize = 4_096;
/// About this many open-loop grids are replayed in a traced `serve_miss`
/// run; each evaluates its cells, so they cost far more than hits.
const REPLAY_GRIDS: usize = 256;
/// An open-loop arrival sent later than this after its due time counts
/// as a late arrival (the generator, not the daemon, delayed it).
const LATE_S: f64 = 0.005;

/// The spawned daemon. Dropping it kills and reaps the process.
struct Daemon {
    child: Child,
    _stdout: BufReader<ChildStdout>,
    addr: String,
    journal: PathBuf,
}

impl Daemon {
    fn spawn(journal: PathBuf) -> Result<Daemon, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let bin = exe.with_file_name("ccs-serve");
        let mut child = Command::new(&bin)
            .args(["--addr", "127.0.0.1:0", "--workers", WORKERS, "--journal"])
            .arg(&journal)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut daemon = Daemon {
            child,
            _stdout: BufReader::new(stdout),
            addr: String::new(),
            journal,
        };
        let mut line = String::new();
        daemon
            ._stdout
            .read_line(&mut line)
            .map_err(|e| format!("read daemon banner: {e}"))?;
        daemon.addr = line
            .trim()
            .strip_prefix("listening on ")
            .ok_or_else(|| format!("unexpected daemon banner {line:?}"))?
            .to_string();
        Ok(daemon)
    }

    fn peak_rss_mb(&self) -> Result<f64, String> {
        crate::report::peak_rss_mb(&format!("/proc/{}/status", self.child.id()))
    }

    /// Drains the daemon and waits for it to exit 0.
    fn stop(mut self) -> Result<(), String> {
        Client::connect(&self.addr)
            .and_then(|mut c| c.drain())
            .map_err(|e| format!("drain: {e}"))?;
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("daemon exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(10))
                }
                Ok(None) => return Err("daemon still running 30 s after drain".into()),
                Err(e) => return Err(format!("wait for daemon: {e}")),
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        let _ = std::fs::remove_file(&self.journal);
    }
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// A connection whose handler is already running: the status round trip
/// absorbs the accept loop's polling delay before any timed request.
fn connect_ready(addr: &str) -> Result<Client, String> {
    let mut client = Client::connect(addr).map_err(err)?;
    client.status().map_err(err)?;
    Ok(client)
}

fn status(addr: &str) -> Result<(StatusReply, u64), String> {
    let mut client = Client::connect(addr).map_err(err)?;
    let status = client.status().map_err(err)?;
    let metrics = client.metrics_json().map_err(err)?;
    let peak = crate::json::u64_field(&metrics, "queue_depth_peak")
        .ok_or("metrics reply has no queue_depth_peak")?;
    Ok((status, peak))
}

/// Spawns the daemon and warms it, `reps` times; returns the last
/// daemon, the warm cells' records, and the median set-up time.
fn boot(
    ctx: &Ctx,
    reps: usize,
    warm: &[WireCellSpec],
    approx: &[WireCellSpec],
) -> Result<(Daemon, Vec<WireCellRecord>, f64), String> {
    let mut times = Vec::new();
    let mut last: Option<(Daemon, Vec<WireCellRecord>)> = None;
    for rep in 0..reps {
        if let Some((daemon, _)) = last.take() {
            daemon.stop()?;
        }
        let journal = ctx.out_dir.join(format!(
            "{}-{}-{rep}.journal",
            ctx.workload,
            std::process::id()
        ));
        let start = Instant::now();
        let daemon = Daemon::spawn(journal)?;
        let mut client = Client::connect(&daemon.addr).map_err(err)?;
        let mut records = Vec::with_capacity(warm.len());
        for chunk in warm.chunks(GRID_CELLS) {
            let grid = client.submit_grid(chunk, |_| {}).map_err(err)?;
            if grid.exit_code() != 0 {
                return Err(format!("warm-up grid did not complete: {grid:?}"));
            }
            records.extend(grid.records.into_iter().flatten());
        }
        for cell in approx {
            client.submit_cell_approx(cell).map_err(err)?;
        }
        times.push(start.elapsed().as_secs_f64());
        last = Some((daemon, records));
    }
    let (daemon, records) = last.expect("reps > 0");
    Ok((daemon, records, median(&times)))
}

/// The daemon's answer to one cell, as `CellSpec::run` computes it
/// in-process: the correctness reference for sampled records.
fn check_record(report: &mut Report, cell: &WireCellSpec, record: &WireCellRecord) {
    let spec = match cell.to_cell() {
        Ok(spec) => spec,
        Err(e) => return report.fail(format!("cell {cell:?}: {e}")),
    };
    let local = spec.run();
    let want = local
        .status
        .outcome()
        .map(|o| (o.result.cycles, o.cpi().to_bits()));
    if record.key != cell_key(&spec) || want != Some((record.cycles, record.cpi_bits)) {
        report.fail(format!(
            "daemon record {record:?} differs from in-process {want:?}"
        ));
    }
}

/// The envelope the daemon's `approx` path serves for `spec`.
fn envelope(spec: &CellSpec, trace: &Trace) -> Prediction {
    let p = ccs_predict::predict(&spec.config, trace).with_cycle_budget(spec.options.cycle_budget);
    if spec.policy.is_dynamic() {
        p.demoted()
    } else {
        p
    }
}

/// A reply reduced to the fields the correctness check compares, so a
/// run keeps hundreds of thousands of them cheaply.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Answer {
    Exact {
        cached: bool,
        cycles: u64,
        cpi_bits: u64,
    },
    Envelope {
        cycles_lo: u64,
        cycles_hi: u64,
        ipc_hi_bits: u64,
        confidence: Option<Confidence>,
    },
    Refused,
}

impl Answer {
    fn of(reply: Result<ApproxAnswer, ccs_core::CcsError>) -> Answer {
        match reply {
            Ok(ApproxAnswer::Exact(r)) => Answer::Exact {
                cached: r.cached,
                cycles: r.cycles,
                cpi_bits: r.cpi_bits,
            },
            Ok(ApproxAnswer::Envelope {
                cycles_lo,
                cycles_hi,
                ipc_hi,
                confidence,
                ..
            }) => Answer::Envelope {
                cycles_lo,
                cycles_hi,
                ipc_hi_bits: ipc_hi.to_bits(),
                confidence: Confidence::from_name(&confidence),
            },
            Err(_) => Answer::Refused,
        }
    }

    fn hit(record: &WireCellRecord) -> Answer {
        Answer::Exact {
            cached: true,
            cycles: record.cycles,
            cpi_bits: record.cpi_bits,
        }
    }

    fn envelope(p: &Prediction) -> Answer {
        Answer::Envelope {
            cycles_lo: p.cycles_lo,
            cycles_hi: p.cycles_hi,
            ipc_hi_bits: p.ipc_hi.to_bits(),
            confidence: Some(p.confidence),
        }
    }
}

/// The serve layers, replayed in-process with the daemon's state.
struct Replay {
    store: TraceStore,
    cache: ResultCache,
    journal: Journal,
}

impl Replay {
    fn new(ctx: &Ctx) -> Result<Replay, String> {
        let path = ctx.out_dir.join(format!(
            "{}-{}-replay.journal",
            ctx.workload,
            std::process::id()
        ));
        Ok(Replay {
            store: TraceStore::new(),
            cache: ResultCache::new(4096),
            journal: Journal::create(path, "replay", 2, 256).map_err(err)?,
        })
    }

    /// Runs one request frame through decode, lookup, evaluation or
    /// envelope, journal and reply encoding, with a span per layer, and
    /// returns the decoded replies.
    fn request(&self, t: &mut Tracer, request: &Request) -> Result<Vec<Response>, String> {
        let payload = t.span("client.request_encode", |_| request.encode());
        let decoded = t
            .span("serve.request_decode", |_| Request::decode(&payload))
            .map_err(err)?;
        let (id, cells, approx, grid) = match decoded {
            Request::SubmitCell { id, approx, cell } => (id, vec![cell], approx, false),
            Request::SubmitGrid { id, cells } => (id, cells, false, true),
            other => return Err(format!("replay of {other:?}")),
        };
        let specs = t
            .span("serve.request_decode", |_| {
                cells
                    .iter()
                    .map(WireCellSpec::to_cell)
                    .collect::<Result<Vec<_>, _>>()
            })
            .map_err(err)?;
        let mut replies = Vec::with_capacity(specs.len() + 1);
        for (index, spec) in specs.iter().enumerate() {
            let key = t.span("core.cell_key", |_| cell_key(spec));
            let reply = match t.span("serve.cache", |_| self.cache.get(&key)) {
                Some(record) => Response::Cell {
                    id,
                    record: WireCellRecord::from_checkpoint(index, &record, true),
                },
                None if approx => {
                    let trace = t.span("trace.generate", |_| {
                        ccs_core::fetch_cell_trace(&self.store, spec)
                    });
                    let p = t.span("predict.envelope", |_| envelope(spec, &trace));
                    t.span("serve.journal_append", |_| {
                        self.journal.append(JournalEvent::ApproxServed {
                            seq: 0,
                            key: key.clone(),
                        })
                    });
                    Response::Approx {
                        id,
                        key,
                        cycles_lo: p.cycles_lo,
                        cycles_hi: p.cycles_hi,
                        ipc_hi_bits: p.ipc_hi.to_bits(),
                        confidence: p.confidence.name().to_string(),
                    }
                }
                None => {
                    let outcome = evaluate_traced(t, &self.store, spec)?;
                    let result = CellResult {
                        spec: *spec,
                        status: CellStatus::Completed(Box::new(outcome)),
                    };
                    let record = t.span("core.digest", |_| CheckpointRecord::from_result(&result));
                    t.span("serve.cache", |_| self.cache.put(&record));
                    t.span("serve.journal_append", |_| {
                        self.journal.append(JournalEvent::CellDone {
                            seq: 0,
                            key: record.key.clone(),
                            status: record.status.clone(),
                            attempts: u64::from(record.attempts),
                            cycles: record.cycles,
                            cpi_bits: record.cpi_bits,
                            digest: record.digest,
                            error: record.error.clone(),
                        })
                    });
                    Response::Cell {
                        id,
                        record: WireCellRecord::from_checkpoint(index, &record, false),
                    }
                }
            };
            replies.push(reply);
        }
        if grid {
            t.span("serve.journal_append", |_| {
                self.journal.append(JournalEvent::Admitted {
                    seq: 0,
                    id,
                    cells: specs.len() as u64,
                    cached: 0,
                })
            });
            replies.push(Response::GridDone {
                id,
                cells: specs.len(),
                ok: specs.len(),
                failed: 0,
                timed_out: 0,
                cached: 0,
            });
        }
        replies
            .iter()
            .map(|reply| {
                let frame = t.span("serve.response_encode", |_| reply.encode());
                t.span("client.response_decode", |_| Response::decode(&frame))
                    .map_err(err)
            })
            .collect()
    }
}

impl Drop for Replay {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(self.journal.path());
    }
}

/// Replies whose cell records disagree with what the daemon sent.
fn replay_mismatch(replies: &[Response], records: &[Option<WireCellRecord>]) -> bool {
    let replayed = replies.iter().filter_map(|r| match r {
        Response::Cell { record, .. } => Some(record),
        _ => None,
    });
    records.iter().zip(replayed).any(|(sent, replayed)| {
        sent.as_ref().map(|s| (&s.key, s.cycles, s.cpi_bits))
            != Some((&replayed.key, replayed.cycles, replayed.cpi_bits))
    })
}

/// Status counters over the timed region, as per-layer context.
fn set_status_deltas(report: &mut Report, before: &StatusReply, after: &StatusReply, peak: u64) {
    let hits = after.cache_hits - before.cache_hits;
    let misses = after.cache_misses - before.cache_misses;
    report.set(
        "serve.cache_hit_pct",
        100.0 * hits as f64 / (hits + misses).max(1) as f64,
    );
    report.set("serve.queue_depth_peak", peak as f64);
    report.set(
        "serve.admission_rejects",
        (after.admission_rejects - before.admission_rejects) as f64,
    );
    report.set(
        "serve.approx_answered",
        (after.approx_answered - before.approx_answered) as f64,
    );
    report.set(
        "core.grid_cells",
        (after.cells_evaluated - before.cells_evaluated) as f64,
    );
}

// ---------------------------------------------------------------- miss

/// The `serve_miss` cell stream: (benchmark, sample seed) pairs drawn
/// without repetition, each expanded to its nine layout × policy cells
/// in shuffled order, so consecutive cells share a trace the way a
/// parameter sweep does while no cell repeats.
struct MissMix {
    rng: Rng,
    used: HashSet<(usize, u64)>,
    group: Vec<WireCellSpec>,
}

impl MissMix {
    fn new(seed: u64) -> MissMix {
        MissMix {
            rng: Rng::new(seed ^ 0x6d15_5000),
            used: HashSet::new(),
            group: Vec::new(),
        }
    }

    fn next_cell(&mut self) -> WireCellSpec {
        if self.group.is_empty() {
            assert!(
                self.used.len() < Benchmark::ALL.len() * MISS_SEEDS,
                "cell mix exhausted"
            );
            let (bench, seed) = loop {
                let pair = (
                    self.rng.below(Benchmark::ALL.len()),
                    1 + self.rng.below(MISS_SEEDS) as u64,
                );
                if self.used.insert(pair) {
                    break pair;
                }
            };
            for layout in ClusterLayout::CLUSTERED {
                for policy in MISS_POLICIES {
                    let cell = WireCellSpec::new(Benchmark::ALL[bench], seed, LEN, layout, policy);
                    let at = self.rng.below(self.group.len() + 1);
                    self.group.insert(at, cell);
                }
            }
        }
        self.group.pop().expect("group refilled above")
    }

    fn take(&mut self, n: usize) -> Vec<WireCellSpec> {
        (0..n).map(|_| self.next_cell()).collect()
    }
}

/// The `serve_miss` phases, in the order they run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Closed,
    Steady,
    Loaded,
}

/// One grid submission of `serve_miss` and what came back.
struct SentGrid {
    /// The submitting client's request id (its frame carries it).
    id: u64,
    phase: Phase,
    sent_at: Instant,
    cells: Vec<WireCellSpec>,
    records: Vec<Option<WireCellRecord>>,
    /// Per cell: completion minus submission (closed loop) or minus
    /// scheduled arrival (open loop); infinity when unanswered.
    latency_s: Vec<f64>,
}

impl SentGrid {
    fn submit(
        client: &mut Client,
        id: u64,
        cells: Vec<WireCellSpec>,
        phase: Phase,
        due: &[f64],
        start: Instant,
    ) -> SentGrid {
        let sent_at = Instant::now();
        let mut latency_s = vec![f64::INFINITY; cells.len()];
        let mut records = vec![None; cells.len()];
        let answered = client.submit_grid(&cells, |record| {
            let now = Instant::now();
            if let Some(slot) = latency_s.get_mut(record.index) {
                *slot = if phase == Phase::Closed {
                    (now - sent_at).as_secs_f64()
                } else {
                    (now - start).as_secs_f64() - due[record.index]
                };
            }
        });
        if let Ok(grid) = answered {
            records = grid.records;
        }
        for (slot, record) in latency_s.iter_mut().zip(&records) {
            if !record.as_ref().is_some_and(WireCellRecord::is_ok) {
                *slot = f64::INFINITY;
            }
        }
        SentGrid {
            id,
            phase,
            sent_at,
            cells,
            records,
            latency_s,
        }
    }
}

/// Two connections submit 8-cell grids back to back until `grids`
/// grids have been sent; returns them and the capacity in cells/s.
fn closed_phase(
    addr: &str,
    mix: &Mutex<MissMix>,
    grids: usize,
) -> Result<(Vec<SentGrid>, f64), String> {
    let clients = [connect_ready(addr)?, connect_ready(addr)?];
    let remaining = Mutex::new(grids);
    let start = Instant::now();
    let per_client: Vec<(Vec<SentGrid>, Instant)> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .into_iter()
            .map(|mut client| {
                let remaining = &remaining;
                scope.spawn(move || {
                    let mut sent = Vec::new();
                    loop {
                        {
                            let mut remaining = remaining.lock().expect("grid count lock");
                            if *remaining == 0 {
                                break;
                            }
                            *remaining -= 1;
                        }
                        let cells = mix.lock().expect("mix lock").take(GRID_CELLS);
                        let id = sent.len() as u64 + 1;
                        sent.push(SentGrid::submit(
                            &mut client,
                            id,
                            cells,
                            Phase::Closed,
                            &[],
                            start,
                        ));
                    }
                    (sent, Instant::now())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("closed-loop sender panicked"))
            .collect()
    });
    let end = per_client
        .iter()
        .map(|(_, end)| *end)
        .max()
        .expect("two clients");
    let grids: Vec<SentGrid> = per_client.into_iter().flat_map(|(sent, _)| sent).collect();
    let ok = grids
        .iter()
        .flat_map(|g| &g.records)
        .filter(|r| r.as_ref().is_some_and(WireCellRecord::is_ok))
        .count();
    Ok((grids, ok as f64 / (end - start).as_secs_f64()))
}

/// Sends `cells` on their Poisson schedule: a free sender submits every
/// arrival already due as one grid. Returns the grids and each
/// arrival's send lag in seconds.
fn open_phase(
    addr: &str,
    phase: Phase,
    cells: &[WireCellSpec],
    due: &[f64],
) -> Result<(Vec<SentGrid>, Vec<f64>), String> {
    let clients = [connect_ready(addr)?, connect_ready(addr)?];
    let next = Mutex::new(0usize);
    let start = Instant::now();
    let per_client: Vec<(Vec<SentGrid>, Vec<f64>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .into_iter()
            .map(|mut client| {
                let next = &next;
                scope.spawn(move || {
                    let (mut sent, mut lags) = (Vec::new(), Vec::new());
                    loop {
                        let taken = {
                            let mut next = next.lock().expect("schedule lock");
                            if *next >= cells.len() {
                                break;
                            }
                            let now = start.elapsed().as_secs_f64();
                            let wait = due[*next] - now;
                            if wait > 0.0 {
                                drop(next);
                                std::thread::sleep(Duration::from_secs_f64(wait));
                                continue;
                            }
                            let from = *next;
                            while *next < cells.len() && due[*next] <= now {
                                *next += 1;
                            }
                            from..*next
                        };
                        let sent_s = start.elapsed().as_secs_f64();
                        lags.extend(due[taken.clone()].iter().map(|d| sent_s - d));
                        let id = sent.len() as u64 + 1;
                        let grid_cells = cells[taken.clone()].to_vec();
                        sent.push(SentGrid::submit(
                            &mut client,
                            id,
                            grid_cells,
                            phase,
                            &due[taken],
                            start,
                        ));
                    }
                    (sent, lags)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("open-loop sender panicked"))
            .collect()
    });
    let mut grids = Vec::new();
    let mut lags = Vec::new();
    for (sent, lag) in per_client {
        grids.extend(sent);
        lags.extend(lag);
    }
    Ok((grids, lags))
}

pub fn run_miss(ctx: &Ctx) -> Result<Report, String> {
    let mix = Mutex::new(MissMix::new(ctx.seed));
    let warm = mix.lock().expect("mix lock").take(2 * GRID_CELLS);
    let (daemon, warm_records, setup_s) = boot(ctx, MISS_SETUP_REPS, &warm, &[])?;
    let (before, _) = status(&daemon.addr)?;

    let closed_s = (ctx.seconds * CLOSED_SHARE).max(1.0);
    let loaded_s = (ctx.seconds * LOADED_TIME_SHARE).max(1.0);
    let steady_s = (ctx.seconds - closed_s - loaded_s).max(1.0);
    let closed_grids = (closed_s * SIZING_RATE / GRID_CELLS as f64).ceil() as usize;
    let (closed, capacity) = closed_phase(&daemon.addr, &mix, closed_grids)?;
    let arrivals = (OPEN_RATE * steady_s).round() as usize;
    let steady_cells = mix.lock().expect("mix lock").take(arrivals);
    let due = poisson_schedule(ctx.seed ^ 0xa771_7a15, OPEN_RATE, arrivals);
    let (steady, mut lags) = open_phase(&daemon.addr, Phase::Steady, &steady_cells, &due)?;
    let loaded_rate = LOADED_SHARE * capacity;
    let loaded_arrivals = (LOADED_SHARE * SIZING_RATE * loaded_s).round() as usize;
    let loaded_cells = mix.lock().expect("mix lock").take(loaded_arrivals);
    let due = poisson_schedule(ctx.seed ^ 0x10ad_ed00, loaded_rate, loaded_arrivals);
    let (loaded, loaded_lags) = open_phase(&daemon.addr, Phase::Loaded, &loaded_cells, &due)?;
    lags.extend(loaded_lags);

    let (after, peak) = status(&daemon.addr)?;
    let peak_rss_mb = daemon.peak_rss_mb()?;
    daemon.stop()?;

    let mut report = Report::new(ctx.trace);
    let mut grids: Vec<SentGrid> = closed.into_iter().chain(steady).chain(loaded).collect();
    grids.sort_by_key(|g| g.sent_at);
    let latencies_of = |phase: Phase| -> Vec<f64> {
        grids
            .iter()
            .filter(|g| g.phase == phase)
            .flat_map(|g| g.latency_s.iter().copied())
            .collect()
    };
    let latencies = latencies_of(Phase::Steady);
    let loaded_ms: Vec<f64> = latencies_of(Phase::Loaded)
        .iter()
        .map(|s| s * 1e3)
        .collect();
    let (loaded_p50, loaded_tail) = latency_summary(&loaded_ms);
    report.attempted = grids.iter().map(|g| g.cells.len() as u64).sum();
    report.failed = grids
        .iter()
        .flat_map(|g| &g.latency_s)
        .filter(|l| l.is_infinite())
        .count() as u64;
    let late = lags.iter().filter(|l| **l > LATE_S).count();
    let misses = after.cache_misses - before.cache_misses;
    let lookups = misses + after.cache_hits - before.cache_hits;
    report.note(format!(
        "serve_miss: len {LEN}, seed {}, capacity {capacity:.1} cells/s over {closed_grids} grids; \
         steady open loop {arrivals} arrivals at {OPEN_RATE} cells/s; loaded open loop \
         {loaded_arrivals} arrivals at {loaded_rate:.1} cells/s: p50 {loaded_p50:.4} ms, \
         p{} {loaded_tail:.4} ms; generator lag p99 {:.3} ms, {late} arrivals sent > {} ms late; \
         cache misses {misses}/{lookups}",
        ctx.seed,
        tail_percentile(loaded_ms.len()) * 100.0,
        percentile(&lags, 0.99) * 1e3,
        LATE_S * 1e3
    ));

    if report.failed > 0 {
        report.fail(format!("{} cells failed or went unanswered", report.failed));
    }
    let sent: Vec<(&WireCellSpec, &Option<WireCellRecord>)> = grids
        .iter()
        .flat_map(|g| g.cells.iter().zip(&g.records))
        .collect();
    let offset = (ctx.seed as usize) % CHECK_EVERY;
    for (cell, record) in sent.iter().skip(offset).step_by(CHECK_EVERY) {
        match record {
            Some(record) => check_record(&mut report, cell, record),
            None => report.fail(format!("no record for {cell:?}")),
        }
    }

    if ctx.trace {
        let replay = Replay::new(ctx)?;
        let mut tracer = Tracer::new(true);
        let mut measured_ns = 0.0;
        for (cell, record) in warm.iter().zip(&warm_records) {
            let _ = ccs_core::fetch_cell_trace(&replay.store, &cell.to_cell().map_err(err)?);
            replay.cache.put(&record.to_checkpoint());
        }
        let open_grids = grids.iter().filter(|g| g.phase != Phase::Closed).count();
        let every = (open_grids / REPLAY_GRIDS).max(1);
        for (i, grid) in grids.iter().enumerate() {
            let request = Request::SubmitGrid {
                id: grid.id,
                cells: grid.cells.clone(),
            };
            if grid.phase != Phase::Closed && (i + offset).is_multiple_of(every) {
                tracer.set_request(i as u64);
                let replies = tracer.span("serve.request", |t| replay.request(t, &request))?;
                if replay_mismatch(&replies, &grid.records) {
                    report.fail(format!(
                        "replayed grid {i} differs from the daemon's records"
                    ));
                }
                measured_ns += grid.latency_s.iter().sum::<f64>() * 1e9;
            } else {
                // Bring the replay's trace store and cache to the state
                // the daemon had after this grid.
                for (cell, record) in grid.cells.iter().zip(&grid.records) {
                    let _ =
                        ccs_core::fetch_cell_trace(&replay.store, &cell.to_cell().map_err(err)?);
                    if let Some(record) = record {
                        replay.cache.put(&record.to_checkpoint());
                    }
                }
            }
        }
        report.set_layer_shares(&tracer, measured_ns);
        let (hits, misses) = (replay.store.hits(), replay.store.misses());
        report.set(
            "trace.store_hit_pct",
            100.0 * hits as f64 / (hits + misses).max(1) as f64,
        );
        set_status_deltas(&mut report, &before, &after, peak);
        report.set("loadgen.late_arrivals", late as f64);
        report.set("serve.loaded_p50_ms", loaded_p50);
        report.set("serve.loaded_tail_ms", loaded_tail);
        crate::write_spans(ctx, &tracer, &mut report);
    } else {
        report.set("setup_s", setup_s);
        report.set("ops_per_s", capacity);
        report.set_latencies(&latencies);
        report.set("peak_rss_mb", peak_rss_mb);
    }
    Ok(report)
}

// ------------------------------------------------------- hot / connect

/// One request of `serve_hot` or `serve_connect`.
struct HotRequest {
    /// The submitting client's request id.
    id: u64,
    approx: bool,
    /// Index into the warm cells (exact) or the approx pool.
    cell: usize,
    latency_s: f64,
    answer: Answer,
}

/// The warmed daemon's cells: 72 simulated during set-up (12 benchmarks
/// × 3 layouts × 2 policies) and 48 never simulated, whose traces the
/// set-up's `approx` requests have already generated.
fn hot_cells(seed: u64) -> (Vec<WireCellSpec>, Vec<WireCellSpec>) {
    let mut warm = Vec::new();
    for bench in Benchmark::ALL {
        for layout in ClusterLayout::CLUSTERED {
            for policy in HOT_POLICIES {
                warm.push(WireCellSpec::new(bench, seed, LEN, layout, policy));
            }
        }
    }
    let mut approx = Vec::new();
    for bench in Benchmark::ALL {
        for k in 0..APPROX_SEEDS {
            approx.push(WireCellSpec::new(
                bench,
                seed + 1_000 + k,
                LEN,
                ClusterLayout::C4x2w,
                PolicyKind::Focused,
            ));
        }
    }
    (warm, approx)
}

/// Sends requests back to back for `seconds`, from this thread: over one
/// connection, or over a fresh connection per request. A request is an
/// `approx` one with probability `1 - HOT_HIT_SHARE` when `approx` cells
/// are given, else an exact resubmission of a warm cell. One connection
/// rather than two: two closed-loop connections on two vCPUs make the
/// rate depend on how the scheduler interleaves four busy threads, and
/// measured about twice as unsteady.
fn closed_loop(
    addr: &str,
    warm: &[WireCellSpec],
    approx: &[WireCellSpec],
    seed: u64,
    seconds: f64,
    fresh_connections: bool,
) -> Result<(Vec<HotRequest>, f64), String> {
    let mut rng = Rng::new(seed ^ 0x4a07_0000);
    let mut connection = if fresh_connections {
        None
    } else {
        Some(connect_ready(addr)?)
    };
    let mut sent = Vec::new();
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds {
        let is_approx = !approx.is_empty() && rng.unit() >= HOT_HIT_SHARE;
        let cell = rng.below(if is_approx { approx.len() } else { warm.len() });
        let send = |client: &mut Client| {
            if is_approx {
                client.submit_cell_approx(&approx[cell])
            } else {
                client.submit_cell(&warm[cell]).map(ApproxAnswer::Exact)
            }
        };
        let t = Instant::now();
        let reply = match connection.as_mut() {
            Some(client) => send(client),
            None => Client::connect(addr).and_then(|mut client| send(&mut client)),
        };
        let latency_s = t.elapsed().as_secs_f64();
        sent.push(HotRequest {
            id: if fresh_connections {
                1
            } else {
                sent.len() as u64 + 1
            },
            approx: is_approx,
            cell,
            latency_s,
            answer: Answer::of(reply),
        });
    }
    let rate = sent.len() as f64 / start.elapsed().as_secs_f64();
    Ok((sent, rate))
}

pub fn run_hot(ctx: &Ctx) -> Result<Report, String> {
    run_warmed(ctx, false)
}

pub fn run_connect(ctx: &Ctx) -> Result<Report, String> {
    run_warmed(ctx, true)
}

fn run_warmed(ctx: &Ctx, fresh_connections: bool) -> Result<Report, String> {
    let (warm, approx) = hot_cells(ctx.seed);
    let (daemon, warm_records, setup_s) = boot(ctx, HOT_SETUP_REPS, &warm, &approx)?;
    let (before, _) = status(&daemon.addr)?;
    let pool: &[WireCellSpec] = if fresh_connections { &[] } else { &approx };
    let (requests, rate) = closed_loop(
        &daemon.addr,
        &warm,
        pool,
        ctx.seed,
        ctx.seconds,
        fresh_connections,
    )?;
    let (after, peak) = status(&daemon.addr)?;
    let peak_rss_mb = daemon.peak_rss_mb()?;
    daemon.stop()?;

    let mut report = Report::new(ctx.trace);
    let store = TraceStore::new();
    let envelopes: Vec<Answer> = approx
        .iter()
        .map(|cell| {
            let spec = cell.to_cell().map_err(err)?;
            Ok(Answer::envelope(&envelope(
                &spec,
                &ccs_core::fetch_cell_trace(&store, &spec),
            )))
        })
        .collect::<Result<_, String>>()?;
    let hits: Vec<Answer> = warm_records.iter().map(Answer::hit).collect();
    let mut latencies = Vec::with_capacity(requests.len());
    for r in &requests {
        report.attempted += 1;
        let want = if r.approx {
            envelopes[r.cell]
        } else {
            hits[r.cell]
        };
        let good = r.answer == want;
        if !good {
            report.failed += 1;
        }
        latencies.push(if good { r.latency_s } else { f64::INFINITY });
    }
    let approx_count = requests.iter().filter(|r| r.approx).count();
    report.note(format!(
        "{}: len {LEN}, seed {}, {} requests ({approx_count} approx) at {rate:.1}/s",
        ctx.workload,
        ctx.seed,
        requests.len()
    ));
    if report.failed > 0 {
        report.fail(format!("{} replies were refused or wrong", report.failed));
    }
    let offset = (ctx.seed as usize) % CHECK_EVERY;
    for (cell, record) in warm
        .iter()
        .zip(&warm_records)
        .skip(offset)
        .step_by(CHECK_EVERY)
    {
        check_record(&mut report, cell, record);
    }

    if ctx.trace {
        let replay = Replay::new(ctx)?;
        for record in &warm_records {
            replay.cache.put(&record.to_checkpoint());
        }
        for cell in &approx {
            let spec = cell.to_cell().map_err(err)?;
            envelope(&spec, &ccs_core::fetch_cell_trace(&replay.store, &spec));
        }
        let mut tracer = Tracer::new(true);
        let mut measured_ns = 0.0;
        let every = (requests.len() / REPLAY_TARGET).max(1);
        for (i, r) in requests
            .iter()
            .enumerate()
            .skip(offset % every)
            .step_by(every)
        {
            let cell = if r.approx {
                &approx[r.cell]
            } else {
                &warm[r.cell]
            };
            let request = Request::SubmitCell {
                id: r.id,
                approx: r.approx,
                cell: cell.clone(),
            };
            tracer.set_request(i as u64);
            tracer.span("serve.request", |t| replay.request(t, &request))?;
            measured_ns += r.latency_s * 1e9;
        }
        report.set_layer_shares(&tracer, measured_ns);
        let (hits, misses) = (replay.store.hits(), replay.store.misses());
        report.set(
            "trace.store_hit_pct",
            100.0 * hits as f64 / (hits + misses).max(1) as f64,
        );
        set_status_deltas(&mut report, &before, &after, peak);
        crate::write_spans(ctx, &tracer, &mut report);
    } else {
        report.set("setup_s", setup_s);
        report.set("ops_per_s", rate);
        report.set_latencies(&latencies);
        report.set("peak_rss_mb", peak_rss_mb);
    }
    Ok(report)
}
