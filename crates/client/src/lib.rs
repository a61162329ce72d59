//! Client library for the `ccs-serve` daemon.
//!
//! [`Client`] wraps one TCP connection: it frames requests, streams
//! per-cell replies in completion order, and reassembles them into
//! input order. Backpressure is surfaced, not hidden —
//! [`Client::submit_grid`] returns the server's typed busy reply as
//! [`CcsError::Rejected`] with the retry hint, and
//! [`Client::submit_grid_with_policy`] layers bounded, jittered
//! honor-the-hint retries under a [`RetryPolicy`] on top for callers that
//! just want the grid done.
//!
//! [`GridOutcome::exit_code`] mirrors the batch `grid_campaign` binary:
//! `0` all cells ok, `1` any cell failed or timed out, `2` incomplete
//! (the connection died mid-grid).
//!
//! For multi-daemon campaigns, [`ClusterClient`] routes each cell to
//! its owning shard on a consistent-hash [`ShardMap`](ccs_core::ShardMap)
//! and fails unanswered cells over along the ring.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cluster;

pub use cluster::{ClusterClient, ClusterOutcome};

use ccs_core::CcsError;
use ccs_serve::{
    FrameReader, Poll, Request, Response, ServeError, StatusReply, WireCellRecord, WireCellSpec,
};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// One connection to a serve daemon.
#[derive(Debug)]
pub struct Client {
    stream: TcpStream,
    reader: FrameReader,
    next_id: u64,
    reply_timeout: Option<Duration>,
}

/// Bounded, jittered exponential backoff for busy retries.
///
/// Each busy reply sleeps `jitter(min(cap, max(server_hint,
/// base << attempt)))` where `jitter` draws uniformly from the upper
/// half of the window (an xorshift64* stream seeded by `seed`, so two
/// clients retrying the same saturated daemon desynchronize instead of
/// hammering it in lockstep). Retries stop at `max_attempts` or when
/// `deadline` of wall-clock time has elapsed across *all* attempts,
/// whichever comes first, with a typed
/// [`CcsError::RetriesExhausted`] carrying the final refusal.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Submission attempts before giving up (≥ 1).
    pub max_attempts: u32,
    /// Backoff floor for the first retry.
    pub base: Duration,
    /// Backoff ceiling regardless of attempt count or server hint.
    pub cap: Duration,
    /// Total wall-clock budget across all attempts and sleeps.
    pub deadline: Option<Duration>,
    /// Jitter stream seed.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 8,
            base: Duration::from_millis(10),
            cap: Duration::from_secs(1),
            deadline: Some(Duration::from_secs(30)),
            seed: 0x5eed_c1ea_11ed,
        }
    }
}

impl RetryPolicy {
    /// The sleep before retry number `attempt` (1-based), honoring the
    /// server's busy hint as a floor and `cap` as a ceiling.
    pub fn backoff(&self, rng: &mut u64, attempt: u32, hint_ms: u64) -> Duration {
        let shift = attempt.saturating_sub(1).min(20);
        let exp = self
            .base
            .saturating_mul(1u32 << shift)
            .max(Duration::from_millis(hint_ms))
            .min(self.cap);
        // Upper-half jitter keeps a real backoff while decorrelating
        // concurrent clients.
        let nanos = ccs_serve::saturating_nanos(exp);
        let jittered = nanos / 2 + xorshift64star(rng) % (nanos / 2 + 1);
        Duration::from_nanos(jittered.max(1))
    }
}

/// xorshift64* — tiny, seedable, and good enough for backoff jitter.
fn xorshift64star(state: &mut u64) -> u64 {
    let mut x = *state | 1;
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    *state = x;
    x.wrapping_mul(0x2545_f491_4f6c_dd1d)
}

/// What an approximate submission came back with.
///
/// A cache hit on the daemon still answers exactly — an analytic
/// envelope is never a downgrade from a simulated result already in
/// hand — so callers must be ready for either shape.
#[derive(Debug, Clone)]
pub enum ApproxAnswer {
    /// The daemon had the simulated result cached and returned it.
    Exact(WireCellRecord),
    /// The daemon answered with `ccs-predict`'s analytic envelope
    /// without simulating. Escalate by re-submitting via
    /// [`Client::submit_cell`].
    Envelope {
        /// The cell's checkpoint key.
        key: String,
        /// Sound lower bound on simulated cycles.
        cycles_lo: u64,
        /// Sound upper bound on simulated cycles.
        cycles_hi: u64,
        /// Sound upper bound on achieved IPC.
        ipc_hi: f64,
        /// Envelope confidence grade (`high`/`medium`/`low`).
        confidence: String,
    },
}

/// What a grid submission produced, reassembled into input order.
#[derive(Debug, Clone)]
pub struct GridOutcome {
    /// Per-cell records in submission order; `None` where the daemon
    /// never answered (connection lost mid-grid).
    pub records: Vec<Option<WireCellRecord>>,
    /// Cells that completed (`ok`).
    pub ok: usize,
    /// Cells that failed.
    pub failed: usize,
    /// Cells that timed out.
    pub timed_out: usize,
    /// Cells answered from the daemon's result cache.
    pub cached: usize,
}

impl GridOutcome {
    /// Whether every cell was answered.
    pub fn is_complete(&self) -> bool {
        self.records.iter().all(Option::is_some)
    }

    /// `grid_campaign`-compatible exit code: `0` every cell ok, `1` any
    /// cell failed or timed out, `2` incomplete.
    pub fn exit_code(&self) -> i32 {
        if !self.is_complete() {
            2
        } else if self.failed > 0 || self.timed_out > 0 {
            1
        } else {
            0
        }
    }
}

impl Client {
    /// Connects to a daemon at `addr` (e.g. `127.0.0.1:7405`).
    ///
    /// # Errors
    ///
    /// [`CcsError::Protocol`] when the connection cannot be made.
    pub fn connect(addr: &str) -> Result<Client, CcsError> {
        let stream = TcpStream::connect(addr).map_err(|e| CcsError::Protocol {
            message: format!("connect {addr}: {e}"),
        })?;
        let _ = stream.set_nodelay(true);
        Ok(Client {
            stream,
            reader: FrameReader::new(),
            next_id: 1,
            reply_timeout: None,
        })
    }

    /// [`connect`](Self::connect) with a bound on connection
    /// establishment, so a dead shard costs `timeout` instead of the
    /// OS's (tens-of-seconds) TCP default.
    ///
    /// # Errors
    ///
    /// [`CcsError::Timeout`] when no resolved address answered in time,
    /// [`CcsError::Protocol`] when the address does not resolve.
    pub fn connect_with_timeout(addr: &str, timeout: Duration) -> Result<Client, CcsError> {
        let resolved: Vec<_> = addr
            .to_socket_addrs()
            .map_err(|e| CcsError::Protocol {
                message: format!("resolve {addr}: {e}"),
            })?
            .collect();
        if resolved.is_empty() {
            return Err(CcsError::Protocol {
                message: format!("resolve {addr}: no addresses"),
            });
        }
        let mut last: Option<std::io::Error> = None;
        for sock in resolved {
            match TcpStream::connect_timeout(&sock, timeout) {
                Ok(stream) => {
                    let _ = stream.set_nodelay(true);
                    return Ok(Client {
                        stream,
                        reader: FrameReader::new(),
                        next_id: 1,
                        reply_timeout: None,
                    });
                }
                Err(e) => last = Some(e),
            }
        }
        let err = last.expect("at least one address was tried");
        if matches!(
            err.kind(),
            std::io::ErrorKind::TimedOut | std::io::ErrorKind::WouldBlock
        ) {
            Err(CcsError::Timeout {
                what: format!("connect to {addr} within {} ms", timeout.as_millis()),
            })
        } else {
            Err(CcsError::Protocol {
                message: format!("connect {addr}: {err}"),
            })
        }
    }

    /// Bounds every reply wait: a daemon that accepts a request but
    /// never answers (hung accept thread, stalled worker) turns into
    /// [`CcsError::Timeout`] instead of blocking the campaign forever.
    #[must_use]
    pub fn with_reply_timeout(mut self, timeout: Duration) -> Self {
        self.reply_timeout = Some(timeout);
        // Short read timeout so the poll loop can check the deadline;
        // the FrameReader preserves partial frames across timeouts.
        let _ = self
            .stream
            .set_read_timeout(Some(timeout.min(Duration::from_millis(100)).max(Duration::from_millis(1))));
        self
    }

    fn send(&mut self, request: &Request) -> Result<(), ServeError> {
        ccs_serve::write_frame(&mut self.stream, &request.encode())
    }

    fn recv(&mut self) -> Result<Response, ServeError> {
        let payload = match self.reply_timeout {
            // `read_frame` blocks until a whole frame or EOF.
            None => self.reader.read_frame(&mut self.stream)?,
            Some(limit) => {
                let deadline = Instant::now() + limit;
                loop {
                    match self.reader.poll(&mut self.stream)? {
                        Poll::Frame(payload) => break payload,
                        Poll::Pending => {
                            if Instant::now() >= deadline {
                                return Err(ServeError::Timeout {
                                    what: format!("reply within {} ms", limit.as_millis()),
                                });
                            }
                        }
                        Poll::Closed => return Err(ServeError::Closed),
                    }
                }
            }
        };
        Response::decode(&payload)
    }

    /// Lifts server-side reject/busy/error replies into the error
    /// taxonomy so submission loops can match on one shape.
    fn refusal(response: Response) -> CcsError {
        match response {
            Response::Busy { retry_after_ms } => CcsError::Rejected {
                reason: "server busy".into(),
                retry_after_ms: Some(retry_after_ms),
            },
            Response::Rejected { reason } => CcsError::Rejected {
                reason,
                retry_after_ms: None,
            },
            Response::Error { message } => CcsError::Protocol { message },
            other => CcsError::Protocol {
                message: format!("unexpected reply: {other:?}"),
            },
        }
    }

    /// Submits one cell and waits for its record.
    ///
    /// # Errors
    ///
    /// [`CcsError::Rejected`] on busy/draining replies,
    /// [`CcsError::Protocol`] on transport or protocol failures.
    pub fn submit_cell(&mut self, cell: &WireCellSpec) -> Result<WireCellRecord, CcsError> {
        let id = self.next_id;
        self.next_id += 1;
        self.send(&Request::SubmitCell {
            id,
            cell: cell.clone(),
            approx: false,
        })
        .map_err(CcsError::from)?;
        match self.recv().map_err(CcsError::from)? {
            Response::Cell { record, .. } => Ok(record),
            other => Err(Self::refusal(other)),
        }
    }

    /// Submits one cell with the `approx` flag: the daemon answers from
    /// its cache when it can (exact), and with the analytic
    /// `[cycles_lo, cycles_hi]` / IPC-ceiling envelope otherwise —
    /// without ever queueing a simulation.
    ///
    /// # Errors
    ///
    /// [`CcsError::Rejected`] on busy/draining replies,
    /// [`CcsError::Protocol`] on transport or protocol failures.
    pub fn submit_cell_approx(&mut self, cell: &WireCellSpec) -> Result<ApproxAnswer, CcsError> {
        let id = self.next_id;
        self.next_id += 1;
        self.send(&Request::SubmitCell {
            id,
            cell: cell.clone(),
            approx: true,
        })
        .map_err(CcsError::from)?;
        match self.recv().map_err(CcsError::from)? {
            Response::Cell { record, .. } => Ok(ApproxAnswer::Exact(record)),
            Response::Approx {
                key,
                cycles_lo,
                cycles_hi,
                ipc_hi_bits,
                confidence,
                ..
            } => Ok(ApproxAnswer::Envelope {
                key,
                cycles_lo,
                cycles_hi,
                ipc_hi: f64::from_bits(ipc_hi_bits),
                confidence,
            }),
            other => Err(Self::refusal(other)),
        }
    }

    /// Submits a grid and streams per-cell records through `on_cell` in
    /// completion order (cache hits arrive first) until the daemon's
    /// `grid_done`.
    ///
    /// # Errors
    ///
    /// [`CcsError::Rejected`] when the daemon refused the whole
    /// submission (backpressure or draining — nothing ran);
    /// [`CcsError::Protocol`] on transport or protocol failures.
    pub fn submit_grid(
        &mut self,
        cells: &[WireCellSpec],
        mut on_cell: impl FnMut(&WireCellRecord),
    ) -> Result<GridOutcome, CcsError> {
        let id = self.next_id;
        self.next_id += 1;
        self.send(&Request::SubmitGrid {
            id,
            cells: cells.to_vec(),
        })
        .map_err(CcsError::from)?;
        let mut outcome = GridOutcome {
            records: vec![None; cells.len()],
            ok: 0,
            failed: 0,
            timed_out: 0,
            cached: 0,
        };
        loop {
            match self.recv().map_err(CcsError::from)? {
                Response::Cell { id: rid, record } if rid == id => {
                    on_cell(&record);
                    match record.status.as_str() {
                        "ok" => outcome.ok += 1,
                        "TIMEOUT" => outcome.timed_out += 1,
                        _ => outcome.failed += 1,
                    }
                    if record.cached {
                        outcome.cached += 1;
                    }
                    if let Some(slot) = outcome.records.get_mut(record.index) {
                        *slot = Some(record);
                    }
                }
                Response::GridDone { id: rid, .. } if rid == id => return Ok(outcome),
                other => return Err(Self::refusal(other)),
            }
        }
    }

    /// [`submit_grid`](Self::submit_grid) under an explicit
    /// [`RetryPolicy`]: busy replies sleep a capped, jittered
    /// exponential backoff (the server's hint as a floor) and retry
    /// until the policy's attempt count or total wall-clock deadline is
    /// spent.
    ///
    /// # Errors
    ///
    /// As for [`submit_grid`](Self::submit_grid);
    /// [`CcsError::RetriesExhausted`] when busy replies outlast the
    /// policy.
    pub fn submit_grid_with_policy(
        &mut self,
        cells: &[WireCellSpec],
        policy: &RetryPolicy,
        mut on_cell: impl FnMut(&WireCellRecord),
    ) -> Result<GridOutcome, CcsError> {
        let started = Instant::now();
        let mut rng = policy.seed;
        let mut attempt = 0u32;
        loop {
            attempt += 1;
            match self.submit_grid(cells, &mut on_cell) {
                Err(CcsError::Rejected {
                    reason,
                    retry_after_ms: Some(hint),
                }) => {
                    let sleep = policy.backoff(&mut rng, attempt, hint);
                    let exhausted = attempt >= policy.max_attempts.max(1);
                    let over_deadline = policy
                        .deadline
                        .is_some_and(|d| started.elapsed() + sleep >= d);
                    if exhausted || over_deadline {
                        return Err(CcsError::RetriesExhausted {
                            attempts: attempt,
                            elapsed_ms: ccs_serve::saturating_millis(started.elapsed()),
                            last: format!("server busy: {reason} (hint {hint} ms)"),
                        });
                    }
                    std::thread::sleep(sleep);
                }
                other => return other,
            }
        }
    }

    /// Fetches the daemon's status.
    ///
    /// # Errors
    ///
    /// [`CcsError::Protocol`] on transport/protocol failures.
    pub fn status(&mut self) -> Result<StatusReply, CcsError> {
        self.send(&Request::Status).map_err(CcsError::from)?;
        match self.recv().map_err(CcsError::from)? {
            Response::Status(s) => Ok(s),
            other => Err(Self::refusal(other)),
        }
    }

    /// Fetches the daemon's full metrics as rendered JSON.
    ///
    /// # Errors
    ///
    /// [`CcsError::Protocol`] on transport/protocol failures.
    pub fn metrics_json(&mut self) -> Result<String, CcsError> {
        self.send(&Request::Metrics).map_err(CcsError::from)?;
        match self.recv().map_err(CcsError::from)? {
            Response::Metrics { json } => Ok(json),
            other => Err(Self::refusal(other)),
        }
    }

    /// Asks the daemon to drain: finish in-flight cells, refuse new
    /// submissions, then exit. Returns the number of cells that were
    /// still pending at the request.
    ///
    /// # Errors
    ///
    /// [`CcsError::Protocol`] on transport/protocol failures.
    pub fn drain(&mut self) -> Result<u64, CcsError> {
        self.send(&Request::Drain).map_err(CcsError::from)?;
        match self.recv().map_err(CcsError::from)? {
            Response::Draining { pending } => Ok(pending),
            other => Err(Self::refusal(other)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(index: usize, status: &str, cached: bool) -> WireCellRecord {
        WireCellRecord {
            index,
            key: format!("k{index}"),
            status: status.into(),
            attempts: 1,
            cycles: 100,
            cpi_bits: 0,
            digest: 0,
            cached,
            error: None,
        }
    }

    #[test]
    fn exit_codes_mirror_grid_campaign() {
        let complete_ok = GridOutcome {
            records: vec![Some(record(0, "ok", false))],
            ok: 1,
            failed: 0,
            timed_out: 0,
            cached: 0,
        };
        assert_eq!(complete_ok.exit_code(), 0);
        let with_failure = GridOutcome {
            records: vec![Some(record(0, "FAILED", false))],
            ok: 0,
            failed: 1,
            timed_out: 0,
            cached: 0,
        };
        assert_eq!(with_failure.exit_code(), 1);
        let incomplete = GridOutcome {
            records: vec![None],
            ok: 0,
            failed: 0,
            timed_out: 0,
            cached: 0,
        };
        assert_eq!(incomplete.exit_code(), 2);
        assert!(!incomplete.is_complete());
    }

    #[test]
    fn backoff_grows_honors_hint_and_respects_cap() {
        let policy = RetryPolicy {
            max_attempts: 10,
            base: Duration::from_millis(10),
            cap: Duration::from_millis(500),
            deadline: None,
            seed: 7,
        };
        let mut rng = policy.seed;
        // Attempt 1 with no hint: jittered within (5, 10] ms.
        let first = policy.backoff(&mut rng, 1, 0);
        assert!(first > Duration::from_millis(4) && first <= Duration::from_millis(10));
        // A server hint above the exponential window becomes the floor.
        let hinted = policy.backoff(&mut rng, 1, 200);
        assert!(hinted > Duration::from_millis(99) && hinted <= Duration::from_millis(200));
        // Deep attempts and huge hints are clipped to the cap.
        let capped = policy.backoff(&mut rng, 30, 60_000);
        assert!(capped <= Duration::from_millis(500));
        assert!(capped > Duration::from_millis(249), "upper-half jitter");
    }

    #[test]
    fn backoff_jitter_decorrelates_two_seeds() {
        let a = RetryPolicy {
            seed: 1,
            ..RetryPolicy::default()
        };
        let b = RetryPolicy {
            seed: 2,
            ..RetryPolicy::default()
        };
        let (mut ra, mut rb) = (a.seed, b.seed);
        let sleeps_a: Vec<_> = (1..=6).map(|n| a.backoff(&mut ra, n, 0)).collect();
        let sleeps_b: Vec<_> = (1..=6).map(|n| b.backoff(&mut rb, n, 0)).collect();
        assert_ne!(sleeps_a, sleeps_b, "different seeds, different schedules");
        let (mut ra2, mut rb2) = (1u64, 1u64);
        let again: Vec<_> = (1..=6).map(|n| a.backoff(&mut ra2, n, 0)).collect();
        let same: Vec<_> = (1..=6).map(|n| a.backoff(&mut rb2, n, 0)).collect();
        assert_eq!(again, same, "same seed, same schedule — retries are replayable");
    }

    #[test]
    fn connect_with_timeout_reports_dead_shards_quickly() {
        // A port from the ephemeral range with nothing bound: either a
        // fast refusal (Protocol) or the timeout — never a hang.
        let started = Instant::now();
        let err = Client::connect_with_timeout("127.0.0.1:1", Duration::from_millis(300))
            .expect_err("nothing listens on port 1");
        assert!(started.elapsed() < Duration::from_secs(5));
        match err {
            CcsError::Protocol { .. } | CcsError::Timeout { .. } => {}
            other => panic!("unexpected error shape: {other:?}"),
        }
    }
}
