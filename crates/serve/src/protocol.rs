//! The versioned request/response vocabulary of the serve protocol.
//!
//! Every frame is a flat JSON object (see [`crate::wire`] for the
//! length-prefixed framing). Requests carry the protocol version in a
//! `"v"` field; the daemon rejects mismatched versions with a typed
//! error instead of guessing. Field names are unique across nesting
//! levels within each payload shape — a requirement of the scanner-style
//! JSON helpers in [`crate::json`].
//!
//! The cell vocabulary ([`WireCellSpec`]) deliberately covers the
//! *paper-grid surface*: the MICRO-05 baseline machine under any
//! [`ClusterLayout`], any named [`PolicyKind`], and the run options that
//! feed the checkpoint fingerprint (epochs, run seed, checked mode,
//! cycle budget). Ablation cells with custom policy configurations are
//! batch-binary territory and are refused at encode time rather than
//! silently mis-keyed.
//!
//! Scenario cells (the `ccs-scenario` DSL) travel as an extra optional
//! `"scenario"` field carrying the canonical manifest text; the `bench`
//! field then holds the marker `scenario:<name>`, which is not a valid
//! benchmark name, so a daemon predating the field rejects the cell
//! loudly instead of silently simulating the placeholder benchmark.
//! Decoding is tolerant (an absent field is a plain benchmark cell), so
//! the protocol stays at version 1.

use crate::json;
use ccs_core::checkpoint::CheckpointRecord;
use ccs_core::{CcsError, CellSpec, PolicyKind, RunOptions};
use ccs_isa::{ClusterLayout, MachineConfig};
use ccs_trace::Benchmark;
use std::fmt::Write as _;

/// Version of the frame vocabulary. Bump on any incompatible change;
/// the daemon refuses other versions with a typed error.
pub const PROTOCOL_VERSION: u64 = 1;

/// Upper bound on a frame's payload length. A length prefix above this
/// is rejected *before* any payload allocation, so a hostile or
/// corrupted 4-byte prefix cannot make the daemon reserve gigabytes.
pub const MAX_FRAME_LEN: usize = 1 << 20;

/// Frame-kind indices into
/// [`ccs_obs::SERVE_FRAME_KINDS`](ccs_obs::SERVE_FRAME_KINDS).
pub mod frame_kind {
    /// `submit_cell` request.
    pub const SUBMIT_CELL: usize = 0;
    /// `submit_grid` request.
    pub const SUBMIT_GRID: usize = 1;
    /// `status` request.
    pub const STATUS: usize = 2;
    /// `metrics` request.
    pub const METRICS: usize = 3;
    /// `drain` request.
    pub const DRAIN: usize = 4;
    /// `cache_lookup` request (shard-to-shard cache peering).
    pub const CACHE_LOOKUP: usize = 5;
}

/// Everything that can go wrong at the protocol layer.
#[derive(Debug)]
pub enum ServeError {
    /// Transport failure.
    Io(std::io::Error),
    /// The peer closed the connection cleanly between frames.
    Closed,
    /// The byte stream is not a valid frame (bad magic, truncated
    /// header or payload). The stream cannot be resynchronized.
    Frame {
        /// What was wrong.
        message: String,
    },
    /// A frame's length prefix exceeded [`MAX_FRAME_LEN`]; rejected
    /// before allocation.
    Oversized {
        /// The declared payload length.
        declared: u64,
        /// The enforced limit.
        limit: usize,
    },
    /// A well-framed payload failed to parse (malformed JSON, unknown
    /// type, missing field, version mismatch). The stream itself is
    /// still framed; the connection can continue.
    Malformed {
        /// What was wrong.
        message: String,
    },
    /// The server replied `busy` (admission backpressure).
    Busy {
        /// The server's advisory backoff.
        retry_after_ms: u64,
    },
    /// The server refused the request (draining, or a server-side
    /// parse failure).
    Rejected {
        /// The server's reason.
        reason: String,
    },
    /// An I/O deadline expired: the peer stopped mid-frame, a reply
    /// never arrived, or a connect hung.
    Timeout {
        /// What was being waited for.
        what: String,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "io: {e}"),
            ServeError::Closed => write!(f, "connection closed"),
            ServeError::Frame { message } => write!(f, "bad frame: {message}"),
            ServeError::Oversized { declared, limit } => {
                write!(f, "frame length {declared} exceeds limit {limit}")
            }
            ServeError::Malformed { message } => write!(f, "malformed payload: {message}"),
            ServeError::Busy { retry_after_ms } => {
                write!(f, "server busy (retry after {retry_after_ms} ms)")
            }
            ServeError::Rejected { reason } => write!(f, "rejected: {reason}"),
            ServeError::Timeout { what } => write!(f, "timeout: {what}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e)
    }
}

impl From<ServeError> for CcsError {
    fn from(e: ServeError) -> Self {
        match e {
            ServeError::Busy { retry_after_ms } => CcsError::Rejected {
                reason: "server busy".into(),
                retry_after_ms: Some(retry_after_ms),
            },
            ServeError::Rejected { reason } => CcsError::Rejected {
                reason,
                retry_after_ms: None,
            },
            ServeError::Timeout { what } => CcsError::Timeout { what },
            other => CcsError::Protocol {
                message: other.to_string(),
            },
        }
    }
}

impl ServeError {
    /// Whether the framing of the stream survived this error (the
    /// connection may keep serving further frames).
    pub fn is_recoverable(&self) -> bool {
        matches!(self, ServeError::Malformed { .. })
    }
}

/// A [`Duration`](std::time::Duration) in whole milliseconds, saturating
/// at `u64::MAX` instead of silently truncating the `u128`.
///
/// `as_millis` returns `u128`; a bare `as u64` cast wraps for durations
/// past ~585 million years. No sane latency gets there, but a
/// `Duration::MAX` sentinel (or arithmetic on one) does, and a wrapped
/// retry hint of 0 ms would turn a "back off forever" signal into a
/// busy-loop invitation.
pub fn saturating_millis(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_millis()).unwrap_or(u64::MAX)
}

/// A [`Duration`](std::time::Duration) in whole nanoseconds, saturating
/// at `u64::MAX` instead of silently truncating the `u128`.
pub fn saturating_nanos(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// The named policies reachable over the wire, in ladder order, with
/// the two dynamic policies of the adaptive tier appended.
pub const WIRE_POLICIES: [PolicyKind; 7] = [
    PolicyKind::Dependence,
    PolicyKind::Focused,
    PolicyKind::FocusedLoc,
    PolicyKind::StallOverSteer,
    PolicyKind::Proactive,
    PolicyKind::Adaptive,
    PolicyKind::IneffSteer,
];

fn parse_benchmark(name: &str) -> Result<Benchmark, ServeError> {
    Benchmark::ALL
        .into_iter()
        .find(|b| b.name() == name)
        .ok_or_else(|| ServeError::Malformed {
            message: format!("unknown benchmark {name:?}"),
        })
}

fn parse_layout(name: &str) -> Result<ClusterLayout, ServeError> {
    ClusterLayout::ALL
        .into_iter()
        .find(|l| l.name() == name)
        .ok_or_else(|| ServeError::Malformed {
            message: format!("unknown layout {name:?}"),
        })
}

fn parse_policy(name: &str) -> Result<PolicyKind, ServeError> {
    WIRE_POLICIES
        .into_iter()
        .find(|p| p.name() == name)
        .ok_or_else(|| ServeError::Malformed {
            message: format!("unknown policy {name:?}"),
        })
}

/// One experiment cell as named over the wire.
///
/// Deliberately *names* axes instead of serializing the full
/// [`MachineConfig`]: the server reconstructs
/// `MachineConfig::micro05_baseline().with_layout(layout)` exactly as
/// the batch harness does, so a wire submission and an in-process
/// [`run_grid`](ccs_core::run_grid) of the same axes build identical
/// [`CellSpec`]s — which is what makes the round-trip determinism test
/// possible at all.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireCellSpec {
    /// Benchmark name ([`Benchmark::name`]).
    pub bench: String,
    /// Workload sample seed.
    pub sample_seed: u64,
    /// Dynamic instructions in the trace.
    pub len: usize,
    /// Cluster layout name ([`ClusterLayout::name`]).
    pub layout: String,
    /// Policy name ([`PolicyKind::name`]).
    pub policy: String,
    /// Training + measurement epochs.
    pub epochs: u32,
    /// Probabilistic-counter seed ([`RunOptions::seed`]).
    pub run_seed: u64,
    /// Checked (invariant-audited) simulation.
    pub checked: bool,
    /// Deterministic per-epoch cycle budget.
    pub cycle_budget: Option<u64>,
    /// Canonical scenario manifest text, for cells whose workload is a
    /// `ccs-scenario` source instead of a named benchmark. When set,
    /// `bench` holds the `scenario:<name>` marker and is never parsed
    /// as a benchmark.
    pub scenario: Option<String>,
}

impl WireCellSpec {
    /// Names a paper-grid cell with default run options.
    pub fn new(
        bench: Benchmark,
        sample_seed: u64,
        len: usize,
        layout: ClusterLayout,
        policy: PolicyKind,
    ) -> Self {
        let defaults = RunOptions::default();
        WireCellSpec {
            bench: bench.name().to_string(),
            sample_seed,
            len,
            layout: layout.name().to_string(),
            policy: policy.name().to_string(),
            epochs: defaults.epochs,
            run_seed: defaults.seed,
            checked: defaults.checked,
            cycle_budget: defaults.cycle_budget,
            scenario: None,
        }
    }

    /// Names a scenario cell with default run options. The scenario is
    /// carried as its canonical manifest text, so the receiving daemon
    /// registers the bit-identical source (same [`SourceId`], same
    /// cache key) that an in-process run would use.
    ///
    /// [`SourceId`]: ccs_trace::SourceId
    pub fn for_scenario(
        scenario: &ccs_scenario::Scenario,
        sample_seed: u64,
        len: usize,
        layout: ClusterLayout,
        policy: PolicyKind,
    ) -> Self {
        let defaults = RunOptions::default();
        WireCellSpec {
            bench: format!("scenario:{}", scenario.name),
            sample_seed,
            len,
            layout: layout.name().to_string(),
            policy: policy.name().to_string(),
            epochs: defaults.epochs,
            run_seed: defaults.seed,
            checked: defaults.checked,
            cycle_budget: defaults.cycle_budget,
            scenario: Some(scenario.to_manifest()),
        }
    }

    /// The same cell with a different epoch count.
    #[must_use]
    pub fn with_epochs(mut self, epochs: u32) -> Self {
        self.epochs = epochs;
        self
    }

    /// The same cell with a cycle budget.
    #[must_use]
    pub fn with_cycle_budget(mut self, budget: u64) -> Self {
        self.cycle_budget = Some(budget);
        self
    }

    /// Projects an in-process [`CellSpec`] onto the wire vocabulary.
    ///
    /// # Errors
    ///
    /// [`ServeError::Malformed`] when the spec is off the wire surface:
    /// a custom policy configuration, a non-default LoC mode or
    /// training source, or a machine that is not the MICRO-05 baseline
    /// under its layout. Refusing is deliberate — a lossy projection
    /// would collide cache keys.
    pub fn from_cell(spec: &CellSpec) -> Result<Self, ServeError> {
        if spec.policy_config.is_some() {
            return Err(ServeError::Malformed {
                message: "custom policy configurations are not wire-addressable".into(),
            });
        }
        let defaults = RunOptions::default();
        if spec.options.loc_mode != defaults.loc_mode || spec.options.training != defaults.training
        {
            return Err(ServeError::Malformed {
                message: "non-default loc_mode/training are not wire-addressable".into(),
            });
        }
        let canonical = MachineConfig::micro05_baseline().with_layout(spec.config.layout);
        if spec.config != canonical {
            return Err(ServeError::Malformed {
                message: "only micro05_baseline machines are wire-addressable".into(),
            });
        }
        // Scenario cells re-emit the canonical manifest from the
        // registry, so a remote daemon re-registers the identical
        // content-addressed source.
        let (bench, scenario) = match spec.scenario {
            None => (spec.benchmark.name().to_string(), None),
            Some(id) => {
                let registry = ccs_trace::SourceRegistry::global();
                let manifest = registry.manifest(id).ok_or_else(|| ServeError::Malformed {
                    message: format!("scenario source {id} is not registered in this process"),
                })?;
                let name = registry.name(id).unwrap_or_else(|| "unnamed".into());
                (format!("scenario:{name}"), Some(manifest.to_string()))
            }
        };
        Ok(WireCellSpec {
            bench,
            sample_seed: spec.sample_seed,
            len: spec.len,
            layout: spec.config.layout.name().to_string(),
            policy: spec.policy.name().to_string(),
            epochs: spec.options.epochs,
            run_seed: spec.options.seed,
            checked: spec.options.checked,
            cycle_budget: spec.options.cycle_budget,
            scenario,
        })
    }

    /// Reconstructs the [`CellSpec`] this wire cell names. Metrics are
    /// always off server-side (they are write-only observers excluded
    /// from [`cell_key`](ccs_core::cell_key), so a client could not
    /// observe them anyway).
    ///
    /// # Errors
    ///
    /// [`ServeError::Malformed`] for unknown benchmark/layout/policy
    /// names, or a scenario manifest the DSL rejects.
    pub fn to_cell(&self) -> Result<CellSpec, ServeError> {
        let layout = parse_layout(&self.layout)?;
        let policy = parse_policy(&self.policy)?;
        let mut options = RunOptions::default()
            .with_epochs(self.epochs)
            .with_checked(self.checked);
        options.seed = self.run_seed;
        if let Some(budget) = self.cycle_budget {
            options = options.with_cycle_budget(budget);
        }
        let config = MachineConfig::micro05_baseline().with_layout(layout);
        if let Some(manifest) = &self.scenario {
            // Registration is content-addressed and idempotent, so
            // repeated submissions of the same scenario are free and
            // resolve to the same cache key.
            let (_, id) =
                ccs_scenario::register_manifest(manifest).map_err(|e| ServeError::Malformed {
                    message: format!("bad scenario manifest: {e}"),
                })?;
            return Ok(CellSpec::for_scenario(
                config,
                id,
                self.sample_seed,
                self.len,
                policy,
                options,
            ));
        }
        let bench = parse_benchmark(&self.bench)?;
        Ok(CellSpec::new(
            config,
            bench,
            self.sample_seed,
            self.len,
            policy,
            options,
        ))
    }

    fn encode_into(&self, out: &mut String) {
        let _ = write!(
            out,
            "{{\"bench\":{},\"sample_seed\":{},\"len\":{},\"layout\":{},\"policy\":{},\
             \"epochs\":{},\"run_seed\":{},\"checked\":{}",
            json::quoted(&self.bench),
            self.sample_seed,
            self.len,
            json::quoted(&self.layout),
            json::quoted(&self.policy),
            self.epochs,
            self.run_seed,
            self.checked,
        );
        match self.cycle_budget {
            None => out.push_str(",\"cycle_budget\":null"),
            Some(b) => {
                let _ = write!(out, ",\"cycle_budget\":{b}");
            }
        }
        // Omitted entirely for benchmark cells, so their encoding is
        // byte-identical to what pre-scenario builds produced.
        if let Some(manifest) = &self.scenario {
            let _ = write!(out, ",\"scenario\":{}", json::quoted(manifest));
        }
        out.push('}');
    }

    fn decode(obj: &str) -> Result<Self, ServeError> {
        let field = |name: &str| {
            json::str_field(obj, name).ok_or_else(|| ServeError::Malformed {
                message: format!("cell missing string field {name:?}"),
            })
        };
        let num = |name: &str| {
            json::u64_field(obj, name).ok_or_else(|| ServeError::Malformed {
                message: format!("cell missing numeric field {name:?}"),
            })
        };
        Ok(WireCellSpec {
            bench: field("bench")?,
            sample_seed: num("sample_seed")?,
            len: num("len")? as usize,
            layout: field("layout")?,
            policy: field("policy")?,
            epochs: u32::try_from(num("epochs")?).unwrap_or(u32::MAX),
            run_seed: num("run_seed")?,
            checked: json::bool_field(obj, "checked").ok_or_else(|| ServeError::Malformed {
                message: "cell missing bool field \"checked\"".into(),
            })?,
            cycle_budget: json::opt_u64_field(obj, "cycle_budget").ok_or_else(|| {
                ServeError::Malformed {
                    message: "cell missing field \"cycle_budget\"".into(),
                }
            })?,
            // Tolerant: absent (or null, from a cautious peer) reads as
            // a plain benchmark cell, keeping the protocol at v1.
            scenario: json::opt_str_field(obj, "scenario").flatten(),
        })
    }
}

/// A request frame, client → server.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Evaluate one cell.
    SubmitCell {
        /// Client-chosen submission id, echoed in every reply.
        id: u64,
        /// Opt in to an approximate answer: on a cache miss the daemon
        /// replies immediately with the cell's analytic
        /// [`Response::Approx`] envelope instead of simulating. A cache
        /// *hit* still returns the exact [`Response::Cell`] record — an
        /// exact answer is strictly better and costs nothing. Decoded
        /// tolerantly (absent reads as `false`), so version-1 clients
        /// that never send the field are unaffected.
        approx: bool,
        /// The cell.
        cell: WireCellSpec,
    },
    /// Evaluate a grid of cells.
    SubmitGrid {
        /// Client-chosen submission id, echoed in every reply.
        id: u64,
        /// The cells, in client index order.
        cells: Vec<WireCellSpec>,
    },
    /// Queue/cache/drain state.
    Status,
    /// Full server-side counters.
    Metrics,
    /// Stop admitting, finish in-flight work, then exit cleanly.
    Drain,
    /// Shard-to-shard cache peering: answer from the *local* result
    /// cache only — a hit is a [`Response::Cell`], a miss is a
    /// [`Response::NotFound`]. Never enqueues work and never consults
    /// the asking shard's own peers, so lookups cannot recurse.
    CacheLookup {
        /// The cell's [`cell_key`](ccs_core::cell_key).
        key: String,
    },
}

impl Request {
    /// The frame-kind index for metrics attribution.
    pub fn kind(&self) -> usize {
        match self {
            Request::SubmitCell { .. } => frame_kind::SUBMIT_CELL,
            Request::SubmitGrid { .. } => frame_kind::SUBMIT_GRID,
            Request::Status => frame_kind::STATUS,
            Request::Metrics => frame_kind::METRICS,
            Request::Drain => frame_kind::DRAIN,
            Request::CacheLookup { .. } => frame_kind::CACHE_LOOKUP,
        }
    }

    /// Renders the request as a frame payload.
    pub fn encode(&self) -> String {
        let mut out = String::with_capacity(64);
        let _ = write!(out, "{{\"v\":{PROTOCOL_VERSION},\"type\":");
        match self {
            Request::SubmitCell { id, approx, cell } => {
                // `approx` is written before the "cell" tag so the
                // tag-scan decode of the nested object stays valid.
                let _ = write!(out, "\"submit_cell\",\"id\":{id},\"approx\":{approx},\"cell\":");
                cell.encode_into(&mut out);
                out.push('}');
            }
            Request::SubmitGrid { id, cells } => {
                let _ = write!(out, "\"submit_grid\",\"id\":{id},\"cells\":[");
                for (i, cell) in cells.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    cell.encode_into(&mut out);
                }
                out.push_str("]}");
            }
            Request::Status => out.push_str("\"status\"}"),
            Request::Metrics => out.push_str("\"metrics\"}"),
            Request::Drain => out.push_str("\"drain\"}"),
            Request::CacheLookup { key } => {
                let _ = write!(out, "\"cache_lookup\",\"key\":{}}}", json::quoted(key));
            }
        }
        out
    }

    /// Parses a frame payload.
    ///
    /// # Errors
    ///
    /// [`ServeError::Malformed`] for anything that is not a versioned,
    /// known request object.
    pub fn decode(payload: &str) -> Result<Request, ServeError> {
        let payload = payload.trim();
        if !payload.starts_with('{') || !payload.ends_with('}') {
            return Err(ServeError::Malformed {
                message: "payload is not a JSON object".into(),
            });
        }
        let v = json::u64_field(payload, "v").ok_or_else(|| ServeError::Malformed {
            message: "missing protocol version field \"v\"".into(),
        })?;
        if v != PROTOCOL_VERSION {
            return Err(ServeError::Malformed {
                message: format!("protocol version {v} unsupported (this build speaks {PROTOCOL_VERSION})"),
            });
        }
        let ty = json::str_field(payload, "type").ok_or_else(|| ServeError::Malformed {
            message: "missing field \"type\"".into(),
        })?;
        match ty.as_str() {
            "submit_cell" => {
                let id = json::u64_field(payload, "id").ok_or_else(|| ServeError::Malformed {
                    message: "submit_cell missing \"id\"".into(),
                })?;
                // Reuse the array splitter on the single nested object
                // by scanning from the "cell" tag to the payload end.
                let tag = "\"cell\":{";
                let start = payload.find(tag).ok_or_else(|| ServeError::Malformed {
                    message: "submit_cell missing \"cell\" object".into(),
                })?;
                let cell = WireCellSpec::decode(&payload[start + tag.len() - 1..])?;
                // Tolerant: clients predating the approximate tier
                // never send the field; absent means exact.
                let approx = json::bool_field(&payload[..start], "approx").unwrap_or(false);
                Ok(Request::SubmitCell { id, approx, cell })
            }
            "submit_grid" => {
                let id = json::u64_field(payload, "id").ok_or_else(|| ServeError::Malformed {
                    message: "submit_grid missing \"id\"".into(),
                })?;
                let elements =
                    json::array_field(payload, "cells").ok_or_else(|| ServeError::Malformed {
                        message: "submit_grid missing or unbalanced \"cells\" array".into(),
                    })?;
                let cells = elements
                    .iter()
                    .map(|e| WireCellSpec::decode(e))
                    .collect::<Result<Vec<_>, _>>()?;
                Ok(Request::SubmitGrid { id, cells })
            }
            "status" => Ok(Request::Status),
            "metrics" => Ok(Request::Metrics),
            "drain" => Ok(Request::Drain),
            "cache_lookup" => Ok(Request::CacheLookup {
                key: json::str_field(payload, "key").ok_or_else(|| ServeError::Malformed {
                    message: "cache_lookup missing \"key\"".into(),
                })?,
            }),
            other => Err(ServeError::Malformed {
                message: format!("unknown request type {other:?}"),
            }),
        }
    }
}

/// One finished cell as reported over the wire: the same digest fields
/// the checkpoint manifest records, plus cache attribution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireCellRecord {
    /// Position of this cell in the submission.
    pub index: usize,
    /// The cell's [`cell_key`](ccs_core::cell_key).
    pub key: String,
    /// `ok`, `FAILED`, or `TIMEOUT`.
    pub status: String,
    /// Attempts spent on the cell.
    pub attempts: u32,
    /// Measured-epoch cycle count (0 for failed cells).
    pub cycles: u64,
    /// Bit pattern of the measured CPI (0 for failed cells).
    pub cpi_bits: u64,
    /// Result digest, [`CheckpointRecord::digest`] (0 for failed cells).
    pub digest: u64,
    /// Whether the result came from the daemon's result cache.
    pub cached: bool,
    /// The error rendering for failed/timed-out cells.
    pub error: Option<String>,
}

impl WireCellRecord {
    /// Builds the wire record from a checkpoint digest.
    pub fn from_checkpoint(index: usize, rec: &CheckpointRecord, cached: bool) -> Self {
        WireCellRecord {
            index,
            key: rec.key.clone(),
            status: rec.status.clone(),
            attempts: rec.attempts,
            cycles: rec.cycles,
            cpi_bits: rec.cpi_bits,
            digest: rec.digest,
            cached,
            error: rec.error.clone(),
        }
    }

    /// Projects the wire record back onto a [`CheckpointRecord`] — the
    /// inverse of [`from_checkpoint`](Self::from_checkpoint) for every
    /// field that travels (`metrics_digest` and the predicted envelope
    /// do not; they come back [`None`]). Cache peering uses this to
    /// install a peer's answer into the local result cache.
    pub fn to_checkpoint(&self) -> CheckpointRecord {
        CheckpointRecord {
            key: self.key.clone(),
            status: self.status.clone(),
            attempts: self.attempts,
            cycles: self.cycles,
            cpi_bits: self.cpi_bits,
            digest: self.digest,
            metrics_digest: None,
            predicted_lo: None,
            predicted_hi: None,
            error: self.error.clone(),
        }
    }

    /// Whether the cell completed successfully.
    pub fn is_ok(&self) -> bool {
        self.status == "ok"
    }

    /// The measured CPI.
    pub fn cpi(&self) -> f64 {
        f64::from_bits(self.cpi_bits)
    }
}

/// A response frame, server → client.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// One finished cell of a submission (streamed in completion
    /// order).
    Cell {
        /// The submission id this cell belongs to.
        id: u64,
        /// The finished cell.
        record: WireCellRecord,
    },
    /// An approximate answer to an opt-in [`Request::SubmitCell`]: the
    /// cell's analytic `[cycles_lo, cycles_hi]` envelope and IPC
    /// ceiling (`ccs-predict`), computed from the trace and machine
    /// config without simulating. Never cached as a result — a later
    /// exact submission of the same cell simulates (and caches)
    /// normally.
    Approx {
        /// The submission id.
        id: u64,
        /// The cell's [`cell_key`](ccs_core::cell_key) — identical to
        /// the key an exact evaluation would record.
        key: String,
        /// Sound lower bound on the measured-epoch cycle count.
        cycles_lo: u64,
        /// Ceiling a successful run cannot exceed.
        cycles_hi: u64,
        /// Bit pattern of the IPC ceiling (exact float transport, like
        /// `cpi_bits`).
        ipc_hi_bits: u64,
        /// Confidence tag (`high` / `medium` / `low`).
        confidence: String,
    },
    /// A submission finished; tallies over its cells.
    GridDone {
        /// The submission id.
        id: u64,
        /// Cells in the submission.
        cells: usize,
        /// Cells that completed.
        ok: usize,
        /// Cells that failed.
        failed: usize,
        /// Cells that timed out.
        timed_out: usize,
        /// Cells served from the result cache.
        cached: usize,
    },
    /// Typed backpressure: nothing was admitted; retry after the hint.
    Busy {
        /// Advisory backoff in milliseconds.
        retry_after_ms: u64,
    },
    /// The request was refused (draining daemon, unparseable cell).
    Rejected {
        /// Why.
        reason: String,
    },
    /// Queue/cache/drain state.
    Status(StatusReply),
    /// Full server-side counters as a rendered JSON object.
    Metrics {
        /// The metrics object (JSON text).
        json: String,
    },
    /// Drain acknowledged; the daemon exits once `pending` reaches 0.
    Draining {
        /// Cells admitted but not yet finished.
        pending: u64,
    },
    /// A protocol-level error the server noticed in the request.
    Error {
        /// What was wrong.
        message: String,
    },
    /// A [`Request::CacheLookup`] missed the local cache.
    NotFound {
        /// The key that was asked for, echoed back.
        key: String,
    },
}

/// The payload of a [`Response::Status`] reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StatusReply {
    /// Protocol version the server speaks.
    pub protocol: u64,
    /// Whether the daemon is draining.
    pub draining: bool,
    /// Cells pending in the admission queue.
    pub queue_depth: u64,
    /// Admission-queue capacity.
    pub queue_capacity: u64,
    /// Worker threads.
    pub workers: u64,
    /// Entries in the result cache.
    pub cache_len: u64,
    /// Result-cache capacity.
    pub cache_capacity: u64,
    /// Result-cache hits since start.
    pub cache_hits: u64,
    /// Result-cache misses since start.
    pub cache_misses: u64,
    /// Cells admitted since start.
    pub cells_admitted: u64,
    /// Cells evaluated since start.
    pub cells_evaluated: u64,
    /// Busy rejects since start.
    pub admission_rejects: u64,
    /// Protocol errors since start.
    pub protocol_errors: u64,
    /// Approximate (envelope-only) answers served since start.
    pub approx_answered: u64,
    /// Cache entries rebuilt from the journal at startup (0 unless the
    /// daemon recovered from a crash).
    pub recovered: u64,
    /// Local misses answered by a peer shard's cache since start.
    pub peer_hits: u64,
}

impl Response {
    /// Renders the response as a frame payload.
    pub fn encode(&self) -> String {
        let mut out = String::with_capacity(96);
        match self {
            Response::Cell { id, record } => {
                let _ = write!(
                    out,
                    "{{\"type\":\"cell\",\"id\":{id},\"index\":{},\"key\":{},\"status\":{},\
                     \"attempts\":{},\"cycles\":{},\"cpi_bits\":{},\"digest\":{},\"cached\":{}",
                    record.index,
                    json::quoted(&record.key),
                    json::quoted(&record.status),
                    record.attempts,
                    record.cycles,
                    record.cpi_bits,
                    record.digest,
                    record.cached,
                );
                match &record.error {
                    None => out.push_str(",\"error\":null}"),
                    Some(e) => {
                        let _ = write!(out, ",\"error\":{}}}", json::quoted(e));
                    }
                }
            }
            Response::Approx {
                id,
                key,
                cycles_lo,
                cycles_hi,
                ipc_hi_bits,
                confidence,
            } => {
                let _ = write!(
                    out,
                    "{{\"type\":\"approx\",\"id\":{id},\"key\":{},\"cycles_lo\":{cycles_lo},\
                     \"cycles_hi\":{cycles_hi},\"ipc_hi_bits\":{ipc_hi_bits},\"confidence\":{}}}",
                    json::quoted(key),
                    json::quoted(confidence),
                );
            }
            Response::GridDone {
                id,
                cells,
                ok,
                failed,
                timed_out,
                cached,
            } => {
                let _ = write!(
                    out,
                    "{{\"type\":\"grid_done\",\"id\":{id},\"cells\":{cells},\"ok\":{ok},\
                     \"failed\":{failed},\"timed_out\":{timed_out},\"cached\":{cached}}}",
                );
            }
            Response::Busy { retry_after_ms } => {
                let _ = write!(
                    out,
                    "{{\"type\":\"busy\",\"retry_after_ms\":{retry_after_ms}}}"
                );
            }
            Response::Rejected { reason } => {
                let _ = write!(
                    out,
                    "{{\"type\":\"rejected\",\"reason\":{}}}",
                    json::quoted(reason)
                );
            }
            Response::Status(s) => {
                let _ = write!(
                    out,
                    "{{\"type\":\"status\",\"protocol\":{},\"draining\":{},\"queue_depth\":{},\
                     \"queue_capacity\":{},\"workers\":{},\"cache_len\":{},\"cache_capacity\":{},\
                     \"cache_hits\":{},\"cache_misses\":{},\"cells_admitted\":{},\
                     \"cells_evaluated\":{},\"admission_rejects\":{},\"protocol_errors\":{},\
                     \"approx_answered\":{},\"recovered\":{},\"peer_hits\":{}}}",
                    s.protocol,
                    s.draining,
                    s.queue_depth,
                    s.queue_capacity,
                    s.workers,
                    s.cache_len,
                    s.cache_capacity,
                    s.cache_hits,
                    s.cache_misses,
                    s.cells_admitted,
                    s.cells_evaluated,
                    s.admission_rejects,
                    s.protocol_errors,
                    s.approx_answered,
                    s.recovered,
                    s.peer_hits,
                );
            }
            Response::Metrics { json: body } => {
                let _ = write!(out, "{{\"type\":\"metrics\",\"metrics\":{body}}}");
            }
            Response::Draining { pending } => {
                let _ = write!(out, "{{\"type\":\"draining\",\"pending\":{pending}}}");
            }
            Response::Error { message } => {
                let _ = write!(
                    out,
                    "{{\"type\":\"error\",\"message\":{}}}",
                    json::quoted(message)
                );
            }
            Response::NotFound { key } => {
                let _ = write!(
                    out,
                    "{{\"type\":\"not_found\",\"key\":{}}}",
                    json::quoted(key)
                );
            }
        }
        out
    }

    /// Parses a response frame payload.
    ///
    /// # Errors
    ///
    /// [`ServeError::Malformed`] for anything that is not a known
    /// response object.
    pub fn decode(payload: &str) -> Result<Response, ServeError> {
        let missing = |name: &str| ServeError::Malformed {
            message: format!("response missing field {name:?}"),
        };
        let num =
            |name: &str| json::u64_field(payload, name).ok_or_else(|| missing(name));
        let ty = json::str_field(payload, "type").ok_or_else(|| missing("type"))?;
        match ty.as_str() {
            "cell" => Ok(Response::Cell {
                id: num("id")?,
                record: WireCellRecord {
                    index: num("index")? as usize,
                    key: json::str_field(payload, "key").ok_or_else(|| missing("key"))?,
                    status: json::str_field(payload, "status")
                        .ok_or_else(|| missing("status"))?,
                    attempts: u32::try_from(num("attempts")?).unwrap_or(u32::MAX),
                    cycles: num("cycles")?,
                    cpi_bits: num("cpi_bits")?,
                    digest: num("digest")?,
                    cached: json::bool_field(payload, "cached")
                        .ok_or_else(|| missing("cached"))?,
                    error: json::opt_str_field(payload, "error")
                        .ok_or_else(|| missing("error"))?,
                },
            }),
            "approx" => Ok(Response::Approx {
                id: num("id")?,
                key: json::str_field(payload, "key").ok_or_else(|| missing("key"))?,
                cycles_lo: num("cycles_lo")?,
                cycles_hi: num("cycles_hi")?,
                ipc_hi_bits: num("ipc_hi_bits")?,
                confidence: json::str_field(payload, "confidence")
                    .ok_or_else(|| missing("confidence"))?,
            }),
            "grid_done" => Ok(Response::GridDone {
                id: num("id")?,
                cells: num("cells")? as usize,
                ok: num("ok")? as usize,
                failed: num("failed")? as usize,
                timed_out: num("timed_out")? as usize,
                cached: num("cached")? as usize,
            }),
            "busy" => Ok(Response::Busy {
                retry_after_ms: num("retry_after_ms")?,
            }),
            "rejected" => Ok(Response::Rejected {
                reason: json::str_field(payload, "reason").ok_or_else(|| missing("reason"))?,
            }),
            "status" => Ok(Response::Status(StatusReply {
                protocol: num("protocol")?,
                draining: json::bool_field(payload, "draining")
                    .ok_or_else(|| missing("draining"))?,
                queue_depth: num("queue_depth")?,
                queue_capacity: num("queue_capacity")?,
                workers: num("workers")?,
                cache_len: num("cache_len")?,
                cache_capacity: num("cache_capacity")?,
                cache_hits: num("cache_hits")?,
                cache_misses: num("cache_misses")?,
                cells_admitted: num("cells_admitted")?,
                cells_evaluated: num("cells_evaluated")?,
                admission_rejects: num("admission_rejects")?,
                protocol_errors: num("protocol_errors")?,
                approx_answered: num("approx_answered")?,
                recovered: num("recovered")?,
                peer_hits: num("peer_hits")?,
            })),
            "metrics" => {
                let tag = "\"metrics\":";
                let start = payload.find(tag).ok_or_else(|| missing("metrics"))? + tag.len();
                // The metrics object runs to the payload's closing brace.
                let body = payload[start..payload.len() - 1].trim().to_string();
                Ok(Response::Metrics { json: body })
            }
            "draining" => Ok(Response::Draining {
                pending: num("pending")?,
            }),
            "error" => Ok(Response::Error {
                message: json::str_field(payload, "message")
                    .ok_or_else(|| missing("message"))?,
            }),
            "not_found" => Ok(Response::NotFound {
                key: json::str_field(payload, "key").ok_or_else(|| missing("key"))?,
            }),
            other => Err(ServeError::Malformed {
                message: format!("unknown response type {other:?}"),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_cells() -> Vec<WireCellSpec> {
        vec![
            WireCellSpec::new(
                Benchmark::Vpr,
                1,
                2_000,
                ClusterLayout::C4x2w,
                PolicyKind::Focused,
            ),
            WireCellSpec::new(
                Benchmark::Gzip,
                2,
                1_500,
                ClusterLayout::C8x1w,
                PolicyKind::Proactive,
            )
            .with_epochs(3)
            .with_cycle_budget(500_000),
        ]
    }

    fn sample_scenario_cell() -> WireCellSpec {
        WireCellSpec::for_scenario(
            &ccs_scenario::Scenario::benchmark_equivalent(Benchmark::Gzip),
            7,
            1_200,
            ClusterLayout::C2x4w,
            PolicyKind::Dependence,
        )
    }

    #[test]
    fn benchmark_cells_encode_without_the_scenario_field() {
        // Pre-scenario builds never wrote the field; omitting it keeps
        // benchmark-cell payloads byte-identical across versions.
        let mut out = String::new();
        sample_cells()[0].encode_into(&mut out);
        assert!(!out.contains("scenario"), "{out}");
    }

    #[test]
    fn scenario_cells_round_trip_through_requests() {
        let reqs = [
            Request::SubmitCell {
                id: 21,
                approx: false,
                cell: sample_scenario_cell(),
            },
            // A grid mixing benchmark and scenario cells exercises the
            // array splitter against an embedded multi-line manifest.
            Request::SubmitGrid {
                id: 22,
                cells: vec![
                    sample_cells()[0].clone(),
                    sample_scenario_cell(),
                    sample_cells()[1].clone(),
                ],
            },
        ];
        for req in reqs {
            let payload = req.encode();
            let back = Request::decode(&payload).unwrap_or_else(|e| panic!("{payload}: {e}"));
            assert_eq!(back, req, "{payload}");
        }
    }

    #[test]
    fn scenario_wire_cells_round_trip_through_cell_specs() {
        let wire = sample_scenario_cell();
        let spec = wire.to_cell().unwrap();
        let id = spec.scenario.expect("scenario cell spec must carry a source id");
        assert_eq!(
            id.raw(),
            ccs_scenario::Scenario::benchmark_equivalent(Benchmark::Gzip)
                .fingerprint(),
            "wire transport must preserve the content-addressed identity"
        );
        let back = WireCellSpec::from_cell(&spec).unwrap();
        assert_eq!(back, wire);
    }

    #[test]
    fn scenario_cells_fail_loudly_on_pre_scenario_daemons() {
        // An old daemon's decode drops the unknown "scenario" field and
        // is left staring at bench = "scenario:<name>" — which must be
        // an unknown-benchmark error, never a silent placeholder run.
        let mut stripped = sample_scenario_cell();
        stripped.scenario = None;
        let err = stripped.to_cell().unwrap_err();
        assert!(
            matches!(&err, ServeError::Malformed { message } if message.contains("scenario:gzip")),
            "{err}"
        );
    }

    #[test]
    fn rejected_scenario_manifests_are_malformed_not_fatal() {
        let mut cell = sample_scenario_cell();
        cell.scenario = Some("name = \"broken\"\n".into());
        let err = cell.to_cell().unwrap_err();
        assert!(matches!(&err, ServeError::Malformed { .. }), "{err}");
        assert!(err.is_recoverable());
    }

    #[test]
    fn requests_round_trip() {
        let reqs = [
            Request::SubmitCell {
                id: 9,
                approx: false,
                cell: sample_cells()[0].clone(),
            },
            Request::SubmitCell {
                id: 10,
                approx: true,
                cell: sample_cells()[1].clone(),
            },
            Request::SubmitGrid {
                id: 7,
                cells: sample_cells(),
            },
            Request::SubmitGrid {
                id: 8,
                cells: Vec::new(),
            },
            Request::Status,
            Request::Metrics,
            Request::Drain,
            Request::CacheLookup {
                key: "vpr/s1/n2000/4x2w/Focused/00ff".into(),
            },
        ];
        for req in reqs {
            let payload = req.encode();
            let back = Request::decode(&payload).unwrap_or_else(|e| panic!("{payload}: {e}"));
            assert_eq!(back, req, "{payload}");
        }
    }

    #[test]
    fn submit_cell_without_approx_field_decodes_as_exact() {
        // A client predating the approximate tier omits the field
        // entirely; the daemon must read that as an exact submission.
        let payload = Request::SubmitCell {
            id: 1,
            approx: false,
            cell: sample_cells()[0].clone(),
        }
        .encode()
        .replace("\"approx\":false,", "");
        match Request::decode(&payload).unwrap() {
            Request::SubmitCell { approx, .. } => assert!(!approx),
            other => panic!("unexpected decode: {other:?}"),
        }
    }

    #[test]
    fn responses_round_trip() {
        let resps = [
            Response::Cell {
                id: 3,
                record: WireCellRecord {
                    index: 5,
                    key: "vpr/s1/n2000/4x2w/Focused/00ff".into(),
                    status: "ok".into(),
                    attempts: 1,
                    cycles: 1234,
                    cpi_bits: 0x3ff0_0000_0000_0000,
                    digest: 0xdead_beef,
                    cached: true,
                    error: None,
                },
            },
            Response::Cell {
                id: 3,
                record: WireCellRecord {
                    index: 0,
                    key: "k".into(),
                    status: "FAILED".into(),
                    attempts: 2,
                    cycles: 0,
                    cpi_bits: 0,
                    digest: 0,
                    cached: false,
                    error: Some("cell panicked: \"quoted\"\nnewline".into()),
                },
            },
            Response::Approx {
                id: 4,
                key: "vpr/s1/n2000/4x2w/Focused/00ff".into(),
                cycles_lo: 1_100,
                cycles_hi: 228_001,
                ipc_hi_bits: (1.8182_f64).to_bits(),
                confidence: "medium".into(),
            },
            Response::GridDone {
                id: 3,
                cells: 6,
                ok: 5,
                failed: 1,
                timed_out: 0,
                cached: 2,
            },
            Response::Busy { retry_after_ms: 40 },
            Response::Rejected {
                reason: "draining".into(),
            },
            Response::Status(StatusReply {
                protocol: PROTOCOL_VERSION,
                draining: false,
                queue_depth: 3,
                queue_capacity: 256,
                workers: 4,
                cache_len: 10,
                cache_capacity: 4096,
                cache_hits: 7,
                cache_misses: 13,
                cells_admitted: 20,
                cells_evaluated: 17,
                admission_rejects: 1,
                protocol_errors: 2,
                approx_answered: 6,
                recovered: 11,
                peer_hits: 3,
            }),
            Response::Metrics {
                json: "{\"queue_depth\":0}".into(),
            },
            Response::Draining { pending: 4 },
            Response::Error {
                message: "malformed payload: missing field \"type\"".into(),
            },
            Response::NotFound {
                key: "gzip/s2/n1500/8x1w/Proactive/0abc".into(),
            },
        ];
        for resp in resps {
            let payload = resp.encode();
            let back = Response::decode(&payload).unwrap_or_else(|e| panic!("{payload}: {e}"));
            assert_eq!(back, resp, "{payload}");
        }
    }

    #[test]
    fn wire_records_round_trip_through_checkpoints() {
        let rec = CheckpointRecord {
            key: "vpr/s1/n2000/4x2w/Focused/00ff".into(),
            status: "ok".into(),
            attempts: 2,
            cycles: 987,
            cpi_bits: 0x3ff8_0000_0000_0000,
            digest: 0xfeed,
            metrics_digest: None,
            predicted_lo: None,
            predicted_hi: None,
            error: None,
        };
        let wire = WireCellRecord::from_checkpoint(4, &rec, true);
        assert_eq!(wire.to_checkpoint(), rec);
    }

    #[test]
    fn wire_cells_round_trip_through_cell_specs() {
        for wire in sample_cells() {
            let spec = wire.to_cell().unwrap();
            let back = WireCellSpec::from_cell(&spec).unwrap();
            assert_eq!(back, wire);
        }
    }

    #[test]
    fn off_surface_specs_are_refused() {
        let spec = sample_cells()[0].clone().to_cell().unwrap();
        let custom = spec.with_policy_config(PolicyKind::Focused.config());
        assert!(WireCellSpec::from_cell(&custom).is_err());
    }

    #[test]
    fn unknown_names_are_malformed() {
        let mut cell = sample_cells()[0].clone();
        cell.bench = "quake".into();
        assert!(matches!(
            cell.to_cell(),
            Err(ServeError::Malformed { .. })
        ));
        let mut cell = sample_cells()[0].clone();
        cell.layout = "3x3w".into();
        assert!(cell.to_cell().is_err());
        let mut cell = sample_cells()[0].clone();
        cell.policy = "oracle".into();
        assert!(cell.to_cell().is_err());
    }

    #[test]
    fn version_mismatch_is_rejected() {
        let payload = Request::Status.encode().replace("\"v\":1", "\"v\":2");
        let err = Request::decode(&payload).unwrap_err();
        assert!(matches!(err, ServeError::Malformed { .. }), "{err}");
        assert!(err.is_recoverable());
    }

    #[test]
    fn duration_casts_saturate_instead_of_truncating() {
        use std::time::Duration;
        // A bare `.as_millis() as u64` keeps only the low 64 bits of
        // the u128: 2^60 seconds is 1000 * 2^60 ms, which truncates to
        // 2^63 — a wrong-but-plausible number. The saturating helpers
        // must pin out-of-range durations to u64::MAX instead; a
        // wrapped Busy retry hint could tell clients to retry far too
        // soon.
        let huge = Duration::from_secs(1 << 60);
        assert_eq!(huge.as_millis() as u64, 1u64 << 63, "premise: bare cast wraps");
        assert_eq!(saturating_millis(huge), u64::MAX);
        assert_eq!(saturating_millis(Duration::MAX), u64::MAX);
        assert_eq!(saturating_nanos(huge), u64::MAX);
        assert_eq!(saturating_nanos(Duration::MAX), u64::MAX);
        // In-range durations pass through exactly.
        assert_eq!(saturating_millis(Duration::from_millis(1500)), 1500);
        assert_eq!(saturating_nanos(Duration::from_nanos(42)), 42);
        assert_eq!(saturating_millis(Duration::ZERO), 0);
    }

    #[test]
    fn oversized_wire_counts_saturate_to_u32() {
        // epochs/attempts travel as u64 JSON numbers but live as u32;
        // a value past u32::MAX must clamp, not silently wrap to its
        // low 32 bits ((1 << 35) + 9 would otherwise decode as 9).
        let json = Request::SubmitGrid {
            id: 7,
            cells: sample_cells(),
        }
        .encode()
        .replace("\"epochs\":3", &format!("\"epochs\":{}", (1u64 << 35) + 9));
        match Request::decode(&json).unwrap() {
            Request::SubmitGrid { cells, .. } => assert_eq!(cells[1].epochs, u32::MAX),
            other => panic!("wrong decode: {other:?}"),
        }
    }

    #[test]
    fn garbage_payloads_error_without_panicking() {
        for payload in [
            "",
            "null",
            "[]",
            "{}",
            "{\"v\":1}",
            "{\"v\":1,\"type\":\"submit_grid\"}",
            "{\"v\":1,\"type\":\"submit_grid\",\"id\":1,\"cells\":[{\"bench\":\"vpr\"}]}",
            "{\"v\":1,\"type\":\"warp\"}",
            "{\"v\":1,\"type\":\"submit_grid\",\"id\":1,\"cells\":[{",
        ] {
            assert!(Request::decode(payload).is_err(), "{payload:?}");
        }
    }
}
