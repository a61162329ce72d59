//! Simulation-as-a-service for the clustercrit experiment grid.
//!
//! `ccs-serve` turns the batch experiment executor into a long-running
//! daemon: clients submit grid cells over TCP, the daemon evaluates
//! them on a worker pool with the same panic-isolated resilient
//! executor the batch harness uses, answers duplicates from a bounded
//! LRU result cache keyed by the checkpoint
//! [`cell_key`](ccs_core::cell_key), and pushes back with typed `busy`
//! replies when its bounded admission queue is full. Opt-in `approx`
//! submissions skip the queue entirely: cache hits answer exactly and
//! everything else gets `ccs-predict`'s analytic cycle/IPC envelope,
//! which the client escalates to a full simulation by re-submitting
//! without the flag. Results are
//! *bit-identical* to an in-process [`run_grid`](ccs_core::run_grid) of
//! the same cells — same schedule digests, same CPI bit patterns —
//! because both paths run the same deterministic evaluation; the
//! round-trip integration test pins that.
//!
//! Layering:
//!
//! - [`json`] — dependency-free JSON field scanners (render + parse).
//! - [`protocol`] — the versioned request/response vocabulary
//!   ([`Request`], [`Response`], [`WireCellSpec`], [`WireCellRecord`]).
//! - [`wire`] — `CCS1` length-prefixed framing with a partial-read
//!   tolerant [`FrameReader`].
//! - [`cache`] — the bounded LRU [`ResultCache`] (ok results only).
//! - [`journal`] — the append-only JSONL request [`Journal`].
//! - [`server`] — the daemon itself: [`Server`], [`ServeConfig`],
//!   accept loop, worker pool, graceful drain.
//!
//! The `ccs-serve` binary wraps [`Server`] with flag parsing; the
//! `ccs-client` crate speaks the same protocol from the other side.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod journal;
pub mod protocol;
pub mod server;
pub mod wire;

pub use cache::ResultCache;
pub use ccs_core::json;
pub use journal::{
    load_journal, replay_journal, Journal, JournalEvent, ReplayState, JOURNAL_VERSION,
};
pub use protocol::{
    saturating_millis, saturating_nanos, Request, Response, ServeError, StatusReply,
    WireCellRecord, WireCellSpec, MAX_FRAME_LEN, PROTOCOL_VERSION, WIRE_POLICIES,
};
pub use server::{render_metrics, KillSwitch, ServeConfig, Server, DEFAULT_QUEUE_CAPACITY};
pub use wire::{frame_bytes, write_frame, FrameReader, Poll, MAGIC};
