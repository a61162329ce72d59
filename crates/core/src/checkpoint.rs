//! Checkpoint/resume for long grid campaigns.
//!
//! A campaign streams every finished cell — completed, failed, or timed
//! out — to an append-only JSONL *manifest* (one record per line,
//! written and flushed as the cell finishes). A campaign killed mid-run
//! can then be restarted with [`CampaignOptions::resume`]: cells whose
//! key is already recorded are skipped, only the missing cells run, and
//! the merged manifest is bit-identical to the manifest of an
//! uninterrupted run (a property the test suite enforces).
//!
//! Records carry a *digest* of each result — the cycle count, the CPI
//! bit pattern, and [`SimResult::digest`](ccs_sim::SimResult::digest)
//! over the counters and the full per-instruction record vector —
//! rather than the result itself, which keeps manifests small while
//! still detecting any divergence between a resumed and a fresh
//! evaluation.
//!
//! The manifest format is hand-rolled: records are flat and the
//! workspace deliberately carries no JSON dependency (the vendored
//! `serde` is an offline stub). Every manifest opens with a header line
//! naming the format and its [`MANIFEST_SCHEMA`] version; a manifest
//! with a missing or mismatched header fails loudly instead of being
//! silently treated as empty (which would wrongly re-run — or worse,
//! wrongly skip — every cell). Loading still tolerates a torn *final*
//! line — the expected artifact of killing a campaign mid-write — by
//! treating it as "not recorded".

use crate::error::CcsError;
use crate::grid::{evaluate_cell, run_cells, CellResult, CellSpec, CellStatus, Resilience};
use crate::json;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::fs::OpenOptions;
use std::io::{BufWriter, Write as _};
use std::path::{Path, PathBuf};
use std::sync::{Mutex, PoisonError};

/// Version of the manifest's key fingerprint and record layout.
///
/// Schema 1 was the pre-header format whose keys hashed the spec's
/// `Debug` rendering. Schema 2 hashes explicitly serialized fields (see
/// [`cell_key`]) and records an optional metrics digest. Schema 3
/// replaces the result digest's hash of the result's `Debug` rendering
/// with [`SimResult::digest`](ccs_sim::SimResult::digest); keys are
/// unchanged, but every `digest` value differs. Bump this
/// whenever either changes incompatibly; [`load_manifest`] refuses
/// manifests whose header does not match, so stale checkpoints surface
/// as a hard error instead of a silently wrong resume.
pub const MANIFEST_SCHEMA: u32 = 3;

/// The manifest's first line: format marker plus schema version.
fn manifest_header() -> String {
    format!("{{\"manifest\":\"ccs-grid-manifest\",\"schema\":{MANIFEST_SCHEMA}}}")
}

/// An FNV-1a accumulator over *explicitly serialized*, type-tagged
/// fields.
///
/// Every push prepends a type tag byte, so adjacent fields of different
/// types can never alias (e.g. `Some(0)` vs `None` followed by `0`). This
/// is the identity layer under [`cell_key`]: it hashes field values, never
/// `Debug` output, so a derive or float-formatting change cannot silently
/// reshuffle manifest keys.
#[derive(Debug)]
struct Fingerprint(u64);

impl Fingerprint {
    fn new() -> Self {
        Fingerprint(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&[1]);
        self.bytes(&v.to_le_bytes());
    }

    fn bool(&mut self, v: bool) {
        self.bytes(&[2, v as u8]);
    }

    /// Floats are hashed by bit pattern — exact, no formatting round trip.
    fn f64(&mut self, v: f64) {
        self.bytes(&[3]);
        self.bytes(&v.to_bits().to_le_bytes());
    }

    fn str(&mut self, s: &str) {
        self.bytes(&[4]);
        self.bytes(&(s.len() as u64).to_le_bytes());
        self.bytes(s.as_bytes());
    }

    fn none(&mut self) {
        self.bytes(&[5]);
    }

    fn some(&mut self) {
        self.bytes(&[6]);
    }

    fn opt_u64(&mut self, v: Option<u64>) {
        match v {
            None => self.none(),
            Some(v) => {
                self.some();
                self.u64(v);
            }
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Hashes every semantic field of `spec` — workload axes, machine
/// configuration, policy and its configuration, and the run options —
/// in a fixed, documented order.
///
/// Deliberately excluded: [`RunOptions::metrics`]. Metrics collection is
/// a write-only observer (schedules and results are bit-identical with it
/// on or off), so it must not change a cell's identity — a campaign can
/// be resumed with metrics toggled and still skip its finished cells.
fn spec_fingerprint(spec: &CellSpec) -> u64 {
    let mut fp = Fingerprint::new();
    // Workload axes. A scenario cell hashes the content-addressed
    // source fingerprint instead of the benchmark name; the `some`
    // type tag keeps it from ever aliasing a benchmark cell (old
    // benchmark fingerprints are unchanged, so adding it needed no
    // schema bump).
    match spec.scenario {
        None => fp.str(spec.benchmark.name()),
        Some(id) => {
            fp.some();
            fp.u64(id.raw());
        }
    }
    fp.u64(spec.sample_seed);
    fp.u64(spec.len as u64);
    // Machine configuration.
    let c = &spec.config;
    fp.str(c.layout.name());
    fp.u64(c.front_end.fetch_width as u64);
    fp.u64(c.front_end.depth_to_dispatch as u64);
    fp.u64(c.front_end.gshare_history_bits as u64);
    fp.u64(c.front_end.skid_buffer as u64);
    fp.bool(c.front_end.break_on_taken);
    fp.u64(c.window_total as u64);
    fp.u64(c.rob_entries as u64);
    fp.u64(c.commit_width as u64);
    fp.u64(c.int_total as u64);
    fp.u64(c.fp_total as u64);
    fp.u64(c.mem_total as u64);
    fp.u64(c.forward_latency as u64);
    fp.opt_u64(c.forward_bandwidth.map(u64::from));
    fp.u64(c.memory.l1_bytes as u64);
    fp.u64(c.memory.l1_ways as u64);
    fp.u64(c.memory.l1_line_bytes as u64);
    fp.u64(c.memory.l2_latency as u64);
    match c.memory.l2 {
        None => fp.none(),
        Some(l2) => {
            fp.some();
            fp.u64(l2.bytes as u64);
            fp.u64(l2.ways as u64);
            fp.u64(l2.line_bytes as u64);
            fp.u64(l2.memory_latency as u64);
        }
    }
    // Per-cluster shape. Derived from the totals and layout today, but a
    // resumed campaign must not silently survive a change to that
    // derivation.
    fp.u64(c.cluster.window_entries as u64);
    fp.u64(c.cluster.issue_width as u64);
    fp.u64(c.cluster.int_ports as u64);
    fp.u64(c.cluster.fp_ports as u64);
    fp.u64(c.cluster.mem_ports as u64);
    // Policy identity and configuration.
    fp.str(spec.policy.name());
    match &spec.policy_config {
        None => fp.none(),
        Some(pc) => {
            fp.some();
            fingerprint_policy_config(&mut fp, pc);
        }
    }
    // Run options (minus `metrics`; see above).
    let o = &spec.options;
    fp.u64(o.epochs as u64);
    match o.loc_mode {
        crate::bank::LocMode::Exact => fp.str("exact"),
        crate::bank::LocMode::Quantized16 => fp.str("q16"),
        crate::bank::LocMode::QuantizedBits(bits) => {
            fp.str("qbits");
            fp.u64(bits as u64);
        }
    }
    fp.u64(o.seed);
    match o.training {
        crate::experiment::TrainingSource::ExactGraph => fp.str("exact-graph"),
        crate::experiment::TrainingSource::TokenDetector(det) => {
            fp.str("token-detector");
            fp.u64(det.horizon as u64);
            fp.u64(det.tokens as u64);
        }
    }
    fp.bool(o.checked);
    fp.opt_u64(o.cycle_budget);
    fp.finish()
}

fn fingerprint_policy_config(fp: &mut Fingerprint, pc: &crate::policy::PolicyConfig) {
    fp.bool(pc.criticality_steer);
    fp.bool(pc.loc_steer);
    fp.bool(pc.binary_priority);
    fp.bool(pc.loc_priority);
    match pc.stall_threshold {
        None => fp.none(),
        Some(v) => {
            fp.some();
            fp.f64(v);
        }
    }
    match pc.proactive {
        None => fp.none(),
        Some(p) => {
            fp.some();
            fp.f64(p.min_loc_override);
            fp.f64(p.producer_fraction);
        }
    }
}

/// A stable identity for a cell within a campaign: the readable axes
/// (benchmark, seed, length, layout, policy) plus an FNV-1a fingerprint
/// over every *explicitly serialized* field of the spec (machine config,
/// policy config, run options), so ablation cells differing only in
/// configuration get distinct keys.
///
/// The fingerprint hashes field values in a fixed order — never `Debug`
/// output — so keys survive derive and formatting changes. Field-set
/// changes are versioned by the manifest header instead
/// ([`MANIFEST_SCHEMA`]): extending the fingerprint means bumping the
/// schema, which makes stale manifests fail loudly rather than silently
/// re-running (or wrongly skipping) every cell.
///
/// This key is the workspace's **single cell-identity API**: the
/// checkpoint manifest keys its records by it, and the `ccs-serve`
/// daemon uses it as the dedup/cache key of its bounded result cache —
/// two submissions map to the same cache entry exactly when their specs
/// fingerprint identically. Anything that can change a cell's schedule
/// must feed the fingerprint; anything that cannot (today: only the
/// write-only `metrics` flag) must not, or equal work would miss the
/// cache. Re-exported as `ccs_core::cell_key`.
pub fn cell_key(spec: &CellSpec) -> String {
    let fingerprint = spec_fingerprint(spec);
    let workload = match spec.scenario {
        None => spec.benchmark.name().to_string(),
        // Prefer the registered scenario name (already restricted to
        // `[a-z0-9_-]`, so it is key-safe); fall back to the
        // content-addressed fingerprint when this process never
        // registered the source. Either way the trailing spec
        // fingerprint carries the scenario identity, so the two
        // renderings of one cell cannot collide with *different* cells.
        Some(id) => match ccs_trace::SourceRegistry::global().name(id) {
            Some(name) if name.bytes().all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'-') => {
                format!("scn-{name}")
            }
            _ => format!("scn-{id}"),
        },
    };
    format!(
        "{workload}/s{}/n{}/{}/{:?}/{fingerprint:016x}",
        spec.sample_seed,
        spec.len,
        spec.config.layout,
        spec.policy,
    )
}

/// One manifest line: the identity and result digest of a finished cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointRecord {
    /// The cell's [`cell_key`].
    pub key: String,
    /// `ok`, `FAILED`, or `TIMEOUT` (see [`CellStatus::label`]).
    pub status: String,
    /// Attempts spent on the cell.
    pub attempts: u32,
    /// Measured-epoch cycle count (0 for failed cells).
    pub cycles: u64,
    /// Bit pattern of the measured CPI (0 for failed cells) — exact
    /// equality without float-formatting round trips.
    pub cpi_bits: u64,
    /// [`SimResult::digest`](ccs_sim::SimResult::digest) of the
    /// measured epoch's result: its counters, every per-instruction
    /// record and the ILP census (0 for failed cells). Bit-identical
    /// runs digest identically.
    pub digest: u64,
    /// [`SimMetrics::digest`](ccs_sim::SimMetrics::digest) of the cell's
    /// observability counters, when the cell ran with
    /// [`RunOptions::metrics`](crate::RunOptions) on. `None` when metrics
    /// were off (metrics never feed [`cell_key`], so a campaign can be
    /// resumed with the flag toggled).
    pub metrics_digest: Option<u64>,
    /// The error rendering for failed/timed-out cells.
    pub error: Option<String>,
    /// Analytic lower bound on the cell's cycle count
    /// ([`ccs_predict::predict`]), recorded when the campaign ran with
    /// [`CampaignOptions::predict_order`]. Predictions are pure
    /// metadata: they never feed [`cell_key`] or the result digest, and
    /// both fields are omitted from the JSON line when absent, so
    /// manifests written without prediction stay byte-identical.
    pub predicted_lo: Option<u64>,
    /// Analytic upper bound companion to `predicted_lo`.
    pub predicted_hi: Option<u64>,
}

impl CheckpointRecord {
    /// Digests a finished cell.
    pub fn from_result(result: &CellResult) -> CheckpointRecord {
        let key = cell_key(&result.spec);
        match &result.status {
            CellStatus::Completed(o) => CheckpointRecord {
                key,
                status: result.status.label().to_string(),
                attempts: result.status.attempts(),
                cycles: o.result.cycles,
                cpi_bits: o.cpi().to_bits(),
                digest: o.result.digest(),
                metrics_digest: o.metrics.as_ref().map(|m| m.digest()),
                error: None,
                predicted_lo: None,
                predicted_hi: None,
            },
            CellStatus::Failed { error, attempts } | CellStatus::TimedOut { error, attempts } => {
                CheckpointRecord {
                    key,
                    status: result.status.label().to_string(),
                    attempts: *attempts,
                    cycles: 0,
                    cpi_bits: 0,
                    digest: 0,
                    metrics_digest: None,
                    error: Some(error.to_string()),
                    predicted_lo: None,
                    predicted_hi: None,
                }
            }
        }
    }

    /// Whether this record is a successful completion.
    pub fn is_ok(&self) -> bool {
        self.status == "ok"
    }

    /// Renders the record as one JSON line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        let mut s = String::with_capacity(128);
        s.push_str("{\"key\":\"");
        json::escape_into(&self.key, &mut s);
        let _ = write!(
            s,
            "\",\"status\":\"{}\",\"attempts\":{},\"cycles\":{},\"cpi_bits\":{},\"digest\":{}",
            self.status, self.attempts, self.cycles, self.cpi_bits, self.digest
        );
        match self.metrics_digest {
            None => s.push_str(",\"metrics_digest\":null"),
            Some(d) => {
                let _ = write!(s, ",\"metrics_digest\":{d}");
            }
        }
        // Prediction metadata is omitted entirely (not `null`) when
        // absent: manifests from prediction-free campaigns stay
        // byte-identical to what earlier builds wrote.
        if let Some(lo) = self.predicted_lo {
            let _ = write!(s, ",\"predicted_lo\":{lo}");
        }
        if let Some(hi) = self.predicted_hi {
            let _ = write!(s, ",\"predicted_hi\":{hi}");
        }
        match &self.error {
            None => s.push_str(",\"error\":null}"),
            Some(e) => {
                s.push_str(",\"error\":\"");
                json::escape_into(e, &mut s);
                s.push_str("\"}");
            }
        }
        s
    }

    /// Parses one manifest line; `None` for torn or foreign lines.
    pub fn from_json_line(line: &str) -> Option<CheckpointRecord> {
        let line = line.trim();
        if !line.starts_with('{') || !line.ends_with('}') {
            return None;
        }
        Some(CheckpointRecord {
            key: json::str_field(line, "key")?,
            status: json::str_field(line, "status")?,
            attempts: u32::try_from(json::u64_field(line, "attempts")?).ok()?,
            cycles: json::u64_field(line, "cycles")?,
            cpi_bits: json::u64_field(line, "cpi_bits")?,
            digest: json::u64_field(line, "digest")?,
            // Tolerant: `null` or an absent field both read as `None`.
            metrics_digest: json::opt_u64_field(line, "metrics_digest").flatten(),
            error: json::opt_str_field(line, "error")?,
            // Tolerant: absent in prediction-free manifests.
            predicted_lo: json::u64_field(line, "predicted_lo"),
            predicted_hi: json::u64_field(line, "predicted_hi"),
        })
    }
}

/// Loads a manifest into a key-indexed map. A later record for a key
/// supersedes an earlier one (a retry after resume); torn or foreign
/// lines after the header are skipped.
///
/// # Errors
///
/// [`CcsError::Checkpoint`] if the file exists but cannot be read, or
/// if a non-empty file does not open with a `ccs-grid-manifest` header
/// carrying the current [`MANIFEST_SCHEMA`] — the keys of an
/// incompatible manifest cannot be trusted, so resuming over one must
/// fail loudly rather than silently re-run (or wrongly skip) cells. A
/// missing or empty file loads as an empty map.
pub fn load_manifest(path: &Path) -> Result<HashMap<String, CheckpointRecord>, CcsError> {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(HashMap::new()),
        Err(e) => {
            return Err(CcsError::Checkpoint {
                path: path.display().to_string(),
                message: e.to_string(),
            })
        }
    };
    if text.trim().is_empty() {
        return Ok(HashMap::new());
    }
    let mut lines = text.lines();
    let first = lines.next().unwrap_or_default();
    let marker = json::str_field(first, "manifest");
    let schema = json::u64_field(first, "schema");
    match (marker.as_deref(), schema) {
        (Some("ccs-grid-manifest"), Some(s)) if s == MANIFEST_SCHEMA as u64 => {}
        (Some("ccs-grid-manifest"), Some(s)) => {
            return Err(CcsError::Checkpoint {
                path: path.display().to_string(),
                message: format!(
                    "manifest schema {s} is incompatible with this build \
                     (expected {MANIFEST_SCHEMA}); its cell keys cannot be \
                     trusted — delete it or run without --resume"
                ),
            });
        }
        _ => {
            return Err(CcsError::Checkpoint {
                path: path.display().to_string(),
                message: format!(
                    "not a ccs-grid-manifest (missing or malformed header \
                     line; expected schema {MANIFEST_SCHEMA}); refusing to \
                     resume over it — delete it or run without --resume"
                ),
            });
        }
    }
    let mut map = HashMap::new();
    for line in lines {
        if let Some(rec) = CheckpointRecord::from_json_line(line) {
            map.insert(rec.key.clone(), rec);
        }
    }
    Ok(map)
}

/// How a campaign checkpoints and (optionally) resumes.
#[derive(Debug, Clone)]
pub struct CampaignOptions {
    /// The JSONL manifest path, conventionally under
    /// `results/checkpoints/`.
    pub manifest: PathBuf,
    /// Resume: skip cells already recorded in the manifest and append
    /// to it. Off: truncate any existing manifest and run everything.
    pub resume: bool,
    /// Stop scheduling new cells after this many have run — a
    /// deterministic stand-in for a mid-campaign kill, used by the
    /// kill-and-resume tests. `None` runs the full grid.
    pub max_cells: Option<usize>,
    /// Order pending cells best-first (longest-predicted-first) by the
    /// analytic cycle bound from [`ccs_predict::predict`], and record
    /// each cell's predicted envelope in its manifest line. Pure
    /// metadata: ordering changes which cell runs *when* (better
    /// tail-latency under `max_cells`/kills, classic LPT scheduling)
    /// but never what any cell computes — results are re-placed by
    /// input index and keys/digests are unaffected, a property
    /// `tests/predict_order_determinism.rs` enforces.
    pub predict_order: bool,
}

impl CampaignOptions {
    /// A campaign writing to `manifest`, not resuming, unbounded.
    pub fn new(manifest: impl Into<PathBuf>) -> Self {
        CampaignOptions {
            manifest: manifest.into(),
            resume: false,
            max_cells: None,
            predict_order: false,
        }
    }

    /// The same options with resume on or off.
    #[must_use]
    pub fn with_resume(mut self, resume: bool) -> Self {
        self.resume = resume;
        self
    }

    /// The same options stopping after `max_cells` cells.
    #[must_use]
    pub fn with_max_cells(mut self, max_cells: usize) -> Self {
        self.max_cells = Some(max_cells);
        self
    }

    /// The same options with best-first predicted ordering on or off.
    #[must_use]
    pub fn with_predict_order(mut self, predict_order: bool) -> Self {
        self.predict_order = predict_order;
        self
    }
}

/// What a (possibly resumed, possibly truncated) campaign produced.
#[derive(Debug)]
pub struct CampaignReport {
    /// Per input spec: the in-memory result if the cell ran in *this*
    /// process, `None` if it was skipped on resume or cut by
    /// [`CampaignOptions::max_cells`].
    pub results: Vec<Option<CellResult>>,
    /// Per input spec: the manifest record after the run — present for
    /// every cell that has ever finished (this run or a resumed one).
    pub records: Vec<Option<CheckpointRecord>>,
    /// Cells skipped because the manifest already recorded them.
    pub skipped: usize,
}

impl CampaignReport {
    /// Cells recorded as completed.
    pub fn completed(&self) -> usize {
        self.records
            .iter()
            .filter(|r| r.as_ref().is_some_and(CheckpointRecord::is_ok))
            .count()
    }

    /// Cells recorded as failed or timed out.
    pub fn failed(&self) -> usize {
        self.records
            .iter()
            .filter(|r| r.as_ref().is_some_and(|r| !r.is_ok()))
            .count()
    }

    /// Cells with no record yet (cut by `max_cells`).
    pub fn unfinished(&self) -> usize {
        self.records.iter().filter(|r| r.is_none()).count()
    }

    /// `0` when every cell completed, `1` when any failed or timed
    /// out, `2` when the campaign is incomplete.
    pub fn exit_code(&self) -> i32 {
        if self.unfinished() > 0 {
            2
        } else if self.failed() > 0 {
            1
        } else {
            0
        }
    }

    /// A one-line human summary.
    pub fn summary(&self) -> String {
        format!(
            "{} ok, {} failed/timed-out, {} unfinished, {} resumed-skipped of {} cells",
            self.completed(),
            self.failed(),
            self.unfinished(),
            self.skipped,
            self.records.len()
        )
    }
}

/// Runs `specs` as a checkpointed campaign: every finished cell is
/// appended (and flushed) to the manifest as it completes, and with
/// [`CampaignOptions::resume`] cells already recorded are skipped.
///
/// # Errors
///
/// [`CcsError::Checkpoint`] if the manifest cannot be created, read, or
/// appended. Cell-level failures do **not** error the campaign — they
/// are recorded per cell, reflected in
/// [`CampaignReport::exit_code`].
pub fn run_campaign(
    specs: &[CellSpec],
    threads: usize,
    res: &Resilience,
    opts: &CampaignOptions,
) -> Result<CampaignReport, CcsError> {
    let io_err = |e: std::io::Error| CcsError::Checkpoint {
        path: opts.manifest.display().to_string(),
        message: e.to_string(),
    };
    if let Some(dir) = opts.manifest.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).map_err(io_err)?;
        }
    }
    let recorded = if opts.resume {
        load_manifest(&opts.manifest)?
    } else {
        HashMap::new()
    };
    // A truncated manifest needs its header; so does resuming into a
    // missing or empty file (an empty file validates as an empty map).
    let needs_header = !opts.resume
        || std::fs::metadata(&opts.manifest)
            .map(|m| m.len() == 0)
            .unwrap_or(true);
    let file = OpenOptions::new()
        .create(true)
        .append(opts.resume)
        .truncate(!opts.resume)
        .write(true)
        .open(&opts.manifest)
        .map_err(io_err)?;
    let mut buf = BufWriter::new(file);
    if needs_header {
        writeln!(buf, "{}", manifest_header()).map_err(io_err)?;
        buf.flush().map_err(io_err)?;
    }
    let writer = Mutex::new(buf);

    let keys: Vec<String> = specs.iter().map(cell_key).collect();
    let mut pending: Vec<(usize, CellSpec)> = specs
        .iter()
        .enumerate()
        .filter(|(i, _)| !recorded.contains_key(&keys[*i]))
        .map(|(i, s)| (i, *s))
        .collect();
    let skipped = specs.len() - pending.len();
    // Best-first (LPT) ordering: sort the still-pending cells by
    // descending predicted cycle lower bound before any `max_cells`
    // truncation, so the longest cells start (and survive a truncated
    // run) first. Strictly metadata: only the evaluation *order*
    // changes — results are re-placed by input index below, and the
    // predicted envelope rides along on each cell's manifest record.
    let predictions: HashMap<String, (u64, u64)> = if opts.predict_order {
        let map: HashMap<String, (u64, u64)> = pending
            .iter()
            .map(|(i, spec)| {
                let trace =
                    ccs_trace::TraceStore::global().get(spec.benchmark, spec.sample_seed, spec.len);
                let p = ccs_predict::predict(&spec.config, &trace)
                    .with_cycle_budget(spec.options.cycle_budget);
                (keys[*i].clone(), (p.cycles_lo, p.cycles_hi))
            })
            .collect();
        pending.sort_by(|(a, _), (b, _)| {
            let lo = |i: &usize| map.get(&keys[*i]).map(|p| p.0).unwrap_or(0);
            lo(b).cmp(&lo(a)).then(a.cmp(b))
        });
        map
    } else {
        HashMap::new()
    };
    if let Some(max) = opts.max_cells {
        pending.truncate(max);
    }
    let attach = |mut rec: CheckpointRecord| {
        if let Some(&(lo, hi)) = predictions.get(&rec.key) {
            rec.predicted_lo = Some(lo);
            rec.predicted_hi = Some(hi);
        }
        rec
    };

    let pending_specs: Vec<CellSpec> = pending.iter().map(|(_, s)| *s).collect();
    let ran = run_cells(
        &pending_specs,
        threads,
        res,
        |_, spec, cancel| evaluate_cell(spec, cancel),
        |_, result: &CellResult| {
            let line = attach(CheckpointRecord::from_result(result)).to_json_line();
            let mut w = writer.lock().unwrap_or_else(PoisonError::into_inner);
            // A write/flush failure here must not take down the other
            // worker threads; the campaign still holds its results in
            // memory, so losing a checkpoint line only costs a re-run
            // of that cell after a resume.
            let _ = writeln!(w, "{line}");
            let _ = w.flush();
        },
    );
    drop(
        writer
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner),
    );

    let mut results: Vec<Option<CellResult>> = vec![None; specs.len()];
    for ((input_idx, _), result) in pending.iter().zip(ran) {
        results[*input_idx] = Some(result);
    }
    let records: Vec<Option<CheckpointRecord>> = results
        .iter()
        .zip(&keys)
        .map(|(result, key)| match result {
            Some(r) => Some(attach(CheckpointRecord::from_result(r))),
            None => recorded.get(key).cloned(),
        })
        .collect();
    Ok(CampaignReport {
        results,
        records,
        skipped,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::GridRequest;
    use crate::policy::PolicyKind;
    use crate::RunOptions;
    use ccs_isa::{ClusterLayout, MachineConfig};
    use ccs_trace::Benchmark;

    #[test]
    fn records_round_trip_through_json_lines() {
        let rec = CheckpointRecord {
            key: "vpr/s1/n1000/4x2/Focused/00ff".into(),
            status: "ok".into(),
            attempts: 1,
            cycles: 1234,
            cpi_bits: 0x3ff0_0000_0000_0000,
            digest: 0xdead_beef,
            metrics_digest: Some(0x0123_4567_89ab_cdef),
            error: None,
            predicted_lo: Some(1_100),
            predicted_hi: Some(164_001),
        };
        let line = rec.to_json_line();
        assert_eq!(CheckpointRecord::from_json_line(&line), Some(rec));

        let failed = CheckpointRecord {
            key: "gzip/s2/n500/8x1/FocusedLoc/0001".into(),
            status: "FAILED".into(),
            attempts: 2,
            cycles: 0,
            cpi_bits: 0,
            digest: 0,
            metrics_digest: None,
            error: Some("cell panicked: \"quoted\"\nand newline \\ slash".into()),
            predicted_lo: None,
            predicted_hi: None,
        };
        let line = failed.to_json_line();
        assert_eq!(CheckpointRecord::from_json_line(&line), Some(failed));
    }

    #[test]
    fn out_of_range_attempts_parse_as_none() {
        let line = |attempts: &str| {
            format!(
                "{{\"key\":\"a/b\",\"status\":\"ok\",\"attempts\":{attempts},\"cycles\":1,\
                 \"cpi_bits\":1,\"digest\":1,\"metrics_digest\":null,\"error\":null}}"
            )
        };
        let max = CheckpointRecord::from_json_line(&line("4294967295")).expect("u32::MAX fits");
        assert_eq!(max.attempts, u32::MAX);
        // 2^32 + 1 must not wrap to 1.
        assert_eq!(CheckpointRecord::from_json_line(&line("4294967297")), None);
    }

    #[test]
    fn torn_lines_parse_as_none() {
        assert_eq!(CheckpointRecord::from_json_line(""), None);
        assert_eq!(
            CheckpointRecord::from_json_line("{\"key\":\"a/b\",\"status\":\"ok\",\"atte"),
            None
        );
        assert_eq!(CheckpointRecord::from_json_line("not json at all"), None);
    }

    #[test]
    fn cell_keys_distinguish_config_variants() {
        let opts = RunOptions::default();
        let base = MachineConfig::micro05_baseline().with_layout(ClusterLayout::C4x2w);
        let a = CellSpec::new(base, Benchmark::Vpr, 1, 1_000, PolicyKind::Focused, opts);
        let b = CellSpec::new(
            base,
            Benchmark::Vpr,
            1,
            1_000,
            PolicyKind::Focused,
            opts.with_epochs(3),
        );
        assert_ne!(cell_key(&a), cell_key(&b), "options feed the fingerprint");
        assert_eq!(cell_key(&a), cell_key(&a.clone()), "keys are stable");
    }

    #[test]
    fn metrics_flag_does_not_change_cell_key() {
        let base = MachineConfig::micro05_baseline().with_layout(ClusterLayout::C4x2w);
        let off = CellSpec::new(
            base,
            Benchmark::Vpr,
            1,
            1_000,
            PolicyKind::Focused,
            RunOptions::default(),
        );
        let on = CellSpec::new(
            base,
            Benchmark::Vpr,
            1,
            1_000,
            PolicyKind::Focused,
            RunOptions::default().with_metrics(true),
        );
        assert_eq!(
            cell_key(&off),
            cell_key(&on),
            "metrics is a write-only observer: toggling it must not invalidate a resume"
        );
    }

    #[test]
    fn fingerprint_distinguishes_adjacent_option_fields() {
        // `Some(0)` for one field must not alias `None` followed by a
        // zero in the next — the tag bytes keep them apart.
        let base = MachineConfig::micro05_baseline().with_layout(ClusterLayout::C2x4w);
        let spec = |opts: RunOptions| {
            CellSpec::new(base, Benchmark::Gzip, 7, 500, PolicyKind::Focused, opts)
        };
        let none = spec(RunOptions::default());
        let some_zero = spec(RunOptions::default().with_cycle_budget(0));
        assert_ne!(cell_key(&none), cell_key(&some_zero));
    }

    #[test]
    fn fingerprint_distinguishes_adjacent_machine_fields() {
        // The serve-cache twin of the options test above: an optional
        // *machine* field set to `Some(0)` must not alias `None` with a
        // zero in the following field, or the daemon's result cache
        // would serve one machine's schedule for the other.
        let mut unbounded = MachineConfig::micro05_baseline().with_layout(ClusterLayout::C4x2w);
        unbounded.forward_bandwidth = None;
        let mut zero = unbounded;
        zero.forward_bandwidth = Some(0);
        let opts = RunOptions::default();
        let a = CellSpec::new(unbounded, Benchmark::Vpr, 1, 1_000, PolicyKind::Focused, opts);
        let b = CellSpec::new(zero, Benchmark::Vpr, 1, 1_000, PolicyKind::Focused, opts);
        assert_ne!(
            cell_key(&a),
            cell_key(&b),
            "forward_bandwidth None vs Some(0) must key distinctly"
        );
    }

    #[test]
    fn scenario_cells_never_collide_with_benchmark_cells() {
        // A scenario cell whose generator *is* vpr, at identical
        // (seed, len, layout, policy, options), must still key apart
        // from the plain vpr benchmark cell: the fingerprint type-tags
        // the workload axis (`some`+u64 vs str), so equal parameters
        // cannot alias across the two workload kinds.
        let scenario = ccs_scenario::Scenario::benchmark_equivalent(Benchmark::Vpr);
        let id = scenario.register().expect("benchmark equivalent is valid");
        let base = MachineConfig::micro05_baseline().with_layout(ClusterLayout::C4x2w);
        let opts = RunOptions::default();
        let bench = CellSpec::new(base, Benchmark::Vpr, 1, 1_000, PolicyKind::Focused, opts);
        let scn = CellSpec::for_scenario(base, id, 1, 1_000, PolicyKind::Focused, opts);
        assert_ne!(spec_fingerprint(&bench), spec_fingerprint(&scn));
        assert_ne!(cell_key(&bench), cell_key(&scn));
        assert!(
            cell_key(&scn).starts_with("scn-vpr/"),
            "scenario keys carry the scn- prefix: {}",
            cell_key(&scn)
        );
    }

    #[test]
    fn manifest_field_reorder_does_not_change_cell_key() {
        // The cell key hashes the scenario's content-addressed id,
        // which fingerprints the *canonical* manifest rendering — so a
        // hand-edited manifest with reordered fields maps to the same
        // cell (cache hit, checkpoint skip, same shard) as the original.
        let canonical = ccs_scenario::Scenario::benchmark_equivalent(Benchmark::Gzip).to_manifest();
        let reordered = canonical.replace(
            "id = \"chain\"\nkind = \"chain\"\npc = 0x6000\nlen = 6\n",
            "len = 6\npc = 0x6000\nkind = \"chain\"\nid = \"chain\"\n",
        );
        assert_ne!(canonical, reordered, "test must actually reorder fields");
        let (_, id_a) = ccs_scenario::register_manifest(&canonical).unwrap();
        let (_, id_b) = ccs_scenario::register_manifest(&reordered).unwrap();
        assert_eq!(id_a, id_b, "canonicalization makes registration order-blind");
        let base = MachineConfig::micro05_baseline().with_layout(ClusterLayout::C4x2w);
        let opts = RunOptions::default();
        let a = CellSpec::for_scenario(base, id_a, 3, 800, PolicyKind::Dependence, opts);
        let b = CellSpec::for_scenario(base, id_b, 3, 800, PolicyKind::Dependence, opts);
        assert_eq!(cell_key(&a), cell_key(&b));
    }

    #[test]
    fn unregistered_scenario_keys_fall_back_to_fingerprint() {
        // Key rendering must not require the registry: a coordinator
        // can compute keys for cells whose manifests only workers hold.
        let base = MachineConfig::micro05_baseline().with_layout(ClusterLayout::C4x2w);
        let spec = CellSpec::for_scenario(
            base,
            // An id no process registered: fabricate via a manifest
            // that is never parsed — register under a unique name.
            ccs_scenario::Scenario::new("never-again")
                .with_mix(
                    0xFEED,
                    &[(ccs_scenario::EmitterKind::Chain { len: 9 }, 1)],
                )
                .register()
                .unwrap(),
            1,
            100,
            PolicyKind::Focused,
            RunOptions::default(),
        );
        // Registered in this process, so the name renders…
        assert!(cell_key(&spec).starts_with("scn-never-again/"));
        // …and the registered-vs-unregistered renderings share the
        // trailing fingerprint (identity lives in the hash, not the
        // label).
        let fp = format!("{:016x}", spec_fingerprint(&spec));
        assert!(cell_key(&spec).ends_with(&fp));
    }

    #[test]
    fn manifest_without_valid_header_fails_loudly() {
        let dir = std::env::temp_dir().join(format!("ccs-ckpt-hdr-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();

        // Legacy (headerless) manifest: first line is a record.
        let legacy = dir.join("legacy.jsonl");
        std::fs::write(
            &legacy,
            "{\"key\":\"a/b\",\"status\":\"ok\",\"attempts\":1,\"cycles\":1,\
             \"cpi_bits\":1,\"digest\":1,\"metrics_digest\":null,\"error\":null}\n",
        )
        .unwrap();
        let err = load_manifest(&legacy).unwrap_err();
        assert!(
            err.to_string().contains("ccs-grid-manifest"),
            "unexpected error: {err}"
        );

        // Wrong schema version.
        let stale = dir.join("stale.jsonl");
        std::fs::write(&stale, "{\"manifest\":\"ccs-grid-manifest\",\"schema\":1}\n").unwrap();
        let err = load_manifest(&stale).unwrap_err();
        assert!(err.to_string().contains("schema 1"), "unexpected error: {err}");

        // Schema 2 digested each result's `Debug` rendering; its digests
        // must not mix with the current definition in one resume.
        std::fs::write(&stale, "{\"manifest\":\"ccs-grid-manifest\",\"schema\":2}\n").unwrap();
        let err = load_manifest(&stale).unwrap_err();
        assert!(err.to_string().contains("schema 2"), "unexpected error: {err}");

        // Missing or empty files still load as empty maps.
        assert!(load_manifest(&dir.join("missing.jsonl")).unwrap().is_empty());
        let empty = dir.join("empty.jsonl");
        std::fs::write(&empty, "").unwrap();
        assert!(load_manifest(&empty).unwrap().is_empty());

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn campaign_manifests_open_with_the_schema_header() {
        let dir = std::env::temp_dir().join(format!("ccs-ckpt-hdr2-{}", std::process::id()));
        let specs = GridRequest::new(MachineConfig::micro05_baseline(), 500)
            .benchmarks([Benchmark::Vpr])
            .layouts([ClusterLayout::C2x4w])
            .policies([PolicyKind::Focused])
            .options(RunOptions::default().with_epochs(1))
            .build();
        let opts = CampaignOptions::new(dir.join("hdr.jsonl"));
        run_campaign(&specs, 1, &Resilience::default(), &opts).unwrap();
        let text = std::fs::read_to_string(dir.join("hdr.jsonl")).unwrap();
        assert_eq!(text.lines().next(), Some(manifest_header().as_str()));
        // And the file it wrote round-trips through load_manifest.
        assert_eq!(load_manifest(&dir.join("hdr.jsonl")).unwrap().len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn campaign_checkpoints_and_resumes_bit_identically() {
        let dir = std::env::temp_dir().join(format!("ccs-ckpt-{}", std::process::id()));
        let specs = GridRequest::new(MachineConfig::micro05_baseline(), 800)
            .benchmarks([Benchmark::Vpr, Benchmark::Gzip])
            .layouts([ClusterLayout::C2x4w])
            .policies([PolicyKind::Focused, PolicyKind::FocusedLoc])
            .options(RunOptions::default().with_epochs(1))
            .build();
        assert_eq!(specs.len(), 4);

        // Uninterrupted reference campaign.
        let clean_opts = CampaignOptions::new(dir.join("clean.jsonl"));
        let clean = run_campaign(&specs, 2, &Resilience::default(), &clean_opts).unwrap();
        assert_eq!(clean.exit_code(), 0, "{}", clean.summary());

        // Killed after 2 cells, then resumed.
        let killed_opts = CampaignOptions::new(dir.join("resumed.jsonl")).with_max_cells(2);
        let killed = run_campaign(&specs, 1, &Resilience::default(), &killed_opts).unwrap();
        assert_eq!(killed.exit_code(), 2);
        assert_eq!(killed.unfinished(), 2);

        let resume_opts = CampaignOptions::new(dir.join("resumed.jsonl")).with_resume(true);
        let resumed = run_campaign(&specs, 1, &Resilience::default(), &resume_opts).unwrap();
        assert_eq!(resumed.exit_code(), 0, "{}", resumed.summary());
        assert_eq!(resumed.skipped, 2, "completed cells must not re-run");
        assert_eq!(
            resumed.results.iter().flatten().count(),
            2,
            "only the missing cells ran"
        );

        // The resumed manifest's records must match the clean run's
        // digests exactly, cell for cell.
        for (i, (clean_rec, resumed_rec)) in
            clean.records.iter().zip(&resumed.records).enumerate()
        {
            assert_eq!(clean_rec, resumed_rec, "cell {i} digest");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
