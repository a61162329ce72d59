//! The cycle-level simulation engine.
//!
//! Each simulated cycle processes, in order: commit, issue (per cluster),
//! dispatch/steer, fetch. Event times and binding constraints are recorded
//! per instruction as they are determined; see the crate docs for the
//! pipeline model.

use crate::policy::{ProducerInfo, SteerDecision, SteerView, SteeringPolicy};
use crate::record::{CommitBound, Cycle, DispatchBound, InstRecord, ReadyBound};
use crate::result::{IlpCensus, SimResult};
use ccs_isa::{BranchClass, MachineConfig, PortKind};
use ccs_obs::{DispatchStall, MetricsSink, NullSink};
use ccs_trace::{DynIdx, Trace};
use ccs_uarch::{BranchPredictor, Gshare, SetAssocCache};
use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Errors a simulation run can produce.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The simulation exceeded its internal progress limit — indicates a
    /// deadlocked policy (e.g. one that stalls forever).
    CycleLimitExceeded {
        /// The cycle at which the simulation gave up.
        cycle: Cycle,
        /// Instructions committed by then.
        committed: usize,
        /// Instructions in the trace.
        total: usize,
    },
    /// The caller-imposed [`SimBudget::max_cycles`] ran out before the
    /// trace committed. Unlike [`CycleLimitExceeded`](Self::CycleLimitExceeded)
    /// this is a *watchdog* outcome: the run may have been healthy but
    /// slow, and the grid executor reports it as a deterministic timeout.
    BudgetExhausted {
        /// The budget that ran out.
        budget: Cycle,
        /// Instructions committed by then.
        committed: usize,
        /// Instructions in the trace.
        total: usize,
    },
    /// The run observed its [`SimBudget::cancel`] flag and stopped
    /// cooperatively — the executor's wall-clock watchdog fired.
    Cancelled {
        /// The cycle at which cancellation was observed.
        cycle: Cycle,
        /// Instructions committed by then.
        committed: usize,
        /// Instructions in the trace.
        total: usize,
    },
    /// The `checked` run mode ([`verify`](crate::verify)) found the
    /// engine's schedule violating a structural invariant.
    InvariantViolated {
        /// The first violation in (cycle, instruction) order.
        first: crate::check::Violation,
        /// Total violations found.
        count: usize,
    },
}

impl SimError {
    /// Whether this error is a watchdog outcome (budget or cancellation)
    /// rather than a genuine simulation defect.
    pub fn is_timeout(&self) -> bool {
        matches!(
            self,
            SimError::BudgetExhausted { .. } | SimError::Cancelled { .. }
        )
    }
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::CycleLimitExceeded {
                cycle,
                committed,
                total,
            } => write!(
                f,
                "cycle limit exceeded at cycle {cycle} with {committed}/{total} committed \
                 (deadlocked steering policy?)"
            ),
            SimError::BudgetExhausted {
                budget,
                committed,
                total,
            } => write!(
                f,
                "cycle budget of {budget} exhausted with {committed}/{total} committed"
            ),
            SimError::Cancelled {
                cycle,
                committed,
                total,
            } => write!(
                f,
                "cancelled at cycle {cycle} with {committed}/{total} committed"
            ),
            SimError::InvariantViolated { first, count } => {
                write!(f, "{count} structural invariant violation(s); first: {first}")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// Cooperative execution bounds for a simulation run.
///
/// The engine's cycle loop checks these at every iteration head: a run
/// that exceeds `max_cycles` returns [`SimError::BudgetExhausted`], and
/// one whose `cancel` flag is raised (polled every
/// [`CANCEL_POLL_CYCLES`](SimBudget::CANCEL_POLL_CYCLES) cycles to keep
/// the hot loop cheap) returns [`SimError::Cancelled`]. The default
/// budget is unbounded, reproducing plain [`simulate`] behaviour.
///
/// `max_cycles` gives *deterministic* timeouts — the same configuration
/// always gives up at the same cycle — while `cancel` is the hook for
/// the grid executor's nondeterministic wall-clock watchdog.
#[derive(Debug, Clone, Default)]
pub struct SimBudget {
    /// Give up once the cycle counter passes this value.
    pub max_cycles: Option<Cycle>,
    /// Shared flag a watchdog can raise to stop the run cooperatively.
    pub cancel: Option<Arc<AtomicBool>>,
}

impl SimBudget {
    /// How often (in simulated cycles) the cancel flag is polled.
    pub const CANCEL_POLL_CYCLES: Cycle = 1024;

    /// An unbounded budget (the default).
    pub fn unbounded() -> Self {
        Self::default()
    }

    /// A budget that gives up after `max_cycles` simulated cycles.
    pub fn with_max_cycles(mut self, max_cycles: Cycle) -> Self {
        self.max_cycles = Some(max_cycles);
        self
    }

    /// A budget that watches `cancel` and stops when it is raised.
    pub fn with_cancel(mut self, cancel: Arc<AtomicBool>) -> Self {
        self.cancel = Some(cancel);
        self
    }
}

const NOT_YET: Cycle = Cycle::MAX;

/// Sentinel for "no instruction" in the intrusive waiter lists.
const NO_INST: u32 = u32::MAX;

/// Size of the wakeup calendar ring, in cycles (power of two). Covers
/// every op latency plus the worst L1+L2 miss path with room to spare;
/// the rare events farther out (broadcast-bandwidth backlog) spill into
/// the overflow heap.
const WAKEUP_HORIZON: usize = 512;

/// Reusable structure-of-arrays state for the cycle loop.
///
/// The engine used to keep a `Vec<WinEntry>` per cluster and rescan
/// every in-window instruction every cycle to recompute readiness —
/// O(cycles × window × deps). This scratch flattens all per-entry state
/// into flat arrays indexed by dynamic instruction and drives readiness
/// *event-driven*: an instruction is examined only when its last
/// outstanding operand's producer issues (see `try_determine_ready`),
/// and surfaces for selection exactly at its ready cycle via the wakeup
/// calendar. The steady-state cycle loop is allocation-free: every
/// buffer here is reused across cycles.
#[derive(Debug, Default)]
struct SimScratch {
    /// Instructions whose determined ready time has arrived and that
    /// have not issued yet, one list per cluster. Kept permanently in
    /// selection order — descending priority, ascending index — by
    /// binary insertion at wakeup: the key is fixed at dispatch, issue
    /// removes entries in place, so no per-cycle sort is ever needed.
    ready_lists: Vec<Vec<u32>>,
    /// Compaction buffer for the per-cluster ready list during issue.
    keep: Vec<u32>,
    /// Wakeup calendar: ring of `WAKEUP_HORIZON` buckets indexed by
    /// `ready_cycle % WAKEUP_HORIZON`. Determined-but-future entries sit
    /// here until their ready cycle fires.
    wheel: Vec<Vec<u32>>,
    /// Determined entries whose ready cycle is `WAKEUP_HORIZON`-or-more
    /// cycles out (deep broadcast-bandwidth backlog); drained as the
    /// clock reaches them. Ordered pops keep firing deterministic.
    overflow: std::collections::BinaryHeap<std::cmp::Reverse<(Cycle, u32)>>,
    /// Head of the intrusive list of dispatched instructions parked on
    /// this producer (waiting for it to issue), per instruction.
    waiter_head: Vec<u32>,
    /// Next pointer of the intrusive waiter list, per instruction. Each
    /// parked instruction waits on exactly one unissued producer at a
    /// time, so one pointer suffices.
    waiter_next: Vec<u32>,
    /// Scheduling priority assigned at dispatch, per instruction.
    priority: Vec<i64>,
    /// Per-cluster window occupancy, maintained incrementally (+1 at
    /// dispatch, −1 at issue) and handed to the steering policy.
    occupancy: Vec<usize>,
    /// The same occupancy as `u32`, maintained only when the metrics
    /// sink is enabled, so `on_cycle` needs no per-cycle rebuild.
    occupancy_u32: Vec<u32>,
}

impl SimScratch {
    fn for_run(n: usize, clusters: usize, win_cap: usize, metrics: bool) -> Self {
        SimScratch {
            ready_lists: vec![Vec::with_capacity(win_cap); clusters],
            keep: Vec::with_capacity(win_cap),
            wheel: vec![Vec::new(); WAKEUP_HORIZON],
            overflow: std::collections::BinaryHeap::new(),
            waiter_head: vec![NO_INST; n],
            waiter_next: vec![NO_INST; n],
            priority: vec![0; n],
            occupancy: vec![0; clusters],
            occupancy_u32: if metrics { vec![0; clusters] } else { Vec::new() },
        }
    }

    /// Schedules instruction `idx` to surface for selection at cycle
    /// `ready` (strictly in the future relative to `now`).
    #[inline]
    fn schedule_wakeup(&mut self, idx: u32, ready: Cycle, now: Cycle) {
        debug_assert!(ready > now, "wakeups are always strictly future");
        if (ready - now) < WAKEUP_HORIZON as Cycle {
            self.wheel[(ready as usize) & (WAKEUP_HORIZON - 1)].push(idx);
        } else {
            self.overflow.push(std::cmp::Reverse((ready, idx)));
        }
    }

    /// Parks `consumer` on `producer` until the producer issues.
    #[inline]
    fn park(&mut self, consumer: u32, producer: u32) {
        self.waiter_next[consumer as usize] = self.waiter_head[producer as usize];
        self.waiter_head[producer as usize] = consumer;
    }

    /// Examines dispatched instruction `idx`: if every producer (register
    /// operands plus the true memory dependence) has issued, computes the
    /// ready time and binding constraint — the same pure function of the
    /// producers' completion/broadcast times the old per-cycle rescan
    /// evaluated — stamps the record, and schedules the wakeup; otherwise
    /// parks the instruction on the first unissued producer in operand
    /// order, exactly where the rescan's early-exit stopped.
    ///
    /// Ready times are strictly future at determination (an operand
    /// becomes visible no earlier than the cycle after its producer
    /// issues, and the dispatch floor is `dispatch + 1`), so scheduling
    /// into the calendar never loses a same-cycle wakeup.
    #[allow(clippy::too_many_arguments)]
    fn try_determine_ready(
        &mut self,
        idx: u32,
        now: Cycle,
        trace: &Trace,
        mem_dep: &[Option<u32>],
        completes: &[Cycle],
        broadcast: &[Cycle],
        records: &mut [InstRecord],
        config: &MachineConfig,
    ) {
        let i = idx as usize;
        let inst = &trace.as_slice()[i];
        let c = records[i].cluster as usize;
        let mut best: Option<(Cycle, u8, DynIdx, u32)> = None;
        let mem_operand = mem_dep[i].map(|s| (2usize, DynIdx::new(s)));
        for (slot, dep) in inst
            .deps
            .iter()
            .enumerate()
            .map(|(k, d)| (k, *d))
            .chain(mem_operand.map(|(k, d)| (k, Some(d))))
        {
            let Some(p) = &dep else { continue };
            let pc_complete = completes[p.index()];
            if pc_complete == NOT_YET {
                self.park(idx, p.index() as u32);
                return;
            }
            let pcluster = records[p.index()].cluster as usize;
            let fwd = config.forwarding_between(pcluster, c);
            // Remote consumers see the value after it has been broadcast
            // and traversed the network; local consumers bypass directly.
            let visible = if fwd == 0 {
                pc_complete
            } else {
                broadcast[p.index()] + fwd as Cycle
            };
            let eff_fwd = (visible - pc_complete) as u32;
            if best.is_none_or(|(v, ..)| visible > v) {
                best = Some((visible, slot as u8, *p, eff_fwd));
            }
        }
        let dispatch_floor = records[i].dispatch + 1;
        // Tie-breaking: when the operand arrives exactly at the dispatch
        // floor, prefer the dataflow edge (Fields' model follows E→E
        // edges) unless it would charge forwarding cycles that the
        // dispatch constraint already covers.
        let ready = match best {
            Some((visible, slot, producer, fwd))
                if visible > dispatch_floor || (visible == dispatch_floor && fwd == 0) =>
            {
                records[i].ready = visible;
                records[i].ready_bound = ReadyBound::Operand {
                    slot,
                    producer,
                    fwd,
                };
                visible
            }
            _ => {
                records[i].ready = dispatch_floor;
                records[i].ready_bound = ReadyBound::Dispatch;
                dispatch_floor
            }
        };
        self.schedule_wakeup(idx, ready, now);
    }
}

/// Runs `trace` through the machine described by `config` under `policy`.
///
/// # Examples
///
/// ```
/// use ccs_isa::{ClusterLayout, MachineConfig};
/// use ccs_sim::{policies::LeastLoaded, simulate};
/// use ccs_trace::Benchmark;
///
/// # fn main() -> Result<(), ccs_sim::SimError> {
/// let trace = Benchmark::Gap.generate(1, 1_000);
/// let machine = MachineConfig::micro05_baseline().with_layout(ClusterLayout::C2x4w);
/// let result = simulate(&machine, &trace, &mut LeastLoaded)?;
/// assert_eq!(result.instructions(), trace.len());
/// assert!(result.ipc() > 0.0);
/// # Ok(())
/// # }
/// ```
///
/// # Errors
///
/// Returns [`SimError::CycleLimitExceeded`] if the machine stops making
/// progress (only possible with a policy that stalls unboundedly).
pub fn simulate(
    config: &MachineConfig,
    trace: &Trace,
    policy: &mut dyn SteeringPolicy,
) -> Result<SimResult, SimError> {
    simulate_budgeted(config, trace, policy, &SimBudget::unbounded())
}

/// Runs `trace` like [`simulate`], under the cooperative bounds in
/// `budget`.
///
/// # Errors
///
/// In addition to [`simulate`]'s errors, returns
/// [`SimError::BudgetExhausted`] when [`SimBudget::max_cycles`] runs out
/// and [`SimError::Cancelled`] when [`SimBudget::cancel`] is observed
/// raised.
pub fn simulate_budgeted(
    config: &MachineConfig,
    trace: &Trace,
    policy: &mut dyn SteeringPolicy,
    budget: &SimBudget,
) -> Result<SimResult, SimError> {
    // `NullSink::ENABLED` is `false`, so every observability hook in the
    // monomorphized body compiles to nothing: this path is the unobserved
    // engine, bit for bit.
    simulate_observed(config, trace, policy, budget, &mut NullSink)
}

/// Runs `trace` like [`simulate_budgeted`], reporting observability events
/// to `sink`.
///
/// The sink receives per-cycle cluster occupancy, issue-port grants,
/// steering decisions and stalls, cross-cluster bypass deliveries,
/// broadcast-slot waits, and dispatch stall causes — see
/// [`MetricsSink`] for the event vocabulary. Sinks are write-only
/// observers: the schedule and [`SimResult`] are bit-identical whichever
/// sink is supplied (enforced by `tests/metrics_observability.rs`).
///
/// # Errors
///
/// Exactly [`simulate_budgeted`]'s errors.
pub fn simulate_observed<S: MetricsSink>(
    config: &MachineConfig,
    trace: &Trace,
    policy: &mut dyn SteeringPolicy,
    budget: &SimBudget,
    sink: &mut S,
) -> Result<SimResult, SimError> {
    let n = trace.len();
    let clusters = config.cluster_count();
    let win_cap = config.cluster.window_entries;
    let fw = config.front_end.fetch_width;
    let depth = config.front_end.depth_to_dispatch as Cycle;

    let mut records = vec![InstRecord::empty(); n];
    let mut completes = vec![NOT_YET; n];
    // Perfect memory disambiguation (Table 1): a load depends on the
    // latest older store to the same 8-byte word — and *only* on true
    // conflicts (no false dependences). Resolved exactly from the trace,
    // once per trace (cached across epochs and grid cells).
    let mem_dep: &[Option<u32>] = trace.memory_deps();
    // Which mispredicted branch redirected this instruction's fetch.
    let mut redirect_of: Vec<Option<DynIdx>> = vec![None; n];
    // Bitmask of clusters a producer's value has been delivered to.
    let mut delivered: Vec<u8> = vec![0; n];

    let mut fe_queue: VecDeque<u32> = VecDeque::with_capacity(config.front_end.skid_buffer);
    // Incremental count of `fe_queue` entries that have cleared the
    // front-end pipe (`fetch + depth <= t`). Fetch times are
    // non-decreasing along the queue, so cleared entries form a prefix;
    // a maturity ring (slot `tf % ring` = instructions fetched at cycle
    // `tf`, still inside the pipe) replaces the per-cycle prefix scan.
    let pipe_ring = depth as usize + 1;
    let mut maturing: Vec<usize> = vec![0; pipe_ring];
    let mut waiting: usize = 0;

    let mut bp = Gshare::new(config.front_end.gshare_history_bits);
    let mut l1 = SetAssocCache::from_config(&config.memory);
    let mut l2 = config
        .memory
        .l2
        .map(|c| SetAssocCache::new(c.bytes, c.ways, c.line_bytes));
    // When the result becomes visible on the global bypass network (equals
    // the complete time unless broadcast bandwidth is limited).
    let mut broadcast = vec![NOT_YET; n];
    // Per-cluster broadcast slots in use, for limited-bandwidth networks.
    let mut bcast_used: Vec<std::collections::HashMap<Cycle, u32>> =
        vec![std::collections::HashMap::new(); clusters];

    let mut next_fetch: usize = 0;
    let mut next_commit: usize = 0;
    let mut dispatched: usize = 0;
    let mut fetch_blocked_on: Option<DynIdx> = None;
    let mut fetch_resume: Cycle = 0;
    let mut redirect_pending: Option<DynIdx> = None;

    // Per-cluster most recent issue (for SteerStall::freed_by attribution).
    let mut last_issue: Vec<Option<DynIdx>> = vec![None; clusters];
    // Whether the instruction at the dispatch head was steer-stalled on a
    // previous cycle.
    let mut head_steer_stalled = false;

    let mut mispredicts: u64 = 0;
    let mut conditional_branches: u64 = 0;
    let mut global_values: u64 = 0;
    let mut steer_stall_cycles: u64 = 0;
    let mut ilp = IlpCensus::default();
    let mut scratch = SimScratch::for_run(n, clusters, win_cap, S::ENABLED);

    let limit: Cycle = 64 * n as Cycle + 100_000;
    let mut t: Cycle = 0;


    while next_commit < n {
        if t > limit {
            return Err(SimError::CycleLimitExceeded {
                cycle: t,
                committed: next_commit,
                total: n,
            });
        }
        if let Some(max) = budget.max_cycles {
            if t >= max {
                return Err(SimError::BudgetExhausted {
                    budget: max,
                    committed: next_commit,
                    total: n,
                });
            }
        }
        if let Some(cancel) = &budget.cancel {
            if t.is_multiple_of(SimBudget::CANCEL_POLL_CYCLES) && cancel.load(Ordering::Relaxed) {
                return Err(SimError::Cancelled {
                    cycle: t,
                    committed: next_commit,
                    total: n,
                });
            }
        }

        if S::ENABLED {
            // Maintained incrementally at dispatch/issue; no per-cycle
            // rebuild from the window state.
            sink.on_cycle(&scratch.occupancy_u32);
        }

        // Instructions fetched at `t - depth` exit the front-end pipe now
        // and start occupying skid-buffer entries.
        if t >= depth {
            let slot = ((t - depth) as usize) % pipe_ring;
            waiting += maturing[slot];
            maturing[slot] = 0;
        }

        // ---- Commit ------------------------------------------------------
        let mut committed_this_cycle = 0;
        while next_commit < dispatched
            && committed_this_cycle < config.commit_width
            && completes[next_commit] != NOT_YET
            && completes[next_commit] < t
        {
            let i = next_commit;
            let commit_bound = if completes[i] + 1 == t {
                CommitBound::Complete
            } else if i > 0 && records[i - 1].commit == t {
                CommitBound::InOrder
            } else if i >= config.commit_width && records[i - config.commit_width].commit + 1 == t
            {
                CommitBound::Bandwidth
            } else {
                // Late head whose predecessors committed earlier: the head
                // itself was the limiter on an earlier cycle but commit
                // bandwidth ran out; classify as bandwidth.
                CommitBound::Bandwidth
            };
            records[i].commit = t;
            records[i].commit_bound = commit_bound;
            let rec = records[i];
            policy.on_commit(DynIdx::new(i as u32), &trace.as_slice()[i], &rec);
            next_commit += 1;
            committed_this_cycle += 1;
        }
        if S::ENABLED {
            sink.on_commit(committed_this_cycle);
        }
        // ---- Issue -------------------------------------------------------
        // Fire the wakeups scheduled for this cycle: entries whose
        // determined ready time is `t` move from the calendar into their
        // cluster's ready list. Everything else stays untouched — no
        // per-cycle rescan of window contents.
        {
            let SimScratch {
                wheel,
                overflow,
                ready_lists,
                priority,
                ..
            } = &mut scratch;
            // Insert in selection order (descending priority, ascending
            // index): the same total order the old per-cycle sort
            // produced, so selection is bit-identical without sorting.
            let insert_ready = |lists: &mut Vec<Vec<u32>>, priority: &[i64], idx: u32| {
                let list = &mut lists[records[idx as usize].cluster as usize];
                let p = priority[idx as usize];
                let pos = list.partition_point(|&x| {
                    let px = priority[x as usize];
                    px > p || (px == p && x < idx)
                });
                list.insert(pos, idx);
            };
            for idx in wheel[(t as usize) & (WAKEUP_HORIZON - 1)].drain(..) {
                debug_assert_eq!(records[idx as usize].ready, t);
                insert_ready(ready_lists, priority, idx);
            }
            while let Some(&std::cmp::Reverse((r, idx))) = overflow.peek() {
                if r > t {
                    break;
                }
                debug_assert_eq!(r, t);
                overflow.pop();
                insert_ready(ready_lists, priority, idx);
            }
        }

        let mut available_total = 0usize;
        let mut issued_total = 0usize;
        let mut any_in_window = false;
        for c in 0..clusters {
            if scratch.occupancy[c] == 0 {
                continue;
            }
            any_in_window = true;
            available_total += scratch.ready_lists[c].len();
            if scratch.ready_lists[c].is_empty() {
                continue;
            }
            // Already in selection order (maintained at insertion).
            let ready = std::mem::take(&mut scratch.ready_lists[c]);

            let mut int_used = 0;
            let mut fp_used = 0;
            let mut mem_used = 0;
            let mut width_used = 0;
            scratch.keep.clear();
            for &idx in &ready {
                let i = idx as usize;
                if width_used >= config.cluster.issue_width {
                    scratch.keep.push(idx);
                    continue;
                }
                let inst = &trace.as_slice()[i];
                let (used, cap, port_idx) = match inst.op().port() {
                    PortKind::Int => (&mut int_used, config.cluster.int_ports, 0),
                    PortKind::Fp => (&mut fp_used, config.cluster.fp_ports, 1),
                    PortKind::Mem => (&mut mem_used, config.cluster.mem_ports, 2),
                };
                if *used >= cap {
                    scratch.keep.push(idx);
                    continue;
                }
                *used += 1;
                width_used += 1;
                issued_total += 1;
                if S::ENABLED {
                    sink.on_issue(c, port_idx);
                }

                // Execute.
                let mut latency = inst.op().latency() as Cycle;
                if let Some(addr) = inst.mem_addr {
                    let hit = l1.access(addr);
                    if !hit {
                        records[i].l1_miss = true;
                        let mut extra = config.memory.l2_latency;
                        if let (Some(l2), Some(l2cfg)) = (l2.as_mut(), config.memory.l2) {
                            if !l2.access(addr) {
                                extra += l2cfg.memory_latency;
                            }
                        }
                        records[i].mem_extra = extra;
                        latency += extra as Cycle;
                    }
                }
                records[i].issue = t;
                records[i].complete = t + latency;
                completes[i] = t + latency;
                // Broadcast scheduling: with limited bandwidth, the value
                // waits for a free slot on its cluster's egress.
                broadcast[i] = match config.forward_bandwidth {
                    None => t + latency,
                    Some(b) => {
                        let mut slot = t + latency;
                        loop {
                            let used = bcast_used[c].entry(slot).or_insert(0);
                            if *used < b {
                                *used += 1;
                                break;
                            }
                            slot += 1;
                        }
                        if S::ENABLED {
                            sink.on_broadcast_wait(c, slot - (t + latency));
                        }
                        slot
                    }
                };
                last_issue[c] = Some(DynIdx::new(idx));
                scratch.occupancy[c] -= 1;
                if S::ENABLED {
                    scratch.occupancy_u32[c] -= 1;
                }

                // Global-value accounting: one delivery per (producer,
                // consumer-cluster) pair.
                for dep in trace.as_slice()[i].producers() {
                    let pcluster = records[dep.index()].cluster as usize;
                    if pcluster != c {
                        let bit = 1u8 << c;
                        if delivered[dep.index()] & bit == 0 {
                            delivered[dep.index()] |= bit;
                            global_values += 1;
                            if S::ENABLED {
                                sink.on_bypass(pcluster, c);
                            }
                        }
                    }
                }

                // Event-driven wakeup: this issue fixed `completes[i]` and
                // `broadcast[i]`, so every consumer parked on `i` can now be
                // re-examined. Determined consumers land in the calendar
                // (their ready time is strictly future); the rest re-park on
                // their next unissued producer.
                let mut w = scratch.waiter_head[i];
                scratch.waiter_head[i] = NO_INST;
                while w != NO_INST {
                    let next = scratch.waiter_next[w as usize];
                    scratch.waiter_next[w as usize] = NO_INST;
                    scratch.try_determine_ready(
                        w,
                        t,
                        trace,
                        mem_dep,
                        &completes,
                        &broadcast,
                        &mut records,
                        config,
                    );
                    w = next;
                }
            }
            // The unissued ready entries stay ready for the next cycle;
            // `ready`'s buffer becomes the next compaction scratch.
            scratch.ready_lists[c] = std::mem::replace(&mut scratch.keep, ready);
        }
        if any_in_window {
            ilp.record(available_total, issued_total);
        }
        // ---- Dispatch / steer ---------------------------------------------
        let mut dispatched_this_cycle = 0;
        while dispatched_this_cycle < fw {
            let Some(&head) = fe_queue.front() else {
                if S::ENABLED {
                    sink.on_dispatch_stall(DispatchStall::FetchEmpty);
                }
                break;
            };
            let i = head as usize;
            if records[i].fetch + depth > t {
                if S::ENABLED {
                    sink.on_dispatch_stall(DispatchStall::FrontEndPipe);
                }
                break; // still in the front-end pipe
            }
            if dispatched - next_commit >= config.rob_entries {
                if S::ENABLED {
                    sink.on_dispatch_stall(DispatchStall::RobFull);
                }
                break; // ROB full
            }
            let inst = &trace.as_slice()[i];
            let mut producers = [None, None];
            for (slot, dep) in inst.deps.iter().enumerate() {
                if let Some(p) = dep {
                    let pcluster = records[p.index()].cluster as usize;
                    let pcomplete = completes[p.index()];
                    let visible_everywhere = pcomplete != NOT_YET
                        && broadcast[p.index()] + config.forward_latency as Cycle <= t;
                    producers[slot] = Some(ProducerInfo {
                        idx: *p,
                        pc: trace.as_slice()[p.index()].pc(),
                        cluster: pcluster,
                        completed: visible_everywhere,
                    });
                }
            }
            let view = SteerView {
                inst,
                idx: DynIdx::new(head),
                now: t,
                occupancy: &scratch.occupancy,
                capacity: win_cap,
                producers,
            };
            let outcome = policy.steer(&view);
            let (cluster, cause) = match outcome.decision {
                SteerDecision::To { cluster, cause } if scratch.occupancy[cluster] < win_cap => {
                    (cluster, cause)
                }
                _ => {
                    steer_stall_cycles += 1;
                    head_steer_stalled = true;
                    if S::ENABLED {
                        sink.on_steer_stall();
                        sink.on_dispatch_stall(DispatchStall::Steer);
                    }
                    break;
                }
            };
            if S::ENABLED {
                sink.on_steer(cluster, cause.index());
            }

            // Binding constraint for the dispatch time.
            let fe_time = records[i].fetch + depth;
            let bound = if fe_time == t {
                match redirect_of[i] {
                    Some(b) => DispatchBound::Redirect(b),
                    None => DispatchBound::FrontEnd,
                }
            } else if head_steer_stalled {
                DispatchBound::SteerStall {
                    freed_by: last_issue[cluster],
                }
            } else if i >= config.rob_entries && records[i - config.rob_entries].commit == t {
                DispatchBound::RobFull(DynIdx::new((i - config.rob_entries) as u32))
            } else {
                DispatchBound::InOrder
            };
            head_steer_stalled = false;

            let rec = &mut records[i];
            rec.dispatch = t;
            rec.cluster = cluster as u8;
            rec.steer_cause = cause;
            rec.predicted_critical = outcome.predicted_critical;
            rec.loc = outcome.loc;
            rec.dispatch_bound = bound;

            scratch.priority[i] = policy.priority(DynIdx::new(head), inst);
            scratch.occupancy[cluster] += 1;
            if S::ENABLED {
                scratch.occupancy_u32[cluster] += 1;
            }
            // Determine the entry's ready time now if every producer has
            // already issued; otherwise park it on the first unissued one.
            // Either way it surfaces for selection exactly at its ready
            // cycle — the window is never rescanned.
            scratch.try_determine_ready(
                head,
                t,
                trace,
                mem_dep,
                &completes,
                &broadcast,
                &mut records,
                config,
            );
            fe_queue.pop_front();
            // Only instructions that cleared the pipe reach dispatch.
            waiting -= 1;
            dispatched += 1;
            dispatched_this_cycle += 1;
        }
        // ---- Fetch ---------------------------------------------------------
        if let Some(b) = fetch_blocked_on {
            if completes[b.index()] != NOT_YET {
                fetch_resume = completes[b.index()] + 1;
                fetch_blocked_on = None;
                redirect_pending = Some(b);
            }
        }
        if fetch_blocked_on.is_none() && t >= fetch_resume {
            // The skid buffer bounds instructions that have exited the
            // front-end pipe but not dispatched; instructions still in
            // flight inside the pipe (fetched within the last `depth`
            // cycles) do not occupy buffer entries.
            debug_assert_eq!(
                waiting,
                fe_queue
                    .iter()
                    .take_while(|&&i| records[i as usize].fetch + depth <= t)
                    .count()
            );
            let in_pipe = fe_queue.len() - waiting;
            let mut fetched_this_cycle = 0;
            while fetched_this_cycle < fw
                && next_fetch < n
                && waiting + in_pipe + fetched_this_cycle
                    < config.front_end.skid_buffer + (depth as usize + 1) * fw
                && waiting < config.front_end.skid_buffer
            {
                let i = next_fetch;
                let inst = &trace.as_slice()[i];
                records[i].fetch = t;
                if let Some(r) = redirect_pending.take() {
                    redirect_of[i] = Some(r);
                }
                fe_queue.push_back(i as u32);
                maturing[(t as usize) % pipe_ring] += 1;
                next_fetch += 1;
                fetched_this_cycle += 1;

                if let Some(br) = inst.branch {
                    match br.class {
                        BranchClass::Conditional => {
                            conditional_branches += 1;
                            let pred = bp.predict(inst.pc());
                            bp.update(inst.pc(), br.taken);
                            if pred != br.taken {
                                mispredicts += 1;
                                records[i].mispredicted = true;
                                fetch_blocked_on = Some(DynIdx::new(i as u32));
                                break;
                            }
                        }
                        BranchClass::Unconditional => {}
                    }
                    if br.taken && config.front_end.break_on_taken {
                        break;
                    }
                }
            }
        }

        if config.forward_bandwidth.is_some() && t.is_multiple_of(4096) {
            for m in &mut bcast_used {
                m.retain(|&k, _| k + 1 >= t);
            }
        }
        t += 1;
    }

    debug_assert!(scratch.occupancy.iter().all(|&o| o == 0));
    debug_assert!(scratch.ready_lists.iter().all(Vec::is_empty));
    debug_assert!(scratch.wheel.iter().all(Vec::is_empty));
    debug_assert!(scratch.overflow.is_empty());
    debug_assert!(scratch.waiter_head.iter().all(|&w| w == NO_INST));
    debug_assert!(fe_queue.is_empty());
    debug_assert_eq!(waiting, 0);

    if S::ENABLED {
        sink.on_run_end(t, n as u64);
    }

    Ok(SimResult {
        config: *config,
        cycles: t,
        records,
        mispredicts,
        conditional_branches,
        l1_misses: l1.misses(),
        l1_accesses: l1.accesses(),
        global_values,
        ilp,
        steer_stall_cycles,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policies::LeastLoaded;
    use ccs_isa::ClusterLayout;
    use ccs_trace::Benchmark;

    fn setup() -> (MachineConfig, Trace) {
        let cfg = MachineConfig::micro05_baseline().with_layout(ClusterLayout::C2x4w);
        let trace = Benchmark::Gzip.generate(3, 1_000);
        (cfg, trace)
    }

    #[test]
    fn unbounded_budget_matches_plain_simulate() {
        let (cfg, trace) = setup();
        let plain = simulate(&cfg, &trace, &mut LeastLoaded).unwrap();
        let budgeted =
            simulate_budgeted(&cfg, &trace, &mut LeastLoaded, &SimBudget::unbounded()).unwrap();
        assert_eq!(plain.cycles, budgeted.cycles);
        assert_eq!(plain.records, budgeted.records);
    }

    #[test]
    fn exhausted_budget_reports_deterministically() {
        let (cfg, trace) = setup();
        let budget = SimBudget::unbounded().with_max_cycles(50);
        let a = simulate_budgeted(&cfg, &trace, &mut LeastLoaded, &budget).unwrap_err();
        let b = simulate_budgeted(&cfg, &trace, &mut LeastLoaded, &budget).unwrap_err();
        assert_eq!(a, b, "budget exhaustion must be deterministic");
        assert!(a.is_timeout());
        match a {
            SimError::BudgetExhausted {
                budget: max,
                committed,
                total,
            } => {
                assert_eq!(max, 50);
                assert!(committed < total);
                assert_eq!(total, trace.len());
            }
            other => panic!("expected BudgetExhausted, got {other:?}"),
        }
    }

    #[test]
    fn ample_budget_changes_nothing() {
        let (cfg, trace) = setup();
        let plain = simulate(&cfg, &trace, &mut LeastLoaded).unwrap();
        let budget = SimBudget::unbounded().with_max_cycles(plain.cycles + 1);
        let bounded = simulate_budgeted(&cfg, &trace, &mut LeastLoaded, &budget).unwrap();
        assert_eq!(plain.cycles, bounded.cycles);
    }

    #[test]
    fn raised_cancel_flag_stops_the_run() {
        let (cfg, trace) = setup();
        let flag = Arc::new(AtomicBool::new(true));
        let budget = SimBudget::unbounded().with_cancel(Arc::clone(&flag));
        let err = simulate_budgeted(&cfg, &trace, &mut LeastLoaded, &budget).unwrap_err();
        assert!(err.is_timeout());
        assert!(matches!(err, SimError::Cancelled { cycle: 0, .. }));
    }

    #[test]
    fn lowered_cancel_flag_changes_nothing() {
        let (cfg, trace) = setup();
        let plain = simulate(&cfg, &trace, &mut LeastLoaded).unwrap();
        let flag = Arc::new(AtomicBool::new(false));
        let budget = SimBudget::unbounded().with_cancel(flag);
        let free = simulate_budgeted(&cfg, &trace, &mut LeastLoaded, &budget).unwrap();
        assert_eq!(plain.cycles, free.cycles);
        assert_eq!(plain.records, free.records);
    }
}
