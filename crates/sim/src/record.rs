//! Per-instruction event records.

use crate::policy::SteerCause;
use ccs_trace::DynIdx;
use serde::{Deserialize, Serialize};

/// A simulated clock cycle.
pub type Cycle = u64;

/// The constraint that determined an instruction's dispatch cycle.
///
/// Dispatch time is the maximum of several lower bounds; the simulator
/// records which bound was binding so the critical-path analysis can
/// attribute the wait to the right category (Figure 5's `fetch`, `window`
/// and `br. mispr.` components).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DispatchBound {
    /// The front-end pipeline delivered the instruction this cycle
    /// (dispatch = fetch + depth) with no redirect involved.
    FrontEnd,
    /// As [`FrontEnd`](Self::FrontEnd), but the fetch itself was delayed
    /// by the resolution of the given mispredicted branch.
    Redirect(DynIdx),
    /// In-order dispatch: waited on the previous instruction (same-cycle
    /// ordering or dispatch-bandwidth limit).
    InOrder,
    /// Waited for a reorder-buffer entry, freed by the commit of the given
    /// instruction.
    RobFull(DynIdx),
    /// Steering held the instruction: its target cluster's window was full
    /// or the policy chose to stall (the §5 stall-over-steer behaviour).
    /// `freed_by` is the most recent instruction whose issue opened a slot
    /// in the cluster finally steered to, when one is known.
    SteerStall {
        /// Instruction whose issue freed the window slot.
        freed_by: Option<DynIdx>,
    },
}

/// The constraint that determined when an instruction became ready to
/// issue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ReadyBound {
    /// All operands were available before dispatch; readiness was bounded
    /// by the dispatch cycle itself (fetch-limited code).
    Dispatch,
    /// The last-arriving operand. `fwd` is the inter-cluster forwarding
    /// latency included in the arrival (0 when producer and consumer share
    /// a cluster).
    Operand {
        /// Source-operand slot (0 or 1).
        slot: u8,
        /// The producing dynamic instruction.
        producer: DynIdx,
        /// Forwarding cycles included in the arrival time.
        fwd: u32,
    },
}

/// The constraint that determined an instruction's commit cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CommitBound {
    /// Committed as soon as execution completed.
    Complete,
    /// Waited for the preceding instruction (in-order commit).
    InOrder,
    /// Waited for commit bandwidth.
    Bandwidth,
}

/// Event times and binding constraints for one dynamic instruction.
///
/// All cycle fields are filled by the end of simulation; `ready`, `issue`
/// and friends are meaningful only after the corresponding pipeline stage
/// has processed the instruction.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct InstRecord {
    /// Cycle the instruction was fetched.
    pub fetch: Cycle,
    /// Cycle the instruction entered its cluster's scheduling window.
    pub dispatch: Cycle,
    /// First cycle the instruction could have issued (operands visible).
    pub ready: Cycle,
    /// Cycle the instruction issued to a functional unit.
    pub issue: Cycle,
    /// Cycle the result became available to same-cluster consumers.
    pub complete: Cycle,
    /// Cycle the instruction committed.
    pub commit: Cycle,
    /// The cluster the instruction executed on.
    pub cluster: u8,
    /// Whether this is a conditional branch the front end mispredicted.
    pub mispredicted: bool,
    /// Whether a load/store missed in the L1.
    pub l1_miss: bool,
    /// Extra memory cycles beyond the op's base latency (L2 access and,
    /// with a finite L2, main-memory latency).
    pub mem_extra: u32,
    /// Why the instruction dispatched when it did.
    pub dispatch_bound: DispatchBound,
    /// Why the instruction became ready when it did.
    pub ready_bound: ReadyBound,
    /// Why the instruction committed when it did.
    pub commit_bound: CommitBound,
    /// The steering policy's placement rationale.
    pub steer_cause: SteerCause,
    /// Whether the policy considered the instruction critical at dispatch
    /// (false for policies without a criticality predictor).
    pub predicted_critical: bool,
    /// The policy's likelihood-of-criticality estimate at dispatch, in
    /// `[0, 1]` (0 for policies without an LoC predictor).
    pub loc: f32,
}

impl InstRecord {
    pub(crate) fn empty() -> Self {
        InstRecord {
            fetch: 0,
            dispatch: 0,
            ready: 0,
            issue: 0,
            complete: 0,
            commit: 0,
            cluster: 0,
            mispredicted: false,
            l1_miss: false,
            mem_extra: 0,
            dispatch_bound: DispatchBound::FrontEnd,
            ready_bound: ReadyBound::Dispatch,
            commit_bound: CommitBound::Complete,
            steer_cause: SteerCause::Only,
            predicted_critical: false,
            loc: 0.0,
        }
    }

    /// Cycles the instruction spent ready but not issued — the §3/§4
    /// *contention* exposure.
    #[inline]
    pub fn contention_wait(&self) -> u64 {
        self.issue.saturating_sub(self.ready)
    }

    /// Forwarding cycles on the last-arriving operand (0 if readiness was
    /// dispatch-bound or the operand was local).
    #[inline]
    pub fn forwarding_on_ready(&self) -> u32 {
        match self.ready_bound {
            ReadyBound::Operand { fwd, .. } => fwd,
            ReadyBound::Dispatch => 0,
        }
    }

    /// Execution latency actually observed (complete − issue).
    #[inline]
    pub fn exec_latency(&self) -> u64 {
        self.complete - self.issue
    }

    /// Every field packed, at its declared width, into the fixed words
    /// [`SimResult::digest`](crate::SimResult::digest) hashes. Enum
    /// variants carry explicit tags, so `Redirect(i)` and `RobFull(i)`
    /// never pack alike, and `loc` enters as its bit pattern.
    pub(crate) fn digest_words(&self) -> [u64; 10] {
        let (dispatch_tag, dispatch_idx) = match self.dispatch_bound {
            DispatchBound::FrontEnd => (0u64, 0u32),
            DispatchBound::Redirect(i) => (1, i.raw()),
            DispatchBound::InOrder => (2, 0),
            DispatchBound::RobFull(i) => (3, i.raw()),
            DispatchBound::SteerStall { freed_by: None } => (4, 0),
            DispatchBound::SteerStall { freed_by: Some(i) } => (5, i.raw()),
        };
        let (ready_tag, slot, producer, fwd) = match self.ready_bound {
            ReadyBound::Dispatch => (0u64, 0u8, 0u32, 0u32),
            ReadyBound::Operand {
                slot,
                producer,
                fwd,
            } => (1, slot, producer.raw(), fwd),
        };
        let commit_tag: u64 = match self.commit_bound {
            CommitBound::Complete => 0,
            CommitBound::InOrder => 1,
            CommitBound::Bandwidth => 2,
        };
        [
            self.fetch,
            self.dispatch,
            self.ready,
            self.issue,
            self.complete,
            self.commit,
            u64::from(self.cluster)
                | u64::from(self.mispredicted) << 8
                | u64::from(self.l1_miss) << 9
                | u64::from(self.predicted_critical) << 10
                | commit_tag << 16
                | (self.steer_cause.index() as u64) << 24
                | u64::from(self.mem_extra) << 32,
            dispatch_tag | ready_tag << 8 | u64::from(slot) << 16 | u64::from(dispatch_idx) << 32,
            u64::from(producer) | u64::from(fwd) << 32,
            u64::from(self.loc.to_bits()),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contention_wait_is_issue_minus_ready() {
        let mut r = InstRecord::empty();
        r.ready = 10;
        r.issue = 13;
        assert_eq!(r.contention_wait(), 3);
        r.issue = 10;
        assert_eq!(r.contention_wait(), 0);
    }

    #[test]
    fn forwarding_on_ready_reads_bound() {
        let mut r = InstRecord::empty();
        assert_eq!(r.forwarding_on_ready(), 0);
        r.ready_bound = ReadyBound::Operand {
            slot: 1,
            producer: DynIdx::new(3),
            fwd: 2,
        };
        assert_eq!(r.forwarding_on_ready(), 2);
    }

    #[test]
    fn exec_latency() {
        let mut r = InstRecord::empty();
        r.issue = 5;
        r.complete = 8;
        assert_eq!(r.exec_latency(), 3);
    }
}
