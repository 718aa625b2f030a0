//! Per-warp execution state inside an SM.
//!
//! The simulator uses a simple but faithful warp model: a warp issues
//! its trace in order and blocks on memory (stall-on-load). Thread
//! level parallelism across the SM's resident warps provides the
//! latency hiding, exactly the mechanism whose breakdown (the memory
//! wall) the paper quantifies in Figs 3–5.

use crate::json::Value;
use crate::snapshot::{self, SnapshotError};
use crate::types::{Address, CtaId, Cycle, Pc};

/// Execution state of a warp slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WarpState {
    /// Can issue this cycle (includes retrying reservation-failed
    /// transactions still in `pending`).
    Ready,
    /// Executing compute (or absorbing L1 hit latency) until the cycle.
    Busy(Cycle),
    /// Blocked on outstanding memory responses.
    Waiting,
}

/// A resident warp: trace cursor plus memory bookkeeping.
#[derive(Debug, Clone)]
pub struct WarpSlot {
    /// CTA this warp belongs to.
    pub cta: CtaId,
    /// Index of this warp's trace in the kernel.
    pub trace_idx: usize,
    /// Monotonic launch sequence number (for "oldest" scheduling).
    pub launch_seq: u64,
    /// Next instruction index in the trace.
    pub next: usize,
    /// Current state.
    pub state: WarpState,
    /// Transactions of the current memory instruction not yet accepted
    /// by the L1 (reservation-fail retry set).
    pub pending: Vec<Address>,
    /// PC of the in-flight memory instruction.
    pub cur_pc: Pc,
    /// Whether the in-flight memory instruction is a load.
    pub cur_is_load: bool,
    /// Whether the in-flight load was coalesced to one transaction
    /// (divergent warps are excluded from prefetcher training, §3.4).
    pub cur_coalesced: bool,
    /// Outstanding memory responses the warp is waiting for.
    pub outstanding: u32,
    /// Whether the current `Busy` state was entered by a memory
    /// instruction (absorbing L1 hit latency or a store settle) rather
    /// than compute. Disambiguates `Barrier` from `Scoreboard` in the
    /// stall taxonomy: an all-busy scheduler partition with a
    /// memory-entered busy warp is a memory-use barrier, not a compute
    /// dependency.
    pub busy_mem: bool,
}

impl WarpSlot {
    /// Creates a fresh slot about to execute `trace_idx`.
    pub fn new(cta: CtaId, trace_idx: usize, launch_seq: u64) -> Self {
        WarpSlot {
            cta,
            trace_idx,
            launch_seq,
            next: 0,
            state: WarpState::Ready,
            pending: Vec::new(),
            cur_pc: Pc(0),
            cur_is_load: false,
            cur_coalesced: true,
            outstanding: 0,
            busy_mem: false,
        }
    }

    /// Whether the warp can be picked by a scheduler this cycle.
    /// Busy warps whose deadline has passed are normalized to
    /// [`WarpState::Ready`] by [`WarpSlot::refresh`] first.
    pub fn issuable(&self) -> bool {
        self.state == WarpState::Ready
    }

    /// Normalizes time-based state transitions at the start of a cycle.
    pub fn refresh(&mut self, now: Cycle) {
        if let WarpState::Busy(until) = self.state {
            if until <= now {
                self.state = WarpState::Ready;
            }
        }
    }

    /// Whether the warp is stalled *on memory* (for the Fig 5 stall
    /// taxonomy): waiting for responses or retrying rejected
    /// transactions.
    pub fn memory_stalled(&self) -> bool {
        self.state == WarpState::Waiting
            || (self.state == WarpState::Ready && !self.pending.is_empty() && self.outstanding == 0)
            || (self.state == WarpState::Ready && !self.pending.is_empty())
    }

    /// Records a completed memory response; returns `true` when the
    /// warp became ready again.
    pub fn complete_response(&mut self) -> bool {
        debug_assert!(self.outstanding > 0, "spurious response");
        self.outstanding -= 1;
        if self.outstanding == 0 && self.state == WarpState::Waiting && self.pending.is_empty() {
            self.state = WarpState::Ready;
            true
        } else {
            false
        }
    }

    /// Called when the current memory instruction's transactions are
    /// all accepted: block on responses or absorb the hit latency.
    pub fn settle_mem_instr(&mut self, now: Cycle, hit_latency: u32) {
        debug_assert!(self.pending.is_empty());
        if self.outstanding > 0 {
            self.state = WarpState::Waiting;
        } else {
            self.state = WarpState::Busy(now.plus(u64::from(hit_latency)));
            self.busy_mem = true;
        }
    }

    /// Serializes the complete slot for a checkpoint.
    pub fn save_state(&self) -> Value {
        let state = match self.state {
            WarpState::Ready => Value::Null,
            WarpState::Busy(until) => Value::u64(until.0),
            WarpState::Waiting => Value::Bool(true),
        };
        Value::obj(vec![
            ("cta".into(), Value::u64(u64::from(self.cta.0))),
            ("trace_idx".into(), Value::u64(self.trace_idx as u64)),
            ("launch_seq".into(), Value::u64(self.launch_seq)),
            ("next".into(), Value::u64(self.next as u64)),
            ("state".into(), state),
            (
                "pending".into(),
                Value::Arr(self.pending.iter().map(|a| Value::u64(a.0)).collect()),
            ),
            ("cur_pc".into(), Value::u64(u64::from(self.cur_pc.0))),
            ("cur_is_load".into(), Value::Bool(self.cur_is_load)),
            ("cur_coalesced".into(), Value::Bool(self.cur_coalesced)),
            (
                "outstanding".into(),
                Value::u64(u64::from(self.outstanding)),
            ),
            ("busy_mem".into(), Value::Bool(self.busy_mem)),
        ])
    }

    /// Rebuilds a slot from [`save_state`](WarpSlot::save_state).
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Malformed`] on a missing or malformed field.
    pub fn from_state(v: &Value) -> Result<WarpSlot, SnapshotError> {
        let state = match snapshot::field(v, "state")? {
            Value::Null => WarpState::Ready,
            Value::Bool(true) => WarpState::Waiting,
            other => WarpState::Busy(Cycle(
                other
                    .as_u64()
                    .ok_or_else(|| SnapshotError::malformed("warp state"))?,
            )),
        };
        let pending = snapshot::arr_field(v, "pending")?
            .iter()
            .map(|a| a.as_u64().map(Address))
            .collect::<Option<Vec<_>>>()
            .ok_or_else(|| SnapshotError::malformed("warp pending address"))?;
        Ok(WarpSlot {
            cta: CtaId(snapshot::u32_field(v, "cta")?),
            trace_idx: snapshot::usize_field(v, "trace_idx")?,
            launch_seq: snapshot::u64_field(v, "launch_seq")?,
            next: snapshot::usize_field(v, "next")?,
            state,
            pending,
            cur_pc: Pc(snapshot::u32_field(v, "cur_pc")?),
            cur_is_load: snapshot::bool_field(v, "cur_is_load")?,
            cur_coalesced: snapshot::bool_field(v, "cur_coalesced")?,
            outstanding: snapshot::u32_field(v, "outstanding")?,
            busy_mem: snapshot::bool_field(v, "busy_mem")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn busy_refreshes_to_ready() {
        let mut w = WarpSlot::new(CtaId(0), 0, 0);
        w.state = WarpState::Busy(Cycle(10));
        w.refresh(Cycle(9));
        assert_eq!(w.state, WarpState::Busy(Cycle(10)));
        assert!(!w.issuable());
        w.refresh(Cycle(10));
        assert!(w.issuable());
    }

    #[test]
    fn responses_unblock_when_all_arrive() {
        let mut w = WarpSlot::new(CtaId(0), 0, 0);
        w.outstanding = 2;
        w.state = WarpState::Waiting;
        assert!(!w.complete_response());
        assert!(w.complete_response());
        assert_eq!(w.state, WarpState::Ready);
    }

    #[test]
    fn settle_blocks_or_busies() {
        let mut w = WarpSlot::new(CtaId(0), 0, 0);
        w.outstanding = 1;
        w.settle_mem_instr(Cycle(5), 28);
        assert_eq!(w.state, WarpState::Waiting);

        let mut w = WarpSlot::new(CtaId(0), 0, 0);
        w.settle_mem_instr(Cycle(5), 28);
        assert_eq!(w.state, WarpState::Busy(Cycle(33)));
    }

    #[test]
    fn memory_stall_taxonomy() {
        let mut w = WarpSlot::new(CtaId(0), 0, 0);
        assert!(!w.memory_stalled());
        w.state = WarpState::Waiting;
        assert!(w.memory_stalled());
        let mut w = WarpSlot::new(CtaId(0), 0, 0);
        w.pending.push(Address(4));
        assert!(
            w.memory_stalled(),
            "retrying a reservation fail is a memory stall"
        );
        let mut w = WarpSlot::new(CtaId(0), 0, 0);
        w.state = WarpState::Busy(Cycle(100));
        assert!(!w.memory_stalled(), "compute busy is not a memory stall");
    }
}
