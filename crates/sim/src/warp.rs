//! Per-warp execution state inside an SM.
//!
//! The simulator uses a simple but faithful warp model: a warp issues
//! its trace in order and blocks on memory (stall-on-load). Thread
//! level parallelism across the SM's resident warps provides the
//! latency hiding, exactly the mechanism whose breakdown (the memory
//! wall) the paper quantifies in Figs 3–5.

use crate::json::Value;
use crate::kernel::KernelTrace;
use crate::snapshot::{self, SnapshotError};
use crate::types::{Address, CtaId, Cycle, Pc};

/// Execution state of a warp slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WarpState {
    /// Can issue this cycle (includes retrying reservation-failed
    /// transactions still `pending`).
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
    /// by the L1 (reservation-fail retry set). A cursor from the end:
    /// they are the last `pending` addresses of the instruction's
    /// [`AddrList`](crate::AddrList), which the L1 accepts in order
    /// (see [`WarpSlot::pending_addrs`]).
    pub pending: u32,
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
            pending: 0,
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
        self.state == WarpState::Waiting || (self.state == WarpState::Ready && self.pending > 0)
    }

    /// Records a completed memory response; returns `true` when the
    /// warp became ready again.
    pub fn complete_response(&mut self) -> bool {
        debug_assert!(self.outstanding > 0, "spurious response");
        self.outstanding -= 1;
        if self.outstanding == 0 && self.state == WarpState::Waiting && self.pending == 0 {
            self.state = WarpState::Ready;
            true
        } else {
            false
        }
    }

    /// Called when the current memory instruction's transactions are
    /// all accepted: block on responses or absorb the hit latency.
    pub fn settle_mem_instr(&mut self, now: Cycle, hit_latency: u32) {
        debug_assert_eq!(self.pending, 0);
        if self.outstanding > 0 {
            self.state = WarpState::Waiting;
        } else {
            self.state = WarpState::Busy(now.plus(u64::from(hit_latency)));
            self.busy_mem = true;
        }
    }

    /// The pending transactions' addresses: the unaccepted suffix of
    /// the current memory instruction, `instrs[next - 1]` of this
    /// warp's trace in `kernel`.
    ///
    /// # Panics
    ///
    /// Panics if `pending` does not fit that instruction — the slot
    /// does not belong to `kernel`.
    pub fn pending_addrs<'k>(&self, kernel: &'k KernelTrace) -> &'k [Address] {
        self.pending_suffix(kernel)
            .expect("pending transactions belong to the warp's current memory instruction")
    }

    /// [`WarpSlot::pending_addrs`], or `None` when `pending` does not
    /// fit the current instruction (restore validation).
    fn pending_suffix<'k>(&self, kernel: &'k KernelTrace) -> Option<&'k [Address]> {
        if self.pending == 0 {
            return Some(&[]);
        }
        let instr = kernel
            .warps()
            .get(self.trace_idx)?
            .instrs
            .get(self.next.checked_sub(1)?)?;
        let addrs = instr.addrs()?.as_slice();
        addrs.get(addrs.len().checked_sub(self.pending as usize)?..)
    }

    /// Serializes the complete slot for a checkpoint; `kernel` is the
    /// trace the slot executes (the pending addresses are written out).
    pub fn save_state(&self, kernel: &KernelTrace) -> Value {
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
                Value::Arr(
                    self.pending_addrs(kernel)
                        .iter()
                        .map(|a| Value::u64(a.0))
                        .collect(),
                ),
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
    /// [`SnapshotError::Malformed`] on a missing or malformed field, a
    /// trace index outside `kernel`, or pending addresses that are not
    /// a suffix of the current memory instruction's list.
    pub fn from_state(v: &Value, kernel: &KernelTrace) -> Result<WarpSlot, SnapshotError> {
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
        let slot = WarpSlot {
            cta: CtaId(snapshot::u32_field(v, "cta")?),
            trace_idx: snapshot::usize_field(v, "trace_idx")?,
            launch_seq: snapshot::u64_field(v, "launch_seq")?,
            next: snapshot::usize_field(v, "next")?,
            state,
            pending: u32::try_from(pending.len())
                .map_err(|_| SnapshotError::malformed("warp pending list too long"))?,
            cur_pc: Pc(snapshot::u32_field(v, "cur_pc")?),
            cur_is_load: snapshot::bool_field(v, "cur_is_load")?,
            cur_coalesced: snapshot::bool_field(v, "cur_coalesced")?,
            outstanding: snapshot::u32_field(v, "outstanding")?,
            busy_mem: snapshot::bool_field(v, "busy_mem")?,
        };
        if slot.trace_idx >= kernel.warps().len() {
            return Err(SnapshotError::malformed(format!(
                "warp trace index {} outside a kernel of {} warps",
                slot.trace_idx,
                kernel.warps().len()
            )));
        }
        if slot.pending_suffix(kernel) != Some(&pending[..]) {
            return Err(SnapshotError::malformed(
                "warp pending addresses are not a suffix of its current memory instruction",
            ));
        }
        Ok(slot)
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
        w.pending = 1;
        assert!(
            w.memory_stalled(),
            "retrying a reservation fail is a memory stall"
        );
        let mut w = WarpSlot::new(CtaId(0), 0, 0);
        w.state = WarpState::Busy(Cycle(100));
        assert!(!w.memory_stalled(), "compute busy is not a memory stall");
    }

    #[test]
    fn pending_is_a_suffix_of_the_current_instruction() {
        use crate::kernel::{AddrList, Instr, WarpTrace};
        let addrs = AddrList::from_vec(vec![Address(0), Address(128), Address(256)]);
        let kernel = KernelTrace::new(
            "k",
            vec![WarpTrace::new(
                CtaId(0),
                vec![Instr::Load { pc: Pc(1), addrs }, Instr::compute(2)],
            )],
        );
        let mut w = WarpSlot::new(CtaId(0), 0, 0);
        w.next = 1;
        w.pending = 2;
        assert_eq!(w.pending_addrs(&kernel), [Address(128), Address(256)]);
        let saved = w.save_state(&kernel);
        assert!(saved.to_string().contains("\"pending\":[128,256]"));
        let back = WarpSlot::from_state(&saved, &kernel).unwrap();
        assert_eq!(back.save_state(&kernel), saved);

        let text = saved.to_string();
        for (what, bad) in [
            ("not a suffix", text.replace("[128,256]", "[0,256]")),
            ("too long", text.replace("[128,256]", "[0,0,128,256]")),
            ("on a compute", text.replace("\"next\":1", "\"next\":2")),
            ("no instruction", text.replace("\"next\":1", "\"next\":0")),
            (
                "no trace",
                text.replace("\"trace_idx\":0", "\"trace_idx\":1"),
            ),
        ] {
            let v = crate::json::parse(&bad).unwrap();
            assert!(WarpSlot::from_state(&v, &kernel).is_err(), "{what}");
        }
    }
}
