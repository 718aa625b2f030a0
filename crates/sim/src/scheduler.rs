//! Warp schedulers.
//!
//! Each SM has `schedulers_per_sm` schedulers; resident warp slots are
//! statically partitioned among them by `slot % schedulers` (as on real
//! NVIDIA SMs). The paper's baseline is Greedy-Then-Oldest (GTO) —
//! notably, GTO's greediness is why Snake's Head table doubles its
//! warp-id/base-address columns (§3.1, §5.5).

use crate::config::SchedulerPolicy;
use crate::json::Value;
use crate::snapshot::{self, SnapshotError};
use crate::warp::WarpSlot;

/// Per-scheduler pick state.
#[derive(Debug, Clone, Default)]
pub struct Scheduler {
    policy: SchedulerPolicy,
    /// GTO: the warp currently issued greedily. LRR: last issued warp.
    current: Option<usize>,
}

impl Scheduler {
    /// Creates a scheduler with the given policy.
    pub fn new(policy: SchedulerPolicy) -> Self {
        Scheduler {
            policy,
            current: None,
        }
    }

    /// Picks a slot index to issue from among `slots` (the SM's full
    /// slot array; `None` entries are free slots). Only slots with
    /// `slot_idx % stride == offset` belong to this scheduler.
    pub fn pick(
        &mut self,
        slots: &[Option<WarpSlot>],
        offset: usize,
        stride: usize,
    ) -> Option<usize> {
        let issuable = |i: usize| {
            slots
                .get(i)
                .and_then(|s| s.as_ref())
                .is_some_and(|w| w.issuable())
        };
        match self.policy {
            SchedulerPolicy::GreedyThenOldest => {
                if let Some(cur) = self.current {
                    if cur % stride == offset && issuable(cur) {
                        return Some(cur);
                    }
                }
                // Oldest = smallest launch sequence number.
                let pick = (offset..slots.len())
                    .step_by(stride)
                    .filter(|&i| issuable(i))
                    .min_by_key(|&i| slots[i].as_ref().expect("issuable").launch_seq);
                self.current = pick;
                pick
            }
            SchedulerPolicy::LooseRoundRobin => {
                let n = slots.len();
                if n == 0 {
                    return None;
                }
                let start = self.current.map_or(offset, |c| c + stride) % n;
                // This scheduler's slots are `offset + k * stride` for
                // `k < count`. Walk them once, wrapping, from the first
                // one at or after `start` (or the first one at all).
                let count = n.saturating_sub(offset).div_ceil(stride);
                let first = start.saturating_sub(offset).div_ceil(stride);
                let first = if first < count { first } else { 0 };
                let pick = (0..count)
                    .map(|k| offset + (first + k) % count * stride)
                    .find(|&i| issuable(i));
                if pick.is_some() {
                    self.current = pick;
                }
                pick
            }
        }
    }

    /// Forgets the greedy warp (e.g. when its slot is recycled).
    pub fn invalidate(&mut self, slot: usize) {
        if self.current == Some(slot) {
            self.current = None;
        }
    }

    /// Serializes the pick state for a checkpoint (the policy is
    /// config-derived and not captured).
    pub fn save_state(&self) -> Value {
        Value::obj(vec![(
            "current".into(),
            snapshot::opt_u64_value(self.current.map(|c| c as u64)),
        )])
    }

    /// Restores the pick state from [`save_state`].
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Malformed`] on a missing or mistyped field.
    ///
    /// [`save_state`]: Scheduler::save_state
    pub fn restore_state(&mut self, v: &Value) -> Result<(), SnapshotError> {
        self.current = snapshot::opt_u64_field(v, "current")?.map(|c| c as usize);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::CtaId;
    use crate::warp::WarpState;

    fn slot(seq: u64, ready: bool) -> Option<WarpSlot> {
        let mut w = WarpSlot::new(CtaId(0), 0, seq);
        if !ready {
            w.state = WarpState::Waiting;
        }
        Some(w)
    }

    #[test]
    fn gto_sticks_to_current_warp() {
        let mut s = Scheduler::new(SchedulerPolicy::GreedyThenOldest);
        let slots = vec![slot(5, true), slot(1, true), slot(2, true)];
        // First pick: oldest (seq 1) = slot 1.
        assert_eq!(s.pick(&slots, 0, 1), Some(1));
        // Stays greedy on slot 1 even though slot 2 is also ready.
        assert_eq!(s.pick(&slots, 0, 1), Some(1));
    }

    #[test]
    fn gto_falls_back_to_oldest_when_current_stalls() {
        let mut s = Scheduler::new(SchedulerPolicy::GreedyThenOldest);
        let mut slots = vec![slot(5, true), slot(1, true), slot(2, true)];
        assert_eq!(s.pick(&slots, 0, 1), Some(1));
        slots[1].as_mut().unwrap().state = WarpState::Waiting;
        // Oldest ready is seq 2 = slot 2.
        assert_eq!(s.pick(&slots, 0, 1), Some(2));
    }

    #[test]
    fn gto_respects_scheduler_partition() {
        let mut s = Scheduler::new(SchedulerPolicy::GreedyThenOldest);
        let slots = vec![slot(0, true), slot(1, true), slot(2, true), slot(3, true)];
        // Scheduler 1 of 2 only sees odd slots.
        assert_eq!(s.pick(&slots, 1, 2), Some(1));
    }

    #[test]
    fn gto_returns_none_when_nothing_ready() {
        let mut s = Scheduler::new(SchedulerPolicy::GreedyThenOldest);
        let slots = vec![slot(0, false), None];
        assert_eq!(s.pick(&slots, 0, 1), None);
    }

    #[test]
    fn lrr_rotates() {
        let mut s = Scheduler::new(SchedulerPolicy::LooseRoundRobin);
        let slots = vec![slot(0, true), slot(1, true), slot(2, true)];
        let a = s.pick(&slots, 0, 1).unwrap();
        let b = s.pick(&slots, 0, 1).unwrap();
        let c = s.pick(&slots, 0, 1).unwrap();
        let mut seen = vec![a, b, c];
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 2], "all warps get a turn");
    }

    #[test]
    fn lrr_walks_its_partition_from_after_the_last_pick() {
        // The reference walk: collect the partition, start at the first
        // slot at or after `current + stride` (mod n), wrap once.
        fn reference(
            slots: &[Option<WarpSlot>],
            current: Option<usize>,
            offset: usize,
            stride: usize,
        ) -> Option<usize> {
            let n = slots.len();
            let start = current.map_or(offset, |c| c + stride) % n;
            let mine: Vec<usize> = (offset..n).step_by(stride).collect();
            let begin = mine.iter().position(|&i| i >= start).unwrap_or(0);
            mine[begin..]
                .iter()
                .chain(&mine[..begin])
                .copied()
                .find(|&i| slots[i].as_ref().is_some_and(WarpSlot::issuable))
        }
        for n in 1..10usize {
            for stride in 1..4 {
                for offset in 0..stride {
                    for ready_mask in 0..(1u32 << n) {
                        let slots: Vec<_> = (0..n)
                            .map(|i| slot(i as u64, ready_mask & (1 << i) != 0))
                            .collect();
                        for current in std::iter::once(None).chain((0..n).map(Some)) {
                            let mut s = Scheduler::new(SchedulerPolicy::LooseRoundRobin);
                            s.current = current;
                            assert_eq!(
                                s.pick(&slots, offset, stride),
                                reference(&slots, current, offset, stride),
                                "n {n} stride {stride} offset {offset} \
                                 mask {ready_mask:b} current {current:?}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn invalidate_clears_greedy_warp() {
        let mut s = Scheduler::new(SchedulerPolicy::GreedyThenOldest);
        let slots = vec![slot(0, true), slot(1, true)];
        let first = s.pick(&slots, 0, 1).unwrap();
        s.invalidate(first);
        assert_eq!(s.current, None);
    }
}
