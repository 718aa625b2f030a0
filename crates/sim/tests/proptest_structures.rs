//! Property-based tests for the simulator's core data structures:
//! tag array occupancy invariants, MSHR merge bounds, and interconnect
//! conservation/ordering.

use proptest::prelude::*;
use snake_sim::cache::mshr::{MergeResult, MissOrigin, MshrFile};
use snake_sim::cache::tag_array::{LineState, Side, TagArray};
use snake_sim::mem::interconnect::{Interconnect, UpPacket};
use snake_sim::{Cycle, LineAddr, SmId, WarpId};

#[derive(Debug, Clone)]
enum TagOp {
    /// Reserve-then-fill a line (if space allows).
    Install { addr: u64, prefetch: bool },
    /// Touch a line if present.
    Touch { addr: u64 },
    /// Evict the LRU line of the set if any is evictable.
    Evict { addr: u64 },
    /// Transfer a prefetch-side line to the demand side if present.
    Transfer { addr: u64 },
}

fn tag_op() -> impl Strategy<Value = TagOp> {
    prop_oneof![
        (0u64..64, any::<bool>()).prop_map(|(addr, prefetch)| TagOp::Install { addr, prefetch }),
        (0u64..64).prop_map(|addr| TagOp::Touch { addr }),
        (0u64..64).prop_map(|addr| TagOp::Evict { addr }),
        (0u64..64).prop_map(|addr| TagOp::Transfer { addr }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn tag_array_occupancy_invariants(ops in prop::collection::vec(tag_op(), 1..200)) {
        let mut t = TagArray::new(16, 4);
        let mut clock = 0u64;
        for op in ops {
            clock += 1;
            let now = Cycle(clock);
            match op {
                TagOp::Install { addr, prefetch } => {
                    let a = LineAddr(addr);
                    if t.probe(a).is_none() {
                        if let Some(w) = t.find_victim(a, |_| true) {
                            if t.line(w).state == LineState::Valid {
                                t.evict(w);
                            }
                            let side = if prefetch { Side::Prefetch } else { Side::Demand };
                            t.reserve(w, a, side, now);
                            t.fill(w, now);
                        }
                    }
                }
                TagOp::Touch { addr } => {
                    if let Some(w) = t.probe(LineAddr(addr)) {
                        t.touch(w, now);
                    }
                }
                TagOp::Evict { addr } => {
                    let a = LineAddr(addr);
                    if let Some(w) = t.probe(a) {
                        if t.line(w).state == LineState::Valid {
                            t.evict(w);
                        }
                    }
                }
                TagOp::Transfer { addr } => {
                    if let Some(w) = t.probe(LineAddr(addr)) {
                        let l = *t.line(w);
                        if l.state == LineState::Valid && l.side == Side::Prefetch {
                            t.transfer_to_demand(w, now);
                        }
                    }
                }
            }
            // Invariants after every operation.
            let occupied = t.capacity() - t.free_lines();
            prop_assert!(occupied <= t.capacity());
            prop_assert_eq!(t.demand_lines() + t.prefetch_lines() + t.reserved_lines(), occupied);
            prop_assert_eq!(t.iter_valid().count() as u32, t.demand_lines() + t.prefetch_lines());
            prop_assert_eq!(
                t.iter_valid().filter(|l| l.side == Side::Prefetch).count() as u32,
                t.prefetch_lines()
            );
        }
    }

    #[test]
    fn tag_array_probe_finds_installed_lines(addrs in prop::collection::vec(0u64..32, 1..16)) {
        let mut t = TagArray::new(32, 8);
        let mut installed = Vec::new();
        for (i, addr) in addrs.iter().enumerate() {
            let a = LineAddr(*addr);
            if t.probe(a).is_some() {
                continue;
            }
            if let Some(w) = t.find_victim(a, |_| true) {
                if t.line(w).state == LineState::Valid {
                    let evicted = t.evict(w);
                    installed.retain(|x| *x != evicted.tag);
                }
                t.reserve(w, a, Side::Demand, Cycle(i as u64));
                t.fill(w, Cycle(i as u64));
                installed.push(a);
            }
        }
        for a in installed {
            prop_assert!(t.probe(a).is_some(), "installed line {a} must be found");
        }
    }

    #[test]
    fn mshr_never_exceeds_capacity_or_merge_bound(
        lines in prop::collection::vec(0u64..8, 1..100),
        entries in 1u32..8,
        merge in 1u32..8,
    ) {
        let mut m = MshrFile::new(entries, merge);
        let mut outstanding: Vec<u64> = Vec::new();
        for (i, line) in lines.iter().enumerate() {
            let a = LineAddr(*line);
            if m.get(a).is_some() {
                match m.merge_demand(a, WarpId(i as u32)) {
                    MergeResult::Merged { .. } => {
                        prop_assert!(m.get(a).unwrap().requests <= merge);
                    }
                    MergeResult::Full => {
                        prop_assert_eq!(m.get(a).unwrap().requests, merge);
                    }
                }
            } else if m.has_free_entry() {
                m.allocate(a, MissOrigin::Demand, Some(WarpId(i as u32)), Cycle(i as u64));
                outstanding.push(*line);
            }
            prop_assert!(m.len() <= entries as usize);
        }
        // Completing everything empties the file.
        outstanding.sort_unstable();
        outstanding.dedup();
        for line in outstanding {
            let e = m.complete(LineAddr(line));
            prop_assert!(e.requests >= 1);
            prop_assert!(e.waiters <= merge);
            prop_assert_eq!(m.completed_waiters().len(), e.waiters as usize);
        }
        prop_assert!(m.is_empty());
    }

    #[test]
    fn interconnect_conserves_and_orders_packets(
        sizes in prop::collection::vec(1u64..200, 1..64),
        budget in 16u32..256,
        latency in 1u32..16,
    ) {
        let mut n = Interconnect::new(budget, latency, 64);
        let mut sent = Vec::new();
        let mut received = Vec::new();
        let mut cycle = 0u64;
        let mut queue: Vec<(u64, u64)> = sizes.iter().enumerate()
            .map(|(i, s)| (i as u64, *s)).collect();
        queue.reverse();
        let mut bytes_sent = 0u64;
        while received.len() < sizes.len() {
            n.begin_cycle(Cycle(cycle));
            while let Some(&(id, bytes)) = queue.last() {
                let pkt = UpPacket { sm: SmId(0), line: LineAddr(id), is_store: false };
                if n.try_send_up(pkt, bytes, Cycle(cycle)) {
                    queue.pop();
                    sent.push(id);
                    bytes_sent += bytes;
                } else {
                    break;
                }
            }
            while let Some(p) = n.pop_up(Cycle(cycle)) {
                received.push(p.line.0);
            }
            cycle += 1;
            prop_assert!(cycle < 1_000_000, "must drain");
        }
        prop_assert_eq!(&received, &sent, "FIFO order, no loss");
        prop_assert_eq!(n.total_bytes_up(), bytes_sent);
        prop_assert!(n.is_idle());
        // Token-bucket borrowing allows short-run overshoot, so
        // lifetime utilization is only meaningful on long runs; it must
        // simply be finite and non-negative here.
        prop_assert!(n.lifetime_utilization() >= 0.0);
    }
}
