//! Intra-warp stride prefetcher (Lee et al. \[29\], §2): each thread
//! prefetches for the next iteration of the same load in the same
//! warp. Strong with deep loops, weak when loops are replaced by
//! parallelism — the limitation Snake's chains address.

use std::collections::HashMap;

use snake_sim::json::Value;
use snake_sim::snapshot::{self, SnapshotError};
use snake_sim::{
    AccessEvent, Address, KernelTrace, Pc, PrefetchContext, PrefetchRequest, Prefetcher, WarpId,
};

#[derive(Debug, Clone, Copy)]
struct StrideEntry {
    last_addr: Address,
    stride: i64,
    /// Consecutive confirmations of `stride`.
    confidence: u8,
    /// Insertion-order stamp for FIFO-ish replacement.
    stamp: u64,
}

/// Per-(warp, PC) stride table.
#[derive(Debug, Clone)]
pub struct IntraWarp {
    table: HashMap<(WarpId, Pc), StrideEntry>,
    capacity: usize,
    /// Prefetch distance in iterations once trained.
    degree: u32,
    seq: u64,
}

impl IntraWarp {
    /// Creates a prefetcher with a bounded `capacity`-entry table and
    /// the given prefetch `degree` (iterations ahead).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` or `degree` is zero.
    pub fn new(capacity: usize, degree: u32) -> Self {
        assert!(capacity > 0 && degree > 0);
        IntraWarp {
            table: HashMap::with_capacity(capacity),
            capacity,
            degree,
            seq: 0,
        }
    }

    fn evict_if_full(&mut self) {
        if self.table.len() >= self.capacity {
            if let Some(&key) = self
                .table
                .iter()
                .min_by_key(|(_, e)| e.stamp)
                .map(|(k, _)| k)
            {
                self.table.remove(&key);
            }
        }
    }
}

impl Default for IntraWarp {
    fn default() -> Self {
        // 64 entries: a hardware-credible per-SM stride table. With
        // many resident warps the (warp, PC) key space exceeds this,
        // which is part of why per-warp training scales worse than
        // Snake's shared, promoted chains.
        IntraWarp::new(64, 1)
    }
}

impl Prefetcher for IntraWarp {
    fn name(&self) -> &str {
        "intra-warp"
    }

    fn on_kernel_launch(&mut self, _trace: &KernelTrace) {
        self.table.clear();
        self.seq = 0;
    }

    fn on_demand_access(
        &mut self,
        event: &AccessEvent,
        _ctx: &PrefetchContext,
        out: &mut Vec<PrefetchRequest>,
    ) {
        self.seq += 1;
        let key = (event.warp, event.pc);
        let stamp = self.seq;
        match self.table.get_mut(&key) {
            Some(e) => {
                let observed = event.addr.stride_from(e.last_addr);
                if observed == e.stride && observed != 0 {
                    e.confidence = e.confidence.saturating_add(1);
                } else {
                    e.stride = observed;
                    e.confidence = 0;
                }
                e.last_addr = event.addr;
                e.stamp = stamp;
                if e.confidence >= 1 {
                    let stride = e.stride;
                    for k in 1..=i64::from(self.degree) {
                        out.push(PrefetchRequest::new(event.addr.offset(stride * k)));
                    }
                }
            }
            None => {
                self.evict_if_full();
                self.table.insert(
                    key,
                    StrideEntry {
                        last_addr: event.addr,
                        stride: 0,
                        confidence: 0,
                        stamp,
                    },
                );
            }
        }
    }

    /// The table, serialized sorted by `(warp, pc)` so equal state
    /// always produces byte-identical checkpoints despite the
    /// `HashMap`'s arbitrary iteration order.
    fn save_state(&self) -> Value {
        let mut rows: Vec<_> = self.table.iter().collect();
        rows.sort_by_key(|((w, pc), _)| (w.0, pc.0));
        let rows = rows
            .into_iter()
            .map(|((w, pc), e)| {
                Value::arr(vec![
                    Value::u64(u64::from(w.0)),
                    Value::u64(u64::from(pc.0)),
                    Value::u64(e.last_addr.raw()),
                    snapshot::i64_value(e.stride),
                    Value::u64(u64::from(e.confidence)),
                    Value::u64(e.stamp),
                ])
            })
            .collect();
        Value::obj(vec![
            ("table".into(), Value::Arr(rows)),
            ("seq".into(), Value::u64(self.seq)),
        ])
    }

    fn restore_state(&mut self, v: &Value) -> Result<(), SnapshotError> {
        let bad = || SnapshotError::malformed("intra-warp table row does not decode");
        let seq = snapshot::u64_field(v, "seq")?;
        let mut table = HashMap::with_capacity(self.capacity);
        for row in snapshot::arr_field(v, "table")? {
            let Some([w, pc, addr, stride, confidence, stamp]) = row.as_arr() else {
                return Err(bad());
            };
            table.insert(
                (
                    WarpId(w.as_u32().ok_or_else(bad)?),
                    Pc(pc.as_u32().ok_or_else(bad)?),
                ),
                StrideEntry {
                    last_addr: Address(addr.as_u64().ok_or_else(bad)?),
                    stride: stride.as_i64().ok_or_else(bad)?,
                    confidence: confidence
                        .as_u32()
                        .and_then(|c| u8::try_from(c).ok())
                        .ok_or_else(bad)?,
                    stamp: stamp.as_u64().ok_or_else(bad)?,
                },
            );
        }
        if table.len() > self.capacity {
            return Err(SnapshotError::malformed(
                "intra-warp checkpoint exceeds table capacity",
            ));
        }
        self.table = table;
        self.seq = seq;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snake_sim::{AccessOutcome, CtaId, Cycle, SmId};

    fn ev(warp: u32, pc: u32, addr: u64) -> AccessEvent {
        AccessEvent {
            sm: SmId(0),
            warp: WarpId(warp),
            cta: CtaId(0),
            pc: Pc(pc),
            addr: Address(addr),
            outcome: AccessOutcome::Miss,
            cycle: Cycle(0),
        }
    }

    fn ctx() -> PrefetchContext {
        PrefetchContext {
            cycle: Cycle(0),
            bw_utilization: 0.0,
            free_lines: 8,
            total_lines: 16,
            prefetch_overrun: false,
            telemetry: false,
        }
    }

    #[test]
    fn trains_after_two_consistent_strides() {
        let mut p = IntraWarp::default();
        let mut out = Vec::new();
        p.on_demand_access(&ev(0, 1, 0), &ctx(), &mut out);
        assert!(out.is_empty(), "cold");
        p.on_demand_access(&ev(0, 1, 128), &ctx(), &mut out);
        assert!(out.is_empty(), "first stride observation");
        p.on_demand_access(&ev(0, 1, 256), &ctx(), &mut out);
        assert_eq!(out, vec![PrefetchRequest::new(Address(384))]);
    }

    #[test]
    fn stride_change_retrains() {
        let mut p = IntraWarp::default();
        let mut out = Vec::new();
        for a in [0u64, 128, 256] {
            p.on_demand_access(&ev(0, 1, a), &ctx(), &mut out);
        }
        out.clear();
        p.on_demand_access(&ev(0, 1, 1000), &ctx(), &mut out);
        assert!(out.is_empty(), "broken stride must not prefetch");
    }

    #[test]
    fn warps_and_pcs_are_independent() {
        let mut p = IntraWarp::default();
        let mut out = Vec::new();
        for a in [0u64, 128, 256] {
            p.on_demand_access(&ev(0, 1, a), &ctx(), &mut out);
        }
        out.clear();
        // Different warp, same PC: untrained.
        p.on_demand_access(&ev(1, 1, 0), &ctx(), &mut out);
        assert!(out.is_empty());
        // Different PC, same warp: untrained.
        p.on_demand_access(&ev(0, 2, 0), &ctx(), &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn degree_extends_distance() {
        let mut p = IntraWarp::new(16, 3);
        let mut out = Vec::new();
        for a in [0u64, 128, 256] {
            out.clear();
            p.on_demand_access(&ev(0, 1, a), &ctx(), &mut out);
        }
        assert_eq!(
            out,
            vec![
                PrefetchRequest::new(Address(384)),
                PrefetchRequest::new(Address(512)),
                PrefetchRequest::new(Address(640)),
            ]
        );
    }

    #[test]
    fn capacity_bounds_table() {
        let mut p = IntraWarp::new(4, 1);
        let mut out = Vec::new();
        for pc in 0..16u32 {
            p.on_demand_access(&ev(0, pc, 0), &ctx(), &mut out);
        }
        assert!(p.table.len() <= 4);
    }
}
