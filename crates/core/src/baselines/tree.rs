//! Spatial chunk prefetcher (Ganguly et al. \[15\], adapted to the GPU
//! context as in §4: "considers 64KB chunks of the global memory and
//! prefetches them to the L1 data cache"). On demand misses it streams
//! the following lines of the surrounding chunk — aggressive, high
//! traffic, and inaccurate on irregular applications, which is exactly
//! the behaviour the paper contrasts Snake against.

use std::collections::HashMap;

use snake_sim::json::Value;
use snake_sim::snapshot::{self, SnapshotError};
use snake_sim::{
    AccessEvent, AccessOutcome, Address, KernelTrace, PrefetchContext, PrefetchRequest, Prefetcher,
};

/// The chunk-based spatial prefetcher.
#[derive(Debug, Clone)]
pub struct Tree {
    /// Chunk size in bytes (64 KiB in the paper's adaptation).
    chunk_bytes: u64,
    /// Line size used to pace sequential prefetches.
    line_bytes: u64,
    /// Lines prefetched ahead per trigger.
    degree: u32,
    /// High-water mark per chunk so the same lines are not re-requested
    /// (bounded map, FIFO replacement).
    frontier: HashMap<u64, u64>,
    order: Vec<u64>,
    capacity: usize,
}

impl Tree {
    /// Creates the prefetcher.
    ///
    /// # Panics
    ///
    /// Panics if the chunk is not a multiple of the line size or any
    /// parameter is zero.
    pub fn new(chunk_bytes: u64, line_bytes: u64, degree: u32, capacity: usize) -> Self {
        assert!(chunk_bytes > 0 && line_bytes > 0 && degree > 0 && capacity > 0);
        assert_eq!(chunk_bytes % line_bytes, 0);
        Tree {
            chunk_bytes,
            line_bytes,
            degree,
            frontier: HashMap::with_capacity(capacity),
            order: Vec::new(),
            capacity,
        }
    }
}

impl Default for Tree {
    fn default() -> Self {
        Tree::new(64 * 1024, 128, 4, 64)
    }
}

impl Prefetcher for Tree {
    fn name(&self) -> &str {
        "tree"
    }

    fn on_kernel_launch(&mut self, _trace: &KernelTrace) {
        self.frontier.clear();
        self.order.clear();
    }

    fn on_demand_access(
        &mut self,
        event: &AccessEvent,
        _ctx: &PrefetchContext,
        out: &mut Vec<PrefetchRequest>,
    ) {
        if event.outcome == AccessOutcome::Hit {
            return; // stream on misses and prefetch hits only
        }
        let chunk = event.addr.raw() / self.chunk_bytes;
        let chunk_end = (chunk + 1) * self.chunk_bytes;
        if !self.frontier.contains_key(&chunk) {
            if self.frontier.len() >= self.capacity {
                let oldest = self.order.remove(0);
                self.frontier.remove(&oldest);
            }
            self.order.push(chunk);
            self.frontier.insert(chunk, event.addr.raw());
        }
        let frontier = self.frontier.get_mut(&chunk).expect("just inserted");
        // Advance the frontier from max(current access, old frontier).
        let mut next =
            (*frontier).max(event.addr.raw()) / self.line_bytes * self.line_bytes + self.line_bytes;
        for _ in 0..self.degree {
            if next >= chunk_end {
                break;
            }
            out.push(PrefetchRequest::new(Address(next)));
            next += self.line_bytes;
        }
        *frontier = next.saturating_sub(self.line_bytes);
    }

    /// Chunks serialized in FIFO (`order`) sequence — `order` and the
    /// frontier map always hold the same keys, so one array captures
    /// both, deterministically.
    fn save_state(&self) -> Value {
        let chunks = self
            .order
            .iter()
            .map(|chunk| {
                let frontier = self.frontier.get(chunk).copied().unwrap_or(0);
                Value::arr(vec![Value::u64(*chunk), Value::u64(frontier)])
            })
            .collect();
        Value::obj(vec![("chunks".into(), Value::Arr(chunks))])
    }

    fn restore_state(&mut self, v: &Value) -> Result<(), SnapshotError> {
        let bad = || SnapshotError::malformed("tree chunk row does not decode");
        let mut frontier = HashMap::with_capacity(self.capacity);
        let mut order = Vec::new();
        for row in snapshot::arr_field(v, "chunks")? {
            let Some([chunk, front]) = row.as_arr() else {
                return Err(bad());
            };
            let chunk = chunk.as_u64().ok_or_else(bad)?;
            frontier.insert(chunk, front.as_u64().ok_or_else(bad)?);
            order.push(chunk);
        }
        if order.len() > self.capacity {
            return Err(SnapshotError::malformed(
                "tree checkpoint exceeds chunk capacity",
            ));
        }
        self.frontier = frontier;
        self.order = order;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snake_sim::{CtaId, Cycle, Pc, SmId, WarpId};

    fn ev(addr: u64, outcome: AccessOutcome) -> AccessEvent {
        AccessEvent {
            sm: SmId(0),
            warp: WarpId(0),
            cta: CtaId(0),
            pc: Pc(0),
            addr: Address(addr),
            outcome,
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
    fn miss_streams_following_lines() {
        let mut p = Tree::default();
        let mut out = Vec::new();
        p.on_demand_access(&ev(0, AccessOutcome::Miss), &ctx(), &mut out);
        assert_eq!(
            out.iter().map(|r| r.addr.0).collect::<Vec<_>>(),
            vec![128, 256, 384, 512]
        );
    }

    #[test]
    fn frontier_advances_without_rerequesting() {
        let mut p = Tree::default();
        let mut out = Vec::new();
        p.on_demand_access(&ev(0, AccessOutcome::Miss), &ctx(), &mut out);
        out.clear();
        p.on_demand_access(&ev(128, AccessOutcome::Miss), &ctx(), &mut out);
        assert_eq!(
            out.iter().map(|r| r.addr.0).collect::<Vec<_>>(),
            vec![640, 768, 896, 1024],
            "continues past the old frontier"
        );
    }

    #[test]
    fn stops_at_chunk_boundary() {
        let mut p = Tree::default();
        let mut out = Vec::new();
        let near_end = 64 * 1024 - 256;
        p.on_demand_access(&ev(near_end, AccessOutcome::Miss), &ctx(), &mut out);
        assert_eq!(
            out.iter().map(|r| r.addr.0).collect::<Vec<_>>(),
            vec![64 * 1024 - 128],
            "must not cross into the next 64KB chunk"
        );
    }

    #[test]
    fn hits_do_not_trigger() {
        let mut p = Tree::default();
        let mut out = Vec::new();
        p.on_demand_access(&ev(0, AccessOutcome::Hit), &ctx(), &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn chunk_state_is_bounded() {
        let mut p = Tree::new(64 * 1024, 128, 1, 2);
        let mut out = Vec::new();
        for c in 0..5u64 {
            p.on_demand_access(&ev(c * 64 * 1024, AccessOutcome::Miss), &ctx(), &mut out);
        }
        assert!(p.frontier.len() <= 2);
    }
}
