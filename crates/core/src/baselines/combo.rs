//! Composition helpers: `Snake+CTA` (§4, comparison point 9 — the two
//! mechanisms are orthogonal) and a placement override used to build
//! the "decoupled versions of competitors" discussed with Fig 18.

use snake_sim::json::Value;
use snake_sim::snapshot::{self, SnapshotError};
use snake_sim::{
    AccessEvent, KernelTrace, PrefetchContext, PrefetchPlacement, PrefetchRequest, Prefetcher,
};

/// Runs two prefetchers side by side, merging their requests
/// (first prefetcher's targets take priority; duplicates removed).
pub struct Combined {
    name: String,
    first: Box<dyn Prefetcher>,
    second: Box<dyn Prefetcher>,
    placement: PrefetchPlacement,
}

impl std::fmt::Debug for Combined {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Combined")
            .field("name", &self.name)
            .finish()
    }
}

impl Combined {
    /// Combines two mechanisms under `name`, storing prefetches per
    /// `placement`.
    pub fn new(
        name: impl Into<String>,
        first: Box<dyn Prefetcher>,
        second: Box<dyn Prefetcher>,
        placement: PrefetchPlacement,
    ) -> Self {
        Combined {
            name: name.into(),
            first,
            second,
            placement,
        }
    }
}

impl Prefetcher for Combined {
    fn name(&self) -> &str {
        &self.name
    }

    fn placement(&self) -> PrefetchPlacement {
        self.placement
    }

    fn on_kernel_launch(&mut self, trace: &KernelTrace) {
        self.first.on_kernel_launch(trace);
        self.second.on_kernel_launch(trace);
    }

    fn on_demand_access(
        &mut self,
        event: &AccessEvent,
        ctx: &PrefetchContext,
        out: &mut Vec<PrefetchRequest>,
    ) {
        self.first.on_demand_access(event, ctx, out);
        self.second.on_demand_access(event, ctx, out);
        // Stable dedup preserving first-mechanism priority.
        let mut seen = Vec::with_capacity(out.len());
        out.retain(|r| {
            if seen.contains(&r.addr) {
                false
            } else {
                seen.push(r.addr);
                true
            }
        });
    }

    fn throttled(&self, now: snake_sim::Cycle) -> bool {
        self.first.throttled(now) || self.second.throttled(now)
    }

    fn trained(&self) -> bool {
        self.first.trained() || self.second.trained()
    }

    fn save_state(&self) -> Value {
        Value::obj(vec![
            ("first".into(), self.first.save_state()),
            ("second".into(), self.second.save_state()),
        ])
    }

    fn restore_state(&mut self, v: &Value) -> Result<(), SnapshotError> {
        self.first.restore_state(snapshot::field(v, "first")?)?;
        self.second.restore_state(snapshot::field(v, "second")?)
    }
}

/// Overrides the storage placement of an inner mechanism (e.g. a
/// decoupled MTA).
pub struct WithPlacement {
    inner: Box<dyn Prefetcher>,
    placement: PrefetchPlacement,
    name: String,
}

impl std::fmt::Debug for WithPlacement {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WithPlacement")
            .field("name", &self.name)
            .finish()
    }
}

impl WithPlacement {
    /// Wraps `inner`, storing its prefetches per `placement`. The
    /// reported name gains a `+dec`/`+iso` suffix.
    pub fn new(inner: Box<dyn Prefetcher>, placement: PrefetchPlacement) -> Self {
        let suffix = match placement {
            PrefetchPlacement::Decoupled => "+dec",
            PrefetchPlacement::PlainL1 => "",
            PrefetchPlacement::Isolated { .. } => "+iso",
        };
        let name = format!("{}{suffix}", inner.name());
        WithPlacement {
            inner,
            placement,
            name,
        }
    }
}

impl Prefetcher for WithPlacement {
    fn name(&self) -> &str {
        &self.name
    }

    fn placement(&self) -> PrefetchPlacement {
        self.placement
    }

    fn on_kernel_launch(&mut self, trace: &KernelTrace) {
        self.inner.on_kernel_launch(trace);
    }

    fn on_demand_access(
        &mut self,
        event: &AccessEvent,
        ctx: &PrefetchContext,
        out: &mut Vec<PrefetchRequest>,
    ) {
        self.inner.on_demand_access(event, ctx, out);
    }

    fn throttled(&self, now: snake_sim::Cycle) -> bool {
        self.inner.throttled(now)
    }

    fn trained(&self) -> bool {
        self.inner.trained()
    }

    fn save_state(&self) -> Value {
        self.inner.save_state()
    }

    fn restore_state(&mut self, v: &Value) -> Result<(), SnapshotError> {
        self.inner.restore_state(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::cta_aware::CtaAware;
    use crate::snake::{Snake, SnakeConfig};
    use snake_sim::{AccessOutcome, Address, CtaId, Cycle, Pc, SmId, WarpId};

    fn ev(cta: u32, warp: u32, pc: u32, addr: u64) -> AccessEvent {
        AccessEvent {
            sm: SmId(0),
            warp: WarpId(warp),
            cta: CtaId(cta),
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

    fn snake_cta() -> Combined {
        Combined::new(
            "snake+cta",
            Box::new(Snake::new(SnakeConfig::snake())),
            Box::new(CtaAware::default()),
            PrefetchPlacement::Decoupled,
        )
    }

    #[test]
    fn combined_merges_and_dedups() {
        let mut p = snake_cta();
        let mut out = Vec::new();
        // Train the CTA-aware half.
        for c in 0..3u32 {
            out.clear();
            p.on_demand_access(&ev(c, c, 1, 65_536 * u64::from(c)), &ctx(), &mut out);
        }
        assert!(
            out.iter().any(|r| r.addr == Address(3 * 65_536)),
            "CTA half contributes"
        );
        let mut addrs: Vec<_> = out.iter().map(|r| r.addr).collect();
        let n = addrs.len();
        addrs.dedup();
        assert_eq!(n, addrs.len());
    }

    #[test]
    fn combined_reports_placement_and_name() {
        let p = snake_cta();
        assert_eq!(p.name(), "snake+cta");
        assert_eq!(p.placement(), PrefetchPlacement::Decoupled);
    }

    #[test]
    fn with_placement_overrides_and_renames() {
        let p = WithPlacement::new(
            Box::new(crate::baselines::mta::Mta::default()),
            PrefetchPlacement::Decoupled,
        );
        assert_eq!(p.name(), "mta+dec");
        assert_eq!(p.placement(), PrefetchPlacement::Decoupled);
    }
}
