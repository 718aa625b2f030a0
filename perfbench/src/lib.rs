//! Measurement pieces of the `perfbench` benchmark that tests can use
//! on their own.
//!
//! The benchmark measures the simulator from outside: it only times
//! calls into public functions. The one place it has to sit *inside* a
//! run is the prefetcher, because the simulator calls it per demand
//! access. [`TimedPrefetcher`] does that by wrapping the mechanism and
//! delegating every trait method, so a wrapped run is byte-identical
//! to an unwrapped one.

use std::cell::Cell;
use std::rc::Rc;
use std::time::Instant;

use snake_sim::json::Value;
use snake_sim::{
    AccessEvent, Cycle, KernelTrace, PrefetchContext, PrefetchPlacement, PrefetchRequest,
    Prefetcher, PrefetcherEvent, SnapshotError,
};

/// Calls and host time of one job's prefetchers, shared by the
/// wrappers on every SM of the device.
#[derive(Debug, Default)]
pub struct PrefetchTally {
    calls: Cell<u64>,
    nanos: Cell<u64>,
}

impl PrefetchTally {
    /// `on_demand_access` calls made so far.
    pub fn calls(&self) -> u64 {
        self.calls.get()
    }

    /// Host nanoseconds spent inside those calls, including one clock
    /// read per call.
    pub fn nanos(&self) -> u64 {
        self.nanos.get()
    }
}

/// A [`Prefetcher`] that delegates every method to the wrapped
/// mechanism and times `on_demand_access`, the per-access entry point.
pub struct TimedPrefetcher {
    inner: Box<dyn Prefetcher>,
    tally: Rc<PrefetchTally>,
}

impl TimedPrefetcher {
    /// Wraps `inner`, charging its calls to `tally`.
    pub fn new(inner: Box<dyn Prefetcher>, tally: Rc<PrefetchTally>) -> Self {
        TimedPrefetcher { inner, tally }
    }
}

impl Prefetcher for TimedPrefetcher {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn placement(&self) -> PrefetchPlacement {
        self.inner.placement()
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
        let start = Instant::now();
        self.inner.on_demand_access(event, ctx, out);
        let nanos = start.elapsed().as_nanos() as u64;
        self.tally.calls.set(self.tally.calls.get() + 1);
        self.tally.nanos.set(self.tally.nanos.get() + nanos);
    }

    fn throttled(&self, now: Cycle) -> bool {
        self.inner.throttled(now)
    }

    fn trained(&self) -> bool {
        self.inner.trained()
    }

    fn chain_depth(&self) -> u32 {
        self.inner.chain_depth()
    }

    fn drain_events(&mut self, out: &mut Vec<PrefetcherEvent>) {
        self.inner.drain_events(out);
    }

    fn save_state(&self) -> Value {
        self.inner.save_state()
    }

    fn restore_state(&mut self, v: &Value) -> Result<(), SnapshotError> {
        self.inner.restore_state(v)
    }
}
