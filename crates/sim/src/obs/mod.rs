//! Cycle-resolved observability: typed trace events, windowed
//! time-series metrics, and latency histograms.
//!
//! The simulator's aggregate [`SimStats`](crate::SimStats) answer "how
//! much"; this module answers "when". Components buffer cycle-stamped
//! [`TraceEvent`]s only while a [`TraceSink`] is attached (see
//! [`Gpu::attach_sink`](crate::Gpu::attach_sink)) — the disabled path
//! is a single `Option` branch per emission site, so tracing is
//! zero-cost when off. Three layers:
//!
//! - **Events** ([`SimEvent`]): every state transition worth seeing on
//!   a timeline — warp issue/stall/unstall, L1 outcomes, MSHR
//!   allocate/merge/fill, NoC enqueue/dequeue, throttle halt/resume,
//!   the full prefetch lifecycle, Snake chain walks, injected faults,
//!   and a terminal event describing how the run ended.
//! - **Windowed metrics** ([`windowed`]): per-N-cycle samples of IPC,
//!   hit rate, occupancies, NoC utilization, throttle state and chain
//!   depth, collected into [`SimOutcome`](crate::SimOutcome).
//! - **Lifecycle histograms** ([`hist`]): issue→fill, fill→first-use
//!   and lifetime-of-unused distributions with p50/p90/p99.
//!
//! Exporters: [`chrome::chrome_trace`] renders events as Chrome
//! trace-event JSON (loadable in Perfetto / `chrome://tracing`),
//! [`windowed::MetricsSeries::to_csv`] dumps the time series, and
//! [`windowed::MetricsSeries::ascii_timeline`] draws a terminal
//! timeline of throttle state and hit rate.

pub mod chrome;
pub mod hist;
pub mod ring;
pub mod windowed;

pub use chrome::{chrome_trace, chrome_trace_to};
pub use hist::{LatencyHistogram, PrefetchLifecycle, HISTOGRAM_BUCKETS};
pub use ring::{Drained, Ring, RingSink, Subscription, TelemetryRecord, TelemetryRing};
pub use windowed::{MetricsSample, MetricsSeries, WindowTotals, WindowedMetrics};

use crate::stats::AccessOutcome;
use crate::types::{Address, Cycle, LineAddr, Pc, SmId, WarpId};

/// Direction of travel on the interconnect.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NocDir {
    /// L1 → L2 (requests and stores).
    Up,
    /// L2 → L1 (fill responses).
    Down,
}

impl NocDir {
    /// Lower-case label used by the exporters.
    pub fn label(self) -> &'static str {
        match self {
            NocDir::Up => "up",
            NocDir::Down => "down",
        }
    }
}

/// Why a prefetch candidate emitted by the mechanism was not issued.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrefetchDropReason {
    /// The line was already present or already in flight.
    Redundant,
    /// The L1 refused it: MSHR/miss-queue full or no evictable way.
    Rejected,
}

impl PrefetchDropReason {
    /// Lower-case label used by the exporters.
    pub fn label(self) -> &'static str {
        match self {
            PrefetchDropReason::Redundant => "redundant",
            PrefetchDropReason::Rejected => "rejected",
        }
    }
}

/// Why a Snake chain walk stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalkStop {
    /// No tail-table entry to continue the chain.
    NoEntry,
    /// The throttle-controlled depth limit was reached.
    DepthLimit,
    /// The throttle suppressed the walk entirely.
    Throttled,
}

impl WalkStop {
    /// Lower-case label used by the exporters.
    pub fn label(self) -> &'static str {
        match self {
            WalkStop::NoEntry => "no_entry",
            WalkStop::DepthLimit => "depth_limit",
            WalkStop::Throttled => "throttled",
        }
    }
}

/// Kind of injected memory-response fault (mirrors the fault model in
/// [`crate::fault`]; brownouts are reported separately as
/// [`SimEvent::Brownout`] transitions).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Response silently dropped.
    Drop,
    /// Response delivered twice.
    Duplicate,
    /// Response delayed by extra cycles.
    Delay,
}

impl FaultKind {
    /// Lower-case label used by the exporters.
    pub fn label(self) -> &'static str {
        match self {
            FaultKind::Drop => "drop",
            FaultKind::Duplicate => "duplicate",
            FaultKind::Delay => "delay",
        }
    }
}

/// How the simulated run ended (the last event of every trace).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TerminalKind {
    /// All CTAs retired and the memory system drained.
    Completed,
    /// The configured `max_cycles` safety net ran out.
    CycleLimit,
    /// The supervisor-imposed `cycle_budget` ran out: a planned
    /// truncation, not a runaway; the detail names the budget.
    BudgetExceeded,
    /// The watchdog tripped; the detail carries the deadlock census.
    Deadlock,
    /// The invariant auditor found violations; the detail lists them.
    AuditFail,
}

impl TerminalKind {
    /// Lower-case label used by the exporters.
    pub fn label(self) -> &'static str {
        match self {
            TerminalKind::Completed => "completed",
            TerminalKind::CycleLimit => "cycle_limit",
            TerminalKind::BudgetExceeded => "budget_exceeded",
            TerminalKind::Deadlock => "deadlock",
            TerminalKind::AuditFail => "audit_fail",
        }
    }
}

/// One typed simulator event. Every variant carries enough payload to
/// be useful on a timeline without a join against other streams.
#[derive(Debug, Clone, PartialEq)]
pub enum SimEvent {
    /// A warp issued an instruction.
    WarpIssue {
        /// SM the warp runs on.
        sm: SmId,
        /// SM-local warp id (trace index).
        warp: WarpId,
    },
    /// A warp blocked waiting on outstanding memory responses.
    WarpStall {
        /// SM the warp runs on.
        sm: SmId,
        /// SM-local warp id (trace index).
        warp: WarpId,
    },
    /// A previously stalled warp became issuable again.
    WarpUnstall {
        /// SM the warp runs on.
        sm: SmId,
        /// SM-local warp id (trace index).
        warp: WarpId,
    },
    /// A demand access was classified by the L1.
    L1Access {
        /// SM owning the L1.
        sm: SmId,
        /// Warp that executed the load.
        warp: WarpId,
        /// Accessed line.
        line: LineAddr,
        /// Hit / miss / reservation-fail classification.
        outcome: AccessOutcome,
    },
    /// A new MSHR entry was allocated for a miss.
    MshrAllocate {
        /// SM owning the MSHR file.
        sm: SmId,
        /// Missing line.
        line: LineAddr,
        /// Whether the allocation is for a prefetch (vs a demand miss).
        prefetch: bool,
    },
    /// A demand miss merged into an existing MSHR entry.
    MshrMerge {
        /// SM owning the MSHR file.
        sm: SmId,
        /// Line already in flight.
        line: LineAddr,
        /// Warp that merged.
        warp: WarpId,
    },
    /// A fill response completed an MSHR entry.
    MshrFill {
        /// SM owning the MSHR file.
        sm: SmId,
        /// Filled line.
        line: LineAddr,
        /// Warps that were waiting on the entry.
        waiters: u32,
    },
    /// A packet was accepted by the interconnect.
    NocEnqueue {
        /// Travel direction.
        dir: NocDir,
        /// SM endpoint of the packet.
        sm: SmId,
        /// Line the packet concerns.
        line: LineAddr,
        /// Bytes charged against the bandwidth budget.
        bytes: u64,
    },
    /// A packet left the interconnect after its latency.
    NocDequeue {
        /// Travel direction.
        dir: NocDir,
        /// SM endpoint of the packet.
        sm: SmId,
        /// Line the packet concerns.
        line: LineAddr,
    },
    /// The prefetch throttle engaged on an SM (bandwidth ≥ halt
    /// threshold, or a space overrun).
    ThrottleHalt {
        /// SM whose prefetcher halted.
        sm: SmId,
        /// NoC utilization at the transition.
        bw_utilization: f64,
    },
    /// The prefetch throttle released on an SM.
    ThrottleResume {
        /// SM whose prefetcher resumed.
        sm: SmId,
        /// NoC utilization at the transition.
        bw_utilization: f64,
    },
    /// A prefetch was accepted by the L1 and sent to memory.
    PrefetchIssued {
        /// Issuing SM.
        sm: SmId,
        /// Prefetched line.
        line: LineAddr,
    },
    /// A prefetch candidate was discarded.
    PrefetchDropped {
        /// Issuing SM.
        sm: SmId,
        /// Candidate line.
        line: LineAddr,
        /// Why it was discarded.
        reason: PrefetchDropReason,
    },
    /// A prefetch fill arrived in the L1.
    PrefetchFilled {
        /// Owning SM.
        sm: SmId,
        /// Filled line.
        line: LineAddr,
        /// Cycles from issue to fill.
        latency: u64,
    },
    /// A demand access touched a prefetched line for the first time.
    PrefetchFirstUse {
        /// Owning SM.
        sm: SmId,
        /// Used line.
        line: LineAddr,
        /// Cycles from fill to first use (timeliness).
        latency: u64,
    },
    /// A prefetched line was evicted without ever being used.
    PrefetchEvictedUnused {
        /// Owning SM.
        sm: SmId,
        /// Evicted line.
        line: LineAddr,
        /// Cycles the dead line occupied SRAM.
        lifetime: u64,
    },
    /// A Snake chain walk started from a trigger access.
    ChainWalkStart {
        /// SM running the walk.
        sm: SmId,
        /// Triggering warp.
        warp: WarpId,
        /// Load PC indexing the head table.
        pc: Pc,
    },
    /// One step of a chain walk emitted a target.
    ChainWalkStep {
        /// SM running the walk.
        sm: SmId,
        /// 1-based step depth.
        depth: u32,
        /// Target address of the step.
        addr: Address,
    },
    /// A chain walk stopped.
    ChainWalkStop {
        /// SM running the walk.
        sm: SmId,
        /// Steps completed before stopping.
        steps: u32,
        /// Why the walk stopped.
        reason: WalkStop,
    },
    /// The fault injector perturbed a memory response.
    FaultInjected {
        /// Fault kind.
        kind: FaultKind,
        /// SM the response was headed to.
        sm: SmId,
        /// Line of the response.
        line: LineAddr,
    },
    /// A NoC brownout began (`active: true`) or ended (`active:
    /// false`).
    Brownout {
        /// Whether degraded bandwidth is now in effect.
        active: bool,
    },
    /// A checkpoint artifact was written durably to disk (emitted by
    /// [`Gpu::save_checkpoint`](crate::Gpu::save_checkpoint) right
    /// after the atomic rename lands).
    CheckpointSaved {
        /// Size of the serialized artifact in bytes.
        bytes: u64,
    },
    /// The device state was restored from a checkpoint (emitted by
    /// [`Gpu::restore`](crate::Gpu::restore) once the whole state has
    /// been applied). The stamped cycle is the restored cycle.
    Restored {
        /// Config/workload fingerprint of the applied checkpoint.
        fingerprint: u64,
    },
    /// The run ended. Always the last event of a trace.
    Terminal {
        /// How it ended.
        kind: TerminalKind,
        /// Human-readable detail (deadlock census, audit violations,
        /// or empty).
        detail: String,
    },
}

impl SimEvent {
    /// Stable event name used by the exporters (matches the variant).
    pub fn name(&self) -> &'static str {
        match self {
            SimEvent::WarpIssue { .. } => "WarpIssue",
            SimEvent::WarpStall { .. } => "WarpStall",
            SimEvent::WarpUnstall { .. } => "WarpUnstall",
            SimEvent::L1Access { .. } => "L1Access",
            SimEvent::MshrAllocate { .. } => "MshrAllocate",
            SimEvent::MshrMerge { .. } => "MshrMerge",
            SimEvent::MshrFill { .. } => "MshrFill",
            SimEvent::NocEnqueue { .. } => "NocEnqueue",
            SimEvent::NocDequeue { .. } => "NocDequeue",
            SimEvent::ThrottleHalt { .. } => "ThrottleHalt",
            SimEvent::ThrottleResume { .. } => "ThrottleResume",
            SimEvent::PrefetchIssued { .. } => "PrefetchIssued",
            SimEvent::PrefetchDropped { .. } => "PrefetchDropped",
            SimEvent::PrefetchFilled { .. } => "PrefetchFilled",
            SimEvent::PrefetchFirstUse { .. } => "PrefetchFirstUse",
            SimEvent::PrefetchEvictedUnused { .. } => "PrefetchEvictedUnused",
            SimEvent::ChainWalkStart { .. } => "ChainWalkStart",
            SimEvent::ChainWalkStep { .. } => "ChainWalkStep",
            SimEvent::ChainWalkStop { .. } => "ChainWalkStop",
            SimEvent::FaultInjected { .. } => "FaultInjected",
            SimEvent::Brownout { .. } => "Brownout",
            SimEvent::CheckpointSaved { .. } => "CheckpointSaved",
            SimEvent::Restored { .. } => "Restored",
            SimEvent::Terminal { .. } => "Terminal",
        }
    }

    /// SM the event is attributed to, if any (drives the Chrome trace
    /// `tid`; device-wide events go to a dedicated track).
    pub fn sm(&self) -> Option<SmId> {
        match self {
            SimEvent::WarpIssue { sm, .. }
            | SimEvent::WarpStall { sm, .. }
            | SimEvent::WarpUnstall { sm, .. }
            | SimEvent::L1Access { sm, .. }
            | SimEvent::MshrAllocate { sm, .. }
            | SimEvent::MshrMerge { sm, .. }
            | SimEvent::MshrFill { sm, .. }
            | SimEvent::NocEnqueue { sm, .. }
            | SimEvent::NocDequeue { sm, .. }
            | SimEvent::ThrottleHalt { sm, .. }
            | SimEvent::ThrottleResume { sm, .. }
            | SimEvent::PrefetchIssued { sm, .. }
            | SimEvent::PrefetchDropped { sm, .. }
            | SimEvent::PrefetchFilled { sm, .. }
            | SimEvent::PrefetchFirstUse { sm, .. }
            | SimEvent::PrefetchEvictedUnused { sm, .. }
            | SimEvent::ChainWalkStart { sm, .. }
            | SimEvent::ChainWalkStep { sm, .. }
            | SimEvent::ChainWalkStop { sm, .. }
            | SimEvent::FaultInjected { sm, .. } => Some(*sm),
            SimEvent::Brownout { .. }
            | SimEvent::CheckpointSaved { .. }
            | SimEvent::Restored { .. }
            | SimEvent::Terminal { .. } => None,
        }
    }
}

/// A cycle-stamped [`SimEvent`].
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Cycle the event happened in.
    pub cycle: Cycle,
    /// What happened.
    pub data: SimEvent,
}

/// Consumer of the event stream.
///
/// The GPU drains component buffers into the sink once per cycle, in a
/// deterministic order (SMs by id, then NoC, then partition, then
/// device-level events), so two runs of the same seeded workload
/// produce byte-identical streams. Object-safe: the GPU stores a
/// `Box<dyn TraceSink>`.
pub trait TraceSink {
    /// Receives one event. Events arrive in nondecreasing cycle order
    /// per component, and components are drained in a fixed order
    /// within each cycle.
    fn record(&mut self, event: &TraceEvent);
}

/// The trivial sink: collects every event into a `Vec`.
///
/// # Examples
///
/// ```
/// use snake_sim::obs::{SimEvent, TraceEvent, TraceSink, VecSink};
/// use snake_sim::Cycle;
/// let mut sink = VecSink::default();
/// sink.record(&TraceEvent {
///     cycle: Cycle(3),
///     data: SimEvent::Brownout { active: true },
/// });
/// assert_eq!(sink.events.len(), 1);
/// ```
#[derive(Debug, Default)]
pub struct VecSink {
    /// Everything recorded so far, in arrival order.
    pub events: Vec<TraceEvent>,
}

impl TraceSink for VecSink {
    fn record(&mut self, event: &TraceEvent) {
        self.events.push(event.clone());
    }
}

/// A sink behind `Arc<Mutex<_>>` so tests can keep a handle to the
/// collected events while the GPU owns the sink — needed to observe
/// the [`SimEvent::Terminal`] event flushed right before the audit
/// assertion panics.
#[derive(Debug, Clone, Default)]
pub struct SharedVecSink(std::sync::Arc<std::sync::Mutex<Vec<TraceEvent>>>);

impl SharedVecSink {
    /// Creates an empty shared sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Snapshot of the events collected so far.
    ///
    /// # Panics
    ///
    /// Panics if a previous holder of the lock panicked.
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        self.0.lock().expect("sink lock poisoned").clone()
    }
}

impl TraceSink for SharedVecSink {
    fn record(&mut self, event: &TraceEvent) {
        // A panicked recorder only ever means a poisoned test sink;
        // keep collecting so the terminal event survives the unwind.
        match self.0.lock() {
            Ok(mut v) => v.push(event.clone()),
            Err(poisoned) => poisoned.into_inner().push(event.clone()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vec_sink_collects_in_order() {
        let mut sink = VecSink::default();
        for c in 0..3 {
            sink.record(&TraceEvent {
                cycle: Cycle(c),
                data: SimEvent::Brownout { active: c % 2 == 0 },
            });
        }
        assert_eq!(sink.events.len(), 3);
        assert_eq!(sink.events[2].cycle, Cycle(2));
    }

    #[test]
    fn event_names_match_variants() {
        let e = SimEvent::PrefetchIssued {
            sm: SmId(1),
            line: LineAddr(2),
        };
        assert_eq!(e.name(), "PrefetchIssued");
        assert_eq!(e.sm(), Some(SmId(1)));
        let t = SimEvent::Terminal {
            kind: TerminalKind::Completed,
            detail: String::new(),
        };
        assert_eq!(t.name(), "Terminal");
        assert_eq!(t.sm(), None);
    }

    #[test]
    fn labels_are_lowercase() {
        assert_eq!(NocDir::Up.label(), "up");
        assert_eq!(PrefetchDropReason::Rejected.label(), "rejected");
        assert_eq!(WalkStop::DepthLimit.label(), "depth_limit");
        assert_eq!(FaultKind::Delay.label(), "delay");
        assert_eq!(TerminalKind::AuditFail.label(), "audit_fail");
    }

    #[test]
    fn shared_sink_snapshot_sees_records() {
        let handle = SharedVecSink::new();
        let mut sink = handle.clone();
        sink.record(&TraceEvent {
            cycle: Cycle(1),
            data: SimEvent::Brownout { active: true },
        });
        assert_eq!(handle.snapshot().len(), 1);
    }

    #[test]
    fn sink_is_object_safe() {
        let mut b: Box<dyn TraceSink> = Box::<VecSink>::default();
        b.record(&TraceEvent {
            cycle: Cycle(0),
            data: SimEvent::Brownout { active: false },
        });
    }
}
