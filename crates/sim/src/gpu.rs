//! The full device: SMs, interconnect, and the shared memory
//! partition, advanced by a single cycle loop.

use std::collections::VecDeque;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::OnceLock;

use crate::audit::{self, Auditor};
use crate::config::{ConfigError, GpuConfig};
use crate::json::Value;
use crate::kernel::KernelTrace;
use crate::mem::interconnect::{Interconnect, UpPacket, READ_REQUEST_BYTES};
use crate::mem::partition::MemoryPartition;
use crate::obs::ring::{RingSink, TelemetryRecord, TelemetryRing};
use crate::obs::{
    MetricsSeries, PrefetchLifecycle, SimEvent, TerminalKind, TraceEvent, TraceSink, WindowTotals,
    WindowedMetrics,
};
use crate::perfstat::{HostProfile, HostProfiler, Phase, Stopwatch};
use crate::prefetch::Prefetcher;
use crate::sm::{PendingCta, Sm};
use crate::snapshot::{self, Checkpoint, Fnv1a64, SnapshotError};
use crate::stats::SimStats;
use crate::types::{Cycle, SmId};
use crate::watchdog::{DeadlockReport, NocCensus, Watchdog};

/// Why a simulation ended.
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
#[derive(Debug, Clone, PartialEq)]
pub enum StopReason {
    /// All warps retired and the memory system drained.
    Completed,
    /// The configured cycle limit was reached first.
    CycleLimit,
    /// The externally imposed [`GpuConfig::cycle_budget`] ran out: the
    /// run was deliberately truncated (e.g. by a sweep supervisor) and
    /// its statistics cover only the budgeted prefix.
    BudgetExceeded {
        /// The budget that was exhausted, in cycles.
        budget: u64,
    },
    /// The forward-progress watchdog found the device wedged: for
    /// [`GpuConfig::watchdog_cycles`] consecutive cycles nothing
    /// issued, filled, or moved. The boxed report says who was blocked
    /// on what.
    Deadlock(Box<DeadlockReport>),
}

impl StopReason {
    /// Stable lower-case label, matching
    /// [`TerminalKind::label`](crate::obs::TerminalKind::label) for the
    /// corresponding terminal trace event. Used by manifests and
    /// exporters.
    pub fn label(&self) -> &'static str {
        match self {
            StopReason::Completed => "completed",
            StopReason::CycleLimit => "cycle_limit",
            StopReason::BudgetExceeded { .. } => "budget_exceeded",
            StopReason::Deadlock(_) => "deadlock",
        }
    }

    /// Whether the run retired every warp (statistics describe the
    /// whole kernel, not a truncated prefix).
    pub fn is_complete(&self) -> bool {
        matches!(self, StopReason::Completed)
    }
}

/// The simulated GPU.
///
/// # Examples
///
/// ```
/// use snake_sim::{Gpu, GpuConfig, Instr, KernelTrace, NullPrefetcher, WarpTrace, CtaId};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let kernel = KernelTrace::new(
///     "demo",
///     vec![WarpTrace::new(CtaId(0), vec![Instr::load(0u32, 0u64), Instr::compute(4)])],
/// );
/// let mut gpu = Gpu::new(GpuConfig::scaled(1), kernel, |_| Box::new(NullPrefetcher))?;
/// let outcome = gpu.run();
/// assert!(outcome.stats.instructions >= 2);
/// # Ok(())
/// # }
/// ```
pub struct Gpu {
    cfg: GpuConfig,
    kernel: KernelTrace,
    sms: Vec<Sm>,
    noc: Interconnect,
    partition: MemoryPartition,
    cycle: Cycle,
    watchdog: Option<Watchdog>,
    auditor: Option<Auditor>,
    deadlock: Option<Box<DeadlockReport>>,
    brownout_cycles: u64,
    /// Destination for trace events; `None` (default) leaves every
    /// component's emission path branch-only.
    sink: Option<Box<dyn TraceSink>>,
    /// Reusable buffer events are drained into before forwarding.
    trace_scratch: Vec<TraceEvent>,
    /// Device-level events (brownout transitions, terminal events)
    /// that have no owning component.
    device_events: Vec<TraceEvent>,
    /// Windowed time-series collector, present when
    /// [`GpuConfig::metrics_window`] is set.
    metrics: Option<WindowedMetrics>,
    /// Brownout state at the last step (edge detection for
    /// [`SimEvent::Brownout`]).
    prev_brownout: bool,
    /// Whether last cycle's injection loop hit interconnect
    /// backpressure (uplink credit refused). The SMs read it the next
    /// cycle to attribute `MissQueueFull` rejections to the NoC.
    noc_backpressured: bool,
    /// Device-level host-time accumulator ([`Phase::Observability`]:
    /// trace flushing and metrics sampling), present when
    /// [`GpuConfig::host_profile`] is set. Component accumulators are
    /// merged into the final [`HostProfile`] at the end of `run`.
    prof: Option<HostProfiler>,
    /// Trace events forwarded to the sink so far (throughput input for
    /// the host profile).
    events_flushed: u64,
    /// Live telemetry ring for per-window metric rows (and, via a
    /// [`RingSink`], trace events), attached by
    /// [`Gpu::attach_telemetry`]. With zero subscribers every push is
    /// a counter bump — see the no-observer-effect guarantee on
    /// [`crate::obs::ring`].
    tap: Option<TelemetryRing>,
    /// [`Gpu::fingerprint`], computed on first use: its inputs are
    /// fixed at construction, and hashing the kernel trace is the bulk
    /// of a checkpoint's cost on a large device.
    fingerprint: OnceLock<u64>,
}

impl std::fmt::Debug for Gpu {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Gpu")
            .field("kernel", &self.kernel.name())
            .field("sms", &self.sms.len())
            .field("cycle", &self.cycle)
            .finish()
    }
}

/// Result of running a kernel to completion.
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
#[derive(Debug, Clone, PartialEq)]
pub struct SimOutcome {
    /// Device-wide merged statistics.
    pub stats: SimStats,
    /// How the run ended.
    pub stop: StopReason,
    /// Prefetch-lifecycle latency attribution, merged across SMs
    /// (always collected; empty histograms when nothing prefetched).
    pub lifecycle: PrefetchLifecycle,
    /// Windowed time series, present when
    /// [`GpuConfig::metrics_window`] is set.
    pub series: Option<MetricsSeries>,
    /// Host-side performance profile (per-phase wall time of the tick
    /// loop), present when [`GpuConfig::host_profile`] is set.
    pub host: Option<HostProfile>,
}

impl Gpu {
    /// Builds a device and distributes the kernel's CTAs round-robin
    /// over the SMs. `mk_prefetcher` is called once per SM.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the configuration is inconsistent.
    pub fn new(
        cfg: GpuConfig,
        kernel: KernelTrace,
        mut mk_prefetcher: impl FnMut(SmId) -> Box<dyn Prefetcher>,
    ) -> Result<Self, ConfigError> {
        cfg.validate()?;
        let mut sms: Vec<Sm> = (0..cfg.num_sms)
            .map(|i| Sm::new(&cfg, SmId(i), mk_prefetcher(SmId(i))))
            .collect();

        // Group warps into CTAs preserving first-appearance order.
        let mut ctas: Vec<(crate::types::CtaId, Vec<usize>)> = Vec::new();
        for (idx, warp) in kernel.warps().iter().enumerate() {
            match ctas.iter_mut().find(|(c, _)| *c == warp.cta) {
                Some((_, v)) => v.push(idx),
                None => ctas.push((warp.cta, vec![idx])),
            }
        }
        let mut queue: VecDeque<(crate::types::CtaId, Vec<usize>)> = ctas.into();
        let mut sm_rr = 0usize;
        while let Some((cta, warps)) = queue.pop_front() {
            assert!(
                warps.len() <= cfg.max_warps_per_sm as usize,
                "CTA {cta} has {} warps but SMs hold only {}",
                warps.len(),
                cfg.max_warps_per_sm
            );
            sms[sm_rr].enqueue_cta(PendingCta { cta, warps });
            sm_rr = (sm_rr + 1) % sms.len();
        }

        for sm in &mut sms {
            sm.kernel_launch(&kernel);
        }

        let mut noc = Interconnect::new(cfg.noc_bytes_per_cycle, cfg.noc_latency, cfg.bw_window);
        let mut partition = MemoryPartition::new(&cfg);
        let watchdog = cfg.watchdog_cycles.map(Watchdog::new);
        let auditor = cfg.audit_window.map(|_| Auditor::new());
        let metrics = cfg.metrics_window.map(WindowedMetrics::new);
        let prof = if cfg.host_profile {
            for sm in &mut sms {
                sm.enable_profiling();
            }
            noc.enable_profiling();
            partition.enable_profiling();
            Some(HostProfiler::new())
        } else {
            None
        };
        Ok(Gpu {
            cfg,
            kernel,
            sms,
            noc,
            partition,
            cycle: Cycle::ZERO,
            watchdog,
            auditor,
            deadlock: None,
            brownout_cycles: 0,
            sink: None,
            trace_scratch: Vec::new(),
            device_events: Vec::new(),
            metrics,
            prev_brownout: false,
            noc_backpressured: false,
            prof,
            events_flushed: 0,
            tap: None,
            fingerprint: OnceLock::new(),
        })
    }

    /// Attaches a trace sink and enables event collection in every
    /// component. Buffered events are forwarded to the sink once per
    /// cycle in a fixed order — SMs by id (pipeline, then L1, then
    /// MSHR), then interconnect, then partition, then device-level —
    /// so a given configuration and kernel produce a byte-identical
    /// event stream on every run.
    pub fn attach_sink(&mut self, sink: Box<dyn TraceSink>) {
        for sm in &mut self.sms {
            sm.enable_trace();
        }
        self.noc.enable_trace();
        self.partition.enable_trace();
        self.sink = Some(sink);
    }

    /// Attaches a live telemetry ring. Per-window [`MetricsSample`]
    /// rows (when [`GpuConfig::metrics_window`] is set) are pushed as
    /// each window closes; with `include_events` the full trace-event
    /// stream is forwarded too (via [`attach_sink`](Gpu::attach_sink)
    /// with a [`RingSink`], so it cannot be combined with another
    /// sink). Subscribers drain the ring from other threads; with none
    /// live, pushes only advance the ring's sequence counter and the
    /// simulation outcome is bit-identical to an untapped run.
    ///
    /// [`MetricsSample`]: crate::obs::MetricsSample
    pub fn attach_telemetry(&mut self, ring: &TelemetryRing, include_events: bool) {
        if include_events {
            self.attach_sink(Box::new(RingSink::new(ring.clone())));
        }
        self.tap = Some(ring.clone());
    }

    /// Forwards the most recently closed metrics window to the
    /// telemetry ring, if one is attached.
    fn tap_window(tap: &Option<TelemetryRing>, metrics: &WindowedMetrics) {
        if let Some(tap) = tap {
            if let Some(sample) = metrics.last_sample() {
                let sample = *sample;
                tap.push(|| TelemetryRecord::Window(sample));
            }
        }
    }

    /// Forwards this cycle's buffered events to the sink, in the fixed
    /// component order documented on [`Gpu::attach_sink`].
    fn flush_trace(&mut self) {
        let Some(sink) = self.sink.as_mut() else {
            return;
        };
        let sw = Stopwatch::start(self.prof.is_some());
        self.trace_scratch.clear();
        for sm in &mut self.sms {
            sm.drain_trace(&mut self.trace_scratch);
        }
        self.noc.drain_trace(&mut self.trace_scratch);
        self.partition.drain_trace(&mut self.trace_scratch);
        self.trace_scratch.append(&mut self.device_events);
        for ev in &self.trace_scratch {
            sink.record(ev);
        }
        self.events_flushed += self.trace_scratch.len() as u64;
        self.trace_scratch.clear();
        sw.stop(&mut self.prof, Phase::Observability);
    }

    /// The configuration the device was built with.
    pub fn config(&self) -> &GpuConfig {
        &self.cfg
    }

    /// Current cycle.
    pub fn cycle(&self) -> Cycle {
        self.cycle
    }

    /// Read-only view of the SMs.
    pub fn sms(&self) -> &[Sm] {
        &self.sms
    }

    /// Advances one cycle. Returns `false` once the device is idle,
    /// the cycle limit is reached, or the forward-progress watchdog
    /// trips (see [`StopReason::Deadlock`]).
    pub fn step(&mut self) -> bool {
        let now = self.cycle;

        // Fault injection: scale interconnect bandwidth during brownout
        // windows before this cycle's credit refill.
        let scale = self.cfg.fault.bandwidth_scale(now);
        self.noc.set_bandwidth_scale(scale);
        let brownout = scale < 1.0;
        if brownout {
            self.brownout_cycles += 1;
        }
        if brownout != self.prev_brownout {
            self.prev_brownout = brownout;
            if self.sink.is_some() {
                self.device_events.push(TraceEvent {
                    cycle: now,
                    data: SimEvent::Brownout { active: brownout },
                });
            }
        }

        // Progress baselines for the watchdog.
        let instr_before: u64 = self.sms.iter().map(Sm::instructions_issued).sum();
        let partition_events_before = self.partition.events();
        let mut noc_moved = false;

        self.noc.begin_cycle(now);
        self.partition.tick(now);

        let util = self.noc.utilization();
        let backpressured = self.noc_backpressured;
        for sm in &mut self.sms {
            sm.tick(&self.kernel, now, util, backpressured);
        }
        self.noc_backpressured = false;

        // Inject L1 requests into the interconnect, round-robin start.
        let n = self.sms.len();
        let start = (now.0 as usize) % n;
        let line_bytes = u64::from(self.cfg.l1.line_bytes);
        'inject: for k in 0..n {
            let i = (start + k) % n;
            while self.sms[i].has_outgoing() {
                let req = *self.sms[i]
                    .l1()
                    .peek_outgoing()
                    .expect("has_outgoing checked");
                let is_store = req.kind == crate::cache::unified_l1::RequestKind::Store;
                let bytes = if is_store {
                    line_bytes
                } else {
                    READ_REQUEST_BYTES
                };
                let pkt = UpPacket {
                    sm: SmId(i as u32),
                    line: req.line,
                    is_store,
                };
                if self.noc.try_send_up(pkt, bytes, now) {
                    self.sms[i].pop_outgoing();
                    noc_moved = true;
                } else {
                    self.noc_backpressured = true;
                    break 'inject; // uplink budget spent this cycle
                }
            }
        }

        // Deliver requests to the partition.
        while let Some(up) = self.noc.pop_up(now) {
            noc_moved = true;
            if up.is_store {
                self.partition.push_store(up.line, now);
            } else {
                self.partition.push_read(up.sm, up.line);
            }
        }

        // Send responses back, bandwidth permitting.
        while let Some(resp) = self.partition.pop_response() {
            if !self.noc.try_send_down(resp, line_bytes, now) {
                self.partition.unpop_response(resp);
                break;
            }
            noc_moved = true;
        }

        // Deliver fills to the L1s.
        while let Some(down) = self.noc.pop_down(now) {
            noc_moved = true;
            self.sms[down.sm.0 as usize].deliver_fill(down.line, now);
        }

        for sm in &mut self.sms {
            sm.retire_finished(&self.kernel);
        }

        self.cycle = now.plus(1);

        if let Some(window) = self.cfg.audit_window {
            if self.cycle.0.is_multiple_of(window) {
                self.run_audit(false);
            }
        }

        let done =
            self.sms.iter().all(Sm::is_done) && self.partition.is_idle() && self.noc.is_idle();
        let budget_hit = self
            .cfg
            .cycle_budget
            .is_some_and(|budget| self.cycle >= budget);
        let limit_hit = self.cfg.max_cycles.is_some_and(|limit| self.cycle >= limit);
        let mut advance = !(done || budget_hit || limit_hit);

        if advance {
            if let Some(watchdog) = &mut self.watchdog {
                let instr_after: u64 = self.sms.iter().map(Sm::instructions_issued).sum();
                let progressed = instr_after > instr_before
                    || noc_moved
                    || self.partition.events() > partition_events_before
                    || self.sms.iter().any(|sm| sm.has_busy_warp(now));
                if watchdog.observe(progressed, self.cycle) {
                    let stalled_for = watchdog.stalled_for(self.cycle);
                    self.deadlock = Some(self.deadlock_report(stalled_for));
                    advance = false;
                }
            }
        }
        self.flush_trace();

        // Close the metrics window only after this cycle's trace events
        // are flushed, so a telemetry ring sees the window row *after*
        // every event it covers — live subscribers then observe
        // non-decreasing cycle stamps. The sample itself is unchanged:
        // nothing above mutates the counters it reads.
        if let Some(mut metrics) = self.metrics.take() {
            if self.cycle.0.is_multiple_of(metrics.window()) {
                let sw = Stopwatch::start(self.prof.is_some());
                metrics.record(self.cycle, &self.window_totals());
                Self::tap_window(&self.tap, &metrics);
                sw.stop(&mut self.prof, Phase::Observability);
            }
            self.metrics = Some(metrics);
        }
        advance
    }

    /// Gathers the cumulative/instantaneous counters a windowed-metrics
    /// sample is built from.
    fn window_totals(&self) -> WindowTotals {
        let mut t = WindowTotals {
            noc_utilization: self.noc.utilization(),
            ..WindowTotals::default()
        };
        for sm in &self.sms {
            let l1 = sm.l1();
            let c = &l1.stats;
            t.instructions += sm.instructions_issued();
            t.l1_hits += c.hits + c.hits_on_prefetch;
            t.l1_accesses +=
                c.hits + c.hits_on_prefetch + c.hits_reserved + c.merges_with_prefetch + c.misses;
            t.mshr_occupancy += l1.outstanding_misses();
            t.mshr_capacity += l1.mshr_capacity();
            t.miss_queue_occupancy += l1.miss_queue_len();
            t.miss_queue_capacity += l1.miss_queue_capacity();
            t.active_warps += sm.active_warps();
            t.throttled_sms += usize::from(sm.is_throttled());
            t.max_chain_depth = t.max_chain_depth.max(sm.chain_depth());
            t.stall.merge(&sm.stats.stall);
        }
        t
    }

    /// Merged prefetch-lifecycle histograms across all SMs.
    pub fn prefetch_lifecycle(&self) -> PrefetchLifecycle {
        let mut total = PrefetchLifecycle::default();
        for sm in &self.sms {
            total.merge(&sm.l1().lifecycle);
        }
        total
    }

    /// Snapshot of everything the watchdog can see, for
    /// [`StopReason::Deadlock`].
    fn deadlock_report(&self, stalled_for: u64) -> Box<DeadlockReport> {
        Box::new(DeadlockReport {
            cycle: self.cycle.0,
            stalled_for,
            sms: self.sms.iter().map(Sm::census).collect(),
            noc: NocCensus {
                in_flight_up: self.noc.in_flight_up(),
                in_flight_down: self.noc.in_flight_down(),
            },
            partition: self.partition.census(),
        })
    }

    /// Runs the invariant auditor, panicking on any violation.
    ///
    /// # Panics
    ///
    /// Panics with the full violation list if any conservation law
    /// fails — by design: an invariant break means simulator state is
    /// corrupt and every stat after this point is suspect.
    fn run_audit(&mut self, end_of_run: bool) {
        let Some(mut auditor) = self.auditor.take() else {
            return;
        };
        let mut violations: Vec<String> = Vec::new();
        for sm in &self.sms {
            for v in sm.l1().audit_invariants() {
                violations.push(format!("sm {}: {v}", sm.id().0));
            }
        }
        let stats = self.collect_stats();
        violations.extend(auditor.check_stats(&stats));
        if end_of_run {
            let misses: usize = self.sms.iter().map(|s| s.l1().outstanding_misses()).sum();
            let reserved: u32 = self.sms.iter().map(|s| s.l1().reserved_lines()).sum();
            let queued: usize = self.sms.iter().map(|s| s.l1().miss_queue_len()).sum();
            let in_flight = self.noc.in_flight_up() + self.noc.in_flight_down();
            violations.extend(audit::check_drained(
                misses,
                reserved,
                queued,
                in_flight,
                self.partition.is_idle(),
            ));
        }
        self.auditor = Some(auditor);
        if !violations.is_empty() {
            // Flush the failure into the trace before panicking so an
            // attached sink observes the terminal event.
            if self.sink.is_some() {
                self.device_events.push(TraceEvent {
                    cycle: self.cycle,
                    data: SimEvent::Terminal {
                        kind: TerminalKind::AuditFail,
                        detail: violations.join("\n  "),
                    },
                });
                self.flush_trace();
            }
            panic!(
                "invariant audit failed at cycle {}:\n  {}",
                self.cycle.0,
                violations.join("\n  ")
            );
        }
    }

    /// Runs to completion (or the cycle limit, or a watchdog trip) and
    /// returns merged device statistics.
    pub fn run(&mut self) -> SimOutcome {
        // One clock read per run when profiling; none otherwise.
        let t0 = self.prof.as_ref().map(|_| std::time::Instant::now());
        while self.step() {}
        self.finalize(t0)
    }

    /// Like [`Gpu::run`], but after every cycle asks `suspend` whether
    /// to stop early. Returns `None` when suspended: no terminal trace
    /// event is emitted, no partial metrics window is closed, and the
    /// device can be checkpointed with [`Gpu::checkpoint`] and later
    /// resumed (here or in another process via [`Gpu::restore`]).
    ///
    /// A suspended device is paused mid-run, not finished — calling
    /// [`Gpu::run`] again continues it to a normal outcome.
    pub fn run_interruptible(
        &mut self,
        mut suspend: impl FnMut(Cycle) -> bool,
    ) -> Option<SimOutcome> {
        let t0 = self.prof.as_ref().map(|_| std::time::Instant::now());
        loop {
            if !self.step() {
                return Some(self.finalize(t0));
            }
            if suspend(self.cycle) {
                return None;
            }
        }
    }

    /// Runs to completion while writing a checkpoint of the full
    /// simulator state to `path` (atomically, replacing the previous
    /// one) every [`GpuConfig::checkpoint_every`] cycles. When that
    /// option is `None` this is exactly [`Gpu::run`] — no per-cycle
    /// checkpoint arithmetic, no I/O.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError`] if a checkpoint cannot be written; the
    /// simulation stops at that cycle rather than silently continuing
    /// without crash protection.
    pub fn run_checkpointed(&mut self, path: &Path) -> Result<SimOutcome, SnapshotError> {
        let Some(every) = self.cfg.checkpoint_every else {
            return Ok(self.run());
        };
        self.run_serviced(Some((path, every)), |_, _| {}, |_| false)
            .map(|outcome| outcome.expect("suspend predicate is constant false"))
    }

    /// The serving layer's run loop: [`Gpu::run_interruptible`] and
    /// [`Gpu::run_checkpointed`] combined. Writes a checkpoint of the
    /// full simulator state to `checkpoint.0` (atomically, replacing
    /// the previous one) every `checkpoint.1` cycles, invoking
    /// `on_checkpoint(cycle, bytes)` after each durable write so a
    /// supervisor can journal the artifact; after every cycle asks
    /// `suspend` whether to stop early, returning `None` with the
    /// device paused mid-run (checkpointable via [`Gpu::checkpoint`]).
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError`] if a checkpoint cannot be written; the
    /// simulation stops at that cycle rather than silently continuing
    /// without crash protection.
    pub fn run_serviced(
        &mut self,
        checkpoint: Option<(&Path, u64)>,
        mut on_checkpoint: impl FnMut(u64, u64),
        mut suspend: impl FnMut(Cycle) -> bool,
    ) -> Result<Option<SimOutcome>, SnapshotError> {
        let t0 = self.prof.as_ref().map(|_| std::time::Instant::now());
        loop {
            if !self.step() {
                return Ok(Some(self.finalize(t0)));
            }
            if let Some((path, every)) = checkpoint {
                if self.cycle.0.is_multiple_of(every) {
                    let bytes = self.checkpoint().write_atomic(path)?;
                    // Stamped after the rename lands, so the event is
                    // never part of the artifact it describes; it rides
                    // out with the next cycle's flush.
                    if self.sink.is_some() {
                        self.device_events.push(TraceEvent {
                            cycle: self.cycle,
                            data: SimEvent::CheckpointSaved { bytes },
                        });
                    }
                    on_checkpoint(self.cycle.0, bytes);
                }
            }
            if suspend(self.cycle) {
                return Ok(None);
            }
        }
    }

    /// Computes the stop reason, runs the end-of-run audit, emits the
    /// terminal trace event, closes the final metrics window, and
    /// assembles the [`SimOutcome`]. Shared tail of every `run_*`
    /// entry point, reached only after [`Gpu::step`] returned `false`.
    fn finalize(&mut self, t0: Option<std::time::Instant>) -> SimOutcome {
        let stop = if let Some(report) = self.deadlock.take() {
            StopReason::Deadlock(report)
        } else if self.sms.iter().all(Sm::is_done) {
            StopReason::Completed
        } else if let Some(budget) = self.cfg.cycle_budget.filter(|budget| self.cycle >= *budget) {
            StopReason::BudgetExceeded { budget: budget.0 }
        } else {
            StopReason::CycleLimit
        };
        if self.auditor.is_some() && stop == StopReason::Completed {
            self.run_audit(true);
        }
        if self.sink.is_some() {
            let (kind, detail) = match &stop {
                StopReason::Completed => (TerminalKind::Completed, String::new()),
                StopReason::CycleLimit => (TerminalKind::CycleLimit, String::new()),
                StopReason::BudgetExceeded { budget } => (
                    TerminalKind::BudgetExceeded,
                    format!("cycle budget {budget} exhausted"),
                ),
                StopReason::Deadlock(report) => (TerminalKind::Deadlock, report.to_string()),
            };
            self.device_events.push(TraceEvent {
                cycle: self.cycle,
                data: SimEvent::Terminal { kind, detail },
            });
            self.flush_trace();
        }
        // Close a partial final window so short runs still get a
        // closing sample, and mark truncated series so observability
        // output distinguishes them from converged runs.
        if let Some(mut metrics) = self.metrics.take() {
            if !self.cycle.0.is_multiple_of(metrics.window()) {
                metrics.record(self.cycle, &self.window_totals());
                Self::tap_window(&self.tap, &metrics);
            }
            if !stop.is_complete() {
                metrics.mark_stop(stop.label());
            }
            self.metrics = Some(metrics);
        }
        let host = t0.and_then(|t0| self.collect_host_profile(t0.elapsed().as_nanos() as u64));
        SimOutcome {
            stats: self.collect_stats(),
            stop,
            lifecycle: self.prefetch_lifecycle(),
            series: self.metrics.take().map(WindowedMetrics::finish),
            host,
        }
    }

    /// Merges every component's host-time accumulator into one
    /// [`HostProfile`] (consumes the accumulators; `None` when
    /// profiling is off).
    fn collect_host_profile(&mut self, wall_nanos: u64) -> Option<HostProfile> {
        let mut prof = self.prof.take()?;
        for sm in &mut self.sms {
            sm.merge_profile(&mut prof);
        }
        self.noc.merge_profile(&mut prof);
        self.partition.merge_profile(&mut prof);
        Some(prof.finish(wall_nanos, self.cycle.0, self.events_flushed))
    }

    /// Merges per-SM, interconnect, and partition statistics.
    pub fn collect_stats(&mut self) -> SimStats {
        let mut total = SimStats::default();
        for sm in &mut self.sms {
            sm.finalize_stats();
            total.merge(&sm.stats);
        }
        total.cycles = self.cycle.0;
        total.noc_bytes_up = self.noc.total_bytes_up();
        total.noc_bytes_down = self.noc.total_bytes_down();
        total.l2_hits = self.partition.stats.l2_hits;
        total.l2_misses = self.partition.stats.l2_misses;
        let pf = self.partition.fault_stats();
        total.fault.dropped_responses = pf.dropped_responses;
        total.fault.duplicated_responses = pf.duplicated_responses;
        total.fault.delayed_responses = pf.delayed_responses;
        total.fault.brownout_cycles = self.brownout_cycles;
        total
    }

    /// The deadlock report from a tripped watchdog, if stepping stopped
    /// because of one (also carried by [`StopReason::Deadlock`] when
    /// using [`Gpu::run`]).
    pub fn deadlock_info(&self) -> Option<&DeadlockReport> {
        self.deadlock.as_deref()
    }

    /// Lifetime interconnect utilization (Fig 4).
    pub fn noc_lifetime_utilization(&self) -> f64 {
        self.noc.lifetime_utilization()
    }

    /// Fingerprint of everything a checkpoint's state is only valid
    /// under: the configuration (with fields that do not affect
    /// simulated behavior zeroed — checkpoint cadence, host profiling),
    /// the kernel trace, and the per-SM mechanism names. Two devices
    /// with equal fingerprints step identically, so state captured on
    /// one restores exactly onto the other.
    ///
    /// The hash is streamed over the `Debug` text of the inputs (never
    /// materialized) and memoized per device.
    pub fn fingerprint(&self) -> u64 {
        *self.fingerprint.get_or_init(|| {
            let mut cfg = self.cfg.clone();
            cfg.checkpoint_every = None;
            cfg.host_profile = false;
            cfg.perf_inject_stall_ns = 0;
            let mut h = Fnv1a64::default();
            write!(h, "{cfg:?}|{:?}", self.kernel).expect("hashing cannot fail");
            for sm in &self.sms {
                write!(h, "|{}", sm.prefetcher_name()).expect("hashing cannot fail");
            }
            h.finish()
        })
    }

    /// Captures the complete mutable simulator state as a checkpoint
    /// artifact. Must be taken at a cycle boundary (between
    /// [`Gpu::step`] calls): [`Gpu::step`] ends by flushing trace
    /// buffers, so none of the transient per-cycle scratch exists then.
    ///
    /// Deliberately excluded (see the `snapshot` module doc): host-time
    /// profiling accumulators, the invariant auditor's reference stats
    /// (rebuilt on the first post-restore audit window), and attached
    /// trace sinks — a resumed run re-attaches its own sink and the
    /// restored `events_flushed` counter keeps throughput accounting
    /// continuous.
    pub fn checkpoint(&self) -> Checkpoint {
        Checkpoint {
            fingerprint: self.fingerprint(),
            state: self.save_state(),
        }
    }

    /// Applies a checkpoint captured by [`Gpu::checkpoint`] onto a
    /// freshly built device (same config, kernel, and mechanism —
    /// enforced via the fingerprint). After this returns, stepping the
    /// device is bit-identical to stepping the one the checkpoint was
    /// taken from.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::ConfigMismatch`] when the checkpoint was taken
    /// under a different fingerprint, [`SnapshotError::Malformed`] when
    /// the state document does not decode. On error the device is
    /// unchanged or must be discarded (a malformed document detected
    /// mid-apply leaves partially restored state; callers treat any
    /// error as fatal for this device).
    pub fn restore(&mut self, ckpt: &Checkpoint) -> Result<(), SnapshotError> {
        ckpt.verify_fingerprint(self.fingerprint())?;
        self.restore_state(&ckpt.state)?;
        // Mark the splice point on the trace (when a sink is attached
        // before restoring), stamped with the restored cycle. The
        // fingerprint is config-derived, so the stream stays
        // deterministic.
        if self.sink.is_some() {
            self.device_events.push(TraceEvent {
                cycle: self.cycle,
                data: SimEvent::Restored {
                    fingerprint: ckpt.fingerprint,
                },
            });
        }
        Ok(())
    }

    /// Serializes all mutable state. Option-gated components (watchdog,
    /// windowed metrics) encode as `Null` when absent; the fingerprint
    /// guarantees presence agrees between capture and restore.
    fn save_state(&self) -> Value {
        Value::Obj(vec![
            ("cycle".into(), Value::u64(self.cycle.0)),
            ("brownout_cycles".into(), Value::u64(self.brownout_cycles)),
            ("prev_brownout".into(), Value::Bool(self.prev_brownout)),
            (
                "noc_backpressured".into(),
                Value::Bool(self.noc_backpressured),
            ),
            ("events_flushed".into(), Value::u64(self.events_flushed)),
            (
                "sms".into(),
                Value::Arr(self.sms.iter().map(Sm::save_state).collect()),
            ),
            ("noc".into(), self.noc.save_state()),
            ("partition".into(), self.partition.save_state()),
            (
                "watchdog".into(),
                self.watchdog
                    .as_ref()
                    .map_or(Value::Null, Watchdog::save_state),
            ),
            (
                "metrics".into(),
                self.metrics
                    .as_ref()
                    .map_or(Value::Null, WindowedMetrics::save_state),
            ),
        ])
    }

    /// Applies state captured by [`Gpu::save_state`].
    fn restore_state(&mut self, v: &Value) -> Result<(), SnapshotError> {
        let cycle = Cycle(snapshot::u64_field(v, "cycle")?);
        let brownout_cycles = snapshot::u64_field(v, "brownout_cycles")?;
        let prev_brownout = snapshot::bool_field(v, "prev_brownout")?;
        let noc_backpressured = snapshot::bool_field(v, "noc_backpressured")?;
        let events_flushed = snapshot::u64_field(v, "events_flushed")?;
        let sms = snapshot::arr_field(v, "sms")?;
        if sms.len() != self.sms.len() {
            return Err(SnapshotError::malformed(format!(
                "checkpoint has {} SMs, device has {}",
                sms.len(),
                self.sms.len()
            )));
        }
        for (sm, state) in self.sms.iter_mut().zip(sms) {
            sm.restore_state(state)?;
        }
        self.noc.restore_state(snapshot::field(v, "noc")?)?;
        self.partition
            .restore_state(snapshot::field(v, "partition")?)?;
        let wd = snapshot::field(v, "watchdog")?;
        match (&mut self.watchdog, wd) {
            (None, Value::Null) => {}
            (Some(w), state) if !matches!(state, Value::Null) => w.restore_state(state)?,
            _ => {
                return Err(SnapshotError::malformed(
                    "watchdog presence disagrees with configuration",
                ));
            }
        }
        let m = snapshot::field(v, "metrics")?;
        match (&mut self.metrics, m) {
            (None, Value::Null) => {}
            (Some(metrics), state) if !matches!(state, Value::Null) => {
                metrics.restore_state(state)?;
            }
            _ => {
                return Err(SnapshotError::malformed(
                    "metrics presence disagrees with configuration",
                ));
            }
        }
        self.cycle = cycle;
        self.brownout_cycles = brownout_cycles;
        self.prev_brownout = prev_brownout;
        self.noc_backpressured = noc_backpressured;
        self.events_flushed = events_flushed;
        self.deadlock = None;
        Ok(())
    }
}

/// A typed error from building or running a simulation.
///
/// The enum is `non_exhaustive` so harnesses that propagate it keep
/// compiling as failure modes are added. (Not `Clone`/`PartialEq`:
/// checkpoint failures carry a [`std::io::Error`].)
#[non_exhaustive]
#[derive(Debug)]
pub enum SimError {
    /// The configuration failed [`GpuConfig::validate`].
    Config(ConfigError),
    /// Writing, loading, or applying a checkpoint failed (see
    /// [`Gpu::run_checkpointed`] and [`Gpu::restore`]).
    Snapshot(SnapshotError),
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Config(e) => write!(f, "invalid configuration: {e}"),
            SimError::Snapshot(e) => write!(f, "checkpoint error: {e}"),
        }
    }
}

impl std::error::Error for SimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SimError::Config(e) => Some(e),
            SimError::Snapshot(e) => Some(e),
        }
    }
}

impl From<ConfigError> for SimError {
    fn from(e: ConfigError) -> Self {
        SimError::Config(e)
    }
}

impl From<SnapshotError> for SimError {
    fn from(e: SnapshotError) -> Self {
        SimError::Snapshot(e)
    }
}

/// Convenience: builds and runs a kernel in one call.
///
/// # Errors
///
/// Returns [`ConfigError`] if the configuration is inconsistent.
pub fn run_kernel(
    cfg: GpuConfig,
    kernel: KernelTrace,
    mk_prefetcher: impl FnMut(SmId) -> Box<dyn Prefetcher>,
) -> Result<SimOutcome, ConfigError> {
    let mut gpu = Gpu::new(cfg, kernel, mk_prefetcher)?;
    Ok(gpu.run())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{Instr, WarpTrace};
    use crate::prefetch::NullPrefetcher;
    use crate::types::CtaId;

    fn simple_kernel(warps: usize, loads_per_warp: usize) -> KernelTrace {
        let traces = (0..warps)
            .map(|w| {
                let instrs = (0..loads_per_warp)
                    .map(|i| Instr::load(i as u32, ((w * loads_per_warp + i) * 128) as u64))
                    .collect();
                WarpTrace::new(CtaId((w / 4) as u32), instrs)
            })
            .collect();
        KernelTrace::new("test", traces)
    }

    fn run(kernel: KernelTrace) -> SimOutcome {
        run_kernel(GpuConfig::scaled(1), kernel, |_| Box::new(NullPrefetcher)).unwrap()
    }

    #[test]
    fn single_warp_completes() {
        let out = run(simple_kernel(1, 4));
        assert_eq!(out.stop, StopReason::Completed);
        assert_eq!(out.stats.instructions, 4);
        assert_eq!(out.stats.demand_loads, 4);
        assert_eq!(out.stats.l1.misses, 4, "all cold misses");
        assert!(out.stats.cycles > 200, "misses pay memory latency");
    }

    #[test]
    fn repeated_loads_hit_in_l1() {
        // Compute between the loads forms a use barrier, so the later
        // loads find valid data (plain hits).
        let instrs = vec![
            Instr::load(0u32, 0u64),
            Instr::compute(2),
            Instr::load(1u32, 0u64),
            Instr::compute(2),
            Instr::load(2u32, 0u64),
        ];
        let k = KernelTrace::new("hits", vec![WarpTrace::new(CtaId(0), instrs)]);
        let out = run(k);
        assert_eq!(out.stats.l1.misses, 1);
        assert_eq!(out.stats.l1.hits, 2);
    }

    #[test]
    fn back_to_back_loads_overlap_misses() {
        // Stall-on-use: four consecutive loads to distinct lines issue
        // back-to-back, overlapping their memory latency (MLP).
        let overlapped = vec![
            Instr::load(0u32, 0u64),
            Instr::load(1u32, 4096u64),
            Instr::load(2u32, 8192u64),
            Instr::load(3u32, 12288u64),
        ];
        let serialized = vec![
            Instr::load(0u32, 0u64),
            Instr::compute(1),
            Instr::load(1u32, 4096u64),
            Instr::compute(1),
            Instr::load(2u32, 8192u64),
            Instr::compute(1),
            Instr::load(3u32, 12288u64),
        ];
        let fast = run(KernelTrace::new(
            "mlp",
            vec![WarpTrace::new(CtaId(0), overlapped)],
        ));
        let slow = run(KernelTrace::new(
            "serial",
            vec![WarpTrace::new(CtaId(0), serialized)],
        ));
        assert!(
            (fast.stats.cycles as f64) < (slow.stats.cycles as f64) * 0.5,
            "MLP must overlap latency: {} vs {}",
            fast.stats.cycles,
            slow.stats.cycles
        );
    }

    #[test]
    fn tlp_hides_latency() {
        // 16 warps, disjoint lines: more warps should not be 16x slower.
        let one = run(simple_kernel(1, 8)).stats.cycles;
        let many = run(simple_kernel(16, 8)).stats.cycles;
        assert!(
            (many as f64) < (one as f64) * 8.0,
            "TLP must overlap latency: 1 warp {one} cy, 16 warps {many} cy"
        );
    }

    #[test]
    fn compute_only_kernel_is_fast() {
        let instrs = vec![Instr::compute(2); 10];
        let k = KernelTrace::new("compute", vec![WarpTrace::new(CtaId(0), instrs)]);
        let out = run(k);
        assert_eq!(out.stop, StopReason::Completed);
        assert_eq!(out.stats.demand_loads, 0);
        assert!(out.stats.cycles < 100);
    }

    #[test]
    fn stores_complete_and_count() {
        let instrs = vec![Instr::store(0u32, 0u64), Instr::store(1u32, 128u64)];
        let k = KernelTrace::new("stores", vec![WarpTrace::new(CtaId(0), instrs)]);
        let out = run(k);
        assert_eq!(out.stop, StopReason::Completed);
        assert_eq!(out.stats.stores, 2);
        assert!(out.stats.noc_bytes_up >= 256, "store data on the wire");
    }

    #[test]
    fn cycle_limit_stops_runaway() {
        let mut cfg = GpuConfig::scaled(1);
        cfg.max_cycles = Some(Cycle(100));
        let out = run_kernel(cfg, simple_kernel(8, 100), |_| Box::new(NullPrefetcher)).unwrap();
        assert_eq!(out.stop, StopReason::CycleLimit);
        assert_eq!(out.stats.cycles, 100);
    }

    #[test]
    fn cycle_budget_truncates_with_its_own_stop_reason() {
        let mut cfg = GpuConfig::scaled(1);
        cfg.cycle_budget = Some(Cycle(100));
        let out = run_kernel(cfg, simple_kernel(8, 100), |_| Box::new(NullPrefetcher)).unwrap();
        assert_eq!(out.stop, StopReason::BudgetExceeded { budget: 100 });
        assert_eq!(out.stop.label(), "budget_exceeded");
        assert!(!out.stop.is_complete());
        assert_eq!(out.stats.cycles, 100);
    }

    #[test]
    fn budget_beneath_max_cycles_wins_and_completion_beats_both() {
        // Budget below the safety net: the budget is reported.
        let mut cfg = GpuConfig::scaled(1);
        cfg.cycle_budget = Some(Cycle(100));
        cfg.max_cycles = Some(Cycle(10_000));
        let out = run_kernel(cfg, simple_kernel(8, 100), |_| Box::new(NullPrefetcher)).unwrap();
        assert_eq!(out.stop, StopReason::BudgetExceeded { budget: 100 });
        // A run that finishes inside the budget stays Completed.
        let mut cfg = GpuConfig::scaled(1);
        cfg.cycle_budget = Some(Cycle(1_000_000));
        let out = run_kernel(cfg, simple_kernel(1, 2), |_| Box::new(NullPrefetcher)).unwrap();
        assert_eq!(out.stop, StopReason::Completed);
        assert!(out.stop.is_complete());
    }

    #[test]
    fn sim_error_wraps_and_displays_config_errors() {
        let mut cfg = GpuConfig::scaled(1);
        cfg.miss_queue_depth = 0;
        let err = SimError::from(cfg.validate().unwrap_err());
        assert!(err.to_string().contains("miss_queue_depth"), "{err}");
        assert!(std::error::Error::source(&err).is_some());
    }

    #[test]
    fn multi_sm_distributes_ctas() {
        let cfg = GpuConfig::scaled(2);
        let kernel = simple_kernel(8, 4); // 2 CTAs of 4 warps
        let mut gpu = Gpu::new(cfg, kernel, |_| Box::new(NullPrefetcher)).unwrap();
        let out = gpu.run();
        assert_eq!(out.stop, StopReason::Completed);
        assert_eq!(out.stats.instructions, 32);
    }

    #[test]
    fn more_ctas_than_slots_queue_up() {
        // 10 CTAs x 4 warps = 40 warps on 1 SM with 16 slots.
        let out = run(simple_kernel(40, 3));
        assert_eq!(out.stop, StopReason::Completed);
        assert_eq!(out.stats.instructions, 120);
    }

    #[test]
    fn memory_bound_kernel_shows_memory_stalls() {
        let out = run(simple_kernel(16, 32));
        assert!(out.stats.all_stall_cycles > 0);
        assert!(out.stats.memory_stall_fraction() > 0.5);
    }
}
