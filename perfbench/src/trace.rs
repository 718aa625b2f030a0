//! The traced run's instruments: an in-memory span recorder, a
//! counting trace sink, and standalone replays of the recorded L1 and
//! memory-side call streams.

use std::cell::RefCell;
use std::collections::HashMap;
use std::io::Write;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::rc::Rc;
use std::sync::Mutex;
use std::time::Instant;

use snake_sim::cache::unified_l1::{L1Mode, PrefetchIssue, UnifiedL1};
use snake_sim::mem::interconnect::{DownPacket, Interconnect, UpPacket};
use snake_sim::mem::partition::MemoryPartition;
use snake_sim::obs::{NocDir, PrefetchDropReason};
use snake_sim::{
    AccessOutcome, Cycle, GpuConfig, LineAddr, PrefetchPlacement, SimEvent, SmId, TraceEvent,
    TraceSink, WarpId,
};

/// One recorded span. Aggregate spans (`busy_ns < end - start`) stand
/// for many disjoint calls summed, such as every prefetcher call of a
/// run segment.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer boundary the span covers.
    pub name: &'static str,
    /// Start, in nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End (0 while open).
    pub end_ns: u64,
    /// Time the span itself covers.
    pub busy_ns: u64,
    /// The span that caused it.
    pub parent: Option<usize>,
    /// Job index within its pass, shared by every span of one job.
    pub job: u32,
    /// Work count at the boundary (cycles, bytes, calls).
    pub count: u64,
}

/// In-memory span recorder, written out when the run ends.
pub struct Tracer {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn at(&self, t: Instant) -> u64 {
        (t - self.origin).as_nanos() as u64
    }

    /// Opens a span and returns its id.
    pub fn open(&self, name: &'static str, parent: Option<usize>, job: u32) -> usize {
        let start_ns = self.at(Instant::now());
        let mut spans = self.spans.lock().expect("span lock");
        spans.push(Span {
            name,
            start_ns,
            end_ns: 0,
            busy_ns: 0,
            parent,
            job,
            count: 0,
        });
        spans.len() - 1
    }

    /// Closes span `id` with a work count.
    pub fn close(&self, id: usize, count: u64) {
        let end_ns = self.at(Instant::now());
        let mut spans = self.spans.lock().expect("span lock");
        let span = &mut spans[id];
        span.end_ns = end_ns;
        span.busy_ns = end_ns - span.start_ns;
        span.count = count;
    }

    /// Records `count` calls that took `busy_ns` in total between
    /// `start` and `end`, under `parent`.
    #[allow(clippy::too_many_arguments)]
    pub fn aggregate(
        &self,
        name: &'static str,
        parent: usize,
        job: u32,
        start: Instant,
        end: Instant,
        busy_ns: u64,
        count: u64,
    ) {
        let (start_ns, end_ns) = (self.at(start), self.at(end));
        self.spans.lock().expect("span lock").push(Span {
            name,
            start_ns,
            end_ns,
            busy_ns,
            parent: Some(parent),
            job,
            count,
        });
    }

    /// The recorded spans.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span lock").clone()
    }
}

/// Self time of every span: its busy time minus its children's.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut child = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child[p] += s.busy_ns;
        }
    }
    spans
        .iter()
        .zip(child)
        .map(|(s, c)| s.busy_ns.saturating_sub(c))
        .collect()
}

/// Σ self time and Σ count per span name, sorted by name.
pub fn self_by_name(spans: &[Span]) -> Vec<(&'static str, u64, u64)> {
    let selfs = self_times(spans);
    let mut by: HashMap<&'static str, (u64, u64)> = HashMap::new();
    for (s, own) in spans.iter().zip(selfs) {
        let e = by.entry(s.name).or_default();
        e.0 += own;
        e.1 += s.count;
    }
    let mut v: Vec<_> = by.into_iter().map(|(k, (a, b))| (k, a, b)).collect();
    v.sort_by_key(|e| e.0);
    v
}

/// Writes spans as JSON lines, with their self times.
pub fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let selfs = self_times(spans);
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (i, (s, own)) in spans.iter().zip(selfs).enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"busy_ns\":{},\
             \"self_ns\":{own},\"parent\":{parent},\"job\":{},\"count\":{}}}",
            s.name, s.start_ns, s.end_ns, s.busy_ns, s.job, s.count
        )?;
    }
    out.flush()
}

/// A recorded L1 call, in the order the L1 saw it.
#[derive(Debug, Clone, Copy)]
enum L1Call {
    Access(WarpId, LineAddr, AccessOutcome),
    Prefetch(LineAddr, PrefetchIssue),
    Fill(LineAddr, u32),
    /// The miss queue head left for the interconnect; `true` for a
    /// store, which the L1 accepted earlier the same cycle.
    Pop(LineAddr, bool),
}

/// A recorded interconnect enqueue.
#[derive(Debug, Clone, Copy)]
struct NocSend {
    up: bool,
    sm: SmId,
    line: LineAddr,
    bytes: u64,
}

/// What the sink-attached pass keeps of one job: which cycles saw any
/// event, and the L1 and interconnect call streams the replays need.
#[derive(Debug, Default)]
pub struct Recording {
    /// Bit per cycle: some event happened.
    busy: Vec<u64>,
    /// Per recorded SM: (cycle, call), in call order.
    l1: Vec<Vec<(u64, L1Call)>>,
    /// Interconnect enqueues by cycle, in order.
    noc: Vec<(u64, NocSend)>,
    store_bytes: u64,
}

impl Recording {
    /// Records L1 streams for SMs below `l1_sms`.
    pub fn new(l1_sms: usize, line_bytes: u64) -> Self {
        Recording {
            l1: vec![Vec::new(); l1_sms],
            store_bytes: line_bytes,
            ..Recording::default()
        }
    }

    /// Whether cycle `c` saw any event.
    pub fn is_busy(&self, c: usize) -> bool {
        self.busy
            .get(c / 64)
            .is_some_and(|w| w & (1u64 << (c % 64)) != 0)
    }

    /// Cycles that saw at least one event.
    pub fn busy_cycles(&self) -> u64 {
        self.busy.iter().map(|w| u64::from(w.count_ones())).sum()
    }

    fn mark(&mut self, c: u64) {
        let (word, bit) = ((c / 64) as usize, c % 64);
        if self.busy.len() <= word {
            self.busy.resize(word + 1, 0);
        }
        self.busy[word] |= 1 << bit;
    }

    fn l1_push(&mut self, sm: SmId, c: u64, call: L1Call) {
        if let Some(stream) = self.l1.get_mut(sm.0 as usize) {
            stream.push((c, call));
        }
    }

    fn record(&mut self, ev: &TraceEvent) {
        let c = ev.cycle.0;
        // Terminal and restore markers are not device activity.
        if !matches!(
            ev.data,
            SimEvent::Terminal { .. } | SimEvent::Restored { .. }
        ) {
            self.mark(c);
        }
        match ev.data {
            SimEvent::L1Access {
                sm,
                warp,
                line,
                outcome,
            } => self.l1_push(sm, c, L1Call::Access(warp, line, outcome)),
            SimEvent::PrefetchIssued { sm, line } => {
                self.l1_push(sm, c, L1Call::Prefetch(line, PrefetchIssue::Issued));
            }
            SimEvent::PrefetchDropped { sm, line, reason } => {
                let issue = match reason {
                    PrefetchDropReason::Redundant => PrefetchIssue::Redundant,
                    PrefetchDropReason::Rejected => PrefetchIssue::Rejected,
                };
                self.l1_push(sm, c, L1Call::Prefetch(line, issue));
            }
            SimEvent::MshrFill { sm, line, waiters } => {
                self.l1_push(sm, c, L1Call::Fill(line, waiters));
            }
            SimEvent::NocEnqueue {
                dir,
                sm,
                line,
                bytes,
            } => {
                let up = dir == NocDir::Up;
                if up {
                    self.l1_push(sm, c, L1Call::Pop(line, bytes == self.store_bytes));
                }
                self.noc.push((
                    c,
                    NocSend {
                        up,
                        sm,
                        line,
                        bytes,
                    },
                ));
            }
            _ => {}
        }
    }
}

/// A [`TraceSink`] feeding a shared [`Recording`].
pub struct RecordingSink(pub Rc<RefCell<Recording>>);

impl TraceSink for RecordingSink {
    fn record(&mut self, event: &TraceEvent) {
        self.0.borrow_mut().record(event);
    }
}

/// Per-call host times and agreement of one replay.
#[derive(Debug, Default, Clone)]
pub struct ReplayTally {
    /// Σ ns and calls per call kind (L1: access, fill, prefetch;
    /// memory: send, tick).
    pub ns: [u64; 3],
    /// See `ns`.
    pub calls: [u64; 3],
    /// Replayed outcomes that equal the recorded ones.
    pub matched: u64,
    /// Outcomes compared.
    pub compared: u64,
    /// The replay panicked (its state drifted into an impossible one).
    pub aborted: bool,
}

impl ReplayTally {
    /// Adds another replay's counts.
    pub fn merge(&mut self, o: &ReplayTally) {
        for i in 0..3 {
            self.ns[i] += o.ns[i];
            self.calls[i] += o.calls[i];
        }
        self.matched += o.matched;
        self.compared += o.compared;
        self.aborted |= o.aborted;
    }

    fn check(&mut self, same: bool) {
        self.compared += 1;
        self.matched += u64::from(same);
    }

    fn time(&mut self, kind: usize, start: Instant) -> u64 {
        let ns = start.elapsed().as_nanos() as u64;
        self.ns[kind] += ns;
        self.calls[kind] += 1;
        ns
    }

    /// Mean ns per call of `kind`, less the clock read each call paid.
    pub fn ns_per_call(&self, kind: usize, clock_ns: f64) -> f64 {
        if self.calls[kind] == 0 {
            return f64::NAN;
        }
        self.ns[kind] as f64 / self.calls[kind] as f64 - clock_ns
    }

    /// Share of compared outcomes that matched.
    pub fn fidelity(&self) -> f64 {
        if self.compared == 0 {
            return f64::NAN;
        }
        self.matched as f64 / self.compared as f64
    }
}

/// L1 replay call kinds.
pub const ACCESS: usize = 0;
/// See [`ACCESS`].
pub const FILL: usize = 1;
/// See [`ACCESS`].
pub const PREFETCH: usize = 2;
/// Memory replay call kinds.
pub const SEND: usize = 0;
/// See [`SEND`].
pub const TICK: usize = 1;

fn guarded(f: impl FnOnce(&mut ReplayTally)) -> ReplayTally {
    let mut tally = ReplayTally::default();
    if catch_unwind(AssertUnwindSafe(|| f(&mut tally))).is_err() {
        tally.aborted = true;
    }
    tally
}

/// Replays each recorded SM's call stream on a standalone `UnifiedL1`
/// built the way `Sm::new` builds it for `placement`.
///
/// The replay sees only the calls that leave a trace event. It cannot
/// see the SM's per-cycle training and throttle sync, and it issues
/// each store when it leaves for the interconnect rather than when the
/// warp made it, so its state can drift from the real L1; the fidelity
/// figure says how far.
pub fn replay_l1(rec: &Recording, cfg: &GpuConfig, placement: PrefetchPlacement) -> ReplayTally {
    let mode = match placement {
        PrefetchPlacement::Decoupled => L1Mode::Decoupled,
        PrefetchPlacement::PlainL1 => L1Mode::Plain,
        PrefetchPlacement::Isolated { lines } => L1Mode::Isolated { lines },
    };
    let mut total = ReplayTally::default();
    for stream in &rec.l1 {
        let tally = guarded(|t| {
            let mut l1 = UnifiedL1::new(cfg, mode);
            for &(c, call) in stream {
                let now = Cycle(c);
                match call {
                    L1Call::Access(warp, line, want) => {
                        let start = Instant::now();
                        let got = l1.access_demand(line, warp, now);
                        t.time(ACCESS, start);
                        t.check(got == want);
                    }
                    L1Call::Prefetch(line, want) => {
                        let start = Instant::now();
                        let got = l1.request_prefetch(line, now);
                        t.time(PREFETCH, start);
                        t.check(got == want);
                    }
                    L1Call::Fill(line, waiters) => {
                        let start = Instant::now();
                        let got = l1.fill(line, now);
                        t.time(FILL, start);
                        t.check(got.len() as u32 == waiters);
                    }
                    L1Call::Pop(line, store) => {
                        if store {
                            l1.access_store(line, now);
                        }
                        let head = l1.pop_outgoing();
                        t.check(head.is_some_and(|r| r.line == line));
                    }
                }
            }
        });
        total.merge(&tally);
    }
    total
}

/// Replays the recorded interconnect injections through a standalone
/// `Interconnect` and `MemoryPartition`, in the order `Gpu::step`
/// drives them. The partition answers on its own; a response counts
/// as matched when it is the one the real run sent down that cycle.
pub fn replay_mem(rec: &Recording, cfg: &GpuConfig, cycles: u64) -> ReplayTally {
    guarded(|t| {
        let mut noc = Interconnect::new(cfg.noc_bytes_per_cycle, cfg.noc_latency, cfg.bw_window);
        let mut part = MemoryPartition::new(cfg);
        let line_bytes = u64::from(cfg.l1.line_bytes);
        let mut next = 0;
        let sends = &rec.noc;
        for c in 0..cycles {
            let now = Cycle(c);
            let tick = Instant::now();
            noc.begin_cycle(now);
            part.tick(now);
            let mut send_ns = 0;
            let mut want_down = Vec::new();
            while next < sends.len() && sends[next].0 == c {
                let s = sends[next].1;
                next += 1;
                if !s.up {
                    want_down.push((s.sm, s.line));
                    continue;
                }
                let pkt = UpPacket {
                    sm: s.sm,
                    line: s.line,
                    is_store: s.bytes == line_bytes,
                };
                let start = Instant::now();
                let ok = noc.try_send_up(pkt, s.bytes, now);
                send_ns += t.time(SEND, start);
                t.check(ok);
            }
            while let Some(up) = noc.pop_up(now) {
                if up.is_store {
                    part.push_store(up.line, now);
                } else {
                    part.push_read(up.sm, up.line);
                }
            }
            let mut sent_down = Vec::new();
            while let Some(resp) = part.pop_response() {
                let start = Instant::now();
                let ok = noc.try_send_down(resp, line_bytes, now);
                send_ns += t.time(SEND, start);
                if !ok {
                    part.unpop_response(resp);
                    break;
                }
                let DownPacket { sm, line } = resp;
                sent_down.push((sm, line));
            }
            for (i, want) in want_down.iter().enumerate() {
                t.check(sent_down.get(i) == Some(want));
            }
            while noc.pop_down(now).is_some() {}
            let cycle_ns = tick.elapsed().as_nanos() as u64;
            t.ns[TICK] += cycle_ns.saturating_sub(send_ns);
            t.calls[TICK] += 1;
        }
    })
}
