//! The `snaked` wire format: newline-delimited JSON over a Unix-domain
//! socket, built on the dependency-free `snake_core::json` module.
//!
//! A connection carries exactly one request line. The daemon answers
//! with one response line — `{"ok":true,...}` or
//! `{"ok":false,"error":"..."}` — and for `tail` keeps the connection
//! open, streaming one object per line:
//!
//! - `{"type":"stream","job":"lps/snake","from":N}` — a per-job ring
//!   subscription opened; `from` is the first sequence number the
//!   subscriber can observe (later records may still be dropped).
//! - `{"type":"window",...}` — one metrics window (cycle, IPC, L1 hit
//!   rate, MSHR/miss-queue occupancy, NoC utilization, active warps,
//!   throttled SMs, chain depth, and the eight `stall_*` issue-slot
//!   fractions) plus `seq` and the cumulative `dropped` count.
//! - `{"type":"event",...}` — one trace event (`seq`, `cycle`, `name`,
//!   cumulative `dropped`).
//! - `{"type":"progress",...}` — the sweep counters, emitted whenever
//!   they change.
//! - `{"type":"done","state":...,"exit":N,"delivered":N,"dropped":N}`
//!   — terminal; `dropped` is the exact number of records this
//!   subscriber missed (ring overflow), never silently hidden.
//!
//! Drop accounting is end-to-end checkable: starting from each
//! `stream` line's `from`, the gaps in the delivered `seq` numbers sum
//! to the final `dropped` — [`client::tail`](super::client::tail)
//! verifies exactly that.

use snake_core::json::Value;
use snake_sim::{MetricsSample, TelemetryRecord, TraceEvent};

use crate::supervise::ProgressSnapshot;

/// A submitted sweep description, before benchmark/mechanism parsing.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SubmitSpec {
    /// Comma-separated benchmark list; `None` means the full suite.
    pub benchmarks: Option<String>,
    /// Comma-separated mechanism list; `None` means all mechanisms.
    pub mechanisms: Option<String>,
    /// Use the quick (scaled-down) harness instead of the standard one.
    pub quick: bool,
    /// Per-job cycle budget override.
    pub budget: Option<u64>,
    /// Metrics window in cycles (default 500).
    pub window: Option<u64>,
    /// Also stream per-cycle trace events (not just window rows).
    pub events: bool,
    /// Run every job of this sweep in a sandboxed worker subprocess
    /// (crash/rlimit containment). Mutually exclusive with `events`:
    /// the child protocol carries window rows losslessly but not the
    /// full trace-event stream.
    pub isolate: bool,
    /// Scheduling priority; higher runs first, FIFO within a priority.
    pub priority: u64,
    /// Client id for quota accounting (`snakectl --client`); anonymous
    /// submits share one bucket.
    pub client: Option<String>,
    /// Wall-clock budget per scheduling slice, in milliseconds: when it
    /// expires the running simulation suspends to a checkpoint and the
    /// job re-queues at its priority. Requires checkpointing.
    pub deadline_ms: Option<u64>,
    /// Mid-simulation checkpoint cadence in cycles (overrides the
    /// daemon default); what makes the job resurrectable after a crash.
    pub checkpoint_every: Option<u64>,
}

impl SubmitSpec {
    /// Serializes as a bare object of the non-default fields — shared
    /// by the `submit` wire line and the daemon's state journal, so a
    /// restarted daemon re-resolves exactly what was submitted.
    pub fn to_json(&self) -> Value {
        let mut fields = Vec::new();
        if let Some(b) = &self.benchmarks {
            fields.push(("benchmarks".into(), Value::str(b)));
        }
        if let Some(m) = &self.mechanisms {
            fields.push(("mechanisms".into(), Value::str(m)));
        }
        if self.quick {
            fields.push(("quick".into(), Value::Bool(true)));
        }
        if let Some(b) = self.budget {
            fields.push(("budget".into(), Value::u64(b)));
        }
        if let Some(w) = self.window {
            fields.push(("window".into(), Value::u64(w)));
        }
        if self.events {
            fields.push(("events".into(), Value::Bool(true)));
        }
        if self.isolate {
            fields.push(("isolate".into(), Value::Bool(true)));
        }
        if self.priority != 0 {
            fields.push(("priority".into(), Value::u64(self.priority)));
        }
        if let Some(c) = &self.client {
            fields.push(("client".into(), Value::str(c)));
        }
        if let Some(d) = self.deadline_ms {
            fields.push(("deadline_ms".into(), Value::u64(d)));
        }
        if let Some(n) = self.checkpoint_every {
            fields.push(("checkpoint_every".into(), Value::u64(n)));
        }
        Value::obj(fields)
    }

    /// Parses the spec fields out of an object; absent fields default.
    pub fn from_json(v: &Value) -> SubmitSpec {
        let field = |k: &str| v.get(k).and_then(Value::as_str).map(str::to_string);
        SubmitSpec {
            benchmarks: field("benchmarks"),
            mechanisms: field("mechanisms"),
            quick: v.get("quick").and_then(Value::as_bool).unwrap_or(false),
            budget: v.get("budget").and_then(Value::as_u64),
            window: v.get("window").and_then(Value::as_u64),
            events: v.get("events").and_then(Value::as_bool).unwrap_or(false),
            isolate: v.get("isolate").and_then(Value::as_bool).unwrap_or(false),
            priority: v.get("priority").and_then(Value::as_u64).unwrap_or(0),
            client: field("client"),
            deadline_ms: v.get("deadline_ms").and_then(Value::as_u64),
            checkpoint_every: v.get("checkpoint_every").and_then(Value::as_u64),
        }
    }
}

/// One parsed request line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Queue a sweep; answered with `{"ok":true,"id":N}`.
    Submit(SubmitSpec),
    /// Report job states — all jobs, or one if `id` is given.
    Status {
        /// Restrict to a single job.
        id: Option<u64>,
    },
    /// Subscribe to a job's telemetry stream.
    Tail {
        /// The job to follow.
        id: u64,
        /// Ring index to start at (0 = from the job's first sub-job);
        /// a reconnecting client resumes at the ring it was cut off in.
        ring: u64,
        /// Sequence number to resume the first ring's subscription
        /// from; records the ring already overwrote are *counted* as
        /// dropped, keeping the sequence arithmetic verifiable.
        from: Option<u64>,
    },
    /// Cancel a queued or running job.
    Cancel {
        /// The job to cancel.
        id: u64,
    },
    /// Report daemon health: journal degradation counters, disconnect
    /// and checkpoint totals.
    Health,
    /// Stop accepting work, cancel everything, and exit.
    Shutdown,
}

impl Request {
    /// Parses one request line.
    pub fn parse(line: &str) -> Result<Request, String> {
        let v = snake_core::json::parse(line).map_err(|e| format!("bad json: {e}"))?;
        let op = v
            .get("op")
            .and_then(Value::as_str)
            .ok_or_else(|| "missing \"op\"".to_string())?;
        let id = |required: bool| -> Result<Option<u64>, String> {
            match v.get("id") {
                Some(n) => n
                    .as_u64()
                    .map(Some)
                    .ok_or_else(|| "\"id\" must be a non-negative integer".to_string()),
                None if required => Err("missing \"id\"".to_string()),
                None => Ok(None),
            }
        };
        match op {
            "submit" => Ok(Request::Submit(SubmitSpec::from_json(&v))),
            "status" => Ok(Request::Status { id: id(false)? }),
            "tail" => Ok(Request::Tail {
                id: id(true)?.expect("required id"),
                ring: v.get("ring").and_then(Value::as_u64).unwrap_or(0),
                from: v.get("from").and_then(Value::as_u64),
            }),
            "cancel" => Ok(Request::Cancel {
                id: id(true)?.expect("required id"),
            }),
            "health" => Ok(Request::Health),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(format!("unknown op {other:?}")),
        }
    }

    /// Renders the request as its wire line (without the newline).
    pub fn to_json(&self) -> Value {
        match self {
            Request::Submit(s) => {
                let mut fields = vec![("op".into(), Value::str("submit"))];
                if let Value::Obj(spec_fields) = s.to_json() {
                    fields.extend(spec_fields);
                }
                Value::obj(fields)
            }
            Request::Status { id } => {
                let mut fields = vec![("op".into(), Value::str("status"))];
                if let Some(id) = id {
                    fields.push(("id".into(), Value::u64(*id)));
                }
                Value::obj(fields)
            }
            Request::Tail { id, ring, from } => {
                let mut fields = vec![
                    ("op".into(), Value::str("tail")),
                    ("id".into(), Value::u64(*id)),
                ];
                if *ring != 0 {
                    fields.push(("ring".into(), Value::u64(*ring)));
                }
                if let Some(seq) = from {
                    fields.push(("from".into(), Value::u64(*seq)));
                }
                Value::obj(fields)
            }
            Request::Cancel { id } => Value::obj(vec![
                ("op".into(), Value::str("cancel")),
                ("id".into(), Value::u64(*id)),
            ]),
            Request::Health => Value::obj(vec![("op".into(), Value::str("health"))]),
            Request::Shutdown => Value::obj(vec![("op".into(), Value::str("shutdown"))]),
        }
    }
}

/// `{"ok":true,...fields}`.
pub fn ok_line(fields: Vec<(Box<str>, Value)>) -> Value {
    let mut all = vec![("ok".into(), Value::Bool(true))];
    all.extend(fields);
    Value::obj(all)
}

/// `{"ok":false,"error":...}`.
pub fn err_line(message: &str) -> Value {
    Value::obj(vec![
        ("ok".into(), Value::Bool(false)),
        ("error".into(), Value::str(message)),
    ])
}

/// `{"ok":false,"error":...,"code":...}` — a *typed* rejection the
/// client can dispatch on (e.g. `"quota"` → `snakectl` exit code 8)
/// instead of string-matching the message.
pub fn err_line_coded(message: &str, code: &str) -> Value {
    Value::obj(vec![
        ("ok".into(), Value::Bool(false)),
        ("error".into(), Value::str(message)),
        ("code".into(), Value::str(code)),
    ])
}

/// The `stream` line announcing a per-job ring subscription.
pub fn stream_line(job: &str, from: u64) -> Value {
    Value::obj(vec![
        ("type".into(), Value::str("stream")),
        ("job".into(), Value::str(job)),
        ("from".into(), Value::u64(from)),
    ])
}

/// The `stream_end` line closing a per-job ring subscription: `next`
/// is the sequence one past the last record the ring ever produced, so
/// a trailing gap (records dropped and never followed by a delivered
/// one — e.g. a ring produced entirely before the subscriber arrived)
/// is still visible arithmetic, not silent absence.
pub fn stream_end_line(job: &str, next: u64) -> Value {
    Value::obj(vec![
        ("type".into(), Value::str("stream_end")),
        ("job".into(), Value::str(job)),
        ("next".into(), Value::u64(next)),
    ])
}

/// One metrics window as a stream line.
pub fn window_line(job: &str, seq: u64, s: &MetricsSample, dropped: u64) -> Value {
    Value::obj(vec![
        ("type".into(), Value::str("window")),
        ("job".into(), Value::str(job)),
        ("seq".into(), Value::u64(seq)),
        ("cycle".into(), Value::u64(s.cycle)),
        ("ipc".into(), Value::f64(s.ipc)),
        ("l1_hit_rate".into(), Value::f64(s.l1_hit_rate)),
        ("mshr_occupancy".into(), Value::f64(s.mshr_occupancy)),
        (
            "miss_queue_occupancy".into(),
            Value::f64(s.miss_queue_occupancy),
        ),
        ("noc_utilization".into(), Value::f64(s.noc_utilization)),
        ("active_warps".into(), Value::u64(s.active_warps as u64)),
        ("throttled_sms".into(), Value::u64(s.throttled_sms as u64)),
        ("chain_depth".into(), Value::u64(u64::from(s.chain_depth))),
        ("stall_issued".into(), Value::f64(s.stall_issued)),
        ("stall_no_warp".into(), Value::f64(s.stall_no_warp)),
        ("stall_barrier".into(), Value::f64(s.stall_barrier)),
        ("stall_scoreboard".into(), Value::f64(s.stall_scoreboard)),
        ("stall_mem_data".into(), Value::f64(s.stall_mem_data)),
        ("stall_mem_mshr".into(), Value::f64(s.stall_mem_mshr)),
        ("stall_mem_missq".into(), Value::f64(s.stall_mem_missq)),
        ("stall_mem_noc".into(), Value::f64(s.stall_mem_noc)),
        ("dropped".into(), Value::u64(dropped)),
    ])
}

/// One trace event as a stream line.
pub fn event_line(job: &str, seq: u64, e: &TraceEvent, dropped: u64) -> Value {
    Value::obj(vec![
        ("type".into(), Value::str("event")),
        ("job".into(), Value::str(job)),
        ("seq".into(), Value::u64(seq)),
        ("cycle".into(), Value::u64(e.cycle.0)),
        ("name".into(), Value::str(e.data.name())),
        ("dropped".into(), Value::u64(dropped)),
    ])
}

/// One telemetry record as a stream line.
pub fn record_line(job: &str, seq: u64, rec: &TelemetryRecord, dropped: u64) -> Value {
    match rec {
        TelemetryRecord::Window(s) => window_line(job, seq, s, dropped),
        TelemetryRecord::Event(e) => event_line(job, seq, e, dropped),
    }
}

/// The sweep counters as a stream line.
pub fn progress_line(snap: &ProgressSnapshot) -> Value {
    let mut fields = vec![("type".into(), Value::str("progress"))];
    if let Value::Obj(counters) = snap.to_json() {
        fields.extend(counters);
    }
    Value::obj(fields)
}

/// The terminal stream line.
pub fn done_line(state: &str, exit: i32, delivered: u64, dropped: u64) -> Value {
    // Exit codes are small non-negative constants; the json module is
    // unsigned-only, which is fine here.
    Value::obj(vec![
        ("type".into(), Value::str("done")),
        ("state".into(), Value::str(state)),
        ("exit".into(), Value::u64(exit.max(0) as u64)),
        ("delivered".into(), Value::u64(delivered)),
        ("dropped".into(), Value::u64(dropped)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn submit_round_trips() {
        let spec = SubmitSpec {
            benchmarks: Some("LPS,CP".into()),
            mechanisms: Some("baseline,snake".into()),
            quick: true,
            budget: Some(6000),
            window: Some(200),
            events: true,
            isolate: true,
            priority: 5,
            client: Some("alice".into()),
            deadline_ms: Some(1500),
            checkpoint_every: Some(2000),
        };
        let line = Request::Submit(spec.clone()).to_json().to_string();
        assert_eq!(Request::parse(&line), Ok(Request::Submit(spec.clone())));
        // The bare-spec object (the journal's `spec` field) agrees.
        assert_eq!(SubmitSpec::from_json(&spec.to_json()), spec);
    }

    #[test]
    fn defaults_are_omitted_and_reparsed() {
        let line = Request::Submit(SubmitSpec::default()).to_json().to_string();
        assert_eq!(line, "{\"op\":\"submit\"}");
        assert_eq!(
            Request::parse(&line),
            Ok(Request::Submit(SubmitSpec::default()))
        );
    }

    #[test]
    fn ops_round_trip() {
        for req in [
            Request::Status { id: None },
            Request::Status { id: Some(3) },
            Request::Tail {
                id: 1,
                ring: 0,
                from: None,
            },
            Request::Tail {
                id: 1,
                ring: 2,
                from: Some(777),
            },
            Request::Cancel { id: 9 },
            Request::Health,
            Request::Shutdown,
        ] {
            assert_eq!(Request::parse(&req.to_json().to_string()), Ok(req));
        }
    }

    #[test]
    fn coded_errors_carry_their_code() {
        let line = err_line_coded("too many queued jobs", "quota").to_string();
        let v = snake_core::json::parse(&line).unwrap();
        assert_eq!(v.get("ok").and_then(Value::as_bool), Some(false));
        assert_eq!(v.get("code").and_then(Value::as_str), Some("quota"));
    }

    #[test]
    fn bad_requests_are_rejected() {
        assert!(Request::parse("nonsense").is_err());
        assert!(Request::parse("{\"op\":\"warp\"}").is_err());
        assert!(Request::parse("{\"op\":\"tail\"}").is_err());
        assert!(Request::parse("{\"op\":\"tail\",\"id\":\"x\"}").is_err());
    }

    #[test]
    fn hostile_nesting_is_rejected_not_a_stack_overflow() {
        // A socket line of 100k `[` runs on a worker-sized stack.
        let err = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(|| Request::parse(&"[".repeat(100_000)).unwrap_err())
            .unwrap()
            .join()
            .expect("parsing must not overflow the stack");
        let depth = snake_core::json::MAX_DEPTH;
        assert_eq!(
            err,
            format!(
                "bad json: JSON parse error at byte {depth}: nesting deeper than {depth} levels"
            )
        );
    }
}
