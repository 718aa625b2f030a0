//! Process-isolated job execution: the [`JobExecutor`] abstraction
//! behind the sweep supervisor and the `snaked` scheduler.
//!
//! Two execution modes share one contract:
//!
//! - **In-thread** — the historical path: the job runs on the calling
//!   worker thread behind `catch_unwind`. Cheap, but a job that
//!   aborts, overflows its stack, segfaults, or gets OOM-killed takes
//!   the whole supervisor (and every co-tenant's jobs) down with it.
//! - **Sandbox** — the job runs in a *subprocess*: the `repro` binary
//!   re-executed in its hidden `--exec-job` worker mode. The job spec
//!   travels down a pipe as one NDJSON line (the complete harness is
//!   serialized field-by-field through `snake_core::json`, so the
//!   child reconstructs it bit-exactly), and the child streams
//!   telemetry window rows, checkpoint notices, and one terminal line
//!   back up. Per-job rlimits (address space, CPU time) are applied
//!   via a `/bin/sh` `ulimit` wrapper — the workspace is
//!   dependency-free, so no `libc` — and a supervisor-side wall-clock
//!   lease ends in `SIGKILL`.
//!
//! Child death is decoded into a typed [`CrashKind`] that flows into
//! quarantine records, the daemon journal, `snakectl status`, and the
//! retry policy. Reports are **byte-identical** across executors: the
//! harness, the report, and the stop reason all round-trip through
//! lexeme-preserving JSON. A killed child resumes from its newest
//! durable checkpoint exactly as a deadline-suspended job does, and a
//! failed `spawn` degrades gracefully to in-thread execution with a
//! sticky health flag (see [`JobExecutor::degraded`]).

use std::io::{BufRead, BufReader, Read, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitStatus, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use snake_core::json::{self, Value};
use snake_core::MechanismReport;
use snake_sim::snapshot::Checkpoint;
use snake_sim::{
    Brownout, CacheGeometry, EnergyModel, FaultPlan, GpuConfig, MetricsSample, Recovery,
    SchedulerPolicy, SimError, StopReason, TelemetryRecord, TelemetryRing,
};
use snake_workloads::WorkloadSize;

use super::JobSpec;
use crate::runner::{Harness, JobError, JobRun, RunOutput};

/// Environment variable overriding the worker binary the sandbox
/// re-executes (normally the `repro` binary is located automatically).
/// Pointing it at something that is not a worker is a supported chaos
/// hook: a missing path exercises the degrade-to-in-thread fallback,
/// a misbehaving one exercises [`CrashKind::ProtocolError`].
pub const WORKER_ENV: &str = "SNAKE_EXEC_WORKER";

/// Environment variable injecting crashes into sandboxed children for
/// tests and CI smokes: a comma-separated list of `<job-id>=<mode>`
/// pairs, where mode is `abort`, `oom` (address-space blowout),
/// `segv`, `kill9`, or `hang`. Read only inside the `--exec-job`
/// worker, after the job spec is parsed — the supervisor process is
/// never affected.
pub const CRASH_ENV: &str = "SNAKE_EXEC_CRASH";

/// How a sandboxed child died, decoded from its wait status and
/// captured stderr. The kind is preserved through retries into the
/// quarantine record, the manifest, the daemon journal, and
/// `snakectl status`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashKind {
    /// The child panicked (Rust panic exit code 101). Panics are
    /// deterministic under the fixed seeds, so the sandbox does not
    /// retry them.
    Panic,
    /// The child was killed by the given signal (SIGABRT 6,
    /// SIGSEGV 11, SIGKILL 9, ...).
    Signal(i32),
    /// The child died failing to allocate memory: SIGABRT with the
    /// Rust allocation-failure signature on stderr — the shape an
    /// address-space rlimit produces.
    OomKilled,
    /// The child exceeded its CPU rlimit (SIGXCPU) or its
    /// supervisor-side wall-clock lease (SIGKILL from the lease
    /// monitor).
    TimedOut,
    /// The child exited without a valid terminal protocol line — a
    /// torn pipe, truncated NDJSON, or an unexpected exit code. Never
    /// mis-parsed into a report: anything short of a byte-exact
    /// terminal line lands here.
    ProtocolError,
}

/// SIGXCPU — delivered when the `ulimit -t` CPU rlimit expires.
const SIGXCPU: i32 = 24;
/// SIGABRT — `std::process::abort()` and the Rust alloc-error handler.
const SIGABRT: i32 = 6;

impl CrashKind {
    /// Stable lower-case label used in manifests, the journal, and
    /// status output (`"panic"`, `"signal 11"`, `"oom"`, `"timeout"`,
    /// `"protocol"`).
    pub fn label(&self) -> String {
        match self {
            CrashKind::Panic => "panic".into(),
            CrashKind::Signal(n) => format!("signal {n}"),
            CrashKind::OomKilled => "oom".into(),
            CrashKind::TimedOut => "timeout".into(),
            CrashKind::ProtocolError => "protocol".into(),
        }
    }

    /// Parses a [`CrashKind::label`] back; `None` for foreign strings
    /// (old manifests carry no kind at all, never a bad one).
    pub fn parse(label: &str) -> Option<CrashKind> {
        match label {
            "panic" => Some(CrashKind::Panic),
            "oom" => Some(CrashKind::OomKilled),
            "timeout" => Some(CrashKind::TimedOut),
            "protocol" => Some(CrashKind::ProtocolError),
            other => {
                let n = other.strip_prefix("signal ")?;
                n.parse().ok().map(CrashKind::Signal)
            }
        }
    }

    /// Whether the supervisor should spend retry budget on this kind.
    /// Panics are deterministic (fixed seeds) and a timeout would just
    /// burn the lease again from the same state, so neither retries;
    /// signals, OOM kills, and protocol tears may be environmental and
    /// retry into quarantine with the kind preserved.
    pub fn retryable(&self) -> bool {
        !matches!(self, CrashKind::Panic | CrashKind::TimedOut)
    }
}

impl std::fmt::Display for CrashKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.label())
    }
}

/// A decoded child death: the kind, a one-line description, and the
/// tail of the child's captured stderr (bounded).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrashReport {
    /// What killed the child.
    pub kind: CrashKind,
    /// Human-readable one-liner for the quarantine table.
    pub message: String,
    /// Last stderr excerpt (panic message, abort notice, ...), empty
    /// when the child wrote nothing.
    pub stderr: String,
}

/// Why an executor run failed — richer than [`SimError`] because a
/// sandboxed child can die in ways an in-thread run cannot.
#[derive(Debug)]
pub enum ExecError {
    /// A typed simulator error from the in-thread path (invalid
    /// configuration, unusable checkpoint). Deterministic: quarantined
    /// without retry.
    Sim(SimError),
    /// A typed error reported *by the child* over the protocol — the
    /// sandboxed twin of [`ExecError::Sim`]. Quarantined without
    /// retry.
    Typed(String),
    /// The `resume_from` checkpoint could not be loaded or restored
    /// (missing, torn, or from another configuration), in-thread or in
    /// the child. The supervisor reruns the job from cycle zero.
    Resume(String),
    /// A retryable in-band failure (a deadlocked run reported by the
    /// child); handled exactly like an in-thread deadlock.
    Failure(String),
    /// The child process died; see [`CrashReport`].
    Crash(CrashReport),
}

impl From<SimError> for ExecError {
    fn from(e: SimError) -> Self {
        ExecError::Sim(e)
    }
}

impl From<JobError> for ExecError {
    fn from(e: JobError) -> Self {
        match e {
            JobError::Resume(e) => ExecError::Resume(e.to_string()),
            JobError::Run(e) => ExecError::Sim(e),
        }
    }
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::Sim(e) => write!(f, "{e}"),
            ExecError::Typed(m) | ExecError::Resume(m) | ExecError::Failure(m) => f.write_str(m),
            ExecError::Crash(c) => write!(f, "{}: {}", c.kind, c.message),
        }
    }
}

/// Decodes a child wait status (plus its captured stderr and whether
/// the supervisor's lease monitor fired) into a [`CrashKind`].
///
/// Only called when the child did *not* deliver a valid terminal
/// protocol line — a clean exit without one is a protocol error by
/// definition.
pub fn decode_exit(status: &ExitStatus, stderr: &str, lease_killed: bool) -> CrashKind {
    use std::os::unix::process::ExitStatusExt;
    if lease_killed {
        return CrashKind::TimedOut;
    }
    match status.signal() {
        Some(SIGXCPU) => CrashKind::TimedOut,
        Some(SIGABRT) if is_alloc_failure(stderr) => CrashKind::OomKilled,
        Some(n) => CrashKind::Signal(n),
        None => match status.code() {
            Some(101) => CrashKind::Panic,
            _ => CrashKind::ProtocolError,
        },
    }
}

/// The Rust alloc-error handler prints
/// `memory allocation of N bytes failed` before aborting — the
/// signature that distinguishes an OOM abort from a plain abort.
fn is_alloc_failure(stderr: &str) -> bool {
    stderr.contains("memory allocation of") && stderr.contains("failed")
}

/// Resource limits for sandboxed children. `None` fields are
/// unlimited; the wall-clock lease is enforced supervisor-side with
/// `SIGKILL`, the rest via `ulimit` in the spawn wrapper.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SandboxLimits {
    /// Address-space cap in MiB (`ulimit -v`).
    pub mem_mb: Option<u64>,
    /// CPU-time cap in seconds (`ulimit -t`, delivers SIGXCPU).
    pub cpu_secs: Option<u64>,
    /// Wall-clock lease per job; on expiry the child is SIGKILLed and
    /// the job either resumes from its newest checkpoint or is
    /// quarantined as [`CrashKind::TimedOut`].
    pub lease: Option<Duration>,
}

/// How a [`JobExecutor`] runs jobs.
#[derive(Debug, Clone)]
enum ExecMode {
    /// On the calling thread, behind `catch_unwind` (historical path).
    InThread,
    /// In a sandboxed subprocess with the given limits.
    Sandbox {
        limits: SandboxLimits,
        /// Worker binary override (tests); `None` resolves `repro`
        /// automatically.
        worker: Option<PathBuf>,
    },
}

/// Everything a single job run needs besides the harness: resume /
/// checkpoint paths, suspension policy, cancellation, and the live
/// telemetry ring. All optional — a plain batch run passes
/// [`ExecContext::default`].
#[derive(Default)]
pub struct ExecContext<'a> {
    /// Restore the simulator from this checkpoint before running.
    pub resume_from: Option<&'a Path>,
    /// Where checkpoints (periodic and suspension) are written.
    pub checkpoint_to: Option<&'a Path>,
    /// Suspend once the simulation reaches this cycle (test knob,
    /// `repro --suspend-after`); needs `checkpoint_to`.
    pub suspend_after: Option<u64>,
    /// Wall-clock deadline: the in-thread path suspends cooperatively
    /// (needs `checkpoint_to`), the sandbox kills the child and
    /// resumes from its newest checkpoint.
    pub deadline: Option<Instant>,
    /// Cooperative cancellation flag (daemon `cancel`); the sandbox
    /// polls it and kills the child.
    pub cancel: Option<&'a AtomicBool>,
    /// Live telemetry ring for window rows (daemon `tail`/`top`).
    pub ring: Option<&'a TelemetryRing>,
    /// Also publish the full trace-event stream (in-thread only;
    /// sandboxed children stream window rows).
    pub include_events: bool,
}

/// A job execution strategy shared by a whole campaign (or daemon):
/// either the historical in-thread path or the subprocess sandbox,
/// with one sticky degradation flag across all jobs.
#[derive(Debug)]
pub struct JobExecutor {
    mode: ExecMode,
    /// Set (and never cleared) when a sandbox spawn failed and the job
    /// fell back to in-thread execution; surfaced in `repro` warnings
    /// and daemon `health`.
    degraded: AtomicBool,
}

impl JobExecutor {
    /// The historical in-thread executor.
    pub fn in_thread() -> Self {
        JobExecutor {
            mode: ExecMode::InThread,
            degraded: AtomicBool::new(false),
        }
    }

    /// A subprocess sandbox executor. The worker binary is the
    /// [`WORKER_ENV`] override if set, otherwise the `repro` binary
    /// located relative to the current executable.
    pub fn sandbox(limits: SandboxLimits) -> Self {
        let worker = std::env::var_os(WORKER_ENV).map(PathBuf::from);
        JobExecutor {
            mode: ExecMode::Sandbox { limits, worker },
            degraded: AtomicBool::new(false),
        }
    }

    /// A sandbox executor with an explicit worker binary (tests).
    pub fn sandbox_with_worker(limits: SandboxLimits, worker: PathBuf) -> Self {
        JobExecutor {
            mode: ExecMode::Sandbox {
                limits,
                worker: Some(worker),
            },
            degraded: AtomicBool::new(false),
        }
    }

    /// Whether this executor sandboxes jobs in subprocesses.
    pub fn is_sandbox(&self) -> bool {
        matches!(self.mode, ExecMode::Sandbox { .. })
    }

    /// Sticky health flag: a sandbox spawn failed at least once and
    /// execution degraded to in-thread. Never set by the in-thread
    /// executor.
    pub fn degraded(&self) -> bool {
        self.degraded.load(Ordering::Relaxed)
    }

    /// Runs one job to a [`JobRun`], dispatching on the executor mode.
    /// `on_checkpoint(cycle, bytes)` fires after every durable
    /// checkpoint write (the child's writes included — the supervisor
    /// can journal them before anything else crashes).
    ///
    /// # Errors
    ///
    /// Returns [`ExecError`] for simulator errors (both executors) and
    /// decoded child deaths (sandbox only).
    pub fn run(
        &self,
        h: &Harness,
        job: &JobSpec,
        ctx: &ExecContext<'_>,
        on_checkpoint: &mut dyn FnMut(u64, u64),
    ) -> Result<JobRun, ExecError> {
        match &self.mode {
            ExecMode::InThread => run_in_thread(h, job, ctx, on_checkpoint),
            ExecMode::Sandbox { limits, worker } => {
                if self.degraded() {
                    return run_in_thread(h, job, ctx, on_checkpoint);
                }
                match run_sandbox(h, job, ctx, limits, worker.as_deref(), on_checkpoint) {
                    Ok(result) => result,
                    Err(spawn_err) => {
                        self.degraded.store(true, Ordering::Relaxed);
                        eprintln!(
                            "supervise: sandbox spawn failed ({spawn_err}); \
                             degrading to in-thread execution"
                        );
                        run_in_thread(h, job, ctx, on_checkpoint)
                    }
                }
            }
        }
    }
}

/// The in-thread implementation: the job runs on the calling thread.
fn run_in_thread(
    h: &Harness,
    job: &JobSpec,
    ctx: &ExecContext<'_>,
    on_checkpoint: &mut dyn FnMut(u64, u64),
) -> Result<JobRun, ExecError> {
    h.run_job_phased(job.bench, job.kind, ctx, on_checkpoint)
        .map_err(ExecError::from)
}

// ---------------------------------------------------------------------------
// Sandbox parent side
// ---------------------------------------------------------------------------

/// Locates the worker binary when no override is given: `repro` is
/// either the current executable itself, a sibling of it, or (for
/// test binaries under `target/*/deps/`) a sibling of its directory.
fn locate_worker() -> Option<PathBuf> {
    let exe = std::env::current_exe().ok()?;
    if exe.file_name().is_some_and(|n| n == "repro") {
        return Some(exe);
    }
    let dir = exe.parent()?;
    [dir.join("repro"), dir.parent()?.join("repro")]
        .into_iter()
        .find(|cand| cand.is_file())
}

/// Builds the child command: a direct `repro --exec-job` when no
/// rlimits apply, or the same behind a `/bin/sh` `ulimit` wrapper (the
/// workspace has no `libc`, so rlimits are set by the shell between
/// `fork` and `exec`). `0` means "leave unlimited" inside the script.
fn worker_command(worker: &Path, limits: &SandboxLimits) -> Command {
    if limits.mem_mb.is_none() && limits.cpu_secs.is_none() {
        let mut cmd = Command::new(worker);
        cmd.arg("--exec-job");
        return cmd;
    }
    let mut cmd = Command::new("/bin/sh");
    cmd.arg("-c")
        .arg(r#"[ "$1" -gt 0 ] && ulimit -v "$1"; [ "$2" -gt 0 ] && ulimit -t "$2"; shift 2; exec "$@""#)
        .arg("sh")
        .arg(limits.mem_mb.map_or(0, |mb| mb * 1024).to_string())
        .arg(limits.cpu_secs.unwrap_or(0).to_string())
        .arg(worker)
        .arg("--exec-job");
    cmd
}

/// Kills the child, tolerating an already-dead one and a poisoned
/// lock (a panicking sibling must not leak the process).
fn kill_child(child: &Mutex<Child>) {
    let mut guard = child.lock().unwrap_or_else(|e| e.into_inner());
    let _ = guard.kill();
}

/// Runs one job in a sandboxed subprocess. The outer `Err` is a spawn
/// failure (worker missing / fork failed) that the caller degrades on;
/// the inner result is the job's fate.
fn run_sandbox(
    h: &Harness,
    job: &JobSpec,
    ctx: &ExecContext<'_>,
    limits: &SandboxLimits,
    worker: Option<&Path>,
    on_checkpoint: &mut dyn FnMut(u64, u64),
) -> Result<Result<JobRun, ExecError>, std::io::Error> {
    let resolved;
    let worker = match worker {
        Some(w) => w,
        None => {
            resolved = locate_worker().ok_or_else(|| {
                std::io::Error::new(std::io::ErrorKind::NotFound, "no repro worker binary found")
            })?;
            &resolved
        }
    };
    // A sandboxed child writes *periodic* checkpoints so a kill loses
    // bounded work; default the cadence when the caller enabled
    // checkpointing but set none (the in-thread path only checkpoints
    // on suspension, where no cadence is needed).
    let mut spec_h = h.clone();
    if ctx.checkpoint_to.is_some() && spec_h.cfg.checkpoint_every.is_none() {
        spec_h.cfg.checkpoint_every = Some(2000);
    }
    let spec_line = worker_spec_json(
        &spec_h,
        job,
        ctx.resume_from,
        ctx.checkpoint_to,
        ctx.suspend_after,
        ctx.ring.is_some(),
    )
    .to_string();

    let mut cmd = worker_command(worker, limits);
    cmd.stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped());
    let mut child = cmd.spawn()?;
    // Pipe handles are taken before the child goes behind the mutex.
    let mut stdin = child.stdin.take().expect("child stdin piped");
    let stdout = child.stdout.take().expect("child stdout piped");
    let stderr = child.stderr.take().expect("child stderr piped");
    // A child that dies before reading its spec is handled by the
    // decode path below, so a broken pipe here is not fatal.
    let _ = writeln!(stdin, "{spec_line}");
    drop(stdin);

    let child = Mutex::new(child);
    let done = AtomicBool::new(false);
    let lease_killed = AtomicBool::new(false);
    let cancelled = AtomicBool::new(false);
    let started = Instant::now();
    let lease_at = match (ctx.deadline, limits.lease.map(|d| started + d)) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (a, b) => a.or(b),
    };

    let mut terminal: Option<ChildLine> = None;
    let mut garbage: Option<String> = None;
    let (status, child_stderr) = std::thread::scope(|s| {
        let stderr_tail = s.spawn(move || read_bounded_tail(stderr, 8192));
        s.spawn(|| {
            // Lease / cancellation monitor: the only thing that can
            // stop a wedged child is SIGKILL from out here.
            loop {
                if done.load(Ordering::Relaxed) {
                    return;
                }
                if ctx.cancel.is_some_and(|c| c.load(Ordering::Relaxed)) {
                    cancelled.store(true, Ordering::Relaxed);
                    kill_child(&child);
                    return;
                }
                if lease_at.is_some_and(|t| Instant::now() >= t) {
                    lease_killed.store(true, Ordering::Relaxed);
                    kill_child(&child);
                    return;
                }
                std::thread::sleep(Duration::from_millis(10));
            }
        });
        for line in BufReader::new(stdout).lines() {
            let Ok(line) = line else { break };
            if line.is_empty() {
                continue;
            }
            match parse_child_line(&line) {
                Ok(ChildLine::Window(sample)) => {
                    if let Some(ring) = ctx.ring {
                        ring.push(|| TelemetryRecord::Window(sample));
                    }
                }
                Ok(ChildLine::Checkpoint { cycle, bytes }) => on_checkpoint(cycle, bytes),
                Ok(other) => {
                    terminal = Some(other);
                    break;
                }
                Err(why) => {
                    garbage = Some(why);
                    kill_child(&child);
                    break;
                }
            }
        }
        done.store(true, Ordering::Relaxed);
        let status = child
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .wait()
            .expect("child was spawned, wait cannot fail");
        let tail = stderr_tail.join().unwrap_or_default();
        (status, tail)
    });

    Ok(resolve_child(
        job,
        ctx,
        terminal,
        garbage,
        &status,
        &child_stderr,
        lease_killed.load(Ordering::Relaxed),
        cancelled.load(Ordering::Relaxed),
    ))
}

/// Turns what the child left behind — terminal line, wait status,
/// stderr, kill flags — into the job's fate. Pure decision logic, kept
/// apart from the plumbing above.
#[allow(clippy::too_many_arguments)]
fn resolve_child(
    job: &JobSpec,
    ctx: &ExecContext<'_>,
    terminal: Option<ChildLine>,
    garbage: Option<String>,
    status: &ExitStatus,
    stderr: &str,
    lease_killed: bool,
    cancelled: bool,
) -> Result<JobRun, ExecError> {
    if cancelled {
        return Ok(JobRun::Cancelled);
    }
    if garbage.is_none() && status.success() {
        match terminal {
            Some(ChildLine::Finished { output }) => return Ok(JobRun::Finished(output)),
            Some(ChildLine::Suspended { cycle, checkpoint }) => {
                return Ok(JobRun::Suspended { cycle, checkpoint })
            }
            Some(ChildLine::Cancelled) => return Ok(JobRun::Cancelled),
            Some(ChildLine::Failed { message }) => return Err(ExecError::Failure(message)),
            Some(ChildLine::Error { message }) => return Err(ExecError::Typed(message)),
            Some(ChildLine::Unresumable { message }) => return Err(ExecError::Resume(message)),
            Some(ChildLine::Window(_) | ChildLine::Checkpoint { .. }) => unreachable!(),
            None => {} // clean exit, no terminal line: protocol error
        }
    }
    let kind = match &garbage {
        Some(_) => CrashKind::ProtocolError,
        None => decode_exit(status, stderr, lease_killed),
    };
    // A lease or CPU-limit kill with a durable checkpoint is not a
    // failure: the job suspends exactly like a deadline-suspended one
    // and `--resume` finishes it bit-identically.
    if kind == CrashKind::TimedOut {
        if let Some(path) = ctx.checkpoint_to {
            if let Ok(ckpt) = Checkpoint::load(path) {
                return Ok(JobRun::Suspended {
                    cycle: ckpt.cycle().unwrap_or(0),
                    checkpoint: path.display().to_string(),
                });
            }
        }
    }
    let message = match (&kind, &garbage) {
        (CrashKind::ProtocolError, Some(why)) => format!("sandbox protocol error: {why}"),
        (CrashKind::ProtocolError, None) => {
            format!("sandbox protocol error: child exited ({status}) without a terminal line")
        }
        (CrashKind::TimedOut, _) => format!(
            "sandboxed job {} exceeded its lease with no durable checkpoint",
            job.id()
        ),
        (CrashKind::OomKilled, _) => format!("sandboxed job {} was killed by OOM", job.id()),
        (kind, _) => format!("sandboxed job {} died: {kind}", job.id()),
    };
    Err(ExecError::Crash(CrashReport {
        kind,
        message,
        stderr: stderr_excerpt(stderr),
    }))
}

/// Reads a stream to EOF keeping only the last `cap` bytes.
fn read_bounded_tail(mut from: impl Read, cap: usize) -> String {
    let mut tail: Vec<u8> = Vec::new();
    let mut buf = [0u8; 1024];
    while let Ok(n) = from.read(&mut buf) {
        if n == 0 {
            break;
        }
        tail.extend_from_slice(&buf[..n]);
        if tail.len() > cap {
            let cut = tail.len() - cap;
            tail.drain(..cut);
        }
    }
    String::from_utf8_lossy(&tail).into_owned()
}

/// Distills captured stderr into a short quarantine-table excerpt:
/// the most diagnostic line (a panic or alloc-failure message beats
/// backtrace chatter), else the last non-empty line, bounded.
fn stderr_excerpt(stderr: &str) -> String {
    let line = stderr
        .lines()
        .rev()
        .find(|l| {
            let l = l.trim();
            l.contains("panicked at") || l.contains("memory allocation of")
        })
        .or_else(|| stderr.lines().rev().find(|l| !l.trim().is_empty()))
        .unwrap_or("")
        .trim();
    let mut excerpt: String = line.chars().take(200).collect();
    if excerpt.len() < line.len() {
        excerpt.push('…');
    }
    excerpt
}

// ---------------------------------------------------------------------------
// Wire format: the job spec (parent → child)
// ---------------------------------------------------------------------------

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

fn opt_u64(fields: &mut Vec<(&str, Value)>, key: &'static str, v: Option<u64>) {
    if let Some(n) = v {
        fields.push((key, Value::u64(n)));
    }
}

fn req<'a>(v: &'a Value, key: &str) -> Result<&'a Value, String> {
    v.get(key).ok_or_else(|| format!("missing field {key:?}"))
}

fn req_u64(v: &Value, key: &str) -> Result<u64, String> {
    req(v, key)?
        .as_u64()
        .ok_or_else(|| format!("field {key:?} is not a u64"))
}

fn req_u32(v: &Value, key: &str) -> Result<u32, String> {
    req(v, key)?
        .as_u32()
        .ok_or_else(|| format!("field {key:?} is not a u32"))
}

fn req_f64(v: &Value, key: &str) -> Result<f64, String> {
    req(v, key)?
        .as_f64()
        .ok_or_else(|| format!("field {key:?} is not a number"))
}

fn req_bool(v: &Value, key: &str) -> Result<bool, String> {
    req(v, key)?
        .as_bool()
        .ok_or_else(|| format!("field {key:?} is not a bool"))
}

fn req_str(v: &Value, key: &str) -> Result<String, String> {
    Ok(req(v, key)?
        .as_str()
        .ok_or_else(|| format!("field {key:?} is not a string"))?
        .to_string())
}

fn get_u64(v: &Value, key: &str) -> Result<Option<u64>, String> {
    match v.get(key) {
        None => Ok(None),
        Some(f) => f
            .as_u64()
            .map(Some)
            .ok_or_else(|| format!("field {key:?} is not a u64")),
    }
}

fn cache_to_json(c: &CacheGeometry) -> Value {
    obj(vec![
        ("capacity_bytes", Value::u64(c.capacity_bytes.into())),
        ("line_bytes", Value::u64(c.line_bytes.into())),
        ("ways", Value::u64(c.ways.into())),
    ])
}

fn cache_from_json(v: &Value) -> Result<CacheGeometry, String> {
    Ok(CacheGeometry {
        capacity_bytes: req_u32(v, "capacity_bytes")?,
        line_bytes: req_u32(v, "line_bytes")?,
        ways: req_u32(v, "ways")?,
    })
}

fn fault_to_json(f: &FaultPlan) -> Value {
    let mut fields = vec![
        ("seed", Value::u64(f.seed)),
        ("drop_response", Value::f64(f.drop_response)),
        ("duplicate_response", Value::f64(f.duplicate_response)),
        ("delay_response", Value::f64(f.delay_response)),
        ("delay_cycles", Value::u64(f.delay_cycles)),
    ];
    if let Some(b) = &f.brownout {
        fields.push((
            "brownout",
            obj(vec![
                ("period", Value::u64(b.period)),
                ("active", Value::u64(b.active)),
                ("scale", Value::f64(b.scale)),
            ]),
        ));
    }
    if let Some(r) = &f.recovery {
        fields.push((
            "recovery",
            obj(vec![
                ("timeout", Value::u64(r.timeout)),
                ("max_retries", Value::u64(r.max_retries.into())),
            ]),
        ));
    }
    obj(fields)
}

fn fault_from_json(v: &Value) -> Result<FaultPlan, String> {
    Ok(FaultPlan {
        seed: req_u64(v, "seed")?,
        drop_response: req_f64(v, "drop_response")?,
        duplicate_response: req_f64(v, "duplicate_response")?,
        delay_response: req_f64(v, "delay_response")?,
        delay_cycles: req_u64(v, "delay_cycles")?,
        brownout: match v.get("brownout") {
            None => None,
            Some(b) => Some(Brownout {
                period: req_u64(b, "period")?,
                active: req_u64(b, "active")?,
                scale: req_f64(b, "scale")?,
            }),
        },
        recovery: match v.get("recovery") {
            None => None,
            Some(r) => Some(Recovery {
                timeout: req_u64(r, "timeout")?,
                max_retries: req_u32(r, "max_retries")?,
            }),
        },
    })
}

/// Serializes a complete [`Harness`] — every [`GpuConfig`] field, the
/// workload size, and the energy model — with lexeme-preserving
/// numbers, so the child reconstructs it bit-exactly and its report is
/// byte-identical to an in-thread run's.
pub fn harness_to_json(h: &Harness) -> Value {
    let c = &h.cfg;
    let mut cfg = vec![
        ("num_sms", Value::u64(c.num_sms.into())),
        ("core_clock_mhz", Value::u64(c.core_clock_mhz.into())),
        ("schedulers_per_sm", Value::u64(c.schedulers_per_sm.into())),
        (
            "scheduler",
            Value::str(match c.scheduler {
                SchedulerPolicy::GreedyThenOldest => "greedy_then_oldest",
                SchedulerPolicy::LooseRoundRobin => "loose_round_robin",
            }),
        ),
        ("max_warps_per_sm", Value::u64(c.max_warps_per_sm.into())),
        ("warp_width", Value::u64(c.warp_width.into())),
        (
            "max_outstanding_loads",
            Value::u64(c.max_outstanding_loads.into()),
        ),
        ("l1", cache_to_json(&c.l1)),
        (
            "shared_mem_carveout_bytes",
            Value::u64(c.shared_mem_carveout_bytes.into()),
        ),
        ("l1_hit_latency", Value::u64(c.l1_hit_latency.into())),
        ("mshr_entries", Value::u64(c.mshr_entries.into())),
        ("mshr_merge", Value::u64(c.mshr_merge.into())),
        ("miss_queue_depth", Value::u64(c.miss_queue_depth.into())),
        ("l2", cache_to_json(&c.l2)),
        ("l2_banks", Value::u64(c.l2_banks.into())),
        ("l2_hit_latency", Value::u64(c.l2_hit_latency.into())),
        ("dram_latency", Value::u64(c.dram_latency.into())),
        (
            "dram_bytes_per_cycle",
            Value::u64(c.dram_bytes_per_cycle.into()),
        ),
        (
            "noc_bytes_per_cycle",
            Value::u64(c.noc_bytes_per_cycle.into()),
        ),
        ("noc_latency", Value::u64(c.noc_latency.into())),
        ("bw_window", Value::u64(c.bw_window.into())),
        ("fault", fault_to_json(&c.fault)),
        ("host_profile", Value::Bool(c.host_profile)),
        ("perf_inject_stall_ns", Value::u64(c.perf_inject_stall_ns)),
    ];
    opt_u64(&mut cfg, "max_cycles", c.max_cycles.map(|n| n.0));
    opt_u64(&mut cfg, "cycle_budget", c.cycle_budget.map(|n| n.0));
    opt_u64(&mut cfg, "watchdog_cycles", c.watchdog_cycles);
    opt_u64(&mut cfg, "audit_window", c.audit_window);
    opt_u64(&mut cfg, "metrics_window", c.metrics_window);
    opt_u64(&mut cfg, "checkpoint_every", c.checkpoint_every);
    let size = obj(vec![
        ("warps_per_cta", Value::u64(h.size.warps_per_cta.into())),
        ("ctas", Value::u64(h.size.ctas.into())),
        ("iters", Value::u64(h.size.iters.into())),
        ("seed", Value::u64(h.size.seed)),
    ]);
    let e = &h.energy;
    let energy = obj(vec![
        ("instr_pj", Value::f64(e.instr_pj)),
        ("l1_access_pj", Value::f64(e.l1_access_pj)),
        ("l2_access_pj", Value::f64(e.l2_access_pj)),
        ("dram_access_pj", Value::f64(e.dram_access_pj)),
        ("noc_byte_pj", Value::f64(e.noc_byte_pj)),
        ("prefetcher_access_pj", Value::f64(e.prefetcher_access_pj)),
        ("static_w_per_sm", Value::f64(e.static_w_per_sm)),
        ("prefetcher_static_w", Value::f64(e.prefetcher_static_w)),
    ]);
    obj(vec![
        (
            "cfg",
            Value::Obj(match obj(cfg) {
                Value::Obj(o) => o,
                _ => unreachable!(),
            }),
        ),
        ("size", size),
        ("energy", energy),
    ])
}

/// Reconstructs a [`Harness`] from [`harness_to_json`] output.
///
/// # Errors
///
/// Returns a description of the first missing or mistyped field.
pub fn harness_from_json(v: &Value) -> Result<Harness, String> {
    let c = req(v, "cfg")?;
    let cfg = GpuConfig {
        num_sms: req_u32(c, "num_sms")?,
        core_clock_mhz: req_u32(c, "core_clock_mhz")?,
        schedulers_per_sm: req_u32(c, "schedulers_per_sm")?,
        scheduler: match req_str(c, "scheduler")?.as_str() {
            "greedy_then_oldest" => SchedulerPolicy::GreedyThenOldest,
            "loose_round_robin" => SchedulerPolicy::LooseRoundRobin,
            other => return Err(format!("unknown scheduler policy {other:?}")),
        },
        max_warps_per_sm: req_u32(c, "max_warps_per_sm")?,
        warp_width: req_u32(c, "warp_width")?,
        max_outstanding_loads: req_u32(c, "max_outstanding_loads")?,
        l1: cache_from_json(req(c, "l1")?)?,
        shared_mem_carveout_bytes: req_u32(c, "shared_mem_carveout_bytes")?,
        l1_hit_latency: req_u32(c, "l1_hit_latency")?,
        mshr_entries: req_u32(c, "mshr_entries")?,
        mshr_merge: req_u32(c, "mshr_merge")?,
        miss_queue_depth: req_u32(c, "miss_queue_depth")?,
        l2: cache_from_json(req(c, "l2")?)?,
        l2_banks: req_u32(c, "l2_banks")?,
        l2_hit_latency: req_u32(c, "l2_hit_latency")?,
        dram_latency: req_u32(c, "dram_latency")?,
        dram_bytes_per_cycle: req_u32(c, "dram_bytes_per_cycle")?,
        noc_bytes_per_cycle: req_u32(c, "noc_bytes_per_cycle")?,
        noc_latency: req_u32(c, "noc_latency")?,
        bw_window: req_u32(c, "bw_window")?,
        max_cycles: get_u64(c, "max_cycles")?.map(snake_sim::Cycle),
        cycle_budget: get_u64(c, "cycle_budget")?.map(snake_sim::Cycle),
        watchdog_cycles: get_u64(c, "watchdog_cycles")?,
        fault: fault_from_json(req(c, "fault")?)?,
        audit_window: get_u64(c, "audit_window")?,
        metrics_window: get_u64(c, "metrics_window")?,
        checkpoint_every: get_u64(c, "checkpoint_every")?,
        host_profile: req_bool(c, "host_profile")?,
        perf_inject_stall_ns: req_u64(c, "perf_inject_stall_ns")?,
    };
    let s = req(v, "size")?;
    let size = WorkloadSize {
        warps_per_cta: req_u32(s, "warps_per_cta")?,
        ctas: req_u32(s, "ctas")?,
        iters: req_u32(s, "iters")?,
        seed: req_u64(s, "seed")?,
    };
    let e = req(v, "energy")?;
    let energy = EnergyModel {
        instr_pj: req_f64(e, "instr_pj")?,
        l1_access_pj: req_f64(e, "l1_access_pj")?,
        l2_access_pj: req_f64(e, "l2_access_pj")?,
        dram_access_pj: req_f64(e, "dram_access_pj")?,
        noc_byte_pj: req_f64(e, "noc_byte_pj")?,
        prefetcher_access_pj: req_f64(e, "prefetcher_access_pj")?,
        static_w_per_sm: req_f64(e, "static_w_per_sm")?,
        prefetcher_static_w: req_f64(e, "prefetcher_static_w")?,
    };
    Ok(Harness { cfg, size, energy })
}

/// The single NDJSON spec line shipped to a worker.
fn worker_spec_json(
    h: &Harness,
    job: &JobSpec,
    resume_from: Option<&Path>,
    checkpoint_to: Option<&Path>,
    suspend_after: Option<u64>,
    stream: bool,
) -> Value {
    let mut fields = vec![
        ("v", Value::u64(1)),
        ("job", Value::str(job.id())),
        ("harness", harness_to_json(h)),
        ("stream", Value::Bool(stream)),
    ];
    if let Some(p) = resume_from {
        fields.push(("resume", Value::str(p.display().to_string())));
    }
    if let Some(p) = checkpoint_to {
        fields.push(("checkpoint", Value::str(p.display().to_string())));
    }
    opt_u64(&mut fields, "suspend_after", suspend_after);
    obj(fields)
}

/// A parsed worker spec line (child side).
struct WorkerSpec {
    h: Harness,
    job: JobSpec,
    resume_from: Option<PathBuf>,
    checkpoint_to: Option<PathBuf>,
    suspend_after: Option<u64>,
    stream: bool,
}

fn parse_job_id(id: &str) -> Result<JobSpec, String> {
    let (bench, kind) = id
        .split_once('/')
        .ok_or_else(|| format!("malformed job id {id:?}"))?;
    Ok(JobSpec {
        bench: bench.parse().map_err(|e| format!("{e:?}"))?,
        kind: kind.parse().map_err(|e| format!("{e:?}"))?,
    })
}

fn parse_worker_spec(line: &str) -> Result<WorkerSpec, String> {
    let v = json::parse(line).map_err(|e| format!("malformed spec line: {e}"))?;
    if req_u64(&v, "v")? != 1 {
        return Err("unsupported spec version".into());
    }
    let opt_path = |key: &str| -> Result<Option<PathBuf>, String> {
        match v.get(key) {
            None => Ok(None),
            Some(p) => {
                Ok(Some(PathBuf::from(p.as_str().ok_or_else(|| {
                    format!("field {key:?} is not a string")
                })?)))
            }
        }
    };
    Ok(WorkerSpec {
        h: harness_from_json(req(&v, "harness")?)?,
        job: parse_job_id(&req_str(&v, "job")?)?,
        resume_from: opt_path("resume")?,
        checkpoint_to: opt_path("checkpoint")?,
        suspend_after: get_u64(&v, "suspend_after")?,
        stream: req_bool(&v, "stream")?,
    })
}

// ---------------------------------------------------------------------------
// Wire format: the child's NDJSON stream (child → parent)
// ---------------------------------------------------------------------------

/// One line of the child's NDJSON stream. Telemetry (`Window`,
/// `Checkpoint`) may repeat; everything else is terminal.
#[derive(Debug, Clone, PartialEq)]
pub enum ChildLine {
    /// A closed metrics window, republished into the parent's ring.
    Window(MetricsSample),
    /// A durable periodic checkpoint was written.
    Checkpoint {
        /// Cycle the state was captured at.
        cycle: u64,
        /// Size of the artifact in bytes.
        bytes: u64,
    },
    /// The run finished; carries the bit-exact report, stop reason,
    /// and optional host profile.
    Finished {
        /// The reconstructed run output.
        output: Box<RunOutput>,
    },
    /// The run suspended to a checkpoint (cooperative `suspend_after`).
    Suspended {
        /// Cycle the simulation was suspended at.
        cycle: u64,
        /// Path of the checkpoint artifact.
        checkpoint: String,
    },
    /// The run was cancelled before completion.
    Cancelled,
    /// A retryable in-band failure (deadlock).
    Failed {
        /// The failure description, quarantine-table ready.
        message: String,
    },
    /// A typed simulator error (invalid config, failed checkpoint
    /// write); quarantined without retry, like an in-thread
    /// [`SimError`].
    Error {
        /// The error description.
        message: String,
    },
    /// The resume checkpoint could not be loaded or restored; the
    /// twin of an in-thread [`ExecError::Resume`].
    Unresumable {
        /// The error description.
        message: String,
    },
}

fn sample_to_json(s: &MetricsSample) -> Value {
    obj(vec![
        ("t", Value::str("window")),
        ("cycle", Value::u64(s.cycle)),
        ("ipc", Value::f64(s.ipc)),
        ("l1_hit_rate", Value::f64(s.l1_hit_rate)),
        ("mshr_occupancy", Value::f64(s.mshr_occupancy)),
        ("miss_queue_occupancy", Value::f64(s.miss_queue_occupancy)),
        ("noc_utilization", Value::f64(s.noc_utilization)),
        ("active_warps", Value::u64(s.active_warps as u64)),
        ("throttled_sms", Value::u64(s.throttled_sms as u64)),
        ("chain_depth", Value::u64(s.chain_depth.into())),
        ("stall_issued", Value::f64(s.stall_issued)),
        ("stall_no_warp", Value::f64(s.stall_no_warp)),
        ("stall_barrier", Value::f64(s.stall_barrier)),
        ("stall_scoreboard", Value::f64(s.stall_scoreboard)),
        ("stall_mem_data", Value::f64(s.stall_mem_data)),
        ("stall_mem_mshr", Value::f64(s.stall_mem_mshr)),
        ("stall_mem_missq", Value::f64(s.stall_mem_missq)),
        ("stall_mem_noc", Value::f64(s.stall_mem_noc)),
    ])
}

fn sample_from_json(v: &Value) -> Result<MetricsSample, String> {
    Ok(MetricsSample {
        cycle: req_u64(v, "cycle")?,
        ipc: req_f64(v, "ipc")?,
        l1_hit_rate: req_f64(v, "l1_hit_rate")?,
        mshr_occupancy: req_f64(v, "mshr_occupancy")?,
        miss_queue_occupancy: req_f64(v, "miss_queue_occupancy")?,
        noc_utilization: req_f64(v, "noc_utilization")?,
        active_warps: req_u64(v, "active_warps")? as usize,
        throttled_sms: req_u64(v, "throttled_sms")? as usize,
        chain_depth: req_u32(v, "chain_depth")?,
        stall_issued: req_f64(v, "stall_issued")?,
        stall_no_warp: req_f64(v, "stall_no_warp")?,
        stall_barrier: req_f64(v, "stall_barrier")?,
        stall_scoreboard: req_f64(v, "stall_scoreboard")?,
        stall_mem_data: req_f64(v, "stall_mem_data")?,
        stall_mem_mshr: req_f64(v, "stall_mem_mshr")?,
        stall_mem_missq: req_f64(v, "stall_mem_missq")?,
        stall_mem_noc: req_f64(v, "stall_mem_noc")?,
    })
}

fn finished_to_json(out: &RunOutput) -> Value {
    let mut fields = vec![
        ("t", Value::str("finished")),
        ("stop", Value::str(out.stop.label())),
    ];
    if let StopReason::BudgetExceeded { budget } = out.stop {
        fields.push(("budget", Value::u64(budget)));
    }
    fields.push(("report", out.report.to_json()));
    if let Some(host) = &out.host {
        fields.push(("host", crate::perfstat::profile_to_json(host)));
    }
    obj(fields)
}

fn stop_from_json(v: &Value) -> Result<StopReason, String> {
    match req_str(v, "stop")?.as_str() {
        "completed" => Ok(StopReason::Completed),
        "cycle_limit" => Ok(StopReason::CycleLimit),
        "budget_exceeded" => Ok(StopReason::BudgetExceeded {
            budget: req_u64(v, "budget")?,
        }),
        other => Err(format!("unexpected stop reason {other:?} on the wire")),
    }
}

/// Parses one line of a child's NDJSON stream. Strict by design: any
/// torn, truncated, or foreign line is an error (never a mis-parsed
/// report) — the property the `exec` proptests pin down.
///
/// # Errors
///
/// Returns a description of what made the line unusable.
pub fn parse_child_line(line: &str) -> Result<ChildLine, String> {
    let v = json::parse(line).map_err(|e| format!("unparseable child line: {e}"))?;
    match req_str(&v, "t")?.as_str() {
        "window" => Ok(ChildLine::Window(sample_from_json(&v)?)),
        "checkpoint" => Ok(ChildLine::Checkpoint {
            cycle: req_u64(&v, "cycle")?,
            bytes: req_u64(&v, "bytes")?,
        }),
        "finished" => {
            let report = MechanismReport::from_json(req(&v, "report")?)?;
            let host = match v.get("host") {
                None => None,
                Some(h) => Some(
                    crate::perfstat::profile_from_json(h)
                        .map_err(|e| format!("bad host profile: {e}"))?,
                ),
            };
            Ok(ChildLine::Finished {
                output: Box::new(RunOutput {
                    report,
                    stop: stop_from_json(&v)?,
                    host,
                }),
            })
        }
        "suspended" => Ok(ChildLine::Suspended {
            cycle: req_u64(&v, "cycle")?,
            checkpoint: req_str(&v, "checkpoint")?,
        }),
        "cancelled" => Ok(ChildLine::Cancelled),
        "failed" => Ok(ChildLine::Failed {
            message: req_str(&v, "message")?,
        }),
        "error" => Ok(ChildLine::Error {
            message: req_str(&v, "message")?,
        }),
        "unresumable" => Ok(ChildLine::Unresumable {
            message: req_str(&v, "message")?,
        }),
        other => Err(format!("unknown child line type {other:?}")),
    }
}

// ---------------------------------------------------------------------------
// Worker (child) side
// ---------------------------------------------------------------------------

fn emit(v: &Value) {
    let line = v.to_string();
    let mut out = std::io::stdout().lock();
    let _ = writeln!(out, "{line}");
    let _ = out.flush();
}

/// Fires an injected crash when [`CRASH_ENV`] names this job — the
/// test hook behind the CI isolation smoke and the chaos trials.
fn maybe_injected_crash(job_id: &str) {
    let Ok(plan) = std::env::var(CRASH_ENV) else {
        return;
    };
    for pair in plan.split(',') {
        let Some((id, mode)) = pair.split_once('=') else {
            continue;
        };
        if id != job_id {
            continue;
        }
        match mode {
            "abort" => std::process::abort(),
            "oom" => {
                // Address-space blowout: with an rlimit this fails the
                // allocation (Rust aborts with the alloc-failure
                // signature); without one the size is absurd enough to
                // fail anyway.
                let blowout = vec![0xABu8; 1usize << 40];
                std::hint::black_box(&blowout);
            }
            "segv" => unsafe {
                std::ptr::null_mut::<u8>().write_volatile(1);
            },
            "kill9" => {
                let _ = Command::new("kill")
                    .args(["-9", &std::process::id().to_string()])
                    .status();
                loop {
                    std::thread::sleep(Duration::from_millis(50));
                }
            }
            "hang" => loop {
                std::thread::sleep(Duration::from_millis(50));
            },
            other => eprintln!("exec-job: unknown injected crash mode {other:?}"),
        }
    }
}

/// The `--exec-job` worker: reads one spec line from stdin, runs the
/// job, streams telemetry/checkpoint lines, and ends with one terminal
/// line. Returns the process exit code (0 even for in-band failures —
/// those travel as protocol lines; 2 only for an unusable spec).
pub fn run_worker() -> i32 {
    let mut line = String::new();
    if std::io::stdin().lock().read_line(&mut line).is_err() {
        eprintln!("exec-job: failed to read the spec line");
        return 2;
    }
    let spec = match parse_worker_spec(line.trim()) {
        Ok(spec) => spec,
        Err(why) => {
            eprintln!("exec-job: {why}");
            return 2;
        }
    };
    maybe_injected_crash(&spec.job.id());

    let ring = TelemetryRing::new(4096);
    let drain = spec.stream.then(|| {
        let mut sub = ring.subscribe();
        std::thread::spawn(move || loop {
            let d = sub.drain();
            for rec in d.records {
                if let TelemetryRecord::Window(sample) = rec {
                    emit(&sample_to_json(&sample));
                }
            }
            if d.done {
                return;
            }
            std::thread::sleep(Duration::from_millis(20));
        })
    });

    let ctx = ExecContext {
        resume_from: spec.resume_from.as_deref(),
        checkpoint_to: spec.checkpoint_to.as_deref(),
        suspend_after: spec.suspend_after,
        ring: spec.stream.then_some(&ring),
        ..ExecContext::default()
    };
    let result = spec
        .h
        .run_job_phased(spec.job.bench, spec.job.kind, &ctx, |cycle, bytes| {
            emit(&obj(vec![
                ("t", Value::str("checkpoint")),
                ("cycle", Value::u64(cycle)),
                ("bytes", Value::u64(bytes)),
            ]));
        });
    ring.close();
    if let Some(handle) = drain {
        let _ = handle.join();
    }
    match result {
        Ok(JobRun::Finished(out)) => match &out.stop {
            StopReason::Deadlock(report) => emit(&obj(vec![
                ("t", Value::str("failed")),
                ("message", Value::str(format!("deadlock: {report}"))),
            ])),
            _ => emit(&finished_to_json(&out)),
        },
        Ok(JobRun::Suspended { cycle, checkpoint }) => emit(&obj(vec![
            ("t", Value::str("suspended")),
            ("cycle", Value::u64(cycle)),
            ("checkpoint", Value::str(checkpoint)),
        ])),
        Ok(JobRun::Cancelled) => emit(&obj(vec![("t", Value::str("cancelled"))])),
        Err(JobError::Run(err)) => emit(&obj(vec![
            ("t", Value::str("error")),
            ("message", Value::str(err.to_string())),
        ])),
        Err(JobError::Resume(err)) => emit(&obj(vec![
            ("t", Value::str("unresumable")),
            ("message", Value::str(err.to_string())),
        ])),
    }
    0
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::os::unix::process::ExitStatusExt;

    fn sig(n: i32) -> ExitStatus {
        ExitStatus::from_raw(n)
    }

    fn code(c: i32) -> ExitStatus {
        ExitStatus::from_raw(c << 8)
    }

    #[test]
    fn exit_statuses_decode_to_typed_crash_kinds() {
        assert_eq!(decode_exit(&code(101), "", false), CrashKind::Panic);
        assert_eq!(decode_exit(&sig(11), "", false), CrashKind::Signal(11));
        assert_eq!(decode_exit(&sig(9), "", false), CrashKind::Signal(9));
        assert_eq!(decode_exit(&sig(6), "", false), CrashKind::Signal(6));
        assert_eq!(
            decode_exit(
                &sig(6),
                "memory allocation of 1099511627776 bytes failed",
                false
            ),
            CrashKind::OomKilled
        );
        assert_eq!(
            decode_exit(&sig(24), "", false),
            CrashKind::TimedOut,
            "SIGXCPU"
        );
        assert_eq!(
            decode_exit(&sig(9), "", true),
            CrashKind::TimedOut,
            "lease kill"
        );
        assert_eq!(decode_exit(&code(0), "", false), CrashKind::ProtocolError);
        assert_eq!(decode_exit(&code(2), "", false), CrashKind::ProtocolError);
    }

    #[test]
    fn crash_kind_labels_round_trip() {
        for kind in [
            CrashKind::Panic,
            CrashKind::Signal(11),
            CrashKind::Signal(6),
            CrashKind::OomKilled,
            CrashKind::TimedOut,
            CrashKind::ProtocolError,
        ] {
            assert_eq!(CrashKind::parse(&kind.label()), Some(kind));
        }
        assert_eq!(CrashKind::parse("weird"), None);
        assert_eq!(CrashKind::parse("signal x"), None);
    }

    #[test]
    fn retry_policy_by_kind() {
        assert!(!CrashKind::Panic.retryable());
        assert!(!CrashKind::TimedOut.retryable());
        assert!(CrashKind::Signal(11).retryable());
        assert!(CrashKind::OomKilled.retryable());
        assert!(CrashKind::ProtocolError.retryable());
    }

    #[test]
    fn harness_round_trips_bit_exactly() {
        let mut h = Harness::quick();
        h.cfg.cycle_budget = Some(snake_sim::Cycle(123_456));
        h.cfg.metrics_window = Some(500);
        h.cfg.checkpoint_every = Some(2000);
        h.cfg.fault = FaultPlan {
            seed: 0xC4A05,
            drop_response: 0.002,
            duplicate_response: 0.005,
            delay_response: 0.05,
            delay_cycles: 200,
            brownout: Some(Brownout {
                period: 2000,
                active: 250,
                scale: 0.5,
            }),
            recovery: Some(Recovery {
                timeout: 500,
                max_retries: 4,
            }),
        };
        h.cfg.host_profile = true;
        let doc = harness_to_json(&h).to_string();
        let back = harness_from_json(&json::parse(&doc).expect("parses")).expect("round-trips");
        assert_eq!(back.cfg, h.cfg);
        assert_eq!(back.size, h.size);
        assert_eq!(doc, harness_to_json(&back).to_string(), "bytes are stable");
    }

    #[test]
    fn spec_round_trips_including_paths() {
        let h = Harness::quick();
        let job = JobSpec {
            bench: snake_workloads::Benchmark::Lps,
            kind: snake_core::PrefetcherKind::Snake,
        };
        let doc = worker_spec_json(
            &h,
            &job,
            Some(Path::new("/tmp/a.ckpt")),
            Some(Path::new("/tmp/b.ckpt")),
            Some(300),
            true,
        )
        .to_string();
        let spec = parse_worker_spec(&doc).expect("parses");
        assert_eq!(spec.job, job);
        assert_eq!(spec.resume_from.as_deref(), Some(Path::new("/tmp/a.ckpt")));
        assert_eq!(
            spec.checkpoint_to.as_deref(),
            Some(Path::new("/tmp/b.ckpt"))
        );
        assert_eq!(spec.suspend_after, Some(300));
        assert!(spec.stream);
    }

    #[test]
    fn child_lines_round_trip_and_tears_are_rejected() {
        let sample = MetricsSample {
            cycle: 500,
            ipc: 1.25,
            l1_hit_rate: 0.5,
            mshr_occupancy: 0.25,
            miss_queue_occupancy: 0.0,
            noc_utilization: 0.75,
            active_warps: 8,
            throttled_sms: 1,
            chain_depth: 3,
            stall_issued: 0.5,
            stall_no_warp: 0.0,
            stall_barrier: 0.125,
            stall_scoreboard: 0.125,
            stall_mem_data: 0.25,
            stall_mem_mshr: 0.0,
            stall_mem_missq: 0.0,
            stall_mem_noc: 0.0,
        };
        let line = sample_to_json(&sample).to_string();
        assert_eq!(parse_child_line(&line), Ok(ChildLine::Window(sample)));
        // Every strict prefix of a valid line is rejected, never
        // mis-parsed.
        for cut in 0..line.len() {
            assert!(
                parse_child_line(&line[..cut]).is_err(),
                "prefix of length {cut} must not parse"
            );
        }
        assert!(parse_child_line(r#"{"t":"mystery"}"#).is_err());
        assert!(parse_child_line("").is_err());
    }

    #[test]
    fn lease_kill_message_and_stderr_excerpt() {
        assert_eq!(stderr_excerpt(""), "");
        assert_eq!(
            stderr_excerpt("first\npanicked at 'boom'\n\n"),
            "panicked at 'boom'"
        );
        let long = "x".repeat(400);
        assert!(stderr_excerpt(&long).len() < 220);
    }
}
