//! The worker pool: claims jobs, isolates panics, retries with
//! backoff, checkpoints records, and assembles the final result.

use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use snake_core::MechanismReport;
use snake_sim::StopReason;

use super::executor::{CrashKind, ExecError};
use super::manifest::{JobRecord, ManifestWriter};
use super::{JobSpec, SweepConfig, EXIT_INTERRUPTED, EXIT_QUARANTINE};
use crate::figures::panic_message;
use crate::report::{pct, ratio, Table};
use crate::runner::JobRun;

/// The final state of one job in a finished sweep.
//
// A sweep holds tens of these, so the report row's size (which
// dominates the enum) is irrelevant; boxing it would only add churn
// at every construction and match site.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub enum JobOutcome {
    /// The job produced a report (cleanly, or truncated by a cycle
    /// budget / cycle limit).
    Completed {
        /// The report row.
        report: MechanismReport,
        /// Stop-reason label (`"completed"`, `"budget_exceeded"`, …).
        stop: String,
        /// Attempts it took (1 = first try).
        attempts: u32,
    },
    /// Every attempt panicked, deadlocked, or errored; the job is
    /// quarantined and its siblings were unaffected.
    Crashed {
        /// The last failure, human-readable.
        message: String,
        /// Attempts made before quarantine.
        attempts: u32,
        /// Typed crash classification when the failure was a process
        /// death (sandbox executor) or a panic; `None` for typed
        /// simulator errors and deadlocks.
        crash: Option<CrashKind>,
        /// Last stderr excerpt from the crashed child, when captured.
        stderr: Option<String>,
    },
    /// The job was never started: the sweep hit its wall deadline or
    /// `stop_after` first. Resume from the manifest to run it.
    Skipped {
        /// Why it was not started.
        reason: String,
    },
    /// The job was preempted mid-simulation (deadline or
    /// `suspend_after`); its full state is checkpointed and resume
    /// restores it rather than re-running from cycle zero.
    Suspended {
        /// Simulation cycle the state was captured at.
        cycle: u64,
        /// Path of the checkpoint artifact.
        checkpoint: String,
        /// Attempts when it was suspended.
        attempts: u32,
    },
}

impl JobOutcome {
    /// The manifest record this outcome checkpoints as — `None` for
    /// skipped jobs, which are not durable state (they simply re-run).
    /// Shared by the sweep manifest writer and the daemon's state
    /// journal, so both planes record identical facts.
    pub fn to_record(&self, job: String) -> Option<JobRecord> {
        match self {
            JobOutcome::Completed {
                report,
                stop,
                attempts,
            } => Some(JobRecord::Completed {
                job,
                attempts: *attempts,
                stop: stop.clone(),
                report: report.clone(),
            }),
            JobOutcome::Crashed {
                message,
                attempts,
                crash,
                stderr,
            } => Some(JobRecord::Quarantined {
                job,
                attempts: *attempts,
                error: message.clone(),
                crash: crash.map(|k| k.label()),
                stderr: stderr.clone(),
            }),
            JobOutcome::Suspended {
                cycle,
                checkpoint,
                attempts,
            } => Some(JobRecord::Suspended {
                job,
                attempts: *attempts,
                cycle: *cycle,
                checkpoint: checkpoint.clone(),
            }),
            JobOutcome::Skipped { .. } => None,
        }
    }
}

/// Everything a finished (or interrupted) sweep produced.
#[derive(Debug)]
pub struct SweepResult {
    /// One outcome per job, in campaign order.
    pub outcomes: Vec<(JobSpec, JobOutcome)>,
    /// True when jobs were skipped (deadline / `stop_after`).
    pub interrupted: bool,
    /// Checkpointing failures (the sweep itself kept going; resume
    /// from this manifest may re-run the affected jobs).
    pub manifest_errors: Vec<String>,
}

impl SweepResult {
    /// Completed / quarantined / skipped / suspended counts.
    pub fn counts(&self) -> (usize, usize, usize, usize) {
        let mut c = (0, 0, 0, 0);
        for (_, o) in &self.outcomes {
            match o {
                JobOutcome::Completed { .. } => c.0 += 1,
                JobOutcome::Crashed { .. } => c.1 += 1,
                JobOutcome::Skipped { .. } => c.2 += 1,
                JobOutcome::Suspended { .. } => c.3 += 1,
            }
        }
        c
    }

    /// The process exit code this result calls for: interrupted sweeps
    /// (skipped or suspended jobs remain) exit [`EXIT_INTERRUPTED`] —
    /// resume to finish; quarantines exit [`EXIT_QUARANTINE`], clean
    /// sweeps exit 0.
    pub fn exit_code(&self) -> i32 {
        let (_, quarantined, skipped, suspended) = self.counts();
        if self.interrupted || skipped > 0 || suspended > 0 {
            EXIT_INTERRUPTED
        } else if quarantined > 0 {
            EXIT_QUARANTINE
        } else {
            0
        }
    }

    /// The healthy rows, in campaign order.
    pub fn results_table(&self) -> Table {
        let mut t = Table::new(
            "Sweep — per-job results",
            [
                "app",
                "mechanism",
                "ipc",
                "coverage",
                "accuracy",
                "cycles",
                "stop",
                "attempts",
            ]
            .iter()
            .map(|s| s.to_string())
            .collect(),
        );
        for (job, outcome) in &self.outcomes {
            if let JobOutcome::Completed {
                report,
                stop,
                attempts,
            } = outcome
            {
                t.push_row(vec![
                    job.bench.abbr().into(),
                    job.kind.name().into(),
                    ratio(report.ipc),
                    pct(report.coverage),
                    pct(report.accuracy),
                    report.cycles.to_string(),
                    stop.clone(),
                    attempts.to_string(),
                ]);
            }
        }
        let (completed, quarantined, skipped, suspended) = self.counts();
        let mut note = format!(
            "{completed} completed, {quarantined} quarantined, {skipped} skipped \
             of {} jobs",
            self.outcomes.len()
        );
        if suspended > 0 {
            note.push_str(&format!(
                " ({suspended} suspended mid-simulation; resume restores them)"
            ));
        }
        t.note(note);
        t
    }

    /// The quarantine section, if any job crashed out: the typed crash
    /// kind and last stderr excerpt ride along so a quarantine is
    /// diagnosable from the summary without grepping the manifest.
    pub fn quarantine_table(&self) -> Option<Table> {
        let crashed: Vec<_> = self
            .outcomes
            .iter()
            .filter_map(|(job, o)| match o {
                JobOutcome::Crashed {
                    message,
                    attempts,
                    crash,
                    stderr,
                } => Some((job, message, *attempts, crash, stderr)),
                _ => None,
            })
            .collect();
        if crashed.is_empty() {
            return None;
        }
        let mut t = Table::new(
            "Sweep — quarantined jobs",
            ["job", "attempts", "crash", "last failure"]
                .iter()
                .map(|s| s.to_string())
                .collect(),
        );
        for (job, message, attempts, crash, stderr) in crashed {
            // Keep the table single-line per job.
            let mut first_line = message.lines().next().unwrap_or("").to_string();
            if let Some(excerpt) = stderr.as_deref().map(str::trim).filter(|s| !s.is_empty()) {
                let line = excerpt.lines().next().unwrap_or("");
                first_line.push_str(&format!(" [stderr: {line}]"));
            }
            let kind = crash.map_or_else(|| "-".to_string(), |k| k.label());
            t.push_row(vec![job.id(), attempts.to_string(), kind, first_line]);
        }
        t.note("quarantined jobs exhausted their retry budget; healthy rows above are unaffected");
        Some(t)
    }

    /// One line per completed job, in campaign order:
    /// `BENCH/mech cycles fnv1a64(report JSON)`. The format of the
    /// committed full-matrix goldens under `tests/golden/`.
    pub fn digest(&self) -> String {
        let mut out = String::new();
        for (job, outcome) in &self.outcomes {
            if let JobOutcome::Completed { report, .. } = outcome {
                out.push_str(&digest_line(&job.id(), report));
            }
        }
        out
    }

    /// Renders the result tables (results, then quarantine, then a
    /// resume hint when interrupted) as text or markdown.
    pub fn render(&self, markdown: bool) -> String {
        let mut tables = vec![self.results_table()];
        tables.extend(self.quarantine_table());
        let mut out = String::new();
        for t in &tables {
            if markdown {
                out.push_str(&t.to_markdown());
            } else {
                out.push_str(&t.to_string());
            }
            out.push('\n');
        }
        out
    }
}

/// How far [`run_supervised`] backs off before retry `attempt + 1`:
/// `min(cap, base << (attempt - 1))` milliseconds.
pub(super) fn backoff_ms(cfg: &SweepConfig, attempt: u32) -> u64 {
    cfg.backoff_base_ms
        .checked_shl(attempt.saturating_sub(1))
        .unwrap_or(u64::MAX)
        .min(cfg.backoff_cap_ms)
}

struct Queue<'a> {
    /// `(index, job, checkpoint to resume from)` — the path is `Some`
    /// for jobs a previous run suspended mid-simulation.
    pending: VecDeque<(usize, &'a JobSpec, Option<String>)>,
    started: usize,
}

/// One digest line, `BENCH/mech cycles fnv1a64(report JSON)` and a
/// newline: the format of [`SweepResult::digest`] and of the committed
/// full-matrix goldens under `tests/golden/`.
pub fn digest_line(id: &str, report: &MechanismReport) -> String {
    let bytes = report.to_json().to_string();
    format!(
        "{id} {} {:016x}\n",
        report.cycles,
        snake_sim::snapshot::fnv1a64(bytes.as_bytes())
    )
}

/// Runs `jobs` through `runner` under the supervision policy.
///
/// * Jobs present in `checkpointed` are replayed from their records —
///   their simulations never run again. A `Suspended` record instead
///   *requeues* the job with its mid-simulation checkpoint: the runner
///   restores the state and finishes the remaining cycles.
/// * Each remaining job runs on a worker behind `catch_unwind`; a
///   panic or deadlock triggers retries (with backoff and a fresh
///   `attempt` number for the runner's seed schedule) up to
///   `cfg.max_attempts`, then quarantine. A typed `SimError` is
///   deterministic, so it quarantines immediately without retries.
/// * Every finished job is appended to `writer` (when given) before
///   it counts as done.
pub fn run_supervised<F>(
    jobs: &[JobSpec],
    cfg: &SweepConfig,
    checkpointed: &HashMap<String, JobRecord>,
    writer: Option<ManifestWriter>,
    runner: F,
) -> SweepResult
where
    F: Fn(&JobSpec, u32, Option<&Path>) -> Result<JobRun, ExecError> + Sync,
{
    let started_at = Instant::now();
    let mut outcomes: Vec<Option<JobOutcome>> = vec![None; jobs.len()];
    let mut pending: VecDeque<(usize, &JobSpec, Option<String>)> = VecDeque::new();
    for (i, job) in jobs.iter().enumerate() {
        match checkpointed.get(&job.id()) {
            Some(JobRecord::Completed {
                attempts,
                stop,
                report,
                ..
            }) => {
                outcomes[i] = Some(JobOutcome::Completed {
                    report: report.clone(),
                    stop: stop.clone(),
                    attempts: *attempts,
                });
            }
            Some(JobRecord::Quarantined {
                attempts,
                error,
                crash,
                stderr,
                ..
            }) => {
                outcomes[i] = Some(JobOutcome::Crashed {
                    message: error.clone(),
                    attempts: *attempts,
                    crash: crash.as_deref().and_then(CrashKind::parse),
                    stderr: stderr.clone(),
                });
            }
            Some(JobRecord::Suspended { checkpoint, .. }) => {
                pending.push_back((i, job, Some(checkpoint.clone())));
            }
            None => pending.push_back((i, job, None)),
        }
    }
    if let Some(p) = &cfg.progress {
        p.begin(jobs.len() as u64);
        // Replayed jobs count toward their buckets up front, so a
        // resumed sweep's progress line starts where the last one
        // ended instead of at zero.
        for outcome in outcomes.iter().flatten() {
            p.observe(outcome);
        }
    }

    let queue = Mutex::new(Queue {
        pending,
        started: 0,
    });
    let done = Mutex::new(&mut outcomes);
    let writer = writer.map(Mutex::new);
    let manifest_errors = Mutex::new(Vec::new());
    let interrupted = Mutex::new(false);

    let claim = || -> Option<(usize, &JobSpec, Option<String>)> {
        let mut q = queue.lock().unwrap();
        if q.pending.is_empty() {
            return None;
        }
        let over_deadline = cfg.wall_deadline.is_some_and(|d| started_at.elapsed() >= d);
        let over_count = cfg.stop_after.is_some_and(|k| q.started >= k);
        if over_deadline || over_count {
            let reason = if over_deadline {
                "sweep wall-clock deadline exceeded before this job started"
            } else {
                "sweep stopped by --stop-after before this job started"
            };
            let mut d = done.lock().unwrap();
            while let Some((i, _, _)) = q.pending.pop_front() {
                let outcome = JobOutcome::Skipped {
                    reason: reason.into(),
                };
                if let Some(p) = &cfg.progress {
                    p.observe(&outcome);
                }
                d[i] = Some(outcome);
            }
            *interrupted.lock().unwrap() = true;
            return None;
        }
        q.started += 1;
        q.pending.pop_front()
    };

    let n_workers = cfg.workers.clamp(1, jobs.len().max(1));
    let running = AtomicU64::new(0);
    let active_workers = AtomicUsize::new(n_workers);
    std::thread::scope(|scope| {
        for _ in 0..n_workers {
            scope.spawn(|| {
                while let Some((i, job, resume)) = claim() {
                    running.fetch_add(1, Ordering::Relaxed);
                    let outcome = supervise_one(job, cfg, resume.as_deref(), &runner);
                    running.fetch_sub(1, Ordering::Relaxed);
                    if let Some(p) = &cfg.progress {
                        p.observe(&outcome);
                    }
                    if let JobOutcome::Suspended { .. } = &outcome {
                        // Work remains: the sweep must report
                        // interrupted so callers resume it.
                        *interrupted.lock().unwrap() = true;
                    }
                    if let Some(w) = &writer {
                        if let Some(record) = outcome.to_record(job.id()) {
                            if let Err(e) = w.lock().unwrap().append(&record) {
                                manifest_errors
                                    .lock()
                                    .unwrap()
                                    .push(format!("{}: {e}", job.id()));
                            }
                        }
                    }
                    done.lock().unwrap()[i] = Some(outcome);
                }
                active_workers.fetch_sub(1, Ordering::Relaxed);
            });
        }
        // Hung-job reaper: the cooperative deadline check inside a
        // running simulation fires only every 1024 cycles, so a job
        // wedged *inside* one cycle can hold the sweep open silently.
        // The watchdog cannot kill an in-thread job, but it makes the
        // hang observable: jobs still running past the deadline plus
        // the grace period are counted as overdue in `Progress`, which
        // `repro --progress` repaints and daemon health surfaces.
        if let (Some(deadline), Some(progress)) = (cfg.wall_deadline, &cfg.progress) {
            let overdue_at = started_at + deadline + cfg.watchdog_grace;
            let progress = progress.clone();
            let running = &running;
            let active_workers = &active_workers;
            scope.spawn(move || loop {
                if active_workers.load(Ordering::Relaxed) == 0 {
                    progress.set_overdue(0);
                    return;
                }
                let overdue = if Instant::now() >= overdue_at {
                    running.load(Ordering::Relaxed)
                } else {
                    0
                };
                progress.set_overdue(overdue);
                std::thread::sleep(Duration::from_millis(25));
            });
        }
    });

    let interrupted = *interrupted.lock().unwrap();
    SweepResult {
        outcomes: jobs
            .iter()
            .zip(outcomes)
            .map(|(job, o)| (*job, o.expect("every job is checkpointed, run, or skipped")))
            .collect(),
        interrupted,
        manifest_errors: manifest_errors.into_inner().unwrap(),
    }
}

/// A retryable failure captured mid-attempt-loop, with whatever typed
/// classification it arrived with.
struct Failure {
    message: String,
    crash: Option<CrashKind>,
    stderr: Option<String>,
}

/// Runs one job's attempt loop: panic isolation, retry classification,
/// capped exponential backoff, quarantine.
///
/// A `resume_from` checkpoint only applies to attempt 1; if a resumed
/// run fails, later attempts fall back to a fresh run from cycle zero
/// under the retry seed schedule (a perturbed fault seed cannot take
/// effect inside restored RNG state anyway). A checkpoint that cannot
/// be loaded or restored at all ([`ExecError::Resume`]: deleted,
/// torn, or from another configuration) is not the job's failure: the
/// same attempt reruns from cycle zero, deterministically, so the
/// report is the uninterrupted run's.
///
/// Retry classification: typed simulator errors (and their sandboxed
/// [`ExecError::Typed`] twin) are deterministic and quarantine
/// immediately; deadlocks and in-thread panics retry as before; child
/// deaths retry only when their [`CrashKind::retryable`] — a child
/// panic re-runs the same deterministic seed, and a lease timeout
/// would just burn the lease again, so neither spends retry budget.
fn supervise_one<F>(
    job: &JobSpec,
    cfg: &SweepConfig,
    resume_from: Option<&str>,
    runner: &F,
) -> JobOutcome
where
    F: Fn(&JobSpec, u32, Option<&Path>) -> Result<JobRun, ExecError> + Sync,
{
    let max_attempts = cfg.max_attempts.max(1);
    let mut attempt = 1u32;
    let mut resume = resume_from.map(Path::new);
    loop {
        let failure = match catch_unwind(AssertUnwindSafe(|| runner(job, attempt, resume))) {
            Ok(Ok(JobRun::Finished(output))) => match output.stop {
                StopReason::Deadlock(report) => Failure {
                    message: format!("deadlock: {report}"),
                    crash: None,
                    stderr: None,
                },
                _ => {
                    return JobOutcome::Completed {
                        stop: output.stop.label().to_string(),
                        report: output.report,
                        attempts: attempt,
                    };
                }
            },
            Ok(Ok(JobRun::Suspended { cycle, checkpoint })) => {
                return JobOutcome::Suspended {
                    cycle,
                    checkpoint,
                    attempts: attempt,
                };
            }
            // Cancellation is a caller decision, not a failure:
            // recorded as skipped, never retried.
            Ok(Ok(JobRun::Cancelled)) => {
                return JobOutcome::Skipped {
                    reason: "cancelled by the caller before completion".into(),
                };
            }
            // A typed simulator error is deterministic (bad
            // configuration); retrying cannot change it.
            Ok(Err(ExecError::Sim(err))) => {
                return JobOutcome::Crashed {
                    message: err.to_string(),
                    attempts: attempt,
                    crash: None,
                    stderr: None,
                };
            }
            Ok(Err(ExecError::Resume(_))) if resume.is_some() => {
                resume = None;
                continue;
            }
            Ok(Err(ExecError::Typed(message) | ExecError::Resume(message))) => {
                return JobOutcome::Crashed {
                    message,
                    attempts: attempt,
                    crash: None,
                    stderr: None,
                };
            }
            Ok(Err(ExecError::Failure(message))) => Failure {
                message,
                crash: None,
                stderr: None,
            },
            Ok(Err(ExecError::Crash(c))) => {
                let stderr = (!c.stderr.is_empty()).then(|| c.stderr.clone());
                if !c.kind.retryable() {
                    return JobOutcome::Crashed {
                        message: c.message,
                        attempts: attempt,
                        crash: Some(c.kind),
                        stderr,
                    };
                }
                Failure {
                    message: c.message,
                    crash: Some(c.kind),
                    stderr,
                }
            }
            Err(payload) => Failure {
                message: format!("panic: {}", panic_message(payload.as_ref())),
                crash: Some(CrashKind::Panic),
                stderr: None,
            },
        };
        if attempt >= max_attempts {
            return JobOutcome::Crashed {
                message: failure.message,
                attempts: attempt,
                crash: failure.crash,
                stderr: failure.stderr,
            };
        }
        if let Some(p) = &cfg.progress {
            p.note_retry();
        }
        std::thread::sleep(std::time::Duration::from_millis(backoff_ms(cfg, attempt)));
        resume = None;
        attempt += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_and_caps() {
        let cfg = SweepConfig {
            backoff_base_ms: 10,
            backoff_cap_ms: 50,
            ..SweepConfig::default()
        };
        assert_eq!(backoff_ms(&cfg, 1), 10);
        assert_eq!(backoff_ms(&cfg, 2), 20);
        assert_eq!(backoff_ms(&cfg, 3), 40);
        assert_eq!(backoff_ms(&cfg, 4), 50, "capped");
        assert_eq!(backoff_ms(&cfg, 200), 50, "shift overflow saturates");
    }
}
