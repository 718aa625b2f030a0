//! Shared run harness: configuration, simulation, and report rows.

use std::sync::atomic::Ordering;
use std::time::Instant;

use snake_core::{MechanismReport, PrefetcherKind};
use snake_sim::snapshot::Checkpoint;
use snake_sim::{
    Cycle, EnergyModel, Gpu, GpuConfig, HostProfile, KernelTrace, Prefetcher, SimError, SimOutcome,
    SmId, StopReason,
};
use snake_workloads::{Benchmark, WorkloadSize};

use crate::supervise::ExecContext;

/// The experiment harness: one GPU configuration, one workload size,
/// one energy model, shared by every figure.
#[derive(Debug, Clone)]
pub struct Harness {
    /// GPU configuration (scaled V100 by default).
    pub cfg: GpuConfig,
    /// Workload scale.
    pub size: WorkloadSize,
    /// Energy model.
    pub energy: EnergyModel,
}

/// A finished supervised run: the report row plus why the simulation
/// stopped, so the sweep supervisor can distinguish clean completion
/// from budget truncation or deadlock without re-deriving it.
#[derive(Debug, Clone, PartialEq)]
pub struct RunOutput {
    /// The metrics row for the run.
    pub report: MechanismReport,
    /// Why the simulation stopped.
    pub stop: StopReason,
    /// Host-side per-phase timing, present when the harness config set
    /// [`GpuConfig::host_profile`] (the perf observatory's input).
    pub host: Option<HostProfile>,
}

/// Where [`Harness::run_job_phased`] failed.
#[derive(Debug)]
pub(crate) enum JobError {
    /// The resume checkpoint could not be loaded or restored (missing,
    /// torn, or taken under another configuration).
    Resume(SimError),
    /// Anything else: an invalid configuration, a failed checkpoint
    /// write.
    Run(SimError),
}

impl From<SimError> for JobError {
    fn from(e: SimError) -> Self {
        JobError::Run(e)
    }
}

/// What [`Harness::run_job_with`] produced: a finished run, a
/// mid-simulation suspension whose state is now durable in a
/// checkpoint file (resume it by passing the path back as
/// `resume_from`), or a cancellation.
#[derive(Debug, Clone, PartialEq)]
pub enum JobRun {
    /// The simulation ran (or resumed) to its stop reason.
    Finished(Box<RunOutput>),
    /// The suspend policy fired; the complete simulator state was
    /// checkpointed atomically before returning.
    Suspended {
        /// Cycle the simulation was suspended at.
        cycle: u64,
        /// Path of the checkpoint artifact that was written.
        checkpoint: String,
    },
    /// The job was cancelled before or during its simulation (daemon
    /// cancellation, see [`ExecContext::cancel`]); no report was
    /// produced and no state was saved. The supervisor records it as
    /// skipped and never retries it.
    Cancelled,
}

impl Harness {
    /// The standard harness used for the reported numbers: a 2-SM
    /// scaled V100 and the standard workload size.
    pub fn standard() -> Self {
        Harness {
            cfg: GpuConfig::scaled(2),
            size: WorkloadSize::standard(),
            energy: EnergyModel::volta_like(),
        }
    }

    /// A fast harness for tests and smoke runs.
    pub fn quick() -> Self {
        Harness {
            cfg: GpuConfig::scaled(1),
            size: WorkloadSize {
                warps_per_cta: 4,
                ctas: 2,
                iters: 48,
                seed: 0xC0FFEE,
            },
            energy: EnergyModel::volta_like(),
        }
    }

    /// Checks the harness configuration without running anything, so
    /// campaign drivers can fail fast once instead of per job.
    ///
    /// # Errors
    ///
    /// Returns the underlying [`SimError`] when the GPU configuration
    /// is invalid.
    pub fn validate(&self) -> Result<(), SimError> {
        self.cfg.validate().map_err(SimError::from)
    }

    /// Runs one benchmark under one mechanism and reports.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] when the harness configuration is invalid.
    pub fn run(&self, bench: Benchmark, kind: PrefetcherKind) -> Result<MechanismReport, SimError> {
        let kernel = bench.build(&self.size);
        self.run_kernel(&kernel, kind)
    }

    /// Runs one benchmark under one mechanism, keeping the stop reason
    /// alongside the report: [`Harness::run_job_with`] under a default
    /// context.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] when the harness configuration is invalid.
    pub fn run_job(&self, bench: Benchmark, kind: PrefetcherKind) -> Result<RunOutput, SimError> {
        match self.run_job_with(bench, kind, &ExecContext::default(), |_, _| {})? {
            JobRun::Finished(out) => Ok(*out),
            other => unreachable!("a default context never suspends or cancels: {other:?}"),
        }
    }

    /// Runs one job under an execution context — the one entry point
    /// behind the sweep supervisor, the `snaked` daemon and the
    /// `--exec-job` worker.
    ///
    /// * `ctx.resume_from` — restore the complete simulator state from
    ///   a checkpoint, then continue. Restoring is fingerprint-checked:
    ///   a checkpoint from a different configuration, kernel, or
    ///   mechanism is a typed error.
    /// * `ctx.checkpoint_to` — where checkpoints go. Without it the run
    ///   never suspends and never writes.
    /// * [`GpuConfig::checkpoint_every`] — with `checkpoint_to`, a
    ///   periodic checkpoint every this many cycles.
    /// * `ctx.suspend_after` / `ctx.deadline` — with `checkpoint_to`,
    ///   suspend at that cycle / once the wall clock (polled every 1024
    ///   cycles) passes: the state is checkpointed and the run returns
    ///   [`JobRun::Suspended`].
    /// * `ctx.cancel` — polled every cycle. Cancellation wins every
    ///   race: the run returns [`JobRun::Cancelled`] and writes
    ///   nothing, so a cancelled job never leaves a fresh resume
    ///   artifact behind.
    /// * `ctx.ring` — live telemetry: per-window metric rows and, with
    ///   `ctx.include_events`, the trace-event stream. With no ring
    ///   subscribers the report is bit-identical to an untapped run.
    ///
    /// `on_checkpoint(cycle, bytes)` fires after every durable write,
    /// so the caller can journal the artifact before anything else can
    /// crash.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] for an invalid configuration, an unusable
    /// or mismatched resume checkpoint, or a failed checkpoint write.
    pub fn run_job_with(
        &self,
        bench: Benchmark,
        kind: PrefetcherKind,
        ctx: &ExecContext<'_>,
        on_checkpoint: impl FnMut(u64, u64),
    ) -> Result<JobRun, SimError> {
        self.run_job_phased(bench, kind, ctx, on_checkpoint)
            .map_err(|(JobError::Resume(e) | JobError::Run(e))| e)
    }

    /// [`Harness::run_job_with`], telling a failure to load or restore
    /// `ctx.resume_from` apart from every other failure.
    pub(crate) fn run_job_phased(
        &self,
        bench: Benchmark,
        kind: PrefetcherKind,
        ctx: &ExecContext<'_>,
        mut on_checkpoint: impl FnMut(u64, u64),
    ) -> Result<JobRun, JobError> {
        let cancelled = || ctx.cancel.is_some_and(|c| c.load(Ordering::Relaxed));
        if cancelled() {
            return Ok(JobRun::Cancelled);
        }
        let kernel = bench.build(&self.size);
        let warps = self.cfg.max_warps_per_sm;
        let mut gpu = Gpu::new(self.cfg.clone(), kernel.clone(), |_| kind.build(warps))
            .map_err(SimError::from)?;
        if let Some(path) = ctx.resume_from {
            Checkpoint::load(path)
                .and_then(|ckpt| gpu.restore(&ckpt))
                .map_err(|e| JobError::Resume(e.into()))?;
        }
        if let Some(ring) = ctx.ring {
            gpu.attach_telemetry(ring, ctx.include_events);
        }
        let every = ctx.checkpoint_to.and(self.cfg.checkpoint_every);
        let suspend_due = |c: Cycle| {
            ctx.checkpoint_to.is_some()
                && (ctx.suspend_after.is_some_and(|n| c.0 >= n)
                    || (c.0.is_multiple_of(1024)
                        && ctx.deadline.is_some_and(|d| Instant::now() >= d)))
        };
        loop {
            let mut suspend = false;
            let outcome = gpu.run_interruptible(|c| {
                if cancelled() {
                    return true;
                }
                suspend = suspend_due(c);
                suspend || every.is_some_and(|n| c.0.is_multiple_of(n))
            });
            if let Some(outcome) = outcome {
                let out = self.job_output(kind, &kernel, outcome);
                return Ok(JobRun::Finished(Box::new(out)));
            }
            if cancelled() {
                return Ok(JobRun::Cancelled);
            }
            let path = ctx
                .checkpoint_to
                .expect("only a checkpointing run stops for a write");
            let cycle = gpu.cycle().0;
            let bytes = gpu.save_checkpoint(path).map_err(SimError::from)?;
            on_checkpoint(cycle, bytes);
            if suspend {
                return Ok(JobRun::Suspended {
                    cycle,
                    checkpoint: path.display().to_string(),
                });
            }
        }
    }

    /// Assembles the supervised-run output for a finished simulation.
    fn job_output(
        &self,
        kind: PrefetcherKind,
        kernel: &KernelTrace,
        outcome: SimOutcome,
    ) -> RunOutput {
        let report = MechanismReport::from_outcome(
            kind.name(),
            kernel.name(),
            &outcome,
            &self.cfg,
            &self.energy,
            kind.has_hardware(),
        );
        RunOutput {
            report,
            stop: outcome.stop,
            host: outcome.host,
        }
    }

    /// Runs an arbitrary kernel under one registry mechanism.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] when the harness configuration is invalid.
    pub fn run_kernel(
        &self,
        kernel: &KernelTrace,
        kind: PrefetcherKind,
    ) -> Result<MechanismReport, SimError> {
        let warps = self.cfg.max_warps_per_sm;
        let outcome = self.simulate(kernel, |_| kind.build(warps))?;
        Ok(MechanismReport::from_outcome(
            kind.name(),
            kernel.name(),
            &outcome,
            &self.cfg,
            &self.energy,
            kind.has_hardware(),
        ))
    }

    /// Runs an arbitrary kernel with a custom prefetcher factory
    /// (parameter sweeps).
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] when the harness configuration is invalid.
    pub fn run_custom(
        &self,
        kernel: &KernelTrace,
        name: &str,
        mk: impl FnMut(SmId) -> Box<dyn Prefetcher>,
    ) -> Result<MechanismReport, SimError> {
        let outcome = self.simulate(kernel, mk)?;
        Ok(MechanismReport::from_outcome(
            name,
            kernel.name(),
            &outcome,
            &self.cfg,
            &self.energy,
            true,
        ))
    }

    /// Builds and runs the GPU, surfacing configuration problems as a
    /// typed error instead of panicking.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] when the harness configuration is invalid.
    pub fn simulate(
        &self,
        kernel: &KernelTrace,
        mk: impl FnMut(SmId) -> Box<dyn Prefetcher>,
    ) -> Result<SimOutcome, SimError> {
        let mut gpu = Gpu::new(self.cfg.clone(), kernel.clone(), mk)?;
        Ok(gpu.run())
    }
}

impl Default for Harness {
    fn default() -> Self {
        Harness::standard()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_harness_runs_every_benchmark_baseline() {
        let h = Harness::quick();
        for &b in Benchmark::all() {
            let r = h.run(b, PrefetcherKind::Baseline).unwrap();
            assert!(r.ipc > 0.0, "{b}: ipc {}", r.ipc);
            assert!(r.cycles > 0, "{b}");
        }
    }

    #[test]
    fn snake_beats_baseline_on_lps() {
        let h = Harness::quick();
        let base = h.run(Benchmark::Lps, PrefetcherKind::Baseline).unwrap();
        let snake = h.run(Benchmark::Lps, PrefetcherKind::Snake).unwrap();
        assert!(
            snake.speedup_over(&base) > 1.02,
            "snake {} vs baseline {} IPC (speedup {:.3})",
            snake.ipc,
            base.ipc,
            snake.speedup_over(&base)
        );
        assert!(snake.coverage > 0.3, "snake coverage {}", snake.coverage);
    }

    #[test]
    fn custom_factory_is_usable() {
        let h = Harness::quick();
        let kernel = Benchmark::Lib.build(&h.size);
        let r = h
            .run_custom(&kernel, "null-custom", |_| {
                Box::new(snake_sim::NullPrefetcher)
            })
            .unwrap();
        assert_eq!(r.mechanism, "null-custom");
        assert!(r.ipc > 0.0);
    }

    #[test]
    fn invalid_config_surfaces_as_sim_error() {
        let mut h = Harness::quick();
        h.cfg.mshr_entries = 0;
        assert!(h.validate().is_err());
        let err = h.run(Benchmark::Lps, PrefetcherKind::Baseline).unwrap_err();
        assert!(matches!(err, SimError::Config(_)));
        assert!(h.run_job(Benchmark::Lps, PrefetcherKind::Baseline).is_err());
    }

    #[test]
    fn suspended_then_resumed_job_matches_uninterrupted() {
        let h = Harness::quick();
        let full = h.run_job(Benchmark::Lps, PrefetcherKind::Snake).unwrap();
        let dir = std::env::temp_dir().join(format!("snake-runner-suspend-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let ckpt = dir.join("job.ckpt");
        let ctx = ExecContext {
            checkpoint_to: Some(&ckpt),
            suspend_after: Some(200),
            ..ExecContext::default()
        };
        let run = h
            .run_job_with(Benchmark::Lps, PrefetcherKind::Snake, &ctx, |_, _| {})
            .unwrap();
        let JobRun::Suspended { cycle, checkpoint } = run else {
            panic!("expected suspension, got {run:?}");
        };
        assert!(cycle >= 200, "suspended at cycle {cycle}");
        assert_eq!(checkpoint, ckpt.display().to_string());
        let ctx = ExecContext {
            resume_from: Some(&ckpt),
            ..ExecContext::default()
        };
        let resumed = h
            .run_job_with(Benchmark::Lps, PrefetcherKind::Snake, &ctx, |_, _| {})
            .unwrap();
        assert_eq!(resumed, JobRun::Finished(Box::new(full)));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn resume_under_a_different_mechanism_is_refused() {
        let h = Harness::quick();
        let dir =
            std::env::temp_dir().join(format!("snake-runner-mismatch-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let ckpt = dir.join("job.ckpt");
        let suspend = ExecContext {
            checkpoint_to: Some(&ckpt),
            suspend_after: Some(100),
            ..ExecContext::default()
        };
        h.run_job_with(Benchmark::Lps, PrefetcherKind::Snake, &suspend, |_, _| {})
            .unwrap();
        let resume = ExecContext {
            resume_from: Some(&ckpt),
            ..ExecContext::default()
        };
        let err = h
            .run_job_with(Benchmark::Lps, PrefetcherKind::Mta, &resume, |_, _| {})
            .unwrap_err();
        assert!(
            matches!(
                err,
                SimError::Snapshot(snake_sim::snapshot::SnapshotError::ConfigMismatch { .. })
            ),
            "{err}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn run_job_reports_stop_reason() {
        let mut h = Harness::quick();
        let full = h.run_job(Benchmark::Lps, PrefetcherKind::Baseline).unwrap();
        assert_eq!(full.stop, StopReason::Completed);

        h.cfg.cycle_budget = Some(snake_sim::Cycle(50));
        let cut = h.run_job(Benchmark::Lps, PrefetcherKind::Baseline).unwrap();
        assert_eq!(cut.stop, StopReason::BudgetExceeded { budget: 50 });
        assert!(cut.report.cycles <= 50);
    }
}
