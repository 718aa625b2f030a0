//! The benchmark's workloads and the passes that run them.
//!
//! Every job starts from a freshly built trace and a freshly built
//! `Gpu`, so the modelled caches start cold for every kernel, as in
//! the paper's methodology.

use std::collections::HashMap;
use std::path::Path;
use std::rc::Rc;
use std::sync::Mutex;
use std::time::Instant;

use perfbench::{PrefetchTally, TimedPrefetcher};
use snake_bench::runner::JobRun;
use snake_bench::supervise::{self, ExecError, JobOutcome, JobSpec, SweepConfig};
use snake_bench::Harness;
use snake_core::{MechanismReport, PrefetcherKind};
use snake_sim::{Checkpoint, EnergyModel, Gpu, GpuConfig, Prefetcher, SimStats, StopReason};
use snake_workloads::{Benchmark, WorkloadSize};

use crate::trace::Tracer;

/// Workload names, in the order `--workload all` runs them.
pub const NAMES: [&str; 3] = ["matrix", "v100", "suspend-resume"];

/// One named workload: a harness, the jobs of its campaign pass, and
/// the jobs its suspend pass stops and resumes.
pub struct Workload {
    /// Workload name.
    pub name: &'static str,
    /// Device configuration and workload size.
    pub harness: Harness,
    /// Jobs of the campaign pass, in campaign order.
    pub jobs: Vec<JobSpec>,
    /// Jobs of the suspend pass.
    pub suspend_jobs: Vec<JobSpec>,
    /// Evenly spaced stops per suspended job.
    pub stops_per_job: u64,
    /// Whether the timed pass is the suspend pass rather than the
    /// campaign pass.
    pub times_suspend: bool,
}

impl Workload {
    /// The workload called `name`, with its traces generated from
    /// `seed`; `None` for an unknown name.
    pub fn new(name: &str, seed: u64) -> Option<Self> {
        use Benchmark::{Cp, Lps, Mum};
        use PrefetcherKind::{Baseline, Snake};
        let mut standard = Harness::standard();
        standard.size.seed = seed;
        let w = match name {
            // The campaign users run to regenerate Figs 16-19: every
            // layer in its real mix, from prefetcher-idle baseline to
            // chain-walking snake jobs.
            "matrix" => Workload {
                name: "matrix",
                harness: standard,
                jobs: supervise::campaign(Benchmark::all(), PrefetcherKind::all()),
                suspend_jobs: supervise::campaign(Benchmark::all(), &[Snake]),
                stops_per_job: 10,
                times_suspend: false,
            },
            // The full 80-SM device at a size that fills it: per-cycle
            // glue over the SMs and the 80-way interconnect fan-in
            // dominate here and are invisible at 2 SMs.
            "v100" => {
                let apps = [Lps, Cp, Mum];
                Workload {
                    name: "v100",
                    harness: Harness {
                        cfg: GpuConfig::volta_v100(),
                        size: WorkloadSize {
                            warps_per_cta: 8,
                            ctas: 160,
                            iters: WorkloadSize::standard().iters,
                            seed,
                        },
                        energy: EnergyModel::volta_like(),
                    },
                    jobs: supervise::campaign(&apps, &[Baseline, Snake]),
                    suspend_jobs: supervise::campaign(&apps, &[Snake]),
                    stops_per_job: 2,
                    times_suspend: false,
                }
            }
            // Long jobs serialised and rebuilt many times instead of
            // stepped: what deadline slicing and `--resume` pay for.
            "suspend-resume" => {
                let jobs = supervise::campaign(&[Mum, Lps], &[Snake, Baseline]);
                Workload {
                    name: "suspend-resume",
                    harness: standard,
                    suspend_jobs: jobs.clone(),
                    jobs,
                    stops_per_job: 26,
                    times_suspend: true,
                }
            }
            _ => return None,
        };
        Some(w)
    }
}

/// One checkpoint round trip at a stop.
#[derive(Debug, Clone, Default)]
pub struct RoundTrip {
    /// `Gpu::checkpoint`.
    pub save_ns: u64,
    /// `Checkpoint::write_atomic` (fsynced).
    pub write_ns: u64,
    /// `Checkpoint::load`.
    pub load_ns: u64,
    /// `Gpu::restore`.
    pub restore_ns: u64,
    /// Checkpoint file size.
    pub bytes: u64,
    /// Mean `Sm::save_state` size per SM (traced runs only).
    pub sm_bytes: u64,
    /// Size of the partition's `save_state` document (traced runs only).
    pub partition_bytes: u64,
}

/// What a job composed from public calls measured beyond its report.
#[derive(Debug, Default)]
pub struct JobDetail {
    /// Merged device statistics of the finished run.
    pub stats: SimStats,
    /// `MechanismReport::from_outcome`.
    pub report_ns: u64,
    /// Checkpoint round trips, one per stop.
    pub trips: Vec<RoundTrip>,
    /// Host nanoseconds of each simulated cycle, by cycle number
    /// (traced runs only; the final cycle has no callback).
    pub steps: Vec<u32>,
    /// Prefetcher calls and their host time (traced runs only).
    pub pf_calls: u64,
    /// See `pf_calls`.
    pub pf_ns: u64,
}

/// One finished (or failed) job.
#[derive(Debug)]
pub struct JobResult {
    /// The job.
    pub spec: JobSpec,
    /// Host time: the whole executor call in a campaign pass, the
    /// stepping time alone in a suspend pass.
    pub host_ns: u64,
    /// Simulated cycles.
    pub cycles: u64,
    /// The report row, `None` when the job failed.
    pub report: Option<MechanismReport>,
    /// Stop-reason label, or the failure message.
    pub stop: String,
    /// Present for jobs composed by [`run_job`].
    pub detail: Option<JobDetail>,
}

/// A campaign or suspend pass.
#[derive(Debug)]
pub struct Pass {
    /// Wall time of the pass.
    pub wall_ns: u64,
    /// Jobs in campaign order.
    pub jobs: Vec<JobResult>,
}

impl Pass {
    /// Σ job host time.
    pub fn job_ns(&self) -> u64 {
        self.jobs.iter().map(|j| j.host_ns).sum()
    }
}

fn nanos(start: Instant) -> u64 {
    start.elapsed().as_nanos() as u64
}

/// Runs `jobs` through `supervise::run_campaign_with`, the function
/// `run_campaign` delegates to, with one worker and one attempt per
/// job, timing each call of `run` from outside.
pub fn campaign_pass<F>(h: &Harness, jobs: &[JobSpec], run: F) -> Pass
where
    F: Fn(&JobSpec) -> Result<JobRun, ExecError> + Sync,
{
    let cfg = SweepConfig {
        workers: 1,
        max_attempts: 1,
        ..SweepConfig::default()
    };
    let times = Mutex::new(HashMap::new());
    let start = Instant::now();
    let result = supervise::run_campaign_with(h, jobs, &cfg, None, false, |job, _, _| {
        let t = Instant::now();
        let out = run(job);
        times
            .lock()
            .expect("timing lock")
            .insert(job.id(), nanos(t));
        out
    });
    let wall_ns = nanos(start);
    let times = times.into_inner().expect("timing lock");
    let jobs = match result {
        Ok(sweep) => sweep
            .outcomes
            .into_iter()
            .map(|(spec, outcome)| {
                let host_ns = times.get(&spec.id()).copied().unwrap_or(0);
                match outcome {
                    JobOutcome::Completed { report, stop, .. } => JobResult {
                        spec,
                        host_ns,
                        cycles: report.cycles,
                        report: Some(report),
                        stop,
                        detail: None,
                    },
                    other => JobResult {
                        spec,
                        host_ns,
                        cycles: 0,
                        report: None,
                        stop: format!("{other:?}"),
                        detail: None,
                    },
                }
            })
            .collect(),
        Err(e) => jobs
            .iter()
            .map(|&spec| JobResult {
                spec,
                host_ns: 0,
                cycles: 0,
                report: None,
                stop: e.to_string(),
                detail: None,
            })
            .collect(),
    };
    Pass { wall_ns, jobs }
}

/// Where a traced job records its spans.
pub struct Probe<'a> {
    /// The span recorder.
    pub tracer: &'a Tracer,
    /// Span the job's spans hang under.
    pub parent: usize,
    /// Job index within the pass.
    pub job: u32,
}

/// Runs one job from public calls — `Benchmark::build`, `Gpu::new`,
/// `Gpu::run_interruptible`, `MechanismReport::from_outcome` — the
/// same sequence `Harness::run_job` makes. At each cycle in `stops`
/// the device is checkpointed, written to `ckpt`, loaded back and
/// restored into a fresh `Gpu`, and the run continues on that one.
///
/// With a `probe`, every call gets a span, every simulated cycle is
/// timestamped, and the prefetchers run inside [`TimedPrefetcher`].
pub fn run_job(
    h: &Harness,
    spec: &JobSpec,
    stops: &[u64],
    ckpt: &Path,
    probe: Option<&Probe>,
) -> Result<(MechanismReport, StopReason, u64, JobDetail), String> {
    let traced = probe.is_some();
    let warps = h.cfg.max_warps_per_sm;
    let tally = Rc::new(PrefetchTally::default());
    let mut make = |_| -> Box<dyn Prefetcher> {
        let p = spec.kind.build(warps);
        if traced {
            Box::new(TimedPrefetcher::new(p, Rc::clone(&tally)))
        } else {
            p
        }
    };
    let open = |name| probe.map(|p| p.tracer.open(name, Some(p.parent), p.job));
    let close = |span: Option<usize>, count: u64| {
        if let (Some(p), Some(id)) = (probe, span) {
            p.tracer.close(id, count);
        }
    };
    let err = |e: &dyn std::fmt::Display| format!("{}: {e}", spec.id());

    let mut d = JobDetail::default();
    let span = open("workloads.build");
    let kernel = spec.bench.build(&h.size);
    close(span, 1);

    let span = open("gpu.new");
    let mut gpu = Gpu::new(h.cfg.clone(), kernel.clone(), &mut make).map_err(|e| err(&e))?;
    close(span, 1);

    let mut run_ns = 0;
    let mut stops = stops.iter().copied();
    let outcome = loop {
        let next = stops.next().unwrap_or(u64::MAX);
        let (calls0, pf0) = (tally.calls(), tally.nanos());
        let cycle0 = gpu.cycle().0;
        let span = open("gpu.run");
        let start = Instant::now();
        let mut last = start;
        let steps = &mut d.steps;
        let out = gpu.run_interruptible(|c| {
            if traced {
                let now = Instant::now();
                steps.push((now - last).as_nanos() as u32);
                last = now;
            }
            c.0 >= next
        });
        run_ns += nanos(start);
        let end = Instant::now();
        if let (Some(p), Some(id)) = (probe, span) {
            p.tracer.close(id, gpu.cycle().0 - cycle0);
            let calls = tally.calls() - calls0;
            if calls > 0 {
                p.tracer.aggregate(
                    "prefetch",
                    id,
                    p.job,
                    start,
                    end,
                    tally.nanos() - pf0,
                    calls,
                );
            }
        }
        if let Some(outcome) = out {
            break outcome;
        }

        let mut trip = RoundTrip::default();
        let span = open("snapshot.save");
        let t = Instant::now();
        let saved = gpu.checkpoint();
        trip.save_ns = nanos(t);
        close(span, 1);

        let span = open("snapshot.write");
        let t = Instant::now();
        trip.bytes = saved.write_atomic(ckpt).map_err(|e| err(&e))?;
        trip.write_ns = nanos(t);
        close(span, trip.bytes);

        let span = open("snapshot.load");
        let t = Instant::now();
        let loaded = Checkpoint::load(ckpt).map_err(|e| err(&e))?;
        trip.load_ns = nanos(t);
        close(span, 1);

        let span = open("gpu.new");
        let mut fresh = Gpu::new(h.cfg.clone(), kernel.clone(), &mut make).map_err(|e| err(&e))?;
        close(span, 1);

        let span = open("snapshot.restore");
        let t = Instant::now();
        fresh.restore(&loaded).map_err(|e| err(&e))?;
        trip.restore_ns = nanos(t);
        close(span, 1);

        if traced {
            let sms = fresh.sms();
            let total: usize = sms.iter().map(|sm| sm.save_state().to_string().len()).sum();
            trip.sm_bytes = (total / sms.len().max(1)) as u64;
            trip.partition_bytes = loaded
                .state
                .get("partition")
                .map_or(0, |v| v.to_string().len() as u64);
        }
        d.trips.push(trip);
        gpu = fresh;
    };

    let span = open("report.build");
    let t = Instant::now();
    let report = MechanismReport::from_outcome(
        spec.kind.name(),
        kernel.name(),
        &outcome,
        &h.cfg,
        &h.energy,
        spec.kind.has_hardware(),
    );
    d.report_ns = nanos(t);
    close(span, 1);

    d.stats = outcome.stats;
    d.pf_calls = tally.calls();
    d.pf_ns = tally.nanos();
    Ok((report, outcome.stop, run_ns, d))
}

/// Runs each job of `jobs` through [`run_job`] with `stops_per_job`
/// stops spaced evenly over the cycle count `cycles` gives for it.
pub fn suspend_pass(
    h: &Harness,
    jobs: &[JobSpec],
    cycles: &HashMap<String, u64>,
    stops_per_job: u64,
    ckpt: &Path,
    tracer: Option<(&Tracer, usize)>,
) -> Pass {
    let start = Instant::now();
    let mut out = Vec::with_capacity(jobs.len());
    for (i, spec) in jobs.iter().enumerate() {
        let total = cycles.get(&spec.id()).copied().unwrap_or(0);
        let stops: Vec<u64> = (1..=stops_per_job)
            .map(|k| total * k / (stops_per_job + 1))
            .filter(|&c| c > 0)
            .collect();
        let job_span = tracer.map(|(t, parent)| (t, t.open("job", Some(parent), i as u32)));
        let probe = job_span.map(|(tracer, parent)| Probe {
            tracer,
            parent,
            job: i as u32,
        });
        let result = run_job(h, spec, &stops, ckpt, probe.as_ref());
        if let Some((t, id)) = job_span {
            t.close(id, 1);
        }
        out.push(match result {
            Ok((report, stop, run_ns, detail)) => JobResult {
                spec: *spec,
                host_ns: run_ns,
                cycles: report.cycles,
                report: Some(report),
                stop: stop.label().to_string(),
                detail: Some(detail),
            },
            Err(e) => JobResult {
                spec: *spec,
                host_ns: 0,
                cycles: 0,
                report: None,
                stop: e,
                detail: None,
            },
        });
    }
    Pass {
        wall_ns: nanos(start),
        jobs: out,
    }
}

/// Set-up cost of a job list: Σ `Benchmark::build` and Σ `Gpu::new`
/// over the jobs, in nanoseconds.
pub fn setup_once(h: &Harness, jobs: &[JobSpec]) -> (u64, u64) {
    let warps = h.cfg.max_warps_per_sm;
    let (mut build, mut new) = (0, 0);
    for spec in jobs {
        let t = Instant::now();
        let kernel = spec.bench.build(&h.size);
        build += nanos(t);
        let t = Instant::now();
        let gpu = Gpu::new(h.cfg.clone(), kernel, |_| spec.kind.build(warps));
        new += nanos(t);
        drop(gpu);
    }
    (build, new)
}
