//! `perfbench` — the Snake reproduction's benchmark.
//!
//! ```text
//! perfbench --workload <matrix|v100|suspend-resume|all> [--seed N]
//!           [--seconds S] [--trace 0|1]
//! ```
//!
//! Every number comes from timing calls into the simulator's public
//! functions from outside; nothing is traced inside the simulator.
//! `--trace 0` prints the end-to-end metrics, measured untraced;
//! `--trace 1` is a separate run that prints the per-layer metrics.
//! Either way the last line of standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`, and the exit code
//! is non-zero when any correctness check failed. `--workload all`
//! runs each workload in its own child process, one after another.
//!
//! Load comes from this one process: campaigns run on one supervisor
//! worker, so job times are never contended by a sibling job.

mod stats;
mod trace;
mod workload;

use std::cell::RefCell;
use std::collections::HashMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::rc::Rc;
use std::sync::Mutex;
use std::time::Instant;

use snake_bench::runner::{JobRun, RunOutput};
use snake_bench::supervise::{ExecContext, ExecError, JobExecutor, JobSpec};
use snake_core::metrics::{geometric_mean, mean};
use snake_core::{MechanismReport, PrefetcherKind};
use snake_sim::snapshot::fnv1a64;
use snake_sim::{Gpu, SimStats, StallBreakdown};

use stats::{median, peak_rss_mb, quantile, quantile_u32, spread, HostRef};
use trace::{Recording, RecordingSink, ReplayTally, Tracer};
use workload::{campaign_pass, run_job, suspend_pass, JobResult, Pass, Probe, Workload};

const USAGE: &str = "usage: perfbench --workload <matrix|v100|suspend-resume|all> \
                     [--seed N] [--seconds S] [--trace 0|1]";

/// The paper's Snake figures (MICRO '23, Figs 16-18, measured there on
/// Accel-Sim): mean coverage, mean timely accuracy, and geomean IPC
/// speedup, all in percent.
const PAPER_COVERAGE_PCT: f64 = 80.0;
const PAPER_ACCURACY_PCT: f64 = 75.0;
const PAPER_SPEEDUP_PCT: f64 = 117.0;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0xC0FFEE,
        seconds: 20.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => {
                let v = value()?;
                args.seed = match v.strip_prefix("0x") {
                    Some(hex) => u64::from_str_radix(hex, 16),
                    None => v.parse(),
                }
                .map_err(|e| format!("--seed {v}: {e}"))?;
            }
            "--seconds" => {
                let v = value()?;
                args.seconds = v
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("--seconds {v}: need a positive number"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace {v}: need 0 or 1")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    let Some(w) = Workload::new(&args.workload, args.seed) else {
        eprintln!("perfbench: unknown workload {:?}\n{USAGE}", args.workload);
        return ExitCode::from(2);
    };
    let mut bench = Bench::new(w, &args);
    let (mut metrics, untraced) = bench.timed();
    if args.trace {
        let layers = bench.traced(&untraced);
        metrics.extend(layers);
    }
    bench.finish(&metrics)
}

/// Runs every workload in its own child process, waiting for each.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("perfbench: cannot locate own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for name in workload::NAMES {
        let status = Command::new(&exe)
            .args(["--workload", name, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status();
        match status {
            Ok(s) if s.success() => {}
            Ok(s) => {
                eprintln!("perfbench: workload {name} failed ({s})");
                ok = false;
            }
            Err(e) => {
                eprintln!("perfbench: cannot run workload {name}: {e}");
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Correctness bookkeeping: one attempt per job run, failed at most
/// once.
#[derive(Default)]
struct Checks {
    attempted: u64,
    failed: u64,
    reasons: Vec<String>,
}

impl Checks {
    fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.reasons.len() < 20 {
            self.reasons.push(why);
        }
    }

    /// Counts one job run and checks that it stopped `Completed`, that
    /// its eight stall fractions sum to 1, and — given a reference —
    /// that its report bytes equal the reference run's.
    fn job(&mut self, what: &str, j: &JobResult, reference: Option<&HashMap<String, String>>) {
        self.attempted += 1;
        let id = j.spec.id();
        let Some(r) = &j.report else {
            return self.fail(format!("{what} {id}: {}", j.stop));
        };
        if j.stop != "completed" {
            return self.fail(format!("{what} {id}: stopped {}", j.stop));
        }
        let stall = r.stall_issued
            + r.stall_no_warp
            + r.stall_barrier
            + r.stall_scoreboard
            + r.stall_mem_data
            + r.stall_mem_mshr
            + r.stall_mem_missq
            + r.stall_mem_noc;
        if (stall - 1.0).abs() > 1e-9 {
            return self.fail(format!("{what} {id}: stall fractions sum to {stall}"));
        }
        if let Some(reference) = reference {
            if reference.get(&id) != Some(&r.to_json().to_string()) {
                self.fail(format!(
                    "{what} {id}: report bytes differ from the reference run"
                ));
            }
        }
    }

    fn pass(&mut self, what: &str, pass: &Pass, reference: Option<&HashMap<String, String>>) {
        for j in &pass.jobs {
            self.job(what, j, reference);
        }
    }
}

/// Exact report bytes per job id.
fn report_bytes(pass: &Pass) -> HashMap<String, String> {
    pass.jobs
        .iter()
        .filter_map(|j| Some((j.spec.id(), j.report.as_ref()?.to_json().to_string())))
        .collect()
}

/// fnv1a64 over every report's bytes, in campaign order.
fn digest(pass: &Pass) -> u64 {
    let mut text = String::new();
    for j in &pass.jobs {
        match &j.report {
            Some(r) => text.push_str(&r.to_json().to_string()),
            None => text.push_str("failed"),
        }
        text.push('\n');
    }
    fnv1a64(text.as_bytes())
}

/// Snake's distance from the paper, computed as `figures.rs` computes
/// the Fig 16/17/18 MEAN rows, over the apps the pass ran under both
/// `snake` and `baseline`: (coverage, accuracy, geomean speedup), each
/// as (measured %, |measured − paper| in percentage points).
fn paper_gap(pass: &Pass) -> Option<[(f64, f64); 3]> {
    let find = |bench, kind| {
        pass.jobs
            .iter()
            .find(|j| j.spec.bench == bench && j.spec.kind == kind)
            .and_then(|j| j.report.as_ref())
    };
    let (mut cov, mut acc, mut spd) = (Vec::new(), Vec::new(), Vec::new());
    for j in pass
        .jobs
        .iter()
        .filter(|j| j.spec.kind == PrefetcherKind::Snake)
    {
        let (Some(s), Some(b)) = (
            j.report.as_ref(),
            find(j.spec.bench, PrefetcherKind::Baseline),
        ) else {
            continue;
        };
        cov.push(s.coverage);
        acc.push(s.accuracy);
        spd.push(s.speedup_over(b));
    }
    if cov.is_empty() {
        return None;
    }
    let pct = [
        mean(&cov) * 100.0,
        mean(&acc) * 100.0,
        geometric_mean(&spd) * 100.0,
    ];
    let paper = [PAPER_COVERAGE_PCT, PAPER_ACCURACY_PCT, PAPER_SPEEDUP_PCT];
    Some([0, 1, 2].map(|i| (pct[i], (pct[i] - paper[i]).abs())))
}

/// Metrics in print order: (name, value, unit).
type Metrics = Vec<(&'static str, f64, &'static str)>;

/// The metrics an untraced run reports in its JSON line. The host
/// times of the timed passes repeat only within ±15-30% from run to
/// run on a shared 2-vCPU host, so they are reported with the
/// per-layer metrics of the traced run instead, which carry no bound.
const END_TO_END: [&str; 5] = [
    "setup_s",
    "peak_rss_mb",
    "paper_gap.coverage_pp",
    "paper_gap.accuracy_pp",
    "paper_gap.speedup_pp",
];

/// What the untraced measurement leaves for the traced run.
struct Untraced {
    setup: Vec<(u64, u64)>,
    campaigns: Vec<Pass>,
    suspends: Vec<Pass>,
}

struct Bench {
    w: Workload,
    seconds: f64,
    trace: bool,
    ckpt: PathBuf,
    out_dir: PathBuf,
    checks: Checks,
    host_ref: HostRef,
    host_ref_ms: Vec<f64>,
    exec: JobExecutor,
}

impl Bench {
    fn new(w: Workload, args: &Args) -> Self {
        // Everything the benchmark writes stays inside its own
        // directory of the checkout it was built from.
        let out_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
        let ckpt = out_dir.join(format!("{}-{}.ckpt", w.name, std::process::id()));
        let mut checks = Checks::default();
        if let Err(e) = std::fs::create_dir_all(&out_dir) {
            checks.fail(format!("creating {}: {e}", out_dir.display()));
        }
        Bench {
            w,
            seconds: args.seconds,
            trace: args.trace,
            ckpt,
            out_dir,
            checks,
            host_ref: HostRef::new(),
            host_ref_ms: Vec::new(),
            exec: JobExecutor::in_thread(),
        }
    }

    fn sample_host(&mut self) {
        for _ in 0..3 {
            self.host_ref_ms.push(self.host_ref.time_ms());
        }
    }

    /// The user's campaign path: the in-thread executor, exactly as
    /// `supervise::run_campaign` calls it on a first attempt.
    fn campaign(&self) -> Pass {
        let h = &self.w.harness;
        campaign_pass(h, &self.w.jobs, |job| {
            self.exec
                .run(h, job, &ExecContext::default(), &mut |_, _| {})
        })
    }

    /// Set-up: trace builds plus `Gpu::new` for every job of the
    /// campaign, repeated (≥ 5 times, ≥ 1 s) to take a median.
    /// Returns (Σ build, Σ new) per repetition, in nanoseconds.
    fn setup(&self) -> Vec<(u64, u64)> {
        let start = Instant::now();
        let mut reps = Vec::new();
        while reps.len() < 5 || (start.elapsed().as_secs_f64() < 1.0 && reps.len() < 200) {
            reps.push(workload::setup_once(&self.w.harness, &self.w.jobs));
        }
        reps
    }

    /// One untimed job, so lazily initialised state and the host's
    /// caches are warm before anything is timed.
    fn warm_up(&mut self) {
        let h = &self.w.harness;
        let job = self.w.jobs[0];
        if let Err(e) = self
            .exec
            .run(h, &job, &ExecContext::default(), &mut |_, _| {})
        {
            self.checks.fail(format!("warm-up {}: {e}", job.id()));
        }
    }

    /// Whether another pass of `last_ns` still fits the time budget.
    fn more(&self, since: Instant, last_ns: u64) -> bool {
        since.elapsed().as_secs_f64() + last_ns as f64 / 1e9 <= self.seconds * 1.15
    }

    fn cycles_of(pass: &Pass) -> HashMap<String, u64> {
        pass.jobs.iter().map(|j| (j.spec.id(), j.cycles)).collect()
    }

    /// The untraced measurement every run starts with: set-up, then
    /// timed passes for `--seconds`, then the suspend leg.
    fn timed(&mut self) -> (Metrics, Untraced) {
        let setup = self.setup();
        self.warm_up();
        self.sample_host();
        let h = self.w.harness.clone();
        let mut campaigns: Vec<Pass> = Vec::new();
        let mut suspends: Vec<Pass> = Vec::new();
        let start = Instant::now();
        loop {
            let pass = self.campaign();
            self.sample_host();
            let wall = pass.wall_ns;
            campaigns.push(pass);
            if self.w.times_suspend || !self.more(start, wall) {
                break;
            }
        }
        let reference = report_bytes(&campaigns[0]);
        let cycles = Self::cycles_of(&campaigns[0]);
        for (i, pass) in campaigns.iter().enumerate() {
            let what = format!("campaign pass {i}");
            self.checks.pass(&what, pass, Some(&reference));
        }
        // The suspend pass is the timed pass of `suspend-resume`; the
        // other workloads take one after their campaign passes.
        let start = Instant::now();
        loop {
            let pass = suspend_pass(
                &h,
                &self.w.suspend_jobs,
                &cycles,
                self.w.stops_per_job,
                &self.ckpt,
                None,
            );
            self.sample_host();
            self.checks.pass("suspend pass", &pass, Some(&reference));
            let wall = pass.wall_ns;
            suspends.push(pass);
            if !self.w.times_suspend || !self.more(start, wall) {
                break;
            }
        }

        let timed = if self.w.times_suspend {
            &suspends
        } else {
            &campaigns
        };
        let mut m: Metrics = Vec::new();
        let setup_s: Vec<f64> = setup.iter().map(|&(b, n)| (b + n) as f64 / 1e9).collect();
        m.push(("setup_s", median(&setup_s), "s"));
        // Host interference here only ever slows a job down, and it
        // comes in regimes lasting tens of seconds. So each job's host
        // time is its minimum over the interleaved passes (min-of-N, the
        // estimator for deterministic CPU-bound work), and quantiles are
        // taken across the job mix.
        let walls: Vec<f64> = timed.iter().map(|p| p.wall_ns as f64 / 1e9).collect();
        m.push(("wall_s", quantile(&walls, 0.0), "s"));
        let mut best: HashMap<String, (u64, u64)> = HashMap::new();
        for j in timed.iter().flat_map(|p| &p.jobs).filter(|j| j.cycles > 0) {
            let e = best.entry(j.spec.id()).or_insert((j.cycles, u64::MAX));
            e.1 = e.1.min(j.host_ns);
        }
        let cycles: u64 = best.values().map(|b| b.0).sum();
        let job_ns: u64 = best.values().map(|b| b.1).sum();
        m.push((
            "sim_cycles_per_s",
            cycles as f64 / job_ns as f64 * 1e9,
            "1/s",
        ));
        let per_cycle: Vec<f64> = best.values().map(|&(c, ns)| ns as f64 / c as f64).collect();
        m.push(("job_ns_per_cycle.p50", quantile(&per_cycle, 0.5), "ns"));
        m.push(("job_ns_per_cycle.p90", quantile(&per_cycle, 0.9), "ns"));
        let mut trips: HashMap<(String, usize), (u64, u64)> = HashMap::new();
        for j in suspends.iter().flat_map(|p| &p.jobs) {
            for (k, t) in j.detail.iter().flat_map(|d| d.trips.iter().enumerate()) {
                let e = trips
                    .entry((j.spec.id(), k))
                    .or_insert((u64::MAX, u64::MAX));
                e.0 = e.0.min(t.save_ns + t.write_ns);
                e.1 = e.1.min(t.load_ns + t.restore_ns);
            }
        }
        let suspend: Vec<f64> = trips.values().map(|t| t.0 as f64 / 1e6).collect();
        let resume: Vec<f64> = trips.values().map(|t| t.1 as f64 / 1e6).collect();
        m.push(("suspend_ms.p50", quantile(&suspend, 0.5), "ms"));
        m.push(("suspend_ms.p90", quantile(&suspend, 0.9), "ms"));
        m.push(("resume_ms.p50", quantile(&resume, 0.5), "ms"));
        m.push(("resume_ms.p90", quantile(&resume, 0.9), "ms"));
        m.push(("peak_rss_mb", peak_rss_mb(), "MB"));
        self.push_paper_gap(&mut m, &campaigns[0]);

        println!(
            "samples: {} jobs, each the minimum of {} timed passes; {} suspend/resume stops, \
             each the minimum of {} passes; {} set-up repetitions (median)",
            per_cycle.len(),
            timed.len(),
            trips.len(),
            suspends.len(),
            setup.len()
        );
        println!("report digest (fnv1a64): {:016x}", digest(&campaigns[0]));
        self.print_noise(timed);
        let untraced = Untraced {
            setup,
            campaigns,
            suspends,
        };
        (m, untraced)
    }

    fn push_paper_gap(&mut self, m: &mut Metrics, pass: &Pass) {
        let Some([cov, acc, spd]) = paper_gap(pass) else {
            self.checks
                .fail("no snake/baseline pair to compare with the paper".into());
            return;
        };
        println!(
            "snake vs paper: coverage {:.1}% (paper ~{PAPER_COVERAGE_PCT}%), \
             accuracy {:.1}% (~{PAPER_ACCURACY_PCT}%), geomean speedup {:.3} (~{:.2}); \
             the paper's numbers come from Accel-Sim, and this model is not validated \
             against hardware",
            cov.0,
            acc.0,
            spd.0 / 100.0,
            PAPER_SPEEDUP_PCT / 100.0
        );
        m.push(("paper_gap.coverage_pp", cov.1, "pp"));
        m.push(("paper_gap.accuracy_pp", acc.1, "pp"));
        m.push(("paper_gap.speedup_pp", spd.1, "pp"));
    }

    /// Noise attribution: the host-reference loop's spread next to the
    /// spread of each job across passes.
    fn print_noise(&self, timed: &[Pass]) {
        let mut by_job: HashMap<String, Vec<f64>> = HashMap::new();
        for j in timed.iter().flat_map(|p| &p.jobs).filter(|j| j.cycles > 0) {
            by_job
                .entry(j.spec.id())
                .or_default()
                .push(j.host_ns as f64 / j.cycles as f64);
        }
        let job_spreads: Vec<f64> = by_job
            .values()
            .filter(|v| v.len() >= 3)
            .map(|v| spread(v))
            .collect();
        let host = spread(&self.host_ref_ms);
        let program = median(&job_spreads);
        let walls: Vec<f64> = timed.iter().map(|p| p.wall_ns as f64).collect();
        println!(
            "noise (diagnostic): host-reference loop p50 {:.3} ms, spread {:.1}% over {} samples; \
             same job across passes: median spread {:.1}% over {} jobs; pass wall spread {:.1}%",
            median(&self.host_ref_ms),
            host * 100.0,
            self.host_ref_ms.len(),
            program * 100.0,
            job_spreads.len(),
            spread(&walls) * 100.0
        );
        if program.is_finite() && host.is_finite() {
            let side = if program > 2.0 * host {
                "the program (jobs vary more than the host reference)"
            } else {
                "the host (jobs vary no more than the host reference)"
            };
            println!("noise attribution: run-to-run variation comes mostly from {side}");
        }
    }

    /// The traced run, after [`Bench::timed`]: per-layer metrics.
    fn traced(&mut self, u: &Untraced) -> Metrics {
        let h = self.w.harness.clone();
        let tracer = Tracer::new();
        let untraced = &u.campaigns[0];
        let reference = report_bytes(untraced);
        let cycles = Self::cycles_of(untraced);
        let overheads: Vec<f64> = u
            .campaigns
            .iter()
            .map(|p| (p.wall_ns - p.job_ns()) as f64 / 1e6)
            .collect();
        let walls =
            |passes: &[Pass]| median(&passes.iter().map(|p| p.wall_ns as f64).collect::<Vec<_>>());

        let (wall_untraced, traced_pass, trip_pass) = if self.w.times_suspend {
            let root = tracer.open("suspend_pass", None, 0);
            let traced = suspend_pass(
                &h,
                &self.w.suspend_jobs,
                &cycles,
                self.w.stops_per_job,
                &self.ckpt,
                Some((&tracer, root)),
            );
            tracer.close(root, traced.jobs.len() as u64);
            (walls(&u.suspends), traced, None)
        } else {
            let root = tracer.open("campaign", None, 0);
            let details = Mutex::new(HashMap::new());
            let jobs = &self.w.jobs;
            let (tracer_ref, ckpt) = (&tracer, &self.ckpt);
            let mut traced = campaign_pass(&h, jobs, |job: &JobSpec| {
                let i = jobs.iter().position(|j| j == job).unwrap_or(0) as u32;
                let span = tracer_ref.open("job", Some(root), i);
                let probe = Probe {
                    tracer: tracer_ref,
                    parent: span,
                    job: i,
                };
                let result = run_job(&h, job, &[], ckpt, Some(&probe));
                tracer_ref.close(span, 1);
                let (report, stop, _, detail) = result.map_err(ExecError::Typed)?;
                details
                    .lock()
                    .expect("detail lock")
                    .insert(job.id(), detail);
                Ok(JobRun::Finished(Box::new(RunOutput {
                    report,
                    stop,
                    host: None,
                })))
            });
            tracer.close(root, traced.jobs.len() as u64);
            let mut details = details.into_inner().expect("detail lock");
            for j in &mut traced.jobs {
                j.detail = details.remove(&j.spec.id());
            }
            let root = tracer.open("suspend_pass", None, 0);
            let trips = suspend_pass(
                &h,
                &self.w.suspend_jobs,
                &cycles,
                self.w.stops_per_job,
                &self.ckpt,
                Some((&tracer, root)),
            );
            tracer.close(root, trips.jobs.len() as u64);
            self.checks
                .pass("traced suspend pass", &trips, Some(&reference));
            (walls(&u.campaigns), traced, Some(trips))
        };
        self.checks
            .pass("traced pass", &traced_pass, Some(&reference));
        let trip_pass = trip_pass.as_ref().unwrap_or(&traced_pass);
        let traced_digest = digest(&traced_pass);
        println!(
            "report digest (fnv1a64): untraced {:016x}, traced {traced_digest:016x}",
            digest(untraced)
        );

        let (sink, mut steps) = self.sink_pass(&traced_pass, &reference);
        let spans = tracer.spans();
        let mut m: Metrics = Vec::new();
        let builds: Vec<f64> = u.setup.iter().map(|&(b, _)| b as f64 / 1e6).collect();
        let news: Vec<f64> = u.setup.iter().map(|&(_, n)| n as f64 / 1e6).collect();
        m.push(("workloads.build_ms", median(&builds), "ms"));
        m.push(("gpu.new_ms", median(&news), "ms"));

        let sms = f64::from(h.cfg.num_sms);
        let step_p50 = quantile_u32(&mut steps.all, 0.5);
        m.push(("gpu.step_ns.p50", step_p50, "ns"));
        m.push(("gpu.step_ns.p99", quantile_u32(&mut steps.all, 0.99), "ns"));
        m.push(("gpu.step_ns_per_sm.p50", step_p50 / sms, "ns"));
        m.push((
            "gpu.quiet_share",
            sink.quiet as f64 / sink.cycles as f64,
            "fraction",
        ));
        m.push((
            "gpu.quiet_step_ns.p50",
            quantile_u32(&mut steps.quiet, 0.5),
            "ns",
        ));
        m.push((
            "gpu.busy_step_ns.p50",
            quantile_u32(&mut steps.busy, 0.5),
            "ns",
        ));

        let details: Vec<(&JobResult, &workload::JobDetail)> = traced_pass
            .jobs
            .iter()
            .filter_map(|j| Some((j, j.detail.as_ref()?)))
            .collect();
        let mut stats = SimStats::default();
        let mut cycles_total = 0u64;
        let mut noc_capacity = 0f64;
        for (j, d) in &details {
            stats.merge(&d.stats);
            cycles_total += j.cycles;
            noc_capacity += 2.0 * f64::from(h.cfg.noc_bytes_per_cycle) * j.cycles as f64;
        }
        let run_ns: u64 = details.iter().map(|(j, _)| j.host_ns).sum();
        let clock = stats::clock_overhead_ns();
        let pf_jobs: Vec<&(&JobResult, &workload::JobDetail)> = details
            .iter()
            .filter(|(j, _)| j.spec.kind != PrefetcherKind::Baseline)
            .collect();
        let pf_calls: u64 = pf_jobs.iter().map(|(_, d)| d.pf_calls).sum();
        let pf_ns: u64 = pf_jobs.iter().map(|(_, d)| d.pf_ns).sum();
        let pf_run: u64 = pf_jobs.iter().map(|(j, _)| j.host_ns).sum();
        let all_pf_ns: u64 = details.iter().map(|(_, d)| d.pf_ns).sum();
        let all_pf_calls: u64 = details.iter().map(|(_, d)| d.pf_calls).sum();

        // What the replays explain of the run loop; the rest is SM
        // issue plus per-cycle glue, which no public function isolates.
        let l1_ns = (sink.l1.ns.iter().sum::<u64>() as f64
            - sink.l1.calls.iter().sum::<u64>() as f64 * clock)
            * sink.l1_scale;
        let mem_ns = sink.mem.ns.iter().sum::<u64>() as f64
            - sink.mem.calls.iter().sum::<u64>() as f64 * clock;
        let pf_self = all_pf_ns as f64 - all_pf_calls as f64 * clock;
        let residual = 1.0 - (pf_self + l1_ns + mem_ns) / run_ns as f64;
        m.push(("gpu.residual_share", residual, "fraction"));

        m.push((
            "sm.ipc",
            stats.instructions as f64 / cycles_total as f64,
            "instr/cycle",
        ));
        let st: &StallBreakdown = &stats.stall;
        for (name, bucket) in [
            ("sm.stall.issued", st.issued),
            ("sm.stall.no_warp", st.no_warp),
            ("sm.stall.barrier", st.barrier),
            ("sm.stall.scoreboard", st.scoreboard),
            ("sm.stall.mem_data", st.mem_data),
            ("sm.stall.mem_mshr", st.mem_struct_mshr),
            ("sm.stall.mem_missq", st.mem_struct_missq),
            ("sm.stall.mem_noc", st.mem_struct_noc),
        ] {
            m.push((name, st.fraction(bucket), "fraction"));
        }

        let c = &stats.l1;
        let merges = (c.hits_reserved + c.merges_with_prefetch) as f64;
        m.push(("l1.hit_rate", c.hit_rate(), "fraction"));
        m.push((
            "l1.reservation_fail_rate",
            c.reservation_fail_rate(),
            "fraction",
        ));
        m.push((
            "mshr.merge_rate",
            merges / (merges + c.misses as f64),
            "fraction",
        ));
        m.push((
            "l1.replay.access_ns",
            sink.l1.ns_per_call(trace::ACCESS, clock),
            "ns",
        ));
        m.push((
            "l1.replay.fill_ns",
            sink.l1.ns_per_call(trace::FILL, clock),
            "ns",
        ));
        m.push((
            "l1.replay.prefetch_ns",
            sink.l1.ns_per_call(trace::PREFETCH, clock),
            "ns",
        ));
        m.push(("l1.replay.fidelity", sink.l1.fidelity(), "fraction"));

        let noc_bytes = (stats.noc_bytes_up + stats.noc_bytes_down) as f64;
        m.push(("noc.utilization", noc_bytes / noc_capacity, "fraction"));
        let l2 = (stats.l2_hits + stats.l2_misses) as f64;
        m.push(("l2.hit_rate", stats.l2_hits as f64 / l2, "fraction"));
        m.push((
            "mem.replay.send_ns",
            sink.mem.ns_per_call(trace::SEND, clock),
            "ns",
        ));
        m.push((
            "mem.replay.tick_ns",
            sink.mem.ns_per_call(trace::TICK, clock),
            "ns",
        ));
        m.push(("mem.replay.fidelity", sink.mem.fidelity(), "fraction"));

        let mut pf = snake_sim::PrefetchStats::default();
        for (_, d) in &pf_jobs {
            let p = &d.stats.prefetch;
            pf.issued += p.issued;
            pf.useful += p.useful;
            pf.late += p.late;
        }
        let used = (pf.useful + pf.late) as f64;
        m.push(("prefetch.calls", pf_calls as f64, "count"));
        m.push((
            "prefetch.ns_per_call",
            pf_ns as f64 / pf_calls as f64 - clock,
            "ns",
        ));
        m.push((
            "prefetch.self_share",
            (pf_ns as f64 - pf_calls as f64 * clock) / pf_run as f64,
            "fraction",
        ));
        m.push(("prefetch.issued", pf.issued as f64, "count"));
        m.push(("prefetch.accuracy", used / pf.issued as f64, "fraction"));
        m.push(("prefetch.timely_share", pf.useful as f64 / used, "fraction"));

        let trips: Vec<&workload::RoundTrip> = trip_pass
            .jobs
            .iter()
            .filter_map(|j| j.detail.as_ref())
            .flat_map(|d| &d.trips)
            .collect();
        let med = |f: &dyn Fn(&workload::RoundTrip) -> f64| {
            median(&trips.iter().map(|t| f(t)).collect::<Vec<_>>())
        };
        m.push(("snapshot.save_ms", med(&|t| t.save_ns as f64 / 1e6), "ms"));
        m.push(("snapshot.write_ms", med(&|t| t.write_ns as f64 / 1e6), "ms"));
        m.push(("snapshot.load_ms", med(&|t| t.load_ns as f64 / 1e6), "ms"));
        m.push((
            "snapshot.restore_ms",
            med(&|t| t.restore_ns as f64 / 1e6),
            "ms",
        ));
        m.push(("snapshot.kb", med(&|t| t.bytes as f64 / 1024.0), "KiB"));
        m.push((
            "snapshot.sm_kb",
            med(&|t| t.sm_bytes as f64 / 1024.0),
            "KiB",
        ));
        m.push((
            "snapshot.partition_kb",
            med(&|t| t.partition_bytes as f64 / 1024.0),
            "KiB",
        ));

        let reports: Vec<f64> = details
            .iter()
            .map(|(_, d)| d.report_ns as f64 / 1e3)
            .collect();
        m.push(("report.build_us", median(&reports), "us"));
        m.push(("supervise.overhead_ms", median(&overheads), "ms"));
        m.push((
            "trace.overhead",
            traced_pass.wall_ns as f64 / wall_untraced,
            "ratio",
        ));

        println!(
            "bases: prefetch.* over {} non-baseline jobs; prefetch.accuracy = used/issued \
             ({used} of {} issued); prefetch.timely_share = timely/used; step times over {} \
             cycles of {} jobs, quiet/busy joined on cycle number with the sink-attached pass; \
             L1 replay of {} SM(s) per job scaled x{:.0} for the residual",
            pf_jobs.len(),
            pf.issued,
            steps.all.len(),
            details.len(),
            sink.l1_sms,
            sink.l1_scale
        );
        println!(
            "replay fidelity: L1 {:.4} over {} outcomes{}, memory {:.4} over {} outcomes{}",
            sink.l1.fidelity(),
            sink.l1.compared,
            if sink.l1.aborted {
                " (a replay aborted)"
            } else {
                ""
            },
            sink.mem.fidelity(),
            sink.mem.compared,
            if sink.mem.aborted {
                " (a replay aborted)"
            } else {
                ""
            },
        );
        println!(
            "gap: SM issue plus run-loop glue has no public function to time; it is the \
             unreplayed residual gpu.residual_share = {:.3} of run time, left for tracing \
             inside the program",
            residual
        );
        println!("self time by span (traced passes):");
        for (name, own, count) in trace::self_by_name(&spans) {
            println!("  {name:<18} {:>10.1} ms  count {count}", own as f64 / 1e6);
        }
        let path = self.out_dir.join(format!("spans-{}.jsonl", self.w.name));
        match trace::write_spans(&path, &spans) {
            Ok(()) => println!("spans: {} written to {}", spans.len(), path.display()),
            Err(e) => self
                .checks
                .fail(format!("writing spans to {}: {e}", path.display())),
        }
        m
    }

    /// The sink-attached pass: every campaign job again with a
    /// counting `TraceSink`, its quiet cycles joined with the traced
    /// pass's step times, and its L1 and memory call streams replayed.
    fn sink_pass(
        &mut self,
        traced: &Pass,
        reference: &HashMap<String, String>,
    ) -> (SinkSummary, Steps) {
        let h = self.w.harness.clone();
        let warps = h.cfg.max_warps_per_sm;
        let l1_sms = h.cfg.num_sms.min(2) as usize;
        let mut sum = SinkSummary {
            l1_sms,
            l1_scale: f64::from(h.cfg.num_sms) / l1_sms as f64,
            ..SinkSummary::default()
        };
        let mut steps = Steps::default();
        for spec in &self.w.jobs {
            let kernel = spec.bench.build(&h.size);
            let placement = spec.kind.build(warps).placement();
            let rec = Rc::new(RefCell::new(Recording::new(
                l1_sms,
                u64::from(h.cfg.l1.line_bytes),
            )));
            let result = Gpu::new(h.cfg.clone(), kernel.clone(), |_| spec.kind.build(warps)).map(
                |mut gpu| {
                    gpu.attach_sink(Box::new(RecordingSink(Rc::clone(&rec))));
                    gpu.run()
                },
            );
            let job = match result {
                Ok(outcome) => {
                    let report = MechanismReport::from_outcome(
                        spec.kind.name(),
                        kernel.name(),
                        &outcome,
                        &h.cfg,
                        &h.energy,
                        spec.kind.has_hardware(),
                    );
                    JobResult {
                        spec: *spec,
                        host_ns: 0,
                        cycles: report.cycles,
                        report: Some(report),
                        stop: outcome.stop.label().to_string(),
                        detail: None,
                    }
                }
                Err(e) => JobResult {
                    spec: *spec,
                    host_ns: 0,
                    cycles: 0,
                    report: None,
                    stop: e.to_string(),
                    detail: None,
                },
            };
            self.checks.job("sink-attached pass", &job, Some(reference));
            let rec = rec.borrow();
            sum.cycles += job.cycles;
            sum.quiet += job.cycles.saturating_sub(rec.busy_cycles());
            let job_steps = traced
                .jobs
                .iter()
                .find(|j| j.spec == *spec)
                .and_then(|j| j.detail.as_ref())
                .map_or(&[][..], |d| &d.steps[..]);
            for (c, &ns) in job_steps.iter().enumerate() {
                steps.all.push(ns);
                if rec.is_busy(c) {
                    steps.busy.push(ns);
                } else {
                    steps.quiet.push(ns);
                }
            }
            sum.l1.merge(&trace::replay_l1(&rec, &h.cfg, placement));
            sum.mem.merge(&trace::replay_mem(&rec, &h.cfg, job.cycles));
        }
        (sum, steps)
    }

    /// Prints every metric, then the JSON result line: the end-to-end
    /// metrics for an untraced run, everything else for a traced one.
    fn finish(&mut self, metrics: &Metrics) -> ExitCode {
        let _ = std::fs::remove_file(&self.ckpt);
        let _ = std::fs::remove_file(self.ckpt.with_extension("ckpt-tmp"));
        let mut json = String::new();
        for (name, value, unit) in metrics {
            if !value.is_finite() {
                self.checks
                    .fail(format!("metric {name} could not be computed"));
            }
            println!("{name} = {value} {unit}");
            if END_TO_END.contains(name) == self.trace {
                continue;
            }
            if !json.is_empty() {
                json.push_str(", ");
            }
            let value = if value.is_finite() { *value } else { 0.0 };
            json.push_str(&format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        let c = &self.checks;
        println!(
            "workload {} ({}): {} job runs attempted, {} failed, failed_frac = {}",
            self.w.name,
            if self.trace { "traced" } else { "untraced" },
            c.attempted,
            c.failed,
            c.failed as f64 / c.attempted.max(1) as f64
        );
        for why in &c.reasons {
            println!("FAILED: {why}");
        }
        let correct = c.failed == 0;
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
            c.attempted.max(1),
            c.failed
        );
        if correct {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        }
    }
}

/// What the sink-attached pass measured.
#[derive(Default)]
struct SinkSummary {
    cycles: u64,
    quiet: u64,
    l1: ReplayTally,
    mem: ReplayTally,
    l1_sms: usize,
    l1_scale: f64,
}

/// Per-cycle step times of the traced pass, split by the sink pass.
#[derive(Default)]
struct Steps {
    all: Vec<u32>,
    quiet: Vec<u32>,
    busy: Vec<u32>,
}
