//! Full-matrix byte-identity pin at quick size: every (benchmark,
//! mechanism) job of the figure campaign, run through the in-thread
//! executor with a default context, must reproduce the committed
//! cycles and the fnv1a64 hash of its exact `MechanismReport` bytes —
//! and so must every job checkpointed at a seeded cycle, written,
//! loaded and restored into a fresh device.

use snake_bench::runner::JobRun;
use snake_bench::supervise::{campaign, digest_line, ExecContext, JobExecutor};
use snake_bench::Harness;
use snake_core::{MechanismReport, PrefetcherKind};
use snake_sim::snapshot::{fnv1a64, Checkpoint};
use snake_sim::Gpu;
use snake_workloads::Benchmark;

const GOLDEN: &str = "../../tests/golden/sweep_digest_quick.txt";

/// One line per job: `BENCH/mech cycles fnv1a64(report JSON)`.
fn digest() -> String {
    let h = Harness::quick();
    let executor = JobExecutor::in_thread();
    let mut out = String::new();
    for job in campaign(Benchmark::all(), PrefetcherKind::all()) {
        let run = executor
            .run(&h, &job, &ExecContext::default(), &mut |_, _| {})
            .unwrap_or_else(|e| panic!("{}: {e}", job.id()));
        let JobRun::Finished(run) = run else {
            panic!("{}: expected a finished run, got {run:?}", job.id());
        };
        out.push_str(&digest_line(&job.id(), &run.report));
    }
    out
}

fn golden() -> (std::path::PathBuf, String) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(GOLDEN);
    let expected = std::fs::read_to_string(&path).unwrap_or_default();
    (path, expected)
}

#[test]
fn quick_matrix_reports_match_the_committed_digest() {
    let (path, expected) = golden();
    check(&path, &expected, &digest());
}

/// The checkpoint/restore leg: each job stops at cycle
/// `fnv1a64(id) % cycles` (its cycle count from the golden file), is
/// checkpointed, written, loaded, restored into a fresh `Gpu`, and
/// finished there. Its line must not change.
#[test]
fn quick_matrix_survives_a_checkpoint_at_a_seeded_cycle() {
    let (path, expected) = golden();
    let h = Harness::quick();
    let warps = h.cfg.max_warps_per_sm;
    let dir = std::env::temp_dir().join(format!("snake-digest-ckpt-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let ckpt = dir.join("job.ckpt");
    let mut actual = String::new();
    for job in campaign(Benchmark::all(), PrefetcherKind::all()) {
        let id = job.id();
        let cycles: u64 = expected
            .lines()
            .find_map(|line| line.strip_prefix(&format!("{id} ")))
            .and_then(|rest| rest.split(' ').next()?.parse().ok())
            .unwrap_or_else(|| panic!("{id}: no line in {}", path.display()));
        let stop = fnv1a64(id.as_bytes()) % cycles.max(1);
        let kernel = job.bench.build(&h.size);
        let new_gpu =
            || Gpu::new(h.cfg.clone(), kernel.clone(), |_| job.kind.build(warps)).unwrap();
        let mut gpu = new_gpu();
        let outcome = match gpu.run_interruptible(|c| c.0 >= stop) {
            Some(outcome) => outcome,
            None => {
                gpu.checkpoint().write_atomic(&ckpt).unwrap();
                let mut fresh = new_gpu();
                fresh
                    .restore(&Checkpoint::load(&ckpt).unwrap())
                    .unwrap_or_else(|e| panic!("{id}: restore at {stop}: {e}"));
                fresh.run()
            }
        };
        let report = MechanismReport::from_outcome(
            job.kind.name(),
            kernel.name(),
            &outcome,
            &h.cfg,
            &h.energy,
            job.kind.has_hardware(),
        );
        actual.push_str(&digest_line(&id, &report));
    }
    std::fs::remove_dir_all(&dir).unwrap();
    check(&path, &expected, &actual);
}

fn check(path: &std::path::Path, expected: &str, actual: &str) {
    if actual != expected {
        let changed: Vec<&str> = actual
            .lines()
            .filter(|line| !expected.lines().any(|e| e == *line))
            .collect();
        panic!(
            "quick-matrix digest differs from {} in {} line(s):\n  {}\n\
             expected file:\n{expected}\nactual:\n{actual}",
            path.display(),
            changed.len(),
            changed.join("\n  "),
        );
    }
}
