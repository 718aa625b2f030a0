//! Full-matrix byte-identity pin at quick size: every (benchmark,
//! mechanism) job of the figure campaign, run through the in-thread
//! executor with a default context, must reproduce the committed
//! cycles and the fnv1a64 hash of its exact `MechanismReport` bytes.

use snake_bench::runner::JobRun;
use snake_bench::supervise::{campaign, ExecContext, JobExecutor};
use snake_bench::Harness;
use snake_core::PrefetcherKind;
use snake_sim::snapshot::fnv1a64;
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
        let bytes = run.report.to_json().to_string();
        out.push_str(&format!(
            "{} {} {:016x}\n",
            job.id(),
            run.report.cycles,
            fnv1a64(bytes.as_bytes())
        ));
    }
    out
}

#[test]
fn quick_matrix_reports_match_the_committed_digest() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(GOLDEN);
    let expected = std::fs::read_to_string(&path).unwrap_or_default();
    let actual = digest();
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
