//! The policy table of `Harness::run_job_with`: which context fields
//! suspend, checkpoint or cancel a job, how often `on_checkpoint`
//! fires, and that every finished or resumed run reports the same
//! bytes as `Harness::run_job`.

use std::sync::atomic::AtomicBool;
use std::time::Instant;

use snake_bench::runner::JobRun;
use snake_bench::supervise::ExecContext;
use snake_bench::Harness;
use snake_core::PrefetcherKind;
use snake_workloads::Benchmark;

const BENCH: Benchmark = Benchmark::Lps;
const KIND: PrefetcherKind = PrefetcherKind::Snake;

#[derive(Debug, PartialEq)]
enum Want {
    Finished,
    Suspended,
    Cancelled,
}

struct Row {
    name: &'static str,
    checkpoint_to: bool,
    suspend_after: Option<u64>,
    deadline_passed: bool,
    cancel: bool,
    checkpoint_every: Option<u64>,
    want: Want,
    /// Expected `on_checkpoint` calls, given the job's total cycles.
    writes: fn(u64) -> u64,
}

const ROWS: &[Row] = &[
    Row {
        name: "default context",
        checkpoint_to: false,
        suspend_after: None,
        deadline_passed: false,
        cancel: false,
        checkpoint_every: None,
        want: Want::Finished,
        writes: |_| 0,
    },
    Row {
        name: "suspend_after without checkpoint_to",
        checkpoint_to: false,
        suspend_after: Some(2_000),
        deadline_passed: false,
        cancel: false,
        checkpoint_every: None,
        want: Want::Finished,
        writes: |_| 0,
    },
    Row {
        name: "suspend_after with checkpoint_to",
        checkpoint_to: true,
        suspend_after: Some(2_000),
        deadline_passed: false,
        cancel: false,
        checkpoint_every: None,
        want: Want::Suspended,
        writes: |_| 1,
    },
    Row {
        name: "cancel preset",
        checkpoint_to: true,
        suspend_after: Some(2_000),
        deadline_passed: false,
        cancel: true,
        checkpoint_every: Some(500),
        want: Want::Cancelled,
        writes: |_| 0,
    },
    Row {
        name: "checkpoint_every = 500",
        checkpoint_to: true,
        suspend_after: None,
        deadline_passed: false,
        cancel: false,
        checkpoint_every: Some(500),
        want: Want::Finished,
        writes: |cycles| cycles / 500,
    },
    Row {
        name: "deadline already passed",
        checkpoint_to: true,
        suspend_after: None,
        deadline_passed: true,
        cancel: false,
        checkpoint_every: None,
        want: Want::Suspended,
        writes: |_| 1,
    },
];

fn report_bytes(run: &JobRun) -> String {
    match run {
        JobRun::Finished(out) => out.report.to_json().to_string(),
        other => panic!("expected a finished run, got {other:?}"),
    }
}

#[test]
fn run_job_with_follows_the_policy_table() {
    let reference = Harness::quick().run_job(BENCH, KIND).unwrap();
    let reference_bytes = reference.report.to_json().to_string();
    let cycles = reference.report.cycles;
    let dir = std::env::temp_dir().join(format!("snake-job-policy-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    for (i, row) in ROWS.iter().enumerate() {
        let name = row.name;
        let mut h = Harness::quick();
        h.cfg.checkpoint_every = row.checkpoint_every;
        let path = dir.join(format!("row{i}.ckpt"));
        let cancel = AtomicBool::new(row.cancel);
        let ctx = ExecContext {
            checkpoint_to: row.checkpoint_to.then_some(path.as_path()),
            suspend_after: row.suspend_after,
            deadline: row.deadline_passed.then(Instant::now),
            cancel: Some(&cancel),
            ..ExecContext::default()
        };
        let mut writes = Vec::new();
        let run = h
            .run_job_with(BENCH, KIND, &ctx, |cycle, bytes| {
                writes.push((cycle, bytes))
            })
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(writes.len() as u64, (row.writes)(cycles), "{name}: writes");

        match run {
            JobRun::Finished(_) => {
                assert_eq!(row.want, Want::Finished, "{name}");
                assert_eq!(report_bytes(&run), reference_bytes, "{name}: report");
            }
            JobRun::Suspended { cycle, checkpoint } => {
                assert_eq!(row.want, Want::Suspended, "{name}");
                assert_eq!(checkpoint, path.display().to_string(), "{name}");
                assert_eq!(
                    writes.last().map(|w| w.0),
                    Some(cycle),
                    "{name}: final write"
                );
                let resume = ExecContext {
                    resume_from: Some(&path),
                    ..ExecContext::default()
                };
                let resumed = h.run_job_with(BENCH, KIND, &resume, |_, _| {}).unwrap();
                assert_eq!(report_bytes(&resumed), reference_bytes, "{name}: resumed");
            }
            JobRun::Cancelled => {
                assert_eq!(row.want, Want::Cancelled, "{name}");
                assert!(!path.exists(), "{name}: a cancelled job writes nothing");
            }
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
