//! Property-based exactness of the issue-slot stall taxonomy: for
//! arbitrary instruction mixes, fault plans, and checkpoint cut
//! points, the eight stall buckets must partition scheduler-cycles
//! exactly — at every observation point, after merging across SMs,
//! and bit-identically across a checkpoint/restore round-trip.

use proptest::prelude::*;
use snake_sim::snapshot::Checkpoint;
use snake_sim::{
    json, Gpu, GpuConfig, Instr, KernelTrace, NullPrefetcher, Recovery, StallBreakdown, WarpTrace,
};
use snake_sim::{CtaId, FaultPlan};

#[derive(Debug, Clone)]
struct Scenario {
    warps: usize,
    instrs: usize,
    stride: u64,
    /// Per-instruction selector stream: load / store / compute.
    mix: u64,
    kill: u64,
    faults: bool,
}

fn scenario() -> impl Strategy<Value = Scenario> {
    (
        (1usize..6, 2usize..24, 1u64..8),
        (any::<u64>(), 1u64..400, any::<bool>()),
    )
        .prop_map(|((warps, instrs, stride), (mix, kill, faults))| Scenario {
            warps,
            instrs,
            stride: stride * 64,
            mix,
            kill,
            faults,
        })
}

fn build(s: &Scenario) -> (GpuConfig, KernelTrace) {
    let mut cfg = GpuConfig::scaled(1);
    cfg.metrics_window = Some(64);
    if s.faults {
        cfg.fault = FaultPlan {
            seed: 0xD15EA5E,
            drop_response: 0.02,
            duplicate_response: 0.02,
            delay_response: 0.1,
            delay_cycles: 40,
            brownout: None,
            recovery: Some(Recovery {
                timeout: 200,
                max_retries: 4,
            }),
        };
    }
    let traces = (0..s.warps)
        .map(|w| {
            let instrs = (0..s.instrs)
                .map(|i| {
                    let addr = (w * s.instrs + i) as u64 * s.stride;
                    // Cheap deterministic per-slot selector derived
                    // from the scenario's mix seed.
                    match (s.mix >> ((w * s.instrs + i) % 32)) % 3 {
                        0 => Instr::load(i as u32, addr),
                        1 => Instr::store(i as u32, addr),
                        _ => Instr::compute(1 + (s.mix % 4) as u32),
                    }
                })
                .collect();
            WarpTrace::new(CtaId((w / 4) as u32), instrs)
        })
        .collect();
    (cfg, KernelTrace::new("proptest-stall", traces))
}

fn gpu(cfg: &GpuConfig, kernel: &KernelTrace) -> Gpu {
    Gpu::new(cfg.clone(), kernel.clone(), |_| Box::new(NullPrefetcher)).unwrap()
}

fn assert_exact(stall: &StallBreakdown, what: &str) -> Result<(), TestCaseError> {
    prop_assert!(
        stall.is_exact(),
        "{what}: buckets sum to {} but scheduler cycles are {}",
        stall.total(),
        stall.scheduler_cycles,
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The taxonomy partitions scheduler-cycles exactly: for any
    /// workload/fault mix, at the end of a run, mid-run at an
    /// arbitrary cut point, and after a checkpoint/restore of that
    /// cut, buckets always sum to scheduler cycles — and the restored
    /// breakdown is bit-identical to the suspended one.
    #[test]
    fn stall_buckets_partition_scheduler_cycles(s in scenario()) {
        let (cfg, kernel) = build(&s);

        // Uninterrupted reference run.
        let reference = gpu(&cfg, &kernel).run();
        assert_exact(&reference.stats.stall, "uninterrupted run")?;
        prop_assert!(
            reference.stats.stall.scheduler_cycles > 0,
            "run accounted no scheduler cycles"
        );

        let mut victim = gpu(&cfg, &kernel);
        match victim.run_interruptible(|c| c.0 >= s.kill) {
            Some(out) => {
                prop_assert_eq!(out.stats.stall, reference.stats.stall);
            }
            None => {
                // Mid-run, the partial accounting is already exact.
                let at_cut = victim.collect_stats().stall;
                assert_exact(&at_cut, "suspended mid-run")?;

                // The breakdown survives the text round-trip
                // bit-identically.
                let ckpt = victim.checkpoint();
                let text = ckpt.render();
                let reparsed = json::parse(&text).expect("checkpoint is valid json");
                let ckpt2 = Checkpoint::from_json(reparsed).expect("checkpoint decodes");
                let mut resumed = gpu(&cfg, &kernel);
                resumed.restore(&ckpt2).expect("restore succeeds");
                prop_assert_eq!(
                    resumed.collect_stats().stall,
                    at_cut,
                    "restored breakdown diverged (killed at cycle {})",
                    s.kill
                );

                // And the resumed run lands on the reference exactly.
                let resumed_out = resumed.run();
                assert_exact(&resumed_out.stats.stall, "resumed run")?;
                prop_assert_eq!(resumed_out.stats.stall, reference.stats.stall);
            }
        }
    }
}
