//! The timing wrapper must be invisible to the simulation: a wrapped
//! run's checkpoint and report bytes equal an unwrapped run's.

use std::rc::Rc;

use perfbench::{PrefetchTally, TimedPrefetcher};
use snake_bench::Harness;
use snake_core::{MechanismReport, PrefetcherKind};
use snake_sim::{Gpu, Prefetcher};
use snake_workloads::Benchmark;

fn device(h: &Harness, kind: PrefetcherKind, tally: Option<&Rc<PrefetchTally>>) -> Gpu {
    let warps = h.cfg.max_warps_per_sm;
    let kernel = Benchmark::Lps.build(&h.size);
    Gpu::new(h.cfg.clone(), kernel, |_| -> Box<dyn Prefetcher> {
        let p = kind.build(warps);
        match tally {
            Some(t) => Box::new(TimedPrefetcher::new(p, Rc::clone(t))),
            None => p,
        }
    })
    .expect("quick harness is valid")
}

fn finish(h: &Harness, kind: PrefetcherKind, gpu: &mut Gpu) -> String {
    let outcome = gpu.run();
    let app = Benchmark::Lps.build(&h.size).name().to_string();
    MechanismReport::from_outcome(
        kind.name(),
        app,
        &outcome,
        &h.cfg,
        &h.energy,
        kind.has_hardware(),
    )
    .to_json()
    .to_string()
}

#[test]
fn wrapped_runs_match_unwrapped_runs_byte_for_byte() {
    let h = Harness::quick();
    for kind in [PrefetcherKind::Snake, PrefetcherKind::Baseline] {
        let tally = Rc::new(PrefetchTally::default());
        let mut plain = device(&h, kind, None);
        let mut wrapped = device(&h, kind, Some(&tally));
        assert!(plain.run_interruptible(|c| c.0 >= 300).is_none(), "{kind}");
        assert!(
            wrapped.run_interruptible(|c| c.0 >= 300).is_none(),
            "{kind}"
        );

        // The fingerprint covers the mechanism names, the state covers
        // the prefetcher tables: both must be the wrapped mechanism's.
        let (a, b) = (plain.checkpoint(), wrapped.checkpoint());
        assert_eq!(a.fingerprint, b.fingerprint, "{kind}");
        assert_eq!(a.state.to_string(), b.state.to_string(), "{kind}");
        let mut resumed = device(&h, kind, Some(&tally));
        resumed.restore(&a).expect("same fingerprint");

        let want = h
            .run_job(Benchmark::Lps, kind)
            .expect("quick harness is valid")
            .report
            .to_json()
            .to_string();
        assert_eq!(finish(&h, kind, &mut plain), want, "{kind}: unwrapped");
        assert_eq!(finish(&h, kind, &mut wrapped), want, "{kind}: wrapped");
        assert_eq!(finish(&h, kind, &mut resumed), want, "{kind}: resumed");
        assert!(tally.calls() > 0, "{kind}: the wrapper saw no calls");
    }
}
