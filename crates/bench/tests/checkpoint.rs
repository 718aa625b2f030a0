//! Kill-anywhere acceptance: killing a real benchmark at any cycle
//! and restoring from the checkpoint must reproduce the uninterrupted
//! run's `SimOutcome` byte-for-byte, across benchmarks and
//! mechanisms; and with checkpointing off the checkpointed entry
//! point must be exactly `Gpu::run`.

use snake_bench::Harness;
use snake_core::PrefetcherKind;
use snake_sim::snapshot::{fnv1a64, Checkpoint};
use snake_sim::{json, Gpu};
use snake_workloads::Benchmark;

fn gpu(h: &Harness, bench: Benchmark, kind: PrefetcherKind) -> Gpu {
    let kernel = bench.build(&h.size);
    let warps = h.cfg.max_warps_per_sm;
    Gpu::new(h.cfg.clone(), kernel, |_| kind.build(warps)).unwrap()
}

/// The acceptance sweep: 20 kill cycles spread over the whole run, on
/// two benchmarks under two mechanisms. Every (kill, restore, finish)
/// must be byte-identical (Debug form) to the uninterrupted outcome.
#[test]
fn kill_anywhere_restore_is_byte_identical() {
    let h = Harness::quick();
    for bench in [Benchmark::Lps, Benchmark::Lib] {
        for kind in [PrefetcherKind::Snake, PrefetcherKind::Mta] {
            let full = gpu(&h, bench, kind).run();
            let reference = format!("{full:?}");
            let cycles = full.stats.cycles;
            assert!(cycles > 40, "{bench}/{}: run too short", kind.name());

            let step = cycles / 21;
            for i in 1..=20u64 {
                let kill = (i * step).max(1);
                let mut victim = gpu(&h, bench, kind);
                let early = victim.run_interruptible(|c| c.0 >= kill);
                assert!(
                    early.is_none(),
                    "{bench}/{}: kill cycle {kill} past the end",
                    kind.name()
                );

                // Round-trip the checkpoint through its text encoding,
                // as a crash + reload would.
                let text = victim.checkpoint().render();
                let ckpt = Checkpoint::from_json(json::parse(&text).unwrap()).unwrap();

                let mut resumed = gpu(&h, bench, kind);
                resumed.restore(&ckpt).unwrap();
                assert_eq!(
                    format!("{:?}", resumed.run()),
                    reference,
                    "{bench}/{}: restore at cycle {kill} diverged",
                    kind.name()
                );
            }
        }
    }
}

/// With `checkpoint_every` unset, `run_checkpointed` takes the plain
/// `run()` path: identical outcome, and no artifact is ever written.
#[test]
fn checkpointing_off_is_exactly_run() {
    let h = Harness::quick();
    assert!(h.cfg.checkpoint_every.is_none());
    let reference = format!("{:?}", gpu(&h, Benchmark::Cp, PrefetcherKind::Snake).run());
    let path = std::env::temp_dir().join(format!("snake-ckpt-off-{}.ckpt", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let out = gpu(&h, Benchmark::Cp, PrefetcherKind::Snake)
        .run_checkpointed(&path)
        .unwrap();
    assert_eq!(format!("{out:?}"), reference);
    assert!(
        !path.exists(),
        "no artifact may be written when checkpointing is off"
    );
}

/// With a checkpoint cadence set, the run still produces the same
/// outcome (checkpointing is observation, not perturbation) and the
/// final artifact restores to a device that finishes instantly with
/// identical stats.
#[test]
fn periodic_checkpointing_does_not_perturb_the_run() {
    let mut h = Harness::quick();
    let reference = format!("{:?}", gpu(&h, Benchmark::Lps, PrefetcherKind::Snake).run());

    h.cfg.checkpoint_every = Some(256);
    let dir = std::env::temp_dir().join(format!("snake-ckpt-cadence-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("periodic.ckpt");
    let out = gpu(&h, Benchmark::Lps, PrefetcherKind::Snake)
        .run_checkpointed(&path)
        .unwrap();
    assert_eq!(
        format!("{out:?}"),
        reference,
        "periodic checkpointing must not change the simulation"
    );
    assert!(path.exists(), "cadence produced an artifact");

    // The artifact is a valid mid-run state under the *cadence*
    // config; restore it and finish.
    let ckpt = Checkpoint::load(&path).unwrap();
    let mut resumed = gpu(&h, Benchmark::Lps, PrefetcherKind::Snake);
    resumed.restore(&ckpt).unwrap();
    assert_eq!(format!("{:?}", resumed.run()), reference);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Pins the exact checkpoint bytes: a fixed standard-harness job
/// stopped at a fixed cycle must keep its fingerprint and the hash of
/// the document `write_atomic` produces. Any codec change that alters
/// a single byte of a checkpoint (or the fingerprint's input) fails
/// here, so artifacts written by older binaries stay loadable.
#[test]
fn checkpoint_bytes_are_pinned() {
    const FINGERPRINT: u64 = 0xf90c_28f2_5ee0_02cb;
    const DOCUMENT_FNV: u64 = 0x32c1_4722_bf17_e4c0;
    const STOP_CYCLE: u64 = 3_000;

    let h = Harness::standard();
    let mut g = gpu(&h, Benchmark::Mum, PrefetcherKind::Snake);
    assert!(g.run_interruptible(|c| c.0 >= STOP_CYCLE).is_none());
    let ckpt = g.checkpoint();

    let dir = std::env::temp_dir().join(format!("snake-ckpt-pinned-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("pinned.ckpt");
    let written = ckpt.write_atomic(&path).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    let reloaded = Checkpoint::load(&path).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();

    assert_eq!(written, bytes.len() as u64);
    assert_eq!(reloaded, ckpt);
    assert_eq!(format!("{}\n", reloaded.render()).as_bytes(), bytes);
    let document_fnv = fnv1a64(&bytes);
    assert_eq!(
        (ckpt.fingerprint, document_fnv),
        (FINGERPRINT, DOCUMENT_FNV),
        "fingerprint {:#018x}, document fnv {document_fnv:#018x}",
        ckpt.fingerprint
    );
}
