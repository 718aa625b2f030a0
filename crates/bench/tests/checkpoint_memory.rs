//! Memory pin for checkpoints held in memory: the state `Gpu::checkpoint`
//! builds and the state `Checkpoint::load` parses are each kept as
//! rendered text fragments, so each retains at most 1.5 bytes of heap
//! per byte of the checkpoint's text. A counting global allocator
//! measures the live heap around each call.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

use snake_bench::Harness;
use snake_core::PrefetcherKind;
use snake_sim::snapshot::Checkpoint;
use snake_sim::Gpu;
use snake_workloads::Benchmark;

/// Counts the bytes currently allocated by the whole process.
struct Counting;

static LIVE: AtomicIsize = AtomicIsize::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        System.dealloc(p, layout);
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
    }

    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let q = System.realloc(p, layout, new_size);
        if !q.is_null() {
            LIVE.fetch_add(
                new_size as isize - layout.size() as isize,
                Ordering::Relaxed,
            );
        }
        q
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Live heap bytes retained by whatever `f` returns.
fn retained<T>(f: impl FnOnce() -> T) -> (T, isize) {
    let before = LIVE.load(Ordering::Relaxed);
    let out = f();
    (out, LIVE.load(Ordering::Relaxed) - before)
}

/// The `checkpoint_bytes_are_pinned` job: MUM/snake on the standard
/// harness, stopped at cycle 3000 (83,342 bytes of checkpoint text).
#[test]
fn checkpoints_in_memory_cost_about_one_byte_per_text_byte() {
    const MAX_BYTES_PER_TEXT_BYTE: f64 = 1.5;

    let h = Harness::standard();
    let kernel = Benchmark::Mum.build(&h.size);
    let warps = h.cfg.max_warps_per_sm;
    let mut gpu = Gpu::new(h.cfg.clone(), kernel, |_| {
        PrefetcherKind::Snake.build(warps)
    })
    .unwrap();
    assert!(gpu.run_interruptible(|c| c.0 >= 3_000).is_none());
    gpu.fingerprint();

    let (saved, saved_bytes) = retained(|| gpu.checkpoint());
    let dir = std::env::temp_dir().join(format!("snake-ckpt-memory-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("pinned.ckpt");
    let text_bytes = saved.write_atomic(&path).unwrap() as f64;
    let (loaded, loaded_bytes) = retained(|| Checkpoint::load(&path).unwrap());
    std::fs::remove_dir_all(&dir).unwrap();
    assert_eq!(loaded, saved);

    for (what, bytes) in [
        ("Gpu::checkpoint", saved_bytes),
        ("Checkpoint::load", loaded_bytes),
    ] {
        let per_text_byte = bytes as f64 / text_bytes;
        assert!(
            per_text_byte <= MAX_BYTES_PER_TEXT_BYTE,
            "{what} retains {bytes} B for {text_bytes} B of text: {per_text_byte:.2} B per text byte"
        );
        eprintln!("{what}: {per_text_byte:.2} B per text byte ({bytes} B, text {text_bytes} B)");
    }
}
