//! Hot-path allocation pins.
//!
//! * A steady-state simulated cycle makes no heap traffic: every
//!   per-cycle list in the SM, its schedulers, warp slots, MSHR file,
//!   the memory partition and the Snake prefetcher is a count or a
//!   reused buffer. A counting global allocator watches the test's own
//!   thread over a window of steady-state cycles.
//!
//!   A long-lived buffer (a queue, the MSHR storage, a reused scratch
//!   list) still allocates each time it grows to a new peak, whenever
//!   the job first reaches that depth, and keeps what it allocated. A
//!   per-cycle list frees within the cycle what it allocated. So the
//!   window may free no block it allocated, and may allocate at most
//!   [`MAX_GROWTHS`] times: a per-cycle allocation, even one that is
//!   kept, makes one per cycle of the window.
//! * A freshly built V100 device holds little heap: miss storage grows
//!   with live misses instead of being sized by `mshr_entries` up
//!   front.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::{Cell, RefCell};
use std::thread::LocalKey;

use snake_bench::Harness;
use snake_core::PrefetcherKind;
use snake_sim::{Gpu, GpuConfig};
use snake_workloads::{Benchmark, WorkloadSize};

/// Counts, per thread, the allocations (a fresh block, or a block
/// grown in place of another) made while the thread's `COUNTING` flag
/// is set, the frees of blocks it allocated in that time (a block
/// released, or shrunk), and the net bytes it allocated, so libtest's
/// other test threads never leak into a measurement.
struct Counting;

/// Blocks allocated in the window and still live that are remembered,
/// more than [`MAX_GROWTHS`] so a passing window remembers them all.
const KEPT_SLOTS: usize = 64;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static FREES: Cell<u64> = const { Cell::new(0) };
    static KEPT: RefCell<([usize; KEPT_SLOTS], usize)> =
        const { RefCell::new(([0; KEPT_SLOTS], 0)) };
    static LIVE: Cell<isize> = const { Cell::new(0) };
}

// `try_with`: the thread-locals may already be gone while a thread
// exits; what it frees then is not measured.
fn counting() -> bool {
    COUNTING.try_with(Cell::get).unwrap_or(false)
}

fn bump(counter: &'static LocalKey<Cell<u64>>) {
    let _ = counter.try_with(|c| c.set(c.get() + 1));
}

/// Remembers `p` as allocated in the window.
fn keep(p: *mut u8) {
    let _ = KEPT.try_with(|k| {
        let (slots, n) = &mut *k.borrow_mut();
        if *n < KEPT_SLOTS {
            slots[*n] = p as usize;
            *n += 1;
        }
    });
}

/// Whether `p` was allocated in the window; forgets it.
fn forget(p: *mut u8) -> bool {
    KEPT.try_with(|k| {
        let (slots, n) = &mut *k.borrow_mut();
        let i = slots[..*n].iter().position(|&q| q == p as usize);
        if let Some(i) = i {
            *n -= 1;
            slots[i] = slots[*n];
        }
        i.is_some()
    })
    .unwrap_or(false)
}

fn live_bytes(delta: isize) {
    let _ = LIVE.try_with(|l| l.set(l.get() + delta));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            if counting() {
                bump(&ALLOCS);
                keep(p);
            }
            live_bytes(layout.size() as isize);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            if counting() {
                bump(&ALLOCS);
                keep(p);
            }
            live_bytes(layout.size() as isize);
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        System.dealloc(p, layout);
        if counting() && forget(p) {
            bump(&FREES);
        }
        live_bytes(-(layout.size() as isize));
    }

    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let q = System.realloc(p, layout, new_size);
        if !q.is_null() {
            if counting() {
                let in_window = forget(p);
                if new_size > layout.size() {
                    bump(&ALLOCS);
                    keep(q);
                } else if in_window {
                    bump(&FREES);
                    keep(q);
                }
            }
            live_bytes(new_size as isize - layout.size() as isize);
        }
        q
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Allocations a window may make: growths of long-lived buffers to a
/// new peak. A doubling buffer grows about log2 of its peak times, so
/// a device's buffers grow a few dozen times over a whole run; a
/// per-cycle allocation makes one per cycle of the window.
const MAX_GROWTHS: u64 = 32;

/// Heap calls made on this thread over a window of cycles.
#[derive(Debug)]
struct Window {
    /// Blocks allocated or grown.
    allocs: u64,
    /// Blocks allocated in the window and freed or shrunk there.
    frees: u64,
}

/// Builds `bench` under `kind` on `cfg`/`size`, runs it to cycle
/// `start` uncounted, then returns the heap calls made on this thread
/// while stepping cycles `start..end`.
fn window(
    cfg: GpuConfig,
    size: &WorkloadSize,
    bench: Benchmark,
    kind: PrefetcherKind,
    (start, end): (u64, u64),
) -> Window {
    let kernel = bench.build(size);
    let warps = cfg.max_warps_per_sm;
    let mut gpu = Gpu::new(cfg, kernel, |_| kind.build(warps)).unwrap();
    let before = (ALLOCS.with(Cell::get), FREES.with(Cell::get));
    KEPT.with(|k| k.borrow_mut().1 = 0);
    // The predicate runs after every step: counting covers exactly the
    // steps that advance the device from `start` to `end`.
    let outcome = gpu.run_interruptible(|c| {
        COUNTING.with(|f| f.set(c.0 >= start && c.0 < end));
        c.0 >= end
    });
    COUNTING.with(|f| f.set(false));
    assert!(
        outcome.is_none(),
        "{bench:?}/{kind:?} finished before cycle {end}: the window is not steady state"
    );
    Window {
        allocs: ALLOCS.with(Cell::get) - before.0,
        frees: FREES.with(Cell::get) - before.1,
    }
}

fn assert_allocation_free(what: &str, w: Window, (start, end): (u64, u64)) {
    let cycles = (end - start) as f64;
    eprintln!("{what}, cycles {start}..{end}: {w:?}");
    assert!(
        w.frees == 0 && w.allocs <= MAX_GROWTHS,
        "{what}: over cycles {start}..{end}, {} blocks allocated and freed ({:.2} per cycle) \
         and {} allocations ({:.2} per cycle; none freed and at most {MAX_GROWTHS} allowed)",
        w.frees,
        w.frees as f64 / cycles,
        w.allocs,
        w.allocs as f64 / cycles
    );
}

/// Steady-state cycles of both standard-harness jobs.
const STANDARD_WINDOW: (u64, u64) = (2_000, 6_000);

#[test]
fn steady_state_lps_snake_cycles_do_not_allocate() {
    let h = Harness::standard();
    let w = window(
        h.cfg,
        &h.size,
        Benchmark::Lps,
        PrefetcherKind::Snake,
        STANDARD_WINDOW,
    );
    assert_allocation_free("LPS/snake, standard harness", w, STANDARD_WINDOW);
}

#[test]
fn steady_state_mum_baseline_cycles_do_not_allocate() {
    let h = Harness::standard();
    let w = window(
        h.cfg,
        &h.size,
        Benchmark::Mum,
        PrefetcherKind::Baseline,
        STANDARD_WINDOW,
    );
    assert_allocation_free("MUM/baseline, standard harness", w, STANDARD_WINDOW);
}

/// perfbench's `v100` device: 80 SMs filled by 160 CTAs of 8 warps.
fn v100_size() -> WorkloadSize {
    WorkloadSize {
        warps_per_cta: 8,
        ctas: 160,
        ..WorkloadSize::standard()
    }
}

#[test]
fn steady_state_v100_lps_snake_cycles_do_not_allocate() {
    // Short: each V100 cycle steps 80 SMs, and this must stay fast in
    // an unoptimized build.
    let cycles = (2_000, 2_400);
    let w = window(
        GpuConfig::volta_v100(),
        &v100_size(),
        Benchmark::Lps,
        PrefetcherKind::Snake,
        cycles,
    );
    assert_allocation_free("LPS/snake, volta_v100", w, cycles);
}

/// Heap a fresh `volta_v100()` device keeps: with miss storage sized
/// by live misses, nothing scales with the 80 × 512 MSHR entries.
#[test]
fn a_fresh_v100_device_holds_little_heap() {
    const MAX_BYTES: isize = 5 * 1024 * 1024 + 512 * 1024; // 5.5 MiB

    let kernel = Benchmark::Lps.build(&v100_size());
    let cfg = GpuConfig::volta_v100();
    let warps = cfg.max_warps_per_sm;
    let before = LIVE.with(Cell::get);
    let gpu = Gpu::new(cfg, kernel, |_| PrefetcherKind::Snake.build(warps)).unwrap();
    let bytes = LIVE.with(Cell::get) - before;
    drop(gpu);
    let mib = |b: isize| b as f64 / (1024.0 * 1024.0);
    eprintln!("Gpu::new(volta_v100) retains {:.2} MiB", mib(bytes));
    assert!(
        bytes <= MAX_BYTES,
        "Gpu::new(volta_v100) retains {:.2} MiB, more than {:.2} MiB",
        mib(bytes),
        mib(MAX_BYTES)
    );
}
