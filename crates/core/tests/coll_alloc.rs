//! The small hardware allreduce allocates nothing in steady state.
//!
//! A counting `#[global_allocator]` sees every allocation in the process,
//! so this file holds a single test and runs as its own test binary. Two
//! nodes, one task each, telemetry on with the default features, so every
//! histogram record and trace span is part of what is checked: after a
//! warm-up that fills the caches, 1,000 8 B `Float64` sum allreduces on an
//! optimized world geometry must make zero heap allocations on either
//! task thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use pami::coll;
use pami::{Client, CollOp, DataType, Geometry, Machine, MemRegion, Topology};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to the system allocator unchanged; the
// count is a relaxed atomic increment.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const WARMUP: u64 = 100;
const OPS: u64 = 1_000;

#[test]
fn steady_state_hw_allreduce_allocates_nothing() {
    let machine = Machine::with_nodes(2).build();
    let counted = AtomicU64::new(u64::MAX);
    machine.run(|env| {
        let client = Client::create(&env.machine, env.task, "alloc", 1);
        env.machine.task_barrier();
        let ctx = client.context(0);
        let geom = Geometry::create(ctx, 1, Topology::world(2));
        geom.optimize().expect("two nodes form a rectangle");
        let src = MemRegion::zeroed(8);
        let dst = MemRegion::zeroed(8);
        let allreduce = |i: u64| {
            src.write_f64(0, (2 * i + u64::from(env.task)) as f64);
            coll::allreduce(&geom, ctx, (&src, 0), (&dst, 0), 1, CollOp::Sum, DataType::Float64);
            assert_eq!(dst.read_f64(0), (4 * i + 1) as f64, "allreduce {i}");
        };
        for i in 0..WARMUP {
            allreduce(i);
        }
        env.machine.task_barrier();
        let before = ALLOCATIONS.load(Ordering::SeqCst);
        env.machine.task_barrier();
        for i in WARMUP..WARMUP + OPS {
            allreduce(i);
        }
        env.machine.task_barrier();
        if env.task == 0 {
            counted.store(ALLOCATIONS.load(Ordering::SeqCst) - before, Ordering::SeqCst);
        }
        env.machine.task_barrier();
    });
    let allocations = counted.load(Ordering::SeqCst);
    assert_eq!(allocations, 0, "{allocations} heap allocations over {OPS} steady-state allreduces");
}
