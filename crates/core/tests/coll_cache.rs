//! Collective algorithm selection is cached per geometry member; these
//! tests check that the cache never outlives what it was computed from, and
//! that classroute state belongs to the route allocation rather than to the
//! route id.
//!
//! A stale selection shows up as two members running different algorithms
//! (or different routes) for the same operation, which hangs; every test
//! therefore runs under a deadline and fails instead of hanging.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

use pami::coll::{self, AlgEntry, AlgExec, CollKind};
use pami::{Client, CollOp, Context, DataType, Geometry, Machine, MemRegion, Topology};

const DEADLINE: Duration = Duration::from_secs(60);

/// Run `f` on its own thread; fail if it has not returned by [`DEADLINE`].
fn within_deadline(what: &str, f: impl FnOnce() + Send + 'static) {
    let (tx, rx) = mpsc::channel();
    let handle = std::thread::spawn(move || {
        f();
        let _ = tx.send(());
    });
    match rx.recv_timeout(DEADLINE) {
        Ok(()) => handle.join().expect("finished"),
        Err(mpsc::RecvTimeoutError::Disconnected) => {
            if let Err(panic) = handle.join() {
                std::panic::resume_unwind(panic);
            }
        }
        // A hung run cannot be joined; it ends with the test process.
        Err(mpsc::RecvTimeoutError::Timeout) => {
            panic!("{what} did not complete within {DEADLINE:?}")
        }
    }
}

/// An 8 B `Int64` sum allreduce of `value` over `geom`, returning the sum.
fn sum(geom: &Geometry, ctx: &Context, value: i64) -> i64 {
    let src = MemRegion::zeroed(8);
    let dst = MemRegion::zeroed(8);
    src.write_i64(0, value);
    coll::allreduce(geom, ctx, (&src, 0), (&dst, 0), 1, CollOp::Sum, DataType::Int64);
    dst.read_i64(0)
}

/// Task 0 alone optimizes and later deoptimizes the world geometry; task 1
/// never calls either, yet its next auto-selected allreduce must follow
/// each change (hardware after optimize, software after deoptimize).
#[test]
fn selection_follows_another_tasks_optimize_and_deoptimize() {
    within_deadline("hw/sw flip driven by another task", || {
        let machine = Machine::with_nodes(2).build();
        machine.run(|env| {
            let client = Client::create(&env.machine, env.task, "cache", 1);
            env.machine.task_barrier();
            let ctx = client.context(0);
            let geom = Geometry::create(ctx, 1, Topology::world(2));
            let network_ops = || env.machine.collnet().completed_ops();
            let me = i64::from(env.task);

            // Fill the cache on the software path.
            assert_eq!(sum(&geom, ctx, me), 1);
            env.machine.task_barrier();
            let start = network_ops();
            env.machine.task_barrier();

            if env.task == 0 {
                geom.optimize().expect("two nodes form a rectangle");
            }
            env.machine.task_barrier();
            assert_eq!(sum(&geom, ctx, 10 + me), 21);
            env.machine.task_barrier();
            assert_eq!(network_ops(), start + 1, "the allreduce ran on the classroute");
            env.machine.task_barrier();

            if env.task == 0 {
                geom.deoptimize();
            }
            env.machine.task_barrier();
            assert_eq!(sum(&geom, ctx, 20 + me), 41);
            env.machine.task_barrier();
            assert_eq!(network_ops(), start + 1, "the allreduce fell back to software");
        });
    });
}

/// An entry registered after the cache was filled, cheaper than every
/// cached choice, wins the next auto-selection on every member.
#[test]
fn cheaper_entry_registered_after_first_use_wins() {
    within_deadline("selection after a late registration", || {
        let machine = Machine::with_nodes(2).build();
        let ran = Arc::new(AtomicU64::new(0));
        machine.run(|env| {
            let client = Client::create(&env.machine, env.task, "cache", 1);
            env.machine.task_barrier();
            let ctx = client.context(0);
            let geom = Geometry::create(ctx, 1, Topology::world(2));
            geom.optimize().expect("two nodes form a rectangle");
            assert_eq!(sum(&geom, ctx, 1), 2, "hardware allreduce fills the cache");
            env.machine.task_barrier();

            if env.task == 0 {
                let ran = Arc::clone(&ran);
                let inserted = env.machine.coll_registry().register(AlgEntry::new(
                    "test-local-copy",
                    CollKind::Allreduce,
                    1,
                    Arc::new(|_: &Geometry| true),
                    AlgExec::Allreduce(Arc::new(
                        move |_geom, _ctx, _seq, src, dst, count, _op, _dtype| {
                            dst.0.copy_from(dst.1, src.0, src.1, count * 8);
                            ran.fetch_add(1, Ordering::SeqCst);
                        },
                    )),
                ));
                assert!(inserted);
            }
            env.machine.task_barrier();
            // The local copy leaves each member its own value: proof that
            // the new entry, not the cached hardware one, ran.
            assert_eq!(sum(&geom, ctx, 5), 5);
        });
        assert_eq!(ran.load(Ordering::SeqCst), 2, "both members ran the new entry");
    });
}

/// A classroute id released by a two-node geometry and reallocated to the
/// four-node world must match the world's contributions from a fresh
/// start: the first hardware allreduce on the reused id completes.
#[test]
fn classroute_id_reuse_by_a_larger_rectangle_completes() {
    within_deadline("allreduce on a reused classroute id", || {
        let machine = Machine::with_nodes(4).build();
        let pair_route = Mutex::new(None);
        machine.run(|env| {
            let client = Client::create(&env.machine, env.task, "reuse", 1);
            env.machine.task_barrier();
            let ctx = client.context(0);
            let world = Geometry::create(ctx, 1, Topology::world(4));
            if env.task < 2 {
                let pair = Geometry::create(ctx, 2, Topology::Range { first: 0, count: 2, stride: 1 });
                pair.optimize().expect("two adjacent nodes form a rectangle");
                *pair_route.lock().unwrap() = pair.route().map(|r| r.id);
                for round in 0..3 {
                    assert_eq!(sum(&pair, ctx, round), 2 * round);
                }
                coll::barrier(&pair, ctx);
                pair.deoptimize();
            }
            env.machine.task_barrier();
            world.optimize().expect("four nodes form a rectangle");
            let reused = world.route().map(|r| r.id);
            assert_eq!(reused, *pair_route.lock().unwrap(), "the world got the freed id");
            assert_eq!(sum(&world, ctx, i64::from(env.task)), 6);
            assert_eq!(sum(&world, ctx, 1), 4);
        });
    });
}
