//! `halo_cg`: two tasks on two nodes, one thread each, run the loop of a 4D
//! lattice split once across two nodes plus a CG dot product.
//!
//! Each iteration, each task posts both 4 KiB faces on two persistent
//! channels to its peer, waits for both ghosts, then joins one 8 B
//! `Float64` sum allreduce on the hardware path (`world.optimize()`).
//! Every ghost and every sum is checked.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use pami::{CollOp, DataType, Endpoint, Machine, PersistentChannel, TaskEnv};
use pami_mpi::{Comm, MemRegion, Mpi, MpiConfig};

use crate::stats::Series;
use crate::trace::{Name, Tracer};
use crate::{mix, pattern, Counters, Outcome, Plan, SetupTimes, OP_DEADLINE};

const FACE: usize = 4096;
const WARMUP_ITERS: u64 = 10_000;
/// Iterations between the two tasks' checks of whether time is up.
const BLOCK: u64 = 32;

/// A two-party spin barrier with a deadline. Generation `g` (from 1)
/// completes once both parties have arrived `g` times.
struct SpinBarrier(AtomicU64);

impl SpinBarrier {
    fn wait(&self, generation: u64) -> Result<(), String> {
        self.0.fetch_add(1, Ordering::AcqRel);
        let deadline = Instant::now() + OP_DEADLINE;
        while self.0.load(Ordering::Acquire) < 2 * generation {
            if Instant::now() > deadline {
                return Err(format!(
                    "peer missed barrier {generation} by {OP_DEADLINE:?}"
                ));
            }
            std::hint::spin_loop();
        }
        Ok(())
    }
}

/// Shared by the two task threads of one machine.
struct Shared {
    barrier: SpinBarrier,
    stop: AtomicBool,
    start: OnceLock<Instant>,
    results: Mutex<Vec<(TaskResult, Tracer)>>,
}

struct TaskResult {
    task: u32,
    created: Instant,
    bound: Instant,
    series: Series,
    attempted: u64,
    errors: Vec<String>,
    failed: u64,
    timed_ops: u64,
    counters: Counters,
}

/// One task's iteration state.
struct Task<'a> {
    me: usize,
    mpi: &'a Mpi,
    world: &'a Comm,
    chans: [PersistentChannel; 2],
    ghosts: [Vec<u8>; 2],
    src: MemRegion,
    dst: MemRegion,
    pattern: &'a [u8],
    key: u64,
    /// Iterations whose ghosts or sum were wrong. A wrong value does not
    /// stop the loop: the peer would wait on this task forever.
    bad: Vec<String>,
}

/// The face task `t` sends on channel `f` in iteration `i`.
fn face(pattern: &[u8], i: u64, t: usize, f: usize) -> &[u8] {
    let k = ((i * 4) as usize + t * 2 + f) % 251;
    &pattern[k..k + FACE]
}

impl Task<'_> {
    /// Task `t`'s contribution to iteration `i`'s dot product: an integer,
    /// so the sum is exact.
    fn term(&self, i: u64, t: usize) -> f64 {
        ((mix(self.key ^ i) % 1_000_000) * 2 + t as u64) as f64
    }

    fn iterate(&mut self, i: u64, tr: &mut Tracer) -> Result<(), String> {
        tr.open(Name::HaloIter, i);
        let r = self.exchange(i, tr);
        tr.close(Name::HaloIter, false);
        r
    }

    fn exchange(&mut self, i: u64, tr: &mut Tracer) -> Result<(), String> {
        let me = self.me;
        for f in 0..2 {
            let data = face(self.pattern, i, me, f);
            let ch = &mut self.chans[f];
            tr.call(Name::ChanPost, i, || ch.post(data))
                .map_err(|e| format!("iter {i}: post: {e:?}"))?;
        }
        for f in 0..2 {
            let (ch, ghost) = (&mut self.chans[f], &mut self.ghosts[f]);
            tr.call(Name::ChanWait, i, || ch.wait(ghost))
                .map_err(|e| format!("iter {i}: wait: {e:?}"))?;
        }
        self.src.write_f64(0, self.term(i, me));
        let (mpi, world, src, dst) = (self.mpi, self.world, &self.src, &self.dst);
        tr.call(Name::CollAllreduce, i, || {
            mpi.allreduce((src, 0), (dst, 0), 1, CollOp::Sum, DataType::Float64, world)
        });
        for f in 0..2 {
            if self.ghosts[f] != face(self.pattern, i, 1 - me, f) {
                self.bad.push(format!(
                    "iter {i}: task {me} ghost {f} does not match the peer's face"
                ));
            }
        }
        let want = self.term(i, 0) + self.term(i, 1);
        let got = self.dst.read_f64(0);
        if got != want {
            self.bad
                .push(format!("iter {i}: allreduce gave {got}, expected {want}"));
        }
        Ok(())
    }
}

pub fn run(plan: &Plan) -> Outcome {
    let mut out = Outcome::new(plan);
    let pattern = pattern(plan.seed, FACE + 251);
    for rep in 0..plan.setups() {
        let last = rep + 1 == plan.setups();
        let t0 = Instant::now();
        let machine = Machine::with_nodes(2).build();
        let t1 = Instant::now();
        let shared = Shared {
            barrier: SpinBarrier(AtomicU64::new(0)),
            stop: AtomicBool::new(false),
            start: OnceLock::new(),
            results: Mutex::new(Vec::new()),
        };
        machine.run(|env| {
            let r = task(env, plan, last, &shared, &pattern);
            shared
                .results
                .lock()
                .expect("task threads do not panic holding it")
                .push(r);
        });
        let mut results = shared.results.into_inner().expect("tasks joined");
        results.sort_by_key(|(r, _)| r.task);
        let lead = &results[0].0;
        if plan.setup_timed(rep) {
            out.setup.push(SetupTimes {
                build: t1 - t0,
                create: lead.created.saturating_duration_since(t1),
                bind: lead.bound.saturating_duration_since(lead.created),
            });
        }
        let failed: u64 = results.iter().map(|(r, _)| r.failed).sum();
        if last || failed > 0 {
            for (r, tracer) in results {
                out.attempted += r.attempted;
                out.failed += r.failed;
                out.errors.extend(r.errors);
                out.series.merge(r.series);
                out.tracers.push(tracer);
                if r.task == 0 {
                    out.timed_ops = r.timed_ops;
                    out.counters = r.counters;
                }
            }
            break;
        }
    }
    out
}

fn task(
    env: TaskEnv,
    plan: &Plan,
    last: bool,
    shared: &Shared,
    pattern: &[u8],
) -> (TaskResult, Tracer) {
    let me = env.task as usize;
    let mpi = Mpi::init(&env.machine, env.task, MpiConfig::default());
    env.machine.task_barrier();
    let created = Instant::now();
    let mut res = TaskResult {
        task: env.task,
        created,
        bound: created,
        series: Series::new(plan.width_ns),
        attempted: 0,
        errors: Vec::new(),
        failed: 0,
        timed_ops: 0,
        counters: Counters::default(),
    };
    let mut tr = Tracer::new(created, env.task, 16);
    if let Err(e) = drive(&env, &mpi, plan, last, shared, pattern, &mut tr, &mut res) {
        res.failed += 1;
        res.errors.push(format!("task {me}: {e}"));
    }
    (res, tr)
}

#[allow(clippy::too_many_arguments)]
fn drive(
    env: &TaskEnv,
    mpi: &Mpi,
    plan: &Plan,
    last: bool,
    shared: &Shared,
    pattern: &[u8],
    tr: &mut Tracer,
    res: &mut TaskResult,
) -> Result<(), String> {
    let me = env.task as usize;
    let world = mpi.world().clone();
    world.optimize().map_err(|e| format!("optimize: {e:?}"))?;
    let ctx = mpi.client().context(0);
    let peer = Endpoint::of_task(1 - env.task);
    let open = || {
        ctx.channel(peer, FACE)
            .map_err(|e| format!("channel: {e:?}"))
    };
    let mut t = Task {
        me,
        mpi,
        world: &world,
        chans: [open()?, open()?],
        ghosts: [vec![0; FACE], vec![0; FACE]],
        src: MemRegion::zeroed(8),
        dst: MemRegion::zeroed(8),
        pattern,
        key: mix(plan.seed),
        bad: Vec::new(),
    };
    let result = iterations(env, plan, last, shared, &mut t, tr, res);
    res.failed += t.bad.len() as u64;
    res.errors.extend(t.bad.into_iter().take(8));
    result
}

fn iterations(
    env: &TaskEnv,
    plan: &Plan,
    last: bool,
    shared: &Shared,
    t: &mut Task,
    tr: &mut Tracer,
    res: &mut TaskResult,
) -> Result<(), String> {
    t.iterate(0, tr)?;
    res.bound = Instant::now();
    res.attempted = 1;
    if !last {
        return Ok(());
    }
    let mut i = 1;
    while i <= plan.warmup(WARMUP_ITERS) {
        t.iterate(i, tr)?;
        i += 1;
    }
    res.attempted = i;
    let lead = env.task == 0;
    let before = Counters::read(&env.machine);
    if lead {
        shared.start.get_or_init(Instant::now);
    }
    let mut generation = 1;
    shared.barrier.wait(generation)?;
    let start = *shared
        .start
        .get()
        .expect("set by task 0 before the barrier");
    let first_timed = i;
    loop {
        for _ in 0..BLOCK {
            let t0 = start.elapsed().as_nanos() as u64;
            tr.on = plan.traced_window(res.series.window_of(t0));
            let r = t.iterate(i, tr);
            let end = start.elapsed().as_nanos() as u64;
            i += 1;
            res.attempted = i;
            r?;
            res.series.lat(end, end - t0);
            if lead {
                res.series.ops(end, 1);
                res.series.bytes(end, 4 * FACE as u64, end - t0);
            }
        }
        tr.on = false;
        if lead && start.elapsed().as_nanos() as u64 >= plan.run_ns {
            shared.stop.store(true, Ordering::Release);
        }
        generation += 1;
        shared.barrier.wait(generation)?;
        if shared.stop.load(Ordering::Acquire) {
            break;
        }
    }
    res.timed_ops = i - first_timed;
    res.counters = Counters::read(&env.machine).since(before);
    Ok(())
}
