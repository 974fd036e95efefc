//! `collgate` — the CI regression gate for collective per-phase latency.
//!
//! Runs a fixed hardware-collective workload (optimized world on a 2×2
//! functional machine: barrier + allreduce + bcast rounds), reads the
//! per-phase `coll.*` histograms from the machine's UPC registry, and
//! writes the p50 of each phase to `BENCH_coll.json`. The interesting
//! split is the one the paper optimizes: the shared-address **local**
//! combine phase vs the collective-network **network** phase.
//!
//! ```text
//! collgate [--baseline FILE] [--update] [--rounds N]
//! ```
//!
//! With `--baseline` (CI default: `ci/BENCH_coll_baseline.json`) the run
//! compares each phase p50 against the committed baseline and exits 1 when
//! any phase regressed by more than the tolerance (10%, overridable via
//! `COLLGATE_TOLERANCE_PCT`). Each phase takes the best (minimum) p50 of
//! three full runs so scheduler noise must hit all three to fail the gate.
//! `--update` rewrites the baseline file from this run. With the
//! `telemetry` feature compiled out every histogram is empty, so the gate
//! prints a notice and passes.
//!
//! A second, report-only workload covers the small-message path: 8 B
//! allreduces on two nodes with one task each, where the whole operation
//! is the collective-network round trip plus the software around it. Its
//! end-to-end p50 (`coll.allreduce_ns.p50`) goes into `BENCH_coll.json`
//! next to the gated phases but is never compared against the baseline.

use pami_bench::report;

/// The gated phases. `barrier_ns` covers the GI+L2 path end to end; the
/// allreduce pair splits the shared-address local combine from the
/// collective-network reduction; `bcast.network_ns` is the leader
/// inject/receive phase of the hardware broadcast.
const PHASES: [&str; 4] = [
    "coll.barrier_ns",
    "coll.allreduce.local_ns",
    "coll.allreduce.network_ns",
    "coll.bcast.network_ns",
];

/// Report-only phase: end-to-end p50 of the 8 B, one-task-per-node
/// hardware allreduce.
const SMALL_ALLREDUCE: &str = "coll.allreduce_ns";

/// Allreduces per small-message run; the few cold first operations do
/// not move a p50 over this many.
const SMALL_OPS: usize = 2000;

fn run_small_allreduce() -> u64 {
    use bgq_hw::MemRegion;
    use pami::Machine;
    use pami_mpi::{Mpi, MpiConfig};

    let machine = Machine::with_nodes(2).build();
    machine.run(|env| {
        let mpi = Mpi::init(&env.machine, env.task, MpiConfig::default());
        env.machine.task_barrier();
        let world = mpi.world().clone();
        world.optimize().expect("2-node world is rectangular");
        let src = MemRegion::zeroed(8);
        let dst = MemRegion::zeroed(8);
        mpi.barrier(&world);
        for _ in 0..SMALL_OPS {
            mpi.allreduce(
                (&src, 0),
                (&dst, 0),
                1,
                pami::CollOp::Sum,
                pami::DataType::Float64,
                &world,
            );
        }
    });
    let snap = machine.telemetry().snapshot();
    snap.histogram(SMALL_ALLREDUCE).map(|h| h.p50).unwrap_or(0)
}

fn run_once(rounds: usize) -> Vec<(&'static str, u64)> {
    use bgq_hw::MemRegion;
    use pami::Machine;
    use pami_mpi::{Mpi, MpiConfig};

    let machine = Machine::with_nodes(2).ppn(2).build();
    machine.run(move |env| {
        let mpi = Mpi::init(&env.machine, env.task, MpiConfig::default());
        env.machine.task_barrier();
        let world = mpi.world().clone();
        world.optimize().expect("2-node world is rectangular");
        let size = 64 * 1024;
        let src = MemRegion::zeroed(size);
        let dst = MemRegion::zeroed(size);
        mpi.barrier(&world); // warm + synchronize
        for _ in 0..rounds {
            mpi.barrier(&world);
            mpi.allreduce(
                (&src, 0),
                (&dst, 0),
                size / 8,
                pami::CollOp::Sum,
                pami::DataType::Float64,
                &world,
            );
            mpi.bcast(&src, 0, size, 0, &world);
        }
        mpi.barrier(&world);
    });
    let snap = machine.telemetry().snapshot();
    PHASES
        .iter()
        .map(|&name| (name, snap.histogram(name).map(|h| h.p50).unwrap_or(0)))
        .collect()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut baseline_path: Option<String> = None;
    let mut update = false;
    let mut rounds = 40usize;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--baseline" => baseline_path = it.next().cloned(),
            "--update" => update = true,
            "--rounds" => {
                rounds = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            _ => {
                usage();
            }
        }
    }

    if !bgq_upc::ENABLED {
        println!("collgate: telemetry feature compiled out; per-phase gate skipped");
        return;
    }

    // Best-of-3 per phase: a single noisy run cannot fail the gate.
    let mut best: Vec<(&'static str, u64)> = PHASES.iter().map(|&n| (n, u64::MAX)).collect();
    for _ in 0..3 {
        for (slot, (name, p50)) in best.iter_mut().zip(run_once(rounds)) {
            debug_assert_eq!(slot.0, name);
            slot.1 = slot.1.min(p50);
        }
    }

    let small = (0..3).map(|_| run_small_allreduce()).min().unwrap_or(0);

    let mut json = String::from("{\n  \"bench\": \"collgate\",\n");
    json.push_str(&format!("  \"rounds\": {rounds},\n  \"counters\": {{"));
    let report_only = [(SMALL_ALLREDUCE, small)];
    for (i, (name, p50)) in best.iter().chain(&report_only).enumerate() {
        if i > 0 {
            json.push(',');
        }
        json.push_str(&format!("\n    \"{name}.p50\": {p50}"));
    }
    json.push_str("\n  }\n}\n");
    print!("{json}");
    std::fs::write("BENCH_coll.json", &json).expect("write BENCH_coll.json");

    let Some(path) = baseline_path else {
        println!("collgate: no --baseline given; wrote BENCH_coll.json only");
        return;
    };
    if update {
        std::fs::write(&path, &json).expect("write baseline");
        println!("collgate: baseline {path} updated");
        return;
    }
    let baseline_text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("collgate: cannot read baseline {path}: {e}");
            std::process::exit(1);
        }
    };
    let baseline = report::parse(&baseline_text);
    let tolerance: f64 = std::env::var("COLLGATE_TOLERANCE_PCT")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(10.0);

    let mut failed = false;
    println!();
    println!(
        "{:<30}{:>12}{:>12}{:>10}  (tolerance {tolerance:.0}%)",
        "phase p50 (ns)", "baseline", "now", "delta"
    );
    for (name, now) in &best {
        let key = format!("{name}.p50");
        let base = baseline.counter(&key);
        if base == 0 {
            println!("{key:<30}{:>12}{now:>12}{:>10}", "-", "new");
            continue;
        }
        let delta_pct = (*now as f64 - base as f64) / base as f64 * 100.0;
        let verdict = if delta_pct > tolerance {
            failed = true;
            "FAIL"
        } else {
            "ok"
        };
        println!("{key:<30}{base:>12}{now:>12}{delta_pct:>+9.1}%  {verdict}");
    }
    for (name, now) in &report_only {
        println!("{:<30}{:>12}{now:>12}{:>10}  report only", format!("{name}.p50"), "-", "-");
    }
    if failed {
        eprintln!("collgate: per-phase p50 regression beyond {tolerance:.0}% — failing");
        std::process::exit(1);
    }
    println!("collgate: all phases within tolerance");
}

fn usage() -> ! {
    eprintln!("usage: collgate [--baseline FILE] [--update] [--rounds N]");
    std::process::exit(2);
}
