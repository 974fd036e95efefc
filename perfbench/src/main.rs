//! The repository benchmark: four seeded workloads driven through the
//! public API of the PAMI stack (`pami`, `pami-mpi`) in one process, each
//! run checked for correct output and reported as end-to-end metrics
//! (`--trace 0`) or per-layer metrics from spans timed around the library
//! calls (`--trace 1`).
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload am_fine --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}`.
//! See README.md for the workloads, the metrics, and what each layer metric
//! should move.

mod am;
mod halo;
mod pingpong;
mod stats;
mod trace;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use pami::Machine;

use stats::{best_quartile, median, Series};
use trace::{ratio, Name, Tracer};

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = ["am_fine", "am_lossy", "mpi_pingpong", "halo_cg"];

/// Longest a single operation may take before it counts as failed.
pub const OP_DEADLINE: Duration = Duration::from_secs(2);

/// Wall-clock limit on a whole run; past it the process reports failure and
/// exits rather than hang inside a blocking library call.
const WATCHDOG: Duration = Duration::from_secs(170);

/// How one run is sized. Everything but `seed`, `run_ns` and `trace` is
/// fixed in code, so it is the same on every commit.
pub struct Plan {
    pub seed: u64,
    /// Length of the timed phase.
    pub run_ns: u64,
    /// Width of one metric window.
    pub width_ns: u64,
    pub trace: bool,
    /// Warm-up operations are scaled by this (1 except in smoke runs).
    warmup_scale: f64,
    /// Set-ups done before the timed ones: the first few of a process run
    /// cold (allocator growth, page faults) and take several times longer.
    setup_warmup: usize,
    /// Timed set-ups; `setup_s` is their median.
    setup_reps: usize,
}

impl Plan {
    pub fn warmup(&self, ops: u64) -> u64 {
        ((ops as f64 * self.warmup_scale) as u64).max(1)
    }

    /// In a traced run, odd windows are traced and even ones are not, so
    /// the two arms interleave and the overhead is their difference.
    pub fn traced_window(&self, window: usize) -> bool {
        self.trace && window % 2 == 1
    }

    /// Set-ups a run performs in all; the last one is kept for the run.
    pub fn setups(&self) -> usize {
        self.setup_warmup + self.setup_reps
    }

    /// Whether set-up `rep` (counting from 0) is timed.
    pub fn setup_timed(&self, rep: usize) -> bool {
        rep >= self.setup_warmup
    }

    pub fn full_windows(&self) -> usize {
        (self.run_ns / self.width_ns) as usize
    }
}

/// Set-up time of one repetition, split at the layer boundaries.
#[derive(Clone, Copy, Default)]
pub struct SetupTimes {
    /// `Machine::build`.
    pub build: Duration,
    /// `Client::create` / `Mpi::init` for every task.
    pub create: Duration,
    /// Dispatch registration, pre-posted receives, `optimize`, channel
    /// handshakes, through the end of the first operation.
    pub bind: Duration,
}

impl SetupTimes {
    pub fn total(&self) -> Duration {
        self.build + self.create + self.bind
    }
}

/// The library's own counters, summed over nodes.
#[derive(Clone, Copy, Default)]
pub struct Counters {
    packets: u64,
    copies: u64,
    dropped: u64,
    remote_gets: u64,
    retransmits: u64,
    crc_errors: u64,
    aggr_frames: u64,
    aggr_batched: u64,
    match_posted: u64,
    match_unexpected: u64,
    match_wildcard: u64,
}

impl Counters {
    pub fn read(machine: &Machine) -> Counters {
        let fabric = machine.fabric();
        let mut c = Counters::default();
        for node in 0..machine.num_nodes() as u32 {
            let mu = fabric.counters(node);
            c.packets += mu.packets_injected.value();
            c.copies += mu.payload_copies.value();
            c.dropped += mu.packets_dropped.value();
            c.remote_gets += mu.remote_gets_serviced.value();
        }
        let ras = fabric.ras_counters();
        c.retransmits = ras.retransmits.value();
        c.crc_errors = ras.crc_errors.value();
        let snap = machine.telemetry().snapshot();
        c.aggr_frames = snap.counter("aggr.frames");
        c.aggr_batched = snap.counter("aggr.batched_msgs");
        c.match_posted = snap.counter("match.matched_posted");
        c.match_unexpected = snap.counter("match.matched_unexpected");
        c.match_wildcard = snap.counter("match.wildcard_hits");
        c
    }

    pub fn since(self, e: Counters) -> Counters {
        Counters {
            packets: self.packets - e.packets,
            copies: self.copies - e.copies,
            dropped: self.dropped - e.dropped,
            remote_gets: self.remote_gets - e.remote_gets,
            retransmits: self.retransmits - e.retransmits,
            crc_errors: self.crc_errors - e.crc_errors,
            aggr_frames: self.aggr_frames - e.aggr_frames,
            aggr_batched: self.aggr_batched - e.aggr_batched,
            match_posted: self.match_posted - e.match_posted,
            match_unexpected: self.match_unexpected - e.match_unexpected,
            match_wildcard: self.match_wildcard - e.match_wildcard,
        }
    }
}

/// What a workload hands back.
pub struct Outcome {
    /// Operations attempted (warm-up and timed) and how many failed a
    /// check or missed their deadline.
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    /// Timed-phase samples.
    pub series: Series,
    /// Operations in the timed phase, drain included.
    pub timed_ops: u64,
    pub setup: Vec<SetupTimes>,
    pub tracers: Vec<Tracer>,
    /// Counter deltas over the timed phase.
    pub counters: Counters,
}

impl Outcome {
    pub fn new(plan: &Plan) -> Outcome {
        Outcome {
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
            series: Series::new(plan.width_ns),
            timed_ops: 0,
            setup: Vec::new(),
            tracers: Vec::new(),
            counters: Counters::default(),
        }
    }

    /// Record a failed operation.
    pub fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(msg);
        }
    }
}

/// SplitMix64: the workloads' seeded generator, used counter-style so a
/// receiver can recompute what the sender drew for any operation.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A byte pattern with period 251 to slice message bodies from: bodies cut
/// at different offsets (mod 251) differ, so a stale or misplaced buffer
/// fails its check.
pub fn pattern(seed: u64, len: usize) -> Vec<u8> {
    (0..len as u64)
        .map(|i| (mix(seed ^ (i % 251)) & 0xFF) as u8)
        .collect()
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut smoke = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value()?.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--smoke" => smoke = true,
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let seconds: u64 = seconds.unwrap_or(10);
    if !(1..=60).contains(&seconds) {
        return Err("--seconds must be 1 to 60".into());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
        smoke,
    })
}

/// The commit the benchmark runs, when it runs from the top of a git
/// checkout. Git is pointed at `./.git` so it never searches the parent
/// directories.
fn git_rev() -> String {
    if !std::path::Path::new(".git").exists() {
        return "unknown (not run from the top of a git checkout)".into();
    }
    std::process::Command::new("git")
        .args(["--git-dir=.git", "rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown (git rev-parse failed)".into())
}

/// One printed metric: name, value, unit, and what it was computed from.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    basis: String,
}

fn m(name: &'static str, value: f64, unit: &'static str, basis: impl Into<String>) -> Metric {
    let value = if value.is_finite() { value } else { 0.0 };
    Metric {
        name,
        value,
        unit,
        basis: basis.into(),
    }
}

fn end_to_end(plan: &Plan, o: &Outcome) -> Vec<Metric> {
    let full = plan.full_windows();
    let windows: Vec<usize> = (0..full).filter(|&i| !plan.traced_window(i)).collect();
    let s = o.series.summarize(&windows);
    let setup: Vec<f64> = o.setup.iter().map(|t| t.total().as_secs_f64()).collect();
    let (first, second) = s.halves();
    let win = format!(
        "best quartile of {} windows of {} ms",
        windows.len(),
        plan.width_ns / 1_000_000
    );
    vec![
        m(
            "throughput",
            best_quartile(&s.rates, true),
            "ops/s",
            format!(
                "{win}; {} ops; halves {first:.0} / {second:.0} ops/s",
                s.ops
            ),
        ),
        m(
            "lat_p50_us",
            best_quartile(&s.p50, false) / 1e3,
            "us",
            format!("{win}; {} samples", s.lat_samples),
        ),
        m(
            "lat_p99_us",
            best_quartile(&s.p99, false) / 1e3,
            "us",
            format!(
                "{} windows with >= 1000 samples; {} samples",
                s.p99.len(),
                s.lat_samples
            ),
        ),
        m(
            "goodput_mb_s",
            best_quartile(&s.goodput, true) / 1e6,
            "MB/s",
            format!(
                "{} windows with payload; payload bytes only",
                s.goodput.len()
            ),
        ),
        m(
            "setup_s",
            median(&setup),
            "s",
            format!("median of {} set-ups", setup.len()),
        ),
    ]
}

fn per_layer(plan: &Plan, o: &Outcome, t: &Tracer) -> Vec<Metric> {
    let med = |f: fn(&SetupTimes) -> Duration| {
        median(
            &o.setup
                .iter()
                .map(|s| f(s).as_secs_f64())
                .collect::<Vec<_>>(),
        )
    };
    let c = &o.counters;
    let ops = o.timed_ops as f64;
    let per_op = |n: u64| ratio(n as f64, ops);
    let traced = "traced windows";
    let counted = "library counters over the timed phase";
    let full = plan.full_windows();
    let rate = |traced: bool| {
        let w: Vec<usize> = (0..full)
            .filter(|&i| plan.traced_window(i) == traced)
            .collect();
        best_quartile(&o.series.summarize(&w).rates, true)
    };
    let (plain, with_spans) = (rate(false), rate(true));
    let send = t.stat(Name::CtxSend);
    let adv = t.stat(Name::CtxAdvance);
    let madv = t.stat(Name::MpiAdvance);
    let wait = t.stat(Name::ChanWait);
    let allreduce = t.stat(Name::CollAllreduce);
    vec![
        m(
            "setup.build_s",
            med(|s| s.build),
            "s",
            "median over set-ups",
        ),
        m(
            "setup.create_s",
            med(|s| s.create),
            "s",
            "median over set-ups",
        ),
        m("setup.bind_s", med(|s| s.bind), "s", "median over set-ups"),
        m("context.send.calls", send.calls as f64, "count", traced),
        m("context.send.ns_per_call", send.ns_per_call(), "ns", traced),
        m("context.advance.calls", adv.calls as f64, "count", traced),
        m(
            "context.advance.ns_per_call",
            adv.ns_per_call(),
            "ns",
            traced,
        ),
        m(
            "context.advance.useful_ratio",
            adv.useful_ratio(),
            "ratio",
            traced,
        ),
        m(
            "context.blocked_s",
            t.stat(Name::CtxBlocked).seconds(),
            "s",
            traced,
        ),
        m(
            "aggr.flush.ns_per_call",
            t.stat(Name::AggrFlush).ns_per_call(),
            "ns",
            traced,
        ),
        m(
            "aggr.frames_per_op",
            per_op(c.aggr_frames),
            "ratio",
            counted,
        ),
        m(
            "aggr.mean_batch",
            ratio(c.aggr_batched as f64, c.aggr_frames as f64),
            "msgs",
            counted,
        ),
        m("mu.packets_per_op", per_op(c.packets), "ratio", counted),
        m("mu.copies_per_op", per_op(c.copies), "ratio", counted),
        m(
            "mu.retransmits_per_op",
            per_op(c.retransmits),
            "ratio",
            counted,
        ),
        m(
            "mu.retransmit_ratio",
            ratio(c.retransmits as f64, c.packets as f64),
            "ratio",
            counted,
        ),
        m("mu.crc_errors", c.crc_errors as f64, "count", counted),
        m("mu.packets_dropped", c.dropped as f64, "count", counted),
        m("mu.remote_gets", c.remote_gets as f64, "count", counted),
        m(
            "mpi.isend.ns_p50",
            t.stat(Name::MpiIsend).hist.quantile(0.5),
            "ns",
            traced,
        ),
        m(
            "mpi.irecv.ns_p50",
            t.stat(Name::MpiIrecv).hist.quantile(0.5),
            "ns",
            traced,
        ),
        m("mpi.advance.ns_per_call", madv.ns_per_call(), "ns", traced),
        m(
            "mpi.advance.useful_ratio",
            madv.useful_ratio(),
            "ratio",
            traced,
        ),
        m("mpi.wait_s", t.stat(Name::MpiWait).seconds(), "s", traced),
        m(
            "match.posted_per_op",
            per_op(c.match_posted),
            "ratio",
            counted,
        ),
        m(
            "match.unexpected_per_op",
            per_op(c.match_unexpected),
            "ratio",
            counted,
        ),
        m(
            "match.wildcard_per_op",
            per_op(c.match_wildcard),
            "ratio",
            counted,
        ),
        m(
            "channel.post.ns_p50",
            t.stat(Name::ChanPost).hist.quantile(0.5),
            "ns",
            traced,
        ),
        m("channel.wait.ns_p50", wait.hist.quantile(0.5), "ns", traced),
        m(
            "channel.wait.ns_p99",
            wait.hist.quantile(0.99),
            "ns",
            traced,
        ),
        m(
            "coll.allreduce.ns_p50",
            allreduce.hist.quantile(0.5),
            "ns",
            traced,
        ),
        m(
            "coll.allreduce.ns_p99",
            allreduce.hist.quantile(0.99),
            "ns",
            traced,
        ),
        m(
            "trace.overhead",
            1.0 - ratio(with_spans, plain),
            "ratio",
            format!("1 - traced/untraced throughput ({with_spans:.0} / {plain:.0} ops/s)"),
        ),
    ]
}

fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{",
        attempted.max(1)
    );
    for (i, x) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            x.name, x.value, x.unit
        );
    }
    s.push_str("}}");
    s
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // A hung library call must not hang the run: past the limit, report
    // the failure and leave.
    std::thread::spawn(|| {
        std::thread::sleep(WATCHDOG);
        eprintln!("perfbench: watchdog: run exceeded {} s", WATCHDOG.as_secs());
        println!("{}", result_line(false, 1, 1, &[]));
        std::process::exit(3);
    });
    let (run_ns, width_ns) = if args.smoke {
        (400_000_000, 100_000_000)
    } else {
        (args.seconds * 1_000_000_000, 500_000_000)
    };
    let plan = Plan {
        seed: args.seed,
        run_ns,
        width_ns,
        trace: args.trace,
        warmup_scale: if args.smoke { 0.01 } else { 1.0 },
        setup_warmup: if args.smoke { 1 } else { 20 },
        setup_reps: if args.smoke { 3 } else { 51 },
    };
    println!(
        "# perfbench {} seed={} seconds={} trace={}{}",
        args.workload,
        args.seed,
        args.seconds,
        args.trace as u8,
        if args.smoke { " (smoke sizes)" } else { "" }
    );
    println!(
        "# provenance: rev={} available_parallelism={} rustc=\"{}\" features=default(telemetry on) profile=release",
        git_rev(),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        env!("PERFBENCH_RUSTC_VERSION"),
    );
    println!(
        "# traffic crosses the in-process simulated MU fabric (bgq-mu), not a real link; counters read 0 without the telemetry feature"
    );
    let outcome = match args.workload.as_str() {
        "am_fine" => am::run(&plan, false),
        "am_lossy" => am::run(&plan, true),
        "mpi_pingpong" => pingpong::run(&plan),
        "halo_cg" => halo::run(&plan),
        _ => unreachable!("workload validated by parse_args"),
    };
    for e in &outcome.errors {
        println!("# FAILED: {e}");
    }
    let correct = outcome.failed == 0 && outcome.attempted > 0;
    let mut spans = Tracer::new(Instant::now(), 0, 1);
    for t in &outcome.tracers {
        spans.merge_stats(t);
    }
    let metrics = if args.trace {
        per_layer(&plan, &outcome, &spans)
    } else {
        end_to_end(&plan, &outcome)
    };
    for x in &metrics {
        println!(
            "metric {:<30} {:>16.6} {:<6} ({})",
            x.name, x.value, x.unit, x.basis
        );
    }
    println!(
        "# attempted={} failed={} failed_frac={}",
        outcome.attempted,
        outcome.failed,
        ratio(outcome.failed as f64, outcome.attempted as f64)
    );
    if args.trace {
        for (name, calls, self_ns) in spans.self_times() {
            println!(
                "# span {name:<18} calls={calls:<10} self_s={:.6}",
                self_ns as f64 / 1e9
            );
        }
        let path = std::path::PathBuf::from(format!(
            "{}/out/spans-{}.jsonl",
            env!("CARGO_MANIFEST_DIR"),
            args.workload
        ));
        let tracers: Vec<&Tracer> = outcome.tracers.iter().collect();
        let kept: usize = tracers.iter().map(|t| t.kept_len()).sum();
        match trace::write_spans(&path, &tracers) {
            Ok(()) => println!("# wrote {kept} spans to {}", path.display()),
            Err(e) => println!("# could not write spans to {}: {e}", path.display()),
        }
    }
    println!(
        "{}",
        result_line(correct, outcome.attempted, outcome.failed, &metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
