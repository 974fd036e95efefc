//! `am_fine` and `am_lossy`: one driver thread on task 0 streams active
//! messages of 16–64 B to tasks 1–7 (eight nodes, one task each) in a
//! closed loop of at most [`WINDOW`] outstanding messages.
//!
//! `am_fine` turns aggregation on (`AggrConfig::default()`); `am_lossy`
//! leaves it off, so the short tier carries each message, and installs a
//! seeded 1% drop + 1% corrupt `FaultPlan`, which puts the `bgq-mu`
//! reliability layer on every message's path.
//!
//! Message `seq` is drawn counter-style from the seed, so a receiver can
//! recompute its destination, length and bytes: bytes 8..16 carry `seq`,
//! bytes 16.. a pattern, and bytes 0..8 either the send time (every
//! [`STAMP_EVERY`]th message) or a checked pattern word.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use bytes::Bytes;
use pami::{
    AggrConfig, Client, Context, Endpoint, FaultPlan, IncomingMsg, Machine, PayloadSource, Recv,
    SendArgs,
};

use crate::trace::{Name, Tracer};
use crate::{mix, Counters, Outcome, Plan, SetupTimes, OP_DEADLINE};

const NODES: u32 = 8;
/// Most messages outstanding (sent, not yet dispatched) at once.
const WINDOW: u64 = 256;
/// Every this-many-th message carries its send time.
const STAMP_EVERY: u64 = 64;
const DISPATCH: u16 = 1;
/// Untimed messages before the timed phase.
const WARMUP_MSGS: u64 = 200_000;
/// Advance rounds after the last delivery, to catch duplicates.
const TAIL_ADVANCES: usize = 256;

/// What message `seq` is: its destination task and payload length.
fn draw(key: u64, seq: u64) -> (u32, usize, u64) {
    let h = mix(key ^ seq.wrapping_mul(0xD6E8_FEB8_6659_FD93));
    (
        1 + (h % (NODES as u64 - 1)) as u32,
        16 + ((h >> 32) % 49) as usize,
        h,
    )
}

fn body_byte(h: u64, i: usize) -> u8 {
    (h as u8).wrapping_add(i as u8)
}

/// Exactly-once bookkeeping: one bit per message, in lazily allocated
/// chunks so a run of any length fits.
struct Seen {
    chunks: Vec<OnceLock<Box<[AtomicU64]>>>,
}

const CHUNK_BITS: u64 = 1 << 20;

impl Seen {
    fn new() -> Seen {
        Seen {
            chunks: (0..4096).map(|_| OnceLock::new()).collect(),
        }
    }

    /// Mark `seq`; false if it was already marked (or out of range).
    fn mark(&self, seq: u64) -> bool {
        let Some(chunk) = self.chunks.get((seq / CHUNK_BITS) as usize) else {
            return false;
        };
        let words = chunk.get_or_init(|| (0..CHUNK_BITS / 64).map(|_| AtomicU64::new(0)).collect());
        let bit = seq % CHUNK_BITS;
        let mask = 1u64 << (bit % 64);
        words[(bit / 64) as usize].fetch_or(mask, Ordering::Relaxed) & mask == 0
    }
}

/// State the receive handlers share with the driver.
struct Shared {
    key: u64,
    origin: Instant,
    seen: Seen,
    /// Messages dispatched, checked or not.
    arrived: AtomicU64,
    /// Payload bytes of the messages that passed their check.
    bytes: AtomicU64,
    per_dest: [AtomicU64; NODES as usize],
    bad: AtomicU64,
    first_bad: Mutex<Option<String>>,
    /// Stamped messages: (receive time, send→handler latency), ns.
    lat: Mutex<Vec<(u64, u64)>>,
    record_lat: AtomicBool,
}

impl Shared {
    /// Count a message that arrived but failed its check. It still counts
    /// as arrived, so the closed loop drains and the run ends with a
    /// report instead of a deadline miss.
    fn reject(&self, why: String) {
        self.bad.fetch_add(1, Ordering::Relaxed);
        self.arrived.fetch_add(1, Ordering::Release);
        self.first_bad
            .lock()
            .expect("no handler panics holding it")
            .get_or_insert(why);
    }

    fn on_message(&self, ctx: &Context, msg: &IncomingMsg, p: &[u8]) {
        if p.len() < 16 || p.len() as u64 != msg.len {
            return self.reject(format!(
                "task {}: truncated message ({} B)",
                ctx.task(),
                p.len()
            ));
        }
        let seq = u64::from_le_bytes(p[8..16].try_into().expect("8 bytes"));
        let (dest, len, h) = draw(self.key, seq);
        if dest != ctx.task() || len != p.len() {
            return self.reject(format!(
                "msg {seq}: got {} B at task {}, generated {len} B for task {dest}",
                p.len(),
                ctx.task()
            ));
        }
        let word = u64::from_le_bytes(p[0..8].try_into().expect("8 bytes"));
        if !seq.is_multiple_of(STAMP_EVERY) && word != h {
            return self.reject(format!("msg {seq}: head word corrupted"));
        }
        if p[16..]
            .iter()
            .enumerate()
            .any(|(i, &b)| b != body_byte(h, i))
        {
            return self.reject(format!("msg {seq}: body corrupted"));
        }
        if !self.seen.mark(seq) {
            return self.reject(format!("msg {seq}: delivered twice"));
        }
        self.per_dest[dest as usize].fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(len as u64, Ordering::Relaxed);
        self.arrived.fetch_add(1, Ordering::Release);
        if seq.is_multiple_of(STAMP_EVERY) && self.record_lat.load(Ordering::Relaxed) {
            let now = self.origin.elapsed().as_nanos() as u64;
            self.lat
                .lock()
                .expect("no handler panics holding it")
                .push((now, now - word));
        }
    }
}

/// One machine with its eight clients, ready to stream.
struct Rig {
    machine: Arc<Machine>,
    clients: Vec<Arc<Client>>,
    shared: Arc<Shared>,
    /// Messages sent, and per destination.
    sent: u64,
    sent_to: [u64; NODES as usize],
}

impl Rig {
    fn arrived(&self) -> u64 {
        self.shared.arrived.load(Ordering::Acquire)
    }

    /// Sent and not yet dispatched (a duplicate can make arrivals exceed
    /// sends; the check reports it).
    fn outstanding(&self) -> u64 {
        self.sent.saturating_sub(self.arrived())
    }

    fn send(&mut self, tr: &mut Tracer) -> Result<(), String> {
        let seq = self.sent;
        let (dest, len, h) = draw(self.shared.key, seq);
        let mut body = Vec::with_capacity(len);
        let head = if seq.is_multiple_of(STAMP_EVERY) {
            self.shared.origin.elapsed().as_nanos() as u64
        } else {
            h
        };
        body.extend_from_slice(&head.to_le_bytes());
        body.extend_from_slice(&seq.to_le_bytes());
        body.extend((0..len - 16).map(|i| body_byte(h, i)));
        let ctx = self.clients[0].context(0);
        tr.call(Name::CtxSend, seq, || {
            ctx.send(SendArgs {
                dest: Endpoint::of_task(dest),
                dispatch: DISPATCH,
                metadata: Vec::new(),
                payload: PayloadSource::Immediate(Bytes::from(body)),
                local_done: None,
            })
        })
        .map_err(|e| format!("send of msg {seq}: {e:?}"))?;
        self.sent += 1;
        self.sent_to[dest as usize] += 1;
        Ok(())
    }

    /// Flush aggregation buckets and advance every context until at most
    /// `left` messages are outstanding.
    fn drain_to(&self, left: u64, tr: &mut Tracer) -> Result<(), String> {
        let op = self.sent;
        tr.open(Name::CtxBlocked, op);
        let ctx0 = self.clients[0].context(0);
        tr.call(Name::AggrFlush, op, || ctx0.flush_aggr());
        let deadline = Instant::now() + OP_DEADLINE;
        let mut result = Ok(());
        while self.outstanding() > left {
            for c in &self.clients {
                let ctx = c.context(0);
                tr.events(Name::CtxAdvance, op, || ctx.advance());
            }
            if Instant::now() > deadline {
                result = Err(format!(
                    "{} messages still outstanding after {:?}",
                    self.outstanding(),
                    OP_DEADLINE
                ));
                break;
            }
        }
        tr.close(Name::CtxBlocked, false);
        result
    }

    /// Send the next message, draining first if the window is full.
    fn step(&mut self, tr: &mut Tracer) -> Result<(), String> {
        if self.outstanding() >= WINDOW {
            self.drain_to(WINDOW / 2, tr)?;
        }
        self.send(tr)
    }
}

fn setup(seed: u64, lossy: bool, tr: &mut Tracer) -> Result<(Rig, SetupTimes), String> {
    let t0 = Instant::now();
    let mut builder = Machine::with_nodes(NODES as usize);
    builder = if lossy {
        builder.fault_plan(
            FaultPlan::new()
                .seed(seed)
                .drop_rate(0.01)
                .corrupt_rate(0.01),
        )
    } else {
        builder.aggregation(AggrConfig::default())
    };
    let machine = builder.build();
    let t1 = Instant::now();
    let clients: Vec<Arc<Client>> = (0..NODES)
        .map(|t| Client::create(&machine, t, "am", 1))
        .collect();
    let t2 = Instant::now();
    let shared = Arc::new(Shared {
        key: mix(seed),
        origin: Instant::now(),
        seen: Seen::new(),
        arrived: AtomicU64::new(0),
        bytes: AtomicU64::new(0),
        per_dest: Default::default(),
        bad: AtomicU64::new(0),
        first_bad: Mutex::new(None),
        lat: Mutex::new(Vec::new()),
        record_lat: AtomicBool::new(false),
    });
    for c in &clients[1..] {
        let shared = Arc::clone(&shared);
        c.context(0).set_dispatch(
            DISPATCH,
            Arc::new(move |ctx: &Context, msg: &IncomingMsg, p: &[u8]| {
                shared.on_message(ctx, msg, p);
                Recv::Done
            }),
        );
    }
    let mut rig = Rig {
        machine,
        clients,
        shared,
        sent: 0,
        sent_to: [0; NODES as usize],
    };
    rig.send(tr)?;
    rig.drain_to(0, tr)?;
    let t3 = Instant::now();
    Ok((
        rig,
        SetupTimes {
            build: t1 - t0,
            create: t2 - t1,
            bind: t3 - t2,
        },
    ))
}

pub fn run(plan: &Plan, lossy: bool) -> Outcome {
    let mut out = Outcome::new(plan);
    let mut tr = Tracer::new(Instant::now(), 0, STAMP_EVERY);
    if let Err(e) = stream(plan, lossy, &mut tr, &mut out) {
        out.fail(e);
    }
    out.tracers.push(tr);
    out
}

fn stream(plan: &Plan, lossy: bool, tr: &mut Tracer, out: &mut Outcome) -> Result<(), String> {
    let mut rig = None;
    for rep in 0..plan.setups() {
        let (r, times) = setup(plan.seed, lossy, tr)?;
        if plan.setup_timed(rep) {
            out.setup.push(times);
        }
        rig = Some(r);
    }
    let mut rig = rig.expect("at least one set-up");
    let warmup = plan.warmup(WARMUP_MSGS);
    while rig.sent < warmup {
        rig.step(tr)?;
    }
    out.attempted = rig.sent;
    rig.drain_to(0, tr)?;

    // Timed phase.
    let before = Counters::read(&rig.machine);
    let first_timed = rig.sent;
    let start = Instant::now();
    let t0_origin = start.duration_since(rig.shared.origin).as_nanos() as u64;
    rig.shared.record_lat.store(true, Ordering::Relaxed);
    let (mut marked_ops, mut marked_bytes, mut marked_t) = (
        rig.arrived(),
        rig.shared.bytes.load(Ordering::Relaxed),
        0u64,
    );
    loop {
        rig.step(tr)?;
        if rig.sent.is_multiple_of(64) {
            let t = start.elapsed().as_nanos() as u64;
            let (ops, bytes) = (rig.arrived(), rig.shared.bytes.load(Ordering::Relaxed));
            out.series.ops(t, ops - marked_ops);
            out.series.bytes(t, bytes - marked_bytes, t - marked_t);
            (marked_ops, marked_bytes, marked_t) = (ops, bytes, t);
            out.attempted = rig.sent;
            if t >= plan.run_ns {
                break;
            }
            tr.on = plan.traced_window(out.series.window_of(t));
        }
    }
    tr.on = false;
    rig.drain_to(0, tr)?;
    out.timed_ops = rig.sent - first_timed;
    out.counters = Counters::read(&rig.machine).since(before);
    rig.shared.record_lat.store(false, Ordering::Relaxed);
    for &(t, lat) in rig.shared.lat.lock().expect("handlers done").iter() {
        if t >= t0_origin {
            out.series.lat(t - t0_origin, lat);
        }
    }

    // Keep advancing past completion: a duplicate would land now.
    for _ in 0..TAIL_ADVANCES {
        rig.clients[0].context(0).flush_aggr();
        for c in &rig.clients {
            c.context(0).advance();
        }
    }
    check(&rig, out);
    Ok(())
}

/// Every message arrived exactly once with its generated length and
/// bytes, and each destination got exactly what the generator sent it.
fn check(rig: &Rig, out: &mut Outcome) {
    out.attempted = rig.sent;
    let s = &rig.shared;
    let bad = s.bad.load(Ordering::Relaxed);
    if bad > 0 {
        let first = s
            .first_bad
            .lock()
            .expect("handlers done")
            .clone()
            .unwrap_or_default();
        out.failed += bad;
        out.errors
            .push(format!("{bad} messages failed their check; first: {first}"));
    }
    let arrived = rig.arrived();
    if arrived != rig.sent {
        out.fail(format!("{} sent but {arrived} arrived", rig.sent));
    }
    for t in 1..NODES as usize {
        let got = s.per_dest[t].load(Ordering::Relaxed);
        if got != rig.sent_to[t] {
            out.fail(format!(
                "task {t}: generator sent {} messages, {got} arrived",
                rig.sent_to[t]
            ));
        }
    }
}
