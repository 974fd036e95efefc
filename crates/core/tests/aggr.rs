//! Integration tests for the TRAM-style small-message aggregation layer
//! (`pami::aggr`), end to end over the simulated MU fabric.
//!
//! The properties under test are the ones the coalescing layer must not
//! trade away for message rate:
//!
//! * **Per-(src,dst) ordering** — records inside a frame, across frames,
//!   and across the aggregated/direct protocol boundary (conflict flush)
//!   arrive in send order.
//! * **Exactly-once under faults** — an aggregated frame is one short-tier
//!   packet on the destination's pinned FIFO, so drop/corrupt plans cost
//!   retransmits of whole frames, never duplicate or lost records.
//! * **Flush policy** — fill, age-bound (on the advance clock), explicit
//!   `flush_aggr`, and conflict flush each fire when they should.
//! * **Equivalence** — aggregation on and off deliver byte-identical
//!   streams in identical order; only the packet count changes.
//! * **Failover** — buckets opened before a failover land on the standby,
//!   because frame destinations resolve at emit time.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use pami::{
    AggrConfig, Client, Counter, Endpoint, FaultPlan, Machine, PayloadSource, Recv, SendArgs,
};

const DISPATCH: u16 = 7;

/// Pattern for message `i` of length `len`: every byte depends on both, so
/// cross-message mixups and intra-message holes are both visible.
fn pattern(i: usize, len: usize) -> Vec<u8> {
    (0..len).map(|b| ((i * 131 + b * 7) % 251) as u8).collect()
}

/// Drive `msgs` messages of `len` bytes from task 0 to task 1 over a
/// 2-node machine, aggregation configured per `aggr`, optional fault plan.
/// Returns (machine, arrival log): the log is the receiver's dispatch
/// order, one `(index, payload)` per record, exactly as handlers ran.
fn exchange(
    aggr: Option<AggrConfig>,
    plan: Option<FaultPlan>,
    msgs: usize,
    len: impl Fn(usize) -> usize + Send + Sync + 'static,
) -> (Arc<Machine>, Vec<(u64, Vec<u8>)>) {
    let mut builder = Machine::with_nodes(2);
    if let Some(cfg) = aggr {
        builder = builder.aggregation(cfg);
    }
    if let Some(plan) = plan {
        builder = builder.fault_plan(plan);
    }
    let machine = builder.build();
    type ArrivalLog = parking_lot::Mutex<Vec<(u64, Vec<u8>)>>;
    let log: Arc<ArrivalLog> = Arc::new(parking_lot::Mutex::new(Vec::new()));
    let log2 = Arc::clone(&log);
    let seen = Arc::new(AtomicU64::new(0));
    let seen2 = Arc::clone(&seen);
    let len = Arc::new(len);
    machine.run(move |env| {
        let client = Client::create(&env.machine, env.task, "aggr", 1);
        let ctx = client.context(0);
        if env.task == 1 {
            let log = Arc::clone(&log2);
            let seen = Arc::clone(&seen2);
            ctx.set_dispatch(
                DISPATCH,
                Arc::new(move |_ctx, msg, payload| {
                    let i = u64::from_le_bytes(msg.metadata[..8].try_into().unwrap());
                    log.lock().push((i, payload.to_vec()));
                    seen.fetch_add(1, Ordering::SeqCst);
                    Recv::Done
                }),
            );
        }
        env.machine.task_barrier();
        if env.task == 0 {
            let done = Counter::new();
            for i in 0..msgs {
                let n = len(i);
                done.add_expected(if n == 0 { 1 } else { n as u64 });
                ctx.send(SendArgs {
                    dest: Endpoint::of_task(1),
                    dispatch: DISPATCH,
                    metadata: (i as u64).to_le_bytes().to_vec(),
                    payload: PayloadSource::Immediate(bytes::Bytes::from(pattern(i, n))),
                    local_done: Some(done.clone()),
                })
                .unwrap();
                ctx.advance();
            }
            // Cut whatever the fill/age policy left open, then keep the
            // pump running until the receiver has everything (frame
            // retransmits under a fault plan happen on our advance).
            ctx.flush_aggr();
            ctx.advance_until(|| done.is_complete());
            assert!(done.is_ok(), "all sends locally complete: {:?}", done.fault());
            ctx.advance_until(|| seen2.load(Ordering::SeqCst) == msgs as u64);
            // The receiver can hold every record while frames whose ack
            // was lost still await their RTO probe: drain them, so the
            // fault history read after the run is the whole history.
            ctx.advance_until(|| ctx.is_quiescent());
        } else {
            ctx.advance_until(|| seen2.load(Ordering::SeqCst) == msgs as u64);
        }
    });
    assert_eq!(seen.load(Ordering::SeqCst), msgs as u64);
    let log = Arc::try_unwrap(log).expect("all clones dropped").into_inner();
    (machine, log)
}

/// Assert `log` is an exactly-once, in-order, intact delivery of
/// `0..msgs` with sizes from `len`.
fn assert_stream(log: &[(u64, Vec<u8>)], msgs: usize, len: impl Fn(usize) -> usize) {
    assert_eq!(log.len(), msgs, "every message exactly once");
    for (pos, (i, payload)) in log.iter().enumerate() {
        assert_eq!(*i, pos as u64, "per-(src,dst) send order preserved");
        assert_eq!(payload, &pattern(pos, len(pos)), "record {pos} intact");
    }
}

// ---------------------------------------------------------------------------
// Ordering and batching
// ---------------------------------------------------------------------------

#[test]
fn aggregated_flood_arrives_in_order_and_actually_batches() {
    const MSGS: usize = 256;
    let (machine, log) = exchange(Some(AggrConfig::default()), None, MSGS, |_| 32);
    assert_stream(&log, MSGS, |_| 32);
    if cfg!(feature = "telemetry") {
        let snap = machine.telemetry().snapshot();
        let frames = snap.counter("aggr.frames");
        let batched = snap.counter("aggr.batched_msgs");
        assert_eq!(batched, MSGS as u64, "every small send rode the coalescing path");
        assert!(frames > 0 && frames < MSGS as u64, "coalescing must shrink the packet count");
        assert!(
            batched / frames > 4,
            "32 B records in 512 B frames must average > 4 per frame (got {})",
            batched / frames
        );
        assert_eq!(snap.counter("ctx.sends_aggr"), MSGS as u64);
    }
}

#[test]
fn mixed_sizes_cross_the_protocol_boundary_in_order() {
    // Sizes straddle the aggregation cutoff (128 B): small records buffer,
    // large ones conflict-flush the bucket first. Order must survive the
    // interleave with no explicit flushes beyond the final tail cut.
    const MSGS: usize = 96;
    let len = |i: usize| if i % 3 == 2 { 512 } else { 16 + (i % 7) * 8 };
    let (machine, log) = exchange(Some(AggrConfig::default()), None, MSGS, len);
    assert_stream(&log, MSGS, len);
    if cfg!(feature = "telemetry") {
        let snap = machine.telemetry().snapshot();
        assert!(snap.counter("aggr.flush_conflict") > 0, "large sends must cut open buckets");
        assert!(snap.counter("ctx.sends_eager") > 0, "large sends ride the eager tier");
    }
}

#[test]
fn aggregation_on_and_off_deliver_identical_streams() {
    // A/B equivalence: the same traffic with aggregation on and off must
    // produce byte-identical arrival logs — same records, same order.
    // Only the wire-level packet count may differ.
    const MSGS: usize = 128;
    let len = |i: usize| 8 + (i % 15) * 9; // 8..134 B, straddles the cutoff
    let (on_machine, on) = exchange(Some(AggrConfig::default()), None, MSGS, len);
    let (_, off) = exchange(None, None, MSGS, len);
    assert_eq!(on, off, "aggregation must be invisible to the delivery stream");
    if cfg!(feature = "telemetry") {
        let snap = on_machine.telemetry().snapshot();
        assert!(snap.counter("aggr.frames") > 0, "the on-arm must actually coalesce");
    }
}

#[test]
fn zero_length_records_coalesce() {
    // Empty payloads (pure metadata signals — the flag-put idiom) are the
    // densest possible aggregation case and must round-trip.
    const MSGS: usize = 64;
    let (_, log) = exchange(Some(AggrConfig::default()), None, MSGS, |_| 0);
    assert_stream(&log, MSGS, |_| 0);
}

// ---------------------------------------------------------------------------
// Flush policy
// ---------------------------------------------------------------------------

#[test]
fn age_bound_flush_fires_on_the_advance_clock() {
    // One lone record, no fill pressure, no explicit flush: only the age
    // bound can cut it. Stall past the bound, then a single advance must
    // inject the frame.
    let cfg = AggrConfig { age_us: 200, ..AggrConfig::default() };
    let machine = Machine::with_nodes(2).aggregation(cfg).build();
    let seen = Arc::new(AtomicU64::new(0));
    let seen2 = Arc::clone(&seen);
    machine.run(move |env| {
        let client = Client::create(&env.machine, env.task, "aggr", 1);
        let ctx = client.context(0);
        if env.task == 1 {
            let seen = Arc::clone(&seen2);
            ctx.set_dispatch(
                DISPATCH,
                Arc::new(move |_, _, payload| {
                    assert_eq!(payload, &pattern(0, 24)[..]);
                    seen.fetch_add(1, Ordering::SeqCst);
                    Recv::Done
                }),
            );
        }
        env.machine.task_barrier();
        if env.task == 0 {
            ctx.send(SendArgs {
                dest: Endpoint::of_task(1),
                dispatch: DISPATCH,
                metadata: 0u64.to_le_bytes().to_vec(),
                payload: PayloadSource::Immediate(bytes::Bytes::from(pattern(0, 24))),
                local_done: None,
            })
            .unwrap();
            assert_eq!(ctx.aggr_pending(), 1, "one record buffered, none injected");
            ctx.advance();
            assert_eq!(ctx.aggr_pending(), 1, "a young bucket survives advance");
            std::thread::sleep(std::time::Duration::from_micros(400));
            ctx.advance_until(|| seen2.load(Ordering::SeqCst) == 1);
            assert_eq!(ctx.aggr_pending(), 0, "the age bound cut the bucket");
        } else {
            ctx.advance_until(|| seen2.load(Ordering::SeqCst) == 1);
        }
    });
    assert_eq!(seen.load(Ordering::SeqCst), 1);
    if cfg!(feature = "telemetry") {
        assert!(machine.telemetry().snapshot().counter("aggr.flush_age") > 0);
    }
}

#[test]
fn explicit_flush_drains_every_bucket() {
    // Fan a few records out to distinct destinations, then one
    // `flush_aggr` must inject all buckets and leave nothing pending.
    let machine = Machine::with_nodes(4).aggregation(AggrConfig::default()).build();
    let seen = Arc::new(AtomicU64::new(0));
    let seen2 = Arc::clone(&seen);
    machine.run(move |env| {
        let client = Client::create(&env.machine, env.task, "aggr", 1);
        let ctx = client.context(0);
        if env.task != 0 {
            let seen = Arc::clone(&seen2);
            ctx.set_dispatch(
                DISPATCH,
                Arc::new(move |_, _, _| {
                    seen.fetch_add(1, Ordering::SeqCst);
                    Recv::Done
                }),
            );
        }
        env.machine.task_barrier();
        if env.task == 0 {
            for dest in 1u32..4 {
                for i in 0..3usize {
                    ctx.send(SendArgs {
                        dest: Endpoint::of_task(dest),
                        dispatch: DISPATCH,
                        metadata: (i as u64).to_le_bytes().to_vec(),
                        payload: PayloadSource::Immediate(bytes::Bytes::from(pattern(i, 16))),
                        local_done: None,
                    })
                    .unwrap();
                }
            }
            assert_eq!(ctx.aggr_pending(), 9, "three buckets of three records each");
            let frames = ctx.flush_aggr();
            assert_eq!(frames, 3, "one frame per destination bucket");
            assert_eq!(ctx.aggr_pending(), 0);
            ctx.advance_until(|| seen2.load(Ordering::SeqCst) == 9);
        } else {
            ctx.advance_until(|| seen2.load(Ordering::SeqCst) == 9);
        }
    });
    assert_eq!(seen.load(Ordering::SeqCst), 9);
}

// ---------------------------------------------------------------------------
// Faults: exactly-once and failover
// ---------------------------------------------------------------------------

#[test]
fn exactly_once_under_drop_and_corrupt_on_batched_frames() {
    // 1% drop + 1% corrupt on a 192-message aggregated flood: the frames
    // ride the selective-repeat channel, so lost/corrupted frames cost
    // whole-frame retransmits and every record still lands exactly once,
    // in order (assert_stream checks both).
    const MSGS: usize = 192;
    let plan = FaultPlan::new().seed(9101).drop_rate(0.01).corrupt_rate(0.01);
    let (machine, log) = exchange(Some(AggrConfig::default()), Some(plan), MSGS, |i| 16 + i % 48);
    assert_stream(&log, MSGS, |i| 16 + i % 48);
    if cfg!(feature = "telemetry") {
        let snap = machine.telemetry().snapshot();
        assert!(snap.counter("aggr.frames") > 0, "the chaos arm must actually batch");
    }
}

#[test]
fn heavier_chaos_still_exactly_once_and_deterministic() {
    let run = || {
        let plan = FaultPlan::new().seed(9102).drop_rate(0.05).corrupt_rate(0.03);
        // Age bound pinned out of reach: the determinism assert compares
        // two runs' fault histories, which only match if every cut is a
        // fill cut (an age cut's timing depends on host speed).
        let cfg = AggrConfig { age_us: 1_000_000, ..AggrConfig::default() };
        let (machine, log) = exchange(Some(cfg), Some(plan), 128, |_| 40);
        assert_stream(&log, 128, |_| 40);
        let ras = machine.fabric().ras_counters();
        (ras.retransmits.value(), ras.crc_errors.value())
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "same seed, same fault history over batched frames");
    if cfg!(feature = "telemetry") {
        assert!(a.0 > 0 || a.1 > 0, "a 5%/3% plan must actually bite");
    }
}

#[test]
fn bucket_opened_before_failover_flushes_to_the_standby() {
    // Records buffered against task 1, failover fires, then the flush:
    // the frame's destination resolves at emit time, so the whole bucket
    // lands on standby task 2 — no records are stranded on the dead
    // primary's address.
    const MSGS: usize = 5;
    let shape = bgq_torus::TorusShape::for_nodes(3);
    let machine = Machine::builder(shape).aggregation(AggrConfig::default()).build();
    machine.register_standby(1, 2);
    let standby_got = Arc::new(AtomicU64::new(0));
    let primary_got = Arc::new(AtomicU64::new(0));
    let (sg, pg) = (Arc::clone(&standby_got), Arc::clone(&primary_got));
    machine.run(move |env| {
        let client = Client::create(&env.machine, env.task, "aggr", 1);
        let ctx = client.context(0);
        match env.task {
            1 => {
                let got = Arc::clone(&pg);
                ctx.set_dispatch(
                    DISPATCH,
                    Arc::new(move |_, _, _| {
                        got.fetch_add(1, Ordering::SeqCst);
                        Recv::Done
                    }),
                );
            }
            2 => {
                let got = Arc::clone(&sg);
                ctx.set_dispatch(
                    DISPATCH,
                    Arc::new(move |_, msg, payload| {
                        let i = u64::from_le_bytes(msg.metadata[..8].try_into().unwrap());
                        assert_eq!(payload, &pattern(i as usize, 32)[..]);
                        got.fetch_add(1, Ordering::SeqCst);
                        Recv::Done
                    }),
                );
            }
            _ => {}
        }
        env.machine.task_barrier();
        if env.task == 0 {
            for i in 0..MSGS {
                ctx.send(SendArgs {
                    dest: Endpoint::of_task(1),
                    dispatch: DISPATCH,
                    metadata: (i as u64).to_le_bytes().to_vec(),
                    payload: PayloadSource::Immediate(bytes::Bytes::from(pattern(i, 32))),
                    local_done: None,
                })
                .unwrap();
            }
            assert_eq!(ctx.aggr_pending(), MSGS, "nothing injected before the failover");
            assert_eq!(env.machine.failover(1), Some(2), "operator failover fires");
            assert_eq!(ctx.flush_aggr(), 1, "the whole bucket leaves as one frame");
            ctx.advance_until(|| sg.load(Ordering::SeqCst) == MSGS as u64);
        } else {
            ctx.advance_until(|| sg.load(Ordering::SeqCst) == MSGS as u64);
        }
    });
    assert_eq!(standby_got.load(Ordering::SeqCst), MSGS as u64, "standby received the bucket");
    assert_eq!(primary_got.load(Ordering::SeqCst), 0, "the dead primary saw nothing");
}

// ---------------------------------------------------------------------------
// Node-bucket (TRAM intermediate) mode
// ---------------------------------------------------------------------------

#[test]
fn node_buckets_coalesce_across_tasks_and_still_route_by_endpoint() {
    // ppn=2: tasks 2 and 3 share node 1. In node-bucket mode sends to
    // both coalesce under one bucket (addressed records), and the
    // receiver-side unbatcher forwards each record to its true endpoint
    // over the node's mailboxes.
    const PER_TASK: usize = 6;
    let machine = Machine::with_nodes(2)
        .ppn(2)
        .aggregation(AggrConfig { node_buckets: true, ..AggrConfig::default() })
        .build();
    let got2 = Arc::new(AtomicU64::new(0));
    let got3 = Arc::new(AtomicU64::new(0));
    let (g2, g3) = (Arc::clone(&got2), Arc::clone(&got3));
    machine.run(move |env| {
        let client = Client::create(&env.machine, env.task, "aggr", 1);
        let ctx = client.context(0);
        if env.task >= 2 {
            let got = if env.task == 2 { Arc::clone(&g2) } else { Arc::clone(&g3) };
            let task = env.task;
            ctx.set_dispatch(
                DISPATCH,
                Arc::new(move |_, msg, _| {
                    let tagged = u64::from_le_bytes(msg.metadata[..8].try_into().unwrap());
                    assert_eq!(tagged >> 32, task as u64, "record landed on its own endpoint");
                    got.fetch_add(1, Ordering::SeqCst);
                    Recv::Done
                }),
            );
        }
        env.machine.task_barrier();
        let total = (2 * PER_TASK) as u64;
        if env.task == 0 {
            for i in 0..PER_TASK {
                for dest in 2u32..4 {
                    let tag = ((dest as u64) << 32) | i as u64;
                    ctx.send(SendArgs {
                        dest: Endpoint::of_task(dest),
                        dispatch: DISPATCH,
                        metadata: tag.to_le_bytes().to_vec(),
                        payload: PayloadSource::Immediate(bytes::Bytes::from(pattern(i, 20))),
                        local_done: None,
                    })
                    .unwrap();
                }
            }
            assert_eq!(
                ctx.aggr_pending(),
                2 * PER_TASK,
                "both destinations share the node bucket"
            );
            assert_eq!(ctx.flush_aggr(), 1, "one node bucket, one frame");
            ctx.advance_until(|| {
                g2.load(Ordering::SeqCst) + g3.load(Ordering::SeqCst) == total
            });
        } else {
            ctx.advance_until(|| {
                g2.load(Ordering::SeqCst) + g3.load(Ordering::SeqCst) == total
            });
        }
    });
    assert_eq!(got2.load(Ordering::SeqCst), PER_TASK as u64);
    assert_eq!(got3.load(Ordering::SeqCst), PER_TASK as u64);
    if cfg!(feature = "telemetry") {
        let snap = machine.telemetry().snapshot();
        assert!(snap.counter("aggr.forwarded") > 0, "sibling records hop the mailbox");
    }
}

#[test]
#[should_panic(expected = "an aggregated frame is one packet")]
fn frame_budget_above_one_packet_is_rejected_at_build() {
    let cfg = AggrConfig { max_frame: 2048, ..AggrConfig::default() };
    let _ = Machine::with_nodes(2).aggregation(cfg);
}
