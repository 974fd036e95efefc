//! The DES-clocked packet transport.
//!
//! [`VirtualFabric`] implements [`bgq_mu::Transport`]: every reception-FIFO
//! deposit the MU fabric would have performed synchronously is instead
//! scheduled as a discrete event at its physically-motivated arrival time —
//! per-hop latency plus wire serialization, both from
//! [`bgq_netsim::MachineParams`] — and performed when the shared virtual
//! clock reaches it. Wall-clock thread interleaving stops determining
//! delivery order; the modeled network does.
//!
//! Sharding: pending deliveries are held per *destination node*, so the
//! worker that owns a node drains its arrivals without contending with
//! workers pumping other nodes, and every deposit into a given reception
//! FIFO happens on its owner's thread — the same locality the MU's per-node
//! reception FIFOs give real PAMI.
//!
//! Ordering: the MU contract is that packets of one (source → destination)
//! flow arrive in injection order. Scheduling by size could invert two
//! back-to-back messages of different lengths, so each shard clamps every
//! arrival from a given source node to be no earlier than the previous one
//! — FIFO per (src node, dst node), exactly the torus' per-path guarantee —
//! with the DES engine's sequence number breaking ties.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bgq_mu::{MuPacket, RecFifo, RecFifoId, Transport};
use bgq_netsim::des::Engine;
use bgq_netsim::MachineParams;
use bgq_torus::{hop_distance, TorusShape};
use parking_lot::Mutex;

/// Per-packet wire overhead (the MU's 32-byte packet header).
const PACKET_HEADER_BYTES: u64 = 32;

/// One scheduled delivery: a whole fragmented message bound for one
/// reception FIFO. Equality is by `id` only — [`Engine`] requires
/// `PartialEq` for its event ordering, and packets are intentionally not
/// comparable (or cloneable).
struct Pending {
    id: u64,
    fifo: Arc<RecFifo>,
    packets: Vec<MuPacket>,
}

impl PartialEq for Pending {
    fn eq(&self, other: &Self) -> bool {
        self.id == other.id
    }
}

/// Per-destination-node pending state.
struct Shard {
    engine: Engine<Pending>,
    /// Last scheduled arrival per source node: the per-path FIFO clamp.
    last_arrival: HashMap<u32, f64>,
    next_id: u64,
}

/// A DES-clocked [`Transport`]: deposits are scheduled at modeled arrival
/// times and performed by [`VirtualFabric::pump_node`] when the shared
/// virtual clock reaches them.
pub struct VirtualFabric {
    shape: TorusShape,
    params: MachineParams,
    /// The shared virtual clock, in integer nanoseconds (atomically
    /// readable from every sending thread; only the harness advances it).
    now_ns: AtomicU64,
    shards: Vec<Mutex<Shard>>,
    /// Messages scheduled but not yet deposited (cheap global idle check).
    in_flight: AtomicU64,
    scheduled: AtomicU64,
    delivered: AtomicU64,
    /// Link-layer control frames (selective-repeat acks/SACKs) charged on
    /// the clock via [`Transport::deliver_control`].
    control_frames: AtomicU64,
    control_bytes: AtomicU64,
}

impl VirtualFabric {
    /// A virtual fabric over `shape` with `params` supplying link timing.
    pub fn new(shape: TorusShape, params: MachineParams) -> Arc<VirtualFabric> {
        Arc::new(VirtualFabric {
            shape,
            params,
            now_ns: AtomicU64::new(0),
            shards: (0..shape.num_nodes())
                .map(|_| {
                    Mutex::new(Shard {
                        engine: Engine::new(),
                        last_arrival: HashMap::new(),
                        next_id: 0,
                    })
                })
                .collect(),
            in_flight: AtomicU64::new(0),
            scheduled: AtomicU64::new(0),
            delivered: AtomicU64::new(0),
            control_frames: AtomicU64::new(0),
            control_bytes: AtomicU64::new(0),
        })
    }

    /// Current virtual time in nanoseconds.
    pub fn now_ns(&self) -> u64 {
        self.now_ns.load(Ordering::Acquire)
    }

    /// Move the virtual clock forward to `ns` (monotonic: earlier values
    /// are ignored). Deposits due at or before the new time become
    /// eligible for [`VirtualFabric::pump_node`].
    pub fn advance_clock_to(&self, ns: u64) {
        self.now_ns.fetch_max(ns, Ordering::AcqRel);
    }

    /// Advance the clock to the earliest pending arrival across all nodes
    /// and return the new time; `None` when nothing is in flight. The
    /// harness calls this when every context is idle — virtual time skips
    /// straight to the next event, the classic DES fast-forward.
    pub fn advance_clock_to_next(&self) -> Option<u64> {
        let mut min_t = f64::INFINITY;
        for shard in &self.shards {
            if let Some(t) = shard.lock().engine.peek_time() {
                min_t = min_t.min(t);
            }
        }
        if !min_t.is_finite() {
            return None;
        }
        let ns = (min_t * 1e9).ceil() as u64;
        self.advance_clock_to(ns);
        Some(self.now_ns())
    }

    /// Deposit every delivery for `node` due at or before the current
    /// virtual time; returns messages deposited. Meant to be called by the
    /// worker that owns `node`, so FIFO deposits stay on one thread.
    pub fn pump_node(&self, node: u32) -> usize {
        let limit = self.now_ns.load(Ordering::Acquire) as f64 * 1e-9;
        let mut shard = self.shards[node as usize].lock();
        let mut done = 0usize;
        while let Some(ev) = shard.engine.next_due(limit) {
            let Pending { fifo, packets, .. } = ev.payload;
            let n = packets.len() as u64;
            let mut it = packets.into_iter();
            fifo.deliver_batch(n, |_| it.next().expect("scheduled packet count"));
            done += 1;
        }
        drop(shard);
        if done > 0 {
            self.in_flight.fetch_sub(done as u64, Ordering::AcqRel);
            self.delivered.fetch_add(done as u64, Ordering::Relaxed);
        }
        done
    }

    /// Whether any scheduled delivery is still undeposited.
    pub fn is_idle(&self) -> bool {
        self.in_flight.load(Ordering::Acquire) == 0
    }

    /// (messages scheduled, messages deposited, DES events processed).
    pub fn stats(&self) -> (u64, u64, u64) {
        let processed: u64 = self.shards.iter().map(|s| s.lock().engine.processed()).sum();
        (self.scheduled.load(Ordering::Relaxed), self.delivered.load(Ordering::Relaxed), processed)
    }

    /// (control frames charged, control bytes charged): the reverse-path
    /// ack/SACK traffic the reliability layer put on the virtual wire.
    pub fn control_stats(&self) -> (u64, u64) {
        (
            self.control_frames.load(Ordering::Relaxed),
            self.control_bytes.load(Ordering::Relaxed),
        )
    }
}

impl Transport for VirtualFabric {
    fn deliver(
        &self,
        src_node: u32,
        dst_node: u32,
        _rec_fifo: RecFifoId,
        fifo: &Arc<RecFifo>,
        npackets: u64,
        make: &mut dyn FnMut(u64) -> MuPacket,
    ) {
        // Materialize the message now (the builder closure borrows send-path
        // state that won't outlive this call) and cost it on the wire.
        let mut packets = Vec::with_capacity(npackets as usize);
        let mut wire_bytes = 0u64;
        for i in 0..npackets {
            let pkt = make(i);
            wire_bytes += pkt.payload.len() as u64 + PACKET_HEADER_BYTES;
            packets.push(pkt);
        }
        let hops = hop_distance(
            self.shape,
            self.shape.coords_of(src_node as usize),
            self.shape.coords_of(dst_node as usize),
        );
        let now = self.now_ns.load(Ordering::Acquire) as f64 * 1e-9;
        let mut arrival = now
            + hops as f64 * self.params.hop_latency
            + wire_bytes as f64 / self.params.link_payload_bw;
        let mut shard = self.shards[dst_node as usize].lock();
        // Per-(src,dst) FIFO clamp: never schedule ahead of an earlier
        // message from the same source.
        let last = shard.last_arrival.entry(src_node).or_insert(0.0);
        if arrival < *last {
            arrival = *last;
        }
        *last = arrival;
        let id = shard.next_id;
        shard.next_id += 1;
        shard.engine.schedule(arrival, Pending { id, fifo: Arc::clone(fifo), packets });
        drop(shard);
        self.in_flight.fetch_add(1, Ordering::AcqRel);
        self.scheduled.fetch_add(1, Ordering::Relaxed);
    }

    fn deliver_control(&self, src_node: u32, dst_node: u32, bytes: u64) {
        // A control frame deposits nothing, but it occupies the
        // (src, dst) path on the wire: charge its serialization through
        // the per-path FIFO clamp so later traffic on the same path
        // cannot be scheduled ahead of it. This is how the SR ack stream
        // shows up on the DES clock without a reception-FIFO target.
        let hops = hop_distance(
            self.shape,
            self.shape.coords_of(src_node as usize),
            self.shape.coords_of(dst_node as usize),
        );
        let now = self.now_ns.load(Ordering::Acquire) as f64 * 1e-9;
        let arrival = now
            + hops as f64 * self.params.hop_latency
            + (bytes + PACKET_HEADER_BYTES) as f64 / self.params.link_payload_bw;
        let mut shard = self.shards[dst_node as usize].lock();
        let last = shard.last_arrival.entry(src_node).or_insert(0.0);
        if arrival > *last {
            *last = arrival;
        }
        drop(shard);
        self.control_frames.fetch_add(1, Ordering::Relaxed);
        self.control_bytes.fetch_add(bytes, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    fn packet(src: u32, seq: u64, len: usize) -> MuPacket {
        MuPacket {
            src_node: src,
            src_context: 0,
            dispatch: 0,
            metadata: Bytes::new(),
            msg_id: seq,
            msg_len: len as u32,
            offset: 0,
            link_seq: seq,
            crc: 0,
            short: true,
            payload: bgq_mu::PacketPayload::Inline(Bytes::from(vec![0u8; len])),
        }
    }

    fn harness() -> (Arc<VirtualFabric>, Arc<RecFifo>) {
        let shape = TorusShape::for_nodes(4);
        let vf = VirtualFabric::new(shape, MachineParams::default());
        (vf, Arc::new(RecFifo::new(64)))
    }

    #[test]
    fn deposits_wait_for_the_virtual_clock() {
        let (vf, fifo) = harness();
        let mut pkt = Some(packet(1, 0, 8));
        vf.deliver(1, 0, RecFifoId(0), &fifo, 1, &mut |_| pkt.take().unwrap());
        assert!(!vf.is_idle());
        assert_eq!(vf.pump_node(0), 0, "clock at zero: nothing due yet");
        assert!(fifo.is_empty());
        vf.advance_clock_to_next().expect("one message in flight");
        assert_eq!(vf.pump_node(0), 1);
        assert!(vf.is_idle());
        assert!(!fifo.is_empty());
    }

    #[test]
    fn same_path_messages_stay_fifo_despite_size_inversion() {
        let (vf, fifo) = harness();
        // A large message then a small one on the same path: the small one
        // would serialize faster, but must not overtake.
        let mut big = Some(packet(1, 0, 512));
        vf.deliver(1, 0, RecFifoId(0), &fifo, 1, &mut |_| big.take().unwrap());
        let mut small = Some(packet(1, 1, 8));
        vf.deliver(1, 0, RecFifoId(0), &fifo, 1, &mut |_| small.take().unwrap());
        vf.advance_clock_to(1_000_000_000);
        assert_eq!(vf.pump_node(0), 2);
        let first = fifo.poll().expect("two deposits");
        assert_eq!(first.msg_id, 0, "injection order preserved");
        assert_eq!(fifo.poll().expect("second deposit").msg_id, 1);
    }

    #[test]
    fn control_frames_occupy_the_path_and_are_counted() {
        let (vf, fifo) = harness();
        // A fat control frame on the 1->0 path, then a data packet on the
        // same path: the data packet must not be scheduled ahead of the
        // control frame's serialization point.
        vf.deliver_control(1, 0, 1 << 20);
        assert_eq!(vf.control_stats(), (1, 1 << 20));
        let mut pkt = Some(packet(1, 0, 8));
        vf.deliver(1, 0, RecFifoId(0), &fifo, 1, &mut |_| pkt.take().unwrap());
        // A bare 8-byte packet serializes far faster than a megabyte
        // control frame: without the clamp it would be due almost
        // immediately. Check the scheduled arrival really sits at or after
        // the control frame's.
        let due = vf.advance_clock_to_next().expect("data packet in flight") as f64 * 1e-9;
        let control_wire =
            (1u64 << 20) as f64 / MachineParams::default().link_payload_bw;
        assert!(
            due >= control_wire,
            "data arrival {due}s must not precede the control frame's wire time {control_wire}s"
        );
        assert_eq!(vf.pump_node(0), 1);
        // Control frames deposit nothing.
        assert_eq!(fifo.poll().expect("one data deposit").msg_id, 0);
        assert!(fifo.is_empty());
    }

    #[test]
    fn farther_nodes_arrive_later() {
        let shape = TorusShape::for_nodes(8);
        let vf = VirtualFabric::new(shape, MachineParams::default());
        let near_fifo = Arc::new(RecFifo::new(16));
        let far_fifo = Arc::new(RecFifo::new(16));
        // Identical payloads from node 0: one hop vs the longest path.
        let far = (0..shape.num_nodes() as u32)
            .max_by_key(|&n| hop_distance(shape, shape.coords_of(0), shape.coords_of(n as usize)))
            .unwrap();
        let mut a = Some(packet(0, 0, 8));
        vf.deliver(0, 1, RecFifoId(0), &near_fifo, 1, &mut |_| a.take().unwrap());
        let mut b = Some(packet(0, 1, 8));
        vf.deliver(0, far, RecFifoId(0), &far_fifo, 1, &mut |_| b.take().unwrap());
        let near_due = vf.advance_clock_to_next().expect("in flight");
        assert_eq!(vf.pump_node(1), 1, "nearest arrival is due first");
        assert_eq!(vf.pump_node(far), 0, "farther arrival still in flight at {near_due}ns");
        vf.advance_clock_to_next().expect("far message still in flight");
        assert_eq!(vf.pump_node(far), 1);
        assert!(vf.is_idle());
    }
}
