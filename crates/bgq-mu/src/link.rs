//! Link-level reliability: per-(source, destination) retransmit channels,
//! the `ras.*` counter family, and the RAS event ring.
//!
//! BG/Q's serdes links run a hardware link-level protocol — CRC per packet,
//! sliding-window retransmit on CRC failure, and a RAS event when a link
//! retries persistently or dies. This module is the software model of that
//! layer for the simulated fabric: when a [`crate::faults::FaultPlan`] is
//! installed, traffic between distinct nodes moves as [`Frame`]s through a
//! per-(src, dst) [`Channel`] that delivers in order, retransmits lost or
//! corrupted frames with exponential backoff, reroutes around killed links,
//! and — when the retry budget runs out — fails the outstanding transfers'
//! completion counters with a typed [`DeliveryFault`] instead of hanging
//! whoever is polling them.
//!
//! The retransmit protocol is **selective repeat**: the sender works a
//! window of frames rather than only the oldest one, the receiver accepts
//! out-of-order arrivals into a bounded reorder buffer
//! ([`RxState`]) and answers each with a selective ack, and a cumulative
//! ack covering every in-order-delivered frame retires whole prefixes of
//! the queue at once. A selective ack for a later frame doubles as SACK
//! information: any earlier frame the sender knows to be lost is
//! retransmitted immediately (`ras.sack_retransmits`) instead of waiting
//! out its RTO.
//!
//! Deliberate modeling choices, documented because they bound what the
//! model can show:
//!
//! * **Acks are frames too, and they can be lost.** Under selective repeat
//!   an ack crosses the reverse route and rolls the same per-link fate
//!   dice as data; a lost ack leaves the sender's frame in
//!   [`FrameState::AckWait`] until an RTO-driven probe re-elicits a
//!   cumulative ack (the receiver discards the duplicate data). Ack
//!   crossings do not advance kill schedules, so kill-at-Nth-frame plans
//!   count data frames only.
//! * **The reorder buffer is sender-resident.** The simulation's "wire" is
//!   a function call, so an out-of-order frame's body stays in the sender's
//!   queue ([`FrameState::SackHeld`]) and is deposited at the destination
//!   when the sequence gap fills; the receiver tracks only the held
//!   sequence numbers, bounded by the plan's reorder capacity. Arrivals
//!   beyond the high-water mark are refused (drop-newest,
//!   `RasEventKind::ReorderEvict`) and retransmitted later.
//! * **Faults fire on the links of the route.** A frame's fate is decided
//!   per crossed link (first bad link wins), so longer routes really are
//!   more exposed, but there is no per-hop buffering — a frame is either
//!   delivered whole or lost whole.
//!
//! The channel state machine itself is driven by
//! [`crate::fabric::MuFabric::pump_links`]; this module owns the data
//! structures and the bookkeeping.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use bgq_hw::{Counter as HwCounter, DeliveryFault, MemRegion};
use bgq_torus::{Coords, Dir, LinkHealth};
use bgq_upc::{Counter, Upc};
use bytes::Bytes;
use parking_lot::Mutex;

use crate::descriptor::{Descriptor, RmwOp, RmwReply};
use crate::faults::FaultInjector;
use crate::fifo::RecFifoId;
use crate::packet::PacketPayload;

/// `ras.*` telemetry probes — the reliability layer's RAS event counters,
/// registered on the fabric's shared [`Upc`] so `pamistat` exports them
/// alongside `mu.*`. All no-ops with the `telemetry` feature off.
pub struct RasCounters {
    /// Frames that arrived with a failing CRC and were discarded.
    pub crc_errors: Counter,
    /// Frame retransmissions (every attempt beyond the first).
    pub retransmits: Counter,
    /// Directed links declared dead by kill schedules or
    /// [`crate::fabric::MuFabric::kill_link`] (both directions of a
    /// physical link count).
    pub link_down: Counter,
    /// Channels that switched to a non-deterministic route around dead
    /// links.
    pub reroutes: Counter,
    /// Transfers whose completion counters were failed with a
    /// [`DeliveryFault`] (retry budget exhausted or destination
    /// unreachable).
    pub delivery_failures: Counter,
    /// Retransmissions triggered by SACK information (a later frame's ack
    /// revealed an earlier frame missing) rather than an RTO expiry.
    pub sack_retransmits: Counter,
    /// Frames accepted out of order into a receiver reorder buffer
    /// (cumulative occupancy, the selective-repeat reorder pressure
    /// signal).
    pub reorder_depth: Counter,
}

impl RasCounters {
    pub(crate) fn new(upc: &Upc) -> Self {
        RasCounters {
            crc_errors: upc.counter("ras.crc_errors"),
            retransmits: upc.counter("ras.retransmits"),
            link_down: upc.counter("ras.link_down"),
            reroutes: upc.counter("ras.reroutes"),
            delivery_failures: upc.counter("ras.delivery_failures"),
            sack_retransmits: upc.counter("ras.sack_retransmits"),
            reorder_depth: upc.counter("ras.reorder_depth"),
        }
    }
}

/// What a [`RasEvent`] records.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RasEventKind {
    /// A frame was silently dropped by the fabric.
    PacketDropped,
    /// A frame arrived corrupted and was discarded.
    CrcError,
    /// A frame was retransmitted.
    Retransmit,
    /// A directed link went down (`detail` = link id).
    LinkDown,
    /// A channel rerouted around dead links (`detail` = new hop count).
    Reroute,
    /// A transfer failed permanently (`detail` = fault discriminant).
    DeliveryFailure,
    /// A directed link came back up after a service action (`detail` =
    /// link id).
    LinkRevived,
    /// A dead channel was administratively cleared so traffic (e.g. a
    /// persistent-channel renegotiation) can flow again (`detail` = the
    /// fault discriminant that had killed it).
    ChannelRevived,
    /// A frame was retransmitted because SACK information showed it
    /// missing, without waiting out its RTO (`detail` = frame sequence).
    SackRetransmit,
    /// An out-of-order arrival was refused because the receiver's reorder
    /// buffer hit its high-water mark (`detail` = frame sequence).
    ReorderEvict,
}

impl RasEventKind {
    /// Stable lower-case name (used by `pamistat` and the chaos bench).
    pub fn as_str(&self) -> &'static str {
        match self {
            RasEventKind::PacketDropped => "packet_dropped",
            RasEventKind::CrcError => "crc_error",
            RasEventKind::Retransmit => "retransmit",
            RasEventKind::LinkDown => "link_down",
            RasEventKind::Reroute => "reroute",
            RasEventKind::DeliveryFailure => "delivery_failure",
            RasEventKind::LinkRevived => "link_revived",
            RasEventKind::ChannelRevived => "channel_revived",
            RasEventKind::SackRetransmit => "sack_retransmit",
            RasEventKind::ReorderEvict => "reorder_evict",
        }
    }
}

/// One entry in the RAS event ring.
#[derive(Clone, Debug)]
pub struct RasEvent {
    /// Source-node link-pump tick when the event fired.
    pub tick: u64,
    /// What happened.
    pub kind: RasEventKind,
    /// Source node of the affected channel.
    pub src_node: u32,
    /// Destination node of the affected channel.
    pub dst_node: u32,
    /// Kind-specific detail (frame sequence, link id, hop count, …).
    pub detail: u64,
}

/// Bounded RAS event ring: newest events win, the drop count is kept so an
/// operator can tell the ring overflowed. The control plane (RAS) is off
/// the data path, so a mutex is fine here.
/// Observer invoked synchronously for every RAS event as it is recorded.
///
/// This is the RAS→policy feedback hook: `Machine` installs one that feeds
/// retransmit/delivery-failure deltas into the protocol policy so flaky
/// destinations shift toward counter-protected rendezvous. Observers run on
/// the control plane (record time, under no ring lock) and must be cheap
/// and non-reentrant into the link layer.
pub type RasObserver = Arc<dyn Fn(&RasEvent) + Send + Sync>;

pub struct RasRing {
    inner: Mutex<RingInner>,
    capacity: usize,
    observer: OnceLock<RasObserver>,
}

struct RingInner {
    events: VecDeque<RasEvent>,
    dropped: u64,
}

impl RasRing {
    pub(crate) fn new(capacity: usize) -> Self {
        RasRing {
            inner: Mutex::new(RingInner { events: VecDeque::new(), dropped: 0 }),
            capacity: capacity.max(1),
            observer: OnceLock::new(),
        }
    }

    /// Install the event observer. Set-once: later calls are ignored, so a
    /// machine's policy hook cannot be silently displaced.
    pub(crate) fn set_observer(&self, obs: RasObserver) {
        let _ = self.observer.set(obs);
    }

    /// Append an event, evicting the oldest past capacity.
    pub fn record(&self, ev: RasEvent) {
        if let Some(obs) = self.observer.get() {
            obs(&ev);
        }
        let mut g = self.inner.lock();
        if g.events.len() == self.capacity {
            g.events.pop_front();
            g.dropped += 1;
        }
        g.events.push_back(ev);
    }

    /// Copy out the ring (oldest first) and the overflow drop count.
    pub fn snapshot(&self) -> (Vec<RasEvent>, u64) {
        let g = self.inner.lock();
        (g.events.iter().cloned().collect(), g.dropped)
    }

    /// Events currently buffered.
    pub fn len(&self) -> usize {
        self.inner.lock().events.len()
    }

    /// Whether no event has been recorded (and none dropped).
    pub fn is_empty(&self) -> bool {
        let g = self.inner.lock();
        g.events.is_empty() && g.dropped == 0
    }
}

/// What delivering a frame does at the destination.
pub(crate) enum FrameBody {
    /// One memory-FIFO packet.
    Packet {
        rec_fifo: RecFifoId,
        src_context: u16,
        dispatch: u16,
        metadata: Bytes,
        msg_id: u64,
        msg_len: u32,
        offset: u32,
        /// Short-tier flag, carried so the delivered [`crate::packet::MuPacket`]
        /// keeps its tier under a fault plan.
        short: bool,
        payload: PacketPayload,
    },
    /// One ≤512-byte window of a direct put.
    Put {
        dst_region: MemRegion,
        dst_offset: usize,
        payload: PacketPayload,
        rec_counter: Option<HwCounter>,
    },
    /// A remote-get request carrying the payload descriptor the
    /// destination injects on our behalf.
    Get { desc: Box<Descriptor> },
    /// A remote atomic, applied at the destination on delivery; the prior
    /// value is written to the requester's reply slot. The channel's
    /// duplicate suppression makes a retransmitted rmw apply exactly once.
    Rmw {
        win_key: u64,
        dst_region: MemRegion,
        dst_offset: usize,
        op: RmwOp,
        operand: u64,
        compare: u64,
        reply: Option<RmwReply>,
    },
}

/// Transmission state of a queued frame (selective repeat tracks this per
/// frame, not just for the queue front).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum FrameState {
    /// Not yet transmitted at the current attempt.
    Queued,
    /// Transmitted and lost (dropped, corrupted, or refused by a full
    /// reorder buffer); waiting out the RTO that started at this tick.
    Lost { since: u64 },
    /// In flight but delayed; deliverable at this tick.
    Delayed { until: u64 },
    /// Data delivered in order at the receiver, but the cumulative ack was
    /// lost; an RTO-driven probe (the receiver discards the duplicate)
    /// re-elicits it, started at this tick.
    AckWait { since: u64 },
    /// Data sitting in the receiver's reorder buffer (selectively acked,
    /// out of order). No retransmit timer: the frame retires when the
    /// sequence gap ahead of it fills and a cumulative ack covers it.
    SackHeld,
}

/// One frame in a channel: a unit of link-level (re)transmission.
pub(crate) struct Frame {
    /// Channel-local sequence number (fate-hash input, receiver tracking).
    pub seq: u64,
    /// Transmission attempt, 0-based.
    pub attempt: u32,
    /// Where the frame is in the transmit state machine.
    pub state: FrameState,
    /// RTO-driven retransmissions consumed by this frame (counts against
    /// the retry budget; SACK-driven fast retransmits are free — they are
    /// evidence the path works).
    pub retries: u32,
    /// This frame's current retransmit timeout in ticks (per-frame
    /// exponential backoff).
    pub rto: u64,
    /// Bytes credited to `inj_counter` when the frame is acknowledged.
    pub credit: u64,
    /// Source-side completion counter share.
    pub inj_counter: Option<HwCounter>,
    /// The delivery action.
    pub body: FrameBody,
}

impl Frame {
    /// Fail every completion counter this frame carries (including the
    /// counters buried in a remote-get's payload descriptor) — called when
    /// the channel dies so pollers see completion-with-fault instead of a
    /// hang. Returns how many counters were newly failed.
    pub(crate) fn fail(&self, fault: DeliveryFault) -> u64 {
        let mut failed = 0;
        if let Some(c) = &self.inj_counter {
            failed += c.fail(fault) as u64;
        }
        failed + fail_body(&self.body, fault)
    }
}

/// Fail the destination-side counters a frame body carries.
pub(crate) fn fail_body(body: &FrameBody, fault: DeliveryFault) -> u64 {
    match body {
        FrameBody::Put { rec_counter: Some(c), .. } => c.fail(fault) as u64,
        FrameBody::Get { desc } => fail_descriptor(desc, fault),
        _ => 0,
    }
}

/// Recursively fail the counters a descriptor carries.
pub(crate) fn fail_descriptor(desc: &Descriptor, fault: DeliveryFault) -> u64 {
    let mut failed = 0;
    if let Some(c) = &desc.inj_counter {
        failed += c.fail(fault) as u64;
    }
    match &desc.kind {
        crate::descriptor::XferKind::DirectPut { rec_counter: Some(c), .. } => {
            failed += c.fail(fault) as u64;
        }
        crate::descriptor::XferKind::RemoteGet { payload } => {
            failed += fail_descriptor(payload, fault);
        }
        _ => {}
    }
    failed
}

/// A healthy route, precomputed into exactly what the per-frame hot path
/// needs: forward hops with their link ids resolved (for kill schedules
/// and fate dice) and the reverse-route link ids (for ack dice under
/// selective repeat). Built once per route computation so crossing a
/// frame does no coordinate arithmetic and no allocation — the cached
/// copy is shared out of [`TxState`] by refcount.
pub(crate) struct RoutePlan {
    /// Forward per-hop state: (link id, coords of the hop's tail, dir).
    pub hops: Vec<(crate::faults::LinkId, Coords, Dir)>,
    /// Reverse-route link ids, destination back to source, in ack
    /// crossing order.
    pub rev_lids: Vec<crate::faults::LinkId>,
    /// Per-link dice salts ([`crate::faults::FaultInjector::link_salt`])
    /// for the forward hops, in `hops` order — the fate peek combines
    /// each with the packet's seq salt in one finalizer.
    pub fwd_salts: Vec<u64>,
    /// Dice salts for `rev_lids`, in the same order.
    pub rev_salts: Vec<u64>,
}

/// Mutable transmit half of a channel, guarded by the channel mutex.
pub(crate) struct TxState {
    /// Frames awaiting transmission/ack, in sequence order. Selective
    /// repeat works up to a window of them per pump visit.
    pub queue: VecDeque<Frame>,
    /// Cached healthy route; `None` = recompute before next transmission.
    pub route: Option<Arc<RoutePlan>>,
    /// [`LinkHealth::epoch`] the cached route was computed at; a newer
    /// epoch invalidates the cache.
    pub route_epoch: usize,
    /// Set when the channel failed permanently; new frames fail on push.
    pub dead: Option<DeliveryFault>,
}

/// What the receiver said about one arriving data frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum RxVerdict {
    /// In-order: deposit now (the pump then drains consecutive
    /// [`FrameState::SackHeld`] successors).
    Deliver,
    /// Out of order: entered the reorder buffer, selectively acked.
    Sacked,
    /// Duplicate of a frame already in the reorder buffer; re-acked.
    DupSacked,
    /// Duplicate of an already-delivered frame; discarded and the
    /// cumulative ack re-sent.
    Duplicate,
    /// Reorder buffer at its high-water mark (or the frame is too far
    /// ahead of the window): refused, drop-newest.
    Refused,
}

/// Receive half of a channel: the selective-repeat reorder tracking for
/// the (src, dst) flow. Bounded memory: only sequence numbers are held —
/// the frame bodies stay in the sender's queue ([`FrameState::SackHeld`])
/// until the gap fills. Locked after `tx`, never before.
pub(crate) struct RxState {
    /// Next in-order sequence the receiver will deposit.
    pub next_expected: u64,
    /// Out-of-order sequences currently held in the reorder buffer.
    pub buffer: std::collections::HashSet<u64>,
    /// Reorder-buffer high-water mark in frames.
    pub capacity: usize,
}

impl RxState {
    /// Classify one arriving data frame. `Deliver` advances
    /// `next_expected`; the caller deposits the body and then drains
    /// consecutive buffered successors with [`RxState::drain_next`].
    pub(crate) fn accept(&mut self, seq: u64) -> RxVerdict {
        let rel = seq.wrapping_sub(self.next_expected);
        if rel >= 1 << 63 {
            return RxVerdict::Duplicate;
        }
        if rel == 0 {
            // A frame that was sacked earlier (but whose selective ack was
            // lost) can be retransmitted and arrive in order; drop the now
            // stale buffer entry so it doesn't pin capacity.
            self.buffer.remove(&seq);
            self.next_expected = self.next_expected.wrapping_add(1);
            return RxVerdict::Deliver;
        }
        if self.buffer.contains(&seq) {
            return RxVerdict::DupSacked;
        }
        if rel as usize > self.capacity || self.buffer.len() >= self.capacity {
            return RxVerdict::Refused;
        }
        self.buffer.insert(seq);
        RxVerdict::Sacked
    }

    /// Release `seq` from the reorder buffer if it is the next in-order
    /// sequence; returns whether the caller should deposit its body.
    pub(crate) fn drain_next(&mut self, seq: u64) -> bool {
        if seq == self.next_expected && self.buffer.remove(&seq) {
            self.next_expected = self.next_expected.wrapping_add(1);
            return true;
        }
        false
    }

    /// Fast-forward past sequences the fair-weather path delivered without
    /// touching this state: the oldest unacked queued frame is the oldest
    /// sequence the receiver could still be missing.
    pub(crate) fn sync_to(&mut self, oldest_unacked: u64) {
        let rel = oldest_unacked.wrapping_sub(self.next_expected);
        if rel > 0 && rel < 1 << 63 {
            self.next_expected = oldest_unacked;
            let ne = self.next_expected;
            self.buffer.retain(|&s| s.wrapping_sub(ne) < 1 << 63);
        }
    }
}

/// A reliable link-level channel for one (source node, destination node)
/// pair — the analogue of the BG/Q send unit's per-link retransmission
/// FIFO, lifted to route granularity.
pub(crate) struct Channel {
    pub src: u32,
    pub dst: u32,
    /// Next frame sequence number to assign. Atomic (not under `tx`) so
    /// the fair-weather path can stamp sequence numbers without taking
    /// the channel lock; queued (slow-path) assignment happens under the
    /// lock and therefore stays in queue order.
    pub next_seq: AtomicU64,
    /// Lock-free mirror of [`TxState::dead`] (the authoritative flag,
    /// written under the lock). Lets the fast path skip dead channels
    /// without acquiring the mutex; a racing kill at worst lets one
    /// in-flight frame deliver, which is indistinguishable from the frame
    /// having crossed just before the kill.
    dead_hint: std::sync::atomic::AtomicBool,
    /// Lock-free mirror of "the queue is non-empty". The fair-weather
    /// fast path checks it so synchronous sends never overtake frames
    /// still queued from a fault episode — one relaxed load when clean.
    backlog_hint: std::sync::atomic::AtomicBool,
    /// The deterministic route in hot-path form, built lazily once per
    /// channel. Valid whenever every link is up (then it is exactly the
    /// route `ensure_route` would cache); read lock-free by the
    /// fate-peeked cut-through so the send path under a hostile plan
    /// never takes the channel mutex for a passing message.
    pub(crate) fair_plan: std::sync::OnceLock<Arc<RoutePlan>>,
    pub tx: Mutex<TxState>,
    /// Receiver-side reorder tracking. Lock order: `tx` before `rx`,
    /// always.
    pub rx: Mutex<RxState>,
}

impl Channel {
    fn new(src: u32, dst: u32, reorder_capacity: usize) -> Self {
        Channel {
            src,
            dst,
            next_seq: AtomicU64::new(0),
            dead_hint: std::sync::atomic::AtomicBool::new(false),
            backlog_hint: std::sync::atomic::AtomicBool::new(false),
            fair_plan: std::sync::OnceLock::new(),
            tx: Mutex::new(TxState {
                queue: VecDeque::new(),
                route: None,
                route_epoch: 0,
                dead: None,
            }),
            rx: Mutex::new(RxState {
                next_expected: 0,
                buffer: std::collections::HashSet::new(),
                capacity: reorder_capacity.max(1),
            }),
        }
    }

    /// Lock-free liveness probe (see `dead_hint`).
    pub(crate) fn seems_alive(&self) -> bool {
        !self.dead_hint.load(Ordering::Acquire)
    }

    /// Lock-free backlog probe (see `backlog_hint`).
    pub(crate) fn has_backlog(&self) -> bool {
        self.backlog_hint.load(Ordering::Relaxed)
    }

    /// Publish whether the transmit queue is non-empty; called with the
    /// `tx` lock held whenever the emptiness changes.
    pub(crate) fn publish_backlog(&self, on: bool) {
        self.backlog_hint.store(on, Ordering::Release);
    }

    /// Publish the lock-free dead hint; called with the lock held, right
    /// after [`TxState::dead`] is set.
    pub(crate) fn publish_dead(&self) {
        self.dead_hint.store(true, Ordering::Release);
    }

    /// Clear the dead hint; called with the lock held, right after
    /// [`TxState::dead`] is cleared by a channel revive.
    pub(crate) fn publish_alive(&self) {
        self.dead_hint.store(false, Ordering::Release);
    }
}

/// Machines up to this many nodes use the dense one-level channel table
/// (n² `OnceLock<Channel>` slots ≈ a few MB at the threshold); larger
/// machines fall back to lazily-allocated per-source rows so an idle
/// source costs one pointer.
const FLAT_CHANNEL_TABLE_MAX_NODES: usize = 128;

/// Storage for the per-(src, dst) channels.
///
/// The fair-weather send path looks a channel up once per descriptor, so
/// the lookup cost is on the message-rate critical path under a fault
/// plan. The dense [`ChannelTable::Flat`] form resolves it with a single
/// index + one lock-free `OnceLock` read — no chained row lookup, no
/// hashing, no refcount traffic.
enum ChannelTable {
    /// One `src * n + dst`-indexed slab (small machines — the common bench
    /// and test shape).
    Flat(Box<[OnceLock<Channel>]>),
    /// Per-source rows allocated on first use (large machines, where a
    /// dense n² slab would waste memory on never-used pairs).
    Rows(Vec<OnceLock<Box<[OnceLock<Channel>]>>>),
}

/// Everything the reliability layer owns, hung off the fabric when a fault
/// plan is installed.
pub(crate) struct Reliability {
    /// Compiled fault plan.
    pub injector: FaultInjector,
    /// Which links are alive (shared with the torus router).
    pub health: LinkHealth,
    /// `ras.*` probes (shared with the fabric's registry).
    pub ras: Arc<RasCounters>,
    /// RAS event ring.
    pub ring: Arc<RasRing>,
    /// `true` when the plan injects nothing — the channel pump takes a
    /// straight-through path (still counting frames, so the fault-free
    /// protocol overhead is real and measurable).
    pub clean: bool,
    /// The (src, dst) channel table; see [`ChannelTable`].
    channels: ChannelTable,
    /// Number of nodes (row width).
    num_nodes: usize,
    /// Per-source-node link-pump tick.
    ticks: Vec<AtomicU64>,
    /// Per-source-node count of frames queued across its channels (lock
    /// free idle check for `advance`).
    pending: Vec<AtomicUsize>,
}

impl Reliability {
    pub(crate) fn new(
        injector: FaultInjector,
        health: LinkHealth,
        ras: Arc<RasCounters>,
        ring: Arc<RasRing>,
        num_nodes: usize,
    ) -> Self {
        let clean = injector.plan().is_clean();
        let channels = if num_nodes <= FLAT_CHANNEL_TABLE_MAX_NODES {
            ChannelTable::Flat((0..num_nodes * num_nodes).map(|_| OnceLock::new()).collect())
        } else {
            ChannelTable::Rows((0..num_nodes).map(|_| OnceLock::new()).collect())
        };
        Reliability {
            injector,
            health,
            ras,
            ring,
            clean,
            channels,
            num_nodes,
            ticks: (0..num_nodes).map(|_| AtomicU64::new(0)).collect(),
            pending: (0..num_nodes).map(|_| AtomicUsize::new(0)).collect(),
        }
    }

    /// The channel from `src` to `dst`, created on first use. On the dense
    /// table this is one index plus one lock-free `OnceLock` read.
    pub(crate) fn channel(&self, src: u32, dst: u32) -> &Channel {
        let cap = self.injector.reorder_capacity();
        match &self.channels {
            ChannelTable::Flat(slab) => slab[src as usize * self.num_nodes + dst as usize]
                .get_or_init(|| Channel::new(src, dst, cap)),
            ChannelTable::Rows(rows) => {
                let row = rows[src as usize]
                    .get_or_init(|| (0..self.num_nodes).map(|_| OnceLock::new()).collect());
                row[dst as usize].get_or_init(|| Channel::new(src, dst, cap))
            }
        }
    }

    /// All channels sourced at `node` (pump order: destination index).
    pub(crate) fn channels_of(&self, node: u32) -> impl Iterator<Item = &Channel> {
        let flat = match &self.channels {
            ChannelTable::Flat(slab) => {
                let start = node as usize * self.num_nodes;
                Some(slab[start..start + self.num_nodes].iter().filter_map(OnceLock::get))
            }
            ChannelTable::Rows(_) => None,
        };
        let rows = match &self.channels {
            ChannelTable::Rows(rows) => Some(
                rows[node as usize]
                    .get()
                    .into_iter()
                    .flat_map(|row| row.iter().filter_map(OnceLock::get)),
            ),
            ChannelTable::Flat(_) => None,
        };
        flat.into_iter().flatten().chain(rows.into_iter().flatten())
    }

    /// Advance and read `node`'s link-pump tick.
    pub(crate) fn bump_tick(&self, node: u32) -> u64 {
        self.ticks[node as usize].fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Current tick without advancing.
    pub(crate) fn tick(&self, node: u32) -> u64 {
        self.ticks[node as usize].load(Ordering::Relaxed)
    }

    /// Frame-queued accounting.
    pub(crate) fn add_pending(&self, node: u32, n: usize) {
        self.pending[node as usize].fetch_add(n, Ordering::Release);
    }

    /// Frame-retired accounting.
    pub(crate) fn sub_pending(&self, node: u32, n: usize) {
        self.pending[node as usize].fetch_sub(n, Ordering::Release);
    }

    /// Whether `node` has no frames awaiting transmission or retry.
    pub(crate) fn idle(&self, node: u32) -> bool {
        self.pending[node as usize].load(Ordering::Acquire) == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ras_ring_caps_and_counts_drops() {
        let ring = RasRing::new(3);
        assert!(ring.is_empty());
        for i in 0..5 {
            ring.record(RasEvent {
                tick: i,
                kind: RasEventKind::Retransmit,
                src_node: 0,
                dst_node: 1,
                detail: i,
            });
        }
        let (events, dropped) = ring.snapshot();
        assert_eq!(events.len(), 3);
        assert_eq!(dropped, 2);
        assert_eq!(events[0].detail, 2, "oldest surviving event");
        assert_eq!(events[2].detail, 4, "newest event");
        assert_eq!(ring.len(), 3);
        assert!(!ring.is_empty());
    }

    #[test]
    fn event_kind_names_are_stable() {
        assert_eq!(RasEventKind::CrcError.as_str(), "crc_error");
        assert_eq!(RasEventKind::LinkDown.as_str(), "link_down");
        assert_eq!(RasEventKind::Reroute.as_str(), "reroute");
        assert_eq!(RasEventKind::Retransmit.as_str(), "retransmit");
        assert_eq!(RasEventKind::PacketDropped.as_str(), "packet_dropped");
        assert_eq!(RasEventKind::DeliveryFailure.as_str(), "delivery_failure");
        assert_eq!(RasEventKind::SackRetransmit.as_str(), "sack_retransmit");
        assert_eq!(RasEventKind::ReorderEvict.as_str(), "reorder_evict");
    }

    fn rx(next_expected: u64, capacity: usize) -> RxState {
        RxState { next_expected, buffer: std::collections::HashSet::new(), capacity }
    }

    #[test]
    fn rx_accepts_in_order_and_buffers_gaps() {
        let mut r = rx(0, 4);
        assert_eq!(r.accept(0), RxVerdict::Deliver);
        assert_eq!(r.next_expected, 1);
        // Gap: 2 and 3 buffered out of order, selectively acked.
        assert_eq!(r.accept(2), RxVerdict::Sacked);
        assert_eq!(r.accept(3), RxVerdict::Sacked);
        assert_eq!(r.accept(2), RxVerdict::DupSacked, "re-arrival of a held frame");
        // Gap fills: 1 delivers, then the drain releases 2 and 3 in order.
        assert_eq!(r.accept(1), RxVerdict::Deliver);
        assert!(r.drain_next(2));
        assert!(r.drain_next(3));
        assert!(!r.drain_next(4), "nothing buffered at 4");
        assert_eq!(r.next_expected, 4);
        assert!(r.buffer.is_empty());
    }

    #[test]
    fn rx_discards_duplicates_of_delivered_frames() {
        let mut r = rx(0, 4);
        assert_eq!(r.accept(0), RxVerdict::Deliver);
        assert_eq!(r.accept(0), RxVerdict::Duplicate, "retransmit probe after lost ack");
        assert_eq!(r.next_expected, 1, "duplicates do not advance the cursor");
    }

    #[test]
    fn rx_refuses_past_high_water_mark() {
        let mut r = rx(0, 2);
        assert_eq!(r.accept(1), RxVerdict::Sacked);
        assert_eq!(r.accept(2), RxVerdict::Sacked);
        assert_eq!(r.accept(3), RxVerdict::Refused, "buffer full: drop-newest");
        assert_eq!(r.accept(100), RxVerdict::Refused, "far beyond the window");
        assert_eq!(r.buffer.len(), 2);
    }

    #[test]
    fn rx_sequences_wrap_around_u64() {
        let near_max = u64::MAX - 1;
        let mut r = rx(near_max, 4);
        assert_eq!(r.accept(near_max), RxVerdict::Deliver);
        assert_eq!(r.accept(0), RxVerdict::Sacked, "post-wrap seq buffers across the wrap");
        assert_eq!(r.accept(u64::MAX), RxVerdict::Deliver);
        assert!(r.drain_next(0), "drain follows the wrap");
        assert_eq!(r.next_expected, 1);
        assert_eq!(r.accept(u64::MAX), RxVerdict::Duplicate, "pre-wrap seq is behind");
    }

    #[test]
    fn rx_sync_fast_forwards_and_prunes() {
        let mut r = rx(0, 8);
        assert_eq!(r.accept(2), RxVerdict::Sacked);
        r.sync_to(5);
        assert_eq!(r.next_expected, 5);
        assert!(r.buffer.is_empty(), "stale held seq pruned");
        r.sync_to(3);
        assert_eq!(r.next_expected, 5, "sync never moves backwards");
    }

    #[test]
    fn frame_fail_fails_nested_counters() {
        use crate::descriptor::{PayloadSource, XferKind};
        let inj = HwCounter::new();
        let rec = HwCounter::new();
        inj.add_expected(8);
        rec.add_expected(8);
        let frame = Frame {
            seq: 0,
            attempt: 0,
            state: FrameState::Queued,
            retries: 0,
            rto: 4,
            credit: 8,
            inj_counter: Some(inj.clone()),
            body: FrameBody::Get {
                desc: Box::new(Descriptor {
                    dst_node: 0,
                    dst_context: 0,
                    src_context: 0,
                    routing: bgq_torus::Routing::Dynamic,
                    payload: PayloadSource::Immediate(Bytes::new()),
                    kind: XferKind::DirectPut {
                        dst_region: MemRegion::zeroed(8),
                        dst_offset: 0,
                        rec_counter: Some(rec.clone()),
                    },
                    inj_counter: None,
                }),
            },
        };
        assert_eq!(frame.fail(DeliveryFault::Timeout), 2);
        assert_eq!(inj.fault(), Some(DeliveryFault::Timeout));
        assert_eq!(rec.fault(), Some(DeliveryFault::Timeout));
        assert!(inj.is_complete() && rec.is_complete());
        // Idempotent: already-failed counters don't double count.
        assert_eq!(frame.fail(DeliveryFault::Aborted), 0);
    }

    #[test]
    fn channel_table_rows_fallback_above_flat_threshold() {
        use crate::faults::FaultPlan;
        use bgq_torus::TorusShape;
        let n = (FLAT_CHANNEL_TABLE_MAX_NODES + 8) as u32;
        let shape = TorusShape::new([n as u16, 1, 1, 1, 1]);
        let upc = Upc::new();
        let r = Reliability::new(
            FaultInjector::new(FaultPlan::new(), shape),
            LinkHealth::new(shape),
            Arc::new(RasCounters::new(&upc)),
            Arc::new(RasRing::new(16)),
            n as usize,
        );
        assert!(matches!(r.channels, ChannelTable::Rows(_)));
        let a = r.channel(3, n - 1);
        let b = r.channel(3, n - 1);
        assert!(std::ptr::eq(a, b), "channel is created once");
        assert_eq!(r.channels_of(3).count(), 1);
        assert_eq!(r.channels_of(4).count(), 0);
    }

    #[test]
    fn reliability_pending_accounting() {
        use crate::faults::FaultPlan;
        use bgq_torus::TorusShape;
        let shape = TorusShape::new([2, 1, 1, 1, 1]);
        let upc = Upc::new();
        let r = Reliability::new(
            FaultInjector::new(FaultPlan::new(), shape),
            LinkHealth::new(shape),
            Arc::new(RasCounters::new(&upc)),
            Arc::new(RasRing::new(16)),
            2,
        );
        assert!(r.idle(0));
        r.add_pending(0, 3);
        assert!(!r.idle(0));
        assert!(r.idle(1), "per-node accounting");
        r.sub_pending(0, 3);
        assert!(r.idle(0));
        let a = r.channel(0, 1);
        let b = r.channel(0, 1);
        assert!(std::ptr::eq(a, b), "channel is created once");
        assert_eq!(r.channels_of(0).count(), 1);
        assert_eq!(r.channels_of(1).count(), 0);
        assert_eq!(r.bump_tick(0), 1);
        assert_eq!(r.bump_tick(0), 2);
        assert_eq!(r.tick(0), 2);
        assert_eq!(r.tick(1), 0);
    }
}
