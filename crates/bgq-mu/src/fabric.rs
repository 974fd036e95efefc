//! The MU fabric: every node's MU plus packet delivery between them.
//!
//! A [`MuFabric`] owns one simulated MU per node. Software (a PAMI context)
//! allocates exclusive FIFOs, injects [`Descriptor`]s, and pumps progress;
//! the fabric executes descriptors — fragmenting payload into ≤512-byte
//! packets for memory-FIFO traffic, copying directly into destination
//! regions for puts, and bouncing remote-gets to the destination's system
//! FIFO. Without a fault plan, delivery is immediate and reliable (the
//! torus is lossless); *who* executes a descriptor and in what order is
//! exactly what the engine modes control, because that is what the paper's
//! concurrency story is about.
//!
//! With a [`FaultPlan`] installed ([`MuFabricBuilder::fault_plan`]), inter-
//! node traffic rides per-(src, dst) reliable channels (see
//! [`crate::link`]), as link-level frames whenever it cannot be delivered
//! synchronously: the fault injector drops,
//! corrupts, delays, or kills links; lost frames retransmit with
//! exponential backoff under [`MuFabric::pump_links`]; killed links force
//! torus reroutes; and exhausted retry budgets fail completion counters
//! with a typed [`bgq_hw::DeliveryFault`] instead of hanging pollers.
//!
//! Every memory-FIFO message — a queued or immediate descriptor, or a
//! short-tier envelope — takes one path: a *fate oracle* decides whether it
//! can deliver synchronously right now (lossless fabric, fair weather on a
//! clean plan, or a peek at a uniform lossy plan's dice) or must go to the
//! reliable channel's frame queue, and everything it passes lands in one
//! synchronous deposit. Every packet carries a link sequence number and a
//! CRC-32C stamp — the measurable cost of integrity checking — except a
//! short-tier envelope on the lossless fabric, where nothing can touch it.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use bgq_hw::{DeliveryFault, WakeupRegion, WakeupUnit};
use bgq_torus::packet::MAX_PAYLOAD_BYTES;
use bgq_torus::{healthy_route, Coords, Dir, LinkHealth, TorusShape};
use bgq_upc::{Counter, Upc};

use crate::comb::{CombCounters, CombState, RmwLocks};
use crate::descriptor::{Descriptor, PayloadSource, RmwOp, XferKind};
use crate::engine::{self, EngineMode};
use crate::faults::{link_id, Fate, FaultInjector, FaultPlan};
use crate::fifo::{
    FifoAllocator, FifoTable, InjFifo, InjFifoId, MsgIdLane, RecFifo, RecFifoId,
    INJ_FIFOS_PER_NODE, REC_FIFOS_PER_NODE,
};
use crate::link::{
    fail_body, Channel, Frame, FrameBody, FrameState, RasCounters, RasEvent, RasEventKind, RasRing,
    Reliability, RoutePlan, RxVerdict, TxState,
};

/// How a selective-repeat arrival leaves the sender's scan: move to the
/// next frame, restart from the (new) queue front after a cumulative ack
/// retired a prefix, or rescan because a SACK re-queued earlier frames for
/// immediate retransmission.
enum Arrival {
    Advance,
    Restart,
    FastRetransmit,
}

/// What the fate oracle ([`MuFabric::oracle`]) decided for one memory-FIFO
/// message.
enum Verdict<'a> {
    /// Deliver synchronously now, under link sequence numbers from `base`.
    Pass {
        base: u64,
        /// No reliable channel carries the message: the lossless fabric,
        /// or a self-send.
        lossless: bool,
        /// The dice were peeked, so the acks crossed the reverse route and
        /// are charged to the transport seam.
        peeked: bool,
    },
    /// Hand the message to the frame queue on `ch`, under sequence numbers
    /// from `base` when the oracle already drew them.
    Queue { rel: &'a Reliability, ch: &'a Channel, base: Option<u64> },
}

/// Byte window `(offset, length)` of packet `i` of a `len`-byte message.
#[inline]
fn packet_window(len: usize, i: u64) -> (usize, usize) {
    let off = i as usize * MAX_PAYLOAD_BYTES;
    (off, (len - off).min(MAX_PAYLOAD_BYTES))
}

/// The payload of one packet (or frame) covering `[off, off + chunk)` of a
/// message: a slice of an immediate payload, a staged copy of a region
/// window when `stage` (the modeled DMA read, counted by the caller), or a
/// zero-copy window into the source region.
fn packet_payload(payload: &PayloadSource, off: usize, chunk: usize, stage: bool) -> PacketPayload {
    match payload {
        PayloadSource::Immediate(data) => PacketPayload::Inline(data.slice(off..off + chunk)),
        PayloadSource::Region { region, offset, .. } if stage => {
            let mut staged = vec![0u8; chunk];
            region.read(offset + off, &mut staged);
            PacketPayload::Inline(bytes::Bytes::from(staged))
        }
        PayloadSource::Region { region, offset, .. } => {
            PacketPayload::Region { region: region.clone(), offset: offset + off, len: chunk }
        }
    }
}
use crate::packet::{MuPacket, PacketPayload};
use crate::transport::Transport;

// Message ids are minted by per-lane [`MsgIdLane`]s: `node << 40 | lane <<
// 30 | seq`, where the lane is the injection FIFO the message went through
// (or a reserved software lane — see [`crate::fifo::SYS_LANE`] /
// [`crate::fifo::NODE_LANE`]). Each lane owns its sequence counter, so the
// send hot path never touches a shared per-node atomic and ids from
// different lanes can never collide.

/// Sampling period of the per-message `mu.fifo_messages` /
/// `mu.packets_injected` / `mu.packets_received` probe updates on the
/// synchronous delivery path: one message in every
/// `MU_PACKET_COUNTER_SAMPLE` (deterministically, by the low bits of its
/// lane-local sequence number) accounts for the whole sample window, so the
/// counters stay rate-exact while the hot path pays the probe cost only
/// once per window. `mu.packets_dropped` and `mu.payload_copies` stay
/// per-event exact — drops are rare and copies are a correctness assertion
/// in tests. Must be a power of two.
pub const MU_PACKET_COUNTER_SAMPLE: u64 = 16;

/// Deterministic sample gate: lane-local message sequence numbers increment
/// by one, so masking the low bits of the message id hits exactly one
/// message per [`MU_PACKET_COUNTER_SAMPLE`] window on every lane.
#[inline]
fn counter_sample_hit(msg_id: u64) -> bool {
    msg_id & (MU_PACKET_COUNTER_SAMPLE - 1) == 0
}

/// Per-node MU telemetry probes (`mu.*` layer), registered on the fabric's
/// [`Upc`] registry. These replaced the old bespoke `NodeStats` snapshot
/// struct: each field is a live `bgq-upc` counter handle — read one with
/// `.value()`, or aggregate all nodes through `Upc::snapshot()`. With the
/// `telemetry` feature off every field is a zero-sized no-op.
pub struct MuCounters {
    /// Memory-FIFO messages sent from this node.
    pub fifo_messages: Counter,
    /// Memory-FIFO packets created at injection on this node.
    pub packets_injected: Counter,
    /// Memory-FIFO packets delivered *to* this node.
    pub packets_received: Counter,
    /// Packets (frames) dropped in the fabric. Zero on a lossless run;
    /// incremented by the fault injector's `Drop` fate under a
    /// [`FaultPlan`] — the first thing to check on real MU hardware, and
    /// now the first thing to check in a chaos run.
    pub packets_dropped: Counter,
    /// Direct-put bytes written into this node's memory.
    pub put_bytes_in: Counter,
    /// Remote-get requests serviced by this node.
    pub remote_gets_serviced: Counter,
    /// Descriptors executed by this node's engines.
    pub descriptors_executed: Counter,
    /// Payload copies performed on this node: receive-side deposits out of
    /// the reception FIFO, plus source-side per-packet DMA staging when an
    /// injection counter demands it. The zero-copy eager path does exactly
    /// one per packet.
    pub payload_copies: Counter,
}

impl MuCounters {
    fn new(upc: &Upc) -> Self {
        MuCounters {
            fifo_messages: upc.counter("mu.fifo_messages"),
            packets_injected: upc.counter("mu.packets_injected"),
            packets_received: upc.counter("mu.packets_received"),
            packets_dropped: upc.counter("mu.packets_dropped"),
            put_bytes_in: upc.counter("mu.put_bytes_in"),
            remote_gets_serviced: upc.counter("mu.remote_gets_serviced"),
            descriptors_executed: upc.counter("mu.descriptors_executed"),
            payload_copies: upc.counter("mu.payload_copies"),
        }
    }
}

pub(crate) struct NodeMu {
    /// Lock-free FIFO tables sized to the hardware limits (544/272):
    /// delivery, polling, and handle lookup are plain atomic loads.
    pub inj: FifoTable<InjFifo>,
    pub rec: FifoTable<RecFifo>,
    pub allocator: FifoAllocator,
    /// System injection FIFO: remote-get payload descriptors land here for
    /// this node to execute.
    pub sys_inj: Arc<InjFifo>,
    pub sys_wakeup: OnceLock<WakeupRegion>,
    /// Wakes this node's engine threads (threaded mode).
    pub engine_wakeup: WakeupRegion,
    /// Fallback message-id lane ([`crate::fifo::NODE_LANE`]) for
    /// messages sent without an injection FIFO ([`MuFabric::execute`],
    /// FIFO-less short sends). FIFO-routed messages mint from their own
    /// FIFO's lane instead.
    pub msg_lane: MsgIdLane,
    /// Fallback link sequence counter for the same FIFO-less sends —
    /// FIFO-routed lossless packets stamp from their FIFO's counter, and
    /// reliable channels stamp their own under a fault plan.
    pub link_seq: AtomicU64,
    /// `mu.*` telemetry probes for this node.
    pub counters: MuCounters,
}

pub(crate) struct FabricInner {
    pub shape: TorusShape,
    pub nodes: Vec<NodeMu>,
    pub inj_fifo_capacity: usize,
    pub rec_fifo_capacity: usize,
    pub mode: EngineMode,
    pub shutdown: Arc<AtomicBool>,
    /// `ras.*` probes — registered even without a fault plan so the report
    /// schema is stable (they just stay zero).
    pub ras: Arc<RasCounters>,
    /// RAS event ring.
    pub ring: Arc<RasRing>,
    /// The reliability layer; present iff a fault plan was installed.
    pub reliability: Option<Reliability>,
    /// The packet transport seam ([`crate::transport`]): `None` keeps the
    /// synchronous deposit path (one branch of overhead); `Some` routes
    /// every reception-FIFO deposit through the installed transport (the
    /// co-simulation's DES-scheduled delivery).
    pub transport: Option<Arc<dyn Transport>>,
    /// Striped per-(window, offset) locks making rmw descriptors atomic.
    pub rmw_locks: RmwLocks,
    /// In-network combining overlay for hot-key fetch-adds; present iff
    /// [`MuFabricBuilder::combining`] enabled it.
    pub comb: Option<CombState>,
}

/// Configures and builds a [`MuFabric`].
pub struct MuFabricBuilder {
    shape: TorusShape,
    inj_fifo_capacity: usize,
    rec_fifo_capacity: usize,
    mode: EngineMode,
    telemetry: Upc,
    fault_plan: Option<FaultPlan>,
    ras_ring_capacity: usize,
    transport: Option<Arc<dyn Transport>>,
    combining: bool,
}

impl MuFabricBuilder {
    /// Ring capacity of each injection FIFO before overflow (default 128).
    pub fn inj_fifo_capacity(mut self, cap: usize) -> Self {
        self.inj_fifo_capacity = cap;
        self
    }

    /// Ring capacity of each reception FIFO before overflow (default 512).
    pub fn rec_fifo_capacity(mut self, cap: usize) -> Self {
        self.rec_fifo_capacity = cap;
        self
    }

    /// Select who pumps injection FIFOs (default [`EngineMode::Inline`]).
    pub fn engine_mode(mut self, mode: EngineMode) -> Self {
        self.mode = mode;
        self
    }

    /// Register the fabric's `mu.*` probes on a shared telemetry registry
    /// (PAMI's `Machine` passes its own so one snapshot covers every
    /// layer). Defaults to a private registry.
    pub fn telemetry(mut self, upc: Upc) -> Self {
        self.telemetry = upc;
        self
    }

    /// Install a fault plan: inter-node traffic moves through reliable
    /// link-level channels and the plan's drops/corruption/kills apply.
    /// Panics on an invalid plan ([`FaultPlan::validate`]) — builder
    /// misuse, not a runtime condition.
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Capacity of the RAS event ring (default 1024; oldest events drop).
    pub fn ras_ring_capacity(mut self, cap: usize) -> Self {
        self.ras_ring_capacity = cap;
        self
    }

    /// Install a packet transport ([`crate::transport::Transport`]): every
    /// reception-FIFO deposit is handed to it instead of being performed
    /// synchronously. The co-simulation harness installs a DES-scheduled
    /// transport here; without one the fabric behaves exactly as before.
    pub fn transport(mut self, transport: Arc<dyn Transport>) -> Self {
        self.transport = Some(transport);
        self
    }

    /// Enable the in-network combining overlay (default off): fetch-add
    /// descriptors to the same (window, offset) coalesce at every torus
    /// hop on the way to the root, which applies the combined addend once
    /// and decombines the priors by prefix sum. See [`crate::comb`].
    pub fn combining(mut self, on: bool) -> Self {
        self.combining = on;
        self
    }

    /// Build the fabric (and spawn engine threads in threaded mode).
    pub fn build(self) -> MuFabric {
        let wakeups = WakeupUnit::new();
        let nodes: Vec<NodeMu> = (0..self.shape.num_nodes())
            .map(|node| NodeMu {
                inj: FifoTable::new(INJ_FIFOS_PER_NODE),
                rec: FifoTable::new(REC_FIFOS_PER_NODE),
                allocator: FifoAllocator::default(),
                sys_inj: Arc::new(InjFifo::new(
                    self.inj_fifo_capacity,
                    node as u32,
                    crate::fifo::SYS_LANE,
                )),
                sys_wakeup: OnceLock::new(),
                engine_wakeup: wakeups.region(),
                msg_lane: MsgIdLane::new(node as u32, crate::fifo::NODE_LANE),
                link_seq: AtomicU64::new(0),
                counters: MuCounters::new(&self.telemetry),
            })
            .collect();
        let ras = Arc::new(RasCounters::new(&self.telemetry));
        let ring = Arc::new(RasRing::new(self.ras_ring_capacity));
        let reliability = self.fault_plan.map(|plan| {
            plan.validate().expect("invalid fault plan");
            Reliability::new(
                FaultInjector::new(plan, self.shape),
                LinkHealth::new(self.shape),
                Arc::clone(&ras),
                Arc::clone(&ring),
                nodes.len(),
            )
        });
        let comb = self.combining.then(|| CombState::new(self.shape, &self.telemetry));
        let inner = Arc::new(FabricInner {
            shape: self.shape,
            nodes,
            inj_fifo_capacity: self.inj_fifo_capacity,
            rec_fifo_capacity: self.rec_fifo_capacity,
            mode: self.mode,
            shutdown: Arc::new(AtomicBool::new(false)),
            ras,
            ring,
            reliability,
            transport: self.transport,
            rmw_locks: RmwLocks::new(),
            comb,
        });
        let fabric = MuFabric { inner };
        if let EngineMode::Threaded(n) = self.mode {
            engine::spawn_engines(&fabric, n);
        }
        fabric
    }
}

/// Handle to the MU fabric; clones share the fabric.
#[derive(Clone)]
pub struct MuFabric {
    pub(crate) inner: Arc<FabricInner>,
}

impl MuFabric {
    /// Start building a fabric over `shape`.
    pub fn builder(shape: TorusShape) -> MuFabricBuilder {
        MuFabricBuilder {
            shape,
            inj_fifo_capacity: 128,
            rec_fifo_capacity: 512,
            mode: EngineMode::Inline,
            telemetry: Upc::new(),
            fault_plan: None,
            ras_ring_capacity: 1024,
            transport: None,
            combining: false,
        }
    }

    /// Whether the in-network combining overlay is enabled.
    pub fn combining_enabled(&self) -> bool {
        self.inner.comb.is_some()
    }

    /// Live `comb.*` telemetry probes of the combining overlay, when
    /// enabled.
    pub fn comb_counters(&self) -> Option<&CombCounters> {
        self.inner.comb.as_ref().map(|c| &c.counters)
    }

    /// The torus shape.
    pub fn shape(&self) -> TorusShape {
        self.inner.shape
    }

    /// Node count.
    pub fn num_nodes(&self) -> usize {
        self.inner.nodes.len()
    }

    /// The engine mode the fabric was built with.
    pub fn engine_mode(&self) -> EngineMode {
        self.inner.mode
    }

    fn node(&self, id: u32) -> &NodeMu {
        &self.inner.nodes[id as usize]
    }

    /// Every reception-FIFO deposit funnels through here: synchronous batch
    /// delivery on the default fabric, or the installed
    /// [`Transport`] (which may schedule the deposit on its own clock).
    #[inline]
    fn deposit(
        &self,
        src_node: u32,
        dst_node: u32,
        rec_fifo: RecFifoId,
        fifo: &Arc<RecFifo>,
        npackets: u64,
        make: &mut dyn FnMut(u64) -> MuPacket,
    ) {
        match &self.inner.transport {
            None => fifo.deliver_batch(npackets, make),
            Some(t) => t.deliver(src_node, dst_node, rec_fifo, fifo, npackets, make),
        }
    }

    /// Deposit whatever the installed transport has due at its current
    /// (virtual) time; returns deposits performed. A no-op — zero, no
    /// locks — on the default synchronous fabric. Pumped alongside the
    /// system FIFO by the engine loops so threaded-mode fabrics drain a
    /// scheduling transport without help from the harness.
    pub fn pump_transport(&self) -> usize {
        match &self.inner.transport {
            None => 0,
            Some(t) => t.pump(),
        }
    }

    /// Whether a transport seam is installed (diagnostics).
    pub fn has_transport(&self) -> bool {
        self.inner.transport.is_some()
    }

    /// Install an observer invoked on every RAS event recorded by the
    /// reliability layer (retransmits, link kills, delivery failures, …) —
    /// the RAS→software feedback hook. Set at most once, before traffic
    /// flows; later calls are ignored. The callback runs on the thread that
    /// detected the event, possibly while link-channel locks are held: it
    /// must be cheap and must not call back into the fabric.
    pub fn set_ras_observer(&self, observer: crate::link::RasObserver) {
        self.inner.ring.set_observer(observer);
    }

    /// Allocate `count` exclusive injection FIFOs on `node`; `None` when the
    /// node's 544 are exhausted.
    ///
    /// The allocator mutex serializes the id claim (allocation is not a hot
    /// path); the claimed slots are then published into the lock-free table,
    /// race-free because ranges are disjoint.
    pub fn alloc_inj_fifos(&self, node: u32, count: u16) -> Option<Vec<InjFifoId>> {
        let n = self.node(node);
        let range = n.allocator.alloc_inj(count)?;
        for id in range.clone() {
            // The FIFO id doubles as its message-id lane, so everything the
            // owning context needs to send — queue, msg-id mint, link-seq
            // counter — lives in this one exclusively-owned structure.
            n.inj.publish(id, Arc::new(InjFifo::new(self.inner.inj_fifo_capacity, node, id)));
        }
        Some(range.map(InjFifoId).collect())
    }

    /// Allocate `count` exclusive reception FIFOs on `node`.
    pub fn alloc_rec_fifos(&self, node: u32, count: u16) -> Option<Vec<RecFifoId>> {
        let n = self.node(node);
        let range = n.allocator.alloc_rec(count)?;
        for id in range.clone() {
            n.rec.publish(id, Arc::new(RecFifo::new(self.inner.rec_fifo_capacity)));
        }
        Some(range.map(RecFifoId).collect())
    }

    /// Direct handle to a reception FIFO (contexts cache this).
    pub fn rec_fifo(&self, node: u32, id: RecFifoId) -> Arc<RecFifo> {
        Arc::clone(self.node(node).rec.get(id.0))
    }

    /// Direct handle to an injection FIFO.
    pub fn inj_fifo(&self, node: u32, id: InjFifoId) -> Arc<InjFifo> {
        Arc::clone(self.node(node).inj.get(id.0))
    }

    /// Handle to a node's *system* injection FIFO (contexts cache it to
    /// observe remote-get backlog without going through the fabric).
    pub fn sys_fifo(&self, node: u32) -> Arc<InjFifo> {
        Arc::clone(&self.node(node).sys_inj)
    }

    /// Attach a wakeup region to a node's system FIFO (remote-get arrivals
    /// touch it). Set at most once per node; later calls are ignored.
    pub fn set_sys_wakeup(&self, node: u32, region: WakeupRegion) {
        let _ = self.node(node).sys_wakeup.set(region);
    }

    /// Queue a descriptor on one of `src_node`'s injection FIFOs.
    pub fn inject(&self, src_node: u32, fifo: InjFifoId, desc: Descriptor) {
        let fifo = Arc::clone(self.node(src_node).inj.get(fifo.0));
        self.inject_handle(src_node, &fifo, desc);
    }

    /// Queue a descriptor on an injection FIFO the caller already holds a
    /// handle to — the context hot path, which caches its exclusive FIFO
    /// handles and skips the table lookup entirely.
    pub fn inject_handle(&self, src_node: u32, fifo: &InjFifo, desc: Descriptor) {
        fifo.queue.push(desc);
        if matches!(self.inner.mode, EngineMode::Threaded(_)) {
            self.node(src_node).engine_wakeup.touch();
        }
    }

    /// Execute a descriptor immediately in the calling thread — the
    /// `PAMI_Send_immediate` path, which bypasses the injection queue. This
    /// is "the MU hardware": it performs the data movement the descriptor
    /// asks for, minting message ids from the node's fallback lane.
    pub fn execute(&self, src_node: u32, desc: Descriptor) {
        let src = self.node(src_node);
        src.counters.descriptors_executed.incr();
        self.execute_from(src_node, desc, &src.msg_lane, &src.link_seq);
    }

    /// Short-tier send: the whole message — metadata and payload — is one
    /// inline packet envelope on the memory-FIFO path every descriptor
    /// takes, minus the descriptor: no fragment loop, no region
    /// registration, no staging.
    ///
    /// `fifo` is the caller-owned injection FIFO whose message-id lane and
    /// link-sequence counter the envelope uses; `None` takes the node's
    /// fallback lane, as [`MuFabric::execute`] does. With a FIFO, the
    /// caller must have established ordering first
    /// ([`InjFifo::is_quiescent`]) — bypassing a non-empty queue would
    /// overtake earlier eager traffic.
    ///
    /// `local_done` (if any) is credited with the payload length
    /// ([`Descriptor::ZERO_LEN_CREDIT`] for empty payloads) when the
    /// envelope is delivered: synchronously whenever the fate oracle passes
    /// it; otherwise it rides the reliable channel as a single frame, so
    /// the counter keeps its ack-or-typed-fault semantics.
    #[allow(clippy::too_many_arguments)]
    pub fn send_short(
        &self,
        src_node: u32,
        fifo: Option<&InjFifo>,
        dst_node: u32,
        rec_fifo: RecFifoId,
        src_context: u16,
        dispatch: u16,
        metadata: bytes::Bytes,
        payload: bytes::Bytes,
        local_done: Option<bgq_hw::Counter>,
    ) {
        debug_assert!(payload.len() <= MAX_PAYLOAD_BYTES, "short tier is one packet");
        let (lane, link_seq) = match fifo {
            Some(f) => (&f.lane, &f.link_seq),
            None => {
                let n = self.node(src_node);
                (&n.msg_lane, &n.link_seq)
            }
        };
        self.send_fifo(
            src_node,
            dst_node,
            src_context,
            rec_fifo,
            dispatch,
            metadata,
            PayloadSource::Immediate(payload),
            lane,
            link_seq,
            local_done,
            true,
            false,
        );
    }

    /// Drain up to `budget` descriptors from one injection FIFO (inline
    /// engine mode: contexts call this from `advance`). Returns descriptors
    /// executed.
    pub fn pump_inj(&self, node: u32, fifo: InjFifoId, budget: usize) -> usize {
        let fifo = Arc::clone(self.node(node).inj.get(fifo.0));
        self.pump_inj_handle(node, &fifo, budget)
    }

    /// Like [`MuFabric::pump_inj`] but on a cached FIFO handle, skipping
    /// the table lookup (context hot path). Message ids and fault-free link
    /// sequences come from the FIFO's own lane, and the per-node
    /// `descriptors_executed` counter is updated once for the whole pump
    /// rather than per descriptor.
    pub fn pump_inj_handle(&self, node: u32, fifo: &InjFifo, budget: usize) -> usize {
        let mut done = 0;
        while done < budget {
            // Empty pre-check before the `inflight` bracket: an advance
            // loop sweeps every FIFO the context owns, and on an idle FIFO
            // the sweep must cost emptiness loads, not a SeqCst RMW. Racing
            // a producer here is benign — we skip the round exactly as a
            // bracketed pop returning `None` would.
            if fifo.queue.is_empty() {
                break;
            }
            // Bracket the pop-execute window in `inflight` so the short
            // tier's queue-bypass stays ordered: the bypasser only skips
            // the queue when `is_quiescent()` — and if it observes the
            // queue empty after our pop (release store, acquired by its
            // emptiness check), this increment is already visible, so it
            // falls back to the queued path instead of overtaking a
            // descriptor that is mid-execution.
            fifo.inflight.fetch_add(1, Ordering::SeqCst);
            match fifo.queue.pop() {
                Some(desc) => {
                    self.execute_from(node, desc, &fifo.lane, &fifo.link_seq);
                    fifo.inflight.fetch_sub(1, Ordering::Release);
                    done += 1;
                }
                None => {
                    fifo.inflight.fetch_sub(1, Ordering::Release);
                    break;
                }
            }
        }
        if done > 0 {
            self.node(node).counters.descriptors_executed.add(done as u64);
        }
        done
    }

    /// Execute up to `budget` system-FIFO descriptors (remote-get service).
    /// Counters are batched per call, not per descriptor.
    pub fn pump_sys(&self, node: u32, budget: usize) -> usize {
        let sys = Arc::clone(&self.node(node).sys_inj);
        let mut done = 0;
        while done < budget {
            match sys.queue.pop() {
                Some(desc) => {
                    self.execute_from(node, desc, &sys.lane, &sys.link_seq);
                    done += 1;
                }
                None => break,
            }
        }
        if done > 0 {
            let c = &self.node(node).counters;
            c.remote_gets_serviced.add(done as u64);
            c.descriptors_executed.add(done as u64);
        }
        done
    }

    /// Pull the next packet from a reception FIFO (owning context only).
    pub fn poll_rec(&self, node: u32, fifo: RecFifoId) -> Option<MuPacket> {
        self.node(node).rec.get(fifo.0).poll()
    }

    /// Record `n` receive-side payload copies on `node` (contexts deposit
    /// packet payloads into destination memory and flush the count once per
    /// `advance` call). `pin` stripes the counter by the caller's context
    /// id so concurrent contexts never share a counter cell.
    pub fn note_payload_copies(&self, node: u32, pin: usize, n: u64) {
        self.node(node).counters.payload_copies.add_pinned(pin, n);
    }

    /// Live `mu.*` telemetry probes for `node`. Read a single probe with
    /// `.value()`; aggregate across nodes via the registry passed to
    /// [`MuFabricBuilder::telemetry`]. All zeros when the `telemetry`
    /// feature is off.
    pub fn counters(&self, node: u32) -> &MuCounters {
        &self.node(node).counters
    }

    /// Execute with an explicit message-id lane and link-sequence source —
    /// the FIFO pump paths pass their FIFO's own, keeping the hot path free
    /// of shared per-node sequence state. Does *not* bump
    /// `descriptors_executed` (pump callers batch it; `execute` bumps it
    /// for the immediate path).
    pub(crate) fn execute_from(
        &self,
        src_node: u32,
        desc: Descriptor,
        lane: &MsgIdLane,
        link_seq: &AtomicU64,
    ) {
        // Combinable fetch-adds divert into the combining overlay before
        // either delivery path: the overlay carries them hop by hop (with
        // its own seeded dice under a fault plan), so they never enter the
        // per-(src, dst) link channels.
        if let Some(comb) = &self.inner.comb {
            if desc.dst_node != src_node {
                if let XferKind::Rmw { op: RmwOp::FetchAdd, .. } = &desc.kind {
                    let Descriptor { dst_node, kind, inj_counter, .. } = desc;
                    let XferKind::Rmw {
                        win_key, dst_region, dst_offset, operand, reply, ..
                    } = kind
                    else {
                        unreachable!("matched Rmw above");
                    };
                    comb.submit(
                        src_node,
                        dst_node,
                        win_key,
                        dst_offset,
                        dst_region,
                        operand,
                        reply,
                        inj_counter,
                        Descriptor::ZERO_LEN_CREDIT,
                    );
                    return;
                }
            }
        }
        if let XferKind::MemoryFifo { rec_fifo, dispatch, metadata, short } = desc.kind {
            self.send_fifo(
                src_node,
                desc.dst_node,
                desc.src_context,
                rec_fifo,
                dispatch,
                metadata,
                desc.payload,
                lane,
                link_seq,
                desc.inj_counter,
                short,
                true,
            );
            return;
        }
        match &self.inner.reliability {
            // Self-sends cross no torus link and keep the direct path.
            Some(rel) if desc.dst_node != src_node => self.execute_reliable(rel, src_node, desc),
            _ => self.execute_direct(desc),
        }
    }

    /// The fate oracle: decides, before any packet is built, whether a
    /// memory-FIFO message of `npackets` packets delivers synchronously now
    /// or goes to the frame queue, and draws its link sequence numbers
    /// where it can.
    ///
    /// - lossless fabric, or a self-send ⇒ pass, seqs from `seq_src`;
    /// - clean plan, links up, channel alive, no backlog ⇒ pass, channel
    ///   seqs;
    /// - uniform lossy plan without kill schedules, same conditions ⇒
    ///   pre-draw the seqs and peek the dice: pass, or queue under those
    ///   seqs;
    /// - anything else ⇒ queue.
    ///
    /// The peek is sound because the fault dice are pure functions of
    /// (link, seq, attempt): it rolls exactly the forward and ack dice the
    /// pump would roll for these frames' first attempt, and a message it
    /// queues keeps its seqs, so the pump re-rolls the same dice and
    /// records any loss as if the peek never happened. Each die is consumed
    /// once and the plan's statistics are untouched. Kill schedules count
    /// crossings, so they always queue; with every link up the route is the
    /// deterministic one, precomputed per channel. The liveness and backlog
    /// hints race a concurrent fault episode by at most one in-flight
    /// message, which is indistinguishable from that message having crossed
    /// just before.
    #[inline]
    fn oracle<'a>(
        &'a self,
        src_node: u32,
        dst_node: u32,
        npackets: u64,
        seq_src: &AtomicU64,
    ) -> Verdict<'a> {
        let rel = match &self.inner.reliability {
            Some(rel) if dst_node != src_node => rel,
            _ => {
                let base = seq_src.fetch_add(npackets, Ordering::Relaxed);
                return Verdict::Pass { base, lossless: true, peeked: false };
            }
        };
        let ch = rel.channel(src_node, dst_node);
        if !Self::fair_weather(rel, ch) {
            return Verdict::Queue { rel, ch, base: None };
        }
        if rel.clean {
            let base = ch.next_seq.fetch_add(npackets, Ordering::Relaxed);
            return Verdict::Pass { base, lossless: false, peeked: false };
        }
        let Some((pass_thr, ack_thr)) =
            rel.injector.uniform_thresholds().filter(|_| !rel.injector.has_kills())
        else {
            return Verdict::Queue { rel, ch, base: None };
        };
        let base = ch.next_seq.fetch_add(npackets, Ordering::Relaxed);
        let plan = self.fair_plan(rel, ch);
        // One finalizer per die: each forward hop must come up `Pass`, each
        // reverse (ack) hop `Pass` or `Delay` — the threshold forms of
        // exactly the `decide` calls the pump would make for these frames.
        let all_pass = (0..npackets).all(|i| {
            let ss = FaultInjector::seq_salt(base + i, 0);
            plan.fwd_salts.iter().all(|&ls| FaultInjector::draw(ls, ss) >= pass_thr)
                && plan.rev_salts.iter().all(|&ls| FaultInjector::draw(ls, ss) >= ack_thr)
        });
        if all_pass {
            Verdict::Pass { base, lossless: false, peeked: true }
        } else {
            Verdict::Queue { rel, ch, base: Some(base) }
        }
    }

    /// Whether the (src, dst) channel can take a synchronous delivery:
    /// every link up, the channel alive, and nothing queued on it that a
    /// synchronous send would overtake.
    fn fair_weather(rel: &Reliability, ch: &Channel) -> bool {
        !rel.health.any_down() && ch.seems_alive() && !ch.has_backlog()
    }

    /// The one memory-FIFO path, for descriptors and short-tier envelopes
    /// alike: the fate oracle decides, then either the synchronous deposit
    /// or the frame builder runs. Synchronous delivery doubles as the ack,
    /// so the injection counter fires here; a queued message's counter
    /// fires on link-level ack (or fails with the channel's fault).
    ///
    /// `stamp_lossless` says whether the packets carry a CRC on the
    /// lossless verdict too. Descriptor-borne packets always do — the eager
    /// tier's integrity cost, which `short_gate` and the clean chaos gate
    /// are calibrated against — while a short-tier envelope skips it there,
    /// the one route where nothing can touch the packet in flight. Every
    /// packet on a reliable channel is stamped.
    #[inline]
    #[allow(clippy::too_many_arguments)]
    fn send_fifo(
        &self,
        src_node: u32,
        dst_node: u32,
        src_context: u16,
        rec_fifo: RecFifoId,
        dispatch: u16,
        metadata: bytes::Bytes,
        payload: PayloadSource,
        lane: &MsgIdLane,
        link_seq: &AtomicU64,
        inj_counter: Option<bgq_hw::Counter>,
        short: bool,
        stamp_lossless: bool,
    ) {
        let msg_len = payload.len();
        let npackets = bgq_torus::packet::packets_for(msg_len) as u64;
        let credit = if msg_len == 0 { Descriptor::ZERO_LEN_CREDIT } else { msg_len as u64 };
        // The MU's contract is that a completion counter hits zero only
        // once the source buffer has been read, so with a counter the DMA
        // read is modeled at packet creation. Without one no correct
        // program can observe when the buffer is read, and packets carry
        // zero-copy windows into the source region until the receiver's
        // deposit.
        let stage = inj_counter.is_some() && matches!(payload, PayloadSource::Region { .. });
        let msg_id = lane.next();
        match self.oracle(src_node, dst_node, npackets, link_seq) {
            Verdict::Pass { base, lossless, peeked } => {
                self.deliver_sync(
                    src_node,
                    dst_node,
                    src_context,
                    rec_fifo,
                    dispatch,
                    metadata,
                    payload,
                    msg_id,
                    base,
                    stage,
                    short,
                    stamp_lossless || !lossless,
                );
                if let (true, Some(t)) = (peeked, &self.inner.transport) {
                    for _ in 0..npackets {
                        t.deliver_control(dst_node, src_node, Self::ACK_WIRE_BYTES);
                    }
                }
                if let Some(c) = inj_counter {
                    c.delivered(credit);
                }
            }
            Verdict::Queue { rel, ch, base } => {
                let src = &self.node(src_node).counters;
                src.fifo_messages.incr();
                src.packets_injected.add(npackets);
                if stage {
                    src.payload_copies.add(npackets);
                }
                let frames = (0..npackets).map(|i| {
                    let (off, chunk) = packet_window(msg_len, i);
                    let body = FrameBody::Packet {
                        rec_fifo,
                        src_context,
                        dispatch,
                        metadata: metadata.clone(),
                        msg_id,
                        msg_len: msg_len as u32,
                        offset: off as u32,
                        short,
                        payload: packet_payload(&payload, off, chunk, stage),
                    };
                    (if msg_len == 0 { credit } else { chunk as u64 }, body)
                });
                self.enqueue_frames(rel, ch, src_node, base, inj_counter, npackets, frames);
            }
        }
    }

    /// The one synchronous memory-FIFO deposit: fragment the message into
    /// ≤512-byte packets under link sequence numbers from `base_seq`, stamp
    /// each with a CRC when `crc`, and deposit them in the destination's
    /// reception FIFO. Per-message probes are sampled — one message per
    /// [`MU_PACKET_COUNTER_SAMPLE`] window accounts for the whole window —
    /// and pinned to the sending context's stripe, so contexts flooding
    /// from different threads never bounce a counter cache line.
    #[inline]
    #[allow(clippy::too_many_arguments)]
    fn deliver_sync(
        &self,
        src_node: u32,
        dst_node: u32,
        src_context: u16,
        rec_fifo: RecFifoId,
        dispatch: u16,
        metadata: bytes::Bytes,
        payload: PayloadSource,
        msg_id: u64,
        base_seq: u64,
        stage: bool,
        short: bool,
        crc: bool,
    ) {
        let msg_len = payload.len();
        let npackets = bgq_torus::packet::packets_for(msg_len) as u64;
        let pin = src_context as usize;
        let dst = self.node(dst_node);
        if counter_sample_hit(msg_id) {
            let src = &self.node(src_node).counters;
            src.fifo_messages.add_pinned(pin, MU_PACKET_COUNTER_SAMPLE);
            src.packets_injected.add_pinned(pin, npackets * MU_PACKET_COUNTER_SAMPLE);
            dst.counters.packets_received.add_pinned(pin, npackets * MU_PACKET_COUNTER_SAMPLE);
        }
        if stage {
            self.node(src_node).counters.payload_copies.add_pinned(pin, npackets);
        }
        let packet = |i: u64, metadata: bytes::Bytes, payload: PacketPayload| {
            let mut pkt = MuPacket {
                src_node,
                src_context,
                dispatch,
                metadata,
                msg_id,
                msg_len: msg_len as u32,
                offset: (i as usize * MAX_PAYLOAD_BYTES) as u32,
                link_seq: base_seq + i,
                crc: 0,
                short,
                payload,
            };
            if crc {
                pkt.crc = pkt.compute_crc();
            }
            pkt
        };
        let fifo = dst.rec.get(rec_fifo.0);
        match (&self.inner.transport, payload) {
            // A one-packet immediate on the synchronous fabric (the short
            // tier's case): metadata and payload move straight into the
            // packet, with no packet-maker indirection.
            (None, PayloadSource::Immediate(data)) if npackets == 1 => {
                fifo.deliver(packet(0, metadata, PacketPayload::Inline(data)));
            }
            (_, payload) => {
                self.deposit(src_node, dst_node, rec_fifo, fifo, npackets, &mut |i| {
                    let (off, chunk) = packet_window(msg_len, i);
                    packet(i, metadata.clone(), packet_payload(&payload, off, chunk, stage))
                });
            }
        }
    }

    /// Puts, remote gets and rmws on the lossless fabric (and self-sends
    /// under a fault plan): immediate, synchronous delivery.
    fn execute_direct(&self, desc: Descriptor) {
        let credit = desc.completion_credit();
        let Descriptor { dst_node, payload, kind, inj_counter, .. } = desc;
        // Functional delivery is identical for both routing modes (the
        // fabric is lossless and in-process); the mode matters to the
        // timing models and to the ordering contract asserted in tests.
        match kind {
            XferKind::MemoryFifo { .. } => unreachable!("memory-FIFO messages take the oracle"),
            XferKind::DirectPut { dst_region, dst_offset, rec_counter } => {
                match &payload {
                    PayloadSource::Immediate(bytes) => {
                        dst_region.write(dst_offset, bytes);
                    }
                    PayloadSource::Region { region, offset, len } => {
                        dst_region.copy_from(dst_offset, region, *offset, *len);
                    }
                }
                self.node(dst_node).counters.put_bytes_in.add(payload.len() as u64);
                if let Some(c) = rec_counter {
                    c.delivered(credit);
                }
            }
            XferKind::RemoteGet { payload: get_desc } => {
                let dst = self.node(dst_node);
                dst.sys_inj.queue.push(*get_desc);
                if let Some(w) = dst.sys_wakeup.get() {
                    w.touch();
                }
                if matches!(self.inner.mode, EngineMode::Threaded(_)) {
                    dst.engine_wakeup.touch();
                }
            }
            XferKind::Rmw { win_key, dst_region, dst_offset, op, operand, compare, reply } => {
                let prior = self.inner.rmw_locks.apply(
                    win_key,
                    &dst_region,
                    dst_offset,
                    op,
                    operand,
                    compare,
                );
                if let Some(r) = reply {
                    r.region.write(r.offset, &prior.to_le_bytes());
                }
            }
        }
        if let Some(c) = inj_counter {
            c.delivered(credit);
        }
    }

    // ---- reliability layer (active iff a fault plan is installed) ------

    /// The installed fault plan, if any.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.inner.reliability.as_ref().map(|r| r.injector.plan())
    }

    /// Whether the reliability layer is active.
    pub fn reliable(&self) -> bool {
        self.inner.reliability.is_some()
    }

    /// The link-health table (present iff a fault plan is installed).
    pub fn link_health(&self) -> Option<&LinkHealth> {
        self.inner.reliability.as_ref().map(|r| &r.health)
    }

    /// The `ras.*` probes. Always present so the report schema is stable;
    /// all zero without a fault plan.
    pub fn ras_counters(&self) -> &RasCounters {
        &self.inner.ras
    }

    /// Snapshot of the RAS event ring (oldest first) and how many events
    /// overflowed out of it.
    pub fn ras_events(&self) -> (Vec<RasEvent>, u64) {
        self.inner.ring.snapshot()
    }

    /// Administratively kill the physical link out of `node` in direction
    /// `dir` (both directions go down) — the RAS analogue of pulling an
    /// optical module. Requires a fault plan (programmer contract: the
    /// lossless fabric has no health table). Returns `false` if the link
    /// was already down.
    pub fn kill_link(&self, node: u32, dir: Dir) -> bool {
        let rel = self
            .inner
            .reliability
            .as_ref()
            .expect("kill_link requires a fault plan (MuFabricBuilder::fault_plan)");
        let at = self.inner.shape.coords_of(node as usize);
        let peer = self.inner.shape.node_index(self.inner.shape.neighbor(at, dir)) as u32;
        let newly = rel.health.kill(at, dir);
        if newly {
            rel.ras.link_down.add(2);
            rel.ring.record(RasEvent {
                tick: rel.tick(node),
                kind: RasEventKind::LinkDown,
                src_node: node,
                dst_node: peer,
                detail: link_id(node, dir),
            });
        }
        newly
    }

    /// Administratively revive the physical link out of `node` in direction
    /// `dir` (both directions come back up) — the RAS analogue of reseating
    /// the optical module [`MuFabric::kill_link`] pulled. Requires a fault
    /// plan. Returns `false` if the link was not down. `ras.link_down`
    /// stays monotonic (it counts down *events*); recovery is visible
    /// through the `LinkRevived` RAS event, `LinkHealth::down_count`, and
    /// the health epoch bump that invalidates cached routes.
    pub fn revive_link(&self, node: u32, dir: Dir) -> bool {
        let rel = self
            .inner
            .reliability
            .as_ref()
            .expect("revive_link requires a fault plan (MuFabricBuilder::fault_plan)");
        let at = self.inner.shape.coords_of(node as usize);
        let peer = self.inner.shape.node_index(self.inner.shape.neighbor(at, dir)) as u32;
        let newly = rel.health.revive(at, dir);
        if newly {
            rel.ring.record(RasEvent {
                tick: rel.tick(node),
                kind: RasEventKind::LinkRevived,
                src_node: node,
                dst_node: peer,
                detail: link_id(node, dir),
            });
        }
        newly
    }

    /// Clear a dead (src, dst) reliable channel so traffic can flow again
    /// after the underlying failure was repaired — the persistent-channel
    /// renegotiation hook. Resets the retransmit state (fresh RTO, zero
    /// retries, route recomputed at the current health epoch on next use)
    /// and republishes the channel alive. Returns `false` without a fault
    /// plan, for self-sends, or if the channel was not dead. Frames failed
    /// by the kill stay failed — revival is forward-looking only.
    pub fn revive_channel(&self, src_node: u32, dst_node: u32) -> bool {
        let Some(rel) = &self.inner.reliability else { return false };
        if src_node == dst_node {
            return false;
        }
        let ch = rel.channel(src_node, dst_node);
        let mut tx = ch.tx.lock();
        let Some(fault) = tx.dead.take() else { return false };
        tx.route = None;
        // The kill cleared the receiver's reorder buffer; the cursor
        // re-syncs to the next queued frame on the first pump visit.
        debug_assert!(ch.rx.lock().buffer.is_empty());
        ch.publish_alive();
        rel.ring.record(RasEvent {
            tick: rel.tick(src_node),
            kind: RasEventKind::ChannelRevived,
            src_node,
            dst_node,
            detail: fault as u64,
        });
        true
    }

    /// Whether `node` has no frames queued or awaiting retry in its
    /// reliable channels, and no requests in flight in the combining
    /// overlay (lock-free; contexts use it in their idle check). The
    /// overlay's pending count is global — any node with combined atomics
    /// outstanding keeps pumping until the whole overlay drains, which is
    /// what lets a lone context make progress for everyone.
    pub fn links_idle(&self, node: u32) -> bool {
        if self.inner.comb.as_ref().is_some_and(|c| c.pending() > 0) {
            return false;
        }
        self.inner.reliability.as_ref().is_none_or(|r| r.idle(node))
    }

    /// Pump `node`'s reliable channels: transmit queued frames, fire RTO
    /// retransmissions, release delayed frames. Each call advances the
    /// node's link-pump tick (the retry protocol's clock). Returns frames
    /// delivered. No-op without a fault plan.
    ///
    /// Also drives the combining overlay one round (batches move one hop
    /// toward their root) — combining works with or without a fault plan,
    /// so this runs before the reliability early-outs.
    pub fn pump_links(&self, node: u32, budget: usize) -> usize {
        let mut comb_events = 0;
        if let Some(comb) = &self.inner.comb {
            comb_events = comb.pump(
                self.inner.reliability.as_ref().map(|r| &r.injector),
                &self.inner.rmw_locks,
            );
        }
        let Some(rel) = &self.inner.reliability else { return comb_events };
        if rel.idle(node) {
            return comb_events;
        }
        let now = rel.bump_tick(node);
        let mut done = 0;
        for ch in rel.channels_of(node) {
            if done >= budget {
                break;
            }
            let mut guard = ch.tx.lock();
            done += self.pump_channel_locked(rel, ch, &mut guard, now, budget - done);
        }
        done + comb_events
    }

    /// Decompose a put, remote get or rmw into link-level frames on the
    /// (src, dst) channel. Memory-FIFO messages never come here: the fate
    /// oracle routes them.
    fn execute_reliable(&self, rel: &Reliability, src_node: u32, desc: Descriptor) {
        let total_credit = desc.completion_credit();
        let Descriptor { dst_node, payload, kind, inj_counter, .. } = desc;
        let ch = rel.channel(src_node, dst_node);
        match kind {
            XferKind::DirectPut { dst_region, dst_offset, rec_counter } => {
                let len = payload.len();
                let n = bgq_torus::packet::packets_for(len) as u64;
                let frames = (0..n).map(|i| {
                    let (off, chunk) = packet_window(len, i);
                    let body = FrameBody::Put {
                        dst_region: dst_region.clone(),
                        dst_offset: dst_offset + off,
                        payload: packet_payload(&payload, off, chunk, false),
                        rec_counter: rec_counter.clone(),
                    };
                    (if len == 0 { total_credit } else { chunk as u64 }, body)
                });
                self.send_frames(rel, ch, src_node, inj_counter, n, frames);
            }
            XferKind::RemoteGet { payload: get_desc } => {
                let frame = (total_credit, FrameBody::Get { desc: get_desc });
                self.send_frames(rel, ch, src_node, inj_counter, 1, std::iter::once(frame));
            }
            XferKind::Rmw { win_key, dst_region, dst_offset, op, operand, compare, reply } => {
                // One frame per rmw: the channel's sequence dedup gives the
                // retransmitted atomic exactly-once application for free.
                let body =
                    FrameBody::Rmw { win_key, dst_region, dst_offset, op, operand, compare, reply };
                let frame = (total_credit, body);
                self.send_frames(rel, ch, src_node, inj_counter, 1, std::iter::once(frame));
            }
            XferKind::MemoryFifo { .. } => unreachable!("memory-FIFO messages take the oracle"),
        }
    }

    /// Send `n` put/get/rmw frames. With a clean plan in fair weather a
    /// frame cannot be touched in flight, so it is delivered (and thereby
    /// acked) synchronously without the channel lock; otherwise the frames
    /// go to the queue.
    fn send_frames(
        &self,
        rel: &Reliability,
        ch: &Channel,
        src_node: u32,
        inj_counter: Option<bgq_hw::Counter>,
        n: u64,
        frames: impl Iterator<Item = (u64, FrameBody)>,
    ) {
        if !(rel.clean && Self::fair_weather(rel, ch)) {
            self.enqueue_frames(rel, ch, src_node, None, inj_counter, n, frames);
            return;
        }
        for (credit, body) in frames {
            let seq = ch.next_seq.fetch_add(1, Ordering::Relaxed);
            self.deliver_body(ch, seq, credit, &body);
            if let Some(c) = &inj_counter {
                c.delivered(credit);
            }
        }
    }

    /// The frame builder's queue: append `n` frames to `ch` under
    /// consecutive sequence numbers from `base` — drawn here, under the
    /// lock, unless the oracle pre-drew them while peeking — then pump the
    /// channel inline, so fault-free frames still deliver before this
    /// returns and lost ones wait for [`MuFabric::pump_links`]. On a dead
    /// channel every frame fails with the channel's fault instead.
    #[allow(clippy::too_many_arguments)]
    fn enqueue_frames(
        &self,
        rel: &Reliability,
        ch: &Channel,
        src_node: u32,
        base: Option<u64>,
        inj_counter: Option<bgq_hw::Counter>,
        n: u64,
        frames: impl Iterator<Item = (u64, FrameBody)>,
    ) {
        let mut tx = ch.tx.lock();
        if let Some(fault) = tx.dead {
            // The channel already failed (or the oracle's liveness hint
            // raced a kill): surface the fault to this transfer's counters
            // instead of queueing into a black hole.
            drop(tx);
            let mut failed: u64 = frames.map(|(_, body)| fail_body(&body, fault)).sum();
            if let Some(c) = &inj_counter {
                failed += c.fail(fault) as u64;
            }
            rel.ras.delivery_failures.add(failed);
            rel.ring.record(RasEvent {
                tick: rel.tick(src_node),
                kind: RasEventKind::DeliveryFailure,
                src_node,
                dst_node: ch.dst,
                detail: fault as u64,
            });
            return;
        }
        let base = base.unwrap_or_else(|| ch.next_seq.fetch_add(n, Ordering::Relaxed));
        let rto = rel.injector.retry().rto_ticks;
        for (seq, (credit, body)) in (base..).zip(frames) {
            // A concurrent sender's lock-free draw may have reached the
            // queue first: insert in sequence order, which the pump relies
            // on.
            let pos = tx.queue.partition_point(|f| f.seq < seq);
            tx.queue.insert(
                pos,
                Frame {
                    seq,
                    attempt: 0,
                    state: FrameState::Queued,
                    retries: 0,
                    rto,
                    credit,
                    inj_counter: inj_counter.clone(),
                    body,
                },
            );
        }
        rel.add_pending(src_node, n as usize);
        ch.publish_backlog(true);
        let now = rel.tick(src_node);
        self.pump_channel_locked(rel, ch, &mut tx, now, usize::MAX);
    }

    /// The channel's deterministic route in hot-path form, built once and
    /// read lock-free. Only meaningful while every link is up — exactly
    /// when `healthy_route` returns the deterministic route, so this is
    /// the same plan `ensure_route` would cache under the lock.
    fn fair_plan<'a>(&self, rel: &Reliability, ch: &'a Channel) -> &'a Arc<RoutePlan> {
        ch.fair_plan.get_or_init(|| {
            let shape = self.inner.shape;
            let src_c = shape.coords_of(ch.src as usize);
            let dst_c = shape.coords_of(ch.dst as usize);
            let route = bgq_torus::det_route(shape, src_c, dst_c);
            Arc::new(Self::build_route_plan(rel, shape, src_c, dst_c, &route))
        })
    }

    /// Resolve a route's coordinate arithmetic and dice keys once, into
    /// exactly what the per-frame hot path needs.
    fn build_route_plan(
        rel: &Reliability,
        shape: TorusShape,
        src_c: Coords,
        dst_c: Coords,
        route: &[Dir],
    ) -> RoutePlan {
        let mut hops = Vec::with_capacity(route.len());
        let mut fwd_salts = Vec::with_capacity(route.len());
        let mut at = src_c;
        for &dir in route {
            let lid = link_id(shape.node_index(at) as u32, dir);
            hops.push((lid, at, dir));
            fwd_salts.push(rel.injector.link_salt(lid));
            at = shape.neighbor(at, dir);
        }
        let mut rev_lids = Vec::with_capacity(route.len());
        let mut rev_salts = Vec::with_capacity(route.len());
        let mut rat = dst_c;
        for &dir in route.iter().rev() {
            let back = dir.reverse();
            let lid = link_id(shape.node_index(rat) as u32, back);
            rev_lids.push(lid);
            rev_salts.push(rel.injector.link_salt(lid));
            rat = shape.neighbor(rat, back);
        }
        RoutePlan { hops, rev_lids, fwd_salts, rev_salts }
    }

    /// Make sure `tx` holds a route computed at the current health epoch.
    /// Kills the channel (`Unreachable`) and returns `None` when no
    /// healthy route exists.
    fn ensure_route(
        &self,
        rel: &Reliability,
        ch: &Channel,
        tx: &mut TxState,
        now: u64,
    ) -> Option<Arc<RoutePlan>> {
        let epoch = rel.health.epoch();
        if tx.route.is_none() || tx.route_epoch != epoch {
            let shape = self.inner.shape;
            let src_c = shape.coords_of(ch.src as usize);
            let dst_c = shape.coords_of(ch.dst as usize);
            match healthy_route(shape, src_c, dst_c, &rel.health) {
                Some(route) => {
                    if rel.health.any_down()
                        && route != bgq_torus::det_route(shape, src_c, dst_c)
                    {
                        rel.ras.reroutes.incr();
                        rel.ring.record(RasEvent {
                            tick: now,
                            kind: RasEventKind::Reroute,
                            src_node: ch.src,
                            dst_node: ch.dst,
                            detail: route.len() as u64,
                        });
                    }
                    // Resolve the coordinate arithmetic once: the hot
                    // path crosses frames (and their acks) against the
                    // precomputed link ids and dice salts only.
                    tx.route = Some(Arc::new(Self::build_route_plan(
                        rel, shape, src_c, dst_c, &route,
                    )));
                    tx.route_epoch = epoch;
                }
                None => {
                    self.kill_channel(rel, ch, tx, DeliveryFault::Unreachable, now);
                    return None;
                }
            }
        }
        tx.route.clone()
    }

    /// Walk the route's links with one data frame; kill schedules and
    /// per-link fates apply, first bad link wins. Returns the frame's fate
    /// and whether a kill schedule fired (cached route invalidated by the
    /// caller).
    fn cross_links(
        &self,
        rel: &Reliability,
        ch: &Channel,
        route: &RoutePlan,
        seq: u64,
        attempt: u32,
        now: u64,
    ) -> (Fate, bool) {
        // Kill schedules are rare; hoist the probe so schedule-free plans
        // pay one branch per frame instead of a map lookup per hop.
        let check_kills = rel.injector.has_kills();
        for &(lid, at, dir) in &route.hops {
            if check_kills && rel.injector.note_crossing(lid) {
                if rel.health.kill(at, dir) {
                    rel.ras.link_down.add(2);
                    rel.ring.record(RasEvent {
                        tick: now,
                        kind: RasEventKind::LinkDown,
                        src_node: ch.src,
                        dst_node: ch.dst,
                        detail: lid,
                    });
                }
                return (Fate::Drop, true);
            }
            match rel.injector.decide(lid, seq, attempt) {
                Fate::Pass => {}
                f => return (f, false),
            }
        }
        (Fate::Pass, false)
    }

    /// Ack wire cost charged to the transport seam when an ack crosses the
    /// reverse route: sequence number + SACK bitmap + CRC, no payload.
    const ACK_WIRE_BYTES: u64 = 32;

    /// Roll the per-link fate dice for an ack crossing the reverse route
    /// (destination back to source). Ack crossings never advance kill
    /// schedules — kill-at-Nth-frame plans count data frames only — but
    /// they reuse the same deterministic dice keyed by the reverse link
    /// ids, so replay stays bit-for-bit per seed. A passing ack is charged
    /// to the transport seam as a control frame.
    fn ack_crosses(
        &self,
        rel: &Reliability,
        ch: &Channel,
        route: &RoutePlan,
        seq: u64,
        attempt: u32,
    ) -> bool {
        if !rel.clean {
            for &lid in &route.rev_lids {
                match rel.injector.decide(lid, seq, attempt) {
                    // A delayed ack still arrives — only loss (drop or
                    // corruption) forces the sender to probe. Modeled as
                    // on-time because the in-process protocol has no
                    // reverse-path event queue to defer it on.
                    Fate::Pass | Fate::Delay(_) => {}
                    Fate::Drop | Fate::Corrupt => return false,
                }
            }
        }
        if let Some(t) = &self.inner.transport {
            t.deliver_control(ch.dst, ch.src, Self::ACK_WIRE_BYTES);
        }
        true
    }

    /// Retire every frame the cumulative ack through `cum` covers: pop the
    /// queue prefix and credit the source completion counters. All popped
    /// frames have already been deposited at the destination.
    fn retire_through(&self, rel: &Reliability, ch: &Channel, tx: &mut TxState, cum: u64) {
        let mut n = 0;
        while let Some(front) = tx.queue.front() {
            if cum.wrapping_sub(front.seq) >= 1 << 63 {
                break;
            }
            let frame = tx.queue.pop_front().expect("front exists");
            // The frame's data was delivered (its seq is behind the
            // receive cursor) even if a probe left it Lost/Delayed/Queued;
            // only SackHeld bodies are still undelivered, and those sit
            // above the cursor by construction.
            debug_assert!(
                !matches!(frame.state, FrameState::SackHeld),
                "cumulative ack never covers a reorder-buffered frame"
            );
            if let Some(c) = &frame.inj_counter {
                c.delivered(frame.credit);
            }
            n += 1;
        }
        if n > 0 {
            rel.sub_pending(ch.src, n);
        }
    }

    /// Process one data-frame arrival at the receiver under selective
    /// repeat: classify it against the reorder state, deposit what became
    /// deliverable, and apply the (possibly lost) ack to the sender's
    /// queue. Returns how the caller's scan should continue.
    #[allow(clippy::too_many_arguments)]
    fn sr_arrival(
        &self,
        rel: &Reliability,
        ch: &Channel,
        tx: &mut TxState,
        idx: usize,
        seq: u64,
        now: u64,
        ack: bool,
        done: &mut usize,
    ) -> Arrival {
        let verdict = ch.rx.lock().accept(seq);
        match verdict {
            RxVerdict::Deliver => {
                // The data crossed in order: deposit it now, then drain
                // the consecutive run of buffered successors it unblocked.
                {
                    let f = &mut tx.queue[idx];
                    let (fseq, credit) = (f.seq, f.credit);
                    self.deliver_body(ch, fseq, credit, &f.body);
                    f.state = FrameState::AckWait { since: now };
                }
                *done += 1;
                let mut cum = seq;
                let mut j = idx + 1;
                while let Some(f) = tx.queue.get(j) {
                    if f.state != FrameState::SackHeld {
                        break;
                    }
                    let fseq = f.seq;
                    if !ch.rx.lock().drain_next(fseq) {
                        break;
                    }
                    let f = &mut tx.queue[j];
                    let credit = f.credit;
                    self.deliver_body(ch, fseq, credit, &f.body);
                    f.state = FrameState::AckWait { since: now };
                    *done += 1;
                    cum = fseq;
                    j += 1;
                }
                if ack {
                    self.retire_through(rel, ch, tx, cum);
                    Arrival::Restart
                } else {
                    // Ack lost: the delivered frames stay queued in
                    // AckWait until an RTO probe re-elicits the
                    // cumulative ack.
                    Arrival::Advance
                }
            }
            RxVerdict::Sacked => {
                rel.ras.reorder_depth.incr();
                if !ack {
                    // The selective ack was lost: the sender cannot know
                    // the receiver holds the data, so the frame must be
                    // retried (the receiver will answer the duplicate).
                    tx.queue[idx].state = FrameState::Lost { since: now };
                    return Arrival::Advance;
                }
                tx.queue[idx].state = FrameState::SackHeld;
                // SACK fast retransmit: the selective ack proves later
                // data crossed, so earlier lost frames needn't wait out
                // their RTO. These retransmits are free — they do not
                // count against the retry budget.
                let mut any = false;
                for j in 0..idx {
                    let f = &mut tx.queue[j];
                    if matches!(f.state, FrameState::Lost { .. }) {
                        f.state = FrameState::Queued;
                        f.attempt += 1;
                        let fseq = f.seq;
                        any = true;
                        rel.ras.retransmits.incr();
                        rel.ras.sack_retransmits.incr();
                        rel.ring.record(RasEvent {
                            tick: now,
                            kind: RasEventKind::SackRetransmit,
                            src_node: ch.src,
                            dst_node: ch.dst,
                            detail: fseq,
                        });
                    }
                }
                if any {
                    Arrival::FastRetransmit
                } else {
                    Arrival::Advance
                }
            }
            RxVerdict::DupSacked => {
                // Receiver already holds it; the re-sent selective ack
                // settles the frame (or is lost again).
                tx.queue[idx].state = if ack {
                    FrameState::SackHeld
                } else {
                    FrameState::Lost { since: now }
                };
                Arrival::Advance
            }
            RxVerdict::Duplicate => {
                // The receiver delivered this data earlier (the ack was
                // lost); the probe re-elicits the cumulative ack.
                tx.queue[idx].state = FrameState::AckWait { since: now };
                if ack {
                    let cum = ch.rx.lock().next_expected.wrapping_sub(1);
                    self.retire_through(rel, ch, tx, cum);
                    Arrival::Restart
                } else {
                    Arrival::Advance
                }
            }
            RxVerdict::Refused => {
                // Reorder buffer at its high-water mark: drop-newest. Not
                // a wire fault, so no retry-budget charge.
                rel.ring.record(RasEvent {
                    tick: now,
                    kind: RasEventKind::ReorderEvict,
                    src_node: ch.src,
                    dst_node: ch.dst,
                    detail: seq,
                });
                tx.queue[idx].state = FrameState::Lost { since: now };
                Arrival::Advance
            }
        }
    }

    /// The channel state machine, run with the channel lock held (`tx`):
    /// selective repeat over up to a window of frames per visit. `now` is
    /// the node's link-pump tick; `budget` caps deliveries. Each
    /// transmission rolls per-link fates on the forward route; each
    /// arrival gets a verdict from the receiver's reorder state and an ack
    /// that rolls the reverse route's dice (see `crate::link` docs for the
    /// modeling choices). Blocked frames are skipped, so a lost frame at
    /// the front never head-of-line-blocks the rest of the window. Holding
    /// the lock across delivery is safe — delivery never takes another
    /// channel's lock. Returns early only when the channel dies.
    fn pump_channel_locked(
        &self,
        rel: &Reliability,
        ch: &Channel,
        tx: &mut TxState,
        now: u64,
        budget: usize,
    ) -> usize {
        if tx.dead.is_some() {
            return 0;
        }
        let retry = rel.injector.retry();
        let mut done = 0usize;
        // `sent` counts transmissions this visit; the retry window bounds
        // it (acks are immediate in-process, so the window is a per-tick
        // transmission bound rather than an in-flight bound — see
        // `crate::link` docs).
        let mut sent = 0usize;
        // Catch the reorder cursor up past anything the fair-weather path
        // delivered without touching it.
        if let Some(front) = tx.queue.front() {
            ch.rx.lock().sync_to(front.seq);
        }
        let mut rescan = true;
        while rescan && done < budget && sent < retry.window {
            rescan = false;
            let mut idx = 0usize;
            while idx < tx.queue.len()
                && idx < retry.window
                && done < budget
                && sent < retry.window
            {
                let (state, seq, attempt) = {
                    let f = &tx.queue[idx];
                    (f.state, f.seq, f.attempt)
                };
                match state {
                    FrameState::SackHeld => {
                        // Parked at the receiver; retires via cumulative
                        // ack when the gap ahead of it fills.
                        idx += 1;
                    }
                    FrameState::Delayed { until } => {
                        if now < until {
                            idx += 1;
                            continue;
                        }
                        // The delayed frame arrives now.
                        let Some(route) = self.ensure_route(rel, ch, tx, now) else {
                            return done;
                        };
                        let ack = self.ack_crosses(rel, ch, &route, seq, attempt);
                        match self.sr_arrival(rel, ch, tx, idx, seq, now, ack, &mut done) {
                            Arrival::Advance => idx += 1,
                            Arrival::Restart => idx = 0,
                            Arrival::FastRetransmit => {
                                rescan = true;
                                idx += 1;
                            }
                        }
                    }
                    FrameState::Lost { since } | FrameState::AckWait { since } => {
                        let (rto, retries) = {
                            let f = &tx.queue[idx];
                            (f.rto, f.retries)
                        };
                        if now.saturating_sub(since) < rto {
                            idx += 1;
                            continue;
                        }
                        if retries + 1 > retry.retry_budget {
                            self.kill_channel(rel, ch, tx, DeliveryFault::Timeout, now);
                            return done;
                        }
                        rel.ras.retransmits.incr();
                        rel.ring.record(RasEvent {
                            tick: now,
                            kind: RasEventKind::Retransmit,
                            src_node: ch.src,
                            dst_node: ch.dst,
                            detail: seq,
                        });
                        let f = &mut tx.queue[idx];
                        f.retries += 1;
                        f.rto = rto.saturating_mul(2).min(retry.rto_max_ticks);
                        f.attempt += 1;
                        f.state = FrameState::Queued;
                        // Same index re-examined: the frame transmits now.
                    }
                    FrameState::Queued => {
                        sent += 1;
                        // Fair-weather: a clean plan with all links up
                        // cannot touch the frame or its ack.
                        if rel.clean && !rel.health.any_down() {
                            if let Some(t) = &self.inner.transport {
                                t.deliver_control(ch.dst, ch.src, Self::ACK_WIRE_BYTES);
                            }
                            match self.sr_arrival(rel, ch, tx, idx, seq, now, true, &mut done)
                            {
                                Arrival::Advance => idx += 1,
                                Arrival::Restart => idx = 0,
                                Arrival::FastRetransmit => {
                                    rescan = true;
                                    idx += 1;
                                }
                            }
                            continue;
                        }
                        let Some(route) = self.ensure_route(rel, ch, tx, now) else {
                            return done;
                        };
                        let (fate, link_died) =
                            self.cross_links(rel, ch, &route, seq, attempt, now);
                        match fate {
                            Fate::Pass => {
                                let ack = self.ack_crosses(rel, ch, &route, seq, attempt);
                                match self
                                    .sr_arrival(rel, ch, tx, idx, seq, now, ack, &mut done)
                                {
                                    Arrival::Advance => idx += 1,
                                    Arrival::Restart => idx = 0,
                                    Arrival::FastRetransmit => {
                                        rescan = true;
                                        idx += 1;
                                    }
                                }
                            }
                            Fate::Drop => {
                                self.node(ch.src).counters.packets_dropped.incr();
                                rel.ring.record(RasEvent {
                                    tick: now,
                                    kind: RasEventKind::PacketDropped,
                                    src_node: ch.src,
                                    dst_node: ch.dst,
                                    detail: seq,
                                });
                                if link_died {
                                    tx.route = None;
                                }
                                tx.queue[idx].state = FrameState::Lost { since: now };
                                idx += 1;
                            }
                            Fate::Corrupt => {
                                rel.ras.crc_errors.incr();
                                rel.ring.record(RasEvent {
                                    tick: now,
                                    kind: RasEventKind::CrcError,
                                    src_node: ch.src,
                                    dst_node: ch.dst,
                                    detail: seq,
                                });
                                tx.queue[idx].state = FrameState::Lost { since: now };
                                idx += 1;
                            }
                            Fate::Delay(n) => {
                                tx.queue[idx].state =
                                    FrameState::Delayed { until: now + n as u64 };
                                idx += 1;
                            }
                        }
                    }
                }
            }
        }
        ch.publish_backlog(!tx.queue.is_empty());
        done
    }

    /// Permanently fail a channel: mark it dead, fail every queued frame's
    /// completion counters with `fault`, and record the RAS event. Pollers
    /// of those counters observe completion-with-fault, never a hang.
    fn kill_channel(
        &self,
        rel: &Reliability,
        ch: &Channel,
        tx: &mut TxState,
        fault: DeliveryFault,
        now: u64,
    ) {
        tx.dead = Some(fault);
        ch.publish_dead();
        ch.publish_backlog(false);
        let n = tx.queue.len();
        let mut failed = 0;
        for f in &tx.queue {
            failed += f.fail(fault);
        }
        tx.queue.clear();
        // Frames parked in the receiver's reorder buffer died with the
        // channel (their bodies were still in the queue above).
        ch.rx.lock().buffer.clear();
        if n > 0 {
            rel.sub_pending(ch.src, n);
        }
        rel.ras.delivery_failures.add(failed);
        rel.ring.record(RasEvent {
            tick: now,
            kind: RasEventKind::DeliveryFailure,
            src_node: ch.src,
            dst_node: ch.dst,
            detail: fault as u64,
        });
    }

    /// Deposit one frame body at the destination — the data crossed the
    /// wire — without crediting the source completion counter (under
    /// selective repeat that happens when the cumulative ack arrives; see
    /// [`MuFabric::retire_through`]). Borrows the body because the frame
    /// stays queued until acked; the clones below are refcount bumps.
    fn deliver_body(&self, ch: &Channel, seq: u64, credit: u64, body: &FrameBody) {
        match body {
            FrameBody::Packet {
                rec_fifo,
                src_context,
                dispatch,
                metadata,
                msg_id,
                msg_len,
                offset,
                short,
                payload,
            } => {
                let dst = self.node(ch.dst);
                let mut pkt = MuPacket {
                    src_node: ch.src,
                    src_context: *src_context,
                    dispatch: *dispatch,
                    metadata: metadata.clone(),
                    msg_id: *msg_id,
                    msg_len: *msg_len,
                    offset: *offset,
                    link_seq: seq,
                    crc: 0,
                    short: *short,
                    payload: payload.clone(),
                };
                pkt.crc = pkt.compute_crc();
                let mut pkt = Some(pkt);
                self.deposit(ch.src, ch.dst, *rec_fifo, dst.rec.get(rec_fifo.0), 1, &mut |_| {
                    pkt.take().expect("one frame, one packet")
                });
                dst.counters.packets_received.incr();
            }
            FrameBody::Put { dst_region, dst_offset, payload, rec_counter } => {
                match payload {
                    PacketPayload::Inline(b) => dst_region.write(*dst_offset, b),
                    PacketPayload::Region { region, offset, len } => {
                        dst_region.copy_from(*dst_offset, region, *offset, *len);
                    }
                }
                self.node(ch.dst).counters.put_bytes_in.add(payload.len() as u64);
                if let Some(c) = rec_counter {
                    c.delivered(credit);
                }
            }
            FrameBody::Get { desc } => {
                let dst = self.node(ch.dst);
                dst.sys_inj.queue.push((**desc).clone());
                if let Some(w) = dst.sys_wakeup.get() {
                    w.touch();
                }
                if matches!(self.inner.mode, EngineMode::Threaded(_)) {
                    dst.engine_wakeup.touch();
                }
            }
            FrameBody::Rmw { win_key, dst_region, dst_offset, op, operand, compare, reply } => {
                // Exactly-once under retransmission: the channel's receive
                // verdict discards duplicate sequence numbers before this
                // runs, so a frame body applies at most once.
                let prior = self.inner.rmw_locks.apply(
                    *win_key,
                    dst_region,
                    *dst_offset,
                    *op,
                    *operand,
                    *compare,
                );
                if let Some(r) = reply {
                    r.region.write(r.offset, &prior.to_le_bytes());
                }
            }
        }
    }
}

impl Drop for FabricInner {
    fn drop(&mut self) {
        // Engine threads hold only a Weak fabric handle plus clones of the
        // shutdown flag and wakeup regions, so they can never keep the
        // fabric alive; raising the flag and touching the regions lets them
        // exit promptly (they also exit on their park timeout).
        self.shutdown.store(true, Ordering::SeqCst);
        for n in &self.nodes {
            n.engine_wakeup.touch();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgq_hw::Counter;
    use bgq_hw::MemRegion;
    use bytes::Bytes;

    fn small_fabric() -> MuFabric {
        MuFabric::builder(TorusShape::new([2, 2, 1, 1, 1])).build()
    }

    fn memfifo_desc(dst: u32, fifo: RecFifoId, payload: PayloadSource) -> Descriptor {
        Descriptor {
            dst_node: dst,
            dst_context: 0,
            src_context: 0,
            routing: bgq_torus::Routing::Deterministic,
            payload,
            kind: XferKind::MemoryFifo {
                rec_fifo: fifo,
                dispatch: 7,
                metadata: Bytes::new(),
                short: false,
            },
            inj_counter: None,
        }
    }

    #[test]
    fn memory_fifo_message_fragments_and_reassembles() {
        let fabric = small_fabric();
        let rec = fabric.alloc_rec_fifos(1, 1).unwrap()[0];
        let data: Vec<u8> = (0..1300).map(|i| (i % 251) as u8).collect();
        let region = MemRegion::from_vec(data.clone());
        fabric.execute(
            0,
            memfifo_desc(1, rec, PayloadSource::Region { region, offset: 0, len: 1300 }),
        );
        // 1300 bytes → 3 packets (512+512+276).
        let out = MemRegion::zeroed(1300);
        let mut count = 0;
        while let Some(mut p) = fabric.poll_rec(1, rec) {
            assert!(
                p.payload.view().is_empty(),
                "region payload stays in source memory until deposited"
            );
            assert_eq!(p.msg_len, 1300);
            assert_eq!(p.dispatch, 7);
            let off = p.offset as usize;
            p.payload.deposit(&out, off);
            count += 1;
        }
        assert_eq!(count, 3);
        assert_eq!(out.to_vec(), data);
        if cfg!(feature = "telemetry") {
            // Per-message probes are sampled: the first message on a lane
            // (sequence 0) accounts for a whole MU_PACKET_COUNTER_SAMPLE
            // window.
            assert_eq!(
                fabric.counters(1).packets_received.value(),
                3 * MU_PACKET_COUNTER_SAMPLE
            );
            assert_eq!(
                fabric.counters(0).packets_injected.value(),
                3 * MU_PACKET_COUNTER_SAMPLE
            );
            assert_eq!(fabric.counters(0).fifo_messages.value(), MU_PACKET_COUNTER_SAMPLE);
        }
    }

    #[test]
    fn region_eager_with_counter_stages_and_completes_at_injection() {
        // With a completion counter the MU reads the source buffer at
        // injection: local completion never depends on receiver progress,
        // and the buffer is genuinely reusable once the counter fires.
        let fabric = small_fabric();
        let rec = fabric.alloc_rec_fifos(1, 1).unwrap()[0];
        let region = MemRegion::from_vec(vec![7u8; 1000]);
        let local_done = Counter::new();
        local_done.add_expected(1000);
        let mut desc = memfifo_desc(
            1,
            rec,
            PayloadSource::Region { region: region.clone(), offset: 0, len: 1000 },
        );
        desc.inj_counter = Some(local_done.clone());
        fabric.execute(0, desc);
        assert!(
            local_done.is_complete(),
            "sender completion must not wait for receiver deposits"
        );
        // The buffer-reuse contract: overwriting the source after the
        // counter fires must not corrupt the in-flight message.
        region.fill(0, 1000, 0xEE);
        let dst = MemRegion::zeroed(1000);
        let mut count = 0;
        while let Some(mut p) = fabric.poll_rec(1, rec) {
            assert!(!p.payload.view().is_empty(), "DMA staged the bytes at injection");
            let off = p.offset as usize;
            p.payload.deposit(&dst, off);
            count += 1;
        }
        assert_eq!(count, 2);
        assert_eq!(dst.to_vec(), vec![7u8; 1000]);
        // The per-packet DMA reads are counted on the source node.
        if cfg!(feature = "telemetry") {
            assert_eq!(fabric.counters(0).payload_copies.value(), 2);
        }
    }

    #[test]
    fn region_eager_without_counter_is_zero_copy_until_deposit() {
        // With no completion counter there is no synchronization edge, so
        // the read of the source buffer is deferred to the receiver's
        // deposit: packets carry windows, not bytes — zero source-side
        // copies.
        let fabric = small_fabric();
        let rec = fabric.alloc_rec_fifos(1, 1).unwrap()[0];
        let data: Vec<u8> = (0..1000).map(|i| (i % 201) as u8).collect();
        let region = MemRegion::from_vec(data.clone());
        fabric.execute(
            0,
            memfifo_desc(1, rec, PayloadSource::Region { region, offset: 0, len: 1000 }),
        );
        assert_eq!(
            fabric.counters(0).payload_copies.value(),
            0,
            "no staging on the source node"
        );
        let dst = MemRegion::zeroed(1000);
        while let Some(mut p) = fabric.poll_rec(1, rec) {
            assert!(p.payload.view().is_empty(), "bytes still live in source memory");
            let off = p.offset as usize;
            p.payload.deposit(&dst, off);
        }
        assert_eq!(dst.to_vec(), data);
    }

    #[test]
    fn msg_ids_keep_node_bits_clean_of_sequence_overflow() {
        let fabric = small_fabric();
        let rec = fabric.alloc_rec_fifos(1, 1).unwrap()[0];
        // Force the fallback lane's sequence counter near the wrap boundary.
        fabric.inner.nodes[0]
            .msg_lane
            .msg_seq
            .store(crate::fifo::LANE_SEQ_MASK, Ordering::Relaxed);
        for _ in 0..2 {
            fabric.execute(0, memfifo_desc(1, rec, PayloadSource::Immediate(Bytes::new())));
        }
        let a = fabric.poll_rec(1, rec).unwrap();
        let b = fabric.poll_rec(1, rec).unwrap();
        assert_eq!(a.msg_id >> 40, 0, "node 0 in high bits");
        assert_eq!(b.msg_id >> 40, 0, "sequence wrap must not leak into node bits");
        assert_ne!(a.msg_id, b.msg_id);
        // Both ids sit on the NODE fallback lane (execute bypasses
        // injection FIFOs).
        let lane_of = |id: u64| (id >> crate::fifo::LANE_SHIFT) & 0x3ff;
        assert_eq!(lane_of(a.msg_id), crate::fifo::NODE_LANE as u64);
        assert_eq!(lane_of(b.msg_id), crate::fifo::NODE_LANE as u64);
    }

    #[test]
    fn fifo_routed_messages_mint_ids_on_their_own_lane() {
        let fabric = small_fabric();
        let inj = fabric.alloc_inj_fifos(0, 2).unwrap();
        let rec = fabric.alloc_rec_fifos(1, 1).unwrap()[0];
        for &f in &inj {
            fabric.inject(0, f, memfifo_desc(1, rec, PayloadSource::Immediate(Bytes::new())));
            assert_eq!(fabric.pump_inj(0, f, usize::MAX), 1);
        }
        let a = fabric.poll_rec(1, rec).unwrap();
        let b = fabric.poll_rec(1, rec).unwrap();
        let lane_of = |id: u64| (id >> crate::fifo::LANE_SHIFT) & 0x3ff;
        assert_eq!(lane_of(a.msg_id), inj[0].0 as u64, "first message on FIFO 0's lane");
        assert_eq!(lane_of(b.msg_id), inj[1].0 as u64, "second message on FIFO 1's lane");
        assert_ne!(a.msg_id, b.msg_id, "same per-lane seq (0), distinct lanes");
    }

    #[test]
    fn zero_byte_message_delivers_one_packet() {
        let fabric = small_fabric();
        let rec = fabric.alloc_rec_fifos(1, 1).unwrap()[0];
        fabric.execute(0, memfifo_desc(1, rec, PayloadSource::Immediate(Bytes::new())));
        let p = fabric.poll_rec(1, rec).expect("one packet");
        assert_eq!(p.msg_len, 0);
        assert!(p.is_first() && p.is_last());
        assert!(fabric.poll_rec(1, rec).is_none());
    }

    #[test]
    fn direct_put_writes_destination_and_counters() {
        let fabric = small_fabric();
        let src = MemRegion::from_vec((0..100).collect());
        let dst = MemRegion::zeroed(100);
        let inj = Counter::new();
        let rec = Counter::new();
        inj.add_expected(50);
        rec.add_expected(50);
        fabric.execute(
            0,
            Descriptor {
                dst_node: 1,
                dst_context: 0,
                src_context: 0,
                routing: bgq_torus::Routing::Dynamic,
                payload: PayloadSource::Region { region: src, offset: 10, len: 50 },
                kind: XferKind::DirectPut {
                    dst_region: dst.clone(),
                    dst_offset: 25,
                    rec_counter: Some(rec.clone()),
                },
                inj_counter: Some(inj.clone()),
            },
        );
        assert!(inj.is_complete());
        assert!(rec.is_complete());
        assert_eq!(&dst.to_vec()[25..75], &(10..60).collect::<Vec<u8>>()[..]);
        if cfg!(feature = "telemetry") {
            assert_eq!(fabric.counters(1).put_bytes_in.value(), 50);
        }
    }

    #[test]
    fn remote_get_round_trip_pulls_data_back() {
        let fabric = small_fabric();
        // Node 0 wants 64 bytes out of node 1's memory.
        let remote = MemRegion::from_vec((100..164).collect());
        let local = MemRegion::zeroed(64);
        let done = Counter::new();
        done.add_expected(64);
        let put_back = Descriptor {
            dst_node: 0,
            dst_context: 0,
            src_context: 0,
            routing: bgq_torus::Routing::Dynamic,
            payload: PayloadSource::Region { region: remote, offset: 0, len: 64 },
            kind: XferKind::DirectPut {
                dst_region: local.clone(),
                dst_offset: 0,
                rec_counter: Some(done.clone()),
            },
            inj_counter: None,
        };
        fabric.execute(
            0,
            Descriptor {
                dst_node: 1,
                dst_context: 0,
                src_context: 0,
                routing: bgq_torus::Routing::Deterministic,
                payload: PayloadSource::Immediate(Bytes::new()),
                kind: XferKind::RemoteGet { payload: Box::new(put_back) },
                inj_counter: None,
            },
        );
        assert!(!done.is_complete(), "no data until node 1 services the get");
        assert_eq!(fabric.pump_sys(1, 16), 1);
        assert!(done.is_complete());
        assert_eq!(local.to_vec(), (100..164).collect::<Vec<u8>>());
        if cfg!(feature = "telemetry") {
            assert_eq!(fabric.counters(1).remote_gets_serviced.value(), 1);
        }
    }

    #[test]
    fn inject_then_pump_preserves_order() {
        let fabric = small_fabric();
        let inj = fabric.alloc_inj_fifos(0, 1).unwrap()[0];
        let rec = fabric.alloc_rec_fifos(1, 1).unwrap()[0];
        for i in 0..20u8 {
            fabric.inject(
                0,
                inj,
                memfifo_desc(1, rec, PayloadSource::Immediate(Bytes::from(vec![i]))),
            );
        }
        assert!(fabric.poll_rec(1, rec).is_none(), "nothing moves until pumped");
        assert_eq!(fabric.pump_inj(0, inj, usize::MAX), 20);
        for i in 0..20u8 {
            let p = fabric.poll_rec(1, rec).expect("packet");
            assert_eq!(p.payload.view()[0], i, "in-order delivery");
        }
    }

    #[test]
    fn pump_budget_limits_descriptors() {
        let fabric = small_fabric();
        let inj = fabric.alloc_inj_fifos(0, 1).unwrap()[0];
        let rec = fabric.alloc_rec_fifos(1, 1).unwrap()[0];
        for _ in 0..10 {
            fabric.inject(0, inj, memfifo_desc(1, rec, PayloadSource::Immediate(Bytes::new())));
        }
        assert_eq!(fabric.pump_inj(0, inj, 3), 3);
        assert_eq!(fabric.pump_inj(0, inj, 100), 7);
    }

    #[test]
    fn fifo_allocation_is_per_node_and_bounded() {
        let fabric = small_fabric();
        assert!(fabric.alloc_inj_fifos(0, 544).is_some());
        assert!(fabric.alloc_inj_fifos(0, 1).is_none(), "node 0 exhausted");
        assert!(fabric.alloc_inj_fifos(1, 32).is_some(), "node 1 unaffected");
        assert!(fabric.alloc_rec_fifos(0, 272).is_some());
        assert!(fabric.alloc_rec_fifos(0, 1).is_none());
    }

    #[test]
    fn self_send_loops_back() {
        let fabric = small_fabric();
        let rec = fabric.alloc_rec_fifos(0, 1).unwrap()[0];
        fabric.execute(
            0,
            memfifo_desc(0, rec, PayloadSource::Immediate(Bytes::from_static(b"self"))),
        );
        let p = fabric.poll_rec(0, rec).unwrap();
        assert_eq!(p.payload.view(), b"self");
        assert_eq!(p.src_node, 0);
    }

    // ---- reliability-layer tests ---------------------------------------

    use crate::faults::{FaultRates, RetryConfig};
    use bgq_hw::DeliveryFault;

    fn reliable_fabric(plan: FaultPlan) -> MuFabric {
        MuFabric::builder(TorusShape::new([2, 2, 1, 1, 1])).fault_plan(plan).build()
    }

    /// Pump node 0's links until `done` completes (success or fault).
    fn pump_until_complete(fabric: &MuFabric, done: &Counter) {
        for _ in 0..10_000 {
            if done.is_complete() {
                return;
            }
            fabric.pump_links(0, usize::MAX);
        }
        panic!("counter never completed: retry protocol stalled");
    }

    #[test]
    fn clean_fault_plan_stays_synchronous_and_stamps_crc() {
        let fabric = reliable_fabric(FaultPlan::new().seed(7));
        assert!(fabric.reliable());
        let rec = fabric.alloc_rec_fifos(1, 1).unwrap()[0];
        fabric.execute(
            0,
            memfifo_desc(1, rec, PayloadSource::Immediate(Bytes::from_static(b"hello"))),
        );
        // No pump_links needed: a fault-free frame delivers synchronously,
        // exactly like the lossless path.
        let p = fabric.poll_rec(1, rec).expect("synchronous delivery");
        assert_eq!(p.payload.view(), b"hello");
        assert_ne!(p.crc, 0, "CRC stamped");
        assert!(p.verify_crc());
        assert!(fabric.links_idle(0));
        let ras = fabric.ras_counters();
        assert_eq!(ras.retransmits.value(), 0);
        assert_eq!(ras.crc_errors.value(), 0);
        // A short-tier envelope on a reliable channel is stamped too.
        let short = |f: &MuFabric, rec: RecFifoId| {
            f.send_short(0, None, 1, rec, 0, 5, Bytes::new(), Bytes::from_static(b"shrt"), None)
        };
        short(&fabric, rec);
        let p = fabric.poll_rec(1, rec).expect("synchronous delivery");
        assert!(p.short);
        assert_ne!(p.crc, 0, "reliable short packets are stamped");
        assert!(p.verify_crc());
        // On the lossless fabric an eager packet still pays the stamp; a
        // short-tier envelope, which nothing can touch in flight, does not.
        let fabric = small_fabric();
        let rec = fabric.alloc_rec_fifos(1, 1).unwrap()[0];
        fabric.execute(
            0,
            memfifo_desc(1, rec, PayloadSource::Immediate(Bytes::from_static(b"eager"))),
        );
        let p = fabric.poll_rec(1, rec).expect("synchronous delivery");
        assert!(!p.short);
        assert_ne!(p.crc, 0, "lossless eager packets are stamped");
        assert!(p.verify_crc());
        short(&fabric, rec);
        let p = fabric.poll_rec(1, rec).expect("synchronous delivery");
        assert!(p.short);
        assert_eq!(p.crc, 0, "lossless short packets are not stamped");
    }

    #[test]
    fn fate_peek_consumes_the_dice_exactly_as_the_queue() {
        // The oracle's peek must consume every (link, seq, attempt) die
        // exactly as the frame queue would. Plan A is uniform, so the
        // oracle peeks. Plan B adds a same-rate override on a link off the
        // 0 <-> 1 route, which disables the peek without changing any die
        // the route rolls, so every message queues. The same seeded stream
        // of 1- and 3-packet messages must leave the same fault history
        // and the same deliveries.
        type Run = (Vec<u64>, Vec<(u64, RasEventKind, u32, u32, u64)>, Vec<(u64, u64, bool)>);
        let off_route = bgq_torus::Dir { dim: bgq_torus::Dim::B, plus: true };
        let run = |queue_all: bool| -> Run {
            let mut plan = FaultPlan::new().seed(4242).drop_rate(0.01).corrupt_rate(0.01).retry(
                RetryConfig { window: 8, rto_ticks: 1, rto_max_ticks: 8, retry_budget: 64 },
            );
            if queue_all {
                let rates = FaultRates { drop: 0.01, corrupt: 0.01, ..FaultRates::default() };
                plan = plan.link_rates(2, off_route, rates);
            }
            let fabric = reliable_fabric(plan);
            let rel = fabric.inner.reliability.as_ref().unwrap();
            assert_eq!(rel.injector.uniform_thresholds().is_none(), queue_all);
            let rec = fabric.alloc_rec_fifos(1, 1).unwrap()[0];
            let mut delivered = Vec::new();
            let mut drain = |f: &MuFabric| {
                while let Some(p) = f.poll_rec(1, rec) {
                    delivered.push((p.msg_id, p.link_seq, p.short));
                }
            };
            for i in 0..600usize {
                if i % 4 == 1 {
                    let payload = Bytes::from(vec![i as u8; 64]);
                    fabric.send_short(0, None, 1, rec, 0, 5, Bytes::new(), payload, None);
                } else {
                    let len = if i % 3 == 0 { 1200 } else { 64 };
                    let payload = PayloadSource::Immediate(Bytes::from(vec![i as u8; len]));
                    fabric.execute(0, memfifo_desc(1, rec, payload));
                }
                fabric.pump_links(0, usize::MAX);
                drain(&fabric);
            }
            for _ in 0..10_000 {
                if fabric.links_idle(0) {
                    break;
                }
                fabric.pump_links(0, usize::MAX);
            }
            assert!(fabric.links_idle(0), "every frame acked");
            drain(&fabric);
            let ras = fabric.ras_counters();
            let counts = vec![
                ras.crc_errors.value(),
                ras.retransmits.value(),
                ras.sack_retransmits.value(),
                ras.reorder_depth.value(),
                ras.delivery_failures.value(),
                fabric.counters(0).packets_dropped.value(),
            ];
            let (events, _) = fabric.ras_events();
            let sig =
                events.iter().map(|e| (e.tick, e.kind, e.src_node, e.dst_node, e.detail)).collect();
            (counts, sig, delivered)
        };
        let peeked = run(false);
        let queued = run(true);
        assert_eq!(peeked.0, queued.0, "ras.* counts");
        assert_eq!(peeked.1, queued.1, "RAS event signatures");
        assert_eq!(peeked.2, queued.2, "delivered (msg_id, link_seq, short) sequence");
        // 150 three-packet messages and 450 one-packet ones.
        assert_eq!(peeked.2.len(), 150 * 3 + 450, "every packet exactly once");
        assert!(
            peeked.1.iter().any(|e| e.1 == RasEventKind::Retransmit),
            "the plan actually bit"
        );
    }

    #[test]
    fn drops_recover_via_retransmit_exactly_once() {
        let fabric = reliable_fabric(
            FaultPlan::new()
                .seed(42)
                .drop_rate(0.25)
                .retry(RetryConfig { window: 8, rto_ticks: 1, rto_max_ticks: 4, retry_budget: 64 }),
        );
        let rec = fabric.alloc_rec_fifos(1, 1).unwrap()[0];
        let data: Vec<u8> = (0..4096).map(|i| (i % 239) as u8).collect();
        let done = Counter::new();
        done.add_expected(4096);
        let mut desc = memfifo_desc(
            1,
            rec,
            PayloadSource::Region {
                region: MemRegion::from_vec(data.clone()),
                offset: 0,
                len: 4096,
            },
        );
        desc.inj_counter = Some(done.clone());
        fabric.execute(0, desc);
        pump_until_complete(&fabric, &done);
        assert!(done.is_ok(), "all frames eventually acked");
        // Exactly-once: every packet arrives once, reassembly is complete.
        let out = MemRegion::zeroed(4096);
        let mut count = 0;
        while let Some(mut p) = fabric.poll_rec(1, rec) {
            assert!(p.verify_crc());
            let off = p.offset as usize;
            p.payload.deposit(&out, off);
            count += 1;
        }
        assert_eq!(count, 8, "8 packets, no duplicates");
        assert_eq!(out.to_vec(), data);
        if cfg!(feature = "telemetry") {
            let ras = fabric.ras_counters();
            assert!(ras.retransmits.value() > 0, "a 25% drop rate must cost retransmits");
            assert!(
                fabric.counters(0).packets_dropped.value() > 0,
                "mu.packets_dropped is live under an injector"
            );
        }
        let (events, _) = fabric.ras_events();
        assert!(events.iter().any(|e| e.kind == RasEventKind::PacketDropped));
        assert!(events.iter().any(|e| e.kind == RasEventKind::Retransmit));
    }

    #[test]
    fn corruption_counts_crc_errors_and_recovers() {
        let fabric = reliable_fabric(
            FaultPlan::new()
                .seed(3)
                .corrupt_rate(0.3)
                .retry(RetryConfig { window: 8, rto_ticks: 1, rto_max_ticks: 4, retry_budget: 64 }),
        );
        let rec = fabric.alloc_rec_fifos(1, 1).unwrap()[0];
        let done = Counter::new();
        done.add_expected(2048);
        let mut desc =
            memfifo_desc(1, rec, PayloadSource::Immediate(Bytes::from(vec![5u8; 2048])));
        desc.inj_counter = Some(done.clone());
        fabric.execute(0, desc);
        pump_until_complete(&fabric, &done);
        assert!(done.is_ok());
        let mut count = 0;
        while fabric.poll_rec(1, rec).is_some() {
            count += 1;
        }
        assert_eq!(count, 4);
        if cfg!(feature = "telemetry") {
            assert!(fabric.ras_counters().crc_errors.value() > 0);
        }
        // The event ring is functional regardless of the telemetry feature.
        let (events, _) = fabric.ras_events();
        assert!(events.iter().any(|e| e.kind == RasEventKind::CrcError));
    }

    #[test]
    fn delayed_frames_release_after_their_ticks() {
        let fabric = reliable_fabric(FaultPlan::new().seed(11).delay_rate(1.0, 2));
        let rec = fabric.alloc_rec_fifos(1, 1).unwrap()[0];
        let done = Counter::new();
        done.add_expected(16);
        let mut desc = memfifo_desc(1, rec, PayloadSource::Immediate(Bytes::from(vec![1u8; 16])));
        desc.inj_counter = Some(done.clone());
        fabric.execute(0, desc);
        assert!(!done.is_complete(), "frame held back by the delay fault");
        assert!(!fabric.links_idle(0));
        pump_until_complete(&fabric, &done);
        assert!(done.is_ok());
        assert!(fabric.poll_rec(1, rec).is_some());
        assert!(fabric.links_idle(0));
    }

    #[test]
    fn retry_budget_exhaustion_fails_with_timeout_not_a_hang() {
        // Every link drops every frame: the channel must die after the
        // budget, failing the counter with Timeout instead of spinning.
        let fabric = reliable_fabric(
            FaultPlan::new()
                .seed(1)
                .drop_rate(1.0)
                .retry(RetryConfig { window: 4, rto_ticks: 1, rto_max_ticks: 2, retry_budget: 3 }),
        );
        let rec = fabric.alloc_rec_fifos(1, 1).unwrap()[0];
        let done = Counter::new();
        done.add_expected(100);
        let mut desc = memfifo_desc(1, rec, PayloadSource::Immediate(Bytes::from(vec![9u8; 100])));
        desc.inj_counter = Some(done.clone());
        fabric.execute(0, desc);
        pump_until_complete(&fabric, &done);
        assert_eq!(done.fault(), Some(DeliveryFault::Timeout));
        assert!(done.is_complete(), "failed counters still read complete");
        assert!(fabric.poll_rec(1, rec).is_none(), "nothing was delivered");
        assert!(fabric.links_idle(0), "dead channel holds no pending frames");
        if cfg!(feature = "telemetry") {
            assert!(fabric.ras_counters().delivery_failures.value() > 0);
        }
        let (events, _) = fabric.ras_events();
        assert!(events.iter().any(|e| e.kind == RasEventKind::DeliveryFailure));
        // A later transfer on the dead channel fails immediately.
        let late = Counter::new();
        late.add_expected(4);
        let mut desc2 = memfifo_desc(1, rec, PayloadSource::Immediate(Bytes::from(vec![0u8; 4])));
        desc2.inj_counter = Some(late.clone());
        fabric.execute(0, desc2);
        assert_eq!(late.fault(), Some(DeliveryFault::Timeout));
    }

    #[test]
    fn killed_link_reroutes_and_still_delivers() {
        let fabric = reliable_fabric(FaultPlan::new().seed(5));
        let rec = fabric.alloc_rec_fifos(1, 1).unwrap()[0];
        // Kill the link det_route would use for 0 -> 1.
        let shape = TorusShape::new([2, 2, 1, 1, 1]);
        let hops = bgq_torus::det_route(shape, shape.coords_of(0), shape.coords_of(1));
        assert_eq!(hops.len(), 1, "nodes 0 and 1 are torus neighbors");
        assert!(fabric.kill_link(0, hops[0]));
        assert!(!fabric.kill_link(0, hops[0]), "second kill is a no-op");
        if cfg!(feature = "telemetry") {
            assert_eq!(fabric.ras_counters().link_down.value(), 2, "both directions down");
        }
        let done = Counter::new();
        done.add_expected(64);
        let mut desc = memfifo_desc(1, rec, PayloadSource::Immediate(Bytes::from(vec![3u8; 64])));
        desc.inj_counter = Some(done.clone());
        fabric.execute(0, desc);
        pump_until_complete(&fabric, &done);
        assert!(done.is_ok(), "delivered via the detour");
        let p = fabric.poll_rec(1, rec).expect("rerouted packet");
        assert_eq!(p.payload.view(), &[3u8; 64][..]);
        if cfg!(feature = "telemetry") {
            assert!(fabric.ras_counters().reroutes.value() >= 1);
        }
        let (events, _) = fabric.ras_events();
        assert!(events.iter().any(|e| e.kind == RasEventKind::Reroute));
    }

    #[test]
    fn kill_schedule_fires_on_nth_crossing() {
        let shape = TorusShape::new([2, 2, 1, 1, 1]);
        let first = bgq_torus::det_route(shape, shape.coords_of(0), shape.coords_of(1))[0];
        // The 2nd frame over the link takes it down; the frame is lost and
        // must be retransmitted over the detour.
        let fabric = reliable_fabric(
            FaultPlan::new()
                .seed(9)
                .kill_link_at(0, first, 2)
                .retry(RetryConfig { window: 4, rto_ticks: 1, rto_max_ticks: 2, retry_budget: 8 }),
        );
        let rec = fabric.alloc_rec_fifos(1, 1).unwrap()[0];
        let done = Counter::new();
        done.add_expected(1024);
        let mut desc =
            memfifo_desc(1, rec, PayloadSource::Immediate(Bytes::from(vec![8u8; 1024])));
        desc.inj_counter = Some(done.clone());
        fabric.execute(0, desc);
        pump_until_complete(&fabric, &done);
        assert!(done.is_ok());
        let mut count = 0;
        while let Some(p) = fabric.poll_rec(1, rec) {
            assert!(p.verify_crc());
            count += 1;
        }
        assert_eq!(count, 2, "both packets delivered exactly once");
        if cfg!(feature = "telemetry") {
            let ras = fabric.ras_counters();
            assert_eq!(ras.link_down.value(), 2);
            assert!(ras.reroutes.value() >= 1);
        }
        let (events, _) = fabric.ras_events();
        assert!(events.iter().any(|e| e.kind == RasEventKind::LinkDown));
        assert!(events.iter().any(|e| e.kind == RasEventKind::Reroute));
    }

    #[test]
    fn unreachable_destination_fails_with_unreachable() {
        let fabric = reliable_fabric(FaultPlan::new().seed(2));
        let rec = fabric.alloc_rec_fifos(1, 1).unwrap()[0];
        // Sever every usable link out of node 0 (dims C/D/E have size 1).
        for dir in bgq_torus::ALL_DIMS.iter().flat_map(|&d| {
            [bgq_torus::Dir { dim: d, plus: true }, bgq_torus::Dir { dim: d, plus: false }]
        }) {
            fabric.kill_link(0, dir);
        }
        let done = Counter::new();
        done.add_expected(8);
        let mut desc = memfifo_desc(1, rec, PayloadSource::Immediate(Bytes::from(vec![0u8; 8])));
        desc.inj_counter = Some(done.clone());
        fabric.execute(0, desc);
        pump_until_complete(&fabric, &done);
        assert_eq!(done.fault(), Some(DeliveryFault::Unreachable));
    }

    #[test]
    fn direct_put_and_remote_get_survive_drops() {
        let fabric = reliable_fabric(
            FaultPlan::new()
                .seed(13)
                .drop_rate(0.3)
                .retry(RetryConfig { window: 8, rto_ticks: 1, rto_max_ticks: 4, retry_budget: 64 }),
        );
        let src = MemRegion::from_vec((0..200).map(|i| (i % 97) as u8).collect());
        let dst = MemRegion::zeroed(200);
        let recd = Counter::new();
        recd.add_expected(200);
        fabric.execute(
            0,
            Descriptor {
                dst_node: 1,
                dst_context: 0,
                src_context: 0,
                routing: bgq_torus::Routing::Dynamic,
                payload: PayloadSource::Region { region: src.clone(), offset: 0, len: 200 },
                kind: XferKind::DirectPut {
                    dst_region: dst.clone(),
                    dst_offset: 0,
                    rec_counter: Some(recd.clone()),
                },
                inj_counter: None,
            },
        );
        pump_until_complete(&fabric, &recd);
        assert!(recd.is_ok());
        assert_eq!(dst.to_vec(), src.to_vec());
        // Remote get: node 0 pulls from node 1 over the same lossy fabric.
        let remote = MemRegion::from_vec(vec![4u8; 64]);
        let local = MemRegion::zeroed(64);
        let got = Counter::new();
        got.add_expected(64);
        fabric.execute(
            0,
            Descriptor {
                dst_node: 1,
                dst_context: 0,
                src_context: 0,
                routing: bgq_torus::Routing::Deterministic,
                payload: PayloadSource::Immediate(Bytes::new()),
                kind: XferKind::RemoteGet {
                    payload: Box::new(Descriptor {
                        dst_node: 0,
                        dst_context: 0,
                        src_context: 0,
                        routing: bgq_torus::Routing::Dynamic,
                        payload: PayloadSource::Region { region: remote, offset: 0, len: 64 },
                        kind: XferKind::DirectPut {
                            dst_region: local.clone(),
                            dst_offset: 0,
                            rec_counter: Some(got.clone()),
                        },
                        inj_counter: None,
                    }),
                },
                inj_counter: None,
            },
        );
        for _ in 0..10_000 {
            if got.is_complete() {
                break;
            }
            fabric.pump_links(0, usize::MAX);
            fabric.pump_sys(1, 16);
            fabric.pump_links(1, usize::MAX);
        }
        assert!(got.is_ok(), "remote get completed under loss");
        assert_eq!(local.to_vec(), vec![4u8; 64]);
    }

    #[test]
    fn chaos_runs_replay_deterministically_per_seed() {
        type RunSig = ((u64, u64, u64), Vec<(RasEventKind, u32, u32)>);
        let run = |seed: u64| -> RunSig {
            let fabric = reliable_fabric(
                FaultPlan::new().seed(seed).drop_rate(0.2).corrupt_rate(0.1).retry(
                    RetryConfig { window: 8, rto_ticks: 1, rto_max_ticks: 4, retry_budget: 64 },
                ),
            );
            let rec = fabric.alloc_rec_fifos(1, 1).unwrap()[0];
            for i in 0..5u8 {
                let done = Counter::new();
                done.add_expected(1024);
                let mut desc = memfifo_desc(
                    1,
                    rec,
                    PayloadSource::Immediate(Bytes::from(vec![i; 1024])),
                );
                desc.inj_counter = Some(done.clone());
                fabric.execute(0, desc);
                pump_until_complete(&fabric, &done);
                assert!(done.is_ok());
            }
            let ras = fabric.ras_counters();
            let counters = (
                ras.retransmits.value(),
                ras.crc_errors.value(),
                fabric.counters(0).packets_dropped.value(),
            );
            // The event ring is functional with telemetry compiled out, so
            // the replay assertion stays meaningful in every build mode.
            let (events, _) = fabric.ras_events();
            let sig = events.iter().map(|e| (e.kind, e.src_node, e.dst_node)).collect();
            (counters, sig)
        };
        let a = run(1234);
        let b = run(1234);
        assert_eq!(a, b, "same seed, same fault history");
        assert!(
            a.1.iter().any(|&(k, _, _)| k == RasEventKind::Retransmit),
            "the scenario actually exercised retransmits"
        );
        if cfg!(feature = "telemetry") {
            assert!(a.0 .0 > 0, "retransmit counter moved");
        }
    }

    #[test]
    fn self_sends_bypass_the_reliability_layer() {
        let fabric = reliable_fabric(FaultPlan::new().seed(6).drop_rate(1.0));
        let rec = fabric.alloc_rec_fifos(0, 1).unwrap()[0];
        fabric.execute(
            0,
            memfifo_desc(0, rec, PayloadSource::Immediate(Bytes::from_static(b"loop"))),
        );
        let p = fabric.poll_rec(0, rec).expect("self-sends never traverse links");
        assert_eq!(p.payload.view(), b"loop");
        assert!(fabric.links_idle(0));
    }

    #[test]
    fn short_send_is_one_inline_packet_with_synchronous_completion() {
        let fabric = small_fabric();
        let rec = fabric.alloc_rec_fifos(1, 1).unwrap()[0];
        let done = Counter::new();
        done.add_expected(5);
        fabric.send_short(
            0,
            None,
            1,
            rec,
            3,
            9,
            Bytes::from_static(b"md"),
            Bytes::from_static(b"hello"),
            Some(done.clone()),
        );
        assert!(done.is_complete(), "short-tier completion is synchronous");
        let p = fabric.poll_rec(1, rec).unwrap();
        assert!(p.short, "envelope carries the short-tier flag");
        assert_eq!(p.src_context, 3);
        assert_eq!(p.dispatch, 9);
        assert_eq!(&p.metadata[..], b"md");
        assert_eq!(p.payload.view(), b"hello");
        assert_eq!(p.msg_len, 5);
        assert_eq!(p.offset, 0);
        assert!(fabric.poll_rec(1, rec).is_none(), "exactly one packet");
    }

    #[test]
    fn short_send_keeps_flag_through_reliable_channel() {
        let fabric = reliable_fabric(FaultPlan::new().seed(7));
        let rec = fabric.alloc_rec_fifos(1, 1).unwrap()[0];
        let done = Counter::new();
        done.add_expected(4);
        fabric.send_short(
            0,
            None,
            1,
            rec,
            0,
            5,
            Bytes::new(),
            Bytes::from_static(b"shrt"),
            Some(done.clone()),
        );
        assert!(done.is_complete());
        let p = fabric.poll_rec(1, rec).unwrap();
        assert!(p.short, "flag survives the fair-weather reliable path");
        assert_eq!(p.payload.view(), b"shrt");
    }

    #[test]
    fn revived_link_and_channel_carry_traffic_again() {
        let fabric = MuFabric::builder(TorusShape::new([2, 1, 1, 1, 1]))
            .fault_plan(FaultPlan::new().seed(1))
            .build();
        let rec = fabric.alloc_rec_fifos(1, 1).unwrap()[0];
        let xp = bgq_torus::Dir { dim: bgq_torus::Dim::A, plus: true };
        let xm = bgq_torus::Dir { dim: bgq_torus::Dim::A, plus: false };
        // Sever every route from node 0 to node 1 (a 2-node torus only has
        // the two A-dimension links).
        assert!(fabric.kill_link(0, xp));
        assert!(fabric.kill_link(0, xm));
        let doomed = Counter::new();
        doomed.add_expected(3);
        let mut desc =
            memfifo_desc(1, rec, PayloadSource::Immediate(Bytes::from_static(b"die")));
        desc.inj_counter = Some(doomed.clone());
        fabric.execute(0, desc);
        assert_eq!(
            doomed.fault(),
            Some(DeliveryFault::Unreachable),
            "no healthy route must fail the counter, not hang it"
        );
        // Repair: both links back up, then clear the dead channel.
        assert!(fabric.revive_link(0, xp));
        assert!(fabric.revive_link(0, xm));
        assert!(!fabric.revive_link(0, xp), "already up");
        assert!(fabric.revive_channel(0, 1), "channel was dead");
        assert!(!fabric.revive_channel(0, 1), "already alive");
        let ok = Counter::new();
        ok.add_expected(3);
        let mut desc =
            memfifo_desc(1, rec, PayloadSource::Immediate(Bytes::from_static(b"yay")));
        desc.inj_counter = Some(ok.clone());
        fabric.execute(0, desc);
        assert!(ok.is_ok(), "revived channel delivers again");
        let p = fabric.poll_rec(1, rec).unwrap();
        assert_eq!(p.payload.view(), b"yay");
        let (events, _) = fabric.ras_events();
        assert!(events.iter().any(|e| e.kind == RasEventKind::LinkRevived));
        assert!(events.iter().any(|e| e.kind == RasEventKind::ChannelRevived));
    }
}
