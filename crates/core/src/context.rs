//! PAMI contexts — the unit of thread parallelism.
//!
//! "Messaging operations are initiated and progressed in the context
//! independent of other co-existing contexts" (paper section III.B). Each
//! context owns, exclusively: a slice of the node's MU injection FIFOs
//! (destinations pinned across them by hash, preserving MPI ordering), one
//! MU reception FIFO, a shared-memory mailbox, a lock-free work queue for
//! cross-thread handoff, and a wakeup region commthreads park on.
//!
//! Thread contract, mirrored from the paper: [`Context::advance`] is
//! single-threaded per context — concurrent calls are detected with a
//! `try_lock` and simply make no progress (higher software either pins
//! threads to contexts, posts work with [`Context::post`], or brackets
//! shared use with [`Context::lock`]). Sends are initiated lock-free from
//! any thread: they only push onto MPSC queues.

use std::cell::Cell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use bgq_hw::{Counter, L2TicketMutex, MemRegion, WakeupRegion, WorkQueue};
use bgq_mu::{
    Descriptor, InjFifo, InjFifoId, MuPacket, PayloadSource, RecFifo, RecFifoId, XferKind,
};
use bgq_upc::{Histogram, Stamp, Upc};
use bytes::Bytes;
use parking_lot::{Mutex, RwLock};

use crate::aggr::{Aggregator, Frame};
use crate::endpoint::Endpoint;
use crate::error::{PamiError, PamiResult};
use crate::machine::Machine;
use crate::policy::{ProtoEvent, Protocol};
use crate::proto::{
    wire, SendArgs, ShmMailbox, ShmMsg, ShmPayload, DISPATCH_AGGR, DISPATCH_CHAN_REQ,
    DISPATCH_INTERNAL_BASE, DISPATCH_RZV_RTS,
};

thread_local! {
    /// Whether the current thread is a commthread-pool worker. Set by
    /// [`crate::commthread::CommThreadPool`]; used to split handoff-latency
    /// telemetry between `ctx.handoff_ns` (any advancing thread) and
    /// `commthread.handoff_ns` (commthread workers only).
    static IS_COMMTHREAD: Cell<bool> = const { Cell::new(false) };
}

/// Mark (or unmark) the calling thread as a commthread-pool worker.
pub(crate) fn set_commthread_marker(on: bool) {
    IS_COMMTHREAD.with(|c| c.set(on));
}

#[inline]
fn on_commthread() -> bool {
    IS_COMMTHREAD.with(|c| c.get())
}

/// Completion callback invoked on the advancing thread. The result is the
/// transfer's delivery outcome — `Ok(())` on success, `Err` when the
/// reliability layer failed the transfer (retry budget exhausted,
/// destination unreachable); the PAMI `pami_event_function` contract.
pub type CompletionFn = Box<dyn FnOnce(&Context, PamiResult<()>) + Send>;

/// Work item accepted by [`Context::post`].
pub type WorkFn = Box<dyn FnOnce(&Context) + Send>;

/// Header information handed to a dispatch handler.
#[derive(Debug, Clone)]
pub struct IncomingMsg {
    /// Originating endpoint.
    pub src: Endpoint,
    /// Dispatch id the sender targeted.
    pub dispatch: u16,
    /// Sender's dispatch metadata.
    pub metadata: Bytes,
    /// Total payload length of the message.
    pub len: u64,
}

/// A dispatch handler's decision about an incoming message.
pub enum Recv {
    /// The handler fully consumed the message from the bytes it was shown
    /// (only legal when those bytes were the whole payload).
    Done,
    /// Deposit the payload into `region` at `offset` and call `on_complete`
    /// once every byte has landed.
    Into {
        /// Destination buffer.
        region: MemRegion,
        /// Byte offset within the buffer.
        offset: usize,
        /// Completion callback (runs on the advancing thread).
        on_complete: CompletionFn,
    },
}

/// An active-message dispatch handler.
///
/// Called on the first packet of each message with the header info and the
/// payload bytes available so far (the whole payload for single-packet
/// messages; empty for rendezvous arrivals). Runs on the advancing thread;
/// it may send, post, and register state, but must not call `advance` or
/// block on communication.
pub type DispatchFn = Arc<dyn Fn(&Context, &IncomingMsg, &[u8]) -> Recv + Send + Sync>;

struct Reassembly {
    region: MemRegion,
    base_offset: usize,
    remaining: usize,
    on_complete: Option<CompletionFn>,
    /// Send-side stamp from the first packet's envelope; fed back to the
    /// protocol policy when the last byte lands.
    stamp: Stamp,
    total_len: usize,
}

/// A rendezvous receive waiting on its reception counter.
struct RzvPending {
    done: Counter,
    on_complete: Option<CompletionFn>,
    /// RTS send-side stamp — completion minus this is the full rendezvous
    /// round trip, the policy's rendezvous cost signal.
    stamp: Stamp,
    len: usize,
}

/// One-entry dispatch-handler memo: (dispatch generation, dispatch id,
/// handler). Lives in the advance state, so it is only ever touched by the
/// single advancing thread.
type HandlerMemo = (u64, u16, DispatchFn);

struct AdvanceState {
    /// Multi-packet eager messages being deposited, keyed by (source node,
    /// message id).
    reassembly: HashMap<(u32, u64), Reassembly>,
    /// Rendezvous receives waiting on their reception counters.
    rzv_pending: Vec<RzvPending>,
    /// Last handler resolved on the receive path. Flood traffic dispatches
    /// the same id back to back; the memo turns the per-message
    /// RwLock + hash + `Arc` clone into one atomic generation check.
    handler_memo: Option<HandlerMemo>,
    /// Reusable buffer for batched reception FIFO drains: packets are
    /// claimed in one queue transaction per advance, not one per packet.
    rec_scratch: Vec<MuPacket>,
}

/// Counter updates accumulated across one `advance` call and flushed once
/// at the end — batched "doorbell" updates instead of a shared-counter RMW
/// per packet.
#[derive(Default)]
struct BatchCounters {
    /// Messages dispatched to handlers (first packets, RTSs, shm messages).
    dispatched: u64,
    /// Receive-side payload copies deposited into destination buffers.
    copies: u64,
}

/// Per-advance budgets: how many items of each kind one `advance` call
/// processes before returning (keeps latency fair across devices).
const WORK_BUDGET: usize = 16;
const INJ_BUDGET: usize = 32;
const SYS_BUDGET: usize = 32;
const RECV_BUDGET: usize = 64;

/// Per-context `ctx.*` telemetry probes (plus the `commthread.handoff_ns`
/// histogram, which is *measured* here — at work execution — even though
/// commthreads are usually the ones draining the queue). Instances register
/// on the machine's [`Upc`]; snapshots sum across contexts. Every field is
/// a zero-sized no-op when the `telemetry` feature is off.
struct CtxProbes {
    /// `advance` calls (including fast-path returns).
    advance_calls: bgq_upc::Counter,
    /// `advance` calls that returned through the lock-free idle fast path.
    idle_fastpath_hits: bgq_upc::Counter,
    /// Events processed across all `advance` calls.
    advance_events: bgq_upc::Counter,
    /// Sends by protocol. The short tier and `send_immediate` share one
    /// probe — they are the same envelope path.
    sends_short: bgq_upc::Counter,
    /// Sends appended into aggregation buckets (`pami::aggr`).
    sends_aggr: bgq_upc::Counter,
    sends_eager: bgq_upc::Counter,
    sends_rzv: bgq_upc::Counter,
    sends_shm: bgq_upc::Counter,
    puts: bgq_upc::Counter,
    gets: bgq_upc::Counter,
    rmws: bgq_upc::Counter,
    /// First packets (or shm messages / RTSs) dispatched to handlers.
    messages_dispatched: bgq_upc::Counter,
    /// Posted work items executed.
    work_items: bgq_upc::Counter,
    /// Nanoseconds from `Context::post` to the work item running, when the
    /// advancing thread is a commthread-pool worker (the paper's
    /// commthread-handoff cost).
    handoff_ns: Histogram,
    /// Same post→execution latency, measured for *every* advancing thread
    /// (application threads draining their own queue included).
    ctx_handoff_ns: Histogram,
}

impl CtxProbes {
    fn new(upc: &Upc) -> Self {
        CtxProbes {
            advance_calls: upc.counter("ctx.advance_calls"),
            idle_fastpath_hits: upc.counter("ctx.idle_fastpath_hits"),
            advance_events: upc.counter("ctx.advance_events"),
            sends_short: upc.counter("ctx.sends_short"),
            sends_aggr: upc.counter("ctx.sends_aggr"),
            sends_eager: upc.counter("ctx.sends_eager"),
            sends_rzv: upc.counter("ctx.sends_rzv"),
            sends_shm: upc.counter("ctx.sends_shm"),
            puts: upc.counter("ctx.puts"),
            gets: upc.counter("ctx.gets"),
            rmws: upc.counter("ctx.rmws"),
            messages_dispatched: upc.counter("ctx.messages_dispatched"),
            work_items: upc.counter("ctx.work_items"),
            handoff_ns: upc.histogram("commthread.handoff_ns"),
            ctx_handoff_ns: upc.histogram("ctx.handoff_ns"),
        }
    }
}

/// A PAMI communication context.
pub struct Context {
    machine: Arc<Machine>,
    client: u16,
    task: u32,
    offset: u16,
    node: u32,
    rec_fifo_id: RecFifoId,
    rec_fifo: Arc<RecFifo>,
    inj_ids: Vec<InjFifoId>,
    /// Cached handles to this context's exclusive injection FIFOs —
    /// initiation and pumping never re-consult the fabric's FIFO table.
    inj_fifos: Vec<Arc<InjFifo>>,
    /// Cached handle to the node's system injection FIFO (emptiness probe
    /// for the idle fast path).
    sys_fifo: Arc<InjFifo>,
    mailbox: Arc<ShmMailbox>,
    wakeup: WakeupRegion,
    /// Posted work plus its post-time stamp for handoff-latency telemetry
    /// (the stamp is zero-sized with telemetry off).
    work: WorkQueue<(Stamp, WorkFn)>,
    dispatch: RwLock<HashMap<u16, DispatchFn>>,
    /// Bumped by [`Context::set_dispatch`]; invalidates the advance-side
    /// handler memo without the receive path ever taking the dispatch lock.
    dispatch_gen: AtomicU64,
    /// Pre-serialized wire envelope for the static flood case (zero stamp,
    /// empty metadata): per-send `Bytes` clone — a refcount bump on
    /// context-private memory — instead of a 12-byte heap allocation.
    flood_envelope: Bytes,
    advance_state: Mutex<AdvanceState>,
    /// Number of in-flight internal obligations (reassembly entries plus
    /// pending rendezvous receives). Written only under `advance_state`;
    /// read lock-free by [`Context::is_quiescent`] and the empty-fast-path
    /// in [`Context::advance`].
    pending_internal: AtomicUsize,
    /// Persistent-channel pairing ordinals, per peer endpoint: the n-th
    /// channel this context opens to a peer pairs with the n-th channel the
    /// peer opens back (see [`crate::channel::PersistentChannel`]).
    chan_ordinals: Mutex<HashMap<Endpoint, u64>>,
    /// Buffer offers received from peers ([`DISPATCH_CHAN_REQ`] arrivals),
    /// keyed by (peer endpoint, ordinal), waiting for the local side to
    /// bind its channel.
    chan_offers: Mutex<HashMap<(Endpoint, u64), crate::channel::ChanOffer>>,
    /// Small-message coalescing buckets (`pami::aggr`), present when the
    /// machine was built with [`crate::MachineBuilder::aggregation`].
    /// Appends run lock-free of the advance state; the age-bound flush
    /// runs inside `advance`.
    aggr: Option<Aggregator>,
    user_lock: L2TicketMutex,
    /// Cached `machine.policy().wants_feedback()`: when `false` (the
    /// static default) the send path writes a zero stamp and delivery
    /// never reads the clock or calls `observe` — zero per-message policy
    /// cost on the hot path.
    policy_feedback: bool,
    /// Snapshot of the policy's fixed `(aggr, short, limit)` ladder when it
    /// is destination-independent (the static default): `send` selects the
    /// protocol inline without the per-message virtual call.
    fixed_thresholds: Option<(usize, usize, usize)>,
    /// `ctx.*` telemetry probes, registered on the machine's UPC registry.
    probes: CtxProbes,
}

impl Context {
    pub(crate) fn create(
        machine: &Arc<Machine>,
        client: u16,
        task: u32,
        offset: u16,
    ) -> Arc<Context> {
        let node = machine.task_node(task);
        let wakeup = machine.wakeup_unit(node).region();
        let rec_fifo_id = machine
            .fabric()
            .alloc_rec_fifos(node, 1)
            .unwrap_or_else(|| panic!("node {node} out of MU reception FIFOs"))[0];
        let rec_fifo = machine.fabric().rec_fifo(node, rec_fifo_id);
        rec_fifo.set_wakeup(wakeup.clone());
        let inj_ids = machine
            .fabric()
            .alloc_inj_fifos(node, machine.inj_fifos_per_context)
            .unwrap_or_else(|| panic!("node {node} out of MU injection FIFOs"));
        let inj_fifos: Vec<Arc<InjFifo>> = inj_ids
            .iter()
            .map(|id| machine.fabric().inj_fifo(node, *id))
            .collect();
        let sys_fifo = machine.fabric().sys_fifo(node);
        let mailbox = Arc::new(ShmMailbox::new(512, wakeup.clone()));
        machine.register_endpoint(
            client,
            task,
            offset,
            crate::machine::EndpointAddr {
                rec_fifo: rec_fifo_id,
                mailbox: Arc::clone(&mailbox),
            },
        );
        Arc::new(Context {
            machine: Arc::clone(machine),
            client,
            task,
            offset,
            node,
            rec_fifo_id,
            rec_fifo,
            inj_ids,
            inj_fifos,
            sys_fifo,
            mailbox,
            wakeup,
            work: WorkQueue::with_capacity(256),
            dispatch: RwLock::new(HashMap::new()),
            dispatch_gen: AtomicU64::new(0),
            flood_envelope: wire::envelope(task, Stamp::from_ns(0), &[]),
            advance_state: Mutex::new(AdvanceState {
                reassembly: HashMap::new(),
                rzv_pending: Vec::new(),
                handler_memo: None,
                rec_scratch: Vec::with_capacity(RECV_BUDGET),
            }),
            pending_internal: AtomicUsize::new(0),
            chan_ordinals: Mutex::new(HashMap::new()),
            chan_offers: Mutex::new(HashMap::new()),
            aggr: machine.aggregation().map(|cfg| Aggregator::new(*cfg, machine.telemetry())),
            user_lock: L2TicketMutex::new(),
            policy_feedback: bgq_upc::ENABLED && machine.policy().wants_feedback(),
            fixed_thresholds: machine.policy().fixed_thresholds(),
            probes: CtxProbes::new(machine.telemetry()),
        })
    }

    // ---- identity --------------------------------------------------------

    /// The machine.
    pub fn machine(&self) -> &Arc<Machine> {
        &self.machine
    }

    /// Owning task.
    pub fn task(&self) -> u32 {
        self.task
    }

    /// Context offset within its client.
    pub fn offset(&self) -> u16 {
        self.offset
    }

    /// The node this context lives on.
    pub fn node(&self) -> u32 {
        self.node
    }

    /// This context's own endpoint.
    pub fn endpoint(&self) -> Endpoint {
        Endpoint { task: self.task, context: self.offset }
    }

    /// Numeric client id (registry key component).
    pub(crate) fn client_id(&self) -> u16 {
        self.client
    }

    /// This context's physical address — what the endpoint table maps to.
    /// Virtual endpoints alias it ([`Machine::register_virtual_endpoint`]).
    pub(crate) fn endpoint_addr(&self) -> crate::machine::EndpointAddr {
        crate::machine::EndpointAddr {
            rec_fifo: self.rec_fifo_id,
            mailbox: Arc::clone(&self.mailbox),
        }
    }

    /// The wakeup region covering this context's queues (commthreads park
    /// on it; [`Context::post`] and message arrivals touch it).
    pub fn wakeup_region(&self) -> &WakeupRegion {
        &self.wakeup
    }

    /// The context lock exposed to higher software (classic-MPI style
    /// serialization). PAMI itself never takes it.
    pub fn lock(&self) -> bgq_hw::mutex::L2TicketGuard<'_> {
        self.user_lock.lock()
    }

    // ---- dispatch ---------------------------------------------------------

    /// Register the active-message handler for `dispatch`.
    ///
    /// # Panics
    /// If `dispatch` is in the internal range (≥ 0xFF00).
    pub fn set_dispatch(&self, dispatch: u16, handler: DispatchFn) {
        assert!(dispatch < DISPATCH_INTERNAL_BASE, "dispatch id {dispatch:#x} is reserved");
        self.dispatch.write().insert(dispatch, handler);
        // Invalidate any advance-side handler memo.
        self.dispatch_gen.fetch_add(1, Ordering::Release);
    }

    fn handler(&self, dispatch: u16) -> DispatchFn {
        self.dispatch
            .read()
            .get(&dispatch)
            .unwrap_or_else(|| panic!("no handler registered for dispatch {dispatch}"))
            .clone()
    }

    /// Resolve the handler for `dispatch` through the advance state's
    /// one-entry memo. On a hit (same id, same dispatch-table generation)
    /// this is one acquire load — no RwLock, no hash, no `Arc` clone. The
    /// returned reference borrows the memo slot, which only the advancing
    /// thread touches.
    #[inline]
    fn resolve_handler<'a>(&self, memo: &'a mut Option<HandlerMemo>, dispatch: u16) -> &'a DispatchFn {
        let generation = self.dispatch_gen.load(Ordering::Acquire);
        let hit = matches!(memo, Some((g, d, _)) if *g == generation && *d == dispatch);
        if !hit {
            *memo = Some((generation, dispatch, self.handler(dispatch)));
        }
        &memo.as_ref().expect("memo just filled").2
    }

    // ---- initiation --------------------------------------------------------

    /// Post a work function to be executed by whichever thread advances
    /// this context next (commthread handoff). Lock-free; wakes parked
    /// commthreads.
    pub fn post(&self, work: WorkFn) {
        self.work.push((Stamp::now(), work));
        self.wakeup.touch();
    }

    /// Latency-optimized short send: the payload is copied immediately into
    /// the message and, when injection resources allow, moved now by the
    /// calling thread (`PAMI_Send_immediate`). Completes locally before
    /// returning.
    ///
    /// # Errors
    /// [`PamiError::TooLong`] if `payload` exceeds one packet (512 bytes) —
    /// callers fall back to [`Context::send`]. [`PamiError::Invalid`] for a
    /// reserved dispatch id, [`PamiError::UnknownEndpoint`] when `dest` was
    /// never created.
    pub fn send_immediate(
        &self,
        dest: Endpoint,
        dispatch: u16,
        metadata: &[u8],
        payload: &[u8],
    ) -> PamiResult<()> {
        if payload.len() > bgq_torus::packet::MAX_PAYLOAD_BYTES {
            return Err(PamiError::TooLong {
                len: payload.len(),
                max: bgq_torus::packet::MAX_PAYLOAD_BYTES,
            });
        }
        if dispatch >= DISPATCH_INTERNAL_BASE {
            return Err(PamiError::Invalid("dispatch id in the reserved range"));
        }
        // Endpoint failover: a failed-over destination re-targets its
        // standby (identity — one relaxed load — until a failover fires).
        let dest = Endpoint { task: self.machine.resolve_task(dest.task), ..dest };
        self.probes.sends_short.incr_pinned(self.offset as usize);
        // One-packet immediates ARE short-tier sends: one inline envelope,
        // no descriptor, no injection queue — and the delivery outcome
        // feeds the policy's *short* cost model through the short-flagged
        // packet instead of polluting the eager one.
        let stamp = self.send_stamp();
        let dest_node = self.machine.task_node(dest.task);
        // An immediate must not overtake records already coalescing for
        // the same destination: cut that bucket first (no-op when empty).
        self.flush_aggr_conflict(dest, dest_node);
        if dest_node == self.node {
            let addr = self.addr_of(dest)?;
            addr.mailbox.deliver(ShmMsg {
                src: self.endpoint(),
                dispatch,
                metadata: Bytes::copy_from_slice(metadata),
                stamp,
                payload: ShmPayload::Inline(Bytes::copy_from_slice(payload)),
            });
            return Ok(());
        }
        let rec_fifo = self.rec_fifo_of(dest)?;
        self.machine.fabric().send_short(
            self.node,
            None,
            dest_node,
            rec_fifo,
            self.offset,
            dispatch,
            self.envelope_for(stamp, metadata),
            Bytes::copy_from_slice(payload),
            None,
        );
        Ok(())
    }

    /// Active-message send. Short messages go eager over the memory-FIFO
    /// path (or the shared-memory inline path on-node); messages above the
    /// eager limit use the rendezvous remote-get protocol (or the
    /// global-VA single-copy path on-node). `args.local_done` fires once
    /// the payload has left the source buffer; under a fault plan it can
    /// instead *fail* with a [`bgq_hw::DeliveryFault`] when the reliability
    /// layer gives up on the destination.
    ///
    /// # Errors
    /// [`PamiError::Invalid`] for a reserved dispatch id,
    /// [`PamiError::UnknownEndpoint`] when the destination was never
    /// created. Delivery failures are reported asynchronously through
    /// `args.local_done`, never from this call.
    pub fn send(&self, args: SendArgs) -> PamiResult<()> {
        if args.dispatch >= DISPATCH_INTERNAL_BASE {
            return Err(PamiError::Invalid("dispatch id in the reserved range"));
        }
        // Endpoint failover remap, ahead of node/FIFO/policy resolution.
        let mut args = args;
        args.dest.task = self.machine.resolve_task(args.dest.task);
        let dest_node = self.machine.task_node(args.dest.task);
        if dest_node == self.node {
            // On-node sends never coalesce (the mailbox is already one
            // hop), but they must not overtake a bucket a failover left
            // pointing at this node.
            self.flush_aggr_conflict(args.dest, dest_node);
            self.probes.sends_shm.incr_pinned(self.offset as usize);
            return self.send_shm(args);
        }
        let rec_fifo = self.rec_fifo_of(args.dest)?;
        let len = args.payload.len();
        let mut proto = match self.fixed_thresholds {
            // Destination-independent ladder: pick inline, no virtual call.
            Some((aggr, short, limit)) => {
                if aggr > 0 && len <= aggr {
                    Protocol::Aggregated
                } else if short > 0 && len <= short {
                    Protocol::Short
                } else if len <= limit {
                    Protocol::Eager
                } else {
                    Protocol::Rendezvous
                }
            }
            None => self.machine.policy().select(args.dest.task, len),
        };
        if proto == Protocol::Aggregated {
            match &self.aggr {
                Some(aggr) if aggr.record_fits(args.metadata.len(), len) => {
                    // Append into the destination's coalescing bucket; any
                    // frame the append cuts (fill) is injected here, under
                    // the aggregator lock, so frames leave in cut order.
                    // The payload is copied out now, so local completion
                    // is immediate — same credit rule as the inline shm
                    // path.
                    self.probes.sends_aggr.incr_pinned(self.offset as usize);
                    let key = self.aggr_key(args.dest, dest_node);
                    // Borrow the payload bytes in place: the append copies
                    // them into the bucket, so the immediate path needs no
                    // refcount round-trip and the region path materializes
                    // exactly once.
                    let region_copy;
                    let payload: &[u8] = match &args.payload {
                        PayloadSource::Immediate(b) => b,
                        other => {
                            region_copy = other.to_bytes();
                            &region_copy
                        }
                    };
                    let opened = aggr.append(
                        key,
                        args.dest,
                        args.dispatch,
                        &args.metadata,
                        payload,
                        || self.first_hop_class_of(key),
                        |f| self.send_aggr_frame(f),
                    );
                    if let Some(c) = args.local_done {
                        c.delivered(if len == 0 { 1 } else { len as u64 });
                    }
                    if opened {
                        // First record of a fresh bucket: commthreads park
                        // on the wakeup region, and one of them (or the
                        // app's own advance) must run this bucket's
                        // age-bound flush. Later appends move no deadline
                        // and skip the wakeup.
                        self.wakeup.touch();
                    }
                    return Ok(());
                }
                Some(aggr) => {
                    // Record too big for a frame (oversize metadata): take
                    // the direct short path. The generic conflict flush
                    // below keeps it behind the bucket.
                    aggr.probes.oversize.incr();
                    proto = Protocol::Short;
                }
                // A custom policy said "aggregate" on a machine without
                // the layer: degrade to short.
                None => proto = Protocol::Short,
            }
        }
        // Ordering: a non-aggregated send must not overtake records still
        // coalescing for the same destination — cut that bucket first.
        self.flush_aggr_conflict(args.dest, dest_node);
        let stamp = self.send_stamp();
        match proto {
            Protocol::Short if len <= bgq_torus::packet::MAX_PAYLOAD_BYTES => {
                self.probes.sends_short.incr_pinned(self.offset as usize);
                let metadata = self.envelope_for(stamp, &args.metadata);
                self.send_short_tier(
                    args.dest,
                    dest_node,
                    rec_fifo,
                    args.dispatch,
                    metadata,
                    args.payload,
                    args.local_done,
                );
            }
            Protocol::Short | Protocol::Eager => {
                self.probes.sends_eager.incr_pinned(self.offset as usize);
                let desc = Descriptor {
                    dst_node: dest_node,
                    dst_context: args.dest.context,
                    src_context: self.offset,
                    routing: bgq_torus::Routing::Deterministic,
                    payload: args.payload,
                    kind: XferKind::MemoryFifo {
                        rec_fifo,
                        dispatch: args.dispatch,
                        metadata: self.envelope_for(stamp, &args.metadata),
                        short: false,
                    },
                    inj_counter: args.local_done,
                };
                self.inject_to(args.dest.task, desc);
            }
            Protocol::Rendezvous => {
                // Rendezvous: register the source, send an RTS; the target
                // pulls the payload with a remote get.
                self.probes.sends_rzv.incr_pinned(self.offset as usize);
                let key = self.machine.rzv_register(args.payload, args.local_done);
                let rts = wire::rts(args.dispatch, len as u64, key, &args.metadata);
                let desc = Descriptor {
                    dst_node: dest_node,
                    dst_context: args.dest.context,
                    src_context: self.offset,
                    routing: bgq_torus::Routing::Deterministic,
                    payload: PayloadSource::Immediate(Bytes::new()),
                    kind: XferKind::MemoryFifo {
                        rec_fifo,
                        dispatch: DISPATCH_RZV_RTS,
                        metadata: wire::envelope(self.task, stamp, &rts),
                        short: false,
                    },
                    inj_counter: None,
                };
                self.inject_to(args.dest.task, desc);
            }
            Protocol::Aggregated => unreachable!("aggregated sends return from the append arm"),
        }
        Ok(())
    }

    /// One-sided put into a registered window on another task's node — an
    /// RDMA write. `args.local_done` fires when the source bytes have been
    /// read; the window's own counter fires on the target as bytes land.
    ///
    /// # Errors
    /// [`PamiError::UnknownWindow`] when `args.window` does not resolve.
    pub fn put(&self, args: crate::proto::PutArgs) -> PamiResult<()> {
        let crate::proto::PutArgs { dest_task, window, payload, local_done } = args;
        let dest_task = self.machine.resolve_task(dest_task);
        self.probes.puts.incr_pinned(self.offset as usize);
        let win =
            self.machine.window(window.key).ok_or(PamiError::UnknownWindow(window.key.0))?;
        let desc = Descriptor {
            dst_node: self.machine.task_node(dest_task),
            dst_context: 0,
            src_context: self.offset,
            routing: bgq_torus::Routing::Dynamic,
            payload,
            kind: XferKind::DirectPut {
                dst_region: win.region,
                dst_offset: window.offset,
                rec_counter: win.counter,
            },
            inj_counter: local_done,
        };
        self.inject_to(dest_task, desc);
        Ok(())
    }

    /// One-sided get from a registered window on another task's node into
    /// a local slot — an RDMA read. `args.done` fires (by `len`, or 1 for
    /// empty) when the data has landed locally.
    ///
    /// # Errors
    /// [`PamiError::UnknownWindow`] when `args.window` does not resolve.
    pub fn get(&self, args: crate::proto::GetArgs) -> PamiResult<()> {
        let crate::proto::GetArgs { dest_task, window, dst, len, done } = args;
        let dest_task = self.machine.resolve_task(dest_task);
        self.probes.gets.incr_pinned(self.offset as usize);
        let win =
            self.machine.window(window.key).ok_or(PamiError::UnknownWindow(window.key.0))?;
        let put_back = Descriptor {
            dst_node: self.node,
            dst_context: self.offset,
            src_context: self.offset,
            routing: bgq_torus::Routing::Dynamic,
            payload: PayloadSource::Region { region: win.region, offset: window.offset, len },
            kind: XferKind::DirectPut {
                dst_region: dst.region,
                dst_offset: dst.offset,
                rec_counter: done,
            },
            inj_counter: None,
        };
        let desc = Descriptor {
            dst_node: self.machine.task_node(dest_task),
            dst_context: 0,
            src_context: self.offset,
            routing: bgq_torus::Routing::Deterministic,
            payload: PayloadSource::Immediate(Bytes::new()),
            kind: XferKind::RemoteGet { payload: Box::new(put_back) },
            inj_counter: None,
        };
        self.inject_to(dest_task, desc);
        Ok(())
    }

    /// Remote atomic read-modify-write (fetch-add / compare-swap / min /
    /// max) against an 8-byte little-endian word in a registered window on
    /// another task's node. The operation applies atomically at the
    /// target; the prior value is written to `args.result` (when given)
    /// and `args.done` fires by [`Descriptor::ZERO_LEN_CREDIT`] once both
    /// are in place.
    ///
    /// With [`crate::MachineBuilder::combining`] enabled, fetch-adds to
    /// the same (window, offset) coalesce at every torus hop on the way to
    /// the target — N hot-key requesters reach the root as O(log N)
    /// combined packets, and each still observes a prior value consistent
    /// with some serial order (the overlay decombines by prefix sum).
    ///
    /// # Errors
    /// [`PamiError::UnknownWindow`] when `args.window` does not resolve.
    pub fn rmw(&self, args: crate::proto::RmwArgs) -> PamiResult<()> {
        let crate::proto::RmwArgs { dest_task, window, op, operand, compare, result, done } =
            args;
        let dest_task = self.machine.resolve_task(dest_task);
        self.probes.rmws.incr_pinned(self.offset as usize);
        let win =
            self.machine.window(window.key).ok_or(PamiError::UnknownWindow(window.key.0))?;
        let desc = Descriptor {
            dst_node: self.machine.task_node(dest_task),
            dst_context: 0,
            src_context: self.offset,
            routing: bgq_torus::Routing::Deterministic,
            payload: PayloadSource::Immediate(Bytes::new()),
            kind: XferKind::Rmw {
                win_key: window.key.0,
                dst_region: win.region,
                dst_offset: window.offset,
                op,
                operand,
                compare,
                reply: result.map(|s| bgq_mu::RmwReply { region: s.region, offset: s.offset }),
            },
            inj_counter: done,
        };
        self.inject_to(dest_task, desc);
        Ok(())
    }

    // ---- aggregation ------------------------------------------------------

    /// Cut every open coalescing bucket now and inject the frames
    /// (`pami::aggr`'s explicit flush). Frames leave grouped by the
    /// dimension-ordered first hop of their destination. Returns the
    /// number of frames injected; 0 when aggregation is off or idle.
    pub fn flush_aggr(&self) -> usize {
        match &self.aggr {
            Some(aggr) => aggr.flush_all(|f| self.send_aggr_frame(f)),
            None => 0,
        }
    }

    /// Buffered (appended, not yet injected) aggregated records.
    pub fn aggr_pending(&self) -> usize {
        self.aggr.as_ref().map_or(0, |a| a.pending())
    }

    /// The bucket key a send to `dest` coalesces under: the endpoint
    /// itself, or — in node-bucket (TRAM intermediate) mode — the lead
    /// endpoint of the destination node, so every task behind the same
    /// dimension-ordered first hop shares one bucket.
    fn aggr_key(&self, dest: Endpoint, dest_node: u32) -> Endpoint {
        match &self.aggr {
            Some(a) if a.config().node_buckets => {
                Endpoint { task: self.machine.node_tasks(dest_node).start, context: 0 }
            }
            _ => dest,
        }
    }

    /// Conflict flush: cut `dest`'s bucket (if open) so a non-aggregated
    /// message cannot overtake records buffered before it. One lock-free
    /// load when nothing is buffered anywhere.
    #[inline]
    fn flush_aggr_conflict(&self, dest: Endpoint, dest_node: u32) {
        if let Some(aggr) = &self.aggr {
            if aggr.pending() > 0 {
                let key = self.aggr_key(dest, dest_node);
                aggr.flush_conflict(key, |f| self.send_aggr_frame(f));
            }
        }
    }

    /// Dimension-ordered first-hop class of the route to `dest` — the
    /// TRAM-style grouping key for flush emission order.
    fn first_hop_class_of(&self, dest: Endpoint) -> u8 {
        let shape = self.machine.shape();
        let dst_node = self.machine.task_node(self.machine.resolve_task(dest.task));
        bgq_torus::first_hop_class(
            shape,
            shape.coords_of(self.node as usize),
            shape.coords_of(dst_node as usize),
        )
    }

    /// Inject one cut frame: a single short-tier packet under the internal
    /// [`DISPATCH_AGGR`] id, on the destination's pinned injection FIFO —
    /// the same FIFO (and, under a fault plan, the same selective-repeat
    /// channel) direct sends to that destination use, which is what keeps
    /// per-(src,dst) order and exactly-once for every record inside.
    /// Failover is resolved at emit time, so a bucket opened before a
    /// failover lands on the standby; an unknown destination drops the
    /// frame (its records were accepted against an endpoint that no longer
    /// exists).
    fn send_aggr_frame(&self, frame: Frame) {
        let addressed =
            self.aggr.as_ref().expect("frame emitted without an aggregator").config().node_buckets;
        let task = self.machine.resolve_task(frame.dest.task);
        let dest = Endpoint { task, context: frame.dest.context };
        let dest_node = self.machine.task_node(task);
        let stamp = self.send_stamp();
        let hdr = crate::aggr::frame_header(frame.count, addressed);
        if dest_node == self.node {
            // Post-failover edge: the bucket's destination now lives on
            // this node. The frame rides the mailbox; `handle_shm`
            // unbatches it.
            if let Ok(addr) = self.addr_of(dest) {
                addr.mailbox.deliver(ShmMsg {
                    src: self.endpoint(),
                    dispatch: DISPATCH_AGGR,
                    metadata: Bytes::copy_from_slice(&hdr),
                    stamp,
                    payload: ShmPayload::Inline(frame.payload),
                });
            }
            return;
        }
        let Ok(rec_fifo) = self.rec_fifo_of(dest) else { return };
        let metadata = wire::envelope(self.task, stamp, &hdr);
        // A frame is always one packet (`MachineBuilder::aggregation` caps
        // `max_frame` at the packet payload).
        debug_assert!(frame.payload.len() <= bgq_torus::packet::MAX_PAYLOAD_BYTES);
        self.send_short_tier(
            dest,
            dest_node,
            rec_fifo,
            DISPATCH_AGGR,
            metadata,
            PayloadSource::Immediate(frame.payload),
            None,
        );
    }

    /// Send one short-tier envelope on `dest`'s pinned injection FIFO.
    /// When the FIFO is quiescent — nothing queued, no pump mid-pop —
    /// ordering lets the message skip the injection queue entirely: one
    /// inline envelope, no descriptor, no completion-counter allocation,
    /// no fragment loop (immediate bytes move into the envelope; a region
    /// source is read once here). Otherwise earlier traffic is still
    /// queued, and a short-flagged descriptor queues behind it, which
    /// keeps the per-destination ordering rule.
    #[inline]
    #[allow(clippy::too_many_arguments)]
    fn send_short_tier(
        &self,
        dest: Endpoint,
        dest_node: u32,
        rec_fifo: RecFifoId,
        dispatch: u16,
        metadata: Bytes,
        payload: PayloadSource,
        local_done: Option<Counter>,
    ) {
        let fifo = &self.inj_fifos[dest.task as usize % self.inj_fifos.len()];
        if fifo.is_quiescent() {
            let payload = match payload {
                PayloadSource::Immediate(b) => b,
                region => region.to_bytes(),
            };
            self.machine.fabric().send_short(
                self.node,
                Some(fifo),
                dest_node,
                rec_fifo,
                self.offset,
                dispatch,
                metadata,
                payload,
                local_done,
            );
        } else {
            let desc = Descriptor {
                dst_node: dest_node,
                dst_context: dest.context,
                src_context: self.offset,
                routing: bgq_torus::Routing::Deterministic,
                payload,
                kind: XferKind::MemoryFifo { rec_fifo, dispatch, metadata, short: true },
                inj_counter: local_done,
            };
            fifo.queue.push(desc);
        }
    }

    /// Unbatch one aggregated frame: walk its records and dispatch each
    /// through the handler memo exactly as if it had arrived as its own
    /// short message. Addressed (node-bucket) records whose endpoint is
    /// not this context forward over the node's shared-memory mailboxes.
    /// Returns the number of records dispatched inline.
    fn unbatch_aggr_frame(
        &self,
        memo: &mut Option<HandlerMemo>,
        src: Endpoint,
        stamp: Stamp,
        hdr: &[u8],
        payload: Bytes,
    ) -> u64 {
        let (count, addressed) = crate::aggr::open_frame_header(hdr);
        let mut inline = 0u64;
        let mut forwarded = 0u64;
        // Borrowed record walk: handlers dispatch straight from the frame
        // buffer with zero refcount traffic; only forwarded records (and
        // non-empty metadata) pay a zero-copy `Bytes::slice`.
        bgq_mu::batch::walk_records(&payload, count, addressed, |rec| {
            match rec.dest {
                Some((task, context))
                    if !(task == self.task && context == self.offset) =>
                {
                    // A sibling endpoint's record: one mailbox hop.
                    let dest = Endpoint { task, context };
                    if let Ok(addr) = self.addr_of(dest) {
                        let meta_end = rec.meta_at + rec.metadata.len();
                        addr.mailbox.deliver(ShmMsg {
                            src,
                            dispatch: rec.dispatch,
                            metadata: payload.slice(rec.meta_at..meta_end),
                            stamp,
                            payload: ShmPayload::Inline(
                                payload.slice(meta_end..meta_end + rec.payload.len()),
                            ),
                        });
                        forwarded += 1;
                    }
                }
                _ => {
                    let msg = IncomingMsg {
                        src,
                        dispatch: rec.dispatch,
                        metadata: if rec.metadata.is_empty() {
                            Bytes::new()
                        } else {
                            payload.slice(rec.meta_at..rec.meta_at + rec.metadata.len())
                        },
                        len: rec.payload.len() as u64,
                    };
                    let handler = self.resolve_handler(memo, rec.dispatch);
                    match handler(self, &msg, rec.payload) {
                        Recv::Done => {}
                        Recv::Into { region, offset, on_complete } => {
                            region.write(offset, rec.payload);
                            on_complete(self, Ok(()));
                        }
                    }
                    inline += 1;
                }
            }
        });
        if let Some(aggr) = &self.aggr {
            aggr.probes.unbatched.add(inline + forwarded);
            if forwarded > 0 {
                aggr.probes.forwarded.add(forwarded);
            }
        }
        inline
    }

    /// Injection-FIFO pinning: every message to `dest_task` from this
    /// context uses the same FIFO, "so that the same FIFO is used every
    /// time for a given destination" — the ordering rule.
    fn inject_to(&self, dest_task: u32, desc: Descriptor) {
        // Cached-handle injection: no FIFO-table lookup on the send path.
        let fifo = &self.inj_fifos[dest_task as usize % self.inj_fifos.len()];
        fifo.queue.push(desc);
    }

    /// Resolve `dest` to its physical address, typed-error on miss. The
    /// machine's dense endpoint cache answers without the registry RwLock;
    /// only out-of-envelope endpoints (clients beyond the first, context
    /// offsets ≥ 16, very large machines) fall back to the map.
    fn addr_of(&self, dest: Endpoint) -> PamiResult<crate::machine::EndpointAddr> {
        if let Some(addr) = self.machine.endpoint_addr_fast(self.client, dest.task, dest.context) {
            return Ok(addr.clone());
        }
        self.machine
            .endpoint_addr(self.client, dest.task, dest.context)
            .ok_or(PamiError::UnknownEndpoint { task: dest.task, context: dest.context })
    }

    /// Resolve just the destination's reception FIFO id — the only piece of
    /// the address the off-node eager/rendezvous path needs. Cache hits are
    /// one index + acquire load and copy out a plain id: no lock, no hash,
    /// and no `Arc` refcount RMW on a cacheline shared with other senders.
    #[inline]
    fn rec_fifo_of(&self, dest: Endpoint) -> PamiResult<RecFifoId> {
        if let Some(addr) = self.machine.endpoint_addr_fast(self.client, dest.task, dest.context) {
            return Ok(addr.rec_fifo);
        }
        self.machine
            .endpoint_addr(self.client, dest.task, dest.context)
            .map(|a| a.rec_fifo)
            .ok_or(PamiError::UnknownEndpoint { task: dest.task, context: dest.context })
    }

    /// Wire envelope for `metadata`. Under a feedback-free policy the stamp
    /// is always zero, so the empty-metadata envelope is a per-context
    /// constant — clone the pre-built one instead of serializing 12 bytes
    /// into a fresh allocation per message.
    #[inline]
    fn envelope_for(&self, stamp: Stamp, metadata: &[u8]) -> Bytes {
        if metadata.is_empty() && !self.policy_feedback {
            self.flood_envelope.clone()
        } else {
            wire::envelope(self.task, stamp, metadata)
        }
    }

    fn send_shm(&self, args: SendArgs) -> PamiResult<()> {
        let addr = self.addr_of(args.dest)?;
        let len = args.payload.len();
        let stamp = self.send_stamp();
        // On-node, short, eager and would-be-aggregated are the same
        // inline mailbox path; only rendezvous-class payloads take the
        // global-VA single-copy route.
        let eager = matches!(
            self.machine.policy().select(args.dest.task, len),
            Protocol::Short | Protocol::Eager | Protocol::Aggregated
        );
        let payload = if eager {
            let bytes = args.payload.to_bytes();
            if let Some(c) = args.local_done {
                c.delivered(if len == 0 { 1 } else { len as u64 });
            }
            ShmPayload::Inline(bytes)
        } else {
            match args.payload {
                PayloadSource::Region { region, offset, len } => {
                    // Publish the source buffer in the CNK global-VA table;
                    // the receiver resolves and copies directly from it.
                    let local_rank = self.machine.task_local_rank(self.task);
                    let va = self.machine.global_va(self.node);
                    let id = va.publish(local_rank, region);
                    ShmPayload::GlobalVa {
                        addr: bgq_hw::GlobalAddress { local_rank, region: id, offset },
                        len,
                        done: args.local_done,
                    }
                }
                PayloadSource::Immediate(b) => {
                    if let Some(c) = args.local_done {
                        c.delivered(b.len().max(1) as u64);
                    }
                    ShmPayload::Inline(b)
                }
            }
        };
        addr.mailbox.deliver(ShmMsg {
            src: self.endpoint(),
            dispatch: args.dispatch,
            metadata: Bytes::from(args.metadata),
            stamp,
            payload,
        });
        Ok(())
    }

    // ---- progress ---------------------------------------------------------

    /// Advance this context: run posted work, pump injection, service the
    /// node's system FIFO, dispatch received MU packets and shared-memory
    /// messages, and fire completed rendezvous callbacks. Returns the
    /// number of events processed. Concurrent calls are safe; the loser
    /// makes no progress and returns 0.
    pub fn advance(&self) -> usize {
        // Empty fast path: when every queue this context drains is
        // observably empty, return without taking the advance lock at all —
        // the polling-loop cost the paper's latency numbers depend on.
        let pin = self.offset as usize;
        self.probes.advance_calls.incr_pinned(pin);
        if self.observably_idle() {
            self.probes.idle_fastpath_hits.incr_pinned(pin);
            return 0;
        }
        let Some(mut st) = self.advance_state.try_lock() else {
            return 0;
        };
        let events = self.advance_locked(&mut st);
        self.probes.advance_events.add_pinned(pin, events as u64);
        events
    }

    /// Lock-free probe of every queue `advance` would drain. `true` means a
    /// full `advance` would process zero events right now.
    #[inline]
    fn observably_idle(&self) -> bool {
        self.work.is_empty()
            && self.rec_fifo.is_empty()
            && self.mailbox.queue.is_empty()
            && self.pending_internal.load(Ordering::Acquire) == 0
            // Buffered-but-young aggregation buckets do NOT defeat the
            // fast path: nothing to do until the age deadline lapses, and
            // treating every pending record as work would put the whole
            // advance walk on the per-send cost of an aggregated flood.
            && self.aggr.as_ref().is_none_or(|a| !a.due_now())
            && self.inj_fifos.iter().all(|f| f.queue.is_empty())
            && self.sys_fifo.queue.is_empty()
            && self.machine.fabric().links_idle(self.node)
    }

    /// Keep advancing (yielding the CPU in between) until `cond` is true.
    pub fn advance_until(&self, mut cond: impl FnMut() -> bool) {
        while !cond() {
            if self.advance() == 0 {
                std::thread::yield_now();
            }
        }
    }

    /// Whether everything this context started has left it: no posted
    /// work, nothing to receive, no internal obligation, no descriptor
    /// unpumped in its injection FIFOs or the node's system FIFO, no frame
    /// awaiting an ack on the node's link channels, and no record still
    /// buffered for aggregation. `ctx.advance_until(|| ctx.is_quiescent())`
    /// drains a context before its results are read. Non-blocking: reads
    /// only lock-free probes, so it can be polled while another thread
    /// holds the advance lock.
    pub fn is_quiescent(&self) -> bool {
        self.observably_idle() && self.aggr.as_ref().is_none_or(|a| a.pending() == 0)
    }

    fn advance_locked(&self, st: &mut AdvanceState) -> usize {
        let mut events = 0usize;
        let pin = self.offset as usize;
        let mut bc = BatchCounters::default();

        // 1. Posted work (commthread handoff path). The handoff latency —
        //    post() to here — is the cost the paper's commthread design
        //    tries to hide; record it before running the item.
        let mut work_done = 0u64;
        for _ in 0..WORK_BUDGET {
            match self.work.pop() {
                Some((posted, work)) => {
                    self.probes.ctx_handoff_ns.record_since(posted);
                    if on_commthread() {
                        self.probes.handoff_ns.record_since(posted);
                    }
                    work(self);
                    work_done += 1;
                    events += 1;
                }
                None => break,
            }
        }
        if work_done > 0 {
            self.probes.work_items.add_pinned(pin, work_done);
        }

        // 1b. Aggregation age bound: when the earliest open bucket's µs
        //     budget has lapsed (one lock-free probe + one clock read),
        //     cut due buckets grouped by first-hop class so the frames are
        //     injected (and pumped just below) this advance.
        if let Some(aggr) = &self.aggr {
            if aggr.due_now() {
                events += aggr.flush_due(|f| self.send_aggr_frame(f));
            }
        }

        // 2. Pump this context's own injection FIFOs.
        for fifo in &self.inj_fifos {
            events += self.machine.fabric().pump_inj_handle(self.node, fifo, INJ_BUDGET);
        }
        // 3. Service the node's system FIFO (remote gets targeting any
        //    context on this node) and, under a fault plan, the node's link
        //    channels (retransmit timers, delayed frames); one context at a
        //    time. Gated on observable work so the common (no remote gets,
        //    no faults) case costs two lock-free emptiness probes, not a
        //    try_lock RMW on a mutex cacheline shared by every context on
        //    the node.
        if !self.sys_fifo.queue.is_empty() || !self.machine.fabric().links_idle(self.node) {
            if let Some(_guard) = self.machine.sys_pump[self.node as usize].try_lock() {
                events += self.machine.fabric().pump_sys(self.node, SYS_BUDGET);
                events += self.machine.fabric().pump_links(self.node, SYS_BUDGET);
            }
        }

        // 4. MU reception, drained in one queue transaction: the batch
        //    claim publishes the consumer cursor (and re-opens producer
        //    ring space) once per advance instead of once per packet, so
        //    a flood ping-pongs the producer-shared cachelines per batch.
        //    The scratch buffer is moved out of `st` while packets are
        //    handled (handlers borrow `st` mutably) and moved back after.
        let mut batch = std::mem::take(&mut st.rec_scratch);
        let received = self.rec_fifo.poll_batch(RECV_BUDGET, &mut batch);
        for pkt in batch.drain(..) {
            self.handle_mu_packet(st, &mut bc, pkt);
        }
        events += received;
        st.rec_scratch = batch;

        // 5. Shared-memory mailbox.
        for _ in 0..RECV_BUDGET {
            match self.mailbox.queue.pop() {
                Some(msg) => {
                    self.handle_shm(&mut st.handler_memo, msg);
                    bc.dispatched += 1;
                    events += 1;
                }
                None => break,
            }
        }

        // 6. Rendezvous receive completions (poll the counters).
        if !st.rzv_pending.is_empty() {
            let mut i = 0;
            while i < st.rzv_pending.len() {
                if st.rzv_pending[i].done.is_complete() {
                    let pending = st.rzv_pending.swap_remove(i);
                    self.pending_internal.fetch_sub(1, Ordering::AcqRel);
                    // A failed counter still reads complete — that is what
                    // keeps this poll (and advance) from hanging when the
                    // reliability layer gives up on the pull. The fault
                    // becomes the callback's typed result.
                    let result = match pending.done.fault() {
                        None => Ok(()),
                        Some(fault) => Err(PamiError::from(fault)),
                    };
                    if result.is_ok() {
                        self.observe(|| ProtoEvent::RzvComplete {
                            dest: self.task,
                            len: pending.len,
                            ns: pending.stamp.elapsed_ns(),
                        });
                    }
                    if let Some(cb) = pending.on_complete {
                        cb(self, result);
                    }
                    events += 1;
                } else {
                    i += 1;
                }
            }
        }

        // Flush the advance-batched counters: one striped add per probe per
        // advance call instead of a shared-counter RMW per packet.
        if bc.dispatched > 0 {
            self.probes.messages_dispatched.add_pinned(pin, bc.dispatched);
        }
        if bc.copies > 0 {
            self.machine.fabric().note_payload_copies(self.node, pin, bc.copies);
        }

        events
    }

    /// Send-side stamp for the wire envelope: a real clock read only when
    /// the policy consumes delivery feedback (zero otherwise, and always
    /// zero-sized with telemetry off).
    #[inline]
    fn send_stamp(&self) -> Stamp {
        if self.policy_feedback {
            Stamp::now()
        } else {
            Stamp::from_ns(0)
        }
    }

    /// Feed a delivery outcome back to the machine's protocol policy. The
    /// policy is machine-wide and the stamp rides the process-global clock,
    /// so the receiving context can report on the sender's behalf. The
    /// event is built lazily so the delivery path never reads the clock
    /// under a feedback-free (static) policy; compiles away entirely with
    /// telemetry off.
    #[inline]
    fn observe(&self, ev: impl FnOnce() -> ProtoEvent) {
        if self.policy_feedback {
            self.machine.policy().observe(ev());
        }
    }

    fn handle_mu_packet(&self, st: &mut AdvanceState, bc: &mut BatchCounters, mut pkt: MuPacket) {
        if pkt.is_first() {
            let (src_task, stamp, body) = wire::open_envelope(&pkt.metadata);
            let src = Endpoint { task: src_task, context: pkt.src_context };
            if pkt.dispatch == DISPATCH_RZV_RTS {
                self.handle_rts(st, bc, src, stamp, &body);
                return;
            }
            if pkt.dispatch == DISPATCH_CHAN_REQ {
                self.handle_chan_req(src, &body);
                bc.dispatched += 1;
                return;
            }
            if pkt.dispatch == DISPATCH_AGGR {
                // A frame is one inline packet: unbatch and dispatch every
                // record straight from the packet buffer.
                debug_assert!(pkt.is_last(), "aggregated frames are one packet");
                let payload = match &pkt.payload {
                    bgq_mu::PacketPayload::Inline(b) => b.clone(),
                    _ => Bytes::copy_from_slice(pkt.payload.view()),
                };
                bc.dispatched +=
                    self.unbatch_aggr_frame(&mut st.handler_memo, src, stamp, &body, payload);
                return;
            }
            let msg = IncomingMsg {
                src,
                dispatch: pkt.dispatch,
                metadata: body,
                len: pkt.msg_len as u64,
            };
            bc.dispatched += 1;
            // Split the advance state into disjoint fields: the handler is
            // borrowed from the memo while the reassembly map stays
            // mutable for the Into arm.
            let AdvanceState { handler_memo, reassembly, .. } = st;
            let handler = self.resolve_handler(handler_memo, pkt.dispatch);
            // The handler sees the bytes staged in the packet buffer —
            // everything for an inline payload, nothing for a zero-copy
            // window (the data is still in source memory and must be
            // deposited).
            match handler(self, &msg, pkt.payload.view()) {
                Recv::Done => {
                    assert!(
                        pkt.is_last() && pkt.payload.view().len() == pkt.payload.len(),
                        "Recv::Done on a partial payload ({} of {} bytes)",
                        pkt.payload.view().len(),
                        pkt.msg_len
                    );
                    // The short flag, not the packet count, picks the cost
                    // model: an exploration-eager single packet must feed
                    // the eager EWMA, and vice versa.
                    self.observe(|| {
                        let (dest, len, ns) =
                            (self.task, pkt.msg_len as usize, stamp.elapsed_ns());
                        if pkt.short {
                            ProtoEvent::ShortDelivered { dest, len, ns }
                        } else {
                            ProtoEvent::EagerDelivered { dest, len, ns }
                        }
                    });
                }
                Recv::Into { region, offset, on_complete } => {
                    // The receive-side copy: packet buffer (or source
                    // window) straight into the destination buffer.
                    let pkt_len = pkt.payload.len();
                    pkt.payload.deposit(&region, offset);
                    bc.copies += 1;
                    if pkt.is_last() {
                        self.observe(|| {
                            let (dest, len, ns) =
                                (self.task, pkt.msg_len as usize, stamp.elapsed_ns());
                            if pkt.short {
                                ProtoEvent::ShortDelivered { dest, len, ns }
                            } else {
                                ProtoEvent::EagerDelivered { dest, len, ns }
                            }
                        });
                        on_complete(self, Ok(()));
                    } else {
                        reassembly.insert(
                            (pkt.src_node, pkt.msg_id),
                            Reassembly {
                                region,
                                base_offset: offset,
                                remaining: pkt.msg_len as usize - pkt_len,
                                on_complete: Some(on_complete),
                                stamp,
                                total_len: pkt.msg_len as usize,
                            },
                        );
                        self.pending_internal.fetch_add(1, Ordering::AcqRel);
                    }
                }
            }
        } else {
            let key = (pkt.src_node, pkt.msg_id);
            let entry = st
                .reassembly
                .get_mut(&key)
                .expect("continuation packet without a first packet (ordering violated)");
            let pkt_len = pkt.payload.len();
            let dst_offset = entry.base_offset + pkt.offset as usize;
            pkt.payload.deposit(&entry.region, dst_offset);
            bc.copies += 1;
            entry.remaining -= pkt_len;
            if entry.remaining == 0 {
                let mut entry = st.reassembly.remove(&key).expect("entry present");
                self.pending_internal.fetch_sub(1, Ordering::AcqRel);
                self.observe(|| ProtoEvent::EagerDelivered {
                    dest: self.task,
                    len: entry.total_len,
                    ns: entry.stamp.elapsed_ns(),
                });
                if let Some(cb) = entry.on_complete.take() {
                    cb(self, Ok(()));
                }
            }
        }
    }

    fn handle_rts(
        &self,
        st: &mut AdvanceState,
        bc: &mut BatchCounters,
        src: Endpoint,
        stamp: Stamp,
        body: &Bytes,
    ) {
        let (dispatch, len, key, metadata) = wire::open_rts(body);
        let msg = IncomingMsg { src, dispatch, metadata, len };
        bc.dispatched += 1;
        let AdvanceState { handler_memo, rzv_pending, .. } = st;
        let handler = self.resolve_handler(handler_memo, dispatch);
        match handler(self, &msg, &[]) {
            Recv::Done => panic!("rendezvous arrival of {len} bytes cannot be Recv::Done"),
            Recv::Into { region, offset, on_complete } => {
                let entry = self.machine.rzv_take(key);
                let done = Counter::new();
                done.add_expected(len.max(1));
                let src_node = self.machine.task_node(src.task);
                let put_back = Descriptor {
                    dst_node: self.node,
                    dst_context: self.offset,
                    src_context: self.offset,
                    routing: bgq_torus::Routing::Dynamic,
                    payload: entry.payload,
                    kind: XferKind::DirectPut {
                        dst_region: region,
                        dst_offset: offset,
                        rec_counter: Some(done.clone()),
                    },
                    inj_counter: entry.local_done,
                };
                let get = Descriptor {
                    dst_node: src_node,
                    dst_context: src.context,
                    src_context: self.offset,
                    routing: bgq_torus::Routing::Deterministic,
                    payload: PayloadSource::Immediate(Bytes::new()),
                    kind: XferKind::RemoteGet { payload: Box::new(put_back) },
                    inj_counter: None,
                };
                self.inject_to(src.task, get);
                rzv_pending.push(RzvPending {
                    done,
                    on_complete: Some(on_complete),
                    stamp,
                    len: len as usize,
                });
                self.pending_internal.fetch_add(1, Ordering::AcqRel);
            }
        }
    }

    fn handle_shm(&self, memo: &mut Option<HandlerMemo>, msg: ShmMsg) {
        if msg.dispatch == DISPATCH_CHAN_REQ {
            // On-node channel offers ride the mailbox with the body as raw
            // metadata (no envelope — shm messages carry the source
            // endpoint natively).
            self.handle_chan_req(msg.src, &msg.metadata);
            return;
        }
        if msg.dispatch == DISPATCH_AGGR {
            // An aggregated frame delivered through the mailbox (node-
            // bucket forwarding never nests, so this is the post-failover
            // on-node emit path): the header rides the metadata field.
            let ShmPayload::Inline(payload) = msg.payload else {
                panic!("aggregated frames are always inline");
            };
            self.unbatch_aggr_frame(memo, msg.src, msg.stamp, &msg.metadata, payload);
            return;
        }
        let info = IncomingMsg {
            src: msg.src,
            dispatch: msg.dispatch,
            metadata: msg.metadata,
            len: msg.payload.len() as u64,
        };
        let handler = self.resolve_handler(memo, msg.dispatch);
        let stamp = msg.stamp;
        match msg.payload {
            ShmPayload::Inline(bytes) => {
                let msg_len = bytes.len();
                match handler(self, &info, &bytes) {
                    Recv::Done => {}
                    Recv::Into { region, offset, on_complete } => {
                        region.write(offset, &bytes);
                        on_complete(self, Ok(()));
                    }
                }
                self.observe(|| ProtoEvent::EagerDelivered {
                    dest: self.task,
                    len: msg_len,
                    ns: stamp.elapsed_ns(),
                });
            }
            ShmPayload::GlobalVa { addr, len, done } => {
                // Resolve the peer's buffer through the CNK global virtual
                // address table (the message-scoped mapping is withdrawn
                // after the copy).
                let va = self.machine.global_va(self.node);
                let (src_region, src_off) = va
                    .resolve_addr(addr)
                    .expect("global-VA payload withdrawn before delivery");
                match handler(self, &info, &[]) {
                    Recv::Done => {
                        assert_eq!(len, 0, "Recv::Done on unread {len}-byte global-VA payload");
                        if let Some(c) = done {
                            c.delivered(1);
                        }
                    }
                    Recv::Into { region, offset, on_complete } => {
                        // The single-copy path: read the peer's memory
                        // through the global virtual address space.
                        region.copy_from(offset, &src_region, src_off, len);
                        if let Some(c) = done {
                            c.delivered(len.max(1) as u64);
                        }
                        self.observe(|| ProtoEvent::RzvComplete {
                            dest: self.task,
                            len,
                            ns: stamp.elapsed_ns(),
                        });
                        on_complete(self, Ok(()));
                    }
                }
                va.unpublish(addr.local_rank, addr.region);
            }
        }
    }

    // ---- persistent channels ----------------------------------------------

    /// Open a persistent channel to `dest`: pre-negotiate a pinned buffer
    /// pair once, then move fixed-size messages with
    /// [`crate::channel::PersistentChannel::post`] /
    /// [`crate::channel::PersistentChannel::wait`] — prebuilt-descriptor
    /// injections with zero matching and zero per-message protocol
    /// decisions. The peer must open a matching channel back (channels
    /// pair in per-peer creation order); this call sends the local buffer
    /// offer and returns immediately — the handshake completes lazily on
    /// first use.
    pub fn channel(
        self: &Arc<Self>,
        dest: Endpoint,
        size: usize,
    ) -> PamiResult<crate::channel::PersistentChannel> {
        crate::channel::PersistentChannel::create(self, dest, size)
    }

    /// Next pairing ordinal for channels to `dest` (the n-th channel this
    /// context opens to a peer pairs with the n-th the peer opens back).
    pub(crate) fn next_chan_ordinal(&self, dest: Endpoint) -> u64 {
        let mut m = self.chan_ordinals.lock();
        let slot = m.entry(dest).or_insert(0);
        let ordinal = *slot;
        *slot += 1;
        ordinal
    }

    /// Send a persistent-channel buffer offer to `dest` over the system
    /// lane (mailbox on-node, an internal-dispatch memory-FIFO message
    /// off-node).
    pub(crate) fn send_chan_offer(&self, dest: Endpoint, body: Vec<u8>) -> PamiResult<()> {
        let dest = Endpoint { task: self.machine.resolve_task(dest.task), ..dest };
        let dest_node = self.machine.task_node(dest.task);
        if dest_node == self.node {
            let addr = self.addr_of(dest)?;
            addr.mailbox.deliver(ShmMsg {
                src: self.endpoint(),
                dispatch: DISPATCH_CHAN_REQ,
                metadata: Bytes::from(body),
                stamp: Stamp::from_ns(0),
                payload: ShmPayload::Inline(Bytes::new()),
            });
            return Ok(());
        }
        let rec_fifo = self.rec_fifo_of(dest)?;
        self.machine.fabric().execute(
            self.node,
            Descriptor {
                dst_node: dest_node,
                dst_context: dest.context,
                src_context: self.offset,
                routing: bgq_torus::Routing::Deterministic,
                payload: PayloadSource::Immediate(Bytes::new()),
                kind: XferKind::MemoryFifo {
                    rec_fifo,
                    dispatch: DISPATCH_CHAN_REQ,
                    metadata: wire::envelope(self.task, Stamp::from_ns(0), &body),
                    short: false,
                },
                inj_counter: None,
            },
        );
        Ok(())
    }

    fn handle_chan_req(&self, src: Endpoint, body: &Bytes) {
        let (ordinal, size, mem_key) = wire::open_chan_req(body);
        self.chan_offers.lock().insert(
            (src, ordinal),
            crate::channel::ChanOffer { size, mem_key: crate::machine::MemKey(mem_key) },
        );
    }

    /// Claim the peer's buffer offer for (peer, ordinal), if it has
    /// arrived.
    pub(crate) fn take_chan_offer(
        &self,
        peer: Endpoint,
        ordinal: u64,
    ) -> Option<crate::channel::ChanOffer> {
        self.chan_offers.lock().remove(&(peer, ordinal))
    }

    // ---- statistics --------------------------------------------------------

    /// Sends initiated through this context, across every protocol
    /// (telemetry aggregate; 0 with the `telemetry` feature off).
    pub fn sends_initiated(&self) -> u64 {
        self.probes.sends_short.value()
            + self.probes.sends_aggr.value()
            + self.probes.sends_eager.value()
            + self.probes.sends_rzv.value()
            + self.probes.sends_shm.value()
            + self.probes.puts.value()
            + self.probes.gets.value()
            + self.probes.rmws.value()
    }

    /// Messages dispatched (first packets seen) by this context
    /// (telemetry aggregate; 0 with the `telemetry` feature off).
    pub fn messages_dispatched(&self) -> u64 {
        self.probes.messages_dispatched.value()
    }

    /// Posted work items executed (telemetry aggregate; 0 with the
    /// `telemetry` feature off).
    pub fn work_items_run(&self) -> u64 {
        self.probes.work_items.value()
    }

    /// The reception FIFO id (diagnostics).
    pub fn rec_fifo_id(&self) -> RecFifoId {
        self.rec_fifo_id
    }

    /// This context's exclusive injection FIFO ids (diagnostics).
    pub fn inj_fifo_ids(&self) -> &[InjFifoId] {
        &self.inj_ids
    }

    /// This context's shared-memory mailbox (exposed for tests).
    pub fn mailbox(&self) -> &Arc<ShmMailbox> {
        &self.mailbox
    }
}
