//! Injection and reception FIFOs, with BG/Q's per-node resource limits.
//!
//! "BG/Q architecture provides an extensive array of 544 MU injection FIFOs
//! (32 per core) and 272 MU reception FIFOs (16 per core)" — enough that
//! PAMI can give every context *exclusive* FIFOs, "thereby eliminating any
//! need for locking and critical section protection" (paper section III.E).
//! [`FifoAllocator`] hands out those exclusive partitions and enforces the
//! limits; the FIFOs themselves are the lockless [`WorkQueue`] from
//! `bgq-hw` (injection FIFOs see one producer — the owning context — and
//! one consumer — the pumping engine; reception FIFOs see many remote
//! producers and the one owning context as consumer).


use std::sync::atomic::{AtomicU16, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use bgq_hw::{WakeupRegion, WorkQueue};
use parking_lot::Mutex;

use crate::descriptor::Descriptor;
use crate::packet::MuPacket;

/// MU injection FIFOs per node (17 cores × 32).
pub const INJ_FIFOS_PER_NODE: usize = 544;

/// MU reception FIFOs per node (17 cores × 16).
pub const REC_FIFOS_PER_NODE: usize = 272;

/// Bits of a message id that hold the per-lane sequence number. The id
/// layout is `node << 40 | lane << 30 | seq`, where `lane` identifies the
/// message-id source (an injection FIFO, the system FIFO, or the node
/// fallback) — so every lane mints ids from its *own* atomic and two lanes
/// can never collide, which is what lets contexts send without touching a
/// shared per-node sequence counter.
pub const LANE_SHIFT: u32 = 30;

/// Mask for the per-lane sequence bits (ids recycle after 2^30 messages per
/// lane, by which point no packet of the old message can still be in
/// flight).
pub const LANE_SEQ_MASK: u64 = (1u64 << LANE_SHIFT) - 1;

/// Reserved lane id for the per-node *system* injection FIFO.
pub const SYS_LANE: u16 = 1022;

/// Reserved lane id for the per-node fallback (descriptors executed without
/// going through an injection FIFO — `MuFabric::execute` and short sends
/// without a FIFO).
pub const NODE_LANE: u16 = 1023;

/// A message-id mint: composes `node | lane` high bits (fixed at creation)
/// with a private sequence counter. Each injection FIFO owns one, so the
/// send hot path touches only state owned by the injecting context — no
/// cross-context cache-line bouncing on a shared per-node counter.
pub struct MsgIdLane {
    /// `node << 40 | lane << 30`, precomputed.
    base: u64,
    /// Next sequence number. Public so tests can force near-wrap values.
    pub msg_seq: AtomicU64,
}

impl MsgIdLane {
    /// A lane for `node`. `lane` must fit in 10 bits (hardware FIFO ids are
    /// 0..544; 1022/1023 are the reserved software lanes).
    pub fn new(node: u32, lane: u16) -> Self {
        debug_assert!(lane < 1024, "lane must fit in 10 bits");
        MsgIdLane {
            base: ((node as u64) << 40) | ((lane as u64) << LANE_SHIFT),
            msg_seq: AtomicU64::new(0),
        }
    }

    /// Mint the next message id on this lane.
    #[inline]
    pub fn next(&self) -> u64 {
        self.base | (self.msg_seq.fetch_add(1, Ordering::Relaxed) & LANE_SEQ_MASK)
    }
}

/// Identifier of an injection FIFO within its node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct InjFifoId(pub u16);

/// Identifier of a reception FIFO within its node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RecFifoId(pub u16);

/// An injection FIFO: descriptors queued by the owning context, drained
/// when that context pumps it from `advance`.
///
/// Beyond the descriptor queue, the FIFO owns every sequence counter the
/// send fast path needs — its message-id lane and its fault-free link
/// sequence — so draining it touches no per-node shared state: two contexts
/// pumping their own FIFOs share zero cache lines here.
pub struct InjFifo {
    /// Queued descriptors.
    pub queue: WorkQueue<Descriptor>,
    /// Message-id mint for messages sent through this FIFO.
    pub(crate) lane: MsgIdLane,
    /// Link sequence source for the fault-free fast path (reliable channels
    /// stamp their own under a fault plan, preserving per-channel
    /// continuity).
    pub(crate) link_seq: AtomicU64,
    /// Descriptors popped from `queue` but not yet fully delivered by the
    /// pumping engine. The short-tier bypass consults this together with
    /// queue emptiness ([`InjFifo::is_quiescent`]) before injecting a
    /// message around the FIFO, so bypassing never reorders against a
    /// descriptor the engine is mid-delivery on.
    pub(crate) inflight: AtomicU64,
}

impl InjFifo {
    pub(crate) fn new(capacity: usize, node: u32, lane: u16) -> Self {
        InjFifo {
            queue: WorkQueue::with_capacity(capacity),
            lane: MsgIdLane::new(node, lane),
            link_seq: AtomicU64::new(0),
            inflight: AtomicU64::new(0),
        }
    }

    /// `true` when nothing is queued in this FIFO *and* no engine is
    /// mid-delivery on a descriptor popped from it — the condition under
    /// which a single-packet send may bypass the FIFO without overtaking
    /// earlier traffic to the same destination.
    #[inline]
    pub fn is_quiescent(&self) -> bool {
        self.queue.is_empty() && self.inflight.load(Ordering::Acquire) == 0
    }
}

/// A reception FIFO plus its optional wakeup region (commthreads park on it
/// while the FIFO is empty).
pub struct RecFifo {
    /// Delivered packets.
    pub queue: WorkQueue<MuPacket>,
    /// Set at most once, when the owning context attaches itself; read
    /// lock-free on every delivery.
    wakeup: OnceLock<WakeupRegion>,
}

impl RecFifo {
    /// A standalone FIFO of the given capacity. Public so out-of-crate
    /// [`crate::transport::Transport`] implementations can be exercised
    /// against a bare FIFO without building a whole fabric.
    pub fn new(capacity: usize) -> Self {
        RecFifo {
            queue: WorkQueue::with_capacity(capacity),
            wakeup: OnceLock::new(),
        }
    }

    /// Attach a wakeup region; subsequent deliveries touch it. A FIFO is
    /// owned by exactly one context, so the region is set at most once —
    /// later calls are ignored, keeping the delivery-side read lock-free.
    pub fn set_wakeup(&self, region: WakeupRegion) {
        let _ = self.wakeup.set(region);
    }

    /// Deliver a packet (fabric side): enqueue and wake any watcher. The
    /// touch is skipped — one atomic load — while no waiter is subscribed,
    /// so a polling-mode receiver never pays the epoch RMW per packet.
    pub fn deliver(&self, packet: MuPacket) {
        self.queue.push(packet);
        if let Some(w) = self.wakeup.get() {
            if w.has_watchers() {
                w.touch();
            }
        }
    }

    /// Deliver `n` packets produced by `make` in one ring claim
    /// ([`WorkQueue::push_batch_with`]) with a single wakeup touch — the
    /// whole-message delivery path: an N-packet message costs one atomic
    /// claim and one wakeup, not N of each. Public so out-of-crate
    /// [`crate::transport::Transport`] implementations can deposit buffered
    /// messages with the same single-claim cost.
    pub fn deliver_batch<F>(&self, n: u64, make: F)
    where
        F: FnMut(u64) -> MuPacket,
    {
        self.queue.push_batch_with(n, make);
        if let Some(w) = self.wakeup.get() {
            if w.has_watchers() {
                w.touch();
            }
        }
    }

    /// Pull the next packet (owning context only).
    pub fn poll(&self) -> Option<MuPacket> {
        self.queue.pop()
    }

    /// Pull up to `max` packets into `out` in one consumer transaction
    /// ([`WorkQueue::pop_batch`]): all ready packets are claimed with a
    /// single head publish and a single bound advance, so the drain side
    /// touches the producer-shared cachelines once per batch instead of
    /// once per packet — the receive mirror of [`RecFifo::deliver_batch`].
    pub fn poll_batch(&self, max: usize, out: &mut Vec<MuPacket>) -> usize {
        self.queue.pop_batch(max, out)
    }

    /// Whether the FIFO currently holds no packets.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }
}

/// Fixed-size, lock-free table of a node's FIFOs.
///
/// The MU's FIFO count is a hardware constant (544 injection / 272
/// reception per node), so the table is a fixed array of slots published
/// with [`OnceLock`]: allocation writes a slot exactly once (slot indices
/// come from the mutex-guarded [`FifoAllocator`], which is not on the hot
/// path), after which every lookup — packet delivery, `poll_rec`, handle
/// caching, engine pumps — is a plain atomic load with no lock and no
/// refcount traffic.
pub struct FifoTable<T> {
    slots: Box<[OnceLock<Arc<T>>]>,
    /// High-water mark of published slots; engines iterate `0..allocated()`.
    allocated: AtomicU16,
}

impl<T> FifoTable<T> {
    /// A table with `capacity` (hardware-limit) slots, all unallocated.
    pub fn new(capacity: usize) -> Self {
        FifoTable {
            slots: (0..capacity).map(|_| OnceLock::new()).collect(),
            allocated: AtomicU16::new(0),
        }
    }

    /// Shared handle to an allocated FIFO.
    ///
    /// # Panics
    /// If `id` was never allocated (software addressing a FIFO it does not
    /// own — the hardware would raise a fatal interrupt).
    #[inline]
    pub fn get(&self, id: u16) -> &Arc<T> {
        self.slots[id as usize]
            .get()
            .expect("FIFO id addressed before allocation")
    }

    /// Like [`FifoTable::get`] but `None` for unallocated ids.
    #[inline]
    pub fn try_get(&self, id: u16) -> Option<&Arc<T>> {
        self.slots.get(id as usize).and_then(|s| s.get())
    }

    /// Publish a freshly allocated FIFO at `id`. Caller must own `id` via
    /// the allocator; each slot is written exactly once.
    pub(crate) fn publish(&self, id: u16, fifo: Arc<T>) {
        if self.slots[id as usize].set(fifo).is_err() {
            panic!("FIFO slot {id} allocated twice");
        }
        // Release-publish the high-water mark after the slot itself so a
        // reader that observes `allocated > id` also observes the slot.
        self.allocated.fetch_max(id + 1, Ordering::AcqRel);
    }

    /// Number of slots published so far (a high-water mark; slots below it
    /// are all allocated because the allocator hands out dense ranges).
    #[inline]
    pub fn allocated(&self) -> usize {
        self.allocated.load(Ordering::Acquire) as usize
    }

    /// Hardware slot capacity.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }
}

/// Tracks per-node FIFO allocation against the hardware limits.
pub struct FifoAllocator {
    inj_next: Mutex<u16>,
    rec_next: Mutex<u16>,
    inj_limit: u16,
    rec_limit: u16,
}

impl Default for FifoAllocator {
    fn default() -> Self {
        Self::new(INJ_FIFOS_PER_NODE as u16, REC_FIFOS_PER_NODE as u16)
    }
}

impl FifoAllocator {
    /// An allocator with explicit limits (tests shrink them).
    pub fn new(inj_limit: u16, rec_limit: u16) -> Self {
        FifoAllocator {
            inj_next: Mutex::new(0),
            rec_next: Mutex::new(0),
            inj_limit,
            rec_limit,
        }
    }

    /// Claim `count` consecutive injection FIFOs; `None` once the node's
    /// 544 are exhausted.
    pub fn alloc_inj(&self, count: u16) -> Option<std::ops::Range<u16>> {
        let mut next = self.inj_next.lock();
        let end = next.checked_add(count)?;
        if end > self.inj_limit {
            return None;
        }
        let start = *next;
        *next = end;
        Some(start..end)
    }

    /// Claim `count` consecutive reception FIFOs; `None` once the node's
    /// 272 are exhausted.
    pub fn alloc_rec(&self, count: u16) -> Option<std::ops::Range<u16>> {
        let mut next = self.rec_next.lock();
        let end = next.checked_add(count)?;
        if end > self.rec_limit {
            return None;
        }
        let start = *next;
        *next = end;
        Some(start..end)
    }

    /// Injection FIFOs still unclaimed.
    pub fn inj_remaining(&self) -> u16 {
        self.inj_limit - *self.inj_next.lock()
    }

    /// Reception FIFOs still unclaimed.
    pub fn rec_remaining(&self) -> u16 {
        self.rec_limit - *self.rec_next.lock()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    #[test]
    fn allocator_enforces_limits() {
        let a = FifoAllocator::new(8, 4);
        assert_eq!(a.alloc_inj(5), Some(0..5));
        assert_eq!(a.alloc_inj(3), Some(5..8));
        assert_eq!(a.alloc_inj(1), None);
        assert_eq!(a.alloc_rec(4), Some(0..4));
        assert_eq!(a.alloc_rec(1), None);
        assert_eq!(a.inj_remaining(), 0);
        assert_eq!(a.rec_remaining(), 0);
    }

    #[test]
    fn msg_id_lanes_never_collide_across_lanes() {
        // Two lanes on the same node, same sequence numbers: ids differ.
        let a = MsgIdLane::new(3, 0);
        let b = MsgIdLane::new(3, 1);
        let ids: Vec<u64> = (0..4).map(|_| a.next()).chain((0..4).map(|_| b.next())).collect();
        let mut dedup = ids.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), ids.len(), "no collisions across lanes");
        for id in &ids {
            assert_eq!(id >> 40, 3, "node bits intact");
        }
        // Sequence wrap stays inside the lane bits.
        let c = MsgIdLane::new(5, NODE_LANE);
        c.msg_seq.store(LANE_SEQ_MASK, Ordering::Relaxed);
        let x = c.next();
        let y = c.next();
        assert_eq!(x >> 40, 5);
        assert_eq!(y >> 40, 5, "wrap must not leak into node bits");
        assert_ne!(x, y);
        assert_eq!((x >> LANE_SHIFT) & 0x3ff, NODE_LANE as u64);
    }

    #[test]
    fn default_allocator_matches_hardware_counts() {
        let a = FifoAllocator::default();
        assert_eq!(a.inj_remaining(), 544);
        assert_eq!(a.rec_remaining(), 272);
    }

    #[test]
    fn rec_fifo_delivery_touches_wakeup() {
        let unit = bgq_hw::WakeupUnit::new();
        let region = unit.region();
        // A subscribed waiter is what makes delivery touch the region —
        // with nobody watching, delivery skips the wakeup entirely.
        let mut waiter = bgq_hw::Waiter::new();
        waiter.subscribe(&region);
        let fifo = RecFifo::new(16);
        fifo.set_wakeup(region.clone());
        assert!(fifo.is_empty());
        fifo.deliver(MuPacket {
            src_node: 0,
            src_context: 0,
            dispatch: 1,
            metadata: Bytes::new(),
            msg_id: 1,
            msg_len: 0,
            offset: 0,
            link_seq: 0,
            crc: 0,
            short: false,
            payload: crate::packet::PacketPayload::Inline(Bytes::new()),
        });
        assert_eq!(region.epoch(), 1);
        assert!(fifo.poll().is_some());
        assert!(fifo.poll().is_none());
    }

    #[test]
    fn unwatched_delivery_skips_the_wakeup() {
        // Polling-mode receivers (no parked waiter) must not pay the epoch
        // RMW per packet: delivery without a subscriber leaves the region
        // untouched.
        let unit = bgq_hw::WakeupUnit::new();
        let region = unit.region();
        let fifo = RecFifo::new(16);
        fifo.set_wakeup(region.clone());
        fifo.deliver_batch(2, |i| MuPacket {
            src_node: 0,
            src_context: 0,
            dispatch: 1,
            metadata: Bytes::new(),
            msg_id: 4,
            msg_len: 8,
            offset: i as u32 * 8,
            link_seq: i,
            crc: 0,
            short: false,
            payload: crate::packet::PacketPayload::Inline(Bytes::new()),
        });
        assert_eq!(region.epoch(), 0, "no watcher, no touch");
        assert!(fifo.poll().is_some());
    }

    #[test]
    fn batch_delivery_touches_wakeup_once() {
        let unit = bgq_hw::WakeupUnit::new();
        let region = unit.region();
        let mut waiter = bgq_hw::Waiter::new();
        waiter.subscribe(&region);
        let fifo = RecFifo::new(16);
        fifo.set_wakeup(region.clone());
        fifo.deliver_batch(3, |i| MuPacket {
            src_node: 0,
            src_context: 0,
            dispatch: 1,
            metadata: Bytes::new(),
            msg_id: 9,
            msg_len: 1300,
            offset: i as u32 * 512,
            link_seq: i,
            crc: 0,
            short: false,
            payload: crate::packet::PacketPayload::Inline(Bytes::new()),
        });
        assert_eq!(region.epoch(), 1, "one wakeup for the whole message");
        for _ in 0..3 {
            assert!(fifo.poll().is_some());
        }
        assert!(fifo.poll().is_none());
    }

    #[test]
    fn fifo_table_publishes_lock_free() {
        let t: FifoTable<u32> = FifoTable::new(8);
        assert_eq!(t.allocated(), 0);
        assert_eq!(t.capacity(), 8);
        assert!(t.try_get(0).is_none());
        t.publish(0, Arc::new(10));
        t.publish(1, Arc::new(11));
        assert_eq!(t.allocated(), 2);
        assert_eq!(**t.get(1), 11);
        assert!(t.try_get(2).is_none());
    }

    #[test]
    #[should_panic(expected = "allocated twice")]
    fn fifo_table_rejects_double_publish() {
        let t: FifoTable<u32> = FifoTable::new(2);
        t.publish(0, Arc::new(1));
        t.publish(0, Arc::new(2));
    }

    #[test]
    #[should_panic(expected = "before allocation")]
    fn fifo_table_rejects_unallocated_lookup() {
        let t: FifoTable<u32> = FifoTable::new(2);
        let _ = t.get(1);
    }
}
