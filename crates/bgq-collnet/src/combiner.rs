//! The collective combine engine.
//!
//! Functionally, a collective-network operation over a classroute is: every
//! member node contributes an operand (or, for broadcast, the root
//! contributes data and the rest contribute nothing); the routers combine
//! contributions up the tree; the result streams back down and is
//! RDMA-written into each member's destination buffer, decrementing its
//! reception counter. The paper's collectives are "RDMA capable and the
//! data that is being operated upon is directly read from or written to the
//! memory" — no reception-FIFO traffic, no extra copies.
//!
//! [`CollNet`] reproduces exactly that contract. Contributions on the same
//! classroute are matched by arrival order per node (hardware serializes
//! collective ops per route the same way); the last contribution performs
//! the combine-completion: writing results and firing counters/wakeups.
//! Long operations are pipelined by issuing one contribution per slice,
//! which is literally what PAMI's long-allreduce does (Figure 4).
//!
//! The matching state lives with the route allocation, not in the engine:
//! every [`ClassRoute`] returned by the manager carries a combine table
//! with one sequence counter per member node and a window of in-flight
//! operations indexed by `seq - base`. A route id that is freed and handed
//! to a different rectangle therefore starts from fresh sequence numbers,
//! and an operation touches only its route's table — no engine-wide lock,
//! no per-operation allocation once the window's slots have been used.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

use bgq_hw::{Counter, MemRegion, WakeupRegion};
use bgq_torus::Coords;
use crossbeam::utils::CachePadded;
use parking_lot::Mutex;

use crate::classroute::ClassRoute;
use crate::ops::{combine, CollOp, DataType};

/// Where one member wants a result delivered.
#[derive(Clone)]
pub struct CollOutput {
    /// Destination region (RDMA write target).
    pub region: MemRegion,
    /// Byte offset within the region.
    pub offset: usize,
    /// Reception counter decremented by the result length (by 1 for
    /// barriers).
    pub counter: Option<Counter>,
    /// Wakeup region touched on delivery (parked commthreads resume).
    pub wakeup: Option<WakeupRegion>,
}

impl CollOutput {
    /// An output with no counter or wakeup (tests, simple callers).
    pub fn plain(region: MemRegion, offset: usize) -> Self {
        CollOutput { region, offset, counter: None, wakeup: None }
    }

    fn complete(&self, data: Option<&[u8]>, credit: u64) {
        if let Some(d) = data {
            self.region.write(self.offset, d);
        }
        if let Some(c) = &self.counter {
            c.delivered(credit);
        }
        if let Some(w) = &self.wakeup {
            w.touch();
        }
    }
}

/// A member's operand, read by the network straight from registered memory
/// (the collectives are RDMA-capable: callers stage nothing). The engine
/// copies or combines it into the route's window before
/// [`CollNet::contribute`] returns, so the region is free for reuse then.
#[derive(Clone, Copy)]
pub struct Operand<'a> {
    /// Source region.
    pub region: &'a MemRegion,
    /// Byte offset within the region.
    pub offset: usize,
    /// Operand length in bytes.
    pub len: usize,
}

impl<'a> Operand<'a> {
    /// `len` bytes of `region` at `offset`.
    pub fn new(region: &'a MemRegion, offset: usize, len: usize) -> Self {
        Operand { region, offset, len }
    }

    /// Read the operand into `buf`, resized to fit (its capacity is kept).
    fn read_into(&self, buf: &mut Vec<u8>) {
        buf.resize(self.len, 0);
        self.region.read(self.offset, buf);
    }
}

/// One member node's contribution to a collective operation.
pub enum CollContribution<'a> {
    /// Allreduce: contribute `data`, receive the combined result.
    Allreduce {
        /// Combine operation.
        op: CollOp,
        /// Element type.
        dtype: DataType,
        /// This node's operand.
        data: Operand<'a>,
        /// Where the result lands on this node.
        output: CollOutput,
    },
    /// Reduce: contribute `data`; only the root passes an output.
    Reduce {
        /// Combine operation.
        op: CollOp,
        /// Element type.
        dtype: DataType,
        /// This node's operand.
        data: Operand<'a>,
        /// Result destination (root only).
        output: Option<CollOutput>,
    },
    /// Broadcast: the root contributes `Some(data)`; everyone receiving
    /// passes an output.
    Broadcast {
        /// Payload (root only).
        data: Option<Operand<'a>>,
        /// Payload length (every member must agree).
        len: usize,
        /// Destination (members other than the root; the root may also
        /// receive into place).
        output: Option<CollOutput>,
    },
    /// Barrier: no payload; the output counter (if any) is decremented by 1
    /// at release.
    Barrier {
        /// Completion signal.
        output: Option<CollOutput>,
    },
}

impl CollContribution<'_> {
    fn signature(&self) -> OpSignature {
        match self {
            CollContribution::Allreduce { op, dtype, data, .. } => {
                OpSignature::Allreduce(*op, *dtype, data.len)
            }
            CollContribution::Reduce { op, dtype, data, .. } => {
                OpSignature::Reduce(*op, *dtype, data.len)
            }
            CollContribution::Broadcast { len, .. } => OpSignature::Broadcast(*len),
            CollContribution::Barrier { .. } => OpSignature::Barrier,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OpSignature {
    Allreduce(CollOp, DataType, usize),
    Reduce(CollOp, DataType, usize),
    Broadcast(usize),
    Barrier,
}

/// One in-flight operation. Slots are reset and reused, so `data` and
/// `outputs` keep their capacity from one operation to the next.
#[derive(Default)]
struct Slot {
    signature: Option<OpSignature>,
    received: usize,
    /// Running combine (allreduce/reduce) or broadcast payload, valid once
    /// `has_data`.
    data: Vec<u8>,
    has_data: bool,
    /// Staging for operands folded into `data`.
    staging: Vec<u8>,
    outputs: Vec<CollOutput>,
    /// Completed but not yet retired from the window's front.
    done: bool,
}

impl Slot {
    fn accumulate(&mut self, route: &ClassRoute, seq: u64, input: CollContribution<'_>) {
        match input {
            CollContribution::Allreduce { op, dtype, data, output } => {
                self.fold(op, dtype, data);
                self.outputs.push(output);
            }
            CollContribution::Reduce { op, dtype, data, output } => {
                self.fold(op, dtype, data);
                self.outputs.extend(output);
            }
            CollContribution::Broadcast { data, output, .. } => {
                if let Some(d) = data {
                    assert!(
                        !self.has_data,
                        "classroute {:?} seq {seq}: two broadcast roots",
                        route.id
                    );
                    self.store(d);
                }
                self.outputs.extend(output);
            }
            CollContribution::Barrier { output } => self.outputs.extend(output),
        }
    }

    fn fold(&mut self, op: CollOp, dtype: DataType, data: Operand<'_>) {
        if self.has_data {
            data.read_into(&mut self.staging);
            combine(op, dtype, &mut self.data, &self.staging);
        } else {
            self.store(data);
        }
    }

    fn store(&mut self, data: Operand<'_>) {
        data.read_into(&mut self.data);
        self.has_data = true;
    }

    /// Deliver the result to every output, then clear the slot for reuse.
    fn complete(&mut self, route: &ClassRoute, seq: u64) {
        let signature = self.signature.expect("a completing slot has contributions");
        let (data, credit): (Option<&[u8]>, u64) = match signature {
            OpSignature::Allreduce(..) | OpSignature::Reduce(..) => {
                (Some(self.data.as_slice()), self.data.len().max(1) as u64)
            }
            OpSignature::Broadcast(len) => {
                assert!(
                    self.has_data,
                    "classroute {:?} seq {seq}: broadcast without a root",
                    route.id
                );
                assert_eq!(self.data.len(), len, "broadcast root length mismatch");
                (Some(self.data.as_slice()), len.max(1) as u64)
            }
            OpSignature::Barrier => (None, 1),
        };
        for out in &self.outputs {
            out.complete(data, credit);
        }
        self.outputs.clear();
        self.signature = None;
        self.received = 0;
        self.has_data = false;
        self.done = true;
    }
}

/// Operations in flight on one route: slot `i` holds sequence `base + i`.
/// The deque grows to the deepest pipeline a route has seen (any depth —
/// a long pipelined allreduce or a single-threaded test can run many
/// slices ahead) and retired slots rotate to the back for reuse.
#[derive(Default)]
struct Window {
    base: u64,
    slots: VecDeque<Slot>,
}

/// The combine state of one classroute allocation, shared by every clone
/// of the [`ClassRoute`] the manager returned.
#[derive(Default)]
pub(crate) struct CombineTable {
    /// Next sequence number per member node (indexed by
    /// [`bgq_torus::Rectangle::member_index`]), each on its own line so a
    /// node's leader bumps it without touching the others'. Allocated on
    /// the route's first contribution.
    seqs: OnceLock<Box<[CachePadded<AtomicU64>]>>,
    window: Mutex<Window>,
}

impl std::fmt::Debug for CombineTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CombineTable").finish_non_exhaustive()
    }
}

impl CombineTable {
    fn next_seq(&self, member: usize, members: usize) -> u64 {
        let seqs = self
            .seqs
            .get_or_init(|| (0..members).map(|_| CachePadded::new(AtomicU64::new(0))).collect());
        seqs[member].fetch_add(1, Ordering::Relaxed)
    }
}

/// Stripes of the engine's completed-operation count, indexed by the
/// completing member, so the count is not one line every leader writes.
const COMPLETED_STRIPES: usize = 8;

/// The collective network engine for one partition.
///
/// Shared (via clone) by every node driver; one instance per
/// [`crate::classroute::ClassRouteManager`] is typical. The per-operation
/// state lives in each route's combine table; the engine itself only
/// counts completions.
#[derive(Clone, Default)]
pub struct CollNet {
    inner: std::sync::Arc<CollNetInner>,
}

#[derive(Default)]
struct CollNetInner {
    completed: [CachePadded<AtomicU64>; COMPLETED_STRIPES],
}

impl CollNet {
    /// A fresh engine.
    pub fn new() -> Self {
        Self::default()
    }

    /// Operations fully completed so far (diagnostics).
    pub fn completed_ops(&self) -> u64 {
        self.inner.completed.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }

    /// Contribute `node`'s part of the next collective on `route`.
    ///
    /// Calls on one node are matched to calls on the other members in
    /// per-node program order, like the hardware serializes a route. The
    /// contribution completes immediately if this is the last arrival;
    /// completion is observed through the members' counters/wakeups.
    ///
    /// Returns the operation sequence number (diagnostics).
    ///
    /// # Panics
    /// If `node` is not a member of the route's rectangle, or members
    /// disagree on the operation (different kind/op/length), or a broadcast
    /// has no root payload by the time all members arrived.
    pub fn contribute(&self, route: &ClassRoute, node: Coords, input: CollContribution<'_>) -> u64 {
        assert!(
            route.rect.contains(node),
            "node {node} is not a member of classroute {:?}",
            route.id
        );
        let members = route.rect.num_nodes();
        let member = route.rect.member_index(node);
        let table = &route.table;
        let seq = table.next_seq(member, members);
        let signature = input.signature();

        let mut window = table.window.lock();
        let idx = (seq - window.base) as usize;
        if window.slots.len() <= idx {
            window.slots.resize_with(idx + 1, Slot::default);
        }
        let slot = &mut window.slots[idx];
        let expected = *slot.signature.get_or_insert(signature);
        assert_eq!(
            expected, signature,
            "classroute {:?} seq {seq}: members disagree on the operation",
            route.id
        );
        slot.received += 1;
        slot.accumulate(route, seq, input);
        if slot.received == members {
            slot.complete(route, seq);
            // Operations on a route complete in sequence order in practice;
            // retire from the front whatever has finished.
            while window.slots.front().is_some_and(|s| s.done) {
                window.slots.rotate_left(1);
                window.slots.back_mut().expect("non-empty").done = false;
                window.base += 1;
            }
            drop(window);
            self.inner.completed[member % COMPLETED_STRIPES].fetch_add(1, Ordering::Relaxed);
        }
        seq
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classroute::ClassRouteManager;
    use crate::ops::elems;
    use bgq_torus::{Rectangle, TorusShape};

    fn route4() -> (ClassRouteManager, ClassRoute) {
        let shape = TorusShape::new([4, 1, 1, 1, 1]);
        let mgr = ClassRouteManager::new(shape);
        let route = mgr.allocate(Rectangle::full(shape), None).unwrap();
        (mgr, route)
    }

    fn node(a: u16) -> Coords {
        Coords([a, 0, 0, 0, 0])
    }

    fn i64s(v: &[i64]) -> MemRegion {
        MemRegion::from_vec(elems::from_i64(v))
    }

    fn whole(region: &MemRegion) -> Operand<'_> {
        Operand::new(region, 0, region.len())
    }

    #[test]
    fn allreduce_sum_of_doubles() {
        let (_mgr, route) = route4();
        let net = CollNet::new();
        let outs: Vec<MemRegion> = (0..4).map(|_| MemRegion::zeroed(16)).collect();
        let counters: Vec<Counter> = (0..4).map(|_| Counter::new()).collect();
        for c in &counters {
            c.add_expected(16);
        }
        for i in 0..4u16 {
            net.contribute(
                &route,
                node(i),
                CollContribution::Allreduce {
                    op: CollOp::Sum,
                    dtype: DataType::Float64,
                    data: whole(&MemRegion::from_vec(elems::from_f64(&[
                        i as f64,
                        10.0 * i as f64,
                    ]))),
                    output: CollOutput {
                        region: outs[i as usize].clone(),
                        offset: 0,
                        counter: Some(counters[i as usize].clone()),
                        wakeup: None,
                    },
                },
            );
        }
        for (out, c) in outs.iter().zip(&counters) {
            assert!(c.is_complete());
            assert_eq!(elems::to_f64(&out.to_vec()), vec![6.0, 60.0]);
        }
        assert_eq!(net.completed_ops(), 1);
    }

    #[test]
    fn reduce_delivers_only_to_root() {
        let (_mgr, route) = route4();
        let net = CollNet::new();
        let root_out = MemRegion::zeroed(8);
        for i in 0..4u16 {
            let output = (i == 0).then(|| CollOutput::plain(root_out.clone(), 0));
            net.contribute(
                &route,
                node(i),
                CollContribution::Reduce {
                    op: CollOp::Max,
                    dtype: DataType::Int64,
                    data: whole(&i64s(&[i as i64 * 7 - 3])),
                    output,
                },
            );
        }
        assert_eq!(elems::to_i64(&root_out.to_vec()), vec![18]);
    }

    #[test]
    fn broadcast_from_root_reaches_members() {
        let (_mgr, route) = route4();
        let net = CollNet::new();
        let payload = MemRegion::from_vec(vec![0xAB; 64]);
        let outs: Vec<MemRegion> = (0..3).map(|_| MemRegion::zeroed(64)).collect();
        // Non-root members contribute first: nothing completes early.
        for i in 1..4u16 {
            net.contribute(
                &route,
                node(i),
                CollContribution::Broadcast {
                    data: None,
                    len: 64,
                    output: Some(CollOutput::plain(outs[i as usize - 1].clone(), 0)),
                },
            );
        }
        assert_eq!(net.completed_ops(), 0);
        net.contribute(
            &route,
            node(0),
            CollContribution::Broadcast {
                data: Some(whole(&payload)),
                len: 64,
                output: None,
            },
        );
        for out in &outs {
            assert_eq!(out.to_vec(), payload.to_vec());
        }
    }

    #[test]
    fn barrier_releases_all_counters_only_at_last_arrival() {
        let (_mgr, route) = route4();
        let net = CollNet::new();
        let counters: Vec<Counter> = (0..4).map(|_| Counter::new()).collect();
        for c in &counters {
            c.add_expected(1);
        }
        for i in 0..3u16 {
            net.contribute(
                &route,
                node(i),
                CollContribution::Barrier {
                    output: Some(CollOutput {
                        region: MemRegion::zeroed(0),
                        offset: 0,
                        counter: Some(counters[i as usize].clone()),
                        wakeup: None,
                    }),
                },
            );
            assert!(!counters[0].is_complete(), "no release before all arrive");
        }
        net.contribute(
            &route,
            node(3),
            CollContribution::Barrier {
                output: Some(CollOutput {
                    region: MemRegion::zeroed(0),
                    offset: 0,
                    counter: Some(counters[3].clone()),
                    wakeup: None,
                }),
            },
        );
        assert!(counters.iter().all(|c| c.is_complete()));
    }

    #[test]
    fn pipelined_slices_complete_in_order_per_route() {
        let (_mgr, route) = route4();
        let net = CollNet::new();
        // Deep enough that any fixed ring would overflow: the window must
        // hold every slice node 0 runs ahead.
        const SLICES: usize = 1000;
        let out = MemRegion::zeroed(8 * SLICES);
        // Node 0 contributes every slice up front (pipelining); the others
        // follow one slice at a time.
        for slice in 0..SLICES {
            net.contribute(
                &route,
                node(0),
                CollContribution::Allreduce {
                    op: CollOp::Sum,
                    dtype: DataType::Int64,
                    data: whole(&i64s(&[slice as i64])),
                    output: CollOutput::plain(out.clone(), slice * 8),
                },
            );
        }
        assert_eq!(net.completed_ops(), 0);
        for slice in 0..SLICES {
            for i in 1..4u16 {
                net.contribute(
                    &route,
                    node(i),
                    CollContribution::Allreduce {
                        op: CollOp::Sum,
                        dtype: DataType::Int64,
                        data: whole(&i64s(&[slice as i64])),
                        output: CollOutput::plain(MemRegion::zeroed(8), 0),
                    },
                );
            }
            assert_eq!(net.completed_ops(), slice as u64 + 1, "slices complete in order");
        }
        let want: Vec<i64> = (0..SLICES as i64).map(|s| 4 * s).collect();
        assert_eq!(elems::to_i64(&out.to_vec()), want);
    }

    fn allreduce_i64(net: &CollNet, route: &ClassRoute, a: u16, v: i64, out: &MemRegion) -> Counter {
        let done = Counter::new();
        done.add_expected(8);
        net.contribute(
            route,
            node(a),
            CollContribution::Allreduce {
                op: CollOp::Sum,
                dtype: DataType::Int64,
                data: whole(&i64s(&[v])),
                output: CollOutput {
                    region: out.clone(),
                    offset: 0,
                    counter: Some(done.clone()),
                    wakeup: None,
                },
            },
        );
        done
    }

    /// A route id freed by a two-node rectangle and reallocated to a
    /// four-node one must not inherit the old members' sequence numbers:
    /// the first operation on the new route completes.
    #[test]
    fn reused_route_id_starts_from_fresh_sequences() {
        let shape = TorusShape::new([4, 1, 1, 1, 1]);
        let mgr = ClassRouteManager::new(shape);
        let net = CollNet::new();
        let pair = mgr
            .allocate(Rectangle::new(node(0), node(1)), None)
            .unwrap();
        let out = MemRegion::zeroed(8);
        for round in 0..3 {
            let c0 = allreduce_i64(&net, &pair, 0, round, &out);
            let c1 = allreduce_i64(&net, &pair, 1, 1, &out);
            assert!(c0.is_complete() && c1.is_complete(), "pair round {round}");
        }
        mgr.free(&pair);
        let world = mgr.allocate(Rectangle::full(shape), None).unwrap();
        assert_eq!(world.id, pair.id, "the freed id is handed out again");
        let counters: Vec<Counter> =
            (0..4u16).map(|a| allreduce_i64(&net, &world, a, 10 + a as i64, &out)).collect();
        assert!(counters.iter().all(Counter::is_complete), "first op on the reused id completes");
        assert_eq!(elems::to_i64(&out.to_vec()), vec![10 + 11 + 12 + 13]);
        assert_eq!(net.completed_ops(), 4);
    }

    #[test]
    #[should_panic(expected = "not a member")]
    fn non_member_contribution_panics() {
        let shape = TorusShape::new([4, 2, 1, 1, 1]);
        let mgr = ClassRouteManager::new(shape);
        let rect = Rectangle::new(Coords([0, 0, 0, 0, 0]), Coords([1, 0, 0, 0, 0]));
        let route = mgr.allocate(rect, None).unwrap();
        let net = CollNet::new();
        net.contribute(
            &route,
            Coords([3, 1, 0, 0, 0]),
            CollContribution::Barrier { output: None },
        );
    }

    #[test]
    #[should_panic(expected = "disagree")]
    fn mismatched_operations_panic() {
        let shape = TorusShape::new([2, 1, 1, 1, 1]);
        let mgr = ClassRouteManager::new(shape);
        let route = mgr.allocate(Rectangle::full(shape), None).unwrap();
        let net = CollNet::new();
        net.contribute(
            &route,
            node(0),
            CollContribution::Allreduce {
                op: CollOp::Sum,
                dtype: DataType::Int64,
                data: whole(&MemRegion::zeroed(8)),
                output: CollOutput::plain(MemRegion::zeroed(8), 0),
            },
        );
        net.contribute(&route, node(1), CollContribution::Barrier { output: None });
    }

    #[test]
    fn concurrent_contributions_from_threads() {
        let shape = TorusShape::new([8, 1, 1, 1, 1]);
        let mgr = ClassRouteManager::new(shape);
        let route = std::sync::Arc::new(mgr.allocate(Rectangle::full(shape), None).unwrap());
        let net = CollNet::new();
        const ROUNDS: usize = 50;
        let outs: Vec<MemRegion> = (0..8).map(|_| MemRegion::zeroed(8 * ROUNDS)).collect();
        std::thread::scope(|s| {
            for i in 0..8u16 {
                let net = net.clone();
                let route = std::sync::Arc::clone(&route);
                let out = outs[i as usize].clone();
                s.spawn(move || {
                    for r in 0..ROUNDS {
                        net.contribute(
                            &route,
                            node(i),
                            CollContribution::Allreduce {
                                op: CollOp::Sum,
                                dtype: DataType::Int64,
                                data: whole(&i64s(&[(r + 1) as i64])),
                                output: CollOutput::plain(out.clone(), r * 8),
                            },
                        );
                    }
                });
            }
        });
        for out in &outs {
            let got = elems::to_i64(&out.to_vec());
            let want: Vec<i64> = (1..=ROUNDS as i64).map(|r| r * 8).collect();
            assert_eq!(got, want);
        }
        assert_eq!(net.completed_ops(), ROUNDS as u64);
    }
}
