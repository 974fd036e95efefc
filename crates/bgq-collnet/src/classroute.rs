//! Classroute allocation.
//!
//! "Each classroute specifies the links that are the down tree inputs to
//! the router and the uptree output. ... The number of classroutes in which
//! a node can participate is 16; however some are reserved for system use."
//! A collective packet names its classroute, so every participating node
//! must program the *same* route id — allocation therefore has to find an
//! id simultaneously free on every member node. That scarcity is why PAMI
//! exposes communicator "optimize"/"deoptimize" (section III.D): an active
//! set of communicators rotates through the available routes.

use std::collections::HashMap;
use std::sync::Arc;

use bgq_torus::trees::TreeKind;
use bgq_torus::{Coords, Rectangle, SpanningTree, TorusShape, ALL_DIMS};
use parking_lot::Mutex;

use crate::combiner::CombineTable;

/// Classroutes a node can participate in.
pub const NUM_CLASSROUTES: usize = 16;

/// Routes reserved for system use (the highest ids in this model).
pub const SYSTEM_RESERVED_ROUTES: usize = 2;

/// A classroute identifier (0..16).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ClassRouteId(pub u8);

/// Why classroute allocation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClassRouteError {
    /// No route id is free on every member node — deoptimize something
    /// first.
    Exhausted,
    /// The requested node set is not a contiguous rectangle.
    NotRectangular,
}

impl std::fmt::Display for ClassRouteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClassRouteError::Exhausted => {
                write!(f, "no classroute id free on all member nodes")
            }
            ClassRouteError::NotRectangular => {
                write!(f, "classroutes require a contiguous rectangular node set")
            }
        }
    }
}

impl std::error::Error for ClassRouteError {}

/// A programmed classroute: the id, the rectangle it covers, and the
/// combine tree the routers follow.
///
/// Each successful [`ClassRouteManager::allocate`] creates a fresh combine
/// table (the in-flight collective state) that clones of the route share. The table belongs to the
/// allocation, not to the id: after a `free`, a new allocation of the same
/// id — possibly over a different rectangle — matches its contributions
/// from sequence 0.
#[derive(Debug, Clone)]
pub struct ClassRoute {
    /// Route id, identical on every member node.
    pub id: ClassRouteId,
    /// Member node set.
    pub rect: Rectangle,
    /// Tree root (where reductions complete).
    pub root: Coords,
    /// The router tree.
    pub tree: SpanningTree,
    /// This allocation's in-flight collective state.
    pub(crate) table: Arc<CombineTable>,
}

impl ClassRoute {
    /// Number of participating nodes.
    pub fn num_nodes(&self) -> usize {
        self.rect.num_nodes()
    }
}

struct ManagerState {
    /// Per-node bitmask of occupied route ids.
    occupancy: HashMap<usize, u16>,
    /// Live routes by id → rectangle (diagnostics).
    live: HashMap<u8, Rectangle>,
}

/// Allocates classroutes over a torus partition, enforcing the per-node
/// 16-route budget (minus system reservations).
pub struct ClassRouteManager {
    shape: TorusShape,
    state: Mutex<ManagerState>,
}

impl ClassRouteManager {
    /// A manager for one partition. System routes are pre-reserved on every
    /// node.
    pub fn new(shape: TorusShape) -> Self {
        ClassRouteManager {
            shape,
            state: Mutex::new(ManagerState { occupancy: HashMap::new(), live: HashMap::new() }),
        }
    }

    /// The partition shape.
    pub fn shape(&self) -> TorusShape {
        self.shape
    }

    fn user_mask() -> u16 {
        // Low (16 - reserved) ids are user-allocatable.
        (1u16 << (NUM_CLASSROUTES - SYSTEM_RESERVED_ROUTES)) - 1
    }

    /// Program a classroute over `rect`, rooted at `root` (defaults to the
    /// rectangle's low corner). Returns the route or why it cannot exist.
    pub fn allocate(
        &self,
        rect: Rectangle,
        root: Option<Coords>,
    ) -> Result<ClassRoute, ClassRouteError> {
        let root = root.unwrap_or(rect.lo);
        if !rect.contains(root) {
            return Err(ClassRouteError::NotRectangular);
        }
        let mut state = self.state.lock();
        // An id is usable iff free on every member node.
        let mut used = 0u16;
        for c in rect.iter() {
            let node = self.shape.node_index(c);
            used |= state.occupancy.get(&node).copied().unwrap_or(0);
        }
        let free = !used & Self::user_mask();
        if free == 0 {
            return Err(ClassRouteError::Exhausted);
        }
        let id = free.trailing_zeros() as u8;
        for c in rect.iter() {
            let node = self.shape.node_index(c);
            *state.occupancy.entry(node).or_insert(0) |= 1 << id;
        }
        state.live.insert(id, rect);
        let tree = SpanningTree::build(self.shape, rect, root, TreeKind::DimOrdered(ALL_DIMS));
        Ok(ClassRoute { id: ClassRouteId(id), rect, root, tree, table: Arc::default() })
    }

    /// Release a route's id on all its member nodes ("deoptimize").
    pub fn free(&self, route: &ClassRoute) {
        let mut state = self.state.lock();
        for c in route.rect.iter() {
            let node = self.shape.node_index(c);
            if let Some(mask) = state.occupancy.get_mut(&node) {
                *mask &= !(1 << route.id.0);
            }
        }
        state.live.remove(&route.id.0);
    }

    /// How many route ids remain usable on the most-loaded node of `rect`.
    pub fn available_for(&self, rect: Rectangle) -> usize {
        let state = self.state.lock();
        let mut used = 0u16;
        for c in rect.iter() {
            let node = self.shape.node_index(c);
            used |= state.occupancy.get(&node).copied().unwrap_or(0);
        }
        (!used & Self::user_mask()).count_ones() as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape() -> TorusShape {
        TorusShape::new([4, 4, 1, 1, 1])
    }

    #[test]
    fn allocates_distinct_ids_on_overlapping_rects() {
        let mgr = ClassRouteManager::new(shape());
        let full = Rectangle::full(shape());
        let a = mgr.allocate(full, None).unwrap();
        let b = mgr.allocate(full, None).unwrap();
        assert_ne!(a.id, b.id);
    }

    #[test]
    fn disjoint_rects_can_share_ids() {
        let mgr = ClassRouteManager::new(shape());
        let left = Rectangle::new(Coords([0, 0, 0, 0, 0]), Coords([1, 3, 0, 0, 0]));
        let right = Rectangle::new(Coords([2, 0, 0, 0, 0]), Coords([3, 3, 0, 0, 0]));
        let a = mgr.allocate(left, None).unwrap();
        let b = mgr.allocate(right, None).unwrap();
        assert_eq!(a.id, b.id, "disjoint node sets reuse the same id");
    }

    #[test]
    fn exhaustion_and_deoptimize_reuse() {
        let mgr = ClassRouteManager::new(shape());
        let full = Rectangle::full(shape());
        let user_routes = NUM_CLASSROUTES - SYSTEM_RESERVED_ROUTES;
        let mut routes = Vec::new();
        for _ in 0..user_routes {
            routes.push(mgr.allocate(full, None).unwrap());
        }
        assert_eq!(mgr.allocate(full, None).unwrap_err(), ClassRouteError::Exhausted);
        assert_eq!(mgr.available_for(full), 0);
        // Deoptimize one communicator → its id becomes reusable.
        let freed = routes.pop().unwrap();
        let freed_id = freed.id;
        mgr.free(&freed);
        let again = mgr.allocate(full, None).unwrap();
        assert_eq!(again.id, freed_id);
    }

    #[test]
    fn root_defaults_to_low_corner_and_tree_spans() {
        let mgr = ClassRouteManager::new(shape());
        let rect = Rectangle::new(Coords([1, 1, 0, 0, 0]), Coords([2, 3, 0, 0, 0]));
        let route = mgr.allocate(rect, None).unwrap();
        assert_eq!(route.root, rect.lo);
        assert_eq!(route.tree.num_nodes(), rect.num_nodes());
        assert_eq!(route.num_nodes(), 6);
    }

    #[test]
    fn root_outside_rect_rejected() {
        let mgr = ClassRouteManager::new(shape());
        let rect = Rectangle::new(Coords([0, 0, 0, 0, 0]), Coords([1, 1, 0, 0, 0]));
        assert_eq!(
            mgr.allocate(rect, Some(Coords([3, 3, 0, 0, 0]))).unwrap_err(),
            ClassRouteError::NotRectangular
        );
    }

    #[test]
    fn partial_overlap_consumes_ids_on_shared_nodes_only() {
        let mgr = ClassRouteManager::new(shape());
        let left = Rectangle::new(Coords([0, 0, 0, 0, 0]), Coords([1, 3, 0, 0, 0]));
        let all = Rectangle::full(shape());
        let _a = mgr.allocate(left, None).unwrap();
        // The full rectangle overlaps `left`, so it must pick a different id,
        // but plenty remain.
        let b = mgr.allocate(all, None).unwrap();
        assert_ne!(b.id.0, 0);
        let right = Rectangle::new(Coords([2, 0, 0, 0, 0]), Coords([3, 3, 0, 0, 0]));
        // Right half: id 0 still free there.
        let c = mgr.allocate(right, None).unwrap();
        assert_eq!(c.id.0, 0);
    }
}
