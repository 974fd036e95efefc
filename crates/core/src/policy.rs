//! The protocol-selection layer: one object decides, per message, whether a
//! send goes **eager** (payload travels with the message, delivered through
//! the memory-FIFO or inline shared-memory path) or **rendezvous** (an RTS
//! travels, the target pulls the payload with a remote get / global-VA
//! single-copy read).
//!
//! Real PAMI picks the protocol per message inside the send call; our
//! reproduction used to hard-code one machine-wide `eager_limit` read at two
//! call sites. This module lifts the decision behind the [`ProtocolPolicy`]
//! trait so the crossover can be *tuned at runtime* from live `bgq-upc`
//! readings — the "telemetry-driven adaptive protocols" item of the roadmap,
//! and the per-transport protocol selection that pMR-style transport layers
//! show paying off.
//!
//! Two implementations ship:
//!
//! * [`StaticPolicy`] — today's behaviour, bit for bit: `len <= limit` goes
//!   eager, everything else rendezvous. No state, no probes, no locks.
//! * [`AdaptivePolicy`] — keeps per-destination crossover state and walks
//!   the eager/rendezvous threshold toward whichever protocol live
//!   telemetry says is cheaper near the crossover. Inputs: the measured
//!   eager delivery time and rendezvous round-trip cost (stamped on the
//!   wire envelope by the sender, observed by the receiver), plus periodic
//!   `Upc` snapshot readings of `match.unexpected_depth` (a receiver
//!   falling behind) and `mu.payload_copies` (eager staging pressure).
//!   Movement is multiplicative with hysteresis, and the crossover is
//!   clamped to `[min, max]`, so the policy can never diverge: above the
//!   clamp it is *always* rendezvous, below the floor *always* eager.
//!
//! With the `telemetry` feature compiled out every wire stamp is zero, so
//! measured costs tie, the strict-inequality movement rules never fire, and
//! the adaptive policy degenerates to the static path (additionally guarded
//! on [`bgq_upc::ENABLED`]).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

use bgq_upc::{Histogram, Upc};
use parking_lot::Mutex;

/// Default short/eager crossover in bytes — the Charm++ PAMI machine
/// layer's `SHORT_CUTOFF 128`: payloads at or below it inline into a single
/// packet envelope with no region setup and no completion counter.
pub const SHORT_CUTOFF: usize = 128;

/// Which wire protocol a send uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Protocol {
    /// The send is appended into a per-destination coalescing bucket
    /// (`pami::aggr`) and travels later as one record of a multi-message
    /// packet — the TRAM-style amortization of per-message software
    /// overhead. Only ever selected for payloads at or below the
    /// aggregation cutoff, and (adaptively) only for destinations whose
    /// observed arrival rate is dense enough that the batching delay is
    /// repaid.
    Aggregated,
    /// Metadata and payload inline into one packet envelope — no region
    /// registration, no completion counter, no fragment loop; the receive
    /// side dispatches straight from the packet.
    Short,
    /// Payload travels with the message (memory-FIFO packets off-node,
    /// inline mailbox copy on-node).
    Eager,
    /// An RTS travels; the target pulls the payload (remote get off-node,
    /// global-VA single-copy read on-node).
    Rendezvous,
}

/// A completed-transfer observation fed back into the policy by the
/// receiving context. `ns` is the wire-to-delivery time measured against
/// the stamp the sender put in the message envelope (0 with telemetry off).
#[derive(Debug, Clone, Copy)]
pub enum ProtoEvent {
    /// A short-tier message (single inline packet) was delivered at `dest`.
    ShortDelivered {
        /// The receiving task (the key the sender selected by).
        dest: u32,
        /// Payload length.
        len: usize,
        /// Send-stamp → delivery nanoseconds.
        ns: u64,
    },
    /// An eager message was fully delivered at `dest`.
    EagerDelivered {
        /// The receiving task (the key the sender selected by).
        dest: u32,
        /// Payload length.
        len: usize,
        /// Send-stamp → delivery nanoseconds.
        ns: u64,
    },
    /// A rendezvous transfer completed at `dest` (RTS flight + remote get +
    /// direct put — the full round-trip cost of choosing rendezvous).
    RzvComplete {
        /// The receiving task.
        dest: u32,
        /// Payload length.
        len: usize,
        /// Send-stamp → completion nanoseconds.
        ns: u64,
    },
    /// The RAS layer saw link trouble on the path to `dest`: retransmits
    /// (a recoverable drop/corruption cost eager pays in full, since its
    /// payload rides memory-FIFO packets) and delivery failures (a channel
    /// gave up — traffic should be behind completion counters). Fed by the
    /// machine's RAS-ring observer, not by a delivery stamp, so it carries
    /// counts rather than nanoseconds.
    DeliveryTrouble {
        /// The destination task whose protocol state should shift.
        dest: u32,
        /// `ras.retransmits` delta attributed to this destination —
        /// RTO-driven probes, the protocol's strongest loss signal.
        retransmits: u64,
        /// `ras.sack_retransmits` + reorder-evict delta: losses recovered
        /// by selective-repeat SACK feedback (or buffer pressure) without
        /// waiting out an RTO — real loss, but cheaper than a timeout.
        sack_retransmits: u64,
        /// `ras.delivery_failures` delta attributed to this destination.
        failures: u64,
    },
}

impl ProtoEvent {
    fn parts(&self) -> (Protocol, u32, usize, u64) {
        match *self {
            ProtoEvent::ShortDelivered { dest, len, ns } => (Protocol::Short, dest, len, ns),
            ProtoEvent::EagerDelivered { dest, len, ns } => (Protocol::Eager, dest, len, ns),
            ProtoEvent::RzvComplete { dest, len, ns } => (Protocol::Rendezvous, dest, len, ns),
            ProtoEvent::DeliveryTrouble { .. } => {
                unreachable!("RAS events are consumed before parts()")
            }
        }
    }
}

/// A protocol-selection policy. Owned by the [`crate::machine::Machine`]
/// (one per partition); consulted by [`crate::context::Context::send`] on
/// every two-sided send and fed outcomes by the receiving context.
///
/// Implementations must be cheap and thread-safe: `select` runs on the
/// sender's fast path, `observe` on the advancing thread.
pub trait ProtocolPolicy: Send + Sync {
    /// Pick the protocol for a `len`-byte send to task `dest`.
    fn select(&self, dest: u32, len: usize) -> Protocol;

    /// Feed back a completed-transfer observation (default: ignored).
    fn observe(&self, ev: ProtoEvent) {
        let _ = ev;
    }

    /// Whether this policy uses [`Self::observe`] feedback at all. When
    /// `false` (the static default) the runtime skips the send-side clock
    /// stamp and the delivery-side clock read entirely — the envelope
    /// carries a zero stamp and `observe` is never called, keeping the
    /// eager hot path free of per-message clock costs.
    fn wants_feedback(&self) -> bool {
        false
    }

    /// The current eager/rendezvous crossover for `dest`, in bytes
    /// (diagnostics; adaptive policies report per-destination state).
    fn crossover(&self, dest: u32) -> usize;

    /// The current short/eager crossover for `dest`, in bytes. Zero means
    /// the policy has no short tier (the pre-ladder default).
    fn short_crossover(&self, dest: u32) -> usize {
        let _ = dest;
        0
    }

    /// Fixed `(aggr, short, limit)` thresholds when this policy is a pure
    /// destination-independent ladder, letting contexts select inline
    /// without the virtual call on every send. `None` (the default) for
    /// policies whose choice depends on the destination or on feedback.
    fn fixed_thresholds(&self) -> Option<(usize, usize, usize)> {
        None
    }

    /// Short policy name for reports (`"static"` / `"adaptive"`).
    fn name(&self) -> &'static str;
}

// ---------------------------------------------------------------------------
// Static
// ---------------------------------------------------------------------------

/// Fixed-threshold ladder: `len <= aggr` (when enabled) aggregates,
/// `len <= short` goes short (inline single packet), `len <= limit` goes
/// eager, everything larger is rendezvous, for every destination.
pub struct StaticPolicy {
    aggr: usize,
    short: usize,
    limit: usize,
}

impl StaticPolicy {
    /// A static policy with the given eager limit in bytes and the default
    /// [`SHORT_CUTOFF`] short tier.
    pub fn new(limit: usize) -> StaticPolicy {
        StaticPolicy { aggr: 0, short: SHORT_CUTOFF.min(limit), limit }
    }

    /// A static policy with an explicit short cutoff (`0` disables the
    /// short tier — every small send takes the eager path, the pre-ladder
    /// behaviour the benches baseline against).
    pub fn with_short(short: usize, limit: usize) -> StaticPolicy {
        assert!(short <= limit, "short cutoff must not exceed the eager limit");
        StaticPolicy { aggr: 0, short, limit }
    }

    /// A static policy with an aggregation tier: payloads at or below
    /// `aggr` bytes coalesce unconditionally (`0` disables the tier). The
    /// machine installs this when [`crate::MachineBuilder::aggregation`] is
    /// set on a static-policy build.
    pub fn with_aggr(aggr: usize, short: usize, limit: usize) -> StaticPolicy {
        assert!(short <= limit, "short cutoff must not exceed the eager limit");
        assert!(aggr <= limit, "aggregation cutoff must not exceed the eager limit");
        StaticPolicy { aggr, short, limit }
    }
}

impl ProtocolPolicy for StaticPolicy {
    #[inline]
    fn select(&self, _dest: u32, len: usize) -> Protocol {
        if self.aggr > 0 && len <= self.aggr {
            Protocol::Aggregated
        } else if self.short > 0 && len <= self.short {
            Protocol::Short
        } else if len <= self.limit {
            Protocol::Eager
        } else {
            Protocol::Rendezvous
        }
    }

    fn crossover(&self, _dest: u32) -> usize {
        self.limit
    }

    fn short_crossover(&self, _dest: u32) -> usize {
        self.short
    }

    fn fixed_thresholds(&self) -> Option<(usize, usize, usize)> {
        Some((self.aggr, self.short, self.limit))
    }

    fn name(&self) -> &'static str {
        "static"
    }
}

// ---------------------------------------------------------------------------
// Adaptive
// ---------------------------------------------------------------------------

/// Tuning knobs of the [`AdaptivePolicy`]. The defaults are conservative:
/// the crossover starts at the machine's static eager limit and can move by
/// 25% steps within `[min, max]` only when one protocol beats the other by
/// the hysteresis margin on live measurements.
#[derive(Debug, Clone, Copy)]
pub struct AdaptiveConfig {
    /// Starting crossover for every destination (defaults to the machine's
    /// static eager limit).
    pub initial: usize,
    /// Hard floor: `len <= min` is always eager, and the crossover never
    /// tunes below this.
    pub min: usize,
    /// Hard clamp: `len > max` is always rendezvous — the policy can never
    /// pick eager above it — and the crossover never tunes past it.
    pub max: usize,
    /// Relative advantage one protocol must show before the crossover moves
    /// (0.15 = 15% cheaper per byte).
    pub hysteresis: f64,
    /// Multiplicative step per movement (crossover ×/÷ `step`).
    pub step: f64,
    /// Every `explore_every`-th in-band selection per destination flips the
    /// protocol so both cost estimates stay fresh.
    pub explore_every: u32,
    /// Minimum fresh samples of *each* protocol before a movement decision.
    pub min_samples: u32,
    /// Take a `Upc` snapshot (unexpected-queue depth, payload-copy
    /// pressure) every this many in-band observations.
    pub snapshot_every: u64,
    /// `match.unexpected_depth` p50 at or above which the congestion nudge
    /// pulls crossovers down (eager floods unexpected queues; rendezvous
    /// throttles the sender).
    pub depth_nudge_at: u64,
    /// Starting short/eager crossover for every destination.
    pub short_initial: usize,
    /// Hard floor of the short band: `len <= short_min` is always short and
    /// the short crossover never tunes below this.
    pub short_min: usize,
    /// Hard clamp of the short band; must stay at or below `min` (the short
    /// band sits strictly below the eager/rendezvous band) and below the
    /// single-packet payload limit so a short send is always one packet.
    pub short_max: usize,
    /// Aggregation eligibility cutoff in bytes: payloads at or below it
    /// *may* be coalesced (`pami::aggr`) when the destination's observed
    /// arrival rate is dense enough. `0` (the default) disables the
    /// aggregation arm entirely, keeping the small-message fast path
    /// lock-free. Must stay at or below `short_max` so a coalesced record
    /// that falls back still fits the short tier.
    pub aggr_cutoff: usize,
    /// Mean inter-arrival gap (EWMA, nanoseconds) at or below which a
    /// destination counts as *dense*: batching delay is repaid, so eligible
    /// sends start aggregating.
    pub aggr_dense_ns: u64,
    /// Single-gap threshold (nanoseconds) above which a destination counts
    /// as *sparse*: one such gap immediately stops aggregation for the
    /// destination (a one-shot trip, not an EWMA decision), so latency-
    /// sensitive trickle traffic never eats the age-bound delay twice.
    pub aggr_sparse_ns: u64,
    /// Fresh gap samples required before a destination may (re-)enter the
    /// aggregating state.
    pub aggr_min_samples: u32,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        AdaptiveConfig {
            initial: 4096,
            min: 512,
            max: 128 * 1024,
            hysteresis: 0.15,
            step: 1.25,
            explore_every: 8,
            min_samples: 8,
            snapshot_every: 256,
            depth_nudge_at: 8,
            short_initial: SHORT_CUTOFF,
            short_min: 32,
            short_max: 512,
            aggr_cutoff: 0,
            aggr_dense_ns: 4_000,
            aggr_sparse_ns: 16_000,
            aggr_min_samples: 8,
        }
    }
}

/// Exponentially-weighted moving average with a fresh-sample count (the
/// count resets on every crossover movement so decisions use post-movement
/// evidence).
#[derive(Debug, Clone, Copy, Default)]
struct Ewma {
    value: f64,
    fresh: u32,
}

impl Ewma {
    fn push(&mut self, v: f64) {
        if self.fresh == 0 && self.value == 0.0 {
            self.value = v;
        } else {
            self.value = 0.75 * self.value + 0.25 * v;
        }
        self.fresh = self.fresh.saturating_add(1);
    }

    fn reset_fresh(&mut self) {
        self.fresh = 0;
    }
}

/// Per-destination crossover state: two independently learned boundaries
/// (short/eager and eager/rendezvous), each steered by its own pair of
/// per-byte cost EWMAs sampled in its own decision band.
#[derive(Debug, Clone, Copy)]
struct DestState {
    crossover: usize,
    /// Per-byte eager delivery cost near the eager/rendezvous crossover.
    eager_cost: Ewma,
    /// Per-byte rendezvous round-trip cost near the crossover.
    rzv_cost: Ewma,
    selects: u32,
    /// Learned short/eager boundary.
    short_crossover: usize,
    /// Per-byte short delivery cost near the short crossover.
    short_cost: Ewma,
    /// Per-byte eager delivery cost near the *short* crossover (kept apart
    /// from `eager_cost` so small-message samples never steer the
    /// eager/rendezvous boundary and vice versa).
    eager_short_cost: Ewma,
    /// Clock reading of the last aggregation-eligible select (0 = never).
    last_arrival_ns: u64,
    /// EWMA of inter-arrival gaps between eligible sends, nanoseconds.
    interarrival: Ewma,
    /// Whether eligible sends to this destination currently aggregate.
    aggregating: bool,
}

/// Number of destination shards the adaptive per-destination map is split
/// across. The map used to sit behind one machine-wide mutex — every
/// in-band `select` from every context serialized on it, exactly the kind
/// of shared fast-path state the context-sharding work removes. Destinations
/// hash to shards by `dest % POLICY_SHARDS`, so contexts flooding disjoint
/// destinations take disjoint locks; the per-destination `selects` counter
/// inside each [`DestState`] doubles as the deterministic exploration clock,
/// leaving no shared RNG or clock state on the select path.
const POLICY_SHARDS: usize = 16;

/// Whole-stack congestion-reading state (snapshot deltas). Off the select
/// path entirely: touched only every `snapshot_every` observations.
struct CongestionState {
    last_copies: u64,
    last_depth_p50: u64,
}

/// `proto.*` probes: the selection layer's own telemetry.
struct ProtoProbes {
    aggr_selected: bgq_upc::Counter,
    short_selected: bgq_upc::Counter,
    eager_selected: bgq_upc::Counter,
    rzv_selected: bgq_upc::Counter,
    explorations: bgq_upc::Counter,
    crossover_raised: bgq_upc::Counter,
    crossover_lowered: bgq_upc::Counter,
    short_crossover_raised: bgq_upc::Counter,
    short_crossover_lowered: bgq_upc::Counter,
    congestion_nudges: bgq_upc::Counter,
    /// Crossover reductions driven by RAS trouble (retransmit/failure
    /// events pushing a destination toward counter-protected rendezvous).
    ras_downgrades: bgq_upc::Counter,
    /// Full rendezvous round-trip cost (send stamp → completion).
    rzv_rtt_ns: Histogram,
    /// Eager send stamp → delivery latency.
    eager_delivery_ns: Histogram,
    /// Short-tier send stamp → delivery latency.
    short_delivery_ns: Histogram,
}

impl ProtoProbes {
    fn new(upc: &Upc) -> ProtoProbes {
        ProtoProbes {
            aggr_selected: upc.counter("proto.aggr_selected"),
            short_selected: upc.counter("proto.short_selected"),
            eager_selected: upc.counter("proto.eager_selected"),
            rzv_selected: upc.counter("proto.rzv_selected"),
            explorations: upc.counter("proto.explorations"),
            crossover_raised: upc.counter("proto.crossover_raised"),
            crossover_lowered: upc.counter("proto.crossover_lowered"),
            short_crossover_raised: upc.counter("proto.short_crossover_raised"),
            short_crossover_lowered: upc.counter("proto.short_crossover_lowered"),
            congestion_nudges: upc.counter("proto.congestion_nudges"),
            ras_downgrades: upc.counter("proto.ras_downgrades"),
            rzv_rtt_ns: upc.histogram("proto.rzv_rtt_ns"),
            eager_delivery_ns: upc.histogram("proto.eager_delivery_ns"),
            short_delivery_ns: upc.histogram("proto.short_delivery_ns"),
        }
    }
}

/// Telemetry-driven adaptive eager/rendezvous selection with
/// per-destination crossover state. See the module docs for the algorithm;
/// the invariants are:
///
/// * the crossover is always inside `[cfg.min, cfg.max]`;
/// * `select` never returns [`Protocol::Eager`] for `len > cfg.max` and
///   never returns [`Protocol::Rendezvous`] for `len <= cfg.min`;
/// * with zero-cost observations (telemetry off) the crossover never moves,
///   so the policy behaves exactly like [`StaticPolicy`] at `initial`.
pub struct AdaptivePolicy {
    cfg: AdaptiveConfig,
    upc: Upc,
    probes: ProtoProbes,
    /// Per-destination crossover state, sharded by `dest % POLICY_SHARDS`.
    shards: Vec<Mutex<HashMap<u32, DestState>>>,
    /// In-band observation count (drives the periodic congestion check);
    /// lock-free so `observe` touches no shared mutex before the shard.
    observations: AtomicU64,
    congestion: Mutex<CongestionState>,
}

impl AdaptivePolicy {
    /// An adaptive policy registering its `proto.*` probes on `upc` (the
    /// machine's registry — also the registry its congestion readings come
    /// from).
    pub fn new(cfg: AdaptiveConfig, upc: &Upc) -> AdaptivePolicy {
        assert!(cfg.min >= 1 && cfg.min <= cfg.max, "adaptive clamp must satisfy 1 <= min <= max");
        assert!(cfg.step > 1.0, "adaptive step must be > 1");
        assert!(cfg.hysteresis >= 0.0, "hysteresis must be non-negative");
        assert!(
            cfg.short_min >= 1 && cfg.short_min <= cfg.short_max,
            "short clamp must satisfy 1 <= short_min <= short_max"
        );
        assert!(cfg.short_max <= cfg.min, "short band must sit below the eager/rzv band");
        assert!(
            cfg.aggr_cutoff <= cfg.short_max,
            "aggregation cutoff must sit inside the short band"
        );
        AdaptivePolicy {
            cfg,
            upc: upc.clone(),
            probes: ProtoProbes::new(upc),
            shards: (0..POLICY_SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
            observations: AtomicU64::new(0),
            congestion: Mutex::new(CongestionState { last_copies: 0, last_depth_p50: 0 }),
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &AdaptiveConfig {
        &self.cfg
    }

    #[inline]
    fn shard(&self, dest: u32) -> &Mutex<HashMap<u32, DestState>> {
        &self.shards[dest as usize % POLICY_SHARDS]
    }

    fn dest_entry<'a>(
        dests: &'a mut HashMap<u32, DestState>,
        cfg: &AdaptiveConfig,
        dest: u32,
    ) -> &'a mut DestState {
        dests.entry(dest).or_insert_with(|| DestState {
            crossover: cfg.initial.clamp(cfg.min, cfg.max),
            eager_cost: Ewma::default(),
            rzv_cost: Ewma::default(),
            selects: 0,
            short_crossover: cfg.short_initial.clamp(cfg.short_min, cfg.short_max),
            short_cost: Ewma::default(),
            eager_short_cost: Ewma::default(),
            last_arrival_ns: 0,
            interarrival: Ewma::default(),
            aggregating: false,
        })
    }

    /// Whether `len` sits in the decision band around `crossover` — the
    /// window `[crossover/2, crossover*2]` whose samples are comparable
    /// enough to steer the threshold.
    fn in_band(len: usize, crossover: usize) -> bool {
        len >= crossover / 2 && len <= crossover.saturating_mul(2)
    }

    fn nudge_all_down(&self) {
        for shard in &self.shards {
            let mut dests = shard.lock();
            for st in dests.values_mut() {
                st.crossover =
                    (((st.crossover as f64) * 0.8) as usize).clamp(self.cfg.min, self.cfg.max);
                st.eager_cost.reset_fresh();
                st.rzv_cost.reset_fresh();
            }
        }
        self.probes.congestion_nudges.incr();
    }

    /// Periodic whole-stack reading: unexpected-queue depth growing past
    /// the threshold, or eager staging pressure (payload copies far in
    /// excess of the observed in-band traffic), pulls every destination's
    /// crossover down 20%. Takes the congestion mutex (never held together
    /// with a shard lock) and then the shards one at a time.
    fn congestion_check(&self) {
        let Some(mut cong) = self.congestion.try_lock() else {
            return; // another thread is already running this window's check
        };
        let snap = self.upc.snapshot();
        let depth = snap.histogram("match.unexpected_depth").map(|s| s.p50).unwrap_or(0);
        let copies = snap.counter("mu.payload_copies");
        let copies_delta = copies.saturating_sub(cong.last_copies);
        cong.last_copies = copies;
        let depth_growing = depth >= self.cfg.depth_nudge_at && depth > cong.last_depth_p50;
        cong.last_depth_p50 = depth;
        // Copy pressure: more than 128 packet copies per in-band
        // observation over the window means eager traffic is fragmenting
        // and staging heavily relative to the completions we see.
        let copy_pressure = copies_delta > self.cfg.snapshot_every * 128;
        drop(cong);
        if depth_growing || copy_pressure {
            self.nudge_all_down();
        }
    }

    /// RAS trouble on the path to `dest`: pull its eager/rendezvous
    /// crossover down one `cfg.step` per retransmit (half a step per SACK
    /// fast retransmit — loss recovered without an RTO stall is half as
    /// alarming — and four per delivery failure: a channel giving up is
    /// categorically worse than a recovered drop), capped at 8 steps per
    /// event. Rendezvous payload
    /// rides counter-protected direct puts, so a flaky destination is
    /// pushed toward the protocol whose completion semantics already
    /// tolerate loss. Fresh EWMAs reset so the post-trouble decision is
    /// made on post-trouble evidence.
    ///
    /// Unlike the stamp-driven arms this is *not* gated on
    /// `bgq_upc::ENABLED`: RAS events are protocol outcomes (the link layer
    /// counted real retransmits), not clock readings, so they steer even in
    /// telemetry-off builds — a deliberate softening of the "telemetry off
    /// ⇒ exactly static" invariant, limited to faulty runs.
    fn observe_trouble(&self, dest: u32, retransmits: u64, sack_retransmits: u64, failures: u64) {
        let steps = (retransmits + sack_retransmits.div_ceil(2) + 4 * failures).min(8);
        if steps == 0 {
            return;
        }
        let cfg = self.cfg;
        let mut dests = self.shard(dest).lock();
        let st = Self::dest_entry(&mut dests, &cfg, dest);
        let before = st.crossover;
        let divisor = cfg.step.powi(steps as i32);
        st.crossover = (((st.crossover as f64) / divisor) as usize).clamp(cfg.min, cfg.max);
        if st.crossover != before {
            st.eager_cost.reset_fresh();
            st.rzv_cost.reset_fresh();
            self.probes.ras_downgrades.incr();
        }
    }

    /// Record one aggregation-eligible arrival for `dest` and return
    /// whether the destination is currently dense enough to aggregate.
    ///
    /// The decision is a one-sided hysteresis loop: entering the
    /// aggregating state takes `aggr_min_samples` fresh gaps with an EWMA
    /// below `aggr_dense_ns`; leaving it takes a *single* gap above
    /// `aggr_sparse_ns` (or the EWMA drifting past it). The asymmetry is
    /// deliberate — the cost of wrongly aggregating is the age-bound delay
    /// on latency-sensitive traffic, which is paid immediately, while the
    /// cost of wrongly not aggregating is a small rate loss paid gradually.
    fn update_arrival(&self, dest: u32) -> bool {
        let now = bgq_upc::Stamp::now().ns();
        let cfg = self.cfg;
        let mut dests = self.shard(dest).lock();
        let st = Self::dest_entry(&mut dests, &cfg, dest);
        let last = st.last_arrival_ns;
        st.last_arrival_ns = now;
        if last == 0 || now <= last {
            return st.aggregating;
        }
        let gap = now - last;
        if gap > cfg.aggr_sparse_ns {
            // One-shot trip: the stream went quiet, stop batching at once
            // and demand fresh dense evidence before resuming.
            st.aggregating = false;
            st.interarrival = Ewma::default();
            return false;
        }
        st.interarrival.push(gap as f64);
        if st.aggregating {
            if st.interarrival.value > cfg.aggr_sparse_ns as f64 {
                st.aggregating = false;
                st.interarrival.reset_fresh();
            }
        } else if st.interarrival.fresh >= cfg.aggr_min_samples
            && st.interarrival.value < cfg.aggr_dense_ns as f64
        {
            st.aggregating = true;
            st.interarrival.reset_fresh();
        }
        st.aggregating
    }
}

impl ProtocolPolicy for AdaptivePolicy {
    fn select(&self, dest: u32, len: usize) -> Protocol {
        // Aggregation arm: eligible sends consult the destination's
        // arrival-rate state before the size ladder. Gated on a nonzero
        // cutoff *and* live telemetry (gaps are clock readings — with the
        // clock compiled out every gap is zero and "dense" would be
        // meaningless), so the default build never pays this lock.
        // (A sparse destination falls through to the normal ladder.)
        if self.cfg.aggr_cutoff > 0
            && bgq_upc::ENABLED
            && len <= self.cfg.aggr_cutoff
            && self.update_arrival(dest)
        {
            self.probes.aggr_selected.incr();
            return Protocol::Aggregated;
        }
        // Outside the tunable bands the answer is fixed and lock-free — the
        // uniform small-message (8-byte flood) fast path never touches
        // per-destination state.
        if len <= self.cfg.short_min {
            self.probes.short_selected.incr();
            return Protocol::Short;
        }
        if len > self.cfg.short_max && len <= self.cfg.min {
            self.probes.eager_selected.incr();
            return Protocol::Eager;
        }
        if len > self.cfg.max {
            self.probes.rzv_selected.incr();
            return Protocol::Rendezvous;
        }
        let mut dests = self.shard(dest).lock();
        let st = Self::dest_entry(&mut dests, &self.cfg, dest);
        st.selects = st.selects.wrapping_add(1);
        // Which boundary is this length deciding? The short band
        // (`short_min..=short_max`) steers short/eager; the in-band region
        // (`min..=max`) steers eager/rendezvous.
        let (natural, band_crossover) = if len <= self.cfg.short_max {
            let p = if len <= st.short_crossover { Protocol::Short } else { Protocol::Eager };
            (p, st.short_crossover)
        } else {
            let p = if len <= st.crossover { Protocol::Eager } else { Protocol::Rendezvous };
            (p, st.crossover)
        };
        // Deterministic exploration: with telemetry live, periodically send
        // an in-band message over the neighbouring protocol so both cost
        // EWMAs keep fresh samples. Both tiers of either boundary are
        // correct at any size inside their band, so this is purely a
        // measurement flip.
        let chosen = if bgq_upc::ENABLED
            && Self::in_band(len, band_crossover)
            && st.selects.is_multiple_of(self.cfg.explore_every)
        {
            self.probes.explorations.incr();
            match natural {
                Protocol::Short => Protocol::Eager,
                Protocol::Eager if len <= self.cfg.short_max => Protocol::Short,
                Protocol::Eager => Protocol::Rendezvous,
                Protocol::Rendezvous => Protocol::Eager,
                Protocol::Aggregated => unreachable!("aggregation decided before the ladder"),
            }
        } else {
            natural
        };
        drop(dests);
        match chosen {
            Protocol::Short => self.probes.short_selected.incr(),
            Protocol::Eager => self.probes.eager_selected.incr(),
            Protocol::Rendezvous => self.probes.rzv_selected.incr(),
            Protocol::Aggregated => unreachable!("aggregation decided before the ladder"),
        }
        chosen
    }

    fn observe(&self, ev: ProtoEvent) {
        if let ProtoEvent::DeliveryTrouble { dest, retransmits, sack_retransmits, failures } = ev {
            self.observe_trouble(dest, retransmits, sack_retransmits, failures);
            return;
        }
        let (proto, dest, len, ns) = ev.parts();
        match proto {
            Protocol::Short => self.probes.short_delivery_ns.record(ns),
            Protocol::Eager => self.probes.eager_delivery_ns.record(ns),
            Protocol::Rendezvous => self.probes.rzv_rtt_ns.record(ns),
            Protocol::Aggregated => unreachable!("no aggregated delivery event exists"),
        }
        // Compiled-out telemetry stamps every observation 0ns: skip all
        // adaptation so the policy is exactly the static path.
        if !bgq_upc::ENABLED || ns == 0 {
            return;
        }
        // Events far below any reachable band can never steer a boundary;
        // skip the lock (this is every 8-byte flood message).
        if len < self.cfg.short_min / 2 {
            return;
        }
        let obs = self.observations.fetch_add(1, Ordering::Relaxed) + 1;
        if obs.is_multiple_of(self.cfg.snapshot_every) {
            self.congestion_check();
        }
        let cfg = self.cfg;
        let mut dests = self.shard(dest).lock();
        let st = Self::dest_entry(&mut dests, &cfg, dest);
        let per_byte = ns as f64 / len.max(1) as f64;
        let h = 1.0 + cfg.hysteresis;
        // Short/eager boundary: fed by short samples and by eager samples
        // that land in the short decision band.
        if len <= cfg.short_max && Self::in_band(len, st.short_crossover) {
            match proto {
                Protocol::Short => st.short_cost.push(per_byte),
                Protocol::Eager => st.eager_short_cost.push(per_byte),
                Protocol::Rendezvous | Protocol::Aggregated => {}
            }
            if st.short_cost.fresh >= cfg.min_samples
                && st.eager_short_cost.fresh >= cfg.min_samples
            {
                if st.short_cost.value * h < st.eager_short_cost.value
                    && st.short_crossover < cfg.short_max
                {
                    // Short is decisively cheaper near the boundary: raise it.
                    st.short_crossover = (((st.short_crossover as f64) * cfg.step) as usize)
                        .clamp(cfg.short_min, cfg.short_max);
                    st.short_cost.reset_fresh();
                    st.eager_short_cost.reset_fresh();
                    self.probes.short_crossover_raised.incr();
                } else if st.eager_short_cost.value * h < st.short_cost.value
                    && st.short_crossover > cfg.short_min
                {
                    st.short_crossover = (((st.short_crossover as f64) / cfg.step) as usize)
                        .clamp(cfg.short_min, cfg.short_max);
                    st.short_cost.reset_fresh();
                    st.eager_short_cost.reset_fresh();
                    self.probes.short_crossover_lowered.incr();
                }
            }
        }
        // Eager/rendezvous boundary: short samples never steer it.
        if proto == Protocol::Short || !Self::in_band(len, st.crossover) {
            return;
        }
        match proto {
            Protocol::Eager => st.eager_cost.push(per_byte),
            Protocol::Rendezvous => st.rzv_cost.push(per_byte),
            Protocol::Short | Protocol::Aggregated => unreachable!(),
        }
        if st.eager_cost.fresh < cfg.min_samples || st.rzv_cost.fresh < cfg.min_samples {
            return;
        }
        if st.eager_cost.value * h < st.rzv_cost.value && st.crossover < cfg.max {
            // Eager is decisively cheaper near the crossover: raise it.
            st.crossover =
                (((st.crossover as f64) * cfg.step) as usize).clamp(cfg.min, cfg.max);
            st.eager_cost.reset_fresh();
            st.rzv_cost.reset_fresh();
            self.probes.crossover_raised.incr();
        } else if st.rzv_cost.value * h < st.eager_cost.value && st.crossover > cfg.min {
            st.crossover =
                (((st.crossover as f64) / cfg.step) as usize).clamp(cfg.min, cfg.max);
            st.eager_cost.reset_fresh();
            st.rzv_cost.reset_fresh();
            self.probes.crossover_lowered.incr();
        }
    }

    fn crossover(&self, dest: u32) -> usize {
        self.shard(dest)
            .lock()
            .get(&dest)
            .map(|s| s.crossover)
            .unwrap_or_else(|| self.cfg.initial.clamp(self.cfg.min, self.cfg.max))
    }

    fn short_crossover(&self, dest: u32) -> usize {
        self.shard(dest).lock().get(&dest).map(|s| s.short_crossover).unwrap_or_else(|| {
            self.cfg.short_initial.clamp(self.cfg.short_min, self.cfg.short_max)
        })
    }

    /// The adaptive policy lives on observations — but only when the
    /// telemetry clock is real. Compiled out, stamps are all zero and
    /// feedback is pure overhead, so the runtime skips it.
    fn wants_feedback(&self) -> bool {
        bgq_upc::ENABLED
    }

    fn name(&self) -> &'static str {
        "adaptive"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_policy_matches_fixed_threshold() {
        let p = StaticPolicy::new(4096);
        assert_eq!(p.select(0, 0), Protocol::Short);
        assert_eq!(p.select(0, SHORT_CUTOFF), Protocol::Short);
        assert_eq!(p.select(0, SHORT_CUTOFF + 1), Protocol::Eager);
        assert_eq!(p.select(0, 4096), Protocol::Eager);
        assert_eq!(p.select(0, 4097), Protocol::Rendezvous);
        assert_eq!(p.crossover(9), 4096);
        assert_eq!(p.short_crossover(9), SHORT_CUTOFF);
        assert_eq!(p.name(), "static");
    }

    #[test]
    fn static_policy_short_tier_can_be_disabled() {
        let p = StaticPolicy::with_short(0, 4096);
        assert_eq!(p.select(0, 0), Protocol::Eager);
        assert_eq!(p.select(0, 8), Protocol::Eager);
        assert_eq!(p.select(0, 4097), Protocol::Rendezvous);
        assert_eq!(p.short_crossover(0), 0);
    }

    #[test]
    fn delivery_trouble_pulls_crossover_down() {
        let upc = Upc::new();
        let cfg = AdaptiveConfig::default();
        let p = AdaptivePolicy::new(cfg, &upc);
        let initial = p.crossover(5);
        // One retransmit: one step down, only for the troubled destination.
        p.observe(ProtoEvent::DeliveryTrouble {
            dest: 5,
            retransmits: 1,
            sack_retransmits: 0,
            failures: 0,
        });
        let after_rexmit = p.crossover(5);
        assert!(after_rexmit < initial, "retransmit must lower the crossover");
        assert_eq!(p.crossover(6), initial, "clean destinations are untouched");
        // A delivery failure weighs four steps — strictly worse.
        p.observe(ProtoEvent::DeliveryTrouble {
            dest: 7,
            retransmits: 0,
            sack_retransmits: 0,
            failures: 1,
        });
        assert!(p.crossover(7) < after_rexmit);
        // A SACK fast retransmit weighs half a retransmit, rounded up: one
        // costs a full step, two still cost one step total.
        p.observe(ProtoEvent::DeliveryTrouble {
            dest: 8,
            retransmits: 0,
            sack_retransmits: 2,
            failures: 0,
        });
        assert_eq!(p.crossover(8), after_rexmit, "two SACK rexmits = one step");
        // Sustained trouble bottoms out at the clamp floor, never below.
        for _ in 0..64 {
            p.observe(ProtoEvent::DeliveryTrouble {
                dest: 5,
                retransmits: 8,
                sack_retransmits: 0,
                failures: 2,
            });
        }
        assert_eq!(p.crossover(5), cfg.min);
        // Zero-count events are a no-op.
        p.observe(ProtoEvent::DeliveryTrouble {
            dest: 9,
            retransmits: 0,
            sack_retransmits: 0,
            failures: 0,
        });
        assert_eq!(p.crossover(9), initial);
    }

    #[test]
    fn adaptive_short_band_respects_clamps() {
        let upc = Upc::new();
        let cfg = AdaptiveConfig::default();
        let p = AdaptivePolicy::new(cfg, &upc);
        // Below the short floor: always short, even after eager-favouring
        // evidence; above short_max: never short.
        for _ in 0..10_000 {
            p.observe(ProtoEvent::ShortDelivered { dest: 1, len: 128, ns: 1_000_000 });
            p.observe(ProtoEvent::EagerDelivered { dest: 1, len: 128, ns: 10 });
        }
        assert_eq!(p.select(1, cfg.short_min), Protocol::Short);
        assert!(p.short_crossover(1) >= cfg.short_min);
        assert_ne!(p.select(1, cfg.short_max + 1), Protocol::Short);
    }

    #[test]
    fn adaptive_short_crossover_converges_on_mixed_stream() {
        // Satellite coverage: on a mixed ≤512 B stream whose measurements
        // say short is decisively cheaper per byte, the short/eager
        // crossover must climb; when the evidence flips, it must fall back.
        // The eager/rzv boundary must not move either way (every sample is
        // far below its decision band).
        let upc = Upc::new();
        let cfg = AdaptiveConfig::default();
        let p = AdaptivePolicy::new(cfg, &upc);
        if !bgq_upc::ENABLED {
            return; // zero stamps: adaptation compiled out
        }
        for i in 0..4_000usize {
            let len = 16 + (i % 32) * 16; // 16..=512, mixed
            let _ = p.select(7, len);
            p.observe(ProtoEvent::ShortDelivered { dest: 7, len, ns: 40 * len as u64 });
            p.observe(ProtoEvent::EagerDelivered { dest: 7, len, ns: 400 * len as u64 });
        }
        let learned = p.short_crossover(7);
        assert!(
            learned > cfg.short_initial,
            "short crossover should rise from {} (got {learned})",
            cfg.short_initial
        );
        assert!(learned <= cfg.short_max);
        assert_eq!(p.crossover(7), cfg.initial, "eager/rzv boundary untouched");
        // Evidence flips: eager decisively cheaper → the boundary retreats.
        for i in 0..4_000usize {
            let len = 16 + (i % 32) * 16;
            let _ = p.select(7, len);
            p.observe(ProtoEvent::ShortDelivered { dest: 7, len, ns: 400 * len as u64 });
            p.observe(ProtoEvent::EagerDelivered { dest: 7, len, ns: 40 * len as u64 });
        }
        let fallen = p.short_crossover(7);
        assert!(fallen < learned, "short crossover should fall from {learned} (got {fallen})");
        assert!(fallen >= cfg.short_min);
        assert_eq!(p.crossover(7), cfg.initial, "eager/rzv boundary still untouched");
    }

    #[test]
    fn adaptive_respects_hard_clamps() {
        let upc = Upc::new();
        let cfg = AdaptiveConfig::default();
        let p = AdaptivePolicy::new(cfg, &upc);
        for dest in 0..4 {
            assert_eq!(p.select(dest, cfg.min), Protocol::Eager);
            assert_eq!(p.select(dest, cfg.max + 1), Protocol::Rendezvous);
        }
        // Saturate with eager-favouring evidence: crossover may rise but
        // never past max, and selection above max stays rendezvous.
        for _ in 0..10_000 {
            p.observe(ProtoEvent::EagerDelivered { dest: 1, len: cfg.max, ns: 10 });
            p.observe(ProtoEvent::RzvComplete { dest: 1, len: cfg.max, ns: 1_000_000 });
        }
        assert!(p.crossover(1) <= cfg.max);
        assert_eq!(p.select(1, cfg.max + 1), Protocol::Rendezvous);
    }

    #[test]
    fn adaptive_without_measurements_is_static() {
        let upc = Upc::new();
        let cfg = AdaptiveConfig { initial: 4096, ..AdaptiveConfig::default() };
        let p = AdaptivePolicy::new(cfg, &upc);
        // ns == 0 observations (what a telemetry-off build produces) must
        // never move the crossover.
        for _ in 0..1000 {
            p.observe(ProtoEvent::EagerDelivered { dest: 3, len: 4096, ns: 0 });
            p.observe(ProtoEvent::RzvComplete { dest: 3, len: 4096, ns: 0 });
        }
        assert_eq!(p.crossover(3), 4096);
    }

    #[test]
    fn adaptive_shards_keep_destinations_independent() {
        let upc = Upc::new();
        let cfg = AdaptiveConfig { initial: 4096, ..AdaptiveConfig::default() };
        let p = AdaptivePolicy::new(cfg, &upc);
        // Dest 1 (shard 1): rendezvous decisively cheaper → crossover falls.
        // Dest 2 (shard 2): eager decisively cheaper → crossover rises.
        for _ in 0..2_000 {
            p.observe(ProtoEvent::EagerDelivered { dest: 1, len: 4096, ns: 1_000_000 });
            p.observe(ProtoEvent::RzvComplete { dest: 1, len: 4096, ns: 10 });
            p.observe(ProtoEvent::EagerDelivered { dest: 2, len: 4096, ns: 10 });
            p.observe(ProtoEvent::RzvComplete { dest: 2, len: 4096, ns: 1_000_000 });
        }
        // With telemetry compiled out every observation is skipped and the
        // policy is exactly static — only assert adaptation when it can run.
        if bgq_upc::ENABLED {
            assert!(p.crossover(1) < 4096, "dest 1 crossover fell: {}", p.crossover(1));
            assert!(p.crossover(2) > 4096, "dest 2 crossover rose: {}", p.crossover(2));
        }
        // Dest 17 shares shard 1 with dest 1 but has untouched state.
        assert_eq!(p.crossover(17), 4096);
    }

    #[test]
    fn static_policy_aggregation_tier() {
        let p = StaticPolicy::with_aggr(64, 128, 4096);
        assert_eq!(p.select(0, 1), Protocol::Aggregated);
        assert_eq!(p.select(0, 64), Protocol::Aggregated);
        assert_eq!(p.select(0, 65), Protocol::Short);
        assert_eq!(p.select(0, 128), Protocol::Short);
        assert_eq!(p.select(0, 129), Protocol::Eager);
        assert_eq!(p.select(0, 4097), Protocol::Rendezvous);
        // Zero cutoff disables the tier outright.
        let p = StaticPolicy::with_aggr(0, 128, 4096);
        assert_eq!(p.select(0, 1), Protocol::Short);
    }

    #[test]
    fn adaptive_aggregation_off_by_default() {
        let upc = Upc::new();
        let p = AdaptivePolicy::new(AdaptiveConfig::default(), &upc);
        // Default config has aggr_cutoff 0: tiny sends stay on the
        // lock-free short fast path no matter how dense the stream.
        for _ in 0..100 {
            assert_eq!(p.select(3, 16), Protocol::Short);
        }
    }

    #[test]
    fn adaptive_aggregation_toggles_on_arrival_rate() {
        if !bgq_upc::ENABLED {
            return; // gaps are clock readings; compiled out, the arm is off
        }
        let upc = Upc::new();
        let cfg = AdaptiveConfig {
            aggr_cutoff: 64,
            aggr_dense_ns: 1_000_000,  // generous: a tight loop is "dense"
            aggr_sparse_ns: 5_000_000, // 5 ms — a sleep trips it reliably
            aggr_min_samples: 4,
            ..AdaptiveConfig::default()
        };
        let p = AdaptivePolicy::new(cfg, &upc);
        // A dense back-to-back stream starts aggregating once enough fresh
        // gaps accumulate — and eligibility is size-gated.
        let mut saw_aggregated = false;
        for _ in 0..64 {
            if p.select(5, 32) == Protocol::Aggregated {
                saw_aggregated = true;
            }
        }
        assert!(saw_aggregated, "dense stream must start aggregating");
        assert_eq!(p.select(5, 32), Protocol::Aggregated);
        assert_ne!(p.select(5, 65), Protocol::Aggregated, "above the cutoff never aggregates");
        // One long gap trips the one-shot sparse exit immediately.
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert_ne!(p.select(5, 32), Protocol::Aggregated, "a sparse gap stops aggregation");
        // Dense traffic resumes: after min_samples fresh gaps it re-enters.
        let mut resumed = false;
        for _ in 0..64 {
            if p.select(5, 32) == Protocol::Aggregated {
                resumed = true;
            }
        }
        assert!(resumed, "dense stream must re-enter aggregation");
        // Other destinations are independent: dest 6 has no dense history
        // yet, so its first eligible send does not aggregate.
        assert_ne!(p.select(6, 32), Protocol::Aggregated);
    }

    #[test]
    fn ewma_tracks_pushes() {
        let mut e = Ewma::default();
        e.push(100.0);
        assert_eq!(e.value, 100.0);
        e.push(0.0);
        assert!(e.value < 100.0 && e.value > 0.0);
        assert_eq!(e.fresh, 2);
        e.reset_fresh();
        assert_eq!(e.fresh, 0);
    }
}
