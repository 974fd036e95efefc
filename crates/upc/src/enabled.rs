//! Real (telemetry-on) implementation of the UPC primitives.

use crate::{
    bucket_index, bucket_upper_bound, HistSummary, Snapshot, TraceEvent, TracePhase, HIST_BUCKETS,
};
use crossbeam::utils::CachePadded;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Number of exclusive per-thread stripes per counter and histogram. Each
/// live thread holding one of the first `STRIPES` stripe slots owns that
/// stripe and bumps it with non-RMW relaxed load+stores (exact, because a
/// stripe has exactly one writer); threads beyond that share an overflow
/// cell via `fetch_add`.
const STRIPES: usize = 16;

const DEFAULT_TRACE_CAP: usize = 4096;

// -- process-global thread slots and epoch ----------------------------------

/// Trace thread ids: unique per thread and never reused, so a merged
/// timeline never puts two threads on one row.
static NEXT_THREAD_ID: AtomicU64 = AtomicU64::new(0);

/// Stripe slots: a live thread holds one until it exits, then the slot
/// returns to [`FREE_STRIPE_SLOTS`] for the next thread. Recycling keeps
/// the live threads of a long process (a benchmark that builds a machine,
/// and so spawns fresh task threads, per repetition) on exclusive stripes
/// instead of piling onto the overflow cell. Ownership passes through the
/// free-list mutex, so the single-writer rule holds across the hand-off.
static NEXT_STRIPE_SLOT: AtomicUsize = AtomicUsize::new(0);
static FREE_STRIPE_SLOTS: Mutex<Vec<usize>> = Mutex::new(Vec::new());

struct StripeSlot(usize);

impl StripeSlot {
    fn claim() -> StripeSlot {
        let mut free = FREE_STRIPE_SLOTS.lock().unwrap_or_else(|p| p.into_inner());
        // Lowest free slot first: low slots are the exclusive stripes.
        let lowest = free.iter().enumerate().min_by_key(|(_, s)| **s).map(|(i, _)| i);
        match lowest {
            Some(i) => StripeSlot(free.swap_remove(i)),
            None => StripeSlot(NEXT_STRIPE_SLOT.fetch_add(1, Ordering::Relaxed)),
        }
    }
}

impl Drop for StripeSlot {
    fn drop(&mut self) {
        FREE_STRIPE_SLOTS
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .push(self.0);
    }
}

thread_local! {
    static THREAD_ID: u64 = NEXT_THREAD_ID.fetch_add(1, Ordering::Relaxed);
    static STRIPE_SLOT: StripeSlot = StripeSlot::claim();
}

#[inline]
fn thread_id() -> u64 {
    THREAD_ID.with(|t| *t)
}

/// The calling thread's stripe slot; `usize::MAX` (the overflow cell) once
/// the thread's slot has been released during thread exit.
#[inline]
fn stripe_slot() -> usize {
    STRIPE_SLOT.try_with(|s| s.0).unwrap_or(usize::MAX)
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

#[inline]
fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// A nanosecond timestamp on the process-global telemetry clock. Grab one
/// where an operation starts, feed it to [`Histogram::record_since`] or
/// [`Upc::trace_span`] where it ends.
#[derive(Debug, Clone, Copy)]
pub struct Stamp {
    ns: u64,
}

impl Stamp {
    #[inline]
    pub fn now() -> Self {
        Stamp { ns: now_ns() }
    }

    #[inline]
    pub fn ns(&self) -> u64 {
        self.ns
    }

    /// Rehydrate a stamp from a raw nanosecond reading previously obtained
    /// with [`Stamp::ns`] — used to carry timestamps across a wire format
    /// (the PAMI envelope stamps sends so receivers can measure delivery
    /// latency on the shared process clock).
    #[inline]
    pub fn from_ns(ns: u64) -> Self {
        Stamp { ns }
    }

    /// Nanoseconds elapsed since this stamp was taken.
    #[inline]
    pub fn elapsed_ns(&self) -> u64 {
        now_ns().saturating_sub(self.ns)
    }
}

// -- counters ---------------------------------------------------------------

struct CounterCell {
    stripes: [CachePadded<AtomicU64>; STRIPES],
    overflow: CachePadded<AtomicU64>,
}

impl CounterCell {
    fn new() -> Self {
        CounterCell {
            stripes: std::array::from_fn(|_| CachePadded::new(AtomicU64::new(0))),
            overflow: CachePadded::new(AtomicU64::new(0)),
        }
    }

    fn sum(&self) -> u64 {
        let mut total = self.overflow.load(Ordering::Relaxed);
        for s in &self.stripes {
            total = total.wrapping_add(s.load(Ordering::Relaxed));
        }
        total
    }
}

/// Lock-free event counter: cache-padded per-thread stripes aggregated at
/// read time. `add` is a couple of nanoseconds and never contends while at
/// most [`STRIPES`] threads are live.
#[derive(Clone)]
pub struct Counter {
    cell: Arc<CounterCell>,
}

impl Counter {
    #[inline]
    pub fn add(&self, n: u64) {
        let slot = stripe_slot();
        if slot < STRIPES {
            // Exclusive stripe: single writer, so a non-RMW relaxed
            // load+store is exact and avoids the locked-bus RMW cost.
            let s = &*self.cell.stripes[slot];
            s.store(s.load(Ordering::Relaxed).wrapping_add(n), Ordering::Relaxed);
        } else {
            self.cell.overflow.fetch_add(n, Ordering::Relaxed);
        }
    }

    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Bump the counter on the stripe selected by `pin` (typically the
    /// owning context id) rather than by thread arrival order.
    ///
    /// Thread-slot striping degrades when many short-lived bench threads
    /// burn through the first [`STRIPES`] slots and later workers pile onto
    /// the shared overflow cell; pinning by a stable small id keeps each
    /// context on its own cache-padded stripe regardless of which thread
    /// advances it. Two pins can map to the same stripe (`pin % STRIPES`),
    /// so this uses a real `fetch_add` — still uncontended in the common
    /// case of ≤ [`STRIPES`] contexts per counter.
    #[inline]
    pub fn add_pinned(&self, pin: usize, n: u64) {
        self.cell.stripes[pin & (STRIPES - 1)].fetch_add(n, Ordering::Relaxed);
    }

    /// [`Counter::add_pinned`] by one.
    #[inline]
    pub fn incr_pinned(&self, pin: usize) {
        self.add_pinned(pin, 1);
    }

    /// Aggregate the stripes. Safe to call concurrently with writers; the
    /// result is exact once writers have quiesced.
    pub fn value(&self) -> u64 {
        self.cell.sum()
    }
}

// -- histograms -------------------------------------------------------------

/// One stripe of a histogram: the bucket counts plus count/sum/max.
struct HistStripe {
    buckets: [AtomicU64; HIST_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

/// Single-writer bump: a relaxed load+store, exact because only the owning
/// thread writes an exclusive stripe.
#[inline]
fn bump(a: &AtomicU64, n: u64) {
    a.store(a.load(Ordering::Relaxed).wrapping_add(n), Ordering::Relaxed);
}

impl HistStripe {
    fn new() -> Self {
        HistStripe {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Record from the stripe's owning thread.
    #[inline]
    fn record_exclusive(&self, v: u64) {
        bump(&self.buckets[bucket_index(v)], 1);
        bump(&self.count, 1);
        bump(&self.sum, v);
        if v > self.max.load(Ordering::Relaxed) {
            self.max.store(v, Ordering::Relaxed);
        }
    }

    /// Record from any thread (the overflow cell).
    #[inline]
    fn record_shared(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    fn merge_into(&self, raw: &mut RawHist) {
        for (a, b) in raw.buckets.iter_mut().zip(&self.buckets) {
            *a += b.load(Ordering::Relaxed);
        }
        raw.count += self.count.load(Ordering::Relaxed);
        raw.sum = raw.sum.wrapping_add(self.sum.load(Ordering::Relaxed));
        raw.max = raw.max.max(self.max.load(Ordering::Relaxed));
    }
}

/// A histogram's storage: per-thread stripes like [`CounterCell`]'s plus,
/// at index [`STRIPES`], the shared overflow stripe. Each stripe is
/// allocated on its first record, so a histogram nobody records into costs
/// no stripe memory and creating one (every machine registers dozens) is
/// cheap.
struct HistCell {
    stripes: [OnceLock<Box<CachePadded<HistStripe>>>; STRIPES + 1],
}

impl HistCell {
    fn new() -> Self {
        HistCell { stripes: std::array::from_fn(|_| OnceLock::new()) }
    }

    fn stripe(&self, i: usize) -> &HistStripe {
        self.stripes[i].get_or_init(|| Box::new(CachePadded::new(HistStripe::new())))
    }

    #[inline]
    fn record(&self, v: u64) {
        let slot = stripe_slot();
        if slot < STRIPES {
            self.stripe(slot).record_exclusive(v);
        } else {
            self.stripe(STRIPES).record_shared(v);
        }
    }

    fn load_raw(&self) -> RawHist {
        let mut raw = RawHist::zero();
        for stripe in self.stripes.iter().filter_map(OnceLock::get) {
            stripe.merge_into(&mut raw);
        }
        raw
    }

    #[cfg(test)]
    fn allocated_stripes(&self) -> usize {
        self.stripes.iter().filter(|s| s.get().is_some()).count()
    }
}

#[derive(Clone)]
struct RawHist {
    buckets: [u64; HIST_BUCKETS],
    count: u64,
    sum: u64,
    max: u64,
}

impl RawHist {
    fn zero() -> Self {
        RawHist {
            buckets: [0; HIST_BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    fn merge(&mut self, other: &RawHist) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// Quantile with linear interpolation inside the target bucket.
    ///
    /// The old behaviour returned the bucket's upper bound, so every
    /// reported p50/p99 landed on a power-of-two edge (4095, 16383, …) and
    /// latency gates only moved when a distribution crossed a whole octave.
    /// Interpolating by rank within the bucket (values assumed uniform in
    /// `[lower, min(upper, max)]`) tracks sub-octave shifts; for a uniform
    /// distribution the result is exact.
    fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            if *b == 0 {
                continue;
            }
            let next = cum + b;
            if next >= target {
                let lo = crate::bucket_lower_bound(i);
                let hi = bucket_upper_bound(i).min(self.max);
                if hi <= lo {
                    return lo.min(self.max);
                }
                // Rank within the bucket, 1..=b; interpolate across the
                // bucket's value span.
                let pos = (target - cum) as f64 / *b as f64;
                let v = lo as f64 + (hi - lo) as f64 * pos;
                return (v as u64).min(self.max);
            }
            cum = next;
        }
        self.max
    }

    fn summary(&self) -> HistSummary {
        HistSummary {
            count: self.count,
            sum: self.sum,
            max: self.max,
            p50: self.quantile(0.50),
            p99: self.quantile(0.99),
        }
    }
}

/// Power-of-two-bucket latency histogram (HDR-style): bucket 0 holds the
/// value 0, bucket `k` holds `[2^(k-1), 2^k-1]`. Recording goes to the
/// calling thread's own stripe with plain relaxed load+stores, so the
/// per-operation probes on a hot path move no shared cache lines; reads
/// merge the stripes.
#[derive(Clone)]
pub struct Histogram {
    cell: Arc<HistCell>,
}

impl Histogram {
    #[inline]
    pub fn record(&self, v: u64) {
        self.cell.record(v);
    }

    /// Record the nanoseconds elapsed since `start`.
    #[inline]
    pub fn record_since(&self, start: Stamp) {
        self.record(start.elapsed_ns());
    }

    pub fn count(&self) -> u64 {
        self.cell.load_raw().count
    }

    pub fn sum(&self) -> u64 {
        self.cell.load_raw().sum
    }

    pub fn max(&self) -> u64 {
        self.cell.load_raw().max
    }

    pub fn bucket_count(&self, i: usize) -> u64 {
        self.cell.load_raw().buckets[i]
    }

    pub fn quantile(&self, q: f64) -> u64 {
        self.cell.load_raw().quantile(q)
    }

    pub fn summary(&self) -> HistSummary {
        self.cell.load_raw().summary()
    }
}

// -- trace rings ------------------------------------------------------------

/// Per-slot seqlock state: 0 = never written, `2n+1` = write `n` in
/// progress, `2n+2` = write `n` complete.
struct TraceSlot {
    seq: AtomicU64,
    words: [AtomicU64; 4],
}

/// Per-thread SPSC ring: the owning thread writes, any thread may read a
/// consistent snapshot. Fixed capacity, drop-oldest (the cursor simply laps).
struct TraceRing {
    tid: u64,
    cap: usize,
    cursor: AtomicU64,
    /// Events overwritten before any reader saw them (cursor laps). The
    /// sum over all rings surfaces as the `upc.trace_dropped` counter so a
    /// truncated trace is detectable from the report alone.
    dropped: AtomicU64,
    slots: Box<[TraceSlot]>,
}

impl TraceRing {
    fn new(tid: u64, cap: usize) -> Self {
        TraceRing {
            tid,
            cap,
            cursor: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            slots: (0..cap)
                .map(|_| TraceSlot {
                    seq: AtomicU64::new(0),
                    words: std::array::from_fn(|_| AtomicU64::new(0)),
                })
                .collect(),
        }
    }

    /// Owner-thread-only push. SeqCst on the seq transitions keeps readers
    /// from accepting torn slots; word stores sit between the odd and even
    /// seq stores.
    fn push(&self, words: [u64; 4]) {
        let idx = self.cursor.load(Ordering::Relaxed);
        if idx >= self.cap as u64 {
            // Lapping: the slot we are about to claim still holds the
            // oldest unread event — count it as dropped.
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        let slot = &self.slots[(idx as usize) & (self.cap - 1)];
        slot.seq.store(2 * idx + 1, Ordering::SeqCst);
        for (w, v) in slot.words.iter().zip(words) {
            w.store(v, Ordering::SeqCst);
        }
        slot.seq.store(2 * idx + 2, Ordering::SeqCst);
        self.cursor.store(idx + 1, Ordering::Release);
    }

    /// Read every completed slot, skipping any that are mid-write or get
    /// overwritten while we read them. Returns `(write_index, words)` pairs.
    fn read_all(&self) -> Vec<(u64, [u64; 4])> {
        let mut out = Vec::with_capacity(self.cap.min(64));
        for slot in self.slots.iter() {
            let s1 = slot.seq.load(Ordering::SeqCst);
            if s1 == 0 || s1 % 2 == 1 {
                continue;
            }
            let words: [u64; 4] = std::array::from_fn(|i| slot.words[i].load(Ordering::SeqCst));
            let s2 = slot.seq.load(Ordering::SeqCst);
            if s1 != s2 {
                continue; // overwritten mid-read
            }
            out.push(((s1 - 2) / 2, words));
        }
        out
    }
}

/// One thread's trace state for one registry: its ring, and the interned
/// ids of the event names it has used, keyed by the name's address and
/// length. Repeat spans resolve their name here instead of under the
/// registry's `names` mutex.
struct ThreadTrace {
    registry: u64,
    ring: Arc<TraceRing>,
    names: Vec<(usize, usize, u64)>,
}

thread_local! {
    /// The calling thread's trace state, one entry per registry it has
    /// traced into (tiny, linear scan).
    static THREAD_TRACES: RefCell<Vec<ThreadTrace>> = const { RefCell::new(Vec::new()) };

    /// Per-thread trace-ring capacity override (see
    /// [`Upc::set_thread_trace_capacity`]). Consulted once, when the thread
    /// lazily creates its ring.
    static THREAD_TRACE_CAP: RefCell<Option<usize>> = const { RefCell::new(None) };
}

// -- registry ---------------------------------------------------------------

static NEXT_REGISTRY_ID: AtomicU64 = AtomicU64::new(1);

struct Inner {
    id: u64,
    trace_cap: usize,
    counters: Mutex<Vec<(&'static str, Arc<CounterCell>)>>,
    histograms: Mutex<Vec<(&'static str, Arc<HistCell>)>>,
    /// Interned event names; events store an index into this table.
    names: Mutex<Vec<&'static str>>,
    rings: Mutex<Vec<Arc<TraceRing>>>,
}

/// The UPC registry: hands out counters/histograms, owns the per-thread
/// trace rings, aggregates everything into [`Snapshot`]s and trace exports.
/// Clones share state; every layer of the stack holds one.
#[derive(Clone)]
pub struct Upc {
    inner: Arc<Inner>,
}

impl Default for Upc {
    fn default() -> Self {
        Self::new()
    }
}

impl Upc {
    pub fn new() -> Self {
        Self::with_trace_capacity(DEFAULT_TRACE_CAP)
    }

    /// `cap` is rounded up to a power of two (min 8) — per-thread ring size.
    pub fn with_trace_capacity(cap: usize) -> Self {
        let cap = cap.max(8).next_power_of_two();
        Upc {
            inner: Arc::new(Inner {
                id: NEXT_REGISTRY_ID.fetch_add(1, Ordering::Relaxed),
                trace_cap: cap,
                counters: Mutex::new(Vec::new()),
                histograms: Mutex::new(Vec::new()),
                names: Mutex::new(Vec::new()),
                rings: Mutex::new(Vec::new()),
            }),
        }
    }

    /// Register a new counter instance under `name`. Instances registered
    /// under the same name (e.g. one per node) are summed in snapshots.
    pub fn counter(&self, name: &'static str) -> Counter {
        let cell = Arc::new(CounterCell::new());
        self.inner.counters.lock().unwrap().push((name, cell.clone()));
        Counter { cell }
    }

    /// Register a new histogram instance under `name`.
    pub fn histogram(&self, name: &'static str) -> Histogram {
        let cell = Arc::new(HistCell::new());
        self.inner
            .histograms
            .lock()
            .unwrap()
            .push((name, cell.clone()));
        Histogram { cell }
    }

    #[inline]
    pub fn stamp(&self) -> Stamp {
        Stamp::now()
    }

    #[inline]
    pub fn now_ns(&self) -> u64 {
        now_ns()
    }

    fn intern(&self, name: &'static str) -> u64 {
        let mut names = self.inner.names.lock().unwrap();
        if let Some(i) = names.iter().position(|n| std::ptr::eq(*n, name) || *n == name) {
            i as u64
        } else {
            names.push(name);
            (names.len() - 1) as u64
        }
    }

    /// Override the trace-ring capacity for the *calling thread* (rounded
    /// up to a power of two, min 8). Takes effect when the thread lazily
    /// creates its ring — i.e. call it before the thread's first
    /// `trace_instant`/`trace_span`; an existing ring keeps its size. Lets
    /// a chatty commthread carry a deep ring while worker threads stay
    /// small. `None` reverts to the registry default for future rings.
    pub fn set_thread_trace_capacity(&self, cap: Option<usize>) {
        THREAD_TRACE_CAP.with(|c| *c.borrow_mut() = cap.map(|n| n.max(8).next_power_of_two()));
    }

    /// Push one event, built from its interned name id, onto the calling
    /// thread's ring for this registry (created on first use).
    fn push_event(&self, name: &'static str, event: impl FnOnce(u64) -> [u64; 4]) {
        let id = self.inner.id;
        THREAD_TRACES.with(|traces| {
            let mut traces = traces.borrow_mut();
            let t = match traces.iter().position(|t| t.registry == id) {
                Some(i) => &mut traces[i],
                None => {
                    let cap = THREAD_TRACE_CAP
                        .with(|c| *c.borrow())
                        .unwrap_or(self.inner.trace_cap);
                    let ring = Arc::new(TraceRing::new(thread_id(), cap));
                    self.inner.rings.lock().unwrap().push(ring.clone());
                    traces.push(ThreadTrace { registry: id, ring, names: Vec::new() });
                    traces.last_mut().expect("just pushed")
                }
            };
            let key = (name.as_ptr() as usize, name.len());
            let name_id = match t.names.iter().find(|(p, l, _)| (*p, *l) == key) {
                Some(&(_, _, name_id)) => name_id,
                None => {
                    let name_id = self.intern(name);
                    t.names.push((key.0, key.1, name_id));
                    name_id
                }
            };
            t.ring.push(event(name_id));
        })
    }

    #[inline]
    fn encode_w0(name_id: u64, ph: TracePhase) -> u64 {
        let phb = match ph {
            TracePhase::Span => 0u64,
            TracePhase::Instant => 1u64,
        };
        name_id | (phb << 32)
    }

    /// Record an instantaneous event on the calling thread's ring.
    pub fn trace_instant(&self, name: &'static str, arg: u64) {
        self.push_event(name, |id| {
            [Self::encode_w0(id, TracePhase::Instant), now_ns(), 0, arg]
        });
    }

    /// Record a complete span from `start` to now.
    pub fn trace_span(&self, name: &'static str, start: Stamp, arg: u64) {
        let dur = start.elapsed_ns();
        self.push_event(name, |id| {
            [Self::encode_w0(id, TracePhase::Span), start.ns(), dur, arg]
        });
    }

    /// Aggregate every registered counter and histogram, summing instances
    /// that share a name.
    pub fn snapshot(&self) -> Snapshot {
        let mut counters: BTreeMap<String, u64> = BTreeMap::new();
        for (name, cell) in self.inner.counters.lock().unwrap().iter() {
            *counters.entry((*name).to_owned()).or_insert(0) += cell.sum();
        }
        // Trace overflow is accounted per-ring; surface the sum so a
        // truncated trace export is detectable from the report alone.
        let dropped: u64 = self
            .inner
            .rings
            .lock()
            .unwrap()
            .iter()
            .map(|r| r.dropped.load(Ordering::Relaxed))
            .sum();
        *counters.entry("upc.trace_dropped".to_owned()).or_insert(0) += dropped;
        let mut hists: BTreeMap<String, RawHist> = BTreeMap::new();
        for (name, cell) in self.inner.histograms.lock().unwrap().iter() {
            hists
                .entry((*name).to_owned())
                .or_insert_with(RawHist::zero)
                .merge(&cell.load_raw());
        }
        Snapshot {
            counters: counters.into_iter().collect(),
            histograms: hists
                .into_iter()
                .map(|(n, raw)| (n, raw.summary()))
                .collect(),
        }
    }

    /// Merge every thread's ring into one timeline sorted by timestamp.
    pub fn trace_events(&self) -> Vec<TraceEvent> {
        let names: Vec<&'static str> = self.inner.names.lock().unwrap().clone();
        let rings: Vec<Arc<TraceRing>> = self.inner.rings.lock().unwrap().clone();
        let mut events = Vec::new();
        for ring in rings {
            let mut slots = ring.read_all();
            slots.sort_by_key(|(idx, _)| *idx);
            for (_, w) in slots {
                let name_id = (w[0] & 0xffff_ffff) as usize;
                let ph = if (w[0] >> 32) & 1 == 1 {
                    TracePhase::Instant
                } else {
                    TracePhase::Span
                };
                let name = names.get(name_id).copied().unwrap_or("?");
                events.push(TraceEvent {
                    name,
                    ph,
                    ts_ns: w[1],
                    dur_ns: w[2],
                    tid: ring.tid,
                    arg: w[3],
                });
            }
        }
        events.sort_by(|a, b| a.ts_ns.cmp(&b.ts_ns).then(a.tid.cmp(&b.tid)));
        events
    }

    /// chrome://tracing export of the merged timeline.
    pub fn chrome_trace_json(&self) -> String {
        crate::chrome_trace_json(&self.trace_events())
    }

    /// `pamistat`-style aggregate report.
    pub fn report_json(&self) -> String {
        self.snapshot().report_json()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic values spread over many buckets.
    fn value(thread: u64, i: u64) -> u64 {
        let x = (thread * 1_000_003 + i).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        (x >> 40) % (1 << (1 + (x % 20)))
    }

    #[test]
    fn histogram_with_no_records_allocates_no_stripes() {
        let upc = Upc::new();
        let h = upc.histogram("idle");
        assert_eq!(h.cell.allocated_stripes(), 0);
        assert_eq!(h.summary(), HistSummary::default());
        assert_eq!(upc.snapshot().histogram("idle"), Some(HistSummary::default()));
        assert_eq!(h.cell.allocated_stripes(), 0, "reading allocates nothing");
    }

    /// More threads than stripes record at once: the extra threads land in
    /// the overflow cell, and the merged histogram equals a serial
    /// recording of the same values.
    #[test]
    fn striped_histogram_matches_serial_recording() {
        const THREADS: u64 = STRIPES as u64 + 4;
        const PER_THREAD: u64 = 2_000;
        let upc = Upc::new();
        let striped = upc.histogram("striped");
        let start = std::sync::Barrier::new(THREADS as usize);
        let done = std::sync::Barrier::new(THREADS as usize);
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let (striped, start, done) = (&striped, &start, &done);
                s.spawn(move || {
                    // Every thread is live (and holds a distinct stripe slot)
                    // from the first barrier until the second, so at least
                    // four of them record into the overflow cell.
                    start.wait();
                    for i in 0..PER_THREAD {
                        striped.record(value(t, i));
                    }
                    done.wait();
                });
            }
        });
        let serial = Upc::new().histogram("serial");
        for t in 0..THREADS {
            for i in 0..PER_THREAD {
                serial.record(value(t, i));
            }
        }
        let (a, b) = (striped.summary(), serial.summary());
        assert_eq!(a.count, THREADS * PER_THREAD);
        assert_eq!((a.count, a.sum, a.max), (b.count, b.sum, b.max));
        assert_eq!((a.p50, a.p99), (b.p50, b.p99));
        for i in 0..HIST_BUCKETS {
            assert_eq!(striped.bucket_count(i), serial.bucket_count(i), "bucket {i}");
        }
        let overflow = striped.cell.stripe(STRIPES).count.load(Ordering::Relaxed);
        assert!(overflow >= 4 * PER_THREAD, "overflow cell took {overflow} records");
    }

    #[test]
    fn span_names_resolve_per_thread_and_registry() {
        let a = Upc::new();
        let b = Upc::new();
        let st = Stamp::now();
        // Interleaved names and registries: each thread-local cache entry
        // must map to its own registry's interned id.
        b.trace_span("second", st, 0);
        a.trace_span("first", st, 1);
        b.trace_span("first", st, 2);
        a.trace_span("first", st, 3);
        a.trace_instant("second", 4);
        let names = |u: &Upc| -> Vec<(&str, u64)> {
            u.trace_events().iter().map(|e| (e.name, e.arg)).collect()
        };
        assert_eq!(names(&a), vec![("first", 1), ("first", 3), ("second", 4)]);
        assert_eq!(names(&b), vec![("second", 0), ("first", 2)]);
    }
}
