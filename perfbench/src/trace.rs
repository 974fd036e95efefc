//! Spans recorded around the benchmark's calls into each layer's public
//! functions.
//!
//! A span has a name, a start, an end, the span that caused it, and the id
//! of the operation (message, round or iteration) it belongs to. Every span
//! taken while tracing is on feeds a per-name aggregate (calls, total and
//! self time, a duration histogram); a sample of them, those whose
//! operation id is a multiple of the sampling period, is also kept whole in
//! memory and written out as JSON lines when the run ends. Nothing inside
//! the library is instrumented: the spans time its public calls from
//! outside.

use std::fmt::Write as _;
use std::time::Instant;

use crate::stats::Hist;

/// The spans the workloads take. Each names a layer (after the module it
/// times) and the call.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Name {
    /// `Context::send`.
    CtxSend,
    /// `Context::advance`.
    CtxAdvance,
    /// The driver advancing every context with a full window.
    CtxBlocked,
    /// `Context::flush_aggr`.
    AggrFlush,
    /// One ping-pong round (and its 64 KiB exchange, when it has one).
    MpiRound,
    /// `Mpi::isend`.
    MpiIsend,
    /// `Mpi::irecv`.
    MpiIrecv,
    /// `Mpi::advance`.
    MpiAdvance,
    /// Waiting for a request: advancing until it completes, then
    /// `Mpi::wait`.
    MpiWait,
    /// One halo iteration.
    HaloIter,
    /// `PersistentChannel::post`.
    ChanPost,
    /// `PersistentChannel::wait`.
    ChanWait,
    /// `Mpi::allreduce`.
    CollAllreduce,
}

const ALL: [Name; 13] = [
    Name::CtxSend,
    Name::CtxAdvance,
    Name::CtxBlocked,
    Name::AggrFlush,
    Name::MpiRound,
    Name::MpiIsend,
    Name::MpiIrecv,
    Name::MpiAdvance,
    Name::MpiWait,
    Name::HaloIter,
    Name::ChanPost,
    Name::ChanWait,
    Name::CollAllreduce,
];

impl Name {
    pub fn as_str(self) -> &'static str {
        match self {
            Name::CtxSend => "context.send",
            Name::CtxAdvance => "context.advance",
            Name::CtxBlocked => "context.blocked",
            Name::AggrFlush => "aggr.flush",
            Name::MpiRound => "mpi.round",
            Name::MpiIsend => "mpi.isend",
            Name::MpiIrecv => "mpi.irecv",
            Name::MpiAdvance => "mpi.advance",
            Name::MpiWait => "mpi.wait",
            Name::HaloIter => "halo.iteration",
            Name::ChanPost => "channel.post",
            Name::ChanWait => "channel.wait",
            Name::CollAllreduce => "coll.allreduce",
        }
    }
}

/// Aggregate of every span of one name.
#[derive(Clone, Default)]
pub struct SpanStat {
    pub calls: u64,
    /// Calls that did useful work (an advance that processed an event).
    pub useful: u64,
    pub total_ns: u64,
    /// Time covered by child spans; `total_ns - child_ns` is self time.
    pub child_ns: u64,
    pub hist: Hist,
}

impl SpanStat {
    pub fn ns_per_call(&self) -> f64 {
        ratio(self.total_ns as f64, self.calls as f64)
    }

    pub fn useful_ratio(&self) -> f64 {
        ratio(self.useful as f64, self.calls as f64)
    }

    pub fn seconds(&self) -> f64 {
        self.total_ns as f64 / 1e9
    }

    pub fn self_ns(&self) -> u64 {
        self.total_ns.saturating_sub(self.child_ns)
    }
}

/// `a / b`, or 0 when nothing was counted.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// One kept span. Times are ns since the tracer's origin; `parent` indexes
/// the kept spans of the same tracer (`-1`: none).
struct Span {
    name: Name,
    start: u64,
    end: u64,
    parent: i64,
    op: u64,
}

struct Open {
    start: Instant,
    child_ns: u64,
    kept: i64,
}

/// A single thread's tracer.
pub struct Tracer {
    /// Whether spans are taken now. Off, every call site costs one branch.
    pub on: bool,
    origin: Instant,
    tid: u32,
    stack: Vec<Open>,
    stats: Vec<SpanStat>,
    kept: Vec<Span>,
    keep_every: u64,
}

/// Spans kept whole per tracer, at most.
const KEEP_CAP: usize = 100_000;

impl Tracer {
    /// `keep_every`: keep the spans of operations whose id is a multiple
    /// of this.
    pub fn new(origin: Instant, tid: u32, keep_every: u64) -> Tracer {
        Tracer {
            on: false,
            origin,
            tid,
            stack: Vec::new(),
            stats: vec![SpanStat::default(); ALL.len()],
            kept: Vec::new(),
            keep_every: keep_every.max(1),
        }
    }

    /// Open a span; close it with [`Tracer::close`] in LIFO order.
    pub fn open(&mut self, name: Name, op: u64) {
        if !self.on {
            return;
        }
        let kept = if op.is_multiple_of(self.keep_every) && self.kept.len() < KEEP_CAP {
            let parent = self.stack.last().map_or(-1, |o| o.kept);
            self.kept.push(Span {
                name,
                start: 0,
                end: 0,
                parent,
                op,
            });
            self.kept.len() as i64 - 1
        } else {
            -1
        };
        self.stack.push(Open {
            start: Instant::now(),
            child_ns: 0,
            kept,
        });
    }

    /// Close the innermost open span. `useful` marks a call that did work.
    pub fn close(&mut self, name: Name, useful: bool) {
        if !self.on {
            return;
        }
        let Some(open) = self.stack.pop() else {
            return;
        };
        let end = Instant::now();
        let dur = end.duration_since(open.start).as_nanos() as u64;
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += dur;
        }
        let st = &mut self.stats[name as usize];
        st.calls += 1;
        st.useful += useful as u64;
        st.total_ns += dur;
        st.child_ns += open.child_ns;
        st.hist.record(dur);
        if open.kept >= 0 {
            let s = &mut self.kept[open.kept as usize];
            s.start = open.start.duration_since(self.origin).as_nanos() as u64;
            s.end = end.duration_since(self.origin).as_nanos() as u64;
        }
    }

    /// Time `f` as a span of `name` on operation `op`.
    #[inline]
    pub fn call<R>(&mut self, name: Name, op: u64, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        self.open(name, op);
        let r = f();
        self.close(name, false);
        r
    }

    /// Time an advance-like call returning an event count; a call that
    /// processed at least one event counts as useful.
    #[inline]
    pub fn events(&mut self, name: Name, op: u64, f: impl FnOnce() -> usize) -> usize {
        if !self.on {
            return f();
        }
        self.open(name, op);
        let n = f();
        self.close(name, n > 0);
        n
    }

    pub fn stat(&self, name: Name) -> &SpanStat {
        &self.stats[name as usize]
    }

    /// Fold another thread's aggregates into this one (kept spans stay
    /// with their tracer; see [`write_spans`]).
    pub fn merge_stats(&mut self, other: &Tracer) {
        for (a, b) in self.stats.iter_mut().zip(&other.stats) {
            a.calls += b.calls;
            a.useful += b.useful;
            a.total_ns += b.total_ns;
            a.child_ns += b.child_ns;
            a.hist.merge(&b.hist);
        }
    }

    /// Per-name self time, for the trace summary.
    pub fn self_times(&self) -> Vec<(&'static str, u64, u64)> {
        ALL.iter()
            .map(|&n| (n.as_str(), self.stat(n).calls, self.stat(n).self_ns()))
            .filter(|&(_, calls, _)| calls > 0)
            .collect()
    }

    pub fn kept_len(&self) -> usize {
        self.kept.len()
    }

    fn write_kept(&self, out: &mut String) {
        for s in &self.kept {
            let _ = writeln!(
                out,
                "{{\"tid\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"op\":{}}}",
                self.tid,
                s.name.as_str(),
                s.start,
                s.end,
                s.parent,
                s.op
            );
        }
    }
}

/// Write every tracer's kept spans to `path` as JSON lines (`parent` is an
/// index into the spans of the same `tid`).
pub fn write_spans(path: &std::path::Path, tracers: &[&Tracer]) -> std::io::Result<()> {
    let mut out = String::new();
    for t in tracers {
        t.write_kept(&mut out);
    }
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_give_self_time_and_parents() {
        let mut t = Tracer::new(Instant::now(), 0, 1);
        t.on = true;
        t.open(Name::MpiRound, 4);
        t.call(Name::MpiIsend, 4, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.events(Name::MpiAdvance, 4, || 1);
        t.events(Name::MpiAdvance, 4, || 0);
        t.close(Name::MpiRound, false);
        let round = t.stat(Name::MpiRound);
        assert_eq!(round.calls, 1);
        assert!(round.child_ns >= 2_000_000);
        assert!(round.self_ns() < round.total_ns);
        assert_eq!(t.stat(Name::MpiAdvance).calls, 2);
        assert_eq!(t.stat(Name::MpiAdvance).useful_ratio(), 0.5);
        let mut out = String::new();
        t.write_kept(&mut out);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("\"parent\":-1"));
        assert!(lines[1].contains("\"name\":\"mpi.isend\"") && lines[1].contains("\"parent\":0"));
    }

    #[test]
    fn off_tracer_records_nothing() {
        let mut t = Tracer::new(Instant::now(), 0, 1);
        assert_eq!(t.call(Name::CtxSend, 0, || 7), 7);
        assert_eq!(t.stat(Name::CtxSend).calls, 0);
        assert_eq!(t.kept_len(), 0);
    }
}
