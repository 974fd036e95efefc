//! `mpi_pingpong`: two MPI ranks on two nodes (`MpiConfig::default()`, no
//! commthreads), both driven by one thread.
//!
//! Each round is an 8 B ping-pong whose receives alternate between a named
//! source and `ANY_SOURCE`; every [`BULK_EVERY`]th round adds a 64 KiB
//! exchange in both directions, which takes the rendezvous rung. Each rank
//! keeps [`BACKGROUND`] receives pre-posted on tags the workload never
//! sends, so every match searches a realistic posted queue.

use std::sync::Arc;
use std::time::Instant;

use pami::Machine;
use pami_mpi::{MemRegion, Mpi, MpiConfig, Request, Tag, ANY_SOURCE};

use crate::trace::{Name, Tracer};
use crate::{mix, pattern, Counters, Outcome, Plan, SetupTimes, OP_DEADLINE};

const PING: Tag = 1;
const BULK: Tag = 2;
/// Pre-posted receives per rank, on tags `BACKGROUND_TAG..+BACKGROUND`.
const BACKGROUND: usize = 32;
const BACKGROUND_TAG: Tag = 1_000_000;
const BULK_EVERY: u64 = 8;
const BULK_BYTES: usize = 64 * 1024;
const WARMUP_ROUNDS: u64 = 20_000;

// A workload tag inside the background range would be matched by a
// background receive instead of its own and hang the round.
const _: () = assert!(PING < BACKGROUND_TAG && BULK < BACKGROUND_TAG);

struct Rig {
    machine: Arc<Machine>,
    ranks: [Mpi; 2],
    ping: [MemRegion; 2],
    pong: [MemRegion; 2],
    bulk_out: [MemRegion; 2],
    bulk_in: [MemRegion; 2],
    /// Keeps the background receives' buffers alive.
    _background: Vec<MemRegion>,
    pattern: Vec<u8>,
    key: u64,
}

/// The 64 KiB body rank `rank` sends in round `round`.
fn bulk_body(pattern: &[u8], round: u64, rank: usize) -> &[u8] {
    let k = ((round / BULK_EVERY) * 2 + rank as u64) as usize % 251;
    &pattern[k..k + BULK_BYTES]
}

impl Rig {
    /// Advance both ranks until `req` (on rank `r`) completes, then
    /// `Mpi::wait` it.
    fn wait(&self, r: usize, req: Request, op: u64, tr: &mut Tracer) -> Result<(), String> {
        tr.open(Name::MpiWait, op);
        let deadline = Instant::now() + OP_DEADLINE;
        let mut result = Ok(());
        while !self.ranks[r].request_complete(req) {
            for mpi in &self.ranks {
                tr.events(Name::MpiAdvance, op, || mpi.advance());
            }
            if Instant::now() > deadline {
                result = Err(format!(
                    "round {op}: rank {r} request not complete after {OP_DEADLINE:?}"
                ));
                break;
            }
        }
        if result.is_ok() {
            self.ranks[r].wait(req);
        }
        tr.close(Name::MpiWait, false);
        result
    }

    fn isend(
        &self,
        r: usize,
        buf: &MemRegion,
        len: usize,
        tag: Tag,
        op: u64,
        tr: &mut Tracer,
    ) -> Request {
        let mpi = &self.ranks[r];
        tr.call(Name::MpiIsend, op, || {
            mpi.isend(buf, 0, len, 1 - r, tag, mpi.world())
        })
    }

    #[allow(clippy::too_many_arguments)]
    fn irecv(
        &self,
        r: usize,
        buf: &MemRegion,
        len: usize,
        src: i32,
        tag: Tag,
        op: u64,
        tr: &mut Tracer,
    ) -> Request {
        let mpi = &self.ranks[r];
        tr.call(Name::MpiIrecv, op, || {
            mpi.irecv(buf, 0, len, src, tag, mpi.world())
        })
    }

    /// One 8 B ping-pong; returns its round-trip time.
    fn pingpong(&self, round: u64, tr: &mut Tracer) -> Result<u64, String> {
        let word = mix(self.key ^ round);
        self.ping[0].write(0, &word.to_le_bytes());
        self.pong[1].write(0, &(!word).to_le_bytes());
        let named = round.is_multiple_of(2);
        let src = |peer: usize| if named { peer as i32 } else { ANY_SOURCE };
        let t0 = Instant::now();
        let rb = self.irecv(1, &self.ping[1], 8, src(0), PING, round, tr);
        let ra = self.irecv(0, &self.pong[0], 8, src(1), PING, round, tr);
        let sa = self.isend(0, &self.ping[0], 8, PING, round, tr);
        self.wait(1, rb, round, tr)?;
        let sb = self.isend(1, &self.pong[1], 8, PING, round, tr);
        self.wait(0, ra, round, tr)?;
        let rtt = t0.elapsed().as_nanos() as u64;
        self.wait(0, sa, round, tr)?;
        self.wait(1, sb, round, tr)?;
        if self.ping[1].read_i64(0) as u64 != word || self.pong[0].read_i64(0) as u64 != !word {
            return Err(format!(
                "round {round}: 8 B payload does not match what was sent"
            ));
        }
        Ok(rtt)
    }

    /// The 64 KiB exchange; returns its duration.
    fn exchange(&self, round: u64, tr: &mut Tracer) -> Result<u64, String> {
        for r in 0..2 {
            self.bulk_out[r].write(0, bulk_body(&self.pattern, round, r));
        }
        let t0 = Instant::now();
        let recvs = [0, 1].map(|r| {
            self.irecv(
                r,
                &self.bulk_in[r],
                BULK_BYTES,
                (1 - r) as i32,
                BULK,
                round,
                tr,
            )
        });
        let sends = [0, 1].map(|r| self.isend(r, &self.bulk_out[r], BULK_BYTES, BULK, round, tr));
        for (r, req) in recvs
            .into_iter()
            .enumerate()
            .chain(sends.into_iter().enumerate())
        {
            self.wait(r, req, round, tr)?;
        }
        let dur = t0.elapsed().as_nanos() as u64;
        for r in 0..2 {
            if self.bulk_in[r].to_vec() != bulk_body(&self.pattern, round, 1 - r) {
                return Err(format!(
                    "round {round}: 64 KiB exchange into rank {r} does not match"
                ));
            }
        }
        Ok(dur)
    }

    fn round(&self, round: u64, tr: &mut Tracer) -> Result<(u64, Option<u64>), String> {
        tr.open(Name::MpiRound, round);
        let rtt = self.pingpong(round, tr);
        let bulk = match rtt {
            Ok(_) if round % BULK_EVERY == BULK_EVERY - 1 => self.exchange(round, tr).map(Some),
            _ => Ok(None),
        };
        tr.close(Name::MpiRound, false);
        Ok((rtt?, bulk?))
    }
}

fn setup(seed: u64, tr: &mut Tracer) -> Result<(Rig, SetupTimes), String> {
    let t0 = Instant::now();
    let machine = Machine::with_nodes(2).build();
    let t1 = Instant::now();
    let ranks = [0, 1].map(|t| Mpi::init(&machine, t, MpiConfig::default()));
    let t2 = Instant::now();
    let mut background = Vec::new();
    for (r, mpi) in ranks.iter().enumerate() {
        for i in 0..BACKGROUND {
            let buf = MemRegion::zeroed(8);
            let tag = BACKGROUND_TAG + i as Tag;
            let _ = mpi.irecv(&buf, 0, 8, (1 - r) as i32, tag, mpi.world());
            background.push(buf);
        }
    }
    let zeroed = |len| [MemRegion::zeroed(len), MemRegion::zeroed(len)];
    let rig = Rig {
        machine,
        ranks,
        ping: zeroed(8),
        pong: zeroed(8),
        bulk_out: zeroed(BULK_BYTES),
        bulk_in: zeroed(BULK_BYTES),
        _background: background,
        pattern: pattern(seed, BULK_BYTES + 251),
        key: mix(seed),
    };
    rig.round(0, tr)?;
    let t3 = Instant::now();
    Ok((
        rig,
        SetupTimes {
            build: t1 - t0,
            create: t2 - t1,
            bind: t3 - t2,
        },
    ))
}

pub fn run(plan: &Plan) -> Outcome {
    let mut out = Outcome::new(plan);
    let mut tr = Tracer::new(Instant::now(), 0, 16);
    if let Err(e) = rounds(plan, &mut tr, &mut out) {
        out.attempted += 1;
        out.fail(e);
    }
    out.tracers.push(tr);
    out
}

fn rounds(plan: &Plan, tr: &mut Tracer, out: &mut Outcome) -> Result<(), String> {
    let mut rig = None;
    for rep in 0..plan.setups() {
        let (r, times) = setup(plan.seed, tr)?;
        if plan.setup_timed(rep) {
            out.setup.push(times);
        }
        rig = Some(r);
    }
    let rig = rig.expect("at least one set-up");
    let mut round = 1;
    for _ in 0..plan.warmup(WARMUP_ROUNDS) {
        rig.round(round, tr)?;
        round += 1;
    }
    out.attempted = round;
    let before = Counters::read(&rig.machine);
    let first_timed = round;
    let start = Instant::now();
    loop {
        let t = start.elapsed().as_nanos() as u64;
        if t >= plan.run_ns {
            break;
        }
        tr.on = plan.traced_window(out.series.window_of(t));
        let (rtt, bulk) = rig.round(round, tr)?;
        let end = start.elapsed().as_nanos() as u64;
        out.series.ops(end, 1);
        out.series.lat(end, rtt / 2);
        if let Some(dur) = bulk {
            out.series.bytes(end, 2 * BULK_BYTES as u64, dur);
        }
        round += 1;
        out.attempted = round;
    }
    tr.on = false;
    out.timed_ops = round - first_timed;
    out.counters = Counters::read(&rig.machine).since(before);
    Ok(())
}
