//! Load generation over loopback: closed-loop estimate lanes, the
//! open-loop ingest writer, and the isolated ingest probe.

use std::net::SocketAddr;
use std::sync::Barrier;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sqe_engine::SpjQuery;

use crate::check::{check_answer, Tally};
use crate::stack::{PROBE_TENANT, TENANT};
use crate::wire::{
    decode, estimate_request, ingest_request, Client, EstimateAnswer, Failure, IngestAnswer,
};
use crate::workload::{mix, Plan, Requests, BATCH_OPS, THINK_MAX_US};

/// Jitter-space lanes: two load lanes plus the warm-up lane.
pub const LANES: u64 = 3;
/// The lane the warm-up pass draws from (disjoint from load lanes).
pub const WARMUP_LANE: u64 = 2;
/// Never-seen queries the cold warm-up sends before timing.
pub const COLD_WARMUP: usize = 60;
/// At most this many answers per lane are kept for the bit-identity
/// check against an in-process service.
const SAMPLE_CAP: usize = 200;
/// One in this many answers is sampled.
const SAMPLE_EVERY: u64 = 8;

/// What one closed-loop estimate lane observed.
#[derive(Default)]
pub struct LaneResult {
    pub latency_ms: Vec<f64>,
    pub tally: Tally,
    /// Seeded sample of `(query, wire answer)` for the bit-identity check.
    pub samples: Vec<(SpjQuery, EstimateAnswer)>,
    pub elapsed_s: f64,
    /// Wall time the lane spent in its think-time pauses, overshoot
    /// included: `elapsed_s - think_s` is the time it waited on the
    /// program.
    pub think_s: f64,
}

impl LaneResult {
    /// Answered requests per second of the lane's busy time.
    pub fn busy_rate(&self) -> f64 {
        self.latency_ms.len() as f64 / (self.elapsed_s - self.think_s).max(f64::MIN_POSITIVE)
    }
}

/// What the ingest writer (or probe) observed.
#[derive(Default)]
pub struct IngestResult {
    /// Latency from each batch's due time to its reply.
    pub latency_ms: Vec<f64>,
    /// How late each batch was sent relative to its due time.
    pub late_ms: Vec<f64>,
    pub tally: Tally,
    /// Batches the server acknowledged, in stream order from batch 0.
    pub applied: usize,
}

/// Opens a load connection; a refused connect counts as one failed
/// attempt.
fn connect(addr: SocketAddr, tally: &mut Tally) -> Option<Client> {
    match Client::connect(addr) {
        Ok(c) => Some(c),
        Err(e) => {
            tally.attempted += 1;
            tally.record_failure(Failure::Transport(e.to_string()));
            None
        }
    }
}

/// Sends `query` and checks the answer; returns it when usable.
pub fn estimate_once(
    client: &mut Client,
    query: &SpjQuery,
    tally: &mut Tally,
) -> Option<EstimateAnswer> {
    let raw = estimate_request(TENANT, query);
    tally.attempted += 1;
    let answer = client
        .exchange(&raw)
        .and_then(|reply| decode::<EstimateAnswer>(&reply));
    match answer {
        Ok(a) => {
            tally.record_answer(query, &a, check_answer(query, &a));
            Some(a)
        }
        Err(f) => {
            tally.record_failure(f);
            None
        }
    }
}

/// Sends one ingest batch to `tenant`; `Ok` when acknowledged with every
/// op applied.
pub fn ingest_once(
    client: &mut Client,
    tenant: &str,
    plan: &Plan,
    index: usize,
    tally: &mut Tally,
) -> bool {
    let raw = ingest_request(tenant, &plan.batches[index]);
    tally.attempted += 1;
    match client
        .exchange(&raw)
        .and_then(|reply| decode::<IngestAnswer>(&reply))
    {
        Ok(a) if a.ops_applied as usize == plan.batches[index].op_count() => true,
        Ok(a) => {
            tally.record_miss(format!(
                "batch {index}: applied {} of {BATCH_OPS} ops",
                a.ops_applied
            ));
            false
        }
        Err(f) => {
            tally.record_failure(f);
            false
        }
    }
}

/// Fills the caches before timing: every template once (warm, ingest),
/// or a run of never-seen queries from the warm-up lane (cold).
pub fn warm_up(addr: SocketAddr, plan: &Plan, tally: &mut Tally) {
    let Some(mut client) = connect(addr, tally) else {
        return;
    };
    for query in warmup_queries(plan) {
        estimate_once(&mut client, &query, tally);
    }
}

/// The warm-up request sequence (shared with the traced replay).
pub fn warmup_queries(plan: &Plan) -> Vec<SpjQuery> {
    match plan.workload {
        crate::workload::Workload::Cold => {
            let mut gen = plan.requests(WARMUP_LANE, LANES);
            (0..COLD_WARMUP).map(|_| gen.next_query()).collect()
        }
        _ => plan.templates.clone(),
    }
}

/// A seeded source of think-time pauses (see [`THINK_MAX_US`]).
pub struct Think(StdRng);

impl Think {
    pub fn new(seed: u64, lane: u64) -> Think {
        Think(StdRng::seed_from_u64(mix(seed, 0x7417_0000 + lane)))
    }

    /// Sleeps the next pause and returns the wall time slept, overshoot
    /// included.
    pub fn pause(&mut self) -> f64 {
        let t = Instant::now();
        std::thread::sleep(Duration::from_micros(self.0.gen_range(0..THINK_MAX_US)));
        t.elapsed().as_secs_f64()
    }
}

/// One closed-loop lane: next request only after the previous reply
/// plus a think-time pause. Its request
/// stream, sampler and connection persist across [`Lane::run`] calls,
/// so a read phase can be split into segments.
pub struct Lane<'a> {
    gen: Requests<'a>,
    sampler: StdRng,
    think: Think,
    client: Option<Client>,
    pub out: LaneResult,
}

impl<'a> Lane<'a> {
    pub fn new(addr: SocketAddr, plan: &'a Plan, lane: u64) -> Lane<'a> {
        let mut out = LaneResult::default();
        let client = connect(addr, &mut out.tally);
        Lane {
            gen: plan.requests(lane, LANES),
            sampler: StdRng::seed_from_u64(mix(plan.seed, 0x5A3_0000 + lane)),
            think: Think::new(plan.seed, lane),
            client,
            out,
        }
    }

    /// Sends requests for `seconds`, starting when every lane of the
    /// segment has reached `start`.
    pub fn run(&mut self, start: &Barrier, seconds: f64) {
        start.wait();
        let Some(client) = self.client.as_mut() else {
            return;
        };
        let out = &mut self.out;
        let t0 = Instant::now();
        let until = t0 + Duration::from_secs_f64(seconds);
        while Instant::now() < until {
            out.think_s += self.think.pause();
            let query = self.gen.next_query();
            let sent = Instant::now();
            let answer = estimate_once(client, &query, &mut out.tally);
            let ms = sent.elapsed().as_secs_f64() * 1e3;
            if let Some(a) = answer {
                out.latency_ms.push(ms);
                if out.samples.len() < SAMPLE_CAP && self.sampler.gen_range(0..SAMPLE_EVERY) == 0 {
                    out.samples.push((query, a));
                }
            }
        }
        out.elapsed_s += t0.elapsed().as_secs_f64();
    }
}

/// The open-loop writer: batch `i` is due at `i / rate` seconds after
/// the start, sent as soon as the connection is free, and timed from
/// its due time.
pub fn open_writer(
    addr: SocketAddr,
    plan: &Plan,
    rate: f64,
    start: &Barrier,
    seconds: f64,
) -> IngestResult {
    let mut out = IngestResult::default();
    let client = connect(addr, &mut out.tally);
    start.wait();
    let Some(mut client) = client else {
        return out;
    };
    let t0 = Instant::now();
    for i in 0..plan.batches.len() {
        let due = t0 + Duration::from_secs_f64(i as f64 / rate);
        if due.duration_since(t0).as_secs_f64() >= seconds {
            break;
        }
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        out.late_ms
            .push(Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3);
        if !ingest_once(&mut client, TENANT, plan, i, &mut out.tally) {
            // Later batches build on this one; stop rather than diverge.
            break;
        }
        out.latency_ms.push(due.elapsed().as_secs_f64() * 1e3);
        out.applied += 1;
    }
    out
}

/// Isolated ingests to the probe tenant, closed loop on one connection
/// while no reads run. Called between read segments, each call sending
/// the next `batches` of the stream.
pub struct IngestProbe {
    client: Option<Client>,
    next: usize,
    pub out: IngestResult,
}

impl IngestProbe {
    pub fn new(addr: SocketAddr) -> IngestProbe {
        let mut out = IngestResult::default();
        let client = connect(addr, &mut out.tally);
        IngestProbe {
            client,
            next: 0,
            out,
        }
    }

    pub fn run(&mut self, plan: &Plan, batches: usize) {
        let Some(client) = self.client.as_mut() else {
            return;
        };
        let end = (self.next + batches).min(plan.batches.len());
        while self.next < end {
            let sent = Instant::now();
            if !ingest_once(client, PROBE_TENANT, plan, self.next, &mut self.out.tally) {
                // Later batches build on this one; stop rather than diverge.
                self.client = None;
                return;
            }
            self.out.latency_ms.push(sent.elapsed().as_secs_f64() * 1e3);
            self.out.late_ms.push(0.0);
            self.out.applied += 1;
            self.next += 1;
        }
    }
}
