//! The traced run: one caller replays a fixed request sequence once per
//! depth of the request path, each time on a freshly built identical
//! stack, and attributes every request's time to the layers.
//!
//! Depths, outermost first (the span names):
//!
//! | depth | span | call timed |
//! |---|---|---|
//! | 1 | `tcp` | one keep-alive round trip to the reactor |
//! | 2 | `front_door` | `FrontDoor::handle` |
//! | 3 | `tenant` | `Tenant::estimate` / `Tenant::ingest` |
//! | 4 | `service` | `EstimationService::estimate_with_budget`, or for an ingest `LiveCatalog::ingest` + `Database::clone` + `EstimationService::partial_install` |
//! | 5 | `ladder` | `Ladder::estimate` over the snapshot's shared cache, on requests depth 4 answered uncached |
//! | 6 | `estimator` | `SelectivityEstimator::new` (build) + `get_selectivity` (fill) |
//!
//! Each request gets one path span per depth it reaches, keyed by its
//! index in the sequence, whose parent is the span one depth up. A
//! layer's self time is its span minus the same request's span one depth
//! down, so the self times of one request telescope to its round trip.
//! Sibling spans time the pure calls beside the path (HTTP parse and
//! serialize, the bound sketch, and the ingest steps) and are not part
//! of the telescoping sum. Spans stay in memory and are written to
//! `.bench_trace/` when the run ends.
//!
//! Counts are read from the layers' public stats at the same boundaries.
//! With one caller and a fixed sequence, every count repeats exactly.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use sqe_core::{BoundSketch, Budget, IngestReport, Ladder, LiveCatalog, SelectivityEstimator};
use sqe_engine::SpjQuery;
use sqe_server::http::{parse_request, Parse};
use sqe_service::{EstimationService, PartialInstallOutcome};

use crate::check::{check_answer, Tally};
use crate::load::{warmup_queries, Think, LANES};
use crate::stack::{tenant_config, Inputs, SetupSplit, Stack, TENANT};
use crate::stats::{median, percentile, sorted};
use crate::wire::{decode, estimate_request, ingest_request, Client, EstimateAnswer, IngestAnswer};
use crate::workload::{Plan, Workload};

/// Ingest batches in the traced ingest sequence (and the least any
/// mutation stream holds).
pub const TRACE_INGESTS: usize = 24;
/// Reads before each traced ingest.
const READS_PER_INGEST: usize = 10;
/// Traced estimates of the warm and cold sequences.
const TRACE_WARM: usize = 1000;
const TRACE_COLD: usize = 120;

/// Path span names by depth (index 0 is depth 1).
pub const DEPTHS: [&str; 6] = [
    "tcp",
    "front_door",
    "tenant",
    "service",
    "ladder",
    "estimator",
];

/// One request of the traced sequence.
#[derive(Clone)]
pub enum Op {
    Estimate(SpjQuery),
    /// Index into the mutation stream.
    Ingest(usize),
}

/// The traced sequence: the load generator's lane-0 requests, with an
/// ingest after every [`READS_PER_INGEST`] reads for the ingest workload.
pub fn sequence(plan: &Plan) -> Vec<Op> {
    let mut gen = plan.requests(0, LANES);
    match plan.workload {
        Workload::Warm => (0..TRACE_WARM)
            .map(|_| Op::Estimate(gen.next_query()))
            .collect(),
        Workload::Cold => (0..TRACE_COLD)
            .map(|_| Op::Estimate(gen.next_query()))
            .collect(),
        Workload::Ingest => (0..TRACE_INGESTS)
            .flat_map(|i| {
                let reads: Vec<Op> = (0..READS_PER_INGEST)
                    .map(|_| Op::Estimate(gen.next_query()))
                    .collect();
                reads.into_iter().chain(std::iter::once(Op::Ingest(i)))
            })
            .collect(),
    }
}

/// One timed interval of one request.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Index of the request in the traced sequence.
    pub req: usize,
    /// Depth of the replay that recorded it.
    pub depth: usize,
    pub name: &'static str,
    pub parent: Option<&'static str>,
    pub start: Duration,
    pub end: Duration,
}

impl Span {
    pub fn micros(&self) -> f64 {
        (self.end - self.start).as_secs_f64() * 1e6
    }

    fn is_path(&self) -> bool {
        self.name == DEPTHS[self.depth - 1]
    }
}

/// Spans of one replay, relative to the replay's start.
pub struct SpanLog {
    origin: Instant,
    depth: usize,
    pub spans: Vec<Span>,
}

impl SpanLog {
    fn new(depth: usize) -> SpanLog {
        SpanLog {
            origin: Instant::now(),
            depth,
            spans: Vec::new(),
        }
    }

    /// Records the path span of request `req` at this log's depth.
    fn path(&mut self, req: usize, start: Instant, end: Instant) {
        let name = DEPTHS[self.depth - 1];
        let parent = (self.depth > 1).then(|| DEPTHS[self.depth - 2]);
        self.push(req, name, parent, start, end);
    }

    /// Records a sibling span beside the path.
    fn sibling(
        &mut self,
        req: usize,
        name: &'static str,
        parent: &'static str,
        start: Instant,
        end: Instant,
    ) {
        self.push(req, name, Some(parent), start, end);
    }

    fn push(
        &mut self,
        req: usize,
        name: &'static str,
        parent: Option<&'static str>,
        start: Instant,
        end: Instant,
    ) {
        self.spans.push(Span {
            req,
            depth: self.depth,
            name,
            parent,
            start: start - self.origin,
            end: end - self.origin,
        });
    }
}

/// Per-request path durations (µs) by depth, `None` where the request
/// did not reach that depth.
pub fn path_micros(spans: &[Span], requests: usize) -> Vec<[Option<f64>; 6]> {
    let mut out = vec![[None; 6]; requests];
    for s in spans.iter().filter(|s| s.is_path()) {
        out[s.req][s.depth - 1] = Some(s.micros());
    }
    out
}

/// Self time per depth: the span minus the same request's span one depth
/// down (the whole span at the deepest depth reached).
pub fn self_micros(path: &[Option<f64>; 6]) -> [Option<f64>; 6] {
    let mut out = [None; 6];
    for d in 0..6 {
        if let Some(total) = path[d] {
            let child = path.get(d + 1).copied().flatten().unwrap_or(0.0);
            out[d] = Some(total - child);
        }
    }
    out
}

/// Counts read from the layers' public stats.
#[derive(Debug, Default)]
struct Counts {
    reactor_requests: u64,
    reactor_parse_errors: u64,
    bytes_in: u64,
    bytes_out: u64,
    quota_refused: u64,
    admission_sheds: u64,
    service_estimates: u64,
    query_hits: u64,
    ladder_calls: u64,
    memo_entries: u64,
    peel_entries: u64,
    vm_calls: u64,
    link_hits: u64,
    link_misses: u64,
    link_evictions: u64,
    histogram_ns: u64,
    beam_expansions: u64,
    sits_refreshed: u64,
    sits_merged: u64,
    cache_carried: u64,
    cache_dropped: u64,
}

/// The traced run's result.
pub struct Traced {
    pub tally: Tally,
    pub metrics: Vec<(String, (f64, &'static str))>,
}

/// Everything the depth replays share.
struct Ctx<'a> {
    inputs: &'a Inputs,
    ops: &'a [Op],
    warmup: &'a [SpjQuery],
    budget: Budget,
}

impl Ctx<'_> {
    /// A fresh stack, warmed up exactly as the measured run's.
    fn stack(&self, serve: bool) -> Stack {
        let stack = Stack::new(self.inputs.db.clone(), self.inputs.pool.clone(), serve);
        for q in self.warmup {
            let Parse::Done { request, .. } = parse_request(&estimate_request(TENANT, q)) else {
                unreachable!("the client's own request parses");
            };
            stack.door.handle(&request);
        }
        stack
    }

    /// The live catalog a depth-4-or-deeper replay ingests through, in
    /// step with the tenant's own initial state.
    fn live(&self) -> LiveCatalog {
        LiveCatalog::new(
            self.inputs.db.clone(),
            self.inputs.pool.clone(),
            tenant_config().delta,
        )
    }

    fn wire_bytes(&self, op: &Op) -> Vec<u8> {
        match op {
            Op::Estimate(q) => estimate_request(TENANT, q),
            Op::Ingest(b) => ingest_request(TENANT, &self.inputs.plan.batches[*b]),
        }
    }
}

/// Runs the traced pass and derives the per-layer metrics.
///
/// The six depth replays run in lockstep: request `i` is replayed at
/// every depth, each on its own stack, before request `i + 1`, so slow
/// drifts of the host's speed hit every depth of a request alike. Odd
/// requests visit the depths in a different order than even ones, so
/// running the same request back to back does not favour one depth.
pub fn run(
    args: &crate::Args,
    inputs: &Inputs,
    split: &[SetupSplit],
    writer_late_ms: &[f64],
) -> Traced {
    let warmup = warmup_queries(&inputs.plan);
    let ops = sequence(&inputs.plan);
    let ctx = Ctx {
        inputs,
        ops: &ops,
        warmup: &warmup,
        budget: Budget::unlimited().with_deadline(tenant_config().quota.deadline_ceiling),
    };
    // The untraced baseline: the same round trips with no deeper depth
    // replayed beside them, timed at the client exactly as the measured
    // run times its requests. It runs before and after the traced pass,
    // so neither side alone gains from a warmer process.
    let mut tally = Tally::default();
    let before = tcp_alone(&ctx, &mut tally);
    let traced = lockstep(&ctx);
    let after = tcp_alone(&ctx, &mut tally);
    tally.absorb(traced.tally);
    let spans: Vec<Span> = traced.logs.into_iter().flat_map(|l| l.spans).collect();
    write_spans(args, &spans);
    let tcp: Vec<f64> = spans
        .iter()
        .filter(|s| s.depth == 1 && s.is_path())
        .map(Span::micros)
        .collect();
    let overhead = pct(tcp, 50.0) / ((before + after) / 2.0) - 1.0;
    let metrics = derive(
        &ctx,
        &spans,
        &traced.counts,
        split,
        writer_late_ms,
        overhead,
    );
    Traced { tally, metrics }
}

/// Replays the sequence over TCP alone on a fresh stack and returns the
/// median round trip, µs.
fn tcp_alone(ctx: &Ctx, tally: &mut Tally) -> f64 {
    let stack = ctx.stack(true);
    let mut client = Client::connect(stack.addr()).expect("connect to the untraced reactor");
    let mut log = SpanLog::new(1);
    let mut think = Think::new(ctx.inputs.plan.seed, 0);
    for (i, op) in ctx.ops.iter().enumerate() {
        wire_step(ctx, &mut client, &mut think, i, op, &mut log, tally);
    }
    drop(client);
    stack.shutdown();
    pct(log.spans.iter().map(Span::micros).collect(), 50.0)
}

/// One lockstep pass over fresh stacks.
struct Pass {
    logs: Vec<SpanLog>,
    counts: Counts,
    tally: Tally,
}

fn lockstep(ctx: &Ctx) -> Pass {
    let mut tally = Tally::default();
    let mut counts = Counts::default();
    let stacks: Vec<Stack> = (0..6).map(|d| ctx.stack(d == 0)).collect();
    let mut lives: Vec<LiveCatalog> = (0..3).map(|_| ctx.live()).collect();
    let mut logs: Vec<SpanLog> = (1..=6).map(SpanLog::new).collect();
    let mut client = Client::connect(stacks[0].addr()).expect("connect to the traced reactor");
    let mut think = Think::new(ctx.inputs.plan.seed, 0);
    let reactor = Arc::clone(stacks[0].server.as_ref().expect("depth 1 serves").stats());
    let requests0 = reactor.requests.load(Ordering::Relaxed);
    let refused0: Vec<u64> = stacks.iter().map(|s| s.tenant.bucket().refused()).collect();
    let service0 = stacks[3].tenant.service().stats();

    const EVEN: [usize; 6] = [1, 2, 3, 4, 5, 6];
    const ODD: [usize; 6] = [4, 6, 5, 3, 2, 1];
    for (i, op) in ctx.ops.iter().enumerate() {
        let mut bits: [Option<u64>; 6] = [None; 6];
        let mut cached = false;
        for &d in if i % 2 == 0 { &EVEN } else { &ODD } {
            let log = &mut logs[d - 1];
            let stack = &stacks[d - 1];
            bits[d - 1] = match d {
                1 => wire_step(ctx, &mut client, &mut think, i, op, log, &mut tally),
                2 => door_step(ctx, stack, i, op, log),
                3 => tenant_step(ctx, stack, i, op, log),
                4 => {
                    let (b, c) = service_step(ctx, stack, &mut lives[0], i, op, log, &mut counts);
                    cached = c;
                    b
                }
                5 => ladder_step(ctx, stack, &mut lives[1], i, op, cached, log, &mut counts),
                _ => estimator_step(ctx, stack, &mut lives[2], i, op, cached, log, &mut counts),
            };
        }
        // Every depth must answer every request with the wire's bits
        // (ingests: the same epoch and maintenance counts down to depth 4).
        let deepest = match op {
            Op::Estimate(_) if !cached => 6,
            _ => 4,
        };
        if bits[..deepest].iter().any(|b| b.is_none() || *b != bits[0]) {
            tally.record_miss(format!("request {i}: depths answered {bits:?}"));
        }
    }

    counts.reactor_requests = reactor.requests.load(Ordering::Relaxed) - requests0;
    counts.reactor_parse_errors = reactor.parse_errors.load(Ordering::Relaxed);
    counts.bytes_in = client.bytes_out;
    counts.bytes_out = client.bytes_in;
    counts.quota_refused = stacks
        .iter()
        .zip(&refused0)
        .map(|(s, r0)| s.tenant.bucket().refused() - r0)
        .sum();
    let service1 = stacks[3].tenant.service().stats();
    counts.service_estimates = service1.estimates - service0.estimates;
    counts.query_hits = service1.query_cache_hits - service0.query_cache_hits;
    counts.admission_sheds = service1.sheds - service0.sheds;
    drop(client);
    for stack in stacks {
        stack.shutdown();
    }
    Pass {
        logs,
        counts,
        tally,
    }
}

/// Depth 1: one keep-alive round trip to a live reactor, after the same
/// think-time pause the measured run's lane 0 takes before the request.
#[allow(clippy::too_many_arguments)]
fn wire_step(
    ctx: &Ctx,
    client: &mut Client,
    think: &mut Think,
    i: usize,
    op: &Op,
    log: &mut SpanLog,
    tally: &mut Tally,
) -> Option<u64> {
    let raw = ctx.wire_bytes(op);
    tally.attempted += 1;
    think.pause();
    let start = Instant::now();
    let reply = client.exchange(&raw);
    log.path(i, start, Instant::now());
    let reply = match reply {
        Ok(r) => r,
        Err(f) => {
            tally.record_failure(f);
            return None;
        }
    };
    match op {
        Op::Estimate(q) => match decode::<EstimateAnswer>(&reply) {
            Ok(a) => {
                tally.record_answer(q, &a, check_answer(q, &a));
                Some(a.selectivity.to_bits())
            }
            Err(f) => {
                tally.record_failure(f);
                None
            }
        },
        Op::Ingest(_) => match decode::<IngestAnswer>(&reply) {
            Ok(a) => Some(ingest_fingerprint(
                a.epoch,
                a.sits_refreshed,
                a.sits_merged,
                a.cache_carried,
                a.cache_dropped,
            )),
            Err(f) => {
                tally.record_failure(f);
                None
            }
        },
    }
}

/// One number standing for an ingest's outcome, comparable across depths.
fn ingest_fingerprint(epoch: u64, refreshed: u64, merged: u64, carried: u64, dropped: u64) -> u64 {
    [epoch, refreshed, merged, carried, dropped]
        .iter()
        .fold(0xCBF2_9CE4_8422_2325u64, |h, &x| {
            (h ^ x).wrapping_mul(0x0100_0000_01B3)
        })
}

fn outcome_fingerprint(report: &IngestReport, outcome: &PartialInstallOutcome) -> u64 {
    ingest_fingerprint(
        outcome.epoch,
        report.sits_refreshed.len() as u64,
        report.sits_merged.len() as u64,
        outcome.cache_carried,
        outcome.cache_dropped,
    )
}

/// Depth 2: `FrontDoor::handle`, with the HTTP parse and the response
/// serialization timed beside it.
fn door_step(ctx: &Ctx, stack: &Stack, i: usize, op: &Op, log: &mut SpanLog) -> Option<u64> {
    let raw = ctx.wire_bytes(op);
    let p0 = Instant::now();
    let parsed = parse_request(&raw);
    let p1 = Instant::now();
    let Parse::Done { request, .. } = parsed else {
        unreachable!("the client's own request parses");
    };
    log.sibling(i, "http.parse", "tcp", p0, p1);
    let start = Instant::now();
    let response = stack.door.handle(&request);
    log.path(i, start, Instant::now());
    let w0 = Instant::now();
    std::hint::black_box(response.to_bytes(true));
    log.sibling(i, "http.write", "tcp", w0, Instant::now());
    let body = std::str::from_utf8(&response.body).ok()?;
    match op {
        Op::Estimate(_) => serde_json::from_str::<EstimateAnswer>(body)
            .ok()
            .map(|a| a.selectivity.to_bits()),
        Op::Ingest(_) => serde_json::from_str::<IngestAnswer>(body).ok().map(|a| {
            ingest_fingerprint(
                a.epoch,
                a.sits_refreshed,
                a.sits_merged,
                a.cache_carried,
                a.cache_dropped,
            )
        }),
    }
}

/// Depth 3: `Tenant::estimate` and `Tenant::ingest`.
fn tenant_step(ctx: &Ctx, stack: &Stack, i: usize, op: &Op, log: &mut SpanLog) -> Option<u64> {
    let start = Instant::now();
    let bits = match op {
        Op::Estimate(q) => stack
            .tenant
            .estimate(q, None, Instant::now())
            .ok()
            .map(|e| e.selectivity.to_bits()),
        Op::Ingest(b) => stack
            .tenant
            .ingest(&ctx.inputs.plan.batches[*b], Instant::now())
            .ok()
            .map(|(report, outcome)| outcome_fingerprint(&report, &outcome)),
    };
    log.path(i, start, Instant::now());
    bits
}

/// The body of `Tenant::ingest` below its quota gate, with each step
/// timed as a sibling span when `log` is given.
fn ingest_direct(
    ctx: &Ctx,
    live: &mut LiveCatalog,
    service: &EstimationService,
    req: usize,
    batch: usize,
    log: Option<&mut SpanLog>,
) -> (IngestReport, PartialInstallOutcome) {
    let t0 = Instant::now();
    let report = live
        .ingest(&ctx.inputs.plan.batches[batch])
        .expect("stream batches apply in order");
    let t1 = Instant::now();
    let db = Arc::new(live.db().clone());
    let t2 = Instant::now();
    let outcome = service.partial_install(db, live.catalog().clone(), None, &report);
    let t3 = Instant::now();
    if let Some(log) = log {
        log.path(req, t0, t3);
        log.sibling(req, "delta.ingest", "tenant", t0, t1);
        log.sibling(req, "tenant.db_clone", "tenant", t1, t2);
        log.sibling(req, "service.partial_install", "tenant", t2, t3);
        let b0 = Instant::now();
        std::hint::black_box(BoundSketch::build(live.db()));
        log.sibling(req, "pessimistic.build", "service", b0, Instant::now());
    }
    (report, outcome)
}

/// Depth 4: `EstimationService::estimate_with_budget` under the tenant's
/// budget, with the bound sketch timed beside it; ingests run the body
/// of `Tenant::ingest`. Also returns whether the whole-query cache
/// answered.
fn service_step(
    ctx: &Ctx,
    stack: &Stack,
    live: &mut LiveCatalog,
    i: usize,
    op: &Op,
    log: &mut SpanLog,
    counts: &mut Counts,
) -> (Option<u64>, bool) {
    let service = stack.tenant.service();
    match op {
        Op::Estimate(q) => {
            let start = Instant::now();
            let e = service.estimate_with_budget(q, &ctx.budget);
            log.path(i, start, Instant::now());
            let snapshot = service.snapshot();
            let b0 = Instant::now();
            std::hint::black_box(snapshot.bound_sketch().upper_bound(q));
            log.sibling(i, "service.bound", "service", b0, Instant::now());
            let cached = e.as_ref().is_ok_and(|e| e.cached);
            (e.ok().map(|e| e.selectivity.to_bits()), cached)
        }
        Op::Ingest(b) => {
            let (report, outcome) = ingest_direct(ctx, live, service, i, *b, Some(log));
            counts.sits_refreshed += report.sits_refreshed.len() as u64;
            counts.sits_merged += report.sits_merged.len() as u64;
            counts.cache_carried += outcome.cache_carried;
            counts.cache_dropped += outcome.cache_dropped;
            (Some(outcome_fingerprint(&report, &outcome)), false)
        }
    }
}

/// Depth 5: `Ladder::estimate` over the current snapshot's shared cache,
/// for requests depth 4 answered uncached. Ingests run as at depth 4,
/// untimed, so the snapshots evolve exactly as there.
#[allow(clippy::too_many_arguments)]
fn ladder_step(
    ctx: &Ctx,
    stack: &Stack,
    live: &mut LiveCatalog,
    i: usize,
    op: &Op,
    cached: bool,
    log: &mut SpanLog,
    counts: &mut Counts,
) -> Option<u64> {
    let service = stack.tenant.service();
    let config = *service.config();
    match op {
        Op::Estimate(q) if !cached => {
            let snapshot = service.snapshot();
            let c0 = snapshot.cache().counters();
            let ladder = Ladder::new(snapshot.db(), snapshot.sits(), config.mode)
                .with_strategy(config.dp_strategy)
                .with_beam_config(config.beam)
                .with_dp_threads(config.dp_threads.resolve())
                .with_shared_cache(snapshot.cache());
            let start = Instant::now();
            let b = ladder.estimate(q, &ctx.budget);
            log.path(i, start, Instant::now());
            let c1 = snapshot.cache().counters();
            counts.ladder_calls += 1;
            counts.memo_entries += b.stats.memo_entries as u64;
            counts.peel_entries += b.stats.peel_entries as u64;
            counts.vm_calls += b.stats.vm_calls;
            counts.link_hits += c1.hits - c0.hits;
            counts.link_misses += c1.misses - c0.misses;
            counts.link_evictions += c1.evictions - c0.evictions;
            Some(b.selectivity.to_bits())
        }
        Op::Estimate(_) => None,
        Op::Ingest(b) => {
            ingest_direct(ctx, live, service, i, *b, None);
            None
        }
    }
}

/// Depth 6: the estimator the ladder's top rung builds, timed as build
/// and fill, for the same requests as depth 5.
#[allow(clippy::too_many_arguments)]
fn estimator_step(
    ctx: &Ctx,
    stack: &Stack,
    live: &mut LiveCatalog,
    i: usize,
    op: &Op,
    cached: bool,
    log: &mut SpanLog,
    counts: &mut Counts,
) -> Option<u64> {
    let service = stack.tenant.service();
    let config = *service.config();
    match op {
        Op::Estimate(q) if !cached => {
            let snapshot = service.snapshot();
            let routed = config.dp_strategy.use_beam(q.predicates.len());
            let start = Instant::now();
            let mut est = SelectivityEstimator::new(snapshot.db(), q, snapshot.sits(), config.mode)
                .with_strategy(config.dp_strategy)
                .with_beam_config(config.beam)
                .with_dp_threads(config.dp_threads.resolve());
            if !routed {
                // As the ladder's top rung: beam-routed widths run
                // cache-free.
                est = est.with_shared_cache(snapshot.cache());
            }
            let built = Instant::now();
            let all = est.context().all();
            let (selectivity, _) = est.get_selectivity(all);
            let end = Instant::now();
            log.path(i, start, end);
            log.sibling(i, "estimator.build", "estimator", start, built);
            let fill = if routed {
                "beam.fill"
            } else {
                "estimator.fill"
            };
            log.sibling(i, fill, "estimator", built, end);
            counts.histogram_ns += est.stats().histogram_time.as_nanos() as u64;
            if routed {
                counts.beam_expansions += est.beam_stats().expansions;
            }
            Some(selectivity.to_bits())
        }
        Op::Estimate(_) => None,
        Op::Ingest(b) => {
            ingest_direct(ctx, live, service, i, *b, None);
            None
        }
    }
}

/// Writes every span as one JSON line to `.bench_trace/`.
fn write_spans(args: &crate::Args, spans: &[Span]) {
    let dir = std::path::Path::new(".bench_trace");
    let path = dir.join(format!(
        "spans-{}-seed{}.jsonl",
        args.workload.name(),
        args.seed
    ));
    let mut out = String::with_capacity(spans.len() * 96);
    for s in spans {
        out.push_str(&format!(
            "{{\"req\":{},\"depth\":{},\"name\":\"{}\",\"parent\":{},\"start_ns\":{},\"end_ns\":{}}}\n",
            s.req,
            s.depth,
            s.name,
            s.parent.map_or("null".to_string(), |p| format!("\"{p}\"")),
            s.start.as_nanos(),
            s.end.as_nanos()
        ));
    }
    if let Err(e) = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, out)) {
        eprintln!("perfbench: could not write {}: {e}", path.display());
    }
}

/// p50 (or another percentile) of a sample list, 0 when empty.
fn pct(samples: Vec<f64>, p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let s = sorted(samples);
    if p == 50.0 {
        median(&s)
    } else {
        percentile(&s, p)
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Turns spans and counts into the named per-layer metrics.
fn derive(
    ctx: &Ctx,
    spans: &[Span],
    c: &Counts,
    split: &[SetupSplit],
    writer_late_ms: &[f64],
    overhead: f64,
) -> Vec<(String, (f64, &'static str))> {
    let n = ctx.ops.len();
    let path = path_micros(spans, n);
    let is_estimate: Vec<bool> = ctx
        .ops
        .iter()
        .map(|o| matches!(o, Op::Estimate(_)))
        .collect();
    // Self times of estimate requests, by depth.
    let mut selfs: [Vec<f64>; 6] = Default::default();
    let mut estimator_share = Vec::new();
    for p in path
        .iter()
        .zip(&is_estimate)
        .filter(|(_, e)| **e)
        .map(|(p, _)| p)
    {
        let s = self_micros(p);
        for d in 0..6 {
            if let Some(x) = s[d] {
                selfs[d].push(x);
            }
        }
        if let (Some(rt), Some(l)) = (p[0], p[4]) {
            estimator_share.push(l / rt);
        } else if p[0].is_some() {
            estimator_share.push(0.0);
        }
    }
    let sibling = |name: &str| -> Vec<f64> {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::micros)
            .collect()
    };
    // Share of each ingest's server time (`FrontDoor::handle`) spent in
    // `LiveCatalog::ingest`.
    let mut delta_share = Vec::new();
    for s in spans.iter().filter(|s| s.name == "delta.ingest") {
        if let Some(server) = path[s.req][1] {
            delta_share.push(s.micros() / server);
        }
    }
    let fill: Vec<f64> = sibling("estimator.fill");
    let fill_all_us: f64 = fill.iter().sum::<f64>() + sibling("beam.fill").iter().sum::<f64>();
    let setup_median = |f: fn(&SetupSplit) -> f64| pct(split.iter().map(f).collect(), 50.0);

    let mut m: Vec<(String, (f64, &'static str))> = Vec::new();
    let mut put = |name: &str, v: f64, unit: &'static str| m.push((name.to_string(), (v, unit)));
    // Request path.
    put("reactor.self_us.p50", pct(selfs[0].clone(), 50.0), "us");
    put("reactor.self_us.p99", pct(selfs[0].clone(), 99.0), "us");
    put("reactor.requests", c.reactor_requests as f64, "count");
    put(
        "reactor.parse_errors",
        c.reactor_parse_errors as f64,
        "count",
    );
    put("http.parse_us.p50", pct(sibling("http.parse"), 50.0), "us");
    put("http.write_us.p50", pct(sibling("http.write"), 50.0), "us");
    put("http.bytes_in", c.bytes_in as f64, "bytes");
    put("http.bytes_out", c.bytes_out as f64, "bytes");
    put("tenant.self_us.p50", pct(selfs[1].clone(), 50.0), "us");
    put("quota.self_us.p50", pct(selfs[2].clone(), 50.0), "us");
    put("quota.refused", c.quota_refused as f64, "count");
    put("service.self_us.p50", pct(selfs[3].clone(), 50.0), "us");
    put(
        "service.bound_us.p50",
        pct(sibling("service.bound"), 50.0),
        "us",
    );
    put(
        "cache.query_hit_ratio",
        ratio(c.query_hits, c.service_estimates),
        "ratio",
    );
    put("admission.sheds", c.admission_sheds as f64, "count");
    // Estimator path.
    put("ladder.self_us.p50", pct(selfs[4].clone(), 50.0), "us");
    put(
        "estimator.build_us.p50",
        pct(sibling("estimator.build"), 50.0),
        "us",
    );
    put("estimator.fill_us.p50", pct(fill.clone(), 50.0), "us");
    put("estimator.fill_us.p99", pct(fill, 99.0), "us");
    put("estimator.memo_entries", c.memo_entries as f64, "count");
    put("estimator.peel_entries", c.peel_entries as f64, "count");
    put("estimator.vm_calls", c.vm_calls as f64, "count");
    put(
        "estimator.hist_share",
        if fill_all_us > 0.0 {
            c.histogram_ns as f64 / 1e3 / fill_all_us
        } else {
            0.0
        },
        "ratio",
    );
    put(
        "cache.link_hit_ratio",
        ratio(c.link_hits, c.link_hits + c.link_misses),
        "ratio",
    );
    put(
        "cache.link_evictions_per_req",
        ratio(c.link_evictions, c.ladder_calls),
        "count",
    );
    put("beam.us.p50", pct(sibling("beam.fill"), 50.0), "us");
    put("beam.expansions", c.beam_expansions as f64, "count");
    put("path.estimator_share", pct(estimator_share, 50.0), "ratio");
    // Write path.
    put(
        "delta.ingest_us.p50",
        pct(sibling("delta.ingest"), 50.0),
        "us",
    );
    put("delta.sits_refreshed", c.sits_refreshed as f64, "count");
    put("delta.sits_merged", c.sits_merged as f64, "count");
    put("delta.server_share", pct(delta_share, 50.0), "ratio");
    put(
        "tenant.db_clone_us.p50",
        pct(sibling("tenant.db_clone"), 50.0),
        "us",
    );
    put(
        "service.partial_install_us.p50",
        pct(sibling("service.partial_install"), 50.0),
        "us",
    );
    put(
        "cache.carried_ratio",
        ratio(c.cache_carried, c.cache_carried + c.cache_dropped),
        "ratio",
    );
    put(
        "pessimistic.build_us.p50",
        pct(sibling("pessimistic.build"), 50.0),
        "us",
    );
    put(
        "driver.ingest_late_ms.max",
        writer_late_ms.iter().copied().fold(0.0, f64::max),
        "ms",
    );
    // Set-up.
    put("setup.datagen_s", setup_median(|s| s.datagen_s), "s");
    put("setup.pool_s", setup_median(|s| s.pool_s), "s");
    put("setup.mutations_s", setup_median(|s| s.mutations_s), "s");
    put("setup.warmup_s", setup_median(|s| s.warmup_s), "s");
    // The trace itself.
    put("trace.requests", n as f64, "count");
    put("trace.overhead_frac", overhead, "ratio");
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(req: usize, depth: usize, name: &'static str, start_us: u64, end_us: u64) -> Span {
        Span {
            req,
            depth,
            name,
            parent: (depth > 1).then(|| DEPTHS[depth - 2]),
            start: Duration::from_micros(start_us),
            end: Duration::from_micros(end_us),
        }
    }

    #[test]
    fn self_times_telescope_to_the_round_trip() {
        // Request 0 reaches the estimator; request 1 stops at the service
        // (a cache hit); siblings never enter the sum.
        let mut spans = vec![
            span(0, 1, "tcp", 0, 900),
            span(0, 2, "front_door", 10, 710),
            span(0, 3, "tenant", 5, 605),
            span(0, 4, "service", 0, 560),
            span(0, 5, "ladder", 0, 500),
            span(0, 6, "estimator", 0, 450),
            span(1, 1, "tcp", 0, 600),
            span(1, 2, "front_door", 0, 40),
            span(1, 3, "tenant", 0, 25),
            span(1, 4, "service", 0, 20),
        ];
        spans.push(Span {
            name: "http.parse",
            ..span(0, 2, "front_door", 0, 3)
        });
        spans.push(Span {
            name: "service.bound",
            ..span(1, 4, "service", 0, 2)
        });
        let path = path_micros(&spans, 2);
        for p in &path {
            let selfs = self_micros(p);
            let sum: f64 = selfs.iter().flatten().sum();
            assert!(
                (sum - p[0].unwrap()).abs() < 1e-9,
                "{selfs:?} does not sum to {p:?}"
            );
        }
        let s0 = self_micros(&path[0]);
        assert_eq!(s0[0], Some(200.0));
        assert_eq!(s0[5], Some(450.0));
        let s1 = self_micros(&path[1]);
        assert_eq!(s1[3], Some(20.0));
        assert_eq!(s1[4], None);
    }

    #[test]
    fn sibling_spans_are_not_path_spans() {
        let s = Span {
            name: "delta.ingest",
            ..span(3, 4, "service", 0, 10)
        };
        assert!(!s.is_path());
        assert!(span(3, 4, "service", 0, 10).is_path());
        let path = path_micros(&[s], 4);
        assert!(path[3].iter().all(Option::is_none));
    }
}
