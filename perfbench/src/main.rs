//! Wire-level benchmark of the sqe front door.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload warm|cold|ingest --seed N --seconds S --trace 0|1
//! ```
//!
//! Drives a live `sqe_server` reactor over loopback from this process and
//! prints, as the last line of standard output, one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics of the traced replay with
//! `--trace 1`. The line before it is a detail record (seed, core count,
//! repeat counts, min / quartiles / median of each timing). Exits non-zero
//! on any failed request or correctness miss. See `README.md`.

mod check;
mod load;
mod stack;
mod stats;
mod trace;
mod wire;
mod workload;

use std::collections::BTreeMap;
use std::sync::Barrier;
use std::time::Instant;

use serde::Serialize;

use check::Tally;
use stack::{peak_rss_mb, Inputs, SetupSplit, Stack};
use stats::{percentile, sorted, Summary};
use workload::{Workload, INGEST_RATE, PROBE_BATCHES, PROBE_SEGMENTS};

/// Full set-ups per run; `setup_s` and the `setup.*` split report their
/// medians.
const SETUP_REPEATS: usize = 5;
/// Percentiles the detail record checks for tail support.
const TAIL_LADDER: [f64; 4] = [50.0, 90.0, 99.0, 99.9];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} outside (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// One metric of the result line.
struct Metric {
    value: f64,
    unit: &'static str,
}

/// The result line: `correct`, `attempted`, `failed`, and every metric
/// as `{"value": ..., "unit": ...}`. A non-finite value is encoded as
/// `null` (and makes the run incorrect).
fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &BTreeMap<String, Metric>,
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, m)| {
            let value = serde_json::to_string(&m.value).unwrap_or_else(|_| "null".to_string());
            format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Everything a run records beyond the result line.
#[derive(Serialize)]
struct Detail {
    workload: &'static str,
    seed: u64,
    nproc: usize,
    seconds: f64,
    setup_repeats: usize,
    setup_s: Summary,
    setup_datagen_s: Summary,
    setup_pool_s: Summary,
    setup_mutations_s: Summary,
    setup_warmup_s: Summary,
    estimate_ms: Option<Summary>,
    /// p90, p95, p99 and p99.9 of estimate latency.
    estimate_tail_ladder_ms: Vec<f64>,
    /// The percentile `estimate_tail_ms` reports on this workload.
    estimate_tail_metric_pct: f64,
    /// Highest of p50/p90/p99/p99.9 with at least ten samples beyond it.
    estimate_tail_pct: Option<f64>,
    ingest_ms: Option<Summary>,
    ingest_p90_ms: Option<f64>,
    ingest_tail_pct: Option<f64>,
    ingest_late_ms_max: f64,
    estimates: u64,
    ingests: usize,
    attempted: u64,
    failed: u64,
    /// `failed` split: non-200 replies, transport errors, check misses.
    failed_non_200: u64,
    failed_transport: u64,
    failed_checks: u64,
    error_rate: f64,
    /// Answered estimates per second of wall time, think time included
    /// (`estimate_per_s` divides by busy time instead).
    estimate_per_s_wall: f64,
    /// Whether `peak_rss_mb` covers the serving stack only (`VmHWM` reset
    /// after data generation) or the whole process.
    peak_rss_reset: bool,
    bit_identity_samples: usize,
    notes: Vec<String>,
}

/// The measured (untraced) run.
struct Measured {
    split: Vec<SetupSplit>,
    estimate_ms: Vec<f64>,
    /// Sum over lanes of answered requests per second of busy time.
    estimate_per_s: f64,
    /// Answered requests per second of wall time, think time included.
    estimate_per_s_wall: f64,
    ingest: load::IngestResult,
    tally: Tally,
    bit_samples: usize,
    rss_mb: f64,
    /// Whether the peak resident set was reset before the serving stack.
    rss_reset: bool,
    /// Inputs built from the seed after the measurement (the reference
    /// catalog of the checks), for the traced replay.
    inputs: Inputs,
}

/// Pins glibc malloc to a single arena. With one arena per thread, the
/// reactor and load threads of successive set-ups reuse freed arenas in
/// an order that depends on timing, and `VmHWM` then varies by tens of
/// MiB from run to run of the same seed; with one arena it repeats.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn single_malloc_arena() {
    const M_ARENA_MAX: i32 = -8;
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    // SAFETY: `mallopt` is glibc's documented tuning call; it is made
    // before this process starts any thread, with a valid parameter.
    unsafe {
        mallopt(M_ARENA_MAX, 1);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn single_malloc_arena() {}

fn main() {
    single_malloc_arena();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload warm|cold|ingest --seed N --seconds S --trace 0|1"
            );
            std::process::exit(2);
        }
    };
    let measured = measure(&args);
    let mut tally = Tally::default();
    tally.absorb(measured.tally);

    let mut metrics = BTreeMap::new();
    let mut put = |name: &str, value: f64, unit: &'static str| {
        metrics.insert(name.to_string(), Metric { value, unit });
    };
    let est = sorted(measured.estimate_ms.clone());
    let tail_pct = args.workload.tail_pct();
    let ing = sorted(measured.ingest.latency_ms.clone());
    let setup_total: Vec<f64> = measured.split.iter().map(SetupSplit::total).collect();
    let split_of = |f: fn(&SetupSplit) -> f64| -> Summary {
        Summary::of(&measured.split.iter().map(f).collect::<Vec<_>>()).expect("set-ups ran")
    };
    let pct = |s: &[f64], p: f64| {
        if s.is_empty() {
            f64::NAN
        } else {
            percentile(s, p)
        }
    };
    let mid = |s: &[f64]| {
        if s.is_empty() {
            f64::NAN
        } else {
            stats::median(s)
        }
    };
    // Ingest cost is bimodal batch by batch (see README), so its median
    // falls in the gap between the modes; the mean does not.
    let mean = |s: &[f64]| s.iter().sum::<f64>() / s.len() as f64;

    if args.trace {
        let traced = trace::run(
            &args,
            &measured.inputs,
            &measured.split,
            &measured.ingest.late_ms,
        );
        tally.absorb(traced.tally);
        for (name, (value, unit)) in traced.metrics {
            put(&name, value, unit);
        }
    } else {
        let error_rate = tally.failed() as f64 / tally.attempted.max(1) as f64;
        put(
            "setup_s",
            Summary::of(&setup_total).expect("set-ups ran").median,
            "s",
        );
        put("estimate_per_s", measured.estimate_per_s, "1/s");
        put("estimate_p50_ms", mid(&est), "ms");
        put("estimate_tail_ms", pct(&est, tail_pct), "ms");
        put("ingest_mean_ms", mean(&ing), "ms");
        put("ingest_p90_ms", pct(&ing, 90.0), "ms");
        put("ok_frac", 1.0 - error_rate, "ratio");
        put(
            "undegraded_frac",
            tally.undegraded as f64 / tally.answered.max(1) as f64,
            "ratio",
        );
        put("peak_rss_mb", measured.rss_mb, "MiB");
    }

    let failed = tally.failed();
    let detail = Detail {
        workload: args.workload.name(),
        seed: args.seed,
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        seconds: args.seconds,
        setup_repeats: SETUP_REPEATS,
        setup_s: Summary::of(&setup_total).expect("set-ups ran"),
        setup_datagen_s: split_of(|s| s.datagen_s),
        setup_pool_s: split_of(|s| s.pool_s),
        setup_mutations_s: split_of(|s| s.mutations_s),
        setup_warmup_s: split_of(|s| s.warmup_s),
        estimate_ms: Summary::of(&est),
        estimate_tail_ladder_ms: [90.0, 95.0, 99.0, 99.9]
            .iter()
            .filter(|_| !est.is_empty())
            .map(|&p| percentile(&est, p))
            .collect(),
        estimate_tail_metric_pct: tail_pct,
        estimate_tail_pct: stats::highest_supported(est.len(), &TAIL_LADDER),
        ingest_ms: Summary::of(&ing),
        ingest_p90_ms: (!ing.is_empty()).then(|| percentile(&ing, 90.0)),
        ingest_tail_pct: stats::highest_supported(ing.len(), &TAIL_LADDER),
        ingest_late_ms_max: measured.ingest.late_ms.iter().copied().fold(0.0, f64::max),
        estimates: est.len() as u64,
        ingests: measured.ingest.applied,
        attempted: tally.attempted,
        failed,
        failed_non_200: tally.non_200,
        failed_transport: tally.transport,
        failed_checks: tally.misses,
        error_rate: failed as f64 / tally.attempted.max(1) as f64,
        estimate_per_s_wall: measured.estimate_per_s_wall,
        peak_rss_reset: measured.rss_reset,
        bit_identity_samples: measured.bit_samples,
        notes: tally.notes.clone(),
    };
    println!(
        "{}",
        serde_json::to_string(&detail).expect("detail serializes")
    );
    for note in &tally.notes {
        eprintln!("perfbench: {note}");
    }
    let finite = metrics.values().all(|m| m.value.is_finite());
    if !finite {
        eprintln!("perfbench: a metric is not finite");
    }
    let correct = failed == 0 && tally.attempted > 0 && finite;
    println!(
        "{}",
        result_line(correct, tally.attempted.max(1), failed, &metrics)
    );
    if !correct {
        std::process::exit(1);
    }
}

/// Set-up (repeated), timed load, and the correctness checks.
fn measure(args: &Args) -> Measured {
    let mut tally = Tally::default();
    let mut split = Vec::with_capacity(SETUP_REPEATS);
    let mut live = None;
    let mut rss_reset = false;
    for k in 0..SETUP_REPEATS {
        let (inputs, mut s) = stack::generate(args.workload, args.seed, args.seconds);
        let Inputs { db, pool, plan } = inputs;
        let last = k + 1 == SETUP_REPEATS;
        let mut probe_catalog = None;
        if last {
            // From here on the peak resident set is the serving stack's,
            // not the earlier set-ups' or this one's data generation.
            rss_reset = stack::reset_peak_rss();
            if args.workload != Workload::Ingest {
                probe_catalog = Some((db.clone(), pool.clone()));
            }
        }
        let t = Instant::now();
        let stack = Stack::new(db, pool, true);
        load::warm_up(stack.addr(), &plan, &mut tally);
        s.warmup_s = t.elapsed().as_secs_f64();
        split.push(s);
        if last {
            live = Some((plan, stack, probe_catalog));
        } else {
            stack.shutdown();
        }
    }
    let (plan, stack, probe_catalog) = live.expect("last set-up kept");
    let plan = &plan;
    let addr = stack.addr();

    let (lanes, mut ingest) = match args.workload {
        Workload::Warm | Workload::Cold => {
            let (db, pool) = probe_catalog.expect("warm and cold keep a probe catalog");
            stack.add_probe_tenant(db, pool);
            let mut probe = load::IngestProbe::new(addr);
            let mut lanes = [
                load::Lane::new(addr, plan, 0),
                load::Lane::new(addr, plan, 1),
            ];
            let start = Barrier::new(2);
            let segment_s = args.seconds / PROBE_SEGMENTS as f64;
            for _ in 0..PROBE_SEGMENTS {
                std::thread::scope(|s| {
                    for lane in &mut lanes {
                        s.spawn(|| lane.run(&start, segment_s));
                    }
                });
                probe.run(plan, PROBE_BATCHES / PROBE_SEGMENTS);
            }
            (lanes.map(|l| l.out).into(), probe.out)
        }
        Workload::Ingest => {
            let mut reader = load::Lane::new(addr, plan, 0);
            let start = Barrier::new(2);
            let writer = std::thread::scope(|s| {
                s.spawn(|| reader.run(&start, args.seconds));
                let w =
                    s.spawn(|| load::open_writer(addr, plan, INGEST_RATE, &start, args.seconds));
                w.join().expect("writer")
            });
            (vec![reader.out], writer)
        }
    };

    let mut estimate_ms = Vec::new();
    let mut samples = Vec::new();
    let mut completed = 0usize;
    let mut elapsed = 0.0f64;
    let mut estimate_per_s = 0.0;
    for lane in lanes {
        estimate_per_s += lane.busy_rate();
        completed += lane.latency_ms.len();
        elapsed = elapsed.max(lane.elapsed_s);
        estimate_ms.extend(lane.latency_ms);
        samples.extend(lane.samples);
        tally.absorb(lane.tally);
    }
    let ingest_tally = std::mem::take(&mut ingest.tally);
    tally.absorb(ingest_tally);

    if args.workload == Workload::Ingest {
        // Post-run probe: every template once, checked below against a
        // LiveCatalog that replayed the same batches. The reader's own
        // samples were answered at earlier epochs and are not compared.
        samples.clear();
        let mut client = wire::Client::connect(addr).expect("probe connects");
        for q in &plan.templates {
            if let Some(a) = load::estimate_once(&mut client, q, &mut tally) {
                if a.epoch != ingest.applied as u64 {
                    tally.record_miss(format!(
                        "probe answered at epoch {} after {} ingests",
                        a.epoch, ingest.applied
                    ));
                }
                samples.push((q.clone(), a));
            }
        }
    }
    stack.shutdown();
    let rss_mb = peak_rss_mb();

    // The reference catalog is built from the seed again, after the peak
    // resident set is read, so the check's copy is not counted.
    let (reference, _) = stack::generate(args.workload, args.seed, args.seconds);
    let service = match args.workload {
        // Sampled wire answers against an in-process service (warm and
        // cold never ingest before their probe).
        Workload::Warm | Workload::Cold => {
            check::reference_service(reference.db.clone(), reference.pool.clone())
        }
        Workload::Ingest => check::replayed_service(
            reference.db.clone(),
            reference.pool.clone(),
            &plan.batches[..ingest.applied],
        ),
    };
    check::compare_samples(&service, &samples, &mut tally);
    drop(service);
    Measured {
        split,
        estimate_per_s,
        estimate_per_s_wall: completed as f64 / elapsed.max(f64::MIN_POSITIVE),
        estimate_ms,
        ingest,
        tally,
        bit_samples: samples.len(),
        rss_mb,
        rss_reset,
        inputs: reference,
    }
}
