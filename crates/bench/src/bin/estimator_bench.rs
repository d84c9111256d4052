//! Single-query `getSelectivity` latency by predicate count — the perf
//! trajectory of the estimator's hot path.
//!
//! For each `n` in `--ns` the bench generates a workload whose queries have
//! exactly `n` predicates (`min(n/2, 7)` joins, the rest filters, over the
//! standard snowflake schema), builds one `J_i` SIT pool, and then times
//! **cold single-query estimation** on the serial dense fill. Every sample
//! constructs a fresh [`SelectivityEstimator`] (no cross-query cache,
//! nothing memoized) and runs `selectivity()` to completion; every rep of a
//! query is asserted **bit-identical** to its first, with equal
//! memo/peel/view-matching counts. Each `n` becomes one output row: the
//! median, min and max over `queries × reps` samples, plus the final
//! sample's memo/peel entry counts and view-matching calls, which describe
//! the size of the subset-lattice walk.
//!
//! A second sweep covers the widths the exact engines cannot reach: for
//! each `n` in `--beam-ns` (default 20, 24, 28, 32 — past the dense
//! ceiling, where `Auto` routes to the beam) the bench times the
//! **beam-search approximate engine** cold and serial at every width in
//! `--beam-widths` (default 1, 2, 4, 8) under the default expansions cap.
//! Each `(n, width)` row records the median latency plus the final
//! sample's [`sqe_core::BeamStats`] — expansions, candidates generated /
//! scored / pruned, cap fallbacks, frontier peak, and the mean
//! admissible-bound tightness — so the committed file shows both how the
//! walk scales with `n` and what width actually buys. Every beam sample
//! is asserted deterministic (bit-identical across reps) and in `[0, 1]`.
//!
//! Results are printed as tables and written to **`BENCH_estimator.json`
//! at the repo root** (committed, so the perf trajectory across PRs is
//! diffable) as `{ "rows": [...], "beam": [...] }`; microsecond fields
//! are rounded to nanosecond precision.
//!
//! ```text
//! cargo run --release -p sqe-bench --bin estimator_bench \
//!     [-- --ns 4,8,12,16 --queries 3 --reps 3 --pool 2 \
//!         --beam-ns 20,24,28,32 --beam-widths 1,2,4,8]
//! ```

use std::time::Instant;

use serde::Serialize;
use sqe_bench::report::{render_table, round_us, write_json_root};
use sqe_bench::{Args, Setup, SetupConfig};
use sqe_core::{BeamConfig, BeamStats, DpStrategy, ErrorMode, SelectivityEstimator};
use sqe_datagen::{generate_workload, WorkloadConfig};

/// One `n` of the exact sweep: cold serial latency of the dense fill.
#[derive(Serialize)]
struct Row {
    n: usize,
    joins: usize,
    filters: usize,
    queries: usize,
    reps: usize,
    median_us: f64,
    min_us: f64,
    max_us: f64,
    memo_entries: usize,
    peel_entries: usize,
    vm_calls: u64,
}

/// One `(n, width)` cell of the beam sweep: cold serial latency of the
/// approximate engine past the exact ceiling, plus the beam's own
/// observability counters from the final sample.
#[derive(Serialize)]
struct BeamRow {
    n: usize,
    joins: usize,
    filters: usize,
    queries: usize,
    reps: usize,
    width: usize,
    expansions_cap: u64,
    median_us: f64,
    min_us: f64,
    max_us: f64,
    memo_entries: usize,
    /// [`BeamStats`] of the final sample.
    expansions: u64,
    generated: u64,
    scored: u64,
    beam_pruned: u64,
    cap_fallbacks: u64,
    frontier_peak: usize,
    /// Mean admissible-bound tightness (0 when the beam never expanded).
    bound_tightness: f64,
}

/// The committed `BENCH_estimator.json` document: exact-engine sweep plus
/// the wide-`n` beam sweep.
#[derive(Serialize)]
struct Report {
    rows: Vec<Row>,
    beam: Vec<BeamRow>,
}

fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

fn main() {
    let args = Args::parse();
    let setup = Setup::new(SetupConfig::from_args(&args));
    let pool_i: usize = args.get("pool", 2);
    let queries: usize = args.get("queries", 3);
    let reps: usize = args.get("reps", 3);
    let ns: Vec<usize> = args
        .get_str("ns", "4,8,12,16")
        .split(',')
        .filter_map(|s| s.trim().parse().ok())
        .collect();
    let beam_ns: Vec<usize> = args
        .get_str("beam-ns", "20,24,28,32")
        .split(',')
        .filter_map(|s| s.trim().parse().ok())
        .collect();
    let beam_widths: Vec<usize> = args
        .get_str("beam-widths", "1,2,4,8")
        .split(',')
        .filter_map(|s| s.trim().parse().ok())
        .filter(|&w| w >= 1)
        .collect();

    let mut rows: Vec<Row> = Vec::new();
    for &n in &ns {
        let joins = (n / 2).min(setup.snowflake.join_edges.len());
        let filters = n - joins;
        eprintln!("n={n}: generating {queries} queries ({joins} joins + {filters} filters) ...");
        let workload = generate_workload(
            &setup.snowflake.db,
            &setup.snowflake.join_edges,
            &setup.snowflake.filter_columns,
            WorkloadConfig {
                queries,
                joins,
                filters,
                target_selectivity: setup.config().target_selectivity,
                seed: setup.config().seed ^ (n as u64).wrapping_mul(0xA076_1D64_78BD_642F),
            },
        );
        eprintln!("n={n}: building J{pool_i} pool ...");
        let pool = setup.pool(&workload, pool_i);

        let mut samples: Vec<f64> = Vec::with_capacity(queries * reps);
        let mut memo_entries = 0;
        let mut peel_entries = 0;
        let mut vm_calls = 0;
        for query in &workload {
            let mut reference = None;
            for _ in 0..reps {
                let start = Instant::now();
                let mut est =
                    SelectivityEstimator::new(&setup.snowflake.db, query, &pool, ErrorMode::Diff);
                let sel = std::hint::black_box(est.selectivity());
                samples.push(start.elapsed().as_secs_f64() * 1e6);
                let st = est.stats();
                let got = (sel.to_bits(), st.memo_entries, st.peel_entries, st.vm_calls);
                // Every rep must reproduce the first bit for bit, with the
                // same lattice/link/view-matching footprint.
                assert_eq!(
                    *reference.get_or_insert(got),
                    got,
                    "n={n}: estimate or work counts not deterministic across reps"
                );
                memo_entries = st.memo_entries;
                peel_entries = st.peel_entries;
                vm_calls = st.vm_calls;
            }
        }
        let median_us = median(&mut samples);
        eprintln!(
            "n={n}: median {median_us:.1} µs over {} samples",
            samples.len()
        );
        rows.push(Row {
            n,
            joins,
            filters,
            queries,
            reps,
            median_us: round_us(median_us),
            min_us: round_us(samples[0]),
            max_us: round_us(samples[samples.len() - 1]),
            memo_entries,
            peel_entries,
            vm_calls,
        });
    }

    // Beam sweep: the widths where the exact engines are off the table.
    // Cold, serial, one row per (n, width) at the default expansions cap.
    let mut beam_rows: Vec<BeamRow> = Vec::new();
    for &n in &beam_ns {
        let joins = (n / 2).min(setup.snowflake.join_edges.len());
        let filters = n - joins;
        eprintln!(
            "beam n={n}: generating {queries} queries ({joins} joins + {filters} filters) ..."
        );
        let workload = generate_workload(
            &setup.snowflake.db,
            &setup.snowflake.join_edges,
            &setup.snowflake.filter_columns,
            WorkloadConfig {
                queries,
                joins,
                filters,
                target_selectivity: setup.config().target_selectivity,
                seed: setup.config().seed ^ (n as u64).wrapping_mul(0xA076_1D64_78BD_642F),
            },
        );
        eprintln!("beam n={n}: building J{pool_i} pool ...");
        let pool = setup.pool(&workload, pool_i);

        for &width in &beam_widths {
            let cfg = BeamConfig {
                width,
                ..BeamConfig::default()
            };
            let mut samples: Vec<f64> = Vec::with_capacity(queries * reps);
            let mut stats = BeamStats::default();
            let mut memo_entries = 0;
            for query in &workload {
                let mut reference: Option<u64> = None;
                for _ in 0..reps {
                    let start = Instant::now();
                    let mut est = SelectivityEstimator::new(
                        &setup.snowflake.db,
                        query,
                        &pool,
                        ErrorMode::Diff,
                    )
                    .with_strategy(DpStrategy::Beam)
                    .with_beam_config(cfg);
                    let sel = std::hint::black_box(est.selectivity());
                    samples.push(start.elapsed().as_secs_f64() * 1e6);

                    assert!(
                        (0.0..=1.0).contains(&sel),
                        "n={n} width={width}: beam selectivity {sel} out of range"
                    );
                    // The beam is approximate but deterministic: every rep
                    // of the same (query, width) must answer bit-identically.
                    match reference {
                        None => reference = Some(sel.to_bits()),
                        Some(bits) => assert_eq!(
                            bits,
                            sel.to_bits(),
                            "n={n} width={width}: beam answer not deterministic across reps"
                        ),
                    }
                    stats = est.beam_stats().clone();
                    memo_entries = est.stats().memo_entries;
                }
            }
            let median_us = median(&mut samples);
            eprintln!(
                "beam n={n} width={width}: median {median_us:.1} µs; last sample: \
                 {} expansions, {} scored, {} pruned, {} cap fallback(s), \
                 tightness {:.3}",
                stats.expansions,
                stats.scored,
                stats.pruned,
                stats.cap_fallbacks,
                stats.bound_tightness().unwrap_or(0.0),
            );
            beam_rows.push(BeamRow {
                n,
                joins,
                filters,
                queries,
                reps,
                width,
                expansions_cap: cfg.expansions_cap,
                median_us: round_us(median_us),
                min_us: round_us(samples[0]),
                max_us: round_us(samples[samples.len() - 1]),
                memo_entries,
                expansions: stats.expansions,
                generated: stats.generated,
                scored: stats.scored,
                beam_pruned: stats.pruned,
                cap_fallbacks: stats.cap_fallbacks,
                frontier_peak: stats.frontier_peak,
                bound_tightness: stats.bound_tightness().unwrap_or(0.0),
            });
        }
    }

    println!("estimator_bench — cold single-query getSelectivity latency\n");
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.n.to_string(),
                format!("{:.1}", r.median_us),
                format!("{:.1}", r.min_us),
                format!("{:.1}", r.max_us),
                r.memo_entries.to_string(),
                r.peel_entries.to_string(),
                r.vm_calls.to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &[
                "n",
                "median µs",
                "min µs",
                "max µs",
                "memo",
                "peel",
                "vm calls"
            ],
            &table
        )
    );
    if !beam_rows.is_empty() {
        println!("\nbeam engine — cold serial latency past the exact ceiling\n");
        let table: Vec<Vec<String>> = beam_rows
            .iter()
            .map(|r| {
                vec![
                    r.n.to_string(),
                    r.width.to_string(),
                    format!("{:.1}", r.median_us),
                    r.expansions.to_string(),
                    r.scored.to_string(),
                    r.beam_pruned.to_string(),
                    r.cap_fallbacks.to_string(),
                    r.frontier_peak.to_string(),
                    format!("{:.3}", r.bound_tightness),
                    r.memo_entries.to_string(),
                ]
            })
            .collect();
        println!(
            "{}",
            render_table(
                &[
                    "n",
                    "width",
                    "median µs",
                    "expand",
                    "scored",
                    "pruned",
                    "cap fb",
                    "peak",
                    "tight",
                    "memo"
                ],
                &table
            )
        );
    }
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("host parallelism: {cores} core(s) available to this process\n");

    let report = Report {
        rows,
        beam: beam_rows,
    };
    match write_json_root("BENCH_estimator", &report) {
        Ok(p) => println!("results written to {}", p.display()),
        Err(e) => eprintln!("could not write results: {e}"),
    }
}
