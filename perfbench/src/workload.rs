//! Workload definitions: everything the load generator sends is derived
//! from `--seed` here, and the server only ever sees the wire bytes.
//!
//! The database itself is the repository's default snowflake `Setup`
//! (fixed across seeds); the seed picks the query templates, the range
//! jitter of never-seen queries, and the mutation stream.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sqe_datagen::{generate_mutations, generate_workload, MutationConfig, WorkloadConfig};
use sqe_engine::{Database, DeltaBatch, Predicate, SpjQuery};

use sqe_bench::Setup;

/// The three traffic mixes (see `README.md` for why each exists).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Recurring shapes, all answered from the whole-query cache.
    Warm,
    /// Never-seen queries over recurring templates: every request runs
    /// the estimator.
    Cold,
    /// One closed-loop reader of recurring shapes plus an open-loop
    /// writer of mutation batches.
    Ingest,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "warm" => Some(Workload::Warm),
            "cold" => Some(Workload::Cold),
            "ingest" => Some(Workload::Ingest),
            _ => None,
        }
    }

    /// The percentile `estimate_tail_ms` reports: one inside a
    /// distribution the program sets, with enough samples beyond it to
    /// repeat. On `cold` that is p95, inside the n = 12 class (8% of
    /// requests); p99 there rests on the slowest ~20 requests of a run,
    /// drawn from a few of the 32 templates, and its five-seed spread
    /// (quartile distance over median) was 0.29–0.30 in three sets against
    /// 0.09–0.17 for p95. On `ingest` about one read in a hundred waits
    /// behind an ingest on the reactor thread (7 ingests a second against
    /// 700–900 reads), and that share moves with the read rate: p99 sits
    /// on the edge of the wait (five-seed spread 0.35) and p99.5 near its
    /// lower end (ten-seed spread 0.15 once the host ran faster), while
    /// p99.9, the highest percentile with at least ten samples beyond it,
    /// stays in the upper part of the wait at any of those rates. On `warm`
    /// nearly every reply takes under 0.7 ms, and the 1–3% beyond are
    /// replies that waited out a preemption of the host's virtual CPUs, so
    /// p99 there measures the host (ten-seed spread 0.47 on a 2-vCPU VM,
    /// against 0.02 for the median); p90 does not.
    pub fn tail_pct(self) -> f64 {
        match self {
            Workload::Warm => 90.0,
            Workload::Cold => 95.0,
            Workload::Ingest => 99.9,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Warm => "warm",
            Workload::Cold => "cold",
            Workload::Ingest => "ingest",
        }
    }
}

/// Upper end, µs, of every closed-loop lane's think time between a reply
/// and its next request, drawn uniformly from `[0, THINK_MAX_US)`.
///
/// The pause is a measurement stabiliser, not a model of the optimizer's
/// own work between two selectivity calls (nothing here measures that
/// gap). A client that sent its next request the moment a reply landed
/// would race the reactor's 500 µs idle poll, and which side wins that
/// race flips from run to run, moving the median latency by an order of
/// magnitude; a random pause makes each arrival's phase against the poll
/// random instead. The pause is not the program's time: `estimate_per_s`
/// divides by each lane's busy time, which excludes it.
pub const THINK_MAX_US: u64 = 1_000;

/// Row ops per mutation batch.
pub const BATCH_OPS: usize = 20;
/// The ingest workload's open-loop writer rate, batches per second: with
/// a batch costing ~45 ms on a 2-core host, about a third of the
/// reactor's time. At 10 per second (~45%) queueing behind earlier
/// batches amplified every slow phase of the host, and the workload's
/// ten-seed spreads reached 0.26–0.30.
pub const INGEST_RATE: f64 = 7.0;
/// Mutation batches the warm and cold workloads send, closed loop on one
/// connection to the probe tenant while no reads run, to time isolated
/// ingests.
pub const PROBE_BATCHES: usize = 200;
/// The warm and cold read phases are split into this many equal
/// segments, each followed by `PROBE_BATCHES / PROBE_SEGMENTS` probe
/// ingests. Spread over the whole run, the probe's median does not ride
/// on a single few-second phase of the host's speed.
pub const PROBE_SEGMENTS: usize = 10;
/// Filter predicates per recurring shape.
const SHAPE_FILTERS: usize = 3;
/// Recurring shapes per join count (1, 2 and 3 joins: 2- to 4-way).
const SHAPES_PER_JOIN: usize = 10;

/// One class of cold templates: predicate width and its share of traffic.
struct ColdClass {
    joins: usize,
    filters: usize,
    templates: usize,
    /// Request-mix weight of each template of the class.
    weight: u32,
}

/// Cold widths: n = 4, 8 and 12 exact, plus a small beam-routed share at
/// n = 32. Shares of requests: 39%, 47%, 8% and 6%. The n = 12 class
/// costs tens of milliseconds per request, so its share is what keeps a
/// run above a thousand requests. It has the most templates, because its
/// cost varies most from template to template and `cold`'s p99 lies
/// inside it: with 32 templates the slowest 12% of its requests span
/// several templates rather than the one slowest.
const COLD_CLASSES: [ColdClass; 4] = [
    ColdClass {
        joins: 2,
        filters: 2,
        templates: 8,
        weight: 20,
    },
    ColdClass {
        joins: 4,
        filters: 4,
        templates: 12,
        weight: 16,
    },
    ColdClass {
        joins: 6,
        filters: 6,
        templates: 32,
        weight: 1,
    },
    ColdClass {
        joins: 7,
        filters: 25,
        templates: 4,
        weight: 6,
    },
];

/// The generated inputs of one run.
pub struct Plan {
    pub workload: Workload,
    pub seed: u64,
    /// Query templates; for warm and ingest these are sent verbatim.
    pub templates: Vec<SpjQuery>,
    /// Cumulative request-mix weights, one per template.
    cumulative: Vec<u32>,
    /// Mutation batches, applied in order and never replayed.
    pub batches: Vec<DeltaBatch>,
}

impl Plan {
    /// Derives templates from `seed` over the setup's database.
    pub fn templates(workload: Workload, seed: u64, setup: &Setup) -> (Vec<SpjQuery>, Vec<u32>) {
        let sf = &setup.snowflake;
        let gen = |joins: usize, filters: usize, queries: usize, salt: u64| {
            generate_workload(
                &sf.db,
                &sf.join_edges,
                &sf.filter_columns,
                WorkloadConfig {
                    queries,
                    joins,
                    filters,
                    target_selectivity: setup.config().target_selectivity,
                    seed: mix(seed, salt),
                },
            )
        };
        let mut templates = Vec::new();
        let mut cumulative = Vec::new();
        let mut total = 0u32;
        match workload {
            Workload::Warm | Workload::Ingest => {
                for joins in 1..=3 {
                    for q in gen(joins, SHAPE_FILTERS, SHAPES_PER_JOIN, joins as u64) {
                        templates.push(q);
                        total += 1;
                        cumulative.push(total);
                    }
                }
            }
            Workload::Cold => {
                for (k, class) in COLD_CLASSES.iter().enumerate() {
                    for q in gen(class.joins, class.filters, class.templates, 100 + k as u64) {
                        templates.push(q);
                        total += class.weight;
                        cumulative.push(total);
                    }
                }
            }
        }
        (templates, cumulative)
    }

    /// The mutation batches for a run of `seconds`: enough for the writer
    /// (or the isolated probe) and the traced replay, never reused. Only
    /// the batches are kept; the stream's final database is dropped here.
    pub fn mutations(
        workload: Workload,
        seed: u64,
        seconds: f64,
        db: &Database,
    ) -> Vec<DeltaBatch> {
        let batches = match workload {
            Workload::Ingest => (INGEST_RATE * seconds * 1.5).ceil() as usize + 20,
            Workload::Warm | Workload::Cold => PROBE_BATCHES,
        }
        .max(crate::trace::TRACE_INGESTS);
        generate_mutations(
            db,
            MutationConfig {
                ops: batches * BATCH_OPS,
                batch_size: BATCH_OPS,
                seed: mix(seed, 0xD17A),
                drift: 0.5,
            },
        )
        .batches
    }

    pub fn new(
        workload: Workload,
        seed: u64,
        templates: (Vec<SpjQuery>, Vec<u32>),
        batches: Vec<DeltaBatch>,
    ) -> Plan {
        Plan {
            workload,
            seed,
            templates: templates.0,
            cumulative: templates.1,
            batches,
        }
    }

    /// A request generator for load lane `lane` of `lanes`. Lanes draw
    /// from disjoint jitter spaces, so no two requests of a run repeat.
    pub fn requests(&self, lane: u64, lanes: u64) -> Requests<'_> {
        Requests {
            plan: self,
            rng: StdRng::seed_from_u64(mix(self.seed, 0x1A4E_0000 + lane)),
            lane,
            lanes,
            issued: vec![0; self.templates.len()],
        }
    }
}

/// A seeded stream of estimate queries for one load lane.
pub struct Requests<'a> {
    plan: &'a Plan,
    rng: StdRng,
    lane: u64,
    lanes: u64,
    /// Requests issued per template by this lane.
    issued: Vec<u64>,
}

impl Requests<'_> {
    /// The next query: a recurring template for warm and ingest, a
    /// never-seen jitter of one for cold.
    pub fn next_query(&mut self) -> SpjQuery {
        let total = *self.plan.cumulative.last().expect("templates exist");
        let pick = self.rng.gen_range(0..total);
        let t = self.plan.cumulative.partition_point(|&c| c <= pick);
        let template = &self.plan.templates[t];
        if self.plan.workload != Workload::Cold {
            return template.clone();
        }
        let k = self.issued[t];
        self.issued[t] += 1;
        let predicates = jitter(&template.predicates, k * self.lanes + self.lane);
        SpjQuery::new(template.tables.clone(), predicates).expect("jitter keeps the query valid")
    }
}

/// Moves exactly one range bound of `predicates`, determined by `c`, so
/// distinct `c` give distinct queries while every other predicate keeps
/// its template value (their link factors recur in the shared cache).
pub fn jitter(predicates: &[Predicate], c: u64) -> Vec<Predicate> {
    let ranges: Vec<usize> = predicates
        .iter()
        .enumerate()
        .filter(|(_, p)| matches!(p, Predicate::Range { .. }))
        .map(|(i, _)| i)
        .collect();
    assert!(!ranges.is_empty(), "templates carry range filters");
    let r = ranges.len() as u64;
    let which = ranges[(c % r) as usize];
    let widen_hi = (c / r) % 2 == 1;
    let shift = 1 + (c / (2 * r)) as i64;
    let mut out = predicates.to_vec();
    if let Predicate::Range { lo, hi, .. } = &mut out[which] {
        if widen_hi {
            *hi += shift;
        } else {
            *lo -= shift;
        }
    }
    out
}

/// SplitMix64-style seed mixing.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqe_engine::{ColRef, TableId};

    #[test]
    fn jitter_is_injective_and_moves_one_bound() {
        let col = |c| ColRef::new(TableId(0), c);
        let preds = vec![
            Predicate::range(col(0), 10, 20),
            Predicate::range(col(1), 5, 9),
        ];
        let mut seen = std::collections::HashSet::new();
        for c in 0..400 {
            let j = jitter(&preds, c);
            let moved = j.iter().zip(&preds).filter(|(a, b)| a != b).count();
            assert_eq!(moved, 1, "c={c}");
            assert!(
                seen.insert(format!("{j:?}")),
                "c={c} repeats an earlier query"
            );
        }
    }
}
