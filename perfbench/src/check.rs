//! Correctness checks: every answer's own invariants, plus bit-identity
//! of wire answers against an in-process service over an identically
//! built catalog.

use std::sync::Arc;

use sqe_core::{LiveCatalog, SitCatalog};
use sqe_engine::{Database, SpjQuery};
use sqe_service::{Estimate, EstimationService};

use crate::stack::tenant_config;
use crate::wire::{EstimateAnswer, Failure};

/// Request accounting shared by every load lane.
#[derive(Debug, Default)]
pub struct Tally {
    /// Requests attempted (estimates and ingests).
    pub attempted: u64,
    /// Non-200 replies.
    pub non_200: u64,
    /// Socket errors and unframeable or undecodable replies.
    pub transport: u64,
    /// Answers that failed a correctness check.
    pub misses: u64,
    /// Answers decoded.
    pub answered: u64,
    /// Answers at their best rung (`full`, or `beam` for beam-routed
    /// widths).
    pub undegraded: u64,
    /// The first few problems, for the log.
    pub notes: Vec<String>,
}

impl Tally {
    pub fn failed(&self) -> u64 {
        self.non_200 + self.transport + self.misses
    }

    pub fn record_failure(&mut self, f: Failure) {
        match &f {
            Failure::Status(_) => self.non_200 += 1,
            Failure::Transport(_) | Failure::Body(_) => self.transport += 1,
        }
        self.note(format!("{f:?}"));
    }

    pub fn record_miss(&mut self, why: String) {
        self.misses += 1;
        self.note(why);
    }

    pub fn record_answer(&mut self, query: &SpjQuery, a: &EstimateAnswer, ok: Result<(), String>) {
        self.answered += 1;
        if a.degraded.is_none() && a.quality == best_rung(query) {
            self.undegraded += 1;
        }
        if let Err(why) = ok {
            self.record_miss(why);
        }
    }

    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.non_200 += other.non_200;
        self.transport += other.transport;
        self.misses += other.misses;
        self.answered += other.answered;
        self.undegraded += other.undegraded;
        for n in other.notes {
            self.note(n);
        }
    }

    fn note(&mut self, n: String) {
        if self.notes.len() < 8 {
            self.notes.push(n);
        }
    }
}

/// The rung an undegraded answer to `query` carries.
pub fn best_rung(query: &SpjQuery) -> &'static str {
    let strategy = tenant_config().service.dp_strategy;
    if strategy.use_beam(query.predicates.len()) {
        "beam"
    } else {
        "full"
    }
}

/// Invariants every answer must hold on its own.
pub fn check_answer(query: &SpjQuery, a: &EstimateAnswer) -> Result<(), String> {
    if !(0.0..=1.0).contains(&a.selectivity) {
        return Err(format!("selectivity {} outside [0, 1]", a.selectivity));
    }
    match a.upper_bound {
        Some(b) if b >= a.cardinality => Ok(()),
        Some(b) => Err(format!(
            "upper bound {b} below cardinality {} for {} predicates",
            a.cardinality,
            query.predicates.len()
        )),
        None => Err("answer carries no upper bound".to_string()),
    }
}

/// The wire's encoding of a non-finite float (see the server's `finite`).
fn wire_float(x: f64) -> f64 {
    if x.is_finite() {
        x
    } else {
        f64::MAX
    }
}

/// Whether a wire answer carries exactly the bits of an in-process one.
pub fn same_bits(wire: &EstimateAnswer, local: &Estimate) -> bool {
    wire.selectivity.to_bits() == wire_float(local.selectivity).to_bits()
        && wire.cardinality.to_bits() == wire_float(local.cardinality).to_bits()
        && wire.upper_bound.map(f64::to_bits)
            == local
                .upper_bound
                .filter(|b| b.is_finite())
                .map(f64::to_bits)
}

/// An in-process service over its own copy of `db` and `pool`, built
/// exactly as the tenant's service is.
pub fn reference_service(db: Database, pool: SitCatalog) -> EstimationService {
    EstimationService::new(Arc::new(db), pool, tenant_config().service)
}

/// Compares sampled wire answers with the reference service, recording
/// each mismatch as a miss.
pub fn compare_samples(
    reference: &EstimationService,
    samples: &[(SpjQuery, EstimateAnswer)],
    tally: &mut Tally,
) {
    for (query, wire) in samples {
        let local = reference.estimate(query);
        if !same_bits(wire, &local) {
            tally.record_miss(format!(
                "wire {:?} != in-process {:?} on {} predicates",
                (wire.selectivity, wire.cardinality, wire.upper_bound),
                (local.selectivity, local.cardinality, local.upper_bound),
                query.predicates.len()
            ));
        }
    }
}

/// A service over a `LiveCatalog` that replayed `batches` from the
/// same starting point: what the tenant must agree with after ingest.
pub fn replayed_service(
    db: Database,
    pool: SitCatalog,
    batches: &[sqe_engine::delta::DeltaBatch],
) -> EstimationService {
    let mut live = LiveCatalog::new(db, pool, tenant_config().delta);
    for batch in batches {
        live.ingest(batch).expect("replayed batch applies");
    }
    EstimationService::new(
        Arc::new(live.db().clone()),
        live.catalog().clone(),
        tenant_config().service,
    )
}
