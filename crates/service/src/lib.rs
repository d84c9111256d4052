//! # sqe-service — a concurrent selectivity-estimation service
//!
//! The library crates (`sqe-core`, `sqe-engine`, `sqe-histogram`) answer
//! one query at a time in one thread. This crate turns them into a
//! long-lived *service* the way a database server would host them:
//!
//! * [`CatalogSnapshot`] — an immutable, atomically swappable view of
//!   `(database, SIT catalogs, cross-query cache)`. Readers pin a snapshot
//!   with an `Arc` and are never blocked or invalidated by a concurrent
//!   pool rebuild;
//! * [`EstimationService`] — every endpoint runs the degradation
//!   [`sqe_core::Ladder`] against the current snapshot under panic
//!   isolation (the unbudgeted [`EstimationService::estimate`] /
//!   [`EstimationService::estimate_batch`] at an unlimited budget),
//!   backed by a [`ShardedCache`] that reuses per-link conditional factors
//!   and SIT join products across queries and threads;
//! * [`ShardedCache`] — N shards of `parking_lot::Mutex` around bounded
//!   [`lru::LruMap`]s, keyed by canonicalized
//!   `(predicate-set, conditioning-set, error-mode)` fingerprints
//!   ([`sqe_core::CacheKey`]);
//! * [`sqe_core::Metrics`] — each service's relaxed-atomic request
//!   counters and log-linear latency histogram, read through
//!   [`EstimationService::stats`].
//!
//! Correctness bar: concurrent estimates are **bit-identical** to a fresh
//! single-threaded estimator over the same catalog — the cache only stores
//! values that are pure functions of their canonical keys (see
//! `sqe_core::cache` for the contract, and `tests/service.rs` at the
//! workspace root for the 8-thread equivalence test).

pub mod admission;
pub mod cache;
pub mod lru;
pub mod service;

pub use admission::{AdmissionControl, Permit};
pub use cache::{CarryStats, ShardedCache};
pub use lru::LruMap;
pub use service::{
    CatalogSnapshot, DpThreadsMode, Estimate, EstimationService, PartialInstallOutcome,
    ServiceConfig, ServiceError,
};
pub use sqe_core::{
    BackendKind, BoundSketch, Budget, CacheCounters, CancelToken, DegradeReason, DpStrategy,
    IngestCounters, Metrics, MetricsSnapshot, Quality, SelectivityBackend,
};

/// The whole point of the crate: everything shared is thread-safe.
#[allow(dead_code)]
fn static_assertions() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<EstimationService>();
    assert_send_sync::<CatalogSnapshot>();
    assert_send_sync::<ShardedCache>();
    assert_send_sync::<Metrics>();
}
