//! `sqe-server` — a multi-tenant HTTP/JSON front door over
//! [`sqe_service::EstimationService`].
//!
//! The crate is four small layers:
//!
//! - [`http`] — a deliberately minimal HTTP/1.1 subset (incremental
//!   parser, keep-alive, hard head/body limits), no external deps;
//! - [`quota`] — per-tenant token buckets (rate, burst, max-in-flight,
//!   deadline ceiling), with *honest* retry hints derived from the
//!   refill math and pressure-compressed deadlines that turn a tenant's
//!   overload into *its own* quality degradation;
//! - [`tenant`] — the [`FrontDoor`]: a registry of tenants, each with an
//!   independent epoch-tagged catalog ([`sqe_core::LiveCatalog`] +
//!   partial installs) and a [`crate::metrics::TenantMetrics`] sink, all
//!   sharing one process-wide [`sqe_service::AdmissionControl`];
//! - [`server`] — an acceptor thread plus one blocking thread per
//!   connection, so the server wakes when bytes arrive; requests are
//!   still dispatched one at a time under a shared dispatch turn
//!   (concurrent dispatch cost the cold tail more than it gained), with
//!   the `server::accept` / `server::read` / `server::respond` chaos
//!   failpoints placed so admission accounting cannot leak.
//!
//! ## Routes
//!
//! | Route | Body | Answer |
//! |---|---|---|
//! | `POST /v1/<tenant>/estimate` | `{"tables":[0,1],"predicates":[...],"deadline_ms":null}` | estimate with rung label, epoch, sound upper bound |
//! | `POST /v1/<tenant>/ingest` | a [`sqe_engine::delta::DeltaBatch`] | ingest report + new epoch |
//! | `GET /v1/<tenant>/stats` | — | the tenant's metrics snapshot |
//! | `GET /metrics` | — | Prometheus-style text, all tenants |
//! | `GET /healthz` | — | `ok` |
//!
//! Refusals are `429` with `{"scope":"quota"|"tenant"|"global",
//! "retry_after_ms":...}` — the scope names which admission gate shed
//! the request and the hint is computed from that gate's own state (see
//! [`tenant`] for the three-gate stack).

#![warn(missing_docs)]

pub mod http;
pub mod metrics;
pub mod quota;
pub mod server;
pub mod tenant;

pub use http::{Request, Response};
pub use metrics::{MetricsSnapshot, TenantMetrics};
pub use quota::{QuotaConfig, TokenBucket};
pub use server::{spawn, ServerHandle, ServerStats};
pub use tenant::{DoorError, FrontDoor, ShedScope, Tenant, TenantConfig};

#[cfg(test)]
mod assertions {
    use super::*;

    fn _assert_send_sync<T: Send + Sync>() {}

    #[test]
    fn shared_types_are_send_sync() {
        _assert_send_sync::<FrontDoor>();
        _assert_send_sync::<Tenant>();
        _assert_send_sync::<TenantMetrics>();
        _assert_send_sync::<TokenBucket>();
    }
}
