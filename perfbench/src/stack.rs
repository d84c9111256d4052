//! Building the system under test: the snowflake database, the J2 SIT
//! pool over the run's templates, the mutation stream, and a front door
//! with one tenant behind a live reactor.

use std::num::NonZeroUsize;
use std::sync::Arc;
use std::time::{Duration, Instant};

use sqe_bench::{Setup, SetupConfig};
use sqe_core::{build_pool, DeltaConfig, PoolSpec, SitCatalog};
use sqe_engine::Database;
use sqe_server::{FrontDoor, QuotaConfig, ServerHandle, Tenant, TenantConfig};
use sqe_service::ServiceConfig;

use crate::workload::{Plan, Workload};

/// The tenant every estimate addresses.
pub const TENANT: &str = "bench";
/// A second tenant, over its own copy of the catalog, that takes the
/// isolated ingests of `warm` and `cold`, so they never touch the read
/// tenant's catalog or caches.
pub const PROBE_TENANT: &str = "probe";

/// A tenant contract no request of the benchmark can exceed: no quota,
/// in-flight or deadline gate refuses, and no answer degrades.
pub fn tenant_config() -> TenantConfig {
    TenantConfig {
        quota: QuotaConfig {
            rate: 1e9,
            burst: 1e9,
            max_in_flight: 64,
            deadline_ceiling: Duration::from_secs(30),
        },
        service: ServiceConfig {
            // Requests never batch; keep the service single-threaded per
            // request so the 2 load connections are the only parallelism.
            batch_threads: NonZeroUsize::new(1),
            ..ServiceConfig::default()
        },
        delta: DeltaConfig::default(),
    }
}

/// Seconds spent in each set-up phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupSplit {
    /// Snowflake generation plus template generation.
    pub datagen_s: f64,
    /// The J2 SIT pool over the templates.
    pub pool_s: f64,
    /// The seeded mutation stream.
    pub mutations_s: f64,
    /// Front door, reactor, and the warm-up pass over the wire.
    pub warmup_s: f64,
}

impl SetupSplit {
    pub fn total(&self) -> f64 {
        self.datagen_s + self.pool_s + self.mutations_s + self.warmup_s
    }
}

/// Generated inputs: database, pool and plan.
pub struct Inputs {
    pub db: Database,
    pub pool: SitCatalog,
    pub plan: Plan,
}

/// Generates every input of a run from the seed, timing each phase.
pub fn generate(workload: Workload, seed: u64, seconds: f64) -> (Inputs, SetupSplit) {
    let mut split = SetupSplit::default();
    let t = Instant::now();
    let setup = Setup::new(SetupConfig::default());
    let templates = Plan::templates(workload, seed, &setup);
    split.datagen_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let pool = build_pool(&setup.snowflake.db, &templates.0, PoolSpec::ji(2))
        .expect("J2 pool over generated templates builds");
    split.pool_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let batches = Plan::mutations(workload, seed, seconds, &setup.snowflake.db);
    split.mutations_s = t.elapsed().as_secs_f64();

    let plan = Plan::new(workload, seed, templates, batches);
    let inputs = Inputs {
        db: setup.snowflake.db,
        pool,
        plan,
    };
    (inputs, split)
}

/// A front door with the benchmark tenant, optionally behind a reactor.
pub struct Stack {
    pub door: Arc<FrontDoor>,
    pub tenant: Arc<Tenant>,
    pub server: Option<ServerHandle>,
}

impl Stack {
    /// Stands up a fresh stack that owns `db` and `pool`.
    pub fn new(db: Database, pool: SitCatalog, serve: bool) -> Stack {
        let door = Arc::new(FrontDoor::new(64));
        let tenant = door.add_tenant(TENANT, db, pool, tenant_config());
        let server = serve.then(|| {
            sqe_server::spawn(Arc::clone(&door), "127.0.0.1:0").expect("bind a loopback port")
        });
        Stack {
            door,
            tenant,
            server,
        }
    }

    /// Adds the [`PROBE_TENANT`] over `db` and `pool`.
    pub fn add_probe_tenant(&self, db: Database, pool: SitCatalog) {
        self.door
            .add_tenant(PROBE_TENANT, db, pool, tenant_config());
    }

    pub fn addr(&self) -> std::net::SocketAddr {
        self.server.as_ref().expect("stack serves TCP").addr()
    }

    /// Stops the reactor and waits for its thread.
    pub fn shutdown(mut self) {
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
    }
}

/// Hands freed heap back to the kernel and restarts the kernel's peak
/// resident set counter (`VmHWM`) at the current resident set, so that
/// [`peak_rss_mb`] afterwards covers only what runs after this call, not
/// the benchmark's own data generation before it. Returns whether the
/// counter was reset (Linux only).
pub fn reset_peak_rss() -> bool {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: `malloc_trim` is glibc's documented call to release
        // free heap memory; it takes no pointers.
        unsafe {
            malloc_trim(0);
        }
    }
    // Writing 5 to this process's own `clear_refs` resets its `VmHWM`.
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
