//! [`Metrics`] — the one request-metrics model: relaxed atomic counters
//! plus a log-linear latency histogram, recorded on the estimate hot path
//! and read by every report (`EstimationService::stats`, the server's
//! `/metrics` and `/v1/<tenant>/stats`, the benches and the soak).
//!
//! Each estimation service owns one [`Metrics`]; the degradation
//! [`crate::Ladder`] records its rung walk into it, and a front door
//! records the refusals of the gates it runs in front of the service.
//! Recording is a handful of relaxed `fetch_add`s — no allocation, no
//! lock — and only observes: answers are bit-identical with or without
//! it. These are monitoring signals, not synchronization.
//!
//! The latency histogram is log-linear: exact 1 µs buckets below 4 µs,
//! then four sub-buckets per octave (a bucket's upper edge overstates its
//! smallest member by at most 25%) up to ~8 s, [`NUM_BUCKETS`] buckets in
//! all. Quantiles walk the cumulative counts and report the *upper* edge
//! of the containing bucket, so a reported p99 is conservative — never
//! better than reality.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use crate::budget::{DegradeReason, Quality};

/// Number of log-linear latency buckets (µs granularity; see module docs).
pub const NUM_BUCKETS: usize = 88;

/// Number of quality tiers ([`Quality::ALL`]).
pub const QUALITY_TIERS: usize = Quality::ALL.len();

/// Number of [`DegradeReason`]s, in [`DegradeReason::ALL`] order.
pub const DEGRADE_REASONS: usize = DegradeReason::ALL.len();

const RELAXED: Ordering = Ordering::Relaxed;

/// Bucket index for a latency of `us` microseconds.
fn bucket_of_us(us: u64) -> usize {
    if us < 4 {
        return us as usize;
    }
    let octave = 63 - us.leading_zeros() as u64; // floor(log2(us)) ≥ 2
    let sub = (us >> (octave - 2)) - 4; // 0..4 within the octave
    let idx = (4 * (octave - 1) + sub) as usize;
    idx.min(NUM_BUCKETS - 1)
}

/// Exclusive upper edge of bucket `idx`, in microseconds.
fn upper_edge_us(idx: usize) -> u64 {
    if idx < 4 {
        return idx as u64 + 1;
    }
    let octave = idx as u64 / 4 + 1;
    let sub = idx as u64 % 4;
    (sub + 5) << (octave - 2)
}

/// Index of a tier in the per-quality arrays ([`Quality::ALL`] order).
fn quality_idx(q: Quality) -> usize {
    Quality::ALL
        .iter()
        .position(|&t| t == q)
        .expect("tier in ALL")
}

/// Index of a reason in the per-reason arrays ([`DegradeReason::ALL`]
/// order).
fn reason_idx(r: DegradeReason) -> usize {
    DegradeReason::ALL
        .iter()
        .position(|&t| t == r)
        .expect("reason in ALL")
}

fn nanos(d: Duration) -> u64 {
    d.as_nanos().min(u64::MAX as u128) as u64
}

fn load<const N: usize>(arr: &[AtomicU64; N]) -> [u64; N] {
    std::array::from_fn(|i| arr[i].load(RELAXED))
}

/// Point-in-time counters of a bounded, sharded cache (monotone over the
/// cache's lifetime), as reported in a [`MetricsSnapshot`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheCounters {
    /// Lookups that found an entry.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Values written (fresh or overwriting).
    pub insertions: u64,
    /// Entries displaced by a bounded map at capacity.
    pub evictions: u64,
}

impl CacheCounters {
    /// Hits as a fraction of lookups; 0 when nothing was looked up.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Point-in-time delta-ingest counters (partial snapshot installs).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IngestCounters {
    /// Partial snapshot installs published (one per ingested batch).
    pub partial_installs: u64,
    /// Row ops those batches applied.
    pub ops: u64,
    /// SITs rebuilt across all ingests.
    pub sits_refreshed: u64,
    /// Cache entries carried across partial installs.
    pub cache_carried: u64,
    /// Cache entries invalidated by partial installs.
    pub cache_dropped: u64,
}

/// One estimation service's request metrics (see the module docs).
#[derive(Debug, Default)]
pub struct Metrics {
    estimates: AtomicU64,
    batches: AtomicU64,
    query_cache_hits: AtomicU64,
    installs: AtomicU64,
    total_latency_ns: AtomicU64,
    latency: Buckets,
    attempted: [AtomicU64; QUALITY_TIERS],
    answered: [AtomicU64; QUALITY_TIERS],
    served: [AtomicU64; QUALITY_TIERS],
    served_latency_ns: [AtomicU64; QUALITY_TIERS],
    degraded: [AtomicU64; DEGRADE_REASONS],
    sheds: AtomicU64,
    door_sheds: AtomicU64,
    retry_ns_sum: AtomicU64,
    retry_ns_max: AtomicU64,
    quarantines: AtomicU64,
    widths: AtomicU64,
    /// Σ ratio, in milli-units (×1000), saturating.
    width_sum_milli: AtomicU64,
    width_max_milli: AtomicU64,
    max_epoch: AtomicU64,
    partial_installs: AtomicU64,
    ingest_ops: AtomicU64,
    sits_refreshed: AtomicU64,
    cache_carried: AtomicU64,
    cache_dropped: AtomicU64,
}

/// The latency histogram's buckets (arrays this long have no derived
/// `Default`).
#[derive(Debug)]
struct Buckets([AtomicU64; NUM_BUCKETS]);

impl Default for Buckets {
    fn default() -> Self {
        Buckets(std::array::from_fn(|_| AtomicU64::new(0)))
    }
}

impl Metrics {
    /// The ladder is about to try a rung: once per attempted rung in
    /// descending-quality order; an unlimited budget reports a single
    /// attempt at its top rung. A service answering a panicked request
    /// from its independence floor records one attempt and one answer
    /// there, so answers never outnumber attempts on any rung.
    pub fn rung_attempted(&self, quality: Quality) {
        self.attempted[quality_idx(quality)].fetch_add(1, RELAXED);
    }

    /// The ladder answered from `quality`.
    pub fn rung_answered(&self, quality: Quality) {
        self.answered[quality_idx(quality)].fetch_add(1, RELAXED);
    }

    /// One estimate completed end to end in `latency`, answered from
    /// `quality` (`cached` = the whole-query cache answered), degraded
    /// for `reason` (`None` when undegraded), against catalog `epoch`.
    pub fn served(
        &self,
        latency: Duration,
        quality: Quality,
        reason: Option<DegradeReason>,
        cached: bool,
        epoch: u64,
    ) {
        let ns = nanos(latency);
        self.estimates.fetch_add(1, RELAXED);
        if cached {
            self.query_cache_hits.fetch_add(1, RELAXED);
        }
        self.total_latency_ns.fetch_add(ns, RELAXED);
        self.latency.0[bucket_of_us(ns / 1_000)].fetch_add(1, RELAXED);
        let i = quality_idx(quality);
        self.served[i].fetch_add(1, RELAXED);
        self.served_latency_ns[i].fetch_add(ns, RELAXED);
        if let Some(r) = reason {
            self.degraded[reason_idx(r)].fetch_add(1, RELAXED);
        }
        self.max_epoch.fetch_max(epoch, RELAXED);
    }

    /// Width of the safety envelope for one answer: the guaranteed upper
    /// bound over the (max(1) clamped) point cardinality — `1.0` is tight,
    /// larger is wider. Reported only when both are finite.
    pub fn bound_width(&self, ratio: f64) {
        let milli = (ratio * 1000.0).min(u64::MAX as f64) as u64;
        self.widths.fetch_add(1, RELAXED);
        self.width_sum_milli.fetch_add(milli, RELAXED);
        self.width_max_milli.fetch_max(milli, RELAXED);
    }

    /// The service's own admission gate refused a request with this
    /// retry hint.
    pub fn shed(&self, retry_after: Duration) {
        self.sheds.fetch_add(1, RELAXED);
        self.retry_hint(retry_after);
    }

    /// A gate in front of the service (a front door's quota or per-tenant
    /// in-flight bound) refused a request with this retry hint.
    pub fn door_shed(&self, retry_after: Duration) {
        self.door_sheds.fetch_add(1, RELAXED);
        self.retry_hint(retry_after);
    }

    fn retry_hint(&self, retry_after: Duration) {
        let ns = nanos(retry_after);
        self.retry_ns_sum.fetch_add(ns, RELAXED);
        self.retry_ns_max.fetch_max(ns, RELAXED);
    }

    /// A panicking request quarantined its snapshot's cache.
    pub fn quarantine(&self) {
        self.quarantines.fetch_add(1, RELAXED);
    }

    /// A batch call was served.
    pub fn batch(&self) {
        self.batches.fetch_add(1, RELAXED);
    }

    /// A catalog snapshot was installed (fresh, partial, or a panic
    /// recovery's replacement).
    pub fn install(&self) {
        self.installs.fetch_add(1, RELAXED);
    }

    /// A delta-ingest batch was published as a partial install.
    pub fn partial_install(&self, ops: u64, refreshed: u64, carried: u64, dropped: u64) {
        self.install();
        self.partial_installs.fetch_add(1, RELAXED);
        self.ingest_ops.fetch_add(ops, RELAXED);
        self.sits_refreshed.fetch_add(refreshed, RELAXED);
        self.cache_carried.fetch_add(carried, RELAXED);
        self.cache_dropped.fetch_add(dropped, RELAXED);
    }

    /// Mean latency over everything served so far; zero when nothing
    /// was served.
    pub fn mean_latency(&self) -> Duration {
        self.total_latency_ns
            .load(RELAXED)
            .checked_div(self.estimates.load(RELAXED))
            .map_or(Duration::ZERO, Duration::from_nanos)
    }

    /// Point-in-time copy of every counter, with the owner's current
    /// `cache` counters attached.
    pub fn snapshot(&self, cache: CacheCounters) -> MetricsSnapshot {
        MetricsSnapshot {
            estimates: self.estimates.load(RELAXED),
            batches: self.batches.load(RELAXED),
            query_cache_hits: self.query_cache_hits.load(RELAXED),
            installs: self.installs.load(RELAXED),
            total_latency_ns: self.total_latency_ns.load(RELAXED),
            latency_buckets: load(&self.latency.0),
            rung_attempts: load(&self.attempted),
            rung_answers: load(&self.answered),
            quality_counts: load(&self.served),
            quality_latency_ns: load(&self.served_latency_ns),
            degrade_reasons: load(&self.degraded),
            sheds: self.sheds.load(RELAXED),
            door_sheds: self.door_sheds.load(RELAXED),
            retry_ns_sum: self.retry_ns_sum.load(RELAXED),
            retry_ns_max: self.retry_ns_max.load(RELAXED),
            quarantines: self.quarantines.load(RELAXED),
            bound_widths: self.widths.load(RELAXED),
            bound_width_sum_milli: self.width_sum_milli.load(RELAXED),
            bound_width_max_milli: self.width_max_milli.load(RELAXED),
            max_epoch: self.max_epoch.load(RELAXED),
            ingest: IngestCounters {
                partial_installs: self.partial_installs.load(RELAXED),
                ops: self.ingest_ops.load(RELAXED),
                sits_refreshed: self.sits_refreshed.load(RELAXED),
                cache_carried: self.cache_carried.load(RELAXED),
                cache_dropped: self.cache_dropped.load(RELAXED),
            },
            cache,
        }
    }
}

/// Point-in-time copy of a [`Metrics`], as returned by
/// `EstimationService::stats`. Per-quality arrays are in [`Quality::ALL`]
/// order (worst to best), per-reason arrays in [`DegradeReason::ALL`]
/// order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Estimates served (cache hits and degraded answers included).
    pub estimates: u64,
    /// Batch calls served.
    pub batches: u64,
    /// Estimates answered entirely from the whole-query cache.
    pub query_cache_hits: u64,
    /// Catalog snapshots installed after the initial one.
    pub installs: u64,
    /// Sum of per-estimate latencies.
    pub total_latency_ns: u64,
    /// Log-linear latency histogram (see the module docs).
    pub latency_buckets: [u64; NUM_BUCKETS],
    /// Rungs the ladder tried, per tier.
    pub rung_attempts: [u64; QUALITY_TIERS],
    /// Rungs that produced the ladder's answer, per tier.
    pub rung_answers: [u64; QUALITY_TIERS],
    /// Estimates served, per tier.
    pub quality_counts: [u64; QUALITY_TIERS],
    /// Summed latency of the estimates served, per tier.
    pub quality_latency_ns: [u64; QUALITY_TIERS],
    /// Degraded answers, per reason.
    pub degrade_reasons: [u64; DEGRADE_REASONS],
    /// Requests refused by the service's own admission gate.
    pub sheds: u64,
    /// Requests refused by gates in front of the service (a front door's
    /// quota and per-tenant in-flight bound).
    pub door_sheds: u64,
    /// Sum of the retry hints handed out with either kind of refusal.
    pub retry_ns_sum: u64,
    /// Largest retry hint handed out; 0 when nothing was refused.
    pub retry_ns_max: u64,
    /// Panicking requests isolated; each quarantined a snapshot cache.
    pub quarantines: u64,
    /// Answers whose safety-envelope width was recorded.
    pub bound_widths: u64,
    /// Σ of those widths, in milli-units.
    pub bound_width_sum_milli: u64,
    /// Widest of those widths, in milli-units.
    pub bound_width_max_milli: u64,
    /// Highest catalog epoch any served answer observed.
    pub max_epoch: u64,
    /// Delta-ingest counters (partial snapshot installs).
    pub ingest: IngestCounters,
    /// Counters of the owner's *current* cache (reset on every install,
    /// since the cache is per snapshot).
    pub cache: CacheCounters,
}

impl MetricsSnapshot {
    /// Mean estimate latency; zero when nothing was served.
    pub fn mean_latency(&self) -> Duration {
        self.total_latency_ns
            .checked_div(self.estimates)
            .map_or(Duration::ZERO, Duration::from_nanos)
    }

    /// Estimates served from one quality tier.
    pub fn quality_count(&self, q: Quality) -> u64 {
        self.quality_counts[quality_idx(q)]
    }

    /// Mean latency of the estimates served from one tier; zero when none.
    pub fn quality_mean_latency(&self, q: Quality) -> Duration {
        let i = quality_idx(q);
        self.quality_latency_ns[i]
            .checked_div(self.quality_counts[i])
            .map_or(Duration::ZERO, Duration::from_nanos)
    }

    /// Degraded answers attributed to one reason.
    pub fn degraded_by(&self, r: DegradeReason) -> u64 {
        self.degrade_reasons[reason_idx(r)]
    }

    /// Refusals at every gate: the service's own plus those in front.
    pub fn all_sheds(&self) -> u64 {
        self.sheds + self.door_sheds
    }

    /// Fraction of served answers at full quality (1.0 when nothing was
    /// served — an idle service is not a degraded one).
    pub fn full_fraction(&self) -> f64 {
        if self.estimates == 0 {
            return 1.0;
        }
        self.quality_count(Quality::Full) as f64 / self.estimates as f64
    }

    /// Conservative latency quantile in microseconds: the upper edge of
    /// the bucket containing the `q`-quantile observation (`q` in 0..=1).
    /// Returns 0 when nothing was recorded.
    pub fn latency_quantile_us(&self, q: f64) -> u64 {
        let total: u64 = self.latency_buckets.iter().sum();
        if total == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut cumulative = 0u64;
        for (idx, &n) in self.latency_buckets.iter().enumerate() {
            cumulative += n;
            if cumulative >= rank {
                return upper_edge_us(idx);
            }
        }
        upper_edge_us(NUM_BUCKETS - 1)
    }

    /// Mean retry hint across every refusal, milliseconds (0 when none).
    pub fn retry_ms_mean(&self) -> f64 {
        match self.all_sheds() {
            0 => 0.0,
            n => self.retry_ns_sum as f64 / n as f64 / 1e6,
        }
    }

    /// Largest retry hint handed out, milliseconds.
    pub fn retry_ms_max(&self) -> f64 {
        self.retry_ns_max as f64 / 1e6
    }

    /// Mean bound/estimate envelope ratio (0 when none was recorded).
    pub fn bound_width_mean(&self) -> f64 {
        match self.bound_widths {
            0 => 0.0,
            n => self.bound_width_sum_milli as f64 / n as f64 / 1000.0,
        }
    }

    /// Widest bound/estimate envelope ratio.
    pub fn bound_width_max(&self) -> f64 {
        self.bound_width_max_milli as f64 / 1000.0
    }
}

impl fmt::Display for MetricsSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "estimates: {} ({} query-cache hits), batches: {}, installs: {}",
            self.estimates, self.query_cache_hits, self.batches, self.installs
        )?;
        writeln!(
            f,
            "latency: mean {:?}, p50 {} µs, p99 {} µs",
            self.mean_latency(),
            self.latency_quantile_us(0.50),
            self.latency_quantile_us(0.99)
        )?;
        write!(f, "quality:")?;
        for q in Quality::ALL.iter().rev() {
            let n = self.quality_count(*q);
            if n > 0 {
                let mean = self.quality_mean_latency(*q);
                write!(f, " {}={n} ({mean:?})", q.label())?;
            }
        }
        writeln!(
            f,
            " sheds={} quarantines={}",
            self.all_sheds(),
            self.quarantines
        )?;
        if self.ingest.partial_installs > 0 {
            writeln!(
                f,
                "ingest: {} partial installs ({} ops), {} SIT refreshes, \
                 cache carried {} / dropped {}",
                self.ingest.partial_installs,
                self.ingest.ops,
                self.ingest.sits_refreshed,
                self.ingest.cache_carried,
                self.ingest.cache_dropped
            )?;
        }
        write!(
            f,
            "shared cache: {} hits / {} misses ({:.1}% hit rate), {} insertions, {} evictions",
            self.cache.hits,
            self.cache.misses,
            100.0 * self.cache.hit_rate(),
            self.cache.insertions,
            self.cache.evictions
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(m: &Metrics) -> MetricsSnapshot {
        m.snapshot(CacheCounters::default())
    }

    #[test]
    fn buckets_are_monotone_and_edges_cover_them() {
        let mut prev = 0usize;
        for us in 0..100_000u64 {
            let b = bucket_of_us(us);
            assert!(b >= prev, "bucket regressed at {us}µs");
            assert!(us < upper_edge_us(b), "{us}µs ≥ edge of its bucket {b}");
            // A bucket's upper edge overstates its smallest member by at
            // most one sub-bucket width: 25% of the octave start, +1µs.
            let edge = upper_edge_us(b) as f64;
            assert!(edge <= us as f64 * 1.25 + 1.0, "edge {edge} vs {us}");
            prev = b;
        }
    }

    #[test]
    fn overflow_clamps_to_last_bucket() {
        assert_eq!(bucket_of_us(u64::MAX), NUM_BUCKETS - 1);
    }

    #[test]
    fn quantiles_are_conservative() {
        let m = Metrics::default();
        for _ in 0..99 {
            m.served(Duration::from_micros(1), Quality::Full, None, false, 0);
        }
        m.served(Duration::from_millis(1), Quality::Full, None, false, 0);
        let s = snap(&m);
        let p50 = s.latency_quantile_us(0.50);
        assert!(p50 <= 2, "p50 {p50}µs");
        let p999 = s.latency_quantile_us(0.999);
        assert!((1000..=1300).contains(&p999), "p999 {p999}µs");
        assert_eq!(s.latency_quantile_us(0.0), 2); // upper edge of 1µs bucket
        assert_eq!(Metrics::default().mean_latency(), Duration::ZERO);
    }

    #[test]
    fn served_answers_feed_every_view() {
        let m = Metrics::default();
        assert_eq!(snap(&m).full_fraction(), 1.0); // idle ≠ degraded
        m.rung_attempted(Quality::Full);
        m.rung_attempted(Quality::Pruned);
        m.rung_answered(Quality::Pruned);
        let deadline = Some(DegradeReason::Deadline);
        m.served(
            Duration::from_micros(10),
            Quality::Pruned,
            deadline,
            false,
            3,
        );
        m.served(Duration::from_micros(30), Quality::Full, None, true, 1);
        m.batch();
        let s = snap(&m);
        assert_eq!(s.estimates, 2);
        assert_eq!(s.query_cache_hits, 1);
        assert_eq!(s.batches, 1);
        assert_eq!(s.max_epoch, 3);
        assert_eq!(s.quality_count(Quality::Pruned), 1);
        assert_eq!(s.rung_attempts.iter().sum::<u64>(), 2);
        assert_eq!(s.rung_answers.iter().sum::<u64>(), 1);
        assert_eq!(s.degraded_by(DegradeReason::Deadline), 1);
        assert_eq!(s.mean_latency(), Duration::from_micros(20));
        assert_eq!(m.mean_latency(), Duration::from_micros(20));
        assert_eq!(s.latency_buckets.iter().sum::<u64>(), 2);
        assert!((s.full_fraction() - 0.5).abs() < 1e-9);
        // Display must not panic and must mention the headline counter.
        assert!(s.to_string().contains("estimates: 2"));
    }

    #[test]
    fn refusals_widths_and_ingest_aggregate() {
        let m = Metrics::default();
        m.shed(Duration::from_millis(4));
        m.door_shed(Duration::from_millis(2));
        m.bound_width(2.0);
        m.bound_width(6.0);
        m.partial_install(20, 1, 5, 2);
        let s = snap(&m);
        assert_eq!((s.sheds, s.door_sheds, s.all_sheds()), (1, 1, 2));
        assert!((s.retry_ms_mean() - 3.0).abs() < 1e-9);
        assert!((s.retry_ms_max() - 4.0).abs() < 1e-9);
        assert!((s.bound_width_mean() - 4.0).abs() < 1e-9);
        assert!((s.bound_width_max() - 6.0).abs() < 1e-9);
        assert_eq!(s.installs, 1, "partial installs count as installs");
        assert_eq!(s.ingest.partial_installs, 1);
        assert_eq!(s.ingest.cache_dropped, 2);
    }
}
