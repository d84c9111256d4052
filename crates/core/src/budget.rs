//! Resource governance for estimation: wall-clock deadlines, work-unit
//! quotas, and cooperative cancellation.
//!
//! The worst case of `getSelectivity` is `O(3ⁿ)`; a production service
//! cannot let one n=16 dense fill stall a snapshot. A [`Budget`] describes
//! the caller's limits; the estimator materializes it into a
//! [`BudgetMeter`] — a shared, thread-safe meter that every DP loop
//! charges as it works. When the meter trips, in-flight work unwinds with
//! an [`ExhaustReason`] and the degradation ladder (see `ladder`) retries
//! on a cheaper rung instead of returning an error.
//!
//! Cost model: one work unit per lattice mask solved plus one per freshly
//! computed peel link. Quota checks are exact (every charge compares
//! against the cap), but wall-clock and cancellation polls are amortized —
//! `Instant::now()` and the cancel-flag load happen only when the spent
//! counter crosses a [`POLL_EVERY`] boundary, so the no-deadline and
//! in-budget paths stay a couple of relaxed atomics per mask.
//!
//! Trip state is sticky and first-reason-wins: once tripped, every
//! subsequent [`BudgetMeter::charge`]/[`BudgetMeter::check`] returns the
//! same reason, so the DP and every later rung observe one coherent
//! verdict.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Charge interval between deadline/cancellation polls. Amortizes
/// `Instant::now()` to roughly once per thousand lattice masks.
pub const POLL_EVERY: u64 = 1024;

/// A cooperative cancellation handle. Cloning shares the flag; any clone
/// can [`cancel`](CancelToken::cancel) and every meter polling the token
/// trips on its next checkpoint.
#[derive(Clone, Debug, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation. Idempotent; never blocks.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Release);
    }

    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Acquire)
    }
}

/// Caller-facing budget specification. All limits are optional;
/// [`Budget::default`] is unlimited and changes nothing about estimation.
#[derive(Clone, Debug, Default)]
pub struct Budget {
    /// Wall-clock allowance measured from the moment estimation starts.
    pub deadline: Option<Duration>,
    /// Work-unit quota (lattice masks solved + peel links computed).
    pub quota: Option<u64>,
    /// Cooperative cancellation flag, polled at the same checkpoints as
    /// the deadline.
    pub cancel: Option<CancelToken>,
}

impl Budget {
    /// No limits: estimation runs exactly as if no budget existed.
    pub fn unlimited() -> Self {
        Self::default()
    }

    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    pub fn with_quota(mut self, quota: u64) -> Self {
        self.quota = Some(quota);
        self
    }

    pub fn with_cancel(mut self, cancel: CancelToken) -> Self {
        self.cancel = Some(cancel);
        self
    }

    pub fn is_unlimited(&self) -> bool {
        self.deadline.is_none() && self.quota.is_none() && self.cancel.is_none()
    }
}

/// Why a budgeted computation stopped early.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ExhaustReason {
    /// The wall-clock deadline passed.
    Deadline,
    /// The work-unit quota was spent.
    WorkQuota,
    /// The caller's [`CancelToken`] fired.
    Cancelled,
}

impl std::fmt::Display for ExhaustReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ExhaustReason::Deadline => "deadline",
            ExhaustReason::WorkQuota => "work-quota",
            ExhaustReason::Cancelled => "cancelled",
        })
    }
}

/// Why an estimate carries a quality label below [`Quality::Full`].
/// Extends [`ExhaustReason`] with panic isolation: a request whose worker
/// panicked is answered from the independence floor rather than erroring.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DegradeReason {
    Deadline,
    WorkQuota,
    Cancelled,
    /// The estimator panicked; the service isolated it and fell back.
    Panic,
}

impl DegradeReason {
    /// Every reason, in declaration order.
    pub const ALL: [DegradeReason; 4] = [
        DegradeReason::Deadline,
        DegradeReason::WorkQuota,
        DegradeReason::Cancelled,
        DegradeReason::Panic,
    ];

    /// Label of this reason in `/metrics` and `/v1/<tenant>/stats`.
    pub fn label(self) -> &'static str {
        match self {
            DegradeReason::Deadline => "deadline",
            DegradeReason::WorkQuota => "work_quota",
            DegradeReason::Cancelled => "cancelled",
            DegradeReason::Panic => "panic",
        }
    }
}

impl From<ExhaustReason> for DegradeReason {
    fn from(r: ExhaustReason) -> Self {
        match r {
            ExhaustReason::Deadline => DegradeReason::Deadline,
            ExhaustReason::WorkQuota => DegradeReason::WorkQuota,
            ExhaustReason::Cancelled => DegradeReason::Cancelled,
        }
    }
}

impl std::fmt::Display for DegradeReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            DegradeReason::Deadline => "deadline",
            DegradeReason::WorkQuota => "work-quota",
            DegradeReason::Cancelled => "cancelled",
            DegradeReason::Panic => "panic",
        })
    }
}

/// Quality tier of a returned estimate, ordered worst-to-best so that
/// `a < b` means "a is a coarser answer than b". The degradation ladder
/// walks this enum downward from [`Quality::Full`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Quality {
    /// Guaranteed-sound upper bound from the pessimistic backend's degree
    /// sketch (see [`crate::pessimistic`]): not a point estimate at all,
    /// just the safety envelope — the coarsest answer the ladder can give,
    /// but one with a hard correctness guarantee the tiers above lack.
    Bound,
    /// Independence-only baseline: O(n), no subset enumeration.
    Independence,
    /// Greedy view matching (single chain, no DP).
    Greedy,
    /// §3.4 SIT-driven-pruned DP.
    Pruned,
    /// Beam-search approximate DP (see [`crate::beam`]): a bounded
    /// frontier of decompositions instead of the full lattice. Better than
    /// `Pruned` (it scores and ranks every generated candidate, pruning
    /// only by measured bound) but below `Full` (wide-width exactness is
    /// not guaranteed at service widths) — and the *only* tier reachable
    /// for queries wider than the exact engines' n = 20 cliff.
    Beam,
    /// The full dynamic program — identical to an unbudgeted run.
    Full,
}

impl Quality {
    pub fn label(self) -> &'static str {
        match self {
            Quality::Bound => "bound",
            Quality::Independence => "independence",
            Quality::Greedy => "greedy",
            Quality::Pruned => "pruned",
            Quality::Beam => "beam",
            Quality::Full => "full",
        }
    }

    /// All tiers, worst-to-best (the `Ord` order).
    pub const ALL: [Quality; 6] = [
        Quality::Bound,
        Quality::Independence,
        Quality::Greedy,
        Quality::Pruned,
        Quality::Beam,
        Quality::Full,
    ];
}

/// Sticky trip encoding: 0 = not tripped, else `ExhaustReason` + 1.
const TRIP_NONE: u8 = 0;

fn encode(r: ExhaustReason) -> u8 {
    match r {
        ExhaustReason::Deadline => 1,
        ExhaustReason::WorkQuota => 2,
        ExhaustReason::Cancelled => 3,
    }
}

fn decode(v: u8) -> Option<ExhaustReason> {
    match v {
        1 => Some(ExhaustReason::Deadline),
        2 => Some(ExhaustReason::WorkQuota),
        3 => Some(ExhaustReason::Cancelled),
        _ => None,
    }
}

/// The materialized, shareable form of a [`Budget`]: absolute deadline,
/// atomic spend counter, sticky trip flag. One meter governs one ladder
/// rung; the estimator charges it through an `Arc`.
#[derive(Debug)]
pub struct BudgetMeter {
    deadline: Option<Instant>,
    cap: Option<u64>,
    cancel: Option<CancelToken>,
    spent: AtomicU64,
    tripped: AtomicU8,
    /// Precomputed fast-path discriminant: false means `charge` is a
    /// no-op beyond the inlined branch.
    limited: bool,
}

impl BudgetMeter {
    /// A meter with no limits; `charge` short-circuits to `Ok(())`.
    pub fn unlimited() -> Self {
        Self::from_parts(None, None, None)
    }

    /// Builds a meter from absolute limits. The ladder uses this to slice
    /// one caller [`Budget`] into per-rung meters.
    pub fn from_parts(
        deadline: Option<Instant>,
        cap: Option<u64>,
        cancel: Option<CancelToken>,
    ) -> Self {
        let limited = deadline.is_some() || cap.is_some() || cancel.is_some();
        BudgetMeter {
            deadline,
            cap,
            cancel,
            spent: AtomicU64::new(0),
            tripped: AtomicU8::new(TRIP_NONE),
            limited,
        }
    }

    /// Materializes a caller budget as a single meter starting now.
    pub fn start(budget: &Budget) -> Self {
        Self::from_parts(
            budget.deadline.map(|d| Instant::now() + d),
            budget.quota,
            budget.cancel.clone(),
        )
    }

    /// Work units charged so far.
    pub fn spent(&self) -> u64 {
        self.spent.load(Ordering::Relaxed)
    }

    /// The sticky trip reason, if any.
    pub fn tripped(&self) -> Option<ExhaustReason> {
        decode(self.tripped.load(Ordering::Relaxed))
    }

    /// Charges `units` of work. Exact against the quota; deadline and
    /// cancellation are polled only when the counter crosses a
    /// [`POLL_EVERY`] boundary. Returns the sticky reason once tripped.
    #[inline]
    pub fn charge(&self, units: u64) -> Result<(), ExhaustReason> {
        if !self.limited {
            return Ok(());
        }
        self.charge_slow(units)
    }

    fn charge_slow(&self, units: u64) -> Result<(), ExhaustReason> {
        if let Some(r) = self.tripped() {
            return Err(r);
        }
        let before = self.spent.fetch_add(units, Ordering::Relaxed);
        let after = before.saturating_add(units);
        if let Some(cap) = self.cap {
            if after > cap {
                return Err(self.trip(ExhaustReason::WorkQuota));
            }
        }
        if before / POLL_EVERY != after / POLL_EVERY {
            self.poll()?;
        }
        Ok(())
    }

    /// Non-charging checkpoint: returns the sticky reason if tripped.
    #[inline]
    pub fn check(&self) -> Result<(), ExhaustReason> {
        match self.tripped() {
            Some(r) => Err(r),
            None => Ok(()),
        }
    }

    /// Polls deadline and cancellation *now*, skipping the amortization.
    /// Used at rung boundaries and before committing to expensive steps.
    pub fn force_poll(&self) -> Result<(), ExhaustReason> {
        if !self.limited {
            return Ok(());
        }
        if let Some(r) = self.tripped() {
            return Err(r);
        }
        self.poll()
    }

    fn poll(&self) -> Result<(), ExhaustReason> {
        if let Some(tok) = &self.cancel {
            if tok.is_cancelled() {
                return Err(self.trip(ExhaustReason::Cancelled));
            }
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                return Err(self.trip(ExhaustReason::Deadline));
            }
        }
        Ok(())
    }

    /// Records the trip; first reason wins under races and is returned.
    fn trip(&self, reason: ExhaustReason) -> ExhaustReason {
        match self.tripped.compare_exchange(
            TRIP_NONE,
            encode(reason),
            Ordering::Relaxed,
            Ordering::Relaxed,
        ) {
            Ok(_) => reason,
            Err(prev) => decode(prev).unwrap_or(reason),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_meter_never_trips() {
        let m = BudgetMeter::unlimited();
        for _ in 0..10_000 {
            m.charge(7).unwrap();
        }
        assert_eq!(m.tripped(), None);
        assert!(m.check().is_ok());
        assert!(m.force_poll().is_ok());
        // The fast path skips accounting entirely.
        assert_eq!(m.spent(), 0);
    }

    #[test]
    fn quota_is_exact_and_sticky() {
        let m = BudgetMeter::from_parts(None, Some(10), None);
        for _ in 0..10 {
            m.charge(1).unwrap();
        }
        assert_eq!(m.charge(1), Err(ExhaustReason::WorkQuota));
        assert_eq!(m.check(), Err(ExhaustReason::WorkQuota));
        assert_eq!(m.charge(1), Err(ExhaustReason::WorkQuota));
        assert_eq!(m.tripped(), Some(ExhaustReason::WorkQuota));
    }

    #[test]
    fn expired_deadline_trips_on_force_poll_and_poll_boundary() {
        let past = Instant::now() - Duration::from_millis(5);
        let m = BudgetMeter::from_parts(Some(past), None, None);
        // Small charges inside one poll window do not observe the clock.
        m.charge(1).unwrap();
        assert_eq!(m.force_poll(), Err(ExhaustReason::Deadline));

        let m = BudgetMeter::from_parts(Some(past), None, None);
        // Crossing the poll boundary observes it.
        assert_eq!(m.charge(POLL_EVERY + 1), Err(ExhaustReason::Deadline));
    }

    #[test]
    fn cancel_token_trips_cooperatively() {
        let tok = CancelToken::new();
        let m = BudgetMeter::from_parts(None, None, Some(tok.clone()));
        m.charge(POLL_EVERY * 2).unwrap();
        tok.cancel();
        assert!(tok.is_cancelled());
        // Amortization: a sub-window charge may not see it yet, but the
        // next boundary crossing must.
        assert_eq!(m.charge(POLL_EVERY * 2), Err(ExhaustReason::Cancelled));
        assert_eq!(m.check(), Err(ExhaustReason::Cancelled));
    }

    #[test]
    fn first_trip_reason_wins() {
        let tok = CancelToken::new();
        let m = BudgetMeter::from_parts(None, Some(5), Some(tok.clone()));
        assert_eq!(m.charge(100), Err(ExhaustReason::WorkQuota));
        tok.cancel();
        // Still the original reason: trips are sticky.
        assert_eq!(m.check(), Err(ExhaustReason::WorkQuota));
        assert_eq!(m.force_poll(), Err(ExhaustReason::WorkQuota));
    }

    #[test]
    fn quality_tiers_are_ordered_worst_to_best() {
        assert!(Quality::Bound < Quality::Independence);
        assert!(Quality::Independence < Quality::Greedy);
        assert!(Quality::Greedy < Quality::Pruned);
        assert!(Quality::Pruned < Quality::Beam);
        assert!(Quality::Beam < Quality::Full);
        assert_eq!(Quality::ALL.len(), 6);
        assert!(Quality::ALL.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(Quality::Full.label(), "full");
        assert_eq!(Quality::Beam.label(), "beam");
        assert_eq!(Quality::Bound.label(), "bound");
    }

    #[test]
    fn budget_builder_and_unlimited_detection() {
        assert!(Budget::unlimited().is_unlimited());
        let b = Budget::unlimited()
            .with_deadline(Duration::from_millis(1))
            .with_quota(10)
            .with_cancel(CancelToken::new());
        assert!(!b.is_unlimited());
        let m = BudgetMeter::start(&b);
        assert!(m.limited);
    }
}
