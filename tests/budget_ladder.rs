//! Budgeted estimation and the graceful-degradation ladder: monotonicity
//! of the quality label, bit-identity guarantees, and the headline
//! robustness property — a hard query under a 1 ms deadline still returns
//! a labeled answer immediately.

use std::time::{Duration, Instant};

use proptest::prelude::*;

use sqe::core::baseline::independence_selectivity;
use sqe::engine::table::TableBuilder;
use sqe::prelude::*;

/// Base SITs over every column of `db`, the minimum catalog every
/// estimator path accepts.
fn base_catalog(db: &Database, tables: u32, cols: u16) -> SitCatalog {
    let mut cat = SitCatalog::new();
    for t in 0..tables {
        for c in 0..cols {
            cat.add(Sit::build_base(db, ColRef::new(TableId(t), c)).unwrap());
        }
    }
    cat
}

/// Strategy: a small 3-table database (2 columns each, narrow domain).
fn small_db() -> impl Strategy<Value = Database> {
    let col = prop::collection::vec(0i64..8, 1..12);
    (
        col.clone(),
        col.clone(),
        col.clone(),
        col.clone(),
        col.clone(),
        col,
    )
        .prop_map(|(a0, b0, a1, b1, a2, b2)| {
            fn tab(name: &str, a: Vec<i64>, b: Vec<i64>) -> sqe::engine::Table {
                let n = a.len().min(b.len());
                TableBuilder::new(name)
                    .column("a", a[..n].to_vec())
                    .column("b", b[..n].to_vec())
                    .build()
                    .expect("consistent")
            }
            let mut db = Database::new();
            db.add_table(tab("t0", a0, b0));
            db.add_table(tab("t1", a1, b1));
            db.add_table(tab("t2", a2, b2));
            db
        })
}

/// Strategy: a predicate over the 3-table schema.
fn pred() -> impl Strategy<Value = Predicate> {
    let colref = (0u32..3, 0u16..2).prop_map(|(t, c)| ColRef::new(TableId(t), c));
    prop_oneof![
        (colref.clone(), 0i64..8, 0i64..8).prop_map(|(c, lo, hi)| Predicate::range(
            c,
            lo.min(hi),
            lo.max(hi)
        )),
        (colref.clone(), 0i64..8).prop_map(|(c, v)| Predicate::filter(c, CmpOp::Eq, v)),
        (colref.clone(), colref.clone()).prop_filter_map("self-column join", |(l, r)| {
            (l != r).then(|| Predicate::join(l, r))
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Quality is monotone in the work quota: a tighter budget never
    /// yields a *higher* rung than a looser one. Uses quota only (no
    /// deadline — wall-clock is nondeterministic) and a serial DP fill.
    #[test]
    fn quality_is_monotone_in_quota(
        db in small_db(),
        preds in prop::collection::vec(pred(), 1..5),
        q1 in 0u64..256,
        extra in 0u64..256,
    ) {
        let query = SpjQuery::new(vec![TableId(0), TableId(1), TableId(2)], preds).unwrap();
        let catalog = base_catalog(&db, 3, 2);
        let ladder = Ladder::new(&db, &catalog, ErrorMode::Diff);
        let tight = ladder.estimate(&query, &Budget::unlimited().with_quota(q1));
        let loose = ladder.estimate(&query, &Budget::unlimited().with_quota(q1 + extra));
        prop_assert!(
            tight.quality <= loose.quality,
            "quota {} gave {:?} but quota {} gave {:?}",
            q1, tight.quality, q1 + extra, loose.quality
        );
    }

    /// The independence floor is exactly `baseline::independence_selectivity`
    /// — bit for bit. A pre-cancelled token forces the floor deterministically.
    #[test]
    fn independence_floor_matches_baseline_bitwise(
        db in small_db(),
        preds in prop::collection::vec(pred(), 1..5),
    ) {
        let query = SpjQuery::new(vec![TableId(0), TableId(1), TableId(2)], preds).unwrap();
        let catalog = base_catalog(&db, 3, 2);
        let cancel = CancelToken::new();
        cancel.cancel();
        let ladder = Ladder::new(&db, &catalog, ErrorMode::Diff);
        let got = ladder.estimate(&query, &Budget::unlimited().with_cancel(cancel));
        prop_assert_eq!(got.quality, Quality::Independence);
        prop_assert_eq!(got.degraded_reason, Some(DegradeReason::Cancelled));
        let expected = independence_selectivity(&db, &catalog, &query);
        prop_assert_eq!(got.selectivity.to_bits(), expected.to_bits());
    }

    /// An unlimited budget is bit-identical to calling the estimator
    /// directly — selectivity, error, and the deterministic work counters.
    #[test]
    fn unlimited_budget_is_bit_identical_to_direct_estimator(
        db in small_db(),
        preds in prop::collection::vec(pred(), 1..5),
    ) {
        let query = SpjQuery::new(vec![TableId(0), TableId(1), TableId(2)], preds).unwrap();
        let catalog = base_catalog(&db, 3, 2);

        let mut direct = SelectivityEstimator::new(&db, &query, &catalog, ErrorMode::Diff);
        let all = direct.context().all();
        let (sel, err) = direct.get_selectivity(all);

        let ladder = Ladder::new(&db, &catalog, ErrorMode::Diff);
        let got = ladder.estimate(&query, &Budget::unlimited());
        prop_assert_eq!(got.quality, Quality::Full);
        prop_assert_eq!(got.degraded_reason, None);
        prop_assert_eq!(got.work, 0, "unlimited fast path skips accounting");
        prop_assert_eq!(got.selectivity.to_bits(), sel.to_bits());
        prop_assert_eq!(got.error.unwrap().to_bits(), err.to_bits());
        let d = direct.stats();
        prop_assert_eq!(got.stats.memo_entries, d.memo_entries);
        prop_assert_eq!(got.stats.peel_entries, d.peel_entries);
        prop_assert_eq!(got.stats.vm_calls, d.vm_calls);
    }

    /// A generous *finite* quota still completes the full rung and is
    /// bit-identical to the unlimited run (budget checkpoints never
    /// perturb the computed values).
    #[test]
    fn generous_quota_stays_full_and_bit_identical(
        db in small_db(),
        preds in prop::collection::vec(pred(), 1..4),
    ) {
        let query = SpjQuery::new(vec![TableId(0), TableId(1), TableId(2)], preds).unwrap();
        let catalog = base_catalog(&db, 3, 2);
        let ladder = Ladder::new(&db, &catalog, ErrorMode::Diff);
        let unlimited = ladder.estimate(&query, &Budget::unlimited());
        let generous = ladder.estimate(&query, &Budget::unlimited().with_quota(1 << 20));
        prop_assert_eq!(generous.quality, Quality::Full);
        prop_assert_eq!(generous.selectivity.to_bits(), unlimited.selectivity.to_bits());
        prop_assert_eq!(
            generous.error.unwrap().to_bits(),
            unlimited.error.unwrap().to_bits()
        );
        prop_assert!(generous.work > 0, "metered run accounts its work");
    }
}

/// A single-table query whose 16 mutually non-separable predicates make
/// the dense 2^16-mask DP far too expensive for a millisecond deadline.
fn hard_query() -> (Database, SpjQuery) {
    let n = 16u16;
    let rows = 512usize;
    let mut builder = TableBuilder::new("wide");
    for c in 0..n {
        let vals: Vec<i64> = (0..rows)
            .map(|r| ((r as i64).wrapping_mul(0x9E37 + c as i64 * 7)) % 97)
            .collect();
        builder = builder.column(&format!("c{c}"), vals);
    }
    let mut db = Database::new();
    db.add_table(builder.build().unwrap());
    let preds: Vec<Predicate> = (0..n)
        .map(|c| Predicate::range(ColRef::new(TableId(0), c), 5, 60 + (c as i64 % 20)))
        .collect();
    let query = SpjQuery::new(vec![TableId(0)], preds).unwrap();
    (db, query)
}

/// The acceptance headline: a 16-predicate query under a 1 ms deadline
/// returns a *labeled degraded* answer, quickly, instead of blocking for
/// the full 2^16 DP.
#[test]
fn hard_query_under_1ms_deadline_degrades_quickly() {
    let (db, query) = hard_query();
    let catalog = base_catalog(&db, 1, 16);
    let ladder = Ladder::new(&db, &catalog, ErrorMode::Diff);

    let start = Instant::now();
    let got = ladder.estimate(
        &query,
        &Budget::unlimited().with_deadline(Duration::from_millis(1)),
    );
    let elapsed = start.elapsed();

    assert!(
        got.quality < Quality::Full,
        "must degrade, got {:?}",
        got.quality
    );
    assert_eq!(got.degraded_reason, Some(DegradeReason::Deadline));
    assert!(got.selectivity.is_finite() && (0.0..=1.0).contains(&got.selectivity));
    // Generous bound: rung deadlines sum to ~1 ms plus per-rung epilogues;
    // anything near the full DP's runtime means the deadline was ignored.
    assert!(
        elapsed < Duration::from_secs(2),
        "degraded answer took {elapsed:?}"
    );
}

/// The same hard query cancelled mid-flight from another thread unblocks
/// promptly with the `Cancelled` reason.
#[test]
fn cancellation_from_another_thread_unblocks_the_dp() {
    let (db, query) = hard_query();
    let catalog = base_catalog(&db, 1, 16);
    let cancel = CancelToken::new();

    let canceller = {
        let cancel = cancel.clone();
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            cancel.cancel();
        })
    };

    let ladder = Ladder::new(&db, &catalog, ErrorMode::Diff);
    let start = Instant::now();
    let got = ladder.estimate(&query, &Budget::unlimited().with_cancel(cancel));
    let elapsed = start.elapsed();
    canceller.join().unwrap();

    assert!(got.quality < Quality::Full);
    assert_eq!(got.degraded_reason, Some(DegradeReason::Cancelled));
    assert!(
        elapsed < Duration::from_secs(10),
        "cancellation took {elapsed:?} to take effect"
    );
}

/// Work-quota exhaustion walks the ladder rung by rung: a tiny quota
/// lands below `Pruned`, a huge one stays `Full`, and the reason is
/// always `WorkQuota`.
#[test]
fn quota_exhaustion_reports_work_quota_reason() {
    let (db, query) = hard_query();
    let catalog = base_catalog(&db, 1, 16);
    let ladder = Ladder::new(&db, &catalog, ErrorMode::Diff);

    let tiny = ladder.estimate(&query, &Budget::unlimited().with_quota(64));
    assert!(tiny.quality < Quality::Full);
    assert_eq!(tiny.degraded_reason, Some(DegradeReason::WorkQuota));
    assert!(tiny.work <= 64 + 2, "spent {} against quota 64", tiny.work);
}
