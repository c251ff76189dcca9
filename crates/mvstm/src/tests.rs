//! Unit tests for the multi-versioned substrate's protocol, driven
//! through [`raw`] and the crate internals. The transaction API over
//! `Stm` lives in `wtf-backend`; its tests are this crate's integration
//! tests (`tests/transactions.rs`).

use crate::value::{downcast_value, TxValue, Value};
use crate::{raw, raw::BoxBody, Stm};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

fn new_box<T: TxValue>(stm: &Stm, value: T) -> Arc<BoxBody> {
    raw::new_box_body(stm, Arc::new(value))
}

/// The newest committed value (the head node, outside any snapshot).
fn latest<T: TxValue>(body: &BoxBody) -> T {
    downcast_value(&raw::read_at(body, u64::MAX).1)
}

/// Commits a blind write of `value` to `body` from a fresh snapshot —
/// the raw protocol a one-write transaction runs.
fn put<T: TxValue>(stm: &Stm, body: &BoxBody, value: T) {
    let snap = raw::acquire_snapshot(stm);
    let value: Value = Arc::new(value);
    raw::commit_attributed(
        stm,
        snap.version(),
        std::iter::empty(),
        std::iter::once((body, &value)),
    )
    .expect("a blind write cannot fail validation");
}

#[test]
fn conflicting_writers_abort_and_retry() {
    // Interleave two transactions by hand through the raw API: T1 reads x,
    // T2 commits x, T1's commit must fail validation.
    let stm = Stm::new();
    let x = new_box(&stm, 0i64);
    let y = new_box(&stm, 0i64);

    let snap1 = raw::acquire_snapshot(&stm);
    let (v0, _) = raw::read_at(&x, snap1.version());
    assert_eq!(v0, 0);

    // T2 commits a write to x.
    put(&stm, &x, 99i64);

    // T1 tries to commit {read x, write y} at the old snapshot: conflict,
    // attributed to x.
    let one: Value = Arc::new(1i64);
    let err = raw::commit_attributed(
        &stm,
        snap1.version(),
        std::iter::once(&*x),
        std::iter::once((&*y, &one)),
    )
    .unwrap_err();
    assert_eq!(err, raw::id_of(&x));
}

#[test]
fn blind_write_commits_without_validation_failure() {
    let stm = Stm::new();
    let x = new_box(&stm, 0i64);

    let snap1 = raw::acquire_snapshot(&stm);
    // Concurrent committer bumps x.
    put(&stm, &x, 5i64);
    // Blind write (no reads) from the old snapshot still commits: the
    // transaction is logically instantaneous at commit time.
    let ten: Value = Arc::new(10i64);
    raw::commit_attributed(
        &stm,
        snap1.version(),
        std::iter::empty(),
        std::iter::once((&*x, &ten)),
    )
    .unwrap();
    assert_eq!(latest::<i64>(&x), 10);
}

#[test]
fn old_snapshot_reads_old_version() {
    let stm = Stm::new();
    let x = new_box(&stm, 1i64);
    let snap = raw::acquire_snapshot(&stm);
    put(&stm, &x, 2i64);
    put(&stm, &x, 3i64);
    let (ver, val) = raw::read_at(&x, snap.version());
    assert_eq!(ver, 0);
    assert_eq!(*val.downcast_ref::<i64>().unwrap(), 1);
    // And the latest snapshot sees the newest.
    assert_eq!(latest::<i64>(&x), 3);
}

#[test]
fn gc_prunes_unreachable_versions() {
    let stm = Stm::new();
    let x = new_box(&stm, 0i64);
    for i in 1..=50i64 {
        put(&stm, &x, i);
    }
    // No other snapshots: each commit prunes everything older than itself.
    assert_eq!(x.chain_len(), 1);
    assert!(stm.stats().versions_pruned >= 49);
}

#[test]
fn gc_respects_active_snapshots() {
    let stm = Stm::new();
    let x = new_box(&stm, 0i64);
    put(&stm, &x, 1i64);
    let snap = raw::acquire_snapshot(&stm); // pins version 1
    for i in 2..=20i64 {
        put(&stm, &x, i);
    }
    // Versions newer than the pinned snapshot are all kept, plus the
    // version the snapshot reads: 19 new + 1 pinned.
    assert_eq!(x.chain_len(), 20);
    let (ver, val) = raw::read_at(&x, snap.version());
    assert_eq!((ver, *val.downcast_ref::<i64>().unwrap()), (1, 1));
    drop(snap);
    put(&stm, &x, 100i64);
    assert_eq!(x.chain_len(), 1);
}

#[test]
fn gc_can_be_disabled() {
    let stm = Stm::new();
    stm.set_gc_enabled(false);
    let x = new_box(&stm, 0i64);
    for i in 1..=10i64 {
        put(&stm, &x, i);
    }
    assert_eq!(x.chain_len(), 11);
}

#[test]
fn snapshot_registry_counts() {
    let stm = Stm::new();
    assert_eq!(raw::active_snapshots(&stm), 0);
    let s1 = raw::acquire_snapshot(&stm);
    let s2 = raw::acquire_snapshot(&stm);
    assert_eq!(raw::active_snapshots(&stm), 1); // same version, one entry
    let x = new_box(&stm, 0i64);
    put(&stm, &x, 1i64);
    let s3 = raw::acquire_snapshot(&stm);
    assert_eq!(raw::active_snapshots(&stm), 2);
    drop(s1);
    drop(s2);
    drop(s3);
    assert_eq!(raw::active_snapshots(&stm), 0);
}

#[test]
fn tracer_attributes_conflicts_and_measures_commits() {
    use wtf_trace::{TraceLevel, Tracer};
    let tracer = Tracer::new(TraceLevel::Lifecycle);
    let stm = Stm::with_tracer(Arc::clone(&tracer));
    let x = new_box(&stm, 0i64);
    let y = new_box(&stm, 0i64);

    // Interleave by hand as in `conflicting_writers_abort_and_retry`:
    // T1 reads x at an old snapshot; T2 bumps x; T1's commit conflicts.
    let snap1 = raw::acquire_snapshot(&stm);
    raw::read_at(&x, snap1.version());
    put(&stm, &x, 99i64);
    let one: Value = Arc::new(1i64);
    let err = raw::commit_attributed(
        &stm,
        snap1.version(),
        std::iter::once(&*x),
        std::iter::once((&*y, &one)),
    )
    .unwrap_err();
    assert_eq!(err, raw::id_of(&x));

    // The abort is charged to x, the box whose validation failed.
    let summary = tracer.summary();
    assert_eq!(summary.conflict_total, 1);
    assert_eq!(summary.hotspots, vec![(raw::id_of(&x).0, 1)]);
    // The successful commit fed the latency histograms.
    assert_eq!(summary.commit_latency.count, 1);
    assert_eq!(summary.validation_latency.count, 1);
    assert_eq!(summary.publish_wait.count, 1);
    assert!(tracer.events_recorded() > 0);
}

/// Regression test for the snapshot-registration/GC race: readers begin
/// snapshots while writers commit-and-prune as fast as possible. Before
/// the fix (publish-then-recheck registration + pruning after clock
/// publication) this panicked with "no version visible at snapshot".
#[test]
fn snapshot_gc_race_regression() {
    let stm = Stm::new();
    let x = new_box(&stm, 0i64);
    let stop = Arc::new(AtomicBool::new(false));
    let writer = {
        let stm = stm.clone();
        let x = x.clone();
        let stop = stop.clone();
        std::thread::spawn(move || {
            let mut i = 0i64;
            while !stop.load(Ordering::Relaxed) {
                put(&stm, &x, i);
                i += 1;
            }
        })
    };
    let readers: Vec<_> = (0..3)
        .map(|_| {
            let stm = stm.clone();
            let x = x.clone();
            let stop = stop.clone();
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    // begin a snapshot and read through it immediately
                    let snap = raw::acquire_snapshot(&stm);
                    let (ver, _) = raw::read_at(&x, snap.version());
                    assert!(ver <= snap.version());
                }
            })
        })
        .collect();
    std::thread::sleep(std::time::Duration::from_millis(300));
    stop.store(true, Ordering::Relaxed);
    writer.join().unwrap();
    for r in readers {
        r.join().unwrap();
    }
}

/// The commit path must have no global mutex: holding one stripe hostage
/// stalls only commits whose footprint includes that stripe, while
/// commits on disjoint stripes sail through.
#[test]
fn disjoint_commits_proceed_while_stripe_is_held() {
    let stm = Stm::new();
    let a = new_box(&stm, 0i64);
    let mut b = new_box(&stm, 0i64);
    while raw::stripe_index(raw::id_of(&b)) == raw::stripe_index(raw::id_of(&a)) {
        b = new_box(&stm, 0i64);
    }

    let hostage = raw::hold_stripe(&stm, raw::stripe_index(raw::id_of(&a)));

    // A commit touching only b's stripe completes while a's is hostage.
    // (With the old global commit mutex this join would hang forever.)
    {
        let stm = stm.clone();
        let b = b.clone();
        std::thread::spawn(move || put(&stm, &b, 1i64))
            .join()
            .unwrap();
    }
    assert_eq!(latest::<i64>(&b), 1);

    // A commit touching a's stripe blocks until the hostage is released.
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    let blocked = {
        let stm = stm.clone();
        let a = a.clone();
        std::thread::spawn(move || {
            put(&stm, &a, 1i64);
            done_tx.send(()).unwrap();
        })
    };
    assert!(
        done_rx
            .recv_timeout(std::time::Duration::from_millis(150))
            .is_err(),
        "commit on the held stripe should be blocked"
    );
    drop(hostage);
    done_rx
        .recv_timeout(std::time::Duration::from_secs(10))
        .expect("commit should complete once the stripe is released");
    blocked.join().unwrap();
    assert_eq!(latest::<i64>(&a), 1);
}

/// Direct race on the sharded registry: while one snapshot stays pinned,
/// the GC horizon returned to a concurrent committer must never exceed
/// it, no matter how hard other threads churn register/deregister
/// against a moving clock.
#[test]
fn registry_horizon_never_exceeds_live_snapshot() {
    use crate::registry::ActiveRegistry;
    use std::sync::atomic::AtomicU64;

    let reg = Arc::new(ActiveRegistry::new());
    let clock = Arc::new(AtomicU64::new(0));
    let (pin_ver, pin_token) = reg.register_current(&clock);
    assert_eq!(pin_ver, 0);

    let stop = Arc::new(AtomicBool::new(false));
    let ticker = {
        let clock = clock.clone();
        let stop = stop.clone();
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                clock.fetch_add(1, Ordering::SeqCst);
            }
        })
    };
    let churners: Vec<_> = (0..4)
        .map(|_| {
            let reg = reg.clone();
            let clock = clock.clone();
            let stop = stop.clone();
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    let (v, t) = reg.register_current(&clock);
                    reg.deregister(t, v);
                }
            })
        })
        .collect();

    let deadline = std::time::Instant::now() + std::time::Duration::from_millis(300);
    while std::time::Instant::now() < deadline {
        let fallback = clock.load(Ordering::SeqCst);
        let horizon = reg.min_active_excluding(u64::MAX, fallback);
        assert!(
            horizon <= pin_ver,
            "GC horizon {horizon} exceeded pinned live snapshot {pin_ver}"
        );
    }

    stop.store(true, Ordering::Relaxed);
    ticker.join().unwrap();
    for c in churners {
        c.join().unwrap();
    }
    reg.deregister(pin_token, pin_ver);
    assert_eq!(reg.min_active_excluding(u64::MAX, 12345), 12345);
    assert_eq!(reg.active_snapshots(), 0);
    assert_eq!(reg.occupancy(), 0);
}

/// The live gauges registered by a traced STM track retained versions,
/// GC horizon lag and registry occupancy through a pin-then-release
/// scenario.
#[test]
fn live_gauges_track_versions_and_horizon() {
    use wtf_trace::{TraceLevel, Tracer};
    let tracer = Tracer::new(TraceLevel::Lifecycle);
    let stm = Stm::with_tracer(tracer.clone());
    let gauge = |name: &str| {
        tracer
            .gauges
            .read_all()
            .into_iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("gauge {name} registered"))
    };
    let b = new_box(&stm, 0i64);
    put(&stm, &b, 1i64);
    assert_eq!(gauge("stm_clock"), 1);
    assert_eq!(gauge("stm_gc_horizon_lag"), 0, "nothing active");
    assert_eq!(gauge("stm_registry_occupancy"), 0);
    // Pin the current snapshot, then commit twice more: GC cannot prune
    // past the pin, so retained versions and horizon lag both grow.
    let pin = raw::acquire_snapshot(&stm);
    for i in 2..=3i64 {
        put(&stm, &b, i);
    }
    assert_eq!(gauge("stm_clock"), 3);
    assert_eq!(gauge("stm_gc_horizon_lag"), 3 - pin.version());
    assert_eq!(gauge("stm_registry_occupancy"), 1);
    assert_eq!(gauge("stm_active_snapshots"), 1);
    assert!(
        gauge("stm_retained_versions") >= 2,
        "pinned chain retains the pinned version plus the head"
    );
    drop(pin);
    // Releasing the pin lets the next commit's GC collapse the chain.
    put(&stm, &b, 4i64);
    assert_eq!(gauge("stm_gc_horizon_lag"), 0);
    assert_eq!(gauge("stm_retained_versions"), stm.retained_versions());
    assert_eq!(stm.gc_horizon_lag(), 0);
}

/// End-to-end churn: snapshot register/deregister racing committing
/// pruners. Reads through a live snapshot must never fall off the chain,
/// and once everything quiesces GC collapses each chain to one version.
#[test]
fn registry_churn_vs_pruning_commits() {
    let stm = Stm::new();
    let boxes: Vec<Arc<BoxBody>> = (0..4).map(|_| new_box(&stm, 0i64)).collect();
    let stop = Arc::new(AtomicBool::new(false));

    let writers: Vec<_> = (0..2)
        .map(|w| {
            let stm = stm.clone();
            let boxes = boxes.clone();
            let stop = stop.clone();
            std::thread::spawn(move || {
                let mut i = 0i64;
                while !stop.load(Ordering::Relaxed) {
                    let b = &boxes[(w * 2 + (i as usize & 1)) % boxes.len()];
                    put(&stm, b, i);
                    i += 1;
                }
            })
        })
        .collect();
    let churners: Vec<_> = (0..3)
        .map(|c| {
            let stm = stm.clone();
            let boxes = boxes.clone();
            let stop = stop.clone();
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    let snap = raw::acquire_snapshot(&stm);
                    for b in boxes.iter().skip(c % boxes.len()) {
                        let (ver, _) = raw::read_at(b, snap.version());
                        assert!(ver <= snap.version());
                    }
                    // chain_len takes the box stripe: also races the pruners.
                    assert!(boxes[c % boxes.len()].chain_len() >= 1);
                }
            })
        })
        .collect();

    std::thread::sleep(std::time::Duration::from_millis(300));
    stop.store(true, Ordering::Relaxed);
    for w in writers {
        w.join().unwrap();
    }
    for c in churners {
        c.join().unwrap();
    }
    // Quiesce: one more pruning commit per box collapses every chain.
    for b in &boxes {
        put(&stm, b, -1i64);
        assert_eq!(b.chain_len(), 1);
    }
}

mod chain_proptests {
    use crate::stripe::StripeTable;
    use crate::value::Value;
    use crate::vbox::BoxBody;
    use crate::BoxId;
    use proptest::prelude::*;
    use std::sync::Arc;

    proptest! {
        /// Oracle check for the lock-free cons-list chain: arbitrary
        /// interleavings of install / read_at / prune behave exactly like
        /// a newest-first vector, `read_at` always returns the newest
        /// version at-or-below the snapshot, and prune never drops the
        /// newest version at-or-below its horizon.
        #[test]
        fn chain_matches_oracle(ops in proptest::collection::vec((0u8..3, 1u64..4, 0u64..64), 1..80)) {
            let stripes = Arc::new(StripeTable::new());
            let id = BoxId(0);
            let body = BoxBody::new(id, stripes.clone(), 0, Arc::new(0u64) as Value);
            // Oracle chain, newest first: (version, value).
            let mut oracle: Vec<(u64, u64)> = vec![(0, 0)];
            let mut last_version = 0u64;
            let mut next_value = 0u64;
            for &(kind, gap, pick) in &ops {
                match kind {
                    0 => {
                        last_version += gap; // gaps model skipped tickets elsewhere
                        next_value += 1;
                        {
                            let _stripe = stripes.lock_mask(StripeTable::mask_of(id));
                            body.install(last_version, Arc::new(next_value) as Value);
                        }
                        oracle.insert(0, (last_version, next_value));
                    }
                    1 => {
                        let snapshot = pick % (last_version + 2);
                        // When all versions <= snapshot were pruned away,
                        // read_at would (correctly) panic — no live
                        // transaction can hold such a snapshot — so only
                        // read when the oracle says something is visible.
                        if let Some(&(ev, eval)) = oracle.iter().find(|(v, _)| *v <= snapshot) {
                            let (rv, rval) = body.read_at(snapshot);
                            prop_assert_eq!(rv, ev);
                            prop_assert_eq!(*rval.downcast_ref::<u64>().unwrap(), eval);
                        }
                    }
                    _ => {
                        let min_active = pick % (last_version + 2);
                        {
                            let _stripe = stripes.lock_mask(StripeTable::mask_of(id));
                            body.prune(min_active);
                        }
                        if let Some(keep) = oracle.iter().position(|(v, _)| *v <= min_active) {
                            oracle.truncate(keep + 1);
                            // The newest version <= min_active must survive.
                            let (rv, _) = body.read_at(min_active);
                            prop_assert_eq!(rv, oracle[oracle.len() - 1].0);
                        }
                    }
                }
                prop_assert_eq!(body.chain_len(), oracle.len());
            }
        }
    }
}
