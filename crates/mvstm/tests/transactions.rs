//! The transaction API over the multi-versioned substrate:
//! `wtf_backend::atomic` / `TBox` driving an [`Stm`] through its
//! `StmBackend` impl — the same retry loop and box handle every backend
//! shares. Protocol internals (raw commits, GC, the registry) are
//! covered by the crate's unit tests.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use wtf_backend::{atomic, TBox};
use wtf_mvstm::raw::{self, BoxBody};
use wtf_mvstm::{Stm, TxValue};

/// The mvstm body behind a typed handle.
fn body<T: TxValue>(b: &TBox<T>) -> &BoxBody {
    b.body().as_any().downcast_ref().expect("an mvstm box")
}

#[test]
fn read_own_writes() {
    let stm = Stm::new();
    let b = TBox::new_on(&stm, 1i64);
    let out = atomic(&stm, |tx| {
        tx.write(&b, 5)?;
        tx.read(&b)
    })
    .unwrap();
    assert_eq!(out, 5);
    assert_eq!(b.read_latest(), 5);
}

#[test]
fn snapshot_isolation_within_txn() {
    let stm = Stm::new();
    let b = TBox::new_on(&stm, 0i64);
    // Commit a few versions.
    for i in 1..=3 {
        atomic(&stm, |tx| tx.write(&b, i)).unwrap();
    }
    assert_eq!(b.read_latest(), 3);
    assert_eq!(stm.clock(), 3);
}

#[test]
fn read_only_commit_is_validation_free() {
    let stm = Stm::new();
    let b = TBox::new_on(&stm, 7i64);
    atomic(&stm, |tx| tx.read(&b)).unwrap();
    let s = stm.stats();
    assert_eq!(s.commits, 1);
    assert_eq!(s.read_only_commits, 1);
    assert_eq!(s.aborts, 0);
}

#[test]
fn explicit_abort_propagates() {
    let stm = Stm::new();
    let x = TBox::new_on(&stm, 0i64);
    let res: Result<(), _> = atomic(&stm, |tx| {
        tx.write(&x, 42)?;
        tx.abort()
    });
    assert!(res.is_err());
    // The aborted write must not be visible.
    assert_eq!(x.read_latest(), 0);
}

#[test]
fn atomic_retries_on_conflict_until_success() {
    // Force one conflict by committing a competing write between the
    // body's read and its commit, using a flag to only interfere once.
    let stm = Stm::new();
    let x = TBox::new_on(&stm, 0i64);
    let interfered = AtomicBool::new(false);
    let stm2 = stm.clone();
    let x2 = x.clone();
    let out = atomic(&stm, |tx| {
        let v = tx.read(&x)?;
        if !interfered.swap(true, Ordering::SeqCst) {
            // Sneak in a conflicting commit from "another thread".
            atomic(&stm2, |t2| {
                let cur = t2.read(&x2)?;
                t2.write(&x2, cur + 100)
            })
            .unwrap();
        }
        tx.write(&x, v + 1)?;
        Ok(v + 1)
    })
    .unwrap();
    // First attempt read 0 but aborted; retry read 100 and wrote 101.
    assert_eq!(out, 101);
    assert_eq!(x.read_latest(), 101);
    assert_eq!(stm.stats().aborts, 1);
}

#[test]
fn heterogeneous_box_types() {
    let stm = Stm::new();
    let a = TBox::new_on(&stm, String::from("hi"));
    let b = TBox::new_on(&stm, vec![1u8, 2, 3]);
    let c = TBox::new_on(&stm, 2.5f64);
    atomic(&stm, |tx| {
        let s = tx.read(&a)?;
        tx.write(&a, format!("{s}!"))?;
        let mut v = tx.read(&b)?;
        v.push(4);
        tx.write(&b, v)?;
        let f = tx.read(&c)?;
        tx.write(&c, f * 2.0)
    })
    .unwrap();
    assert_eq!(a.read_latest(), "hi!");
    assert_eq!(b.read_latest(), vec![1, 2, 3, 4]);
    assert_eq!(c.read_latest(), 5.0);
}

#[test]
fn concurrent_bank_invariant_real_threads() {
    // Classic invariant stress: total balance is conserved under
    // concurrent random transfers.
    const ACCOUNTS: usize = 32;
    const THREADS: usize = 4;
    const TRANSFERS: usize = 500;
    let stm = Stm::new();
    let accounts: Arc<Vec<TBox<i64>>> = Arc::new(
        (0..ACCOUNTS)
            .map(|_| TBox::new_on(&stm, 1000i64))
            .collect::<Vec<_>>(),
    );
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let stm = stm.clone();
            let accounts = accounts.clone();
            std::thread::spawn(move || {
                let mut seed = 0x243f_6a88_85a3_08d3u64 ^ (t as u64);
                let mut next = || {
                    seed ^= seed << 13;
                    seed ^= seed >> 7;
                    seed ^= seed << 17;
                    seed
                };
                let mut done = 0;
                while done < TRANSFERS {
                    let from = (next() % ACCOUNTS as u64) as usize;
                    let to = (next() % ACCOUNTS as u64) as usize;
                    if from == to {
                        // A self-transfer with read-both-then-write-both
                        // ordering legitimately nets +amount; skip it so the
                        // conservation invariant stays exact.
                        continue;
                    }
                    done += 1;
                    let amount = (next() % 50) as i64;
                    atomic(&stm, |tx| {
                        let f = tx.read(&accounts[from])?;
                        let t = tx.read(&accounts[to])?;
                        tx.write(&accounts[from], f - amount)?;
                        tx.write(&accounts[to], t + amount)?;
                        Ok(())
                    })
                    .unwrap();
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let total = atomic(&stm, |tx| {
        let mut sum = 0i64;
        for a in accounts.iter() {
            sum += tx.read(a)?;
        }
        Ok(sum)
    })
    .unwrap();
    assert_eq!(total, 1000 * ACCOUNTS as i64);
    assert_eq!(stm.stats().commits, THREADS as u64 * TRANSFERS as u64 + 1);
}

#[test]
fn disabled_tracer_stm_records_nothing() {
    let stm = Stm::new();
    let x = TBox::new_on(&stm, 0i64);
    for i in 0..10 {
        atomic(&stm, |tx| tx.write(&x, i)).unwrap();
    }
    let summary = stm.tracer().summary();
    assert!(!summary.enabled());
    assert_eq!(summary.events_recorded, 0);
    assert_eq!(summary.commit_latency.count, 0);
    assert_eq!(summary.conflict_total, 0);
}

mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// Sequential oracle check: a random sequence of single-threaded
    /// transactions over a few boxes behaves exactly like plain variables.
    #[derive(Debug, Clone)]
    enum Op {
        Add(usize, i64),
        Copy(usize, usize),
        Swap(usize, usize),
    }

    fn op_strategy(nboxes: usize) -> impl Strategy<Value = Op> {
        prop_oneof![
            (0..nboxes, -100i64..100).prop_map(|(i, d)| Op::Add(i, d)),
            (0..nboxes, 0..nboxes).prop_map(|(a, b)| Op::Copy(a, b)),
            (0..nboxes, 0..nboxes).prop_map(|(a, b)| Op::Swap(a, b)),
        ]
    }

    proptest! {
        #[test]
        fn matches_sequential_oracle(ops in proptest::collection::vec(op_strategy(4), 1..60)) {
            let stm = Stm::new();
            let boxes: Vec<TBox<i64>> = (0..4).map(|i| TBox::new_on(&stm, i as i64)).collect();
            let mut oracle = [0i64, 1, 2, 3];
            for op in &ops {
                match *op {
                    Op::Add(i, d) => {
                        atomic(&stm, |tx| {
                            let v = tx.read(&boxes[i])?;
                            tx.write(&boxes[i], v + d)
                        }).unwrap();
                        oracle[i] += d;
                    }
                    Op::Copy(a, b) => {
                        atomic(&stm, |tx| {
                            let v = tx.read(&boxes[a])?;
                            tx.write(&boxes[b], v)
                        }).unwrap();
                        oracle[b] = oracle[a];
                    }
                    Op::Swap(a, b) => {
                        atomic(&stm, |tx| {
                            let va = tx.read(&boxes[a])?;
                            let vb = tx.read(&boxes[b])?;
                            tx.write(&boxes[a], vb)?;
                            tx.write(&boxes[b], va)
                        }).unwrap();
                        oracle.swap(a, b);
                    }
                }
            }
            for (i, b) in boxes.iter().enumerate() {
                prop_assert_eq!(b.read_latest(), oracle[i]);
            }
        }

        #[test]
        fn version_chains_never_lose_newest(writes in 1usize..40) {
            let stm = Stm::new();
            let x = TBox::new_on(&stm, 0usize);
            for i in 1..=writes {
                atomic(&stm, |tx| tx.write(&x, i)).unwrap();
            }
            prop_assert_eq!(x.read_latest(), writes);
            prop_assert_eq!(raw::version_chain_len(body(&x)), 1);
        }
    }
}
