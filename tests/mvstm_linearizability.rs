//! Linearizability stress for the striped mvstm commit path.
//!
//! Real threads hammer the STM with mixed update / read-only
//! transactions and check the two properties that die first when a
//! commit protocol is wrong:
//!
//! * **conservation** — concurrent bank transfers never create or
//!   destroy money, and *every* read-only audit (which commits with no
//!   validation at all) observes the conserved sum: an audit that saw a
//!   torn transfer would prove a snapshot exposed a half-installed
//!   commit;
//! * **zero lost updates** — N threads × M increments of one hot
//!   counter end at exactly N×M, so no commit ever overwrote another
//!   without one of them aborting and retrying.
//!
//! The first half drives an mvstm [`Stm`] directly (and checks its
//! mvstm-only guarantees: validation-free read-only audits, version-chain
//! GC); the second half re-runs the same properties on every
//! [`BackendKind`] through `make_backend` — under TL2 audits can conflict
//! and retry, but a *committed* audit must still see the conserved sum.
//! Both halves run through the one backend retry loop, [`atomic`].

use std::sync::Arc;
use transactional_futures::backend::{atomic, BackendKind, StmBackend, TBox};
use transactional_futures::stm::raw::{self, BoxBody};
use transactional_futures::stm::{Stm, TxValue};
use transactional_futures::tm::make_backend;
use transactional_futures::trace::{TraceLevel, Tracer};

/// The mvstm body behind a typed handle.
fn body<T: TxValue>(b: &TBox<T>) -> &BoxBody {
    b.body().as_any().downcast_ref().expect("an mvstm box")
}

fn xorshift(seed: &mut u64) -> u64 {
    *seed ^= *seed << 13;
    *seed ^= *seed >> 7;
    *seed ^= *seed << 17;
    *seed
}

/// Random transfers between `ACCOUNTS` accounts from `threads` threads,
/// with every 4th transaction a read-only full-sum audit.
fn run_bank(threads: usize, ops_per_thread: usize) {
    const ACCOUNTS: usize = 64;
    const INITIAL: i64 = 1_000;
    let stm = Stm::new();
    let accounts: Arc<Vec<TBox<i64>>> = Arc::new(
        (0..ACCOUNTS)
            .map(|_| TBox::new_on(&stm, INITIAL))
            .collect::<Vec<_>>(),
    );
    let expected_total = INITIAL * ACCOUNTS as i64;

    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let stm = stm.clone();
            let accounts = accounts.clone();
            std::thread::spawn(move || {
                let mut seed = 0x9e37_79b9_7f4a_7c15u64 ^ (t as u64 + 1);
                for op in 0..ops_per_thread {
                    if op % 4 == 3 {
                        // Read-only audit: must see a consistent snapshot.
                        let total = atomic(&stm, |tx| {
                            let mut sum = 0i64;
                            for a in accounts.iter() {
                                sum += tx.read(a)?;
                            }
                            Ok(sum)
                        })
                        .unwrap();
                        assert_eq!(total, expected_total, "audit saw a torn transfer");
                    } else {
                        let mut from = (xorshift(&mut seed) % ACCOUNTS as u64) as usize;
                        let mut to = (xorshift(&mut seed) % ACCOUNTS as u64) as usize;
                        if from == to {
                            to = (to + 1) % ACCOUNTS;
                            if from == to {
                                from = (from + 1) % ACCOUNTS;
                            }
                        }
                        let amount = (xorshift(&mut seed) % 100) as i64;
                        atomic(&stm, |tx| {
                            let f = tx.read(&accounts[from])?;
                            let t = tx.read(&accounts[to])?;
                            tx.write(&accounts[from], f - amount)?;
                            tx.write(&accounts[to], t + amount)?;
                            Ok(())
                        })
                        .unwrap();
                    }
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
    assert_eq!(total, expected_total);

    let stats = stm.stats();
    // Every loop iteration commits exactly one transaction (retries are
    // internal to `atomic`), plus the final audit above.
    assert_eq!(stats.commits, (threads * ops_per_thread) as u64 + 1);
    let audits = (threads * (ops_per_thread / 4)) as u64 + 1;
    assert_eq!(stats.read_only_commits, audits);
    // GC keeps every chain finite: pruning runs at commit time, so after
    // one more update commit per account (with no snapshots live) each
    // chain collapses to exactly its newest version.
    for a in accounts.iter() {
        atomic(&stm, |tx| {
            let v = tx.read(a)?;
            tx.write(a, v)
        })
        .unwrap();
        assert_eq!(raw::version_chain_len(body(a)), 1);
    }
}

#[test]
fn bank_conserves_sum_2_threads() {
    run_bank(2, 1500);
}

#[test]
fn bank_conserves_sum_4_threads() {
    run_bank(4, 1500);
}

#[test]
fn bank_conserves_sum_8_threads() {
    run_bank(8, 1500);
}

/// All threads increment one hot box (worst case for the striped commit
/// path: every commit collides on the same stripe) plus a private box.
/// Any lost update shows up as a shortfall in the final counts.
#[test]
fn no_lost_updates_on_hot_counter() {
    const THREADS: usize = 8;
    const INCREMENTS: usize = 1_000;
    let stm = Stm::new();
    let shared = TBox::new_on(&stm, 0i64);
    let privates: Arc<Vec<TBox<i64>>> = Arc::new(
        (0..THREADS)
            .map(|_| TBox::new_on(&stm, 0i64))
            .collect::<Vec<_>>(),
    );

    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let stm = stm.clone();
            let shared = shared.clone();
            let privates = privates.clone();
            std::thread::spawn(move || {
                for _ in 0..INCREMENTS {
                    atomic(&stm, |tx| {
                        let s = tx.read(&shared)?;
                        tx.write(&shared, s + 1)?;
                        let p = tx.read(&privates[t])?;
                        tx.write(&privates[t], p + 1)?;
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

    assert_eq!(shared.read_latest(), (THREADS * INCREMENTS) as i64);
    for p in privates.iter() {
        assert_eq!(p.read_latest(), INCREMENTS as i64);
    }
    assert_eq!(stm.stats().commits, (THREADS * INCREMENTS) as u64);
}

/// Backend-generic bank: the same conservation property driven through
/// [`atomic`]/[`BackendTxn`](transactional_futures::backend::BackendTxn)
/// on an arbitrary substrate. Audits may conflict and retry on TL2
/// (single-version reads fail when a box moves past the snapshot), so
/// only committed audits are asserted — and every one of them must see
/// the conserved sum.
fn run_bank_on(kind: BackendKind, threads: usize, ops_per_thread: usize) {
    const ACCOUNTS: usize = 64;
    const INITIAL: i64 = 1_000;
    let tracer = Tracer::with_capacity(TraceLevel::Off, 0);
    let backend: Arc<dyn StmBackend> = make_backend(kind, tracer);
    let accounts: Arc<Vec<TBox<i64>>> = Arc::new(
        (0..ACCOUNTS)
            .map(|_| TBox::new_on(&*backend, INITIAL))
            .collect::<Vec<_>>(),
    );
    let expected_total = INITIAL * ACCOUNTS as i64;

    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let backend = backend.clone();
            let accounts = accounts.clone();
            std::thread::spawn(move || {
                let mut seed = 0x9e37_79b9_7f4a_7c15u64 ^ (t as u64 + 1);
                for op in 0..ops_per_thread {
                    if op % 4 == 3 {
                        let total = atomic(&*backend, |tx| {
                            let mut sum = 0i64;
                            for a in accounts.iter() {
                                sum += tx.read(a)?;
                            }
                            Ok(sum)
                        })
                        .unwrap();
                        assert_eq!(total, expected_total, "{kind:?}: audit saw a torn transfer");
                    } else {
                        let mut from = (xorshift(&mut seed) % ACCOUNTS as u64) as usize;
                        let mut to = (xorshift(&mut seed) % ACCOUNTS as u64) as usize;
                        if from == to {
                            to = (to + 1) % ACCOUNTS;
                            if from == to {
                                from = (from + 1) % ACCOUNTS;
                            }
                        }
                        let amount = (xorshift(&mut seed) % 100) as i64;
                        atomic(&*backend, |tx| {
                            let f = tx.read(&accounts[from])?;
                            let t = tx.read(&accounts[to])?;
                            tx.write(&accounts[from], f - amount)?;
                            tx.write(&accounts[to], t + amount)?;
                            Ok(())
                        })
                        .unwrap();
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    let total = atomic(&*backend, |tx| {
        let mut sum = 0i64;
        for a in accounts.iter() {
            sum += tx.read(a)?;
        }
        Ok(sum)
    })
    .unwrap();
    assert_eq!(total, expected_total, "{kind:?}");

    let stats = backend.stats();
    // Every loop iteration commits exactly one transaction (conflicted
    // attempts retry inside `atomic`), plus the final audit above.
    assert_eq!(
        stats.commits,
        (threads * ops_per_thread) as u64 + 1,
        "{kind:?}"
    );
    let audits = (threads * (ops_per_thread / 4)) as u64 + 1;
    assert_eq!(stats.read_only_commits, audits, "{kind:?}");
}

#[test]
fn backends_conserve_sum_4_threads() {
    for kind in BackendKind::ALL {
        run_bank_on(kind, 4, 1000);
    }
}

/// Backend-generic hot counter: any lost update on either substrate
/// shows up as a shortfall in the final counts.
#[test]
fn backends_lose_no_updates_on_hot_counter() {
    const THREADS: usize = 8;
    const INCREMENTS: usize = 500;
    for kind in BackendKind::ALL {
        let tracer = Tracer::with_capacity(TraceLevel::Off, 0);
        let backend: Arc<dyn StmBackend> = make_backend(kind, tracer);
        let shared = TBox::new_on(&*backend, 0i64);
        let privates: Arc<Vec<TBox<i64>>> = Arc::new(
            (0..THREADS)
                .map(|_| TBox::new_on(&*backend, 0i64))
                .collect::<Vec<_>>(),
        );

        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let backend = backend.clone();
                let shared = shared.clone();
                let privates = privates.clone();
                std::thread::spawn(move || {
                    for _ in 0..INCREMENTS {
                        atomic(&*backend, |tx| {
                            let s = tx.read(&shared)?;
                            tx.write(&shared, s + 1)?;
                            let p = tx.read(&privates[t])?;
                            tx.write(&privates[t], p + 1)?;
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

        assert_eq!(
            shared.read_latest(),
            (THREADS * INCREMENTS) as i64,
            "{kind:?}"
        );
        for p in privates.iter() {
            assert_eq!(p.read_latest(), INCREMENTS as i64, "{kind:?}");
        }
        assert_eq!(
            backend.stats().commits,
            (THREADS * INCREMENTS) as u64,
            "{kind:?}"
        );
    }
}
