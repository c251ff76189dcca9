//! Seeded TM-misuse fixture for `wtf-lint`. NOT compiled — this file
//! exists so CI (and `lint::tests`) can assert the linter fails on every
//! rule it claims to detect. `lint_tree` skips `fixtures/` directories,
//! so these findings never count against the real workspace.

use wtf_backend::{atomic, TBox};
use wtf_mvstm::raw::{BoxBody, Snapshot};
use wtf_mvstm::{raw, Stm};

/// raw-api: the low-level layer outside the runtime crates.
fn sneaky_read(stm: &Stm, b: &TBox<u64>) -> u64 {
    let snap = raw::acquire_snapshot(stm);
    let body = b.body().as_any().downcast_ref::<BoxBody>().unwrap();
    let (_, v) = raw::read_at(body, snap.version());
    *v.downcast_ref::<u64>().unwrap()
}

/// snapshot-retained: pins the GC horizon for the cache's lifetime.
struct SnapshotCache {
    snap: Snapshot,
}

/// thread-escape: transactional context moved into a plain OS thread.
fn escape(ctx: &mut wtf_core::TxCtx, b: TBox<u64>) {
    std::thread::spawn(move || {
        let _ = ctx.read(&b);
    });
}

/// unchecked-atomic: aborts/conflicts swallowed by unwrap.
fn transfer(stm: &Stm, a: &TBox<i64>, b: &TBox<i64>) {
    atomic(stm, |tx| {
        let x = tx.read(a)?;
        tx.write(a, x - 1)?;
        let y = tx.read(b)?;
        tx.write(b, y + 1)
    })
    .unwrap();
}
