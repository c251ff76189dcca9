//! The Bank transactions, written against the library's public API, with
//! optional spans around every call into it.

use crate::ops::{Op, ACCOUNTS, INITIAL_BALANCE};
use crate::spans::{self, Fine, Name, Scope, Span};
use std::sync::Arc;
use std::time::Instant;
use wtf_core::{Aborted, FutureTm, TxCtx, TxFuture, TxResult, VBox};

pub type Accounts = Arc<Vec<VBox<i64>>>;

pub fn open_accounts(tm: &FutureTm) -> Accounts {
    Arc::new(
        (0..ACCOUNTS)
            .map(|_| tm.new_vbox(INITIAL_BALANCE))
            .collect(),
    )
}

fn read(ctx: &mut TxCtx, b: &VBox<i64>, scope: Option<&Scope>) -> TxResult<i64> {
    let Some(sc) = scope else {
        return ctx.read(b);
    };
    spans::count_read();
    match sc.fine {
        Fine::Off => ctx.read(b),
        Fine::Core => sc.span(Name::Read, 0, || ctx.read(b)),
        Fine::Vclock => sc.span(Name::VclockCall, spans::VCALL_READ, || ctx.read(b)),
    }
}

fn write(ctx: &mut TxCtx, b: &VBox<i64>, v: i64, scope: Option<&Scope>) -> TxResult<()> {
    let Some(sc) = scope else {
        return ctx.write(b, v);
    };
    spans::count_write();
    match sc.fine {
        Fine::Off => ctx.write(b, v),
        Fine::Core => sc.span(Name::Write, 0, || ctx.write(b, v)),
        Fine::Vclock => sc.span(Name::VclockCall, spans::VCALL_WRITE, || ctx.write(b, v)),
    }
}

fn work(ctx: &TxCtx, iters: u64, scope: Option<&Scope>) {
    if iters == 0 {
        return;
    }
    match scope {
        Some(sc) if sc.fine == Fine::Vclock => {
            sc.span(Name::VclockCall, spans::VCALL_WORK, || ctx.work(iters))
        }
        _ => ctx.work(iters),
    }
}

/// Applies one op. A transfer returns 0, a scan the total it read.
/// `iter` is the simulated CPU work per transfer pair (a scan charges
/// `iter / 16` per account), as in the Fig. 8 harness; the real-clock
/// workloads pass 0.
pub fn apply(
    ctx: &mut TxCtx,
    acc: &[VBox<i64>],
    op: &Op,
    iter: u64,
    scope: Option<&Scope>,
) -> TxResult<i64> {
    match op {
        Op::Transfer { pairs, amount } => {
            for &(from, to) in pairs {
                let (from, to) = (&acc[from as usize], &acc[to as usize]);
                work(ctx, iter, scope);
                let f = read(ctx, from, scope)?;
                write(ctx, from, f - amount, scope)?;
                let t = read(ctx, to, scope)?;
                write(ctx, to, t + amount, scope)?;
            }
            Ok(0)
        }
        Op::Scan => {
            let mut total = 0;
            for a in acc {
                work(ctx, iter / 16, scope);
                total += read(ctx, a, scope)?;
            }
            Ok(total)
        }
    }
}

/// `FutureTm::atomic`, traced when `fine` is set: a `core.atomic` span
/// around the call and a `core.attempt` span around every body invocation.
pub fn atomic<T>(
    tm: &FutureTm,
    fine: Option<Fine>,
    mut body: impl FnMut(&mut TxCtx, Option<&Scope>) -> TxResult<T>,
) -> Result<T, Aborted> {
    let Some(fine) = fine else {
        return tm.atomic(|ctx| body(ctx, None));
    };
    let id = spans::new_id();
    let start = spans::now_ns();
    let r = tm.atomic(|ctx| {
        let sc = Scope {
            atomic: id,
            parent: spans::new_id(),
            fine,
        };
        let a0 = spans::now_ns();
        let r = body(ctx, Some(&sc));
        spans::record(Span {
            id: sc.parent,
            parent: id,
            atomic: id,
            name: Name::Attempt,
            start: a0,
            end: spans::now_ns(),
            arg: 0,
        });
        r
    });
    spans::record(Span {
        id,
        parent: spans::ROOT,
        atomic: id,
        name: Name::Atomic,
        start,
        end: spans::now_ns(),
        arg: 0,
    });
    r
}

/// One settled future of a chunk: its op kind, its latency from the
/// `submit` call to the `evaluate_any` that returned it, and its value.
#[derive(Clone, Copy, Debug)]
pub struct Settled {
    pub scan: bool,
    pub us: f64,
    pub value: i64,
}

/// The body of one futures chunk (WTF-OutOfOrder): every op runs in a
/// future, at most `in_flight` at a time, settled by `evaluate_any`.
/// `out` receives this attempt's settled futures.
pub fn futures_chunk(
    ctx: &mut TxCtx,
    scope: Option<&Scope>,
    acc: &Accounts,
    chunk: &[Op],
    in_flight: usize,
    iter: u64,
    out: &mut Vec<Settled>,
) -> TxResult<()> {
    out.clear();
    let mut futs: Vec<TxFuture<i64>> = Vec::with_capacity(in_flight);
    // (is scan, submit instant, submit span id) per entry of `futs`.
    let mut meta: Vec<(bool, Instant, u64)> = Vec::with_capacity(in_flight);
    let mut settle = |ctx: &mut TxCtx,
                      futs: &mut Vec<TxFuture<i64>>,
                      meta: &mut Vec<(bool, Instant, u64)>|
     -> TxResult<()> {
        let (i, value) = match scope {
            None => ctx.evaluate_any(futs)?,
            Some(sc) => {
                let start = spans::now_ns();
                let (i, value) = ctx.evaluate_any(futs)?;
                spans::record(Span {
                    id: spans::new_id(),
                    parent: sc.parent,
                    atomic: sc.atomic,
                    name: Name::Evaluate,
                    start,
                    end: spans::now_ns(),
                    arg: meta[i].2,
                });
                (i, value)
            }
        };
        let (scan, submitted, _) = meta.remove(i);
        futs.remove(i);
        out.push(Settled {
            scan,
            us: submitted.elapsed().as_secs_f64() * 1e6,
            value,
        });
        Ok(())
    };
    for op in chunk {
        if futs.len() == in_flight {
            settle(ctx, &mut futs, &mut meta)?;
        }
        let (acc, op2) = (Arc::clone(acc), op.clone());
        let submit_id = scope.map_or(0, |_| spans::new_id());
        let submitted = Instant::now();
        let fut = match scope {
            None => ctx.submit(move |c| apply(c, &acc, &op2, iter, None))?,
            Some(sc) => {
                let (atomic, fine) = (sc.atomic, sc.fine);
                let start = spans::now_ns();
                let fut = ctx.submit(move |c| {
                    let body = Scope {
                        atomic,
                        parent: spans::new_id(),
                        fine,
                    };
                    let b0 = spans::now_ns();
                    let r = apply(c, &acc, &op2, iter, Some(&body));
                    spans::record(Span {
                        id: body.parent,
                        parent: submit_id,
                        atomic,
                        name: Name::FutureBody,
                        start: b0,
                        end: spans::now_ns(),
                        arg: 0,
                    });
                    r
                });
                spans::record(Span {
                    id: submit_id,
                    parent: sc.parent,
                    atomic,
                    name: Name::Submit,
                    start,
                    end: spans::now_ns(),
                    arg: 0,
                });
                fut?
            }
        };
        futs.push(fut);
        meta.push((op.is_scan(), submitted, submit_id));
    }
    while !futs.is_empty() {
        settle(ctx, &mut futs, &mut meta)?;
    }
    Ok(())
}
