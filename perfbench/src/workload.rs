//! The four workloads: closed-loop clients on real threads, and the
//! deterministic virtual-clock simulator.

use crate::bank::{self, Accounts, Settled};
use crate::ops::{self, Op};
use crate::spans::{self, Fine, Name, Span};
use crate::stats::{Kind, Lat, Recorder, Samples, Window};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};
use wtf_core::{BackendKind, CmKind, CostModel, FutureTm, Semantics, TmConfig, TmStatsSnapshot};
use wtf_mvstm::StmStatsSnapshot;
use wtf_vclock::Clock;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    BankTop,
    BankTopTl2,
    BankFutures,
    SimBank,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::BankTop,
        Workload::BankTopTl2,
        Workload::BankFutures,
        Workload::SimBank,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::BankTop => "bank-top",
            Workload::BankTopTl2 => "bank-top-tl2",
            Workload::BankFutures => "bank-futures",
            Workload::SimBank => "sim-bank",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    pub fn backend(self) -> BackendKind {
        match self {
            Workload::BankTopTl2 => BackendKind::Tl2,
            _ => BackendKind::Mvstm,
        }
    }

    pub fn clients(self) -> usize {
        match self {
            Workload::BankFutures => 1,
            _ => 2,
        }
    }

    pub fn scan_percent(self) -> usize {
        match self {
            Workload::SimBank => 50,
            _ => 10,
        }
    }

    pub fn is_sim(self) -> bool {
        self == Workload::SimBank
    }

    /// In the traced stretch, one `atomic` call in this many is traced
    /// (its `core.atomic`, `core.attempt`, future spans and read/write
    /// counts), and one in `fine_every` also gets read/write spans. The
    /// rates keep every thread under its span cap for a 60-second run.
    /// `sim-bank` runs one call per client per rep, so it samples by rep.
    fn coarse_every(self) -> usize {
        match self {
            Workload::BankTop | Workload::BankTopTl2 => 4,
            Workload::BankFutures | Workload::SimBank => 1,
        }
    }

    fn fine_every(self) -> usize {
        match self {
            Workload::BankTop => 256,
            // TL2 scans abort and re-read all 1,000 accounts several times.
            Workload::BankTopTl2 => 1024,
            Workload::BankFutures => 64,
            Workload::SimBank => 4,
        }
    }

    fn fine(self) -> Fine {
        if self.is_sim() {
            Fine::Vclock
        } else {
            Fine::Core
        }
    }
}

/// Input sizes: the full benchmark, or a tiny smoke-test shape.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    /// Ops per client log; clients cycle through it. A multiple of every
    /// chunk length and of the mix block, so cycling keeps them aligned.
    pub log_len: usize,
    /// Ops per top-level on `bank-futures`.
    pub chunk: usize,
    /// Ops per top-level on `sim-bank` (one chunk per client per rep).
    pub sim_chunk: usize,
    /// Set-ups timed for `setup_s`.
    pub setup_reps: usize,
    /// Seconds a real-clock client runs before its latencies count.
    pub warmup_s: f64,
}

impl Sizes {
    pub const FULL: Sizes = Sizes {
        log_len: 32_000,
        chunk: 16,
        sim_chunk: 64,
        setup_reps: 101,
        warmup_s: 1.0,
    };
    pub const TINY: Sizes = Sizes {
        log_len: 960,
        chunk: 16,
        sim_chunk: 8,
        setup_reps: 3,
        warmup_s: 0.0,
    };
}

/// Width of the windows a real-clock client's latencies are cut into.
pub const WINDOW_S: f64 = 0.5;
/// Futures in flight per top-level: `bank-futures` and `sim-bank`.
const FUTURES_IN_FLIGHT: usize = 2;
const SIM_IN_FLIGHT: usize = 8;
/// Simulated CPU work per transfer pair on `sim-bank` (Fig. 8's `iter`).
const SIM_ITER: u64 = 1_000;

/// Counters of one measured stretch of a workload.
#[derive(Default)]
pub struct Phase {
    /// Wall time the clients ran.
    pub elapsed_s: f64,
    pub attempted_ops: u64,
    pub committed_ops: u64,
    pub failed_ops: u64,
    /// Latency windows: every real-clock client's half seconds, or one
    /// per `sim-bank` rep.
    pub windows: Vec<Window>,
    /// `sim-bank`: the current rep's latency samples, all clients pooled.
    raw: Lat,
    /// Output-check failures, described.
    pub violations: Vec<String>,
    pub tm: TmStatsSnapshot,
    /// Substrate counters (`StmStatsSnapshot` deltas).
    pub stm_commits: u64,
    pub stm_aborts: u64,
    pub stm_read_only_commits: u64,
    pub versions_pruned: u64,
    pub publish_waits: u64,
    pub cm_waits: u64,
    pub cm_total_wait: u64,
    /// `sim-bank`: one entry per rep.
    pub sim_reps: Vec<SimRep>,
}

/// One `sim-bank` rep: which chunk of the logs it replayed, the virtual
/// makespan and runtime counters it reached, and its wall speed.
#[derive(Clone, Debug)]
pub struct SimRep {
    pub chunk: usize,
    pub makespan: u64,
    pub tm: TmStatsSnapshot,
    pub ops_per_s: f64,
}

impl Phase {
    /// Committed ops per wall second over the whole phase; on `sim-bank`,
    /// the trimmed mean over reps.
    pub fn ops_per_s(&self) -> f64 {
        if !self.sim_reps.is_empty() {
            self.sim_reps
                .iter()
                .map(|r| r.ops_per_s)
                .collect::<Samples>()
                .trimmed_mean(crate::stats::TRIM)
        } else {
            crate::stats::ratio(self.committed_ops as f64, self.elapsed_s)
        }
    }

    pub fn absorb(&mut self, o: Phase) {
        self.elapsed_s += o.elapsed_s;
        self.attempted_ops += o.attempted_ops;
        self.committed_ops += o.committed_ops;
        self.failed_ops += o.failed_ops;
        self.windows.extend(o.windows);
        self.violations.extend(o.violations);
        self.tm = add_tm(&self.tm, &o.tm);
        self.stm_commits += o.stm_commits;
        self.stm_aborts += o.stm_aborts;
        self.stm_read_only_commits += o.stm_read_only_commits;
        self.versions_pruned += o.versions_pruned;
        self.publish_waits += o.publish_waits;
        self.cm_waits += o.cm_waits;
        self.cm_total_wait += o.cm_total_wait;
        self.sim_reps.extend(o.sim_reps);
    }

    fn client(&mut self, c: ClientOut) {
        self.attempted_ops += c.attempted;
        self.committed_ops += c.committed;
        self.failed_ops += c.failed;
        let (windows, mut raw) = c.rec.finish();
        self.windows.extend(windows);
        self.raw.append(&mut raw);
        self.violations.extend(c.violations);
    }

    /// Stats deltas since `base`, the final re-sum check, and shutdown.
    fn finish(&mut self, tm: &FutureTm, acc: &Accounts, base: &Base, expect: i64) {
        self.tm = tm.stats().delta_since(&base.tm);
        let stm = tm.stm().stats().delta_since(&base.stm);
        self.stm_commits = stm.commits;
        self.stm_aborts = stm.aborts;
        self.stm_read_only_commits = stm.read_only_commits;
        self.versions_pruned = stm.versions_pruned;
        self.publish_waits = stm.publish_waits;
        let cm = tm.cm().stats();
        self.cm_waits = cm.waits - base.cm_waits;
        self.cm_total_wait = cm.total_wait - base.cm_total_wait;
        match tm.atomic(|ctx| acc.iter().try_fold(0, |s, a| Ok(s + ctx.read(a)?))) {
            Ok(total) if total == expect => {}
            Ok(total) => self
                .violations
                .push(format!("final re-sum read {total}, expected {expect}")),
            Err(_) => self.violations.push("final re-sum aborted".into()),
        }
        tm.shutdown();
    }
}

/// The counters the metrics read, summed; any others are left at 0.
fn add_tm(a: &TmStatsSnapshot, b: &TmStatsSnapshot) -> TmStatsSnapshot {
    TmStatsSnapshot {
        top_commits: a.top_commits + b.top_commits,
        top_aborts: a.top_aborts + b.top_aborts,
        top_internal_restarts: a.top_internal_restarts + b.top_internal_restarts,
        futures_submitted: a.futures_submitted + b.futures_submitted,
        serialized_at_submission: a.serialized_at_submission + b.serialized_at_submission,
        serialized_at_evaluation: a.serialized_at_evaluation + b.serialized_at_evaluation,
        adopted_escaping: a.adopted_escaping + b.adopted_escaping,
        internal_aborts: a.internal_aborts + b.internal_aborts,
        reexecutions: a.reexecutions + b.reexecutions,
        ..TmStatsSnapshot::default()
    }
}

/// Counter values right after set-up.
struct Base {
    tm: TmStatsSnapshot,
    stm: StmStatsSnapshot,
    cm_waits: u64,
    cm_total_wait: u64,
}

impl Base {
    fn take(tm: &FutureTm) -> Base {
        let cm = tm.cm().stats();
        Base {
            tm: tm.stats(),
            stm: tm.stm().stats(),
            cm_waits: cm.waits,
            cm_total_wait: cm.total_wait,
        }
    }
}

/// The TM a real-clock workload runs on: default WO-GAC semantics, no
/// simulated costs, a no-spin real clock.
fn build_real(kind: BackendKind) -> FutureTm {
    FutureTm::builder()
        .semantics(Semantics::WO_GAC)
        .clock(Clock::real_nospin())
        .backend_kind(kind)
        .cm(CmKind::Immediate)
        .workers(FUTURES_IN_FLIGHT)
        .build()
}

/// The simulator's TM, as the Fig. 8 harness builds it. Call inside
/// `Clock::enter` of a virtual clock.
fn build_sim(clients: usize) -> FutureTm {
    FutureTm::builder()
        .config(
            TmConfig::new(Semantics::WO_GAC)
                .with_costs(CostModel::CALIBRATED)
                .with_memory_bus(true),
        )
        .workers(clients * SIM_IN_FLIGHT + 2)
        .backend_kind(BackendKind::Mvstm)
        .cm(CmKind::Immediate)
        .build()
}

/// Times `reps` set-ups: build the TM and its pool, open the accounts.
pub fn setup_samples(w: Workload, reps: usize) -> Samples {
    (0..reps)
        .map(|_| {
            let timed = || {
                let t0 = Instant::now();
                let tm = if w.is_sim() {
                    build_sim(w.clients())
                } else {
                    build_real(w.backend())
                };
                let acc = bank::open_accounts(&tm);
                let s = t0.elapsed().as_secs_f64();
                drop(acc);
                tm.shutdown();
                s
            };
            if w.is_sim() {
                Clock::virtual_time().enter(timed)
            } else {
                timed()
            }
        })
        .collect()
}

/// The client logs of a run.
pub fn logs(w: Workload, seed: u64, sizes: Sizes) -> Arc<Vec<Vec<Op>>> {
    Arc::new(
        (0..w.clients())
            .map(|c| ops::generate(seed, c, sizes.log_len, w.scan_percent()))
            .collect(),
    )
}

/// How long a client keeps issuing transactions.
#[derive(Clone, Copy)]
enum Until {
    Elapsed(Duration),
    Chunks(usize),
}

struct ClientOut {
    attempted: u64,
    committed: u64,
    failed: u64,
    rec: Recorder,
    violations: Vec<String>,
}

impl ClientOut {
    fn new(window: Option<(f64, usize)>) -> ClientOut {
        ClientOut {
            attempted: 0,
            committed: 0,
            failed: 0,
            rec: match window {
                Some((width, count)) => Recorder::windowed(width, count),
                None => Recorder::unwindowed(),
            },
            violations: Vec::new(),
        }
    }

    fn fail(&mut self, ops: u64, why: String) {
        self.failed += ops;
        if self.violations.len() < 8 {
            self.violations.push(why);
        }
    }

    fn scan_result(&mut self, got: i64, expect: i64) {
        if got != expect {
            self.fail(1, format!("scan returned {got}, expected {expect}"));
        }
    }
}

fn panic_text(p: Box<dyn std::any::Any + Send>) -> String {
    p.downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| p.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "panic".into())
}

/// Whether the `k`-th call is in a one-in-`every` sample. The choice is
/// hashed, not a stride: clients cycle through their logs, and a stride
/// sharing a factor with the log length would sample the same few ops,
/// and so the same mix of scans and transfers, on every pass.
fn sampled(k: usize, every: usize) -> bool {
    ops::Rng::new(k as u64)
        .next_u64()
        .is_multiple_of(every as u64)
}

/// Per-client parameters shared by both client loops.
struct Client<'a> {
    tm: &'a FutureTm,
    acc: &'a Accounts,
    log: &'a [Op],
    fine: Option<Fine>,
    coarse_every: usize,
    fine_every: usize,
    expect: i64,
    chunk: usize,
    /// Latency window width and count (real clock only).
    window: Option<(f64, usize)>,
    /// Run before the measured stretch; its ops are checked, not timed.
    warmup: Duration,
}

impl Client<'_> {
    /// Span detail for the `k`-th `atomic` call: `None` leaves it
    /// untraced.
    fn fine_for(&self, k: usize) -> Option<Fine> {
        let fine = self.fine?;
        if sampled(k, self.fine_every) {
            Some(fine)
        } else if sampled(k, self.coarse_every) {
            Some(Fine::Off)
        } else {
            None
        }
    }

    /// `bank-top*`: one op per top-level, closed loop.
    fn top_level(&self, until: Duration) -> ClientOut {
        let mut out = ClientOut::new(self.window);
        let start = Instant::now();
        let mut chunk_start = start;
        let mut k = 0;
        while start.elapsed() < self.warmup + until {
            let op = &self.log[k % self.log.len()];
            let fine = self.fine_for(k);
            k += 1;
            let t0 = Instant::now();
            let r = catch_unwind(AssertUnwindSafe(|| {
                bank::atomic(self.tm, fine, |ctx, sc| {
                    bank::apply(ctx, self.acc, op, 0, sc)
                })
            }));
            let us = t0.elapsed().as_secs_f64() * 1e6;
            // Negative during the warm-up, whose samples are dropped.
            let at = start.elapsed().as_secs_f64() - self.warmup.as_secs_f64();
            out.attempted += 1;
            match r {
                Ok(Ok(v)) => {
                    out.committed += 1;
                    if op.is_scan() {
                        out.rec.record(at, Kind::Scan, us, 1);
                        out.scan_result(v, self.expect);
                    } else {
                        out.rec.record(at, Kind::Transfer, us, 1);
                    }
                }
                Ok(Err(_)) => out.fail(1, "atomic returned Err(Aborted)".into()),
                Err(p) => out.fail(1, format!("atomic panicked: {}", panic_text(p))),
            }
            if k % self.chunk == 0 {
                let us = chunk_start.elapsed().as_secs_f64() * 1e6;
                out.rec.record(at, Kind::Chunk, us, 0);
                chunk_start = Instant::now();
            }
        }
        out
    }

    /// `bank-futures` / `sim-bank`: one chunk per top-level, every op a
    /// future.
    fn futures(&self, until: Until, in_flight: usize, iter: u64) -> ClientOut {
        let mut out = ClientOut::new(self.window);
        let start = Instant::now();
        let mut settled: Vec<Settled> = Vec::new();
        let mut k = 0;
        loop {
            match until {
                Until::Elapsed(d) if start.elapsed() >= self.warmup + d => break,
                Until::Chunks(n) if k == n => break,
                _ => {}
            }
            let off = (k * self.chunk) % self.log.len();
            let chunk = &self.log[off..off + self.chunk];
            let fine = self.fine_for(k);
            k += 1;
            let ops = chunk.len() as u64;
            let t0 = Instant::now();
            let r = catch_unwind(AssertUnwindSafe(|| {
                bank::atomic(self.tm, fine, |ctx, sc| {
                    bank::futures_chunk(ctx, sc, self.acc, chunk, in_flight, iter, &mut settled)
                })
            }));
            let us = t0.elapsed().as_secs_f64() * 1e6;
            // Negative during the warm-up, whose samples are dropped.
            let at = start.elapsed().as_secs_f64() - self.warmup.as_secs_f64();
            out.attempted += ops;
            match r {
                Ok(Ok(())) => {
                    out.committed += ops;
                    out.rec.record(at, Kind::Chunk, us, ops);
                    for s in &settled {
                        if s.scan {
                            out.rec.record(at, Kind::Scan, s.us, 0);
                            out.scan_result(s.value, self.expect);
                        } else {
                            out.rec.record(at, Kind::Transfer, s.us, 0);
                        }
                    }
                }
                Ok(Err(_)) => out.fail(ops, "atomic returned Err(Aborted)".into()),
                Err(p) => out.fail(ops, format!("atomic panicked: {}", panic_text(p))),
            }
        }
        out
    }
}

/// One real-clock stretch of `bank-top*` / `bank-futures`: a fresh TM,
/// the clients started together and run for `seconds`.
pub fn real_phase(
    w: Workload,
    logs: &[Vec<Op>],
    sizes: Sizes,
    seconds: f64,
    traced: bool,
    expect: i64,
) -> Phase {
    let tm = build_real(w.backend());
    let acc = bank::open_accounts(&tm);
    let base = Base::take(&tm);
    let until = Duration::from_secs_f64(seconds);
    let windows = ((seconds / WINDOW_S) as usize).max(1);
    let barrier = Barrier::new(logs.len() + 1);
    let mut phase = Phase::default();
    let t0 = std::thread::scope(|s| {
        let handles: Vec<_> = logs
            .iter()
            .map(|log| {
                let (tm, acc, barrier) = (&tm, &acc, &barrier);
                s.spawn(move || {
                    let client = Client {
                        tm,
                        acc,
                        log,
                        fine: traced.then(|| w.fine()),
                        coarse_every: w.coarse_every(),
                        fine_every: w.fine_every(),
                        expect,
                        // On `bank-top*` a chunk is one mix block, so every
                        // chunk holds the same number of scans.
                        chunk: match w {
                            Workload::BankFutures => sizes.chunk,
                            _ => ops::BLOCK,
                        },
                        window: Some((WINDOW_S, windows)),
                        warmup: Duration::from_secs_f64(sizes.warmup_s),
                    };
                    barrier.wait();
                    if w == Workload::BankFutures {
                        client.futures(Until::Elapsed(until), FUTURES_IN_FLIGHT, 0)
                    } else {
                        client.top_level(until)
                    }
                })
            })
            .collect();
        barrier.wait();
        let t0 = Instant::now();
        for h in handles {
            phase.client(h.join().expect("client loops catch their panics"));
        }
        t0
    });
    phase.elapsed_s = t0.elapsed().as_secs_f64();
    phase.finish(&tm, &acc, &base, expect);
    phase
}

/// Distinct chunks `sim-bank` cycles through; every later rep of a chunk
/// must repeat the first one exactly.
pub const SIM_CHUNKS: usize = 8;

/// One `sim-bank` rep: a fresh virtual clock and TM, every client
/// replaying chunk `rep % SIM_CHUNKS` of its log as one top-level.
fn sim_rep(logs: &Arc<Vec<Vec<Op>>>, sizes: Sizes, rep: usize, traced: bool, expect: i64) -> Phase {
    let w = Workload::SimBank;
    let chunk = rep % SIM_CHUNKS;
    let ops = chunk * sizes.sim_chunk..(chunk + 1) * sizes.sim_chunk;
    let fine = if sampled(rep, w.fine_every()) {
        w.fine()
    } else {
        Fine::Off
    };
    let clock = Clock::virtual_time();
    let logs = Arc::clone(logs);
    let mut phase = clock.enter(move || {
        let tm = build_sim(logs.len());
        let acc = bank::open_accounts(&tm);
        let base = Base::take(&tm);
        let c = Clock::current();
        let t0 = Instant::now();
        let handles: Vec<_> = (0..logs.len())
            .map(|i| {
                let (tm, acc, logs) = (tm.clone(), Arc::clone(&acc), Arc::clone(&logs));
                let ops = ops.clone();
                c.spawn(&format!("client-{i}"), move || {
                    Client {
                        tm: &tm,
                        acc: &acc,
                        log: &logs[i][ops],
                        fine: traced.then_some(fine),
                        coarse_every: 1,
                        fine_every: 1,
                        expect,
                        chunk: sizes.sim_chunk,
                        window: None,
                        warmup: Duration::ZERO,
                    }
                    .futures(Until::Chunks(1), SIM_IN_FLIGHT, SIM_ITER)
                })
            })
            .collect();
        let mut phase = Phase::default();
        for h in handles {
            phase.client(h.join());
        }
        phase.elapsed_s = t0.elapsed().as_secs_f64();
        phase.finish(&tm, &acc, &base, expect);
        phase
    });
    phase
        .windows
        .push(Window::of(rep, phase.committed_ops, &phase.raw));
    phase.sim_reps.push(SimRep {
        chunk,
        makespan: clock.makespan(),
        tm: phase.tm,
        ops_per_s: crate::stats::ratio(phase.committed_ops as f64, phase.elapsed_s),
    });
    phase
}

/// Runs `sim-bank` reps until `seconds` have passed (at least one).
fn sim_phase(
    logs: &Arc<Vec<Vec<Op>>>,
    sizes: Sizes,
    seconds: f64,
    traced: bool,
    expect: i64,
) -> Phase {
    let start = Instant::now();
    let mut phase = Phase::default();
    for rep in 0.. {
        phase.absorb(sim_rep(logs, sizes, rep, traced, expect));
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    phase
}

/// Runs `w` for `seconds`, traced or not.
pub fn phase(
    w: Workload,
    logs: &Arc<Vec<Vec<Op>>>,
    sizes: Sizes,
    seconds: f64,
    traced: bool,
    expect: i64,
) -> Phase {
    if w.is_sim() {
        sim_phase(logs, sizes, seconds, traced, expect)
    } else {
        real_phase(w, logs, sizes, seconds, traced, expect)
    }
}

/// The ladder probe: the same transfers replayed single-threaded, each
/// once through `wtf_backend::atomic` (a `backend.atomic` span) and once
/// through `FutureTm::atomic` (a `core.atomic` span tagged
/// [`spans::ARG_LADDER`]), on a fresh real-clock TM over `w`'s substrate.
/// Returns the number of transfers replayed per rung, or the output
/// check that failed.
pub fn ladder(
    w: Workload,
    log: &[Op],
    transfers: usize,
    rounds: usize,
    expect: i64,
) -> Result<usize, String> {
    let tm = build_real(w.backend());
    let acc = bank::open_accounts(&tm);
    let sample: Vec<&Op> = log
        .iter()
        .filter(|op| !op.is_scan())
        .take(transfers)
        .collect();
    let timed = |name: Name, arg: u64, f: &mut dyn FnMut()| {
        let id = spans::new_id();
        let start = spans::now_ns();
        f();
        spans::record(Span {
            id,
            parent: spans::ROOT,
            atomic: id,
            name,
            start,
            end: spans::now_ns(),
            arg,
        });
    };
    for _ in 0..rounds {
        for op in &sample {
            let Op::Transfer { pairs, amount } = op else {
                continue;
            };
            timed(Name::BackendAtomic, 0, &mut || {
                wtf_backend::atomic(&**tm.stm(), |tx| {
                    for &(from, to) in pairs {
                        let (from, to) = (&acc[from as usize], &acc[to as usize]);
                        let f = tx.read(from)?;
                        tx.write(from, f - amount)?;
                        let t = tx.read(to)?;
                        tx.write(to, t + amount)?;
                    }
                    Ok(())
                })
                .expect("ladder transfer never aborts explicitly");
            });
            timed(Name::Atomic, spans::ARG_LADDER, &mut || {
                tm.atomic(|ctx| bank::apply(ctx, &acc, op, 0, None))
                    .expect("ladder transfer never aborts explicitly");
            });
        }
    }
    let total = tm.atomic(|ctx| acc.iter().try_fold(0, |s, a| Ok(s + ctx.read(a)?)));
    tm.shutdown();
    match total {
        Ok(total) if total == expect => Ok(sample.len() * rounds),
        Ok(total) => Err(format!("ladder re-sum read {total}, expected {expect}")),
        Err(_) => Err("ladder re-sum aborted".into()),
    }
}
