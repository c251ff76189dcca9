//! The traced run's span recorder.
//!
//! Spans are recorded by the benchmark around its own calls into the
//! library's public functions; nothing inside the library is traced. Each
//! thread appends to its own buffer, so recording never contends; all
//! buffers stay in memory until [`drain`] collects them at the end of the
//! run, after which [`write`] stores them in one file.

use std::io::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// The layer boundary a span covers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Name {
    /// One `FutureTm::atomic` call.
    Atomic,
    /// One invocation of the `atomic` body closure.
    Attempt,
    /// `TxCtx::read` under the real clock.
    Read,
    /// `TxCtx::write` under the real clock.
    Write,
    /// `TxCtx::submit`.
    Submit,
    /// `TxCtx::evaluate_any`; `arg` is the submit span of the future it
    /// returned.
    Evaluate,
    /// One run of a future body; its parent is the future's submit span.
    FutureBody,
    /// One `wtf_backend::atomic` call (the ladder probe).
    BackendAtomic,
    /// `TxCtx::work/read/write` under the virtual clock; `arg` is one of
    /// the `VCALL_*` kinds.
    VclockCall,
}

impl Name {
    pub const ALL: [Name; 9] = [
        Name::Atomic,
        Name::Attempt,
        Name::Read,
        Name::Write,
        Name::Submit,
        Name::Evaluate,
        Name::FutureBody,
        Name::BackendAtomic,
        Name::VclockCall,
    ];

    pub fn as_str(self) -> &'static str {
        match self {
            Name::Atomic => "core.atomic",
            Name::Attempt => "core.attempt",
            Name::Read => "core.read",
            Name::Write => "core.write",
            Name::Submit => "core.submit",
            Name::Evaluate => "core.evaluate",
            Name::FutureBody => "future.body",
            Name::BackendAtomic => "backend.atomic",
            Name::VclockCall => "vclock.call",
        }
    }
}

/// `vclock.call` kinds, stored in the span's `arg`.
pub const VCALL_WORK: u64 = 0;
pub const VCALL_READ: u64 = 1;
pub const VCALL_WRITE: u64 = 2;
/// `arg` of the ladder probe's `core.atomic` spans, which are kept apart
/// from the workload's own.
pub const ARG_LADDER: u64 = 1;
/// Parent of a span that has none.
pub const ROOT: u64 = 0;

/// One recorded interval, in nanoseconds since the process's trace epoch.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    /// The `core.atomic` span this span belongs to (its own id for one).
    pub atomic: u64,
    pub name: Name,
    pub start: u64,
    pub end: u64,
    pub arg: u64,
}

impl Span {
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Spans a thread keeps; later ones are counted as dropped, so one long
/// traced run cannot exhaust memory.
const MAX_SPANS_PER_THREAD: usize = 400_000;

#[derive(Default)]
struct ThreadBuf {
    spans: Mutex<Vec<Span>>,
    dropped: AtomicU64,
    reads: AtomicU64,
    writes: AtomicU64,
}

struct Local {
    thread: u64,
    next: std::cell::Cell<u64>,
    buf: Arc<ThreadBuf>,
}

static REGISTRY: Mutex<Vec<Arc<ThreadBuf>>> = Mutex::new(Vec::new());
static NEXT_THREAD: AtomicU64 = AtomicU64::new(1);
static EPOCH: OnceLock<Instant> = OnceLock::new();

thread_local! {
    static LOCAL: Local = {
        let buf = Arc::new(ThreadBuf::default());
        REGISTRY.lock().expect("span registry poisoned").push(Arc::clone(&buf));
        Local {
            thread: NEXT_THREAD.fetch_add(1, Ordering::Relaxed),
            next: std::cell::Cell::new(0),
            buf,
        }
    };
}

/// Nanoseconds since the trace epoch (the first call in the process).
pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// A span id unique in the process (thread index in the high bits).
pub fn new_id() -> u64 {
    LOCAL.with(|l| {
        let n = l.next.get() + 1;
        l.next.set(n);
        (l.thread << 40) | n
    })
}

pub fn record(span: Span) {
    LOCAL.with(|l| {
        let mut spans = l.buf.spans.lock().expect("span buffer poisoned");
        if spans.len() < MAX_SPANS_PER_THREAD {
            spans.push(span);
        } else {
            l.buf.dropped.fetch_add(1, Ordering::Relaxed);
        }
    });
}

/// Counts one `TxCtx::read` (every one, sampled for a span or not).
pub fn count_read() {
    LOCAL.with(|l| l.buf.reads.fetch_add(1, Ordering::Relaxed));
}

/// Counts one `TxCtx::write`.
pub fn count_write() {
    LOCAL.with(|l| l.buf.writes.fetch_add(1, Ordering::Relaxed));
}

/// Everything recorded since the last drain.
#[derive(Default)]
pub struct Trace {
    pub spans: Vec<Span>,
    pub dropped: u64,
    pub reads: u64,
    pub writes: u64,
}

/// Collects and clears every thread's buffer. Call once the threads that
/// recorded have finished (the workload joins its clients and shuts the
/// TM's pool down first).
pub fn drain() -> Trace {
    let mut out = Trace::default();
    for buf in REGISTRY.lock().expect("span registry poisoned").iter() {
        out.spans
            .append(&mut buf.spans.lock().expect("span buffer poisoned"));
        out.dropped += buf.dropped.swap(0, Ordering::Relaxed);
        out.reads += buf.reads.swap(0, Ordering::Relaxed);
        out.writes += buf.writes.swap(0, Ordering::Relaxed);
    }
    out
}

/// Writes `spans` to `path`: the magic `PBSPANS1`, a little-endian `u64`
/// count, then per span seven little-endian `u64`s — id, parent, atomic,
/// name index (position in [`Name::ALL`]), start ns, end ns, arg.
pub fn write(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    w.write_all(b"PBSPANS1")?;
    w.write_all(&(spans.len() as u64).to_le_bytes())?;
    for s in spans {
        let name = Name::ALL.iter().position(|n| *n == s.name).unwrap_or(0) as u64;
        for v in [s.id, s.parent, s.atomic, name, s.start, s.end, s.arg] {
            w.write_all(&v.to_le_bytes())?;
        }
    }
    w.flush()
}

/// Where a traced call sits: the `core.atomic` call it belongs to, the
/// span that caused it, and whether its reads and writes get spans of
/// their own (they are sampled, one atomic call in N, to bound memory).
#[derive(Clone, Copy, Debug)]
pub struct Scope {
    pub atomic: u64,
    pub parent: u64,
    pub fine: Fine,
}

/// How a sampled call's reads, writes and work are recorded.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fine {
    /// Counted, not spanned.
    Off,
    /// `core.read` / `core.write` spans (real clock).
    Core,
    /// `vclock.call` spans (virtual clock).
    Vclock,
}

impl Scope {
    /// Runs `f` inside a fresh span named `name`, child of this scope.
    pub fn span<R>(&self, name: Name, arg: u64, f: impl FnOnce() -> R) -> R {
        let id = new_id();
        let start = now_ns();
        let r = f();
        record(Span {
            id,
            parent: self.parent,
            atomic: self.atomic,
            name,
            start,
            end: now_ns(),
            arg,
        });
        r
    }
}
