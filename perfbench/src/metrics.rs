//! The reported metrics: end to end from an untraced run, per layer from
//! a traced one.

use crate::spans::{Name, Span, Trace, ARG_LADDER};
use crate::stats::{ratio, Kind, Samples, TRIM};
use crate::workload::{Phase, WINDOW_S};
use std::collections::HashMap;

/// One reported number with the count it rests on (samples, or the
/// denominator of a ratio).
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    pub count: u64,
}

fn metric(name: &'static str, value: f64, unit: &'static str, count: usize) -> Metric {
    Metric {
        name,
        value: if value.is_finite() { value } else { 0.0 },
        unit,
        count: count as u64,
    }
}

/// Peak resident memory of this process, from `/proc/self/status`.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// What a user of the library sees: throughput, latency, set-up, memory.
///
/// Each latency is the trimmed mean over windows of the window's
/// percentile: a real-clock run's windows are every client's half
/// seconds, a `sim-bank` run's are its reps. Throughput is the trimmed
/// mean of the windows' rates (of the reps' on `sim-bank`). Trimming
/// keeps a burst of outside load to the windows it hit. Averaging, where
/// a median would not, moves smoothly with the share of windows the host
/// ran slow, so a run does not jump between the host's fast and slow
/// speeds when that share is near one half.
pub fn end_to_end(p: &Phase, setup: &Samples, rss_mb: f64) -> Vec<Metric> {
    let ops_per_s = if !p.sim_reps.is_empty() {
        p.ops_per_s()
    } else {
        let slots = p.windows.iter().map(|w| w.index + 1).max().unwrap_or(0);
        let mut ops = vec![0u64; slots];
        for w in &p.windows {
            ops[w.index] += w.ops;
        }
        ops.iter()
            .map(|&n| n as f64 / WINDOW_S)
            .collect::<Samples>()
            .trimmed_mean(TRIM)
    };
    let lat = |k: Kind, tail: bool| -> (f64, usize) {
        let i = k as usize;
        let per_window: Samples = p
            .windows
            .iter()
            .filter(|w| w.n[i] > 0)
            .map(|w| if tail { w.tail[i] } else { w.p50[i] })
            .collect();
        (
            per_window.trimmed_mean(TRIM),
            p.windows.iter().map(|w| w.n[i]).sum(),
        )
    };
    let mut out = vec![
        metric("ops_per_s", ops_per_s, "1/s", p.committed_ops as usize),
        metric("setup_s", setup.median(), "s", setup.len()),
    ];
    for (name, k, tail) in [
        ("transfer_p50_us", Kind::Transfer, false),
        ("transfer_p99_us", Kind::Transfer, true),
        ("scan_p50_us", Kind::Scan, false),
        ("scan_p99_us", Kind::Scan, true),
        ("chunk_p50_us", Kind::Chunk, false),
        ("chunk_p90_us", Kind::Chunk, true),
    ] {
        let (v, n) = lat(k, tail);
        out.push(metric(name, v, "us", n));
    }
    out.push(metric("peak_rss_mb", rss_mb, "MB", 1));
    out
}

/// One future, keyed by its `core.submit` span.
#[derive(Default)]
struct Fut {
    submit_end: u64,
    first_body_start: Option<u64>,
    last_body_end: u64,
}

/// Per-layer numbers derived from the traced run's spans and counters.
/// `traced` and `untraced` are the run's traced and untraced stretches.
pub fn per_layer(tr: &Trace, traced: &Phase, untraced: &Phase) -> Vec<Metric> {
    let spans: Vec<&Span> = tr.spans.iter().collect();
    let durs = |name: Name, arg: Option<u64>| -> Samples {
        spans
            .iter()
            .filter(|s| s.name == name && arg.is_none_or(|a| s.arg == a))
            .map(|s| s.dur() as f64)
            .collect()
    };
    let us = |s: &Samples, p: f64| s.percentile(p) / 1e3;

    // core.atomic self time: the call minus its body attempts.
    let mut attempt_ns: HashMap<u64, u64> = HashMap::new();
    let mut attempts = 0usize;
    for s in spans.iter().filter(|s| s.name == Name::Attempt) {
        *attempt_ns.entry(s.parent).or_default() += s.dur();
        attempts += 1;
    }
    let atomic_self: Samples = spans
        .iter()
        .filter(|s| s.name == Name::Atomic && s.arg != ARG_LADDER)
        .map(|s| {
            s.dur()
                .saturating_sub(attempt_ns.get(&s.id).copied().unwrap_or(0)) as f64
        })
        .collect();

    // Futures: submit → first body instruction, body end → evaluate_any.
    let mut futs: HashMap<u64, Fut> = HashMap::new();
    for s in spans.iter().filter(|s| s.name == Name::Submit) {
        futs.entry(s.id).or_default().submit_end = s.end;
    }
    let mut bodies = 0usize;
    for s in spans.iter().filter(|s| s.name == Name::FutureBody) {
        let f = futs.entry(s.parent).or_default();
        f.first_body_start = Some(f.first_body_start.map_or(s.start, |t| t.min(s.start)));
        f.last_body_end = f.last_body_end.max(s.end);
        bodies += 1;
    }
    let dispatch: Samples = futs
        .values()
        .filter_map(|f| Some(f.first_body_start?.saturating_sub(f.submit_end) as f64))
        .collect();
    let handback: Samples = spans
        .iter()
        .filter(|s| s.name == Name::Evaluate)
        .filter_map(|s| {
            let f = futs.get(&s.arg)?;
            f.first_body_start?;
            Some(s.end.saturating_sub(f.last_body_end) as f64)
        })
        .collect();

    let backend = durs(Name::BackendAtomic, None);
    let ladder_core = durs(Name::Atomic, Some(ARG_LADDER));
    let reads = durs(Name::Read, None);
    let writes = durs(Name::Write, None);
    let submits = durs(Name::Submit, None);
    let evals = durs(Name::Evaluate, None);
    let body = durs(Name::FutureBody, None);
    let vcalls = durs(Name::VclockCall, None);

    let tm = &traced.tm;
    let commits = tm.top_commits as usize;
    // Reads and writes are counted in the traced `atomic` calls only.
    let traced_calls = atomic_self.len();
    let serialized =
        (tm.serialized_at_submission + tm.serialized_at_evaluation + tm.adopted_escaping) as usize;
    let makespan: u64 = untraced.sim_reps.iter().map(|r| r.makespan).sum();
    let (plain, with_spans) = (untraced.ops_per_s(), traced.ops_per_s());
    vec![
        metric("core.read.p50_ns", reads.median(), "ns", reads.len()),
        metric("core.write.p50_ns", writes.median(), "ns", writes.len()),
        metric(
            "core.read.per_commit",
            ratio(tr.reads as f64, traced_calls as f64),
            "count",
            traced_calls,
        ),
        metric(
            "core.write.per_commit",
            ratio(tr.writes as f64, traced_calls as f64),
            "count",
            traced_calls,
        ),
        metric(
            "core.atomic.self_p50_us",
            us(&atomic_self, 50.0),
            "us",
            atomic_self.len(),
        ),
        metric(
            "core.attempts_per_commit",
            ratio(attempts as f64, atomic_self.len() as f64),
            "count",
            atomic_self.len(),
        ),
        metric(
            "core.submit.p50_us",
            us(&submits, 50.0),
            "us",
            submits.len(),
        ),
        metric(
            "core.evaluate.wait_p50_us",
            us(&evals, 50.0),
            "us",
            evals.len(),
        ),
        metric(
            "core.top_abort_rate",
            tm.top_abort_rate(),
            "ratio",
            (tm.top_commits + tm.top_aborts + tm.top_internal_restarts) as usize,
        ),
        metric(
            "core.internal_abort_rate",
            tm.internal_abort_rate(),
            "ratio",
            tm.internal_aborts as usize + serialized,
        ),
        metric(
            "core.reexecutions_per_chunk",
            ratio(tm.reexecutions as f64, commits as f64),
            "count",
            commits,
        ),
        metric(
            "core.serialized_at_evaluation_frac",
            ratio(tm.serialized_at_evaluation as f64, serialized as f64),
            "ratio",
            serialized,
        ),
        metric(
            "taskpool.dispatch_p50_us",
            us(&dispatch, 50.0),
            "us",
            dispatch.len(),
        ),
        metric(
            "taskpool.dispatch_p99_us",
            us(&dispatch, 99.0),
            "us",
            dispatch.len(),
        ),
        metric(
            "taskpool.handback_p50_us",
            us(&handback, 50.0),
            "us",
            handback.len(),
        ),
        metric("future.body.p50_us", us(&body, 50.0), "us", body.len()),
        metric(
            "future.attempts_per_future",
            ratio(bodies as f64, submits.len() as f64),
            "count",
            submits.len(),
        ),
        metric(
            "stm.versions_pruned_per_commit",
            ratio(traced.versions_pruned as f64, commits as f64),
            "count",
            commits,
        ),
        metric(
            "stm.publish_waits_per_commit",
            ratio(traced.publish_waits as f64, commits as f64),
            "count",
            commits,
        ),
        metric(
            "backend.txn.p50_us",
            us(&backend, 50.0),
            "us",
            backend.len(),
        ),
        metric(
            "core.overhead_ratio",
            ratio(ladder_core.median(), backend.median()),
            "ratio",
            ladder_core.len(),
        ),
        metric("cm.waits", traced.cm_waits as f64, "count", commits),
        metric(
            "cm.total_wait",
            traced.cm_total_wait as f64,
            "vunit",
            commits,
        ),
        metric("vclock.call.p50_ns", vcalls.median(), "ns", vcalls.len()),
        metric(
            "vclock.wall_ns_per_vunit",
            ratio(untraced.elapsed_s * 1e9, makespan as f64),
            "ns/vunit",
            untraced.sim_reps.len(),
        ),
        metric(
            "trace.overhead_frac",
            ratio(plain - with_spans, plain),
            "ratio",
            traced.committed_ops as usize,
        ),
    ]
}
