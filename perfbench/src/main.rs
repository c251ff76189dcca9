//! Wall-clock benchmark of the transactional-futures library on the
//! paper's Bank traffic.
//!
//! ```text
//! perfbench --workload <bank-top|bank-top-tl2|bank-futures|sim-bank>
//!           --seed <n> --seconds <s> --trace <0|1>
//!           [--size full|tiny] [--expect-total <n>] [--spans-dir <dir>]
//! ```
//!
//! Prints a table of every metric with its unit and count, then, as the
//! last line, one JSON object: `correct`, `attempted`, `failed` and
//! `metrics` (end-to-end metrics with `--trace 0`, per-layer metrics with
//! `--trace 1`). Exits 1 when an output check failed, 2 on bad arguments.
//! See `README.md` for the workloads and what each metric means.

mod bank;
mod metrics;
mod ops;
mod spans;
mod stats;
mod workload;

use metrics::Metric;
use std::collections::HashMap;
use std::path::PathBuf;
use workload::{Phase, Sizes, Workload};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    sizes: Sizes,
    expect_total: i64,
    spans_dir: PathBuf,
}

const USAGE: &str = "usage: perfbench --workload <bank-top|bank-top-tl2|bank-futures|sim-bank> \
--seed <n> --seconds <s> --trace <0|1> [--size full|tiny] [--expect-total <n>] \
[--spans-dir <dir>]";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut sizes = Sizes::FULL;
    let mut expect_total = ops::EXPECTED_TOTAL;
    let mut spans_dir = PathBuf::from(".bench_out");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(bad("unknown workload"))?)
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| bad("expected an integer"))?,
                )
            }
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("expected a number"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(bad("expected 0 < seconds <= 3600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                })
            }
            "--size" => {
                sizes = match value.as_str() {
                    "full" => Sizes::FULL,
                    "tiny" => Sizes::TINY,
                    _ => return Err(bad("expected full or tiny")),
                }
            }
            "--expect-total" => {
                expect_total = value.parse().map_err(|_| bad("expected an integer"))?
            }
            "--spans-dir" => spans_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        sizes,
        expect_total,
        spans_dir,
    })
}

/// The outcome of one invocation.
struct Report {
    attempted: u64,
    failed: u64,
    violations: Vec<String>,
    metrics: Vec<Metric>,
    notes: Vec<String>,
}

/// Every `sim-bank` rep of one chunk replays the same ops on a fresh
/// virtual clock, so it must reach the same virtual makespan and the same
/// runtime counters as the first rep of that chunk, traced or not.
fn check_determinism(p: &Phase, violations: &mut Vec<String>) {
    let mut first: HashMap<usize, &workload::SimRep> = HashMap::new();
    for (i, r) in p.sim_reps.iter().enumerate() {
        let f = *first.entry(r.chunk).or_insert(r);
        if r.makespan != f.makespan || r.tm != f.tm {
            violations.push(format!(
                "sim rep {i} (chunk {}) diverged: makespan {} vs {}, stats {:?} vs {:?}",
                r.chunk, r.makespan, f.makespan, r.tm, f.tm
            ));
        }
    }
}

fn run(a: &Args) -> Report {
    let w = a.workload;
    let logs = workload::logs(w, a.seed, a.sizes);
    // Half the set-ups are timed before the run and half after, so the
    // median samples the host at both ends of the run.
    let mut setup = workload::setup_samples(w, a.sizes.setup_reps.div_ceil(2));
    let mut notes = Vec::new();
    let (all, metrics) = if !a.trace {
        let p = workload::phase(w, &logs, a.sizes, a.seconds, false, a.expect_total);
        setup.append(&mut workload::setup_samples(w, a.sizes.setup_reps / 2));
        let metrics = metrics::end_to_end(&p, &setup, metrics::peak_rss_mb());
        (p, metrics)
    } else {
        // Untraced, traced, untraced: the traced stretch sits between the
        // two halves of its baseline, so slow drift cancels.
        let quarter = a.seconds / 4.0;
        let mut untraced = workload::phase(w, &logs, a.sizes, quarter, false, a.expect_total);
        let traced = workload::phase(w, &logs, a.sizes, 2.0 * quarter, true, a.expect_total);
        untraced.absorb(workload::phase(
            w,
            &logs,
            a.sizes,
            quarter,
            false,
            a.expect_total,
        ));
        let replayed = workload::ladder(w, &logs[0], 250, 4, a.expect_total);
        let trace = spans::drain();
        let path = a.spans_dir.join(format!("spans-{}.bin", w.name()));
        match spans::write(&path, &trace.spans) {
            Ok(()) => notes.push(format!(
                "spans: {} written to {} ({} dropped)",
                trace.spans.len(),
                path.display(),
                trace.dropped
            )),
            Err(e) => notes.push(format!("spans: writing {} failed: {e}", path.display())),
        }
        match &replayed {
            Ok(n) => notes.push(format!("ladder: {n} transfers replayed per rung")),
            Err(e) => untraced.violations.push(e.clone()),
        }
        let counts: Vec<String> = spans::Name::ALL
            .iter()
            .map(|n| {
                let c = trace.spans.iter().filter(|s| s.name == *n).count();
                format!("{}={c}", n.as_str())
            })
            .collect();
        notes.push(format!("spans by name: {}", counts.join(" ")));
        // Core commits through `commit_attributed` and counts conflicts in
        // `TmStats`; the substrate's own abort and read-only counters stay
        // 0 under `FutureTm` traffic. Printed so the gap stays visible.
        notes.push(format!(
            "stm counters (traced stretch): commits {} aborts {} read_only_commits {}; \
             TmStats top_commits {} top_aborts {}",
            traced.stm_commits,
            traced.stm_aborts,
            traced.stm_read_only_commits,
            traced.tm.top_commits,
            traced.tm.top_aborts
        ));
        let metrics = metrics::per_layer(&trace, &traced, &untraced);
        let mut all = untraced;
        all.absorb(traced);
        (all, metrics)
    };
    let mut violations = all.violations.clone();
    check_determinism(&all, &mut violations);
    for chunk in 0..workload::SIM_CHUNKS {
        let Some(r) = all.sim_reps.iter().find(|r| r.chunk == chunk) else {
            continue;
        };
        notes.push(format!(
            "sim chunk {}: virtual makespan {}, top_commits {}, futures_submitted {}, \
             internal_aborts {}, reexecutions {}",
            r.chunk,
            r.makespan,
            r.tm.top_commits,
            r.tm.futures_submitted,
            r.tm.internal_aborts,
            r.tm.reexecutions
        ));
    }
    if !all.sim_reps.is_empty() {
        let rates: Vec<String> = all
            .sim_reps
            .iter()
            .map(|r| format!("{:.2}", r.ops_per_s))
            .collect();
        notes.push(format!(
            "sim: {} reps, ops per wall second {}",
            rates.len(),
            rates.join(" ")
        ));
    }
    Report {
        attempted: all.attempted_ops,
        failed: all.failed_ops.max(violations.len() as u64),
        violations,
        metrics,
        notes,
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let w = args.workload;
    println!(
        "perfbench workload={} backend={} clients={} seed={} seconds={} trace={} nproc={nproc}",
        w.name(),
        w.backend().name(),
        w.clients(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let r = run(&args);
    println!(
        "{:<36} {:>16} {:<9} {:>10}",
        "metric", "value", "unit", "count"
    );
    for m in &r.metrics {
        println!(
            "{:<36} {:>16.4} {:<9} {:>10}",
            m.name, m.value, m.unit, m.count
        );
    }
    println!(
        "{:<36} {:>16.4} {:<9} {:>10}",
        "failed_frac",
        stats::ratio(r.failed as f64, r.attempted as f64),
        "ratio",
        r.attempted
    );
    for n in &r.notes {
        println!("# {n}");
    }
    for v in &r.violations {
        eprintln!("perfbench: OUTPUT CHECK FAILED: {v}");
    }
    let correct = r.violations.is_empty() && r.failed == 0 && r.attempted > 0;
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(m.name),
                m.value,
                json_str(m.unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.attempted,
        r.failed,
        metrics.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}
