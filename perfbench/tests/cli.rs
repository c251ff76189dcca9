//! End-to-end tests of the benchmark binary at its tiny size.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::process::{Command, Output};

const WORKLOADS: [&str; 4] = ["bank-top", "bank-top-tl2", "bank-futures", "sim-bank"];

fn run(workload: &str, seed: u64, trace: u8, extra: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            "0.4",
            "--trace",
            &trace.to_string(),
            "--size",
            "tiny",
        ])
        .args(["--spans-dir", env!("CARGO_TARGET_TMPDIR")])
        .args(extra)
        .output()
        .expect("benchmark binary runs")
}

fn stdout(out: &Output) -> String {
    String::from_utf8(out.stdout.clone()).expect("utf-8 output")
}

/// The last stdout line: the result object.
fn result(out: &Output) -> String {
    stdout(out).lines().last().unwrap_or_default().to_string()
}

/// `(name, unit)` of every metric BENCHMARK.json declares under `key`.
fn declared(key: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let section = &json[json.find(&format!("\"{key}\"")).expect("section present")..];
    let section = &section[..section.find(']').expect("section closes")];
    section
        .split("{\"name\": \"")
        .skip(1)
        .map(|entry| {
            let name = entry[..entry.find('"').unwrap()].to_string();
            let unit = entry.split("\"unit\": \"").nth(1).unwrap();
            (name, unit[..unit.find('"').unwrap()].to_string())
        })
        .collect()
}

/// The `sim chunk` lines: each chunk's virtual makespan and counters.
fn sim_lines(out: &Output) -> Vec<String> {
    stdout(out)
        .lines()
        .filter(|l| l.starts_with("# sim chunk"))
        .map(str::to_string)
        .collect()
}

#[test]
fn every_workload_emits_every_metric_with_its_unit() {
    for (trace, key) in [(0, "end_to_end"), (1, "per_layer")] {
        let metrics = declared(key);
        assert!(!metrics.is_empty());
        for w in WORKLOADS {
            let out = run(w, 1, trace, &[]);
            let res = result(&out);
            for (name, unit) in &metrics {
                let entry = format!("\"{name}\": {{\"value\": ");
                let at = res
                    .find(&entry)
                    .unwrap_or_else(|| panic!("{w} trace={trace}: {name} missing in {res}"));
                let tail = &res[at..];
                assert!(
                    tail[..tail.find('}').unwrap()].ends_with(&format!("\"unit\": \"{unit}\"")),
                    "{w}: {name} lacks unit {unit}"
                );
                assert!(stdout(&out).lines().any(|l| l.starts_with(name.as_str())));
            }
            assert_eq!(
                res.matches("\"unit\"").count(),
                metrics.len(),
                "{w}: extra metrics"
            );
            // bank-futures is left out of the measured set: on real threads
            // the runtime loses updates under out-of-order evaluation, which
            // its output checks report (see README.md).
            if w != "bank-futures" {
                assert!(
                    out.status.success(),
                    "{w} trace={trace} failed: {}",
                    stdout(&out)
                );
                assert!(
                    res.starts_with("{\"correct\": true, \"attempted\": "),
                    "{res}"
                );
                assert!(res.contains("\"failed\": 0,"), "{res}");
            }
        }
    }
}

#[test]
fn same_seed_repeats_the_simulation_and_another_seed_changes_it() {
    let a = run("sim-bank", 7, 0, &[]);
    let b = run("sim-bank", 7, 0, &[]);
    let c = run("sim-bank", 8, 0, &[]);
    assert!(a.status.success() && b.status.success() && c.status.success());
    assert!(!sim_lines(&a).is_empty());
    assert_eq!(
        sim_lines(&a),
        sim_lines(&b),
        "virtual makespan and counters repeat"
    );
    assert_ne!(sim_lines(&a), sim_lines(&c), "the seed selects the op log");
}

#[test]
fn a_wrong_expected_total_trips_the_output_check() {
    for w in ["bank-top", "sim-bank"] {
        let out = run(w, 1, 0, &["--expect-total", "999999"]);
        assert_eq!(out.status.code(), Some(1), "{w}: {}", stdout(&out));
        let res = result(&out);
        assert!(res.starts_with("{\"correct\": false"), "{res}");
        assert!(!res.contains("\"failed\": 0,"), "{res}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("OUTPUT CHECK FAILED"), "{err}");
    }
}

#[test]
fn bad_arguments_exit_2_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("benchmark binary runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}

/// Two transfer or scan futures in flight on real threads, settled out of
/// order, must conserve money like every other workload. Today they do
/// not: the runtime loses updates (a scan or the final re-sum reads a
/// total off by a few units), so this workload is left out of the
/// measured set until the runtime is fixed.
#[test]
#[ignore = "known runtime defect: lost updates with concurrent futures on real threads"]
fn bank_futures_conserves_money() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            "bank-futures",
            "--seed",
            "1",
            "--seconds",
            "3",
            "--trace",
            "0",
        ])
        .output()
        .expect("benchmark binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}
