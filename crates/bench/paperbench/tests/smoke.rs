//! Smoke-size runs of every workload through the binary: every metric is
//! printed with its unit, the result line is well formed, and the
//! deterministic metrics repeat exactly across runs and thread counts.

use std::collections::BTreeMap;
use std::process::Command;

/// One run's report lines (`<workload> <name> = <value> <unit>`) by name,
/// and its last line.
struct Run {
    metrics: BTreeMap<String, (String, String)>,
    result: String,
}

fn run(workload: &str, seed: u64, trace: bool, threads: usize) -> Run {
    let out = Command::new(env!("CARGO_BIN_EXE_paperbench"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "0", "--trace", if trace { "1" } else { "0" }])
        .args(["--threads", &threads.to_string(), "--smoke"])
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(out.status.success(), "{workload} failed:\n{stdout}");
    let mut metrics = BTreeMap::new();
    for line in stdout.lines() {
        let Some(rest) = line.strip_prefix(&format!("{workload} ")) else {
            continue;
        };
        let (name, value_unit) = rest.split_once(" = ").expect("`name = value unit`");
        let (value, unit) = value_unit.split_once(' ').expect("a unit after the value");
        value.parse::<f64>().expect("a numeric value");
        metrics.insert(name.to_string(), (value.to_string(), unit.to_string()));
    }
    let result = stdout.lines().last().expect("a result line").to_string();
    Run { metrics, result }
}

const END_TO_END: [&str; 3] = ["setup_s", "op_ms_p50", "peak_rss_mb"];

/// The deterministic metrics of each workload, and the metrics each prints.
fn expected(workload: &str) -> (&'static [&'static str], &'static [&'static str]) {
    match workload {
        "steady" => (
            &["fail_share", "bits_per_node_max"],
            &[
                "setup_s",
                "peak_rss_mb",
                "fail_share",
                "verify_node_rounds_per_s",
                "round_ms_p50",
                "round_ms_p90",
                "bits_per_node_max",
            ],
        ),
        "detect" => (
            &[
                "fail_share",
                "detect_rounds_p50",
                "detect_rounds_p90",
                "detect_dist_max",
            ],
            &[
                "setup_s",
                "peak_rss_mb",
                "fail_share",
                "detect_rounds_p50",
                "detect_rounds_p90",
                "detect_ms_p50",
                "detect_dist_max",
            ],
        ),
        "stabilize" => (
            &["fail_share", "stabilize_rounds", "bits_per_node_max"],
            &[
                "setup_s",
                "peak_rss_mb",
                "fail_share",
                "stabilize_ms_p50",
                "stabilize_rounds",
                "bits_per_node_max",
            ],
        ),
        other => panic!("unknown workload {other}"),
    }
}

fn deterministic(run: &Run, names: &[&str]) -> Vec<String> {
    names.iter().map(|n| run.metrics[*n].0.clone()).collect()
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn check_workload(workload: &str) {
    let (det, printed) = expected(workload);
    let first = run(workload, 7, false, nproc());
    for name in printed {
        let (_, unit) = first
            .metrics
            .get(*name)
            .unwrap_or_else(|| panic!("{workload} does not print {name}"));
        assert!(!unit.is_empty());
    }
    assert!(
        first.result.starts_with("{\"correct\": true, "),
        "{}",
        first.result
    );
    for name in END_TO_END {
        assert!(first.result.contains(&format!("\"{name}\": {{\"value\": ")));
    }
    let again = run(workload, 7, false, nproc());
    assert_eq!(deterministic(&first, det), deterministic(&again, det));
    let one_thread = run(workload, 7, false, 1);
    assert_eq!(deterministic(&first, det), deterministic(&one_thread, det));
}

#[test]
fn steady_prints_its_metrics_and_repeats_its_counts() {
    check_workload("steady");
}

/// Fails while `Marker::label` depends on `HashMap` iteration order: two
/// processes label the same graph differently, and the detection counts
/// follow the labels (README, "Known baseline defects").
#[test]
fn detect_prints_its_metrics_and_repeats_its_counts() {
    check_workload("detect");
}

#[test]
fn stabilize_prints_its_metrics_and_repeats_its_counts() {
    check_workload("stabilize");
}

#[test]
fn traced_runs_report_every_layer() {
    let layers = [
        "graph.generate_ms",
        "graph.kruskal_ms",
        "labeling.satisfies_mst_ms",
        "sync_mst.run_ms",
        "sync_mst.rounds",
        "strings.build_ms",
        "partition.build_ms",
        "marker.label_ms",
        "marker.residual_ms",
        "verifier.step_ns",
        "verifier.state_bits_ms",
        "engine.instantiate_ms",
        "engine.step_ns_per_node",
        "engine.overhead_ns_per_node",
        "engine.dispatch_ns",
        "engine.compute_ns",
        "engine.any_alarm_us",
        "engine.restore_ms",
        "sim.detection_report_ms",
        "selfstab.detect_ms",
        "selfstab.complete_episode_ms",
        "selfstab.memory_bits_ms",
        "trace.overhead",
    ];
    for workload in ["steady", "detect", "stabilize"] {
        let traced = run(workload, 3, true, nproc());
        assert!(
            traced.result.starts_with("{\"correct\": true, "),
            "{}",
            traced.result
        );
        for name in layers {
            assert!(traced.metrics.contains_key(name), "{workload} lacks {name}");
            assert!(
                traced
                    .result
                    .contains(&format!("\"{name}\": {{\"value\": ")),
                "{workload}'s result lacks {name}"
            );
        }
        for name in ["engine.barrier_ns", "engine.exchange_ns"] {
            assert!(traced.metrics.contains_key(name), "{workload} lacks {name}");
            assert!(
                !traced.result.contains(name),
                "{name} is 0 on this envelope"
            );
        }
    }
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_paperbench"))
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
        .expect("the benchmark binary runs");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
