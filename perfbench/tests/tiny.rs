//! Every workload at its tiny size, untraced and traced, with all of
//! its checks on.

use perfbench::workloads::{self, Params, Size};
use perfbench::{END_TO_END, PER_LAYER};

fn params(seed: u64, trace: bool) -> Params {
    Params {
        seed,
        seconds: 0.0,
        trace,
        size: Size::Tiny,
        cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
    }
}

fn run_checked(name: &str, trace: bool) -> perfbench::record::Outcome {
    let out = workloads::run(name, &params(3, trace)).expect("known workload");
    let failed: Vec<_> = out
        .failed_checks()
        .map(|c| format!("{}: {}", c.name, c.detail))
        .collect();
    assert!(
        out.correct(),
        "{name} (trace {trace}) failed checks: {failed:?}"
    );
    assert!(out.attempted > 0);
    assert_eq!(out.failed, 0, "{name}: no operation may fail");
    let mut names: Vec<&str> = out.metrics.iter().map(|m| m.name.as_str()).collect();
    names.sort_unstable();
    let before = names.len();
    names.dedup();
    assert_eq!(names.len(), before, "{name}: a metric name repeats");
    out
}

/// The untraced run measures every end-to-end metric but the peak RSS
/// (which the binary reads last); wall times are positive. (A tiny
/// round can finish inside one CPU-clock tick, so its CPU cost may
/// read 0.)
fn untraced(name: &str) {
    let out = run_checked(name, false);
    for (metric, _) in END_TO_END.iter().filter(|(m, _)| *m != "peak_rss_mib") {
        let v = out
            .get(metric)
            .unwrap_or_else(|| panic!("{name} lacks {metric}"));
        assert!(v >= 0.0 && v.is_finite(), "{name}: {metric} = {v}");
    }
    for metric in ["setup_s", "run_s"] {
        assert!(
            out.get(metric).expect("measured") > 0.0,
            "{name}: {metric} is 0"
        );
    }
}

/// The traced run reports every per-layer time itself (only counters of
/// layers the workload never reaches may be left to the binary's zero
/// fill), and its outputs equal the untraced run's.
fn traced(name: &str) {
    let out = run_checked(name, true);
    assert!(out
        .checks
        .iter()
        .any(|c| c.name == "traced_equals_untraced"));
    for (metric, unit) in PER_LAYER {
        if *unit == "s" {
            assert!(
                out.get(metric).is_some(),
                "{name}: traced run lacks {metric}"
            );
        }
    }
    for metric in [
        "topology.generate_s",
        "metric.store_build_s",
        "algo.build_s",
        "core.query_s",
    ] {
        assert!(
            out.get(metric).expect("reported") > 0.0,
            "{name}: {metric} is 0"
        );
    }
}

#[test]
fn paper_batch_untraced() {
    untraced("paper_batch");
}

#[test]
fn paper_batch_traced() {
    traced("paper_batch");
}

#[test]
fn scale_batch_untraced() {
    untraced("scale_batch");
}

#[test]
fn scale_batch_traced() {
    let out = run_checked("scale_batch", true);
    assert!(out.get("metric.cache_hits").expect("hierarchical counters") > 0.0);
    traced("scale_batch");
}

#[test]
fn churn_batch_untraced() {
    untraced("churn_batch");
}

#[test]
fn churn_batch_traced() {
    let out = run_checked("churn_batch", true);
    assert!(out.get("churn.epochs").expect("churn counters") > 0.0);
    traced("churn_batch");
}

#[test]
fn serve_open_loop_untraced() {
    untraced("serve_open_loop");
}

#[test]
fn serve_open_loop_traced() {
    traced("serve_open_loop");
}

#[test]
fn same_seed_same_outputs() {
    let a = workloads::run("scale_batch", &params(5, false)).expect("runs");
    let b = workloads::run("scale_batch", &params(5, false)).expect("runs");
    let c = workloads::run("scale_batch", &params(6, false)).expect("runs");
    assert_eq!(a.digest, b.digest);
    assert_ne!(a.digest, c.digest, "another seed gives other inputs");
}

#[test]
fn unknown_workload_is_an_error() {
    assert!(workloads::run("nope", &params(1, false)).is_err());
}
