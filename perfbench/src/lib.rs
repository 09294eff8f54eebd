//! # perfbench
//!
//! The workspace's end-to-end and per-layer benchmark. Four workloads
//! (see [`workloads`]) run the program through its own entry points —
//! `Experiment::run_threads` for batch specs, `np_serve::serve` for
//! serving — and check every output against a topology-only oracle
//! ([`oracle`]). A traced run (`--trace 1`) repeats the untraced
//! measurement, then calls each layer's public function in turn and
//! times it ([`trace`]), and demands that its outputs equal the
//! untraced run's bit for bit.
//!
//! The metric names below are the ones `BENCHMARK.json` declares;
//! `tests/benchmark_json.rs` keeps the two in step.

pub mod oracle;
pub mod procfs;
pub mod record;
pub mod stats;
pub mod trace;
pub mod workloads;

/// End-to-end metrics: every untraced run prints each of them.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("run_s", "s"),
    ("cpu_us_per_query", "us"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics: every traced run prints each of them. Layers a
/// workload does not reach report a zero count.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("topology.generate_s", "s"),
    ("metric.store_build_s", "s"),
    ("metric.truth_build_s", "s"),
    ("algo.build_s", "s"),
    ("core.query_s", "s"),
    ("core.us_per_query", "us"),
    ("core.probes_per_query", "count"),
    ("experiment.unattributed_s", "s"),
    ("experiment.timed_share", "ratio"),
    ("util.cpu_s", "s"),
    ("util.cpu_per_wall", "ratio"),
    ("host.steal_s", "s"),
    ("metric.cache_hits", "count"),
    ("metric.cache_misses", "count"),
    ("metric.cache_evictions", "count"),
    ("churn.epochs", "count"),
    ("churn.full_rebuilds", "count"),
    ("churn.rings_replayed", "count"),
    ("churn.ring_inserts", "count"),
    ("serve.batch_fill", "q/batch"),
];
