//! The four workloads and what they share: run parameters, rounds,
//! repeated set-up, the layer-by-layer scenario build of the traced
//! pass, and the oracle checks.

pub mod churn;
pub mod paper;
pub mod scale;
pub mod serve;

use crate::oracle::Oracle;
use crate::record::{Digest, Outcome};
use crate::trace::now;
use crate::trace::Spans;
use np_core::experiment::{hierarchical_knobs, Backend, CellSpec, ScenarioHandle};
use np_core::{AnsweredQuery, PaperMetrics};
use np_metric::{
    HierarchicalWorld, LatencyMatrix, NearestCache, NearestPeerAlgo, PeerId, ShardedWorld,
    WorldStore,
};
use np_topology::ClusterWorld;
use np_util::parallel::{item_seed, par_map};
use np_util::LatencyHist;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: &[&str] = &[
    "paper_batch",
    "scale_batch",
    "churn_batch",
    "serve_open_loop",
];

/// Input size: the benchmark's own (`Full`) or a seconds-long shrink
/// of every workload that keeps its shape and its checks (`Tiny`, for
/// the benchmark's tests).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Tiny,
}

/// One run's parameters.
#[derive(Debug, Clone)]
pub struct Params {
    pub seed: u64,
    /// Measure whole rounds until this many seconds have passed.
    pub seconds: f64,
    pub trace: bool,
    pub size: Size,
    /// Cores available to this process; no workload runs more threads.
    pub cores: usize,
}

impl Params {
    /// `want` threads, capped at the cores available.
    pub fn threads(&self, want: usize) -> usize {
        want.clamp(1, self.cores.max(1))
    }

    /// The workload's base seed: a well-mixed function of `--seed` and
    /// a per-workload tag, so workloads never share inputs.
    pub fn base_seed(&self, tag: u64) -> u64 {
        // Keep the seed in 32 bits: spec seeds are offset per cell and
        // printed in labels.
        item_seed(self.seed, tag, 0) >> 32
    }
}

/// Run workload `name`.
pub fn run(name: &str, p: &Params) -> Result<Outcome, String> {
    match name {
        "paper_batch" => Ok(paper::run(p)),
        "scale_batch" => Ok(scale::run(p)),
        "churn_batch" => Ok(churn::run(p)),
        "serve_open_loop" => Ok(serve::run(p)),
        other => Err(format!(
            "unknown workload {other:?} (workloads: {})",
            NAMES.join(", ")
        )),
    }
}

/// Threads each workload runs at (before the core cap).
pub fn wanted_threads(name: &str) -> usize {
    match name {
        "paper_batch" => 2,
        _ => 1,
    }
}

/// Run `round` at least `min_rounds` times, then again while fewer than
/// `p.seconds` have passed since the first began; a traced run measures
/// one round (it only needs the outputs to compare). Returns each
/// round's wall seconds and result.
pub fn rounds<R>(p: &Params, min_rounds: usize, mut round: impl FnMut() -> R) -> Vec<(f64, R)> {
    let (seconds, min_rounds) = if p.trace {
        (0.0, 1)
    } else {
        (p.seconds, min_rounds)
    };
    let start = now();
    let mut out = Vec::new();
    loop {
        let t = now();
        let r = round();
        out.push((t.elapsed().as_secs_f64(), r));
        if out.len() >= min_rounds && start.elapsed().as_secs_f64() >= seconds {
            return out;
        }
    }
}

/// Process CPU µs per query over rounds that each cost `cpus[i]` CPU
/// seconds and answered `per_round` queries. Totals, not a median: the
/// CPU clock ticks in hundredths of a second.
pub fn cpu_us_per_query(cpus: &[f64], per_round: u64) -> f64 {
    cpus.iter().sum::<f64>() * 1e6 / (per_round as f64 * cpus.len() as f64)
}

/// Process CPU seconds spent in `f`, with its result.
pub fn cpu_timed<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let cpu0 = crate::procfs::process_cpu_s().unwrap_or(0.0);
    let r = f();
    (crate::procfs::process_cpu_s().unwrap_or(0.0) - cpu0, r)
}

/// Record `peak_rss_mib`, the process's `VmHWM`: called right after a
/// workload's measured rounds, before the benchmark builds its own
/// copies for the checks.
pub fn record_peak_rss(out: &mut Outcome) {
    let mib = crate::procfs::peak_rss_mib().unwrap_or(0.0);
    out.metric("peak_rss_mib", mib, "MiB");
}

/// Time the set-up of a figure run's scenarios `reps` times at 1
/// thread: each (cell, seed) scenario and its ground truth is built,
/// timed and dropped before the next, so the set-up never holds more
/// than one scenario and cannot raise the figure run's peak RSS.
/// Returns each repetition's total wall seconds.
pub fn time_setup(
    cells: &[CellSpec],
    seeds: &[Vec<u64>],
    backend: Backend,
    reps: usize,
) -> Vec<f64> {
    (0..reps)
        .map(|_| {
            let mut total = 0.0;
            for (cell, ss) in cells.iter().zip(seeds) {
                for &s in ss {
                    let t = now();
                    let pr = Prepared::build(cell, backend, s, 1);
                    total += t.elapsed().as_secs_f64();
                    drop(pr);
                }
            }
            total
        })
        .collect()
}

/// Every (cell, seed) scenario of a figure run, for the oracle checks
/// and the traced pass.
pub fn prepare_all(cells: &[CellSpec], seeds: &[Vec<u64>], backend: Backend) -> Vec<Vec<Prepared>> {
    cells
        .iter()
        .zip(seeds)
        .map(|(cell, ss)| {
            ss.iter()
                .map(|&s| Prepared::build(cell, backend, s, 1))
                .collect()
        })
        .collect()
}

/// Fold a run's metrics into a digest.
pub fn digest_metrics(d: &mut Digest, m: &PaperMetrics) {
    d.float(m.p_correct_closest)
        .float(m.p_correct_cluster)
        .float(m.p_same_en)
        .float(m.median_hub_latency_wrong_ms)
        .float(m.mean_stretch)
        .float(m.mean_probes)
        .float(m.mean_hops)
        .word(m.queries as u64);
}

/// One (cell, seed) scenario as the program builds it: the handle from
/// `ScenarioHandle::build` with its ground-truth cache filled.
pub struct Prepared {
    pub handle: ScenarioHandle,
    pub seed: u64,
    pub threads: usize,
}

impl Prepared {
    /// Build the scenario and its ground-truth cache (the program's
    /// set-up for any batch over this cell).
    pub fn build(cell: &CellSpec, backend: Backend, seed: u64, threads: usize) -> Prepared {
        let handle = ScenarioHandle::build(cell, backend, seed, threads);
        handle.nearest_cache(threads);
        Prepared {
            handle,
            seed,
            threads,
        }
    }

    pub fn truth(&self) -> &NearestCache {
        self.handle.nearest_cache(self.threads)
    }

    pub fn oracle(&self) -> Oracle {
        Oracle::scan(
            self.handle.world(),
            self.handle.overlay(),
            self.handle.targets(),
        )
    }
}

/// Check a ground-truth cache against the oracle: for every target the
/// cached nearest's RTT, read from the store and from the topology,
/// equals the oracle's nearest RTT. Returns the first mismatch.
pub fn truth_matches_oracle(
    store: &dyn WorldStore,
    world: &ClusterWorld,
    truth: &NearestCache,
    oracle: &Oracle,
) -> Result<usize, String> {
    let mut n = 0;
    for t in oracle.targets() {
        let want = oracle.nearest_rtt(t).expect("scanned target");
        let Some(nearest) = truth.nearest(t) else {
            return Err(format!("target {} missing from the truth cache", t.0));
        };
        let (in_store, in_world) = (store.rtt(nearest, t), world.rtt(nearest, t));
        if in_store != want || in_world != want {
            return Err(format!(
                "target {}: cached nearest {} is {:?} in the store and {:?} in the topology, \
                 the oracle's nearest is {:?}",
                t.0, nearest.0, in_store, in_world, want
            ));
        }
        n += 1;
    }
    Ok(n)
}

/// A latency store built by its backend's own function, kept concrete so the
/// hierarchical block cache's counters stay readable.
// One store is alive at a time, so the variants' size gap costs nothing.
#[allow(clippy::large_enum_variant)]
pub enum Store {
    Dense(LatencyMatrix),
    Sharded(ShardedWorld),
    Hierarchical(HierarchicalWorld),
}

impl Store {
    pub fn as_dyn(&self) -> &dyn WorldStore {
        match self {
            Store::Dense(s) => s,
            Store::Sharded(s) => s,
            Store::Hierarchical(s) => s,
        }
    }
}

/// The traced pass's scenario: world, store and ground truth, each
/// built by its layer's own public function and timed on its own. The
/// overlay/target split is the one `ScenarioHandle::build` drew for the
/// same seed (taken from the prepared handle).
pub struct Layered {
    pub world: ClusterWorld,
    pub store: Store,
    pub truth: NearestCache,
}

impl Layered {
    pub fn build(
        cell: &CellSpec,
        backend: Backend,
        prepared: &Prepared,
        threads: usize,
        spans: &mut Spans,
    ) -> Layered {
        let seed = prepared.seed;
        let b = backend.name();
        let world = spans.time("topology.generate_s", || {
            ClusterWorld::generate(cell.world.clone(), seed)
        });
        let store = spans.time(&format!("metric.store_build_s.{b}"), || match backend {
            Backend::Dense => Store::Dense(world.to_matrix_threads(threads)),
            Backend::Sharded => Store::Sharded(world.to_sharded_threads(threads)),
            Backend::Hierarchical => {
                let (groups, budget) = hierarchical_knobs(cell);
                Store::Hierarchical(world.to_hierarchical(groups, budget))
            }
        });
        let h = &prepared.handle;
        let truth = spans.time(&format!("metric.truth_build_s.{b}"), || {
            NearestCache::build(store.as_dyn(), h.overlay(), h.targets(), threads)
        });
        Layered {
            world,
            store,
            truth,
        }
    }
}

/// Answer every slot of `schedule` through the runner's per-query path
/// (`run_one_query`), timing each query. Returns the answers in slot
/// order and the per-query service-time histogram (ns).
pub fn answer_all(
    algo: &dyn NearestPeerAlgo,
    store: &dyn WorldStore,
    world: &ClusterWorld,
    truth: &NearestCache,
    schedule: &[PeerId],
    seed: u64,
    threads: usize,
) -> (Vec<AnsweredQuery>, LatencyHist) {
    let timed = par_map(threads, schedule, |idx, &t| {
        let start = now();
        let a = np_core::run_one_query(algo, store, world, truth, idx, t, seed);
        (a, start.elapsed().as_nanos() as u64)
    });
    let mut hist = LatencyHist::new();
    let answers = timed
        .into_iter()
        .map(|(a, ns)| {
            hist.record(ns);
            a
        })
        .collect();
    (answers, hist)
}

/// Check answers against the oracle: none closer than the true nearest
/// (and, when `exact`, every one exactly as close). Returns the number
/// checked or the first violation.
pub fn answers_against_oracle(
    world: &ClusterWorld,
    oracle: &Oracle,
    schedule: &[PeerId],
    found: impl Iterator<Item = PeerId>,
    exact: bool,
) -> Result<usize, String> {
    let mut n = 0;
    for (idx, (&t, f)) in schedule.iter().zip(found).enumerate() {
        if !oracle.answer_is_sane(world, t, f) {
            return Err(format!(
                "query {idx}: answer {} for target {} is closer than the oracle's nearest",
                f.0, t.0
            ));
        }
        if exact && !oracle.answer_is_exact(world, t, f) {
            return Err(format!(
                "query {idx}: exact answer {} for target {} is not at the oracle's nearest RTT",
                f.0, t.0
            ));
        }
        n += 1;
    }
    Ok(n)
}

/// Process-level figures every traced run reports.
pub fn host_metrics(out: &mut Outcome, spans: &Spans, pass_wall: f64, cpu_s: f64, steal_s: f64) {
    out.metric(
        "experiment.unattributed_s",
        (pass_wall - spans.total()).max(0.0),
        "s",
    );
    out.metric("experiment.timed_share", spans.total() / pass_wall, "ratio");
    out.metric("util.cpu_s", cpu_s, "s");
    out.metric("util.cpu_per_wall", cpu_s / pass_wall, "ratio");
    out.metric("host.steal_s", steal_s, "s");
}

/// The layer totals every traced run reports under the same names,
/// summed over backends and algorithms, plus every span as recorded.
pub fn layer_metrics(out: &mut Outcome, spans: &Spans, queries: u64, probes: f64) {
    for (name, secs) in spans.iter() {
        out.metric(name.to_string(), secs, "s");
    }
    let query_s = spans.sum_prefix("core.query_s");
    out.metric(
        "metric.store_build_s",
        spans.sum_prefix("metric.store_build_s"),
        "s",
    );
    out.metric(
        "metric.truth_build_s",
        spans.sum_prefix("metric.truth_build_s"),
        "s",
    );
    out.metric("algo.build_s", spans.sum_prefix("algo.build_s"), "s");
    out.metric("core.query_s", query_s, "s");
    out.metric(
        "core.us_per_query",
        query_s * 1e6 / queries.max(1) as f64,
        "us",
    );
    out.metric(
        "core.probes_per_query",
        probes / queries.max(1) as f64,
        "count",
    );
}

/// Quantiles of a nanosecond histogram in microseconds, as metrics
/// `<prefix>.p50`, `.p99` and `.p999` (`.p999` only with at least
/// 10,000 samples, `.p99` with at least 1,000 — a tail needs ten
/// samples beyond it).
pub fn quantile_metrics(out: &mut Outcome, prefix: &str, hist: &LatencyHist) {
    let us = |q: f64| hist.quantile(q).map_or(0.0, |ns| ns as f64 / 1e3);
    out.metric(format!("{prefix}.p50"), us(0.5), "us");
    if hist.count() >= 1_000 {
        out.metric(format!("{prefix}.p99"), us(0.99), "us");
    }
    if hist.count() >= 10_000 {
        out.metric(format!("{prefix}.p999"), us(0.999), "us");
    }
}

/// Total probes of a metrics row.
pub fn total_probes(m: &PaperMetrics) -> f64 {
    m.mean_probes * m.queries as f64
}
