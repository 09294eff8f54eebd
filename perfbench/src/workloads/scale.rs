//! `scale_batch` — million-peer-style scans through the compressed
//! stores.
//!
//! One 200k-peer §4 world (the shape of ext_scale's 200k cell), built
//! on `sharded` and on `hierarchical` with default knobs (every block
//! stays resident), each answering 1,000 brute-force and 1,000
//! Kademlia queries at 1 thread. About 400M RTT reads through the
//! stores make up almost all of the run; no Meridian runs.

use super::{
    answer_all, answers_against_oracle, cpu_timed, cpu_us_per_query, digest_metrics, host_metrics,
    layer_metrics, record_peak_rss, rounds, total_probes, truth_matches_oracle, Layered, Params,
    Prepared, Size, Store,
};
use crate::oracle::Oracle;
use crate::record::{Digest, Outcome};
use crate::stats::median;
use crate::trace::now;
use crate::trace::Spans;
use np_core::experiment::{
    AlgoContext, AlgoRegistry, AlgoSpec, Backend, BuildCache, CellSpec, ScenarioHandle,
};
use np_core::{draw_target_schedule, reduce_records, PaperMetrics, QueryRecord};
use np_metric::NearestPeerAlgo;
use np_topology::ClusterWorldSpec;
use np_util::Micros;

const SCALE_BENCH_TAG: u64 = 0x5343_414C; // "SCAL"
const BACKENDS: [Backend; 2] = [Backend::Sharded, Backend::Hierarchical];
const ALGOS: [&str; 2] = ["brute-force", "kademlia"];
/// Set-up repetitions per run (the median is reported).
const SETUP_REPS: usize = 2;
/// Brute-force queries replayed per backend for the untraced answer
/// check (the traced pass checks every answer).
const BRUTE_REPLAY: usize = 100;

/// The workload's cell at `p`'s seed.
pub fn cell(p: &Params) -> CellSpec {
    let (clusters, en_per_cluster, queries) = match p.size {
        Size::Full => (2_500, 40, 1_000),
        Size::Tiny => (60, 10, 40),
    };
    CellSpec {
        label: format!("{} peers", clusters * en_per_cluster * 2),
        world: ClusterWorldSpec {
            clusters,
            en_per_cluster,
            peers_per_en: 2,
            delta: 0.2,
            mean_hub_ms: (4.0, 6.0),
            intra_en: Micros::from_us(100),
            hub_pool: clusters,
        },
        n_targets: 100,
        base_seed: p.base_seed(SCALE_BENCH_TAG),
        queries,
        quick_queries: None,
        in_quick: true,
        churn: None,
        super_shards: None,
        block_cache_mb: None,
        algos: ALGOS.iter().map(|a| AlgoSpec::new(*a)).collect(),
    }
}

fn build_algos<'a>(
    registry: &AlgoRegistry,
    h: &'a ScenarioHandle,
    seed: u64,
    shared: &'a BuildCache,
) -> Vec<Box<dyn NearestPeerAlgo + 'a>> {
    let ctx = AlgoContext {
        store: h.store(),
        world: h.world(),
        overlay: h.overlay(),
        seed,
        threads: 1,
        shared,
    };
    ALGOS
        .iter()
        .map(|a| registry.expect(a).build(&ctx))
        .collect()
}

pub fn run(p: &Params) -> Outcome {
    let cell = cell(p);
    let seed = cell.base_seed;
    let registry = np_bench::full_registry();
    let mut out = Outcome::default();

    // Set-up: both backends' scenarios, ground truth and algorithms,
    // until everything can answer. Repeated; the last set is kept.
    let prepare = || -> Vec<Prepared> {
        BACKENDS
            .iter()
            .map(|&b| Prepared::build(&cell, b, seed, 1))
            .collect()
    };
    let mut setup_times = Vec::new();
    for _ in 1..SETUP_REPS {
        let t = now();
        let prepared = prepare();
        let shared: Vec<BuildCache> = BACKENDS.iter().map(|_| BuildCache::new()).collect();
        let algos: Vec<_> = prepared
            .iter()
            .zip(&shared)
            .map(|(pr, sh)| build_algos(&registry, &pr.handle, seed, sh))
            .collect();
        setup_times.push(t.elapsed().as_secs_f64());
        drop(algos);
    }
    let t = now();
    let prepared = prepare();
    let shared: Vec<BuildCache> = BACKENDS.iter().map(|_| BuildCache::new()).collect();
    let algos: Vec<_> = prepared
        .iter()
        .zip(&shared)
        .map(|(pr, sh)| build_algos(&registry, &pr.handle, seed, sh))
        .collect();
    setup_times.push(t.elapsed().as_secs_f64());

    // Measured: every (backend, algorithm) batch through the program's
    // batch entry point.
    let measured = rounds(p, 1, || {
        cpu_timed(|| {
            prepared
                .iter()
                .zip(&algos)
                .flat_map(|(pr, algos)| {
                    algos
                        .iter()
                        .map(|a| pr.handle.run_queries(a.as_ref(), cell.queries, seed, 1))
                        .collect::<Vec<_>>()
                })
                .collect::<Vec<PaperMetrics>>()
        })
    });
    record_peak_rss(&mut out);
    let cpus: Vec<f64> = measured.iter().map(|(_, (c, _))| *c).collect();
    let measured: Vec<(f64, Vec<PaperMetrics>)> =
        measured.into_iter().map(|(w, (_, r))| (w, r)).collect();
    let per_round = (BACKENDS.len() * ALGOS.len() * cell.queries) as u64;
    out.attempted = per_round * measured.len() as u64;
    let setup_s = median(&setup_times).expect("reps");
    let query_s = median(&measured.iter().map(|(w, _)| *w).collect::<Vec<_>>()).expect("round");
    out.metric("setup_s", setup_s, "s");
    // What the figure run would cost: set-up, then every batch.
    out.metric("run_s", setup_s + query_s, "s");
    out.metric("cpu_us_per_query", cpu_us_per_query(&cpus, per_round), "us");
    out.metric("query_qps", per_round as f64 / query_s, "1/s");

    let digest_of = |ms: &[PaperMetrics]| {
        let mut d = Digest::default();
        ms.iter().for_each(|m| digest_metrics(&mut d, m));
        d.finish()
    };
    let metrics = &measured.last().expect("one round").1;
    out.digest = digest_of(metrics);
    out.check(
        "rounds_identical",
        measured.iter().all(|(_, m)| digest_of(m) == out.digest),
        format!("{} rounds", measured.len()),
    );
    // metrics are in backend → algorithm order.
    let row = |bi: usize, ai: usize| &metrics[bi * ALGOS.len() + ai];
    let mut exact = Ok(());
    for (bi, pr) in prepared.iter().enumerate() {
        let m = row(bi, 0);
        let overlay = pr.handle.overlay().len() as f64;
        if exact.is_ok() && (m.p_correct_closest != 1.0 || m.mean_probes != overlay) {
            exact = Err(format!(
                "{}: P(closest) {} probes/query {} (overlay {overlay})",
                BACKENDS[bi].name(),
                m.p_correct_closest,
                m.mean_probes
            ));
        }
    }
    out.check(
        "brute_force_exact",
        exact.is_ok(),
        exact.err().unwrap_or_default(),
    );
    out.check(
        "brute_force_backend_invariant",
        row(0, 0) == row(1, 0),
        format!("sharded {:?} hierarchical {:?}", row(0, 0), row(1, 0)),
    );

    let oracle = Oracle::scan(
        prepared[0].handle.world(),
        prepared[0].handle.overlay(),
        prepared[0].handle.targets(),
    );
    let mut truth = Ok(0);
    for pr in &prepared {
        let h = &pr.handle;
        truth = truth.and_then(|n| {
            truth_matches_oracle(h.store(), h.world(), pr.truth(), &oracle).map(|k| n + k)
        });
    }
    out.check(
        "truth_matches_oracle",
        truth.is_ok(),
        match truth {
            Ok(n) => format!("{n} targets over {} backends", BACKENDS.len()),
            Err(e) => e,
        },
    );
    if let ScenarioHandle::Hierarchical(s) = &prepared[1].handle {
        let stats = s.matrix.cache_stats();
        out.check(
            "hierarchical_blocks_stay_resident",
            stats.evictions == 0,
            format!("{stats:?}"),
        );
    }

    if p.trace {
        traced(&cell, &prepared, &registry, &oracle, out.digest, &mut out);
    } else {
        // Replay a prefix of every batch through the per-query path and
        // hold each answer against the oracle.
        let mut verdict = Ok(0);
        for (pr, algos) in prepared.iter().zip(&algos) {
            let h = &pr.handle;
            for (ai, algo) in algos.iter().enumerate() {
                let n = if ai == 0 {
                    BRUTE_REPLAY.min(cell.queries)
                } else {
                    cell.queries
                };
                let schedule = draw_target_schedule(h.targets(), n, seed);
                let (ans, _) = answer_all(
                    algo.as_ref(),
                    h.store(),
                    h.world(),
                    pr.truth(),
                    &schedule,
                    seed,
                    1,
                );
                verdict = verdict.and_then(|k| {
                    answers_against_oracle(
                        h.world(),
                        &oracle,
                        &schedule,
                        ans.iter().map(|a| a.found),
                        ai == 0,
                    )
                    .map(|j| k + j)
                });
            }
        }
        out.check(
            "answers_against_oracle",
            verdict.is_ok(),
            match verdict {
                Ok(n) => format!("{n} replayed answers"),
                Err(e) => e,
            },
        );
    }
    out
}

/// The traced pass: each backend rebuilt layer by layer, both
/// algorithms built and answered through `run_one_query`, reduced
/// through `reduce_records`, every call timed; the block cache's
/// counters read after the queries.
fn traced(
    cell: &CellSpec,
    prepared: &[Prepared],
    registry: &AlgoRegistry,
    oracle: &Oracle,
    untraced_digest: u64,
    out: &mut Outcome,
) {
    let seed = cell.base_seed;
    let cpu0 = crate::procfs::process_cpu_s().unwrap_or(0.0);
    let steal0 = crate::procfs::steal_s().unwrap_or(0.0);
    let start = now();
    let mut spans = Spans::default();
    let mut check_s = 0.0;
    let mut d = Digest::default();
    let (mut queries, mut probes) = (0u64, 0.0);
    let mut service = np_util::LatencyHist::new();
    let mut verdict = Ok(0);
    for (bi, &backend) in BACKENDS.iter().enumerate() {
        let b = backend.name();
        let pr = &prepared[bi];
        let layered = Layered::build(cell, backend, pr, 1, &mut spans);
        let shared = BuildCache::new();
        let ctx = AlgoContext {
            store: layered.store.as_dyn(),
            world: &layered.world,
            overlay: pr.handle.overlay(),
            seed,
            threads: 1,
            shared: &shared,
        };
        let mut brute_probes = 0.0;
        for (ai, name) in ALGOS.iter().enumerate() {
            let algo = spans.time(&format!("algo.build_s.{name}.{b}"), || {
                registry.expect(name).build(&ctx)
            });
            let schedule = spans.time("core.schedule_s", || {
                draw_target_schedule(pr.handle.targets(), cell.queries, seed)
            });
            let (ans, hist) = spans.time(&format!("core.query_s.{name}.{b}"), || {
                answer_all(
                    algo.as_ref(),
                    layered.store.as_dyn(),
                    &layered.world,
                    &layered.truth,
                    &schedule,
                    seed,
                    1,
                )
            });
            service.merge(&hist);
            let records: Vec<QueryRecord> = ans.iter().map(|q| q.record).collect();
            let m = spans.time("core.reduce_s", || reduce_records(&records, cell.queries));
            digest_metrics(&mut d, &m);
            queries += cell.queries as u64;
            probes += total_probes(&m);
            if ai == 0 {
                brute_probes = total_probes(&m);
            }
            out.metric(
                format!("core.probes_per_query.{name}.{b}"),
                m.mean_probes,
                "count",
            );
            let t = now();
            verdict = verdict.and_then(|k| {
                answers_against_oracle(
                    &layered.world,
                    oracle,
                    &schedule,
                    ans.iter().map(|a| a.found),
                    ai == 0,
                )
                .map(|j| k + j)
                .map_err(|e| format!("{b} {name}: {e}"))
            });
            check_s += t.elapsed().as_secs_f64();
        }
        out.metric(
            format!("metric.ns_per_probe.{b}"),
            spans.get(&format!("core.query_s.brute-force.{b}")) * 1e9 / brute_probes.max(1.0),
            "ns",
        );
        out.metric(
            format!("metric.store_mib.{b}"),
            layered.store.as_dyn().approx_bytes() as f64 / (1u64 << 20) as f64,
            "MiB",
        );
        out.metric(
            format!("dht.kademlia_build_s.{b}"),
            spans.get(&format!("algo.build_s.kademlia.{b}")),
            "s",
        );
        if let Store::Hierarchical(h) = &layered.store {
            let stats = h.cache_stats();
            out.metric("metric.cache_hits", stats.hits as f64, "count");
            out.metric("metric.cache_misses", stats.misses as f64, "count");
            out.metric("metric.cache_evictions", stats.evictions as f64, "count");
            out.metric(
                "metric.cache_resident_mib",
                stats.resident_bytes as f64 / (1u64 << 20) as f64,
                "MiB",
            );
        }
    }
    // The oracle comparisons ran inside the pass; they are the
    // benchmark's own work, not a layer's.
    let pass_wall = start.elapsed().as_secs_f64() - check_s;
    let cpu = crate::procfs::process_cpu_s().unwrap_or(0.0) - cpu0;
    let steal = crate::procfs::steal_s().unwrap_or(0.0) - steal0;
    out.check(
        "traced_equals_untraced",
        d.finish() == untraced_digest,
        format!("traced {:016x} untraced {untraced_digest:016x}", d.finish()),
    );
    out.check(
        "answers_against_oracle",
        verdict.is_ok(),
        match verdict {
            Ok(n) => format!("{n} answers"),
            Err(e) => e,
        },
    );
    layer_metrics(out, &spans, queries, probes);
    super::quantile_metrics(out, "core.service_us", &service);
    host_metrics(out, &spans, pass_wall, cpu, steal);
}
