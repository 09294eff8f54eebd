//! `paper_batch` — what reproducing a figure costs.
//!
//! Figure 8's cells x=25 and x=125 (dense ~2,500-peer worlds, three
//! seeds each), Meridian at the figure's 5,000-query budget plus a
//! brute-force reference row on a small budget, run through
//! `Experiment::run_threads` at 2 threads. Meridian's ring fill and
//! management do nearly all the work; the seed fan-out and the ring
//! fill are nested parallel regions that oversubscribe two cores.

use super::{
    answer_all, answers_against_oracle, cpu_timed, cpu_us_per_query, digest_metrics, host_metrics,
    layer_metrics, prepare_all, record_peak_rss, rounds, time_setup, total_probes,
    truth_matches_oracle, Layered, Params, Prepared, Size,
};
use crate::record::{Digest, Outcome};
use crate::stats::median;
use crate::trace::now;
use crate::trace::Spans;
use np_core::experiment::{
    AlgoContext, AlgoSpec, Backend, BuildCache, CellSpec, Experiment, ExperimentReport,
    ExperimentSpec, SeedPlan,
};
use np_core::{draw_target_schedule, reduce_records, PaperMetrics, QueryRecord};
use np_topology::ClusterWorldSpec;

const PAPER_BENCH_TAG: u64 = 0x5041_5052; // "PAPR"
const BACKEND: Backend = Backend::Dense;
/// Row order within every cell.
const ALGOS: [&str; 2] = ["meridian", "brute-force"];

/// The workload's spec at `p`'s seed.
pub fn spec(p: &Params) -> ExperimentSpec {
    let base = p.base_seed(PAPER_BENCH_TAG);
    let (peers, meridian_q, brute_q, targets) = match p.size {
        Size::Full => (2_500, 5_000, 100, 100),
        Size::Tiny => (600, 300, 20, 30),
    };
    let cells = [25usize, 125]
        .iter()
        .map(|&x| {
            let paper = ClusterWorldSpec::paper(x, 0.2);
            let clusters = (peers / (x * paper.peers_per_en)).max(1);
            CellSpec {
                label: format!("x={x}"),
                world: ClusterWorldSpec {
                    clusters,
                    hub_pool: clusters.max(2),
                    ..paper
                },
                n_targets: targets,
                base_seed: base.wrapping_add(x as u64),
                queries: meridian_q,
                quick_queries: None,
                in_quick: true,
                churn: None,
                super_shards: None,
                block_cache_mb: None,
                algos: vec![
                    AlgoSpec::new(ALGOS[0]),
                    AlgoSpec::new(ALGOS[1]).with_queries(brute_q),
                ],
            }
        })
        .collect();
    let mut spec = ExperimentSpec::query(
        "paper_batch",
        "Figure 8 cells x=25 and x=125, three seeds",
        "Meridian finds the closest peer less often as clusters grow",
        BACKEND,
        SeedPlan::THREE_RUNS,
        cells,
    );
    spec.base_seed = base;
    spec
}

fn queries_per_round(spec: &ExperimentSpec, cells: &[CellSpec]) -> u64 {
    let runs = spec.seeds.runs() as u64;
    cells
        .iter()
        .flat_map(|c| {
            c.algos
                .iter()
                .map(|a| a.queries.unwrap_or(c.queries) as u64)
        })
        .sum::<u64>()
        * runs
}

/// Digest of a report's metrics in cell → algorithm → seed order.
fn report_digest(report: &ExperimentReport) -> u64 {
    let mut d = Digest::default();
    for cell in report.query_cells().unwrap_or_default() {
        for row in &cell.rows {
            for m in &row.runs {
                digest_metrics(&mut d, m);
            }
        }
    }
    d.finish()
}

pub fn run(p: &Params) -> Outcome {
    let threads = p.threads(2);
    let registry = np_bench::full_registry();
    let experiment = Experiment::new(spec(p), &registry);
    let spec = experiment.spec();
    let cells = match &spec.workload {
        np_core::experiment::spec::Workload::QueryMatrix(c) => c.clone(),
        _ => unreachable!("paper_batch is a query spec"),
    };
    let seeds: Vec<Vec<u64>> = cells
        .iter()
        .map(|c| spec.seeds.seeds(c.base_seed))
        .collect();
    let mut out = Outcome::default();

    // Set-up: every (cell, seed) scenario and its ground truth, as the
    // figure run builds them, five times at 1 thread (a second thread
    // makes a sub-second phase hostage to the other core's steal).
    let setup_times = time_setup(&cells, &seeds, BACKEND, 5);

    let busy0 = np_util::parallel::busy_time();
    let measured = rounds(p, 1, || cpu_timed(|| experiment.run_threads(threads)));
    let busy = (np_util::parallel::busy_time() - busy0).as_secs_f64();
    record_peak_rss(&mut out);
    let prepared = prepare_all(&cells, &seeds, BACKEND);
    let cpus: Vec<f64> = measured.iter().map(|(_, (c, _))| *c).collect();
    let wall: f64 = measured.iter().map(|(w, _)| w).sum();
    let per_round = queries_per_round(spec, &cells);
    out.attempted = per_round * measured.len() as u64;
    out.metric("setup_s", median(&setup_times).expect("reps"), "s");
    let walls: Vec<f64> = measured.iter().map(|(w, _)| *w).collect();
    out.metric("run_s", median(&walls).expect("round"), "s");
    out.metric("cpu_us_per_query", cpu_us_per_query(&cpus, per_round), "us");
    // The figure binaries' footer divides the worker busy time by the
    // wall time and calls it effective parallelism; process CPU time
    // over the same wall is the figure it over-counts.
    out.metric("util.busy_per_wall", busy / wall, "ratio");
    out.metric(
        "util.run_cpu_per_wall",
        cpus.iter().sum::<f64>() / wall,
        "ratio",
    );
    let measured: Vec<(f64, ExperimentReport)> =
        measured.into_iter().map(|(w, (_, r))| (w, r)).collect();

    // Checks on the figure run's own outputs.
    let report = &measured.last().expect("one round").1;
    let digest = report_digest(report);
    out.digest = digest;
    out.check(
        "rounds_identical",
        measured.iter().all(|(_, r)| report_digest(r) == digest),
        format!("{} rounds", measured.len()),
    );
    let got = report.query_cells().unwrap_or_default();
    let failed: Vec<String> = got
        .iter()
        .filter_map(|c| c.error.as_ref().map(|e| format!("{}: {e}", c.label)))
        .collect();
    out.check(
        "no_failed_cells",
        failed.is_empty() && got.len() == cells.len(),
        failed.join("; "),
    );
    let mut exact = Ok(());
    let mut stretch = Ok(());
    for (ci, cell) in got.iter().enumerate() {
        for row in &cell.rows {
            for (si, m) in row.runs.iter().enumerate() {
                let overlay = prepared[ci][si].handle.overlay().len() as f64;
                if row.algo == "brute-force"
                    && exact.is_ok()
                    && (m.p_correct_closest != 1.0 || m.mean_probes != overlay)
                {
                    exact = Err(format!(
                        "{} seed {si}: P(closest) {} probes/query {} (overlay {overlay})",
                        cell.label, m.p_correct_closest, m.mean_probes
                    ));
                }
                if m.mean_stretch < 1.0 && stretch.is_ok() {
                    stretch = Err(format!(
                        "{} {} seed {si}: mean stretch {}",
                        cell.label, row.algo, m.mean_stretch
                    ));
                }
            }
        }
    }
    out.check(
        "brute_force_exact",
        exact.is_ok(),
        exact.err().unwrap_or_default(),
    );
    out.check(
        "stretch_at_least_one",
        stretch.is_ok(),
        stretch.err().unwrap_or_default(),
    );
    let meridian = |ci: usize| -> Vec<f64> {
        got.get(ci)
            .and_then(|c| c.rows.iter().find(|r| r.algo == "meridian"))
            .map(|r| r.runs.iter().map(|m| m.p_correct_closest).collect())
            .unwrap_or_default()
    };
    let (small, large) = (meridian(0), meridian(1));
    out.check(
        "fig8_shape",
        small.len() == large.len()
            && !small.is_empty()
            && small.iter().zip(&large).all(|(a, b)| a > b),
        format!("P(closest) x=25 {small:?} vs x=125 {large:?}"),
    );
    let mut truth = Ok(0);
    for pr in prepared.iter().flatten() {
        let h = &pr.handle;
        truth = truth.and_then(|n| {
            truth_matches_oracle(h.store(), h.world(), pr.truth(), &pr.oracle()).map(|k| n + k)
        });
    }
    out.check(
        "truth_matches_oracle",
        truth.is_ok(),
        match truth {
            Ok(n) => format!("{n} targets"),
            Err(e) => e,
        },
    );

    if p.trace {
        traced(
            &cells, &seeds, &prepared, &registry, threads, digest, &mut out,
        );
    }
    out
}

/// The traced pass: each (cell, seed) rebuilt layer by layer, each
/// algorithm built, its queries answered through `run_one_query` and
/// reduced through `reduce_records`, every call timed.
fn traced(
    cells: &[CellSpec],
    seeds: &[Vec<u64>],
    prepared: &[Vec<Prepared>],
    registry: &np_core::experiment::AlgoRegistry,
    threads: usize,
    untraced_digest: u64,
    out: &mut Outcome,
) {
    let cpu0 = crate::procfs::process_cpu_s().unwrap_or(0.0);
    let steal0 = crate::procfs::steal_s().unwrap_or(0.0);
    let start = now();
    let mut spans = Spans::default();
    // metrics[cell][algo][seed], the report's order.
    let mut metrics: Vec<Vec<Vec<PaperMetrics>>> = cells
        .iter()
        .map(|c| vec![Vec::new(); c.algos.len()])
        .collect();
    let mut answers = Vec::new();
    let (mut queries, mut probes) = (0u64, 0.0);
    let mut service = np_util::LatencyHist::new();
    for (ci, cell) in cells.iter().enumerate() {
        for (si, &seed) in seeds[ci].iter().enumerate() {
            let pr = &prepared[ci][si];
            let layered = Layered::build(cell, BACKEND, pr, threads, &mut spans);
            let shared = BuildCache::new();
            let ctx = AlgoContext {
                store: layered.store.as_dyn(),
                world: &layered.world,
                overlay: pr.handle.overlay(),
                seed,
                threads,
                shared: &shared,
            };
            for (ai, a) in cell.algos.iter().enumerate() {
                let factory = registry.expect(&a.name);
                let algo = spans.time(&format!("algo.build_s.{}.dense", a.name), || {
                    factory.build(&ctx)
                });
                let n = a.queries.unwrap_or(cell.queries);
                let schedule = spans.time("core.schedule_s", || {
                    draw_target_schedule(pr.handle.targets(), n, seed)
                });
                let (ans, hist) = spans.time(&format!("core.query_s.{}.dense", a.name), || {
                    answer_all(
                        algo.as_ref(),
                        layered.store.as_dyn(),
                        &layered.world,
                        &layered.truth,
                        &schedule,
                        seed,
                        threads,
                    )
                });
                service.merge(&hist);
                let records: Vec<QueryRecord> = ans.iter().map(|q| q.record).collect();
                let m = spans.time("core.reduce_s", || reduce_records(&records, n));
                queries += n as u64;
                probes += total_probes(&m);
                metrics[ci][ai].push(m);
                answers.push((ci, si, a.name.clone(), schedule, ans));
            }
        }
    }
    let pass_wall = start.elapsed().as_secs_f64();
    let cpu = crate::procfs::process_cpu_s().unwrap_or(0.0) - cpu0;
    let steal = crate::procfs::steal_s().unwrap_or(0.0) - steal0;

    let mut d = Digest::default();
    for m in metrics.iter().flatten().flatten() {
        digest_metrics(&mut d, m);
    }
    out.check(
        "traced_equals_untraced",
        d.finish() == untraced_digest,
        format!("traced {:016x} untraced {untraced_digest:016x}", d.finish()),
    );
    let mut verdict = Ok(0);
    for (ci, si, name, schedule, ans) in &answers {
        let pr = &prepared[*ci][*si];
        let oracle = pr.oracle();
        verdict = verdict.and_then(|n| {
            answers_against_oracle(
                pr.handle.world(),
                &oracle,
                schedule,
                ans.iter().map(|a| a.found),
                name == "brute-force",
            )
            .map(|k| n + k)
            .map_err(|e| format!("{} {name}: {e}", cells[*ci].label))
        });
    }
    out.check(
        "answers_against_oracle",
        verdict.is_ok(),
        match verdict {
            Ok(n) => format!("{n} answers"),
            Err(e) => e,
        },
    );

    layer_metrics(out, &spans, queries, probes);
    out.metric(
        "meridian.build_s",
        spans.sum_prefix("algo.build_s.meridian"),
        "s",
    );
    super::quantile_metrics(out, "core.service_us", &service);
    host_metrics(out, &spans, pass_wall, cpu, steal);
}
