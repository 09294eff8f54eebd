//! `churn_batch` — the only workload that changes membership.
//!
//! The `ext_churn` spec (a 500-peer world, churn rates 0/2/6/12 events
//! per minute, three seeds, brute force / Meridian / random) run
//! through `Experiment::run_threads` at 1 thread. It exercises
//! incremental ring repair, rebuild on join and truth-cache
//! evict/admit.

use super::{
    cpu_timed, cpu_us_per_query, digest_metrics, host_metrics, layer_metrics, prepare_all,
    record_peak_rss, rounds, time_setup, total_probes, truth_matches_oracle, Layered, Params,
    Prepared, Size,
};
use crate::record::{Digest, Outcome};
use crate::stats::median;
use crate::trace::now;
use crate::trace::Spans;
use np_core::experiment::{
    AlgoContext, AlgoRegistry, Backend, BuildCache, CellSpec, Experiment, ExperimentReport,
    ExperimentSpec, ScenarioHandle, SeedPlan, Workload,
};
use np_core::{ChurnSchedule, ChurnStats, PaperMetrics};
use np_util::parallel::item_seed;

const CHURN_BENCH_TAG: u64 = 0x4342_4E43; // "CBNC"
const BACKEND: Backend = Backend::Dense;
/// Figure runs per measurement. One run's wall varies ±12 % with the
/// host alone (the same seed read 14.3–18.0 s back to back), and that
/// noise decorrelates within a run's length, so a run measures two and
/// reports their median.
const MIN_ROUNDS: usize = 2;

/// Candidate base seeds per churning cell, drawn from `--seed`, and
/// reference base seeds, drawn from a constant (see [`spec`]).
const CANDIDATES: u64 = 32;
const REFERENCES: u64 = 16;

/// The workload's spec at `p`'s seed: `ext_churn` as the figure
/// catalogue defines it; the tiny size takes its quick query budget
/// and a tenth of its simulated minute (a tenth of the events).
///
/// A cell's cost is mostly Meridian rebuilding on joins, and the
/// scripted join count is Poisson-like in the seed: between seeds the
/// figure run's work differs by half. So every run scripts the same
/// amount of churn: a churning cell's target is the median (joins,
/// leaves) total of its three scripts over 16 reference base seeds that
/// are the same in every run, and the cell takes, of 32 candidate base
/// seeds derived from `--seed`, the first whose totals are closest to
/// that target. The inputs still follow `--seed`.
pub fn spec(p: &Params) -> ExperimentSpec {
    let mut spec = np_bench::specs::ext_churn::build(p.base_seed(CHURN_BENCH_TAG));
    if p.size == Size::Tiny {
        spec = spec.resolve_quick(true);
        if let Workload::QueryMatrix(cells) = &mut spec.workload {
            for churn in cells.iter_mut().filter_map(|c| c.churn.as_mut()) {
                churn.duration_s /= 10.0;
            }
        }
    }
    let plan = spec.seeds;
    if let Workload::QueryMatrix(cells) = &mut spec.workload {
        for (ci, cell) in cells.iter_mut().enumerate() {
            if !cell.churn.is_some_and(|c| c.events_per_min > 0.0) {
                continue;
            }
            let tag = CHURN_BENCH_TAG + 1 + ci as u64;
            let mut reference: Vec<(u64, u64)> = (0..REFERENCES)
                .map(|k| script_totals(cell, &plan, item_seed(0, tag, k) >> 32))
                .collect();
            reference.sort_unstable();
            let joins = reference[reference.len() / 2].0;
            let mut leaves: Vec<u64> = reference.iter().map(|r| r.1).collect();
            leaves.sort_unstable();
            let leaves = leaves[leaves.len() / 2];
            cell.base_seed = (0..CANDIDATES)
                .map(|k| item_seed(p.seed, tag, k + REFERENCES) >> 32)
                .min_by_key(|&base| {
                    let (j, l) = script_totals(cell, &plan, base);
                    (j.abs_diff(joins), l.abs_diff(leaves))
                })
                .expect("candidates");
        }
    }
    spec
}

/// Total joins and leaves of a cell's churn scripts when its base seed
/// is `base`, generated as the figure run generates them.
fn script_totals(cell: &CellSpec, plan: &SeedPlan, base: u64) -> (u64, u64) {
    let churn = cell.churn.expect("a churning cell");
    plan.seeds(base)
        .into_iter()
        .map(|s| {
            let h = ScenarioHandle::build(cell, BACKEND, s, 1);
            let script =
                ChurnSchedule::generate(&churn, h.overlay(), h.world().len(), cell.queries, s);
            (script.joins, script.leaves)
        })
        .fold((0, 0), |(j, l), (dj, dl)| (j + dj, l + dl))
}

/// Brute-force misses a query only when every attempt of its probe to
/// the true nearest is lost (per-query chance `loss^attempts`, 1.25e-4
/// under ext_churn's fault model). Allow 3 such misses per run: more
/// than 3 among 400 queries has a chance below 1e-6, so a failure means
/// brute force missed for another reason. Without loss it must be exact.
fn allowed_misses(cell: Option<&CellSpec>) -> f64 {
    match cell.and_then(|c| c.churn) {
        Some(churn) if churn.loss > 0.0 => 3.0,
        _ => 0.0,
    }
}

fn cells_of(spec: &ExperimentSpec) -> Vec<CellSpec> {
    match &spec.workload {
        Workload::QueryMatrix(c) => c.clone(),
        Workload::Study(_) => unreachable!("ext_churn is a query spec"),
    }
}

fn digest_stats(d: &mut Digest, s: &ChurnStats) {
    d.word(s.epochs)
        .word(s.events)
        .word(s.joins)
        .word(s.leaves)
        .word(s.drifts)
        .word(s.repair.full_rebuilds)
        .word(s.repair.rings_replayed)
        .word(s.repair.ring_inserts)
        .word(s.repair.fallback_leaves);
}

/// Digest of a report's metrics and churn accounting, cell → algorithm
/// → seed.
fn report_digest(report: &ExperimentReport) -> u64 {
    let mut d = Digest::default();
    for cell in report.query_cells().unwrap_or_default() {
        for row in &cell.rows {
            row.runs.iter().for_each(|m| digest_metrics(&mut d, m));
            digest_stats(&mut d, &row.churn.unwrap_or_default());
        }
    }
    d.finish()
}

pub fn run(p: &Params) -> Outcome {
    let registry = np_bench::full_registry();
    let experiment = Experiment::new(spec(p), &registry);
    let spec = experiment.spec();
    let cells = cells_of(spec);
    let seeds: Vec<Vec<u64>> = cells
        .iter()
        .map(|c| spec.seeds.seeds(c.base_seed))
        .collect();
    let mut out = Outcome::default();

    // Set-up: every (cell, seed) scenario and its static ground truth;
    // a set takes tens of milliseconds, so it is built 15 times.
    let setup_times = time_setup(&cells, &seeds, BACKEND, 15);

    let measured = rounds(p, MIN_ROUNDS, || cpu_timed(|| experiment.run_threads(1)));
    record_peak_rss(&mut out);
    let prepared = prepare_all(&cells, &seeds, BACKEND);
    let cpus: Vec<f64> = measured.iter().map(|(_, (c, _))| *c).collect();
    let measured: Vec<(f64, ExperimentReport)> =
        measured.into_iter().map(|(w, (_, r))| (w, r)).collect();
    let per_round: u64 = cells
        .iter()
        .flat_map(|c| {
            c.algos
                .iter()
                .map(|a| a.queries.unwrap_or(c.queries) as u64)
        })
        .sum::<u64>()
        * spec.seeds.runs() as u64;
    out.attempted = per_round * measured.len() as u64;
    let walls: Vec<f64> = measured.iter().map(|(w, _)| *w).collect();
    out.metric("setup_s", median(&setup_times).expect("reps"), "s");
    out.metric("run_s", median(&walls).expect("round"), "s");
    out.metric("cpu_us_per_query", cpu_us_per_query(&cpus, per_round), "us");

    let report = &measured.last().expect("one round").1;
    let mut script = ChurnStats::default();
    let mut meridian_s = 0.0;
    for cell in report.query_cells().unwrap_or_default() {
        for row in &cell.rows {
            script += row.churn.unwrap_or_default();
            if row.algo == "meridian" {
                meridian_s += row.wall.as_secs_f64();
            }
        }
    }
    out.metric("script.epochs", script.epochs as f64, "count");
    out.metric("script.joins", script.joins as f64, "count");
    out.metric("script.leaves", script.leaves as f64, "count");
    out.metric(
        "script.full_rebuilds",
        script.repair.full_rebuilds as f64,
        "count",
    );
    out.metric(
        "script.rings_replayed",
        script.repair.rings_replayed as f64,
        "count",
    );
    out.metric("script.meridian_s", meridian_s, "s");
    out.digest = report_digest(report);
    out.check(
        "rounds_identical",
        measured.iter().all(|(_, r)| report_digest(r) == out.digest),
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
    let runs = spec.seeds.runs() as u64;
    let mut accounting = Ok(());
    let mut exact = Ok(());
    let mut still = Ok(());
    for cell in got {
        for row in &cell.rows {
            let s = row.churn.unwrap_or_default();
            if accounting.is_ok()
                && (row.churn.is_none()
                    || s.epochs != s.events + runs
                    || s.joins + s.leaves + s.drifts != s.events)
            {
                accounting = Err(format!("{} {}: {s:?}", cell.label, row.algo));
            }
            if row.algo == "brute-force" && exact.is_ok() {
                let allowed = allowed_misses(cells.iter().find(|c| c.label == cell.label));
                if let Some((si, m)) = row.runs.iter().enumerate().find(|(_, m)| {
                    let misses = ((1.0 - m.p_correct_closest) * m.queries as f64).round();
                    misses > allowed
                }) {
                    exact = Err(format!(
                        "{} seed {si}: P(closest) {} over {} queries ({allowed} misses allowed)",
                        cell.label, m.p_correct_closest, m.queries
                    ));
                }
            }
            if cell.label == "rate=0"
                && still.is_ok()
                && (s.events != 0 || s.repair.rings_replayed != 0 || s.repair.ring_inserts != 0)
            {
                still = Err(format!("{}: {s:?}", row.algo));
            }
        }
    }
    out.check(
        "churn_accounting",
        accounting.is_ok(),
        accounting.err().unwrap_or_default(),
    );
    out.check(
        "brute_force_exact_but_for_loss",
        exact.is_ok(),
        exact.err().unwrap_or_default(),
    );
    out.check(
        "rate0_repairs_nothing",
        still.is_ok() && got.iter().any(|c| c.label == "rate=0"),
        still.err().unwrap_or_default(),
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
        traced(&cells, &seeds, &prepared, &registry, out.digest, &mut out);
    }
    out
}

/// The traced pass: per (cell, seed) the world, store and static truth
/// rebuilt by their layers, the churn script generated, each algorithm
/// built once on the starting membership and then driven through its
/// dynamic run, every call timed.
fn traced(
    cells: &[CellSpec],
    seeds: &[Vec<u64>],
    prepared: &[Vec<Prepared>],
    registry: &AlgoRegistry,
    untraced_digest: u64,
    out: &mut Outcome,
) {
    let cpu0 = crate::procfs::process_cpu_s().unwrap_or(0.0);
    let steal0 = crate::procfs::steal_s().unwrap_or(0.0);
    let start = now();
    let mut spans = Spans::default();
    // [cell][algo] → per-seed metrics and summed stats.
    let mut rows: Vec<Vec<(Vec<PaperMetrics>, ChurnStats)>> = cells
        .iter()
        .map(|c| vec![(Vec::new(), ChurnStats::default()); c.algos.len()])
        .collect();
    let (mut queries, mut probes) = (0u64, 0.0);
    for (ci, cell) in cells.iter().enumerate() {
        let churn = cell.churn.expect("every ext_churn cell churns");
        for (si, &seed) in seeds[ci].iter().enumerate() {
            let pr = &prepared[ci][si];
            let h = &pr.handle;
            let layered = Layered::build(cell, BACKEND, pr, 1, &mut spans);
            let shared = BuildCache::new();
            let static_ctx = AlgoContext {
                store: layered.store.as_dyn(),
                world: &layered.world,
                overlay: h.overlay(),
                seed,
                threads: 1,
                shared: &shared,
            };
            let n = cell.queries;
            assert!(
                cell.algos.iter().all(|a| a.queries.unwrap_or(n) == n),
                "ext_churn rows share one query budget"
            );
            let schedule = spans.time("churn.schedule_s", || {
                ChurnSchedule::generate(&churn, h.overlay(), h.world().len(), n, seed)
            });
            let caches: Vec<BuildCache> = (0..schedule.epochs.len())
                .map(|_| BuildCache::new())
                .collect();
            let run_shared = BuildCache::new();
            let ctx = AlgoContext {
                store: h.store(),
                world: h.world(),
                overlay: h.overlay(),
                seed,
                threads: 1,
                shared: &run_shared,
            };
            for (ai, a) in cell.algos.iter().enumerate() {
                let factory = registry.expect(&a.name);
                drop(spans.time(&format!("algo.build_s.{}.dense", a.name), || {
                    factory.build(&static_ctx)
                }));
                let (m, stats) = spans.time(&format!("core.query_s.{}.churn", a.name), || {
                    h.run_dynamic(factory, &ctx, &schedule, &caches, &churn, n, seed, 1)
                });
                queries += n as u64;
                probes += total_probes(&m);
                rows[ci][ai].0.push(m);
                rows[ci][ai].1 += stats;
            }
        }
    }
    let pass_wall = start.elapsed().as_secs_f64();
    let cpu = crate::procfs::process_cpu_s().unwrap_or(0.0) - cpu0;
    let steal = crate::procfs::steal_s().unwrap_or(0.0) - steal0;

    let mut d = Digest::default();
    let mut total = ChurnStats::default();
    for (ms, stats) in rows.iter().flatten() {
        ms.iter().for_each(|m| digest_metrics(&mut d, m));
        digest_stats(&mut d, stats);
        total += *stats;
    }
    out.check(
        "traced_equals_untraced",
        d.finish() == untraced_digest,
        format!("traced {:016x} untraced {untraced_digest:016x}", d.finish()),
    );
    layer_metrics(out, &spans, queries, probes);
    for a in &cells[0].algos {
        out.metric(
            format!("churn.run_s.{}", a.name),
            spans.get(&format!("core.query_s.{}.churn", a.name)),
            "s",
        );
    }
    out.metric("churn.epochs", total.epochs as f64, "count");
    out.metric(
        "churn.full_rebuilds",
        total.repair.full_rebuilds as f64,
        "count",
    );
    out.metric(
        "churn.rings_replayed",
        total.repair.rings_replayed as f64,
        "count",
    );
    out.metric(
        "churn.ring_inserts",
        total.repair.ring_inserts as f64,
        "count",
    );
    host_metrics(out, &spans, pass_wall, cpu, steal);
}
