//! `serve_open_loop` — the serving daemon under open-loop load, then
//! saturated.
//!
//! Meridian on ext_serve's x=125 world, served through
//! `np_serve::serve` with 1 router worker and blocking admission. After
//! an untimed warm-up, the open-loop phase offers a seeded Poisson
//! schedule at 5,000 q/s from the benchmark's own load generator, which
//! submits each query with `submit_at(due)`, so every latency is timed
//! from when the query was due. The saturation phase then submits a
//! fixed batch as fast as admission allows, several times. Meridian's
//! service time is about 10 µs, so most of a query's latency is the
//! hand-offs between pipeline stages.

use super::{
    answer_all, answers_against_oracle, cpu_timed, cpu_us_per_query, digest_metrics, host_metrics,
    layer_metrics, quantile_metrics, record_peak_rss, rounds, total_probes, truth_matches_oracle,
    Layered, Params, Prepared, Size,
};
use crate::oracle::Oracle;
use crate::record::{Digest, Outcome};
use crate::stats::median;
use crate::trace::now;
use crate::trace::Spans;
use np_core::experiment::{AlgoContext, AlgoSpec, Backend, BuildCache, CellSpec};
use np_core::{draw_target_schedule, reduce_records, AnsweredQuery, QueryRecord};
use np_metric::{NearestCache, NearestPeerAlgo, PeerId, WorldStore};
use np_serve::{serve, Admission, ArrivalSchedule, ServeConfig, ServeCtx, ServeReport};
use np_topology::ClusterWorld;
use np_util::LatencyHist;
use std::time::Duration;

const SERVE_BENCH_TAG: u64 = 0x5345_5256; // "SERV"
const BACKEND: Backend = Backend::Dense;
/// Set-up repetitions per run (the median is reported).
const SETUP_REPS: usize = 2;

/// Load shape of one round.
#[derive(Debug, Clone, Copy)]
pub struct Load {
    pub rate_qps: f64,
    pub warmup_s: f64,
    pub open_s: f64,
    /// Queries per saturation batch, and batches per round.
    pub saturation: usize,
    pub saturation_reps: usize,
}

pub fn load(size: Size) -> Load {
    match size {
        Size::Full => Load {
            rate_qps: 5_000.0,
            warmup_s: 0.5,
            open_s: 7.0,
            saturation: 60_000,
            saturation_reps: 5,
        },
        Size::Tiny => Load {
            rate_qps: 2_000.0,
            warmup_s: 0.1,
            open_s: 0.3,
            saturation: 2_000,
            saturation_reps: 3,
        },
    }
}

/// The workload's cell at `p`'s seed: ext_serve's x=125 world.
pub fn cell(p: &Params) -> CellSpec {
    let cell = CellSpec::paper(
        "x=125",
        125,
        0.2,
        p.base_seed(SERVE_BENCH_TAG),
        2_000,
        vec![AlgoSpec::new("meridian")],
    );
    match p.size {
        Size::Full => cell,
        Size::Tiny => CellSpec {
            world: np_topology::ClusterWorldSpec {
                clusters: 3,
                hub_pool: 3,
                ..cell.world
            },
            n_targets: 30,
            ..cell
        },
    }
}

fn config() -> ServeConfig {
    ServeConfig {
        workers: 1,
        admission: Admission::Block,
        ..ServeConfig::default()
    }
}

/// What the load generator saw while offering an open-loop schedule.
#[derive(Debug, Default, Clone)]
pub struct GeneratorStats {
    /// How late each submission started after its due time, ns.
    pub lag: LatencyHist,
    /// Time inside `submit_at`, ns.
    pub submit: LatencyHist,
}

/// Offer `schedule` open-loop: sleep until each query is due, then
/// submit it stamped with its due time.
fn open_loop(
    ctx: &ServeCtx<'_>,
    algo: &dyn NearestPeerAlgo,
    schedule: &ArrivalSchedule,
) -> (ServeReport, GeneratorStats) {
    serve(ctx, algo, &config(), |handle| {
        let mut g = GeneratorStats::default();
        let start = now();
        for (idx, (&off, &target)) in schedule
            .offsets_ns
            .iter()
            .zip(&schedule.targets)
            .enumerate()
        {
            let due = start + Duration::from_nanos(off);
            let before = now();
            if due > before {
                std::thread::sleep(due - before);
            }
            let t0 = now();
            handle.submit_at(idx, target, due);
            let t1 = now();
            g.lag
                .record(t0.saturating_duration_since(due).as_nanos() as u64);
            g.submit.record((t1 - t0).as_nanos() as u64);
        }
        g
    })
}

/// Submit `targets` as fast as admission allows.
fn saturate(ctx: &ServeCtx<'_>, algo: &dyn NearestPeerAlgo, targets: &[PeerId]) -> ServeReport {
    serve(ctx, algo, &config(), |handle| {
        for (idx, &t) in targets.iter().enumerate() {
            handle.submit(idx, t);
        }
    })
    .0
}

/// One round's program outputs and timings.
pub struct Round {
    pub warmup: ServeReport,
    pub open: ServeReport,
    pub generator: GeneratorStats,
    pub saturation: Vec<ServeReport>,
    /// Process CPU seconds of each saturation batch.
    pub saturation_cpu: Vec<f64>,
}

impl Round {
    fn digest(&self) -> u64 {
        let mut d = Digest::default();
        digest_metrics(&mut d, &self.open.metrics);
        for s in &self.saturation {
            digest_metrics(&mut d, &s.metrics);
        }
        d.finish()
    }

    fn saturation_qps(&self) -> Vec<f64> {
        self.saturation
            .iter()
            .map(|r| r.stats.completed as f64 / r.wall.as_secs_f64())
            .collect()
    }
}

/// The schedules every round offers.
pub struct Schedules {
    pub warmup: ArrivalSchedule,
    pub open: ArrivalSchedule,
    pub saturation: Vec<PeerId>,
}

impl Schedules {
    fn new(targets: &[PeerId], load: &Load, seed: u64) -> Schedules {
        Schedules {
            warmup: ArrivalSchedule::poisson(targets, load.rate_qps, load.warmup_s, seed),
            open: ArrivalSchedule::poisson(targets, load.rate_qps, load.open_s, seed),
            saturation: draw_target_schedule(targets, load.saturation, seed),
        }
    }

    fn queries(&self, reps: usize) -> u64 {
        (self.warmup.len() + self.open.len() + reps * self.saturation.len()) as u64
    }
}

fn round(
    ctx: &ServeCtx<'_>,
    algo: &dyn NearestPeerAlgo,
    s: &Schedules,
    load: &Load,
    spans: Option<&mut Spans>,
) -> Round {
    let mut discarded = Spans::default();
    let spans = spans.unwrap_or(&mut discarded);
    let (warmup, _) = spans.time("serve.warmup_s", || open_loop(ctx, algo, &s.warmup));
    let (open, generator) = spans.time("serve.open_loop_s", || open_loop(ctx, algo, &s.open));
    let (saturation_cpu, saturation) = (0..load.saturation_reps)
        .map(|_| {
            spans.time("serve.saturation_s", || {
                cpu_timed(|| saturate(ctx, algo, &s.saturation))
            })
        })
        .unzip();
    Round {
        warmup,
        open,
        generator,
        saturation,
        saturation_cpu,
    }
}

/// Check one served phase: every query submitted was admitted and
/// answered, nothing shed, and each slot's answer and the reduced
/// metrics equal the per-query path's.
fn check_phase(
    name: &str,
    report: &ServeReport,
    offered: usize,
    replay: &[AnsweredQuery],
) -> Result<(), String> {
    let s = &report.stats;
    let n = offered as u64;
    if s.submitted != n || s.admitted != n || s.completed != n || s.shed != 0 {
        return Err(format!("{name}: offered {n}, {s:?}"));
    }
    if report.answers.len() != replay.len() {
        return Err(format!(
            "{name}: {} slots for {} queries",
            report.answers.len(),
            replay.len()
        ));
    }
    if let Some(i) = (0..replay.len()).find(|&i| report.answers[i] != Some(replay[i].found)) {
        return Err(format!(
            "{name}: slot {i} served {:?}, run_one_query answers {:?}",
            report.answers[i], replay[i].found
        ));
    }
    let records: Vec<QueryRecord> = replay.iter().map(|a| a.record).collect();
    let batch = reduce_records(&records, records.len());
    if report.metrics != batch {
        return Err(format!(
            "{name}: served {:?} != replayed {batch:?}",
            report.metrics
        ));
    }
    Ok(())
}

/// Check every served round against the per-query path, and the
/// per-query path's answers against the oracle.
fn check_rounds<'r>(
    out: &mut Outcome,
    rounds: impl Iterator<Item = &'r Round>,
    s: &Schedules,
    open_replay: &[AnsweredQuery],
    sat_replay: &[AnsweredQuery],
    world: &ClusterWorld,
    oracle: &Oracle,
) {
    let mut verdict = Ok(0);
    for r in rounds {
        let w = &r.warmup.stats;
        if w.completed != s.warmup.len() as u64 || w.shed != 0 {
            verdict = verdict.and(Err(format!("warm-up: offered {}, {w:?}", s.warmup.len())));
        }
        verdict = verdict.and_then(|n| {
            check_phase("open loop", &r.open, s.open.len(), open_replay).map(|()| n + 1)
        });
        for (i, sat) in r.saturation.iter().enumerate() {
            verdict = verdict.and_then(|n| {
                check_phase(
                    &format!("saturation {i}"),
                    sat,
                    s.saturation.len(),
                    sat_replay,
                )
                .map(|()| n + 1)
            });
        }
    }
    out.check(
        "served_equals_run_one_query",
        verdict.is_ok(),
        match verdict {
            Ok(phases) => format!(
                "{phases} phases of {} open-loop or {} saturation slots",
                s.open.len(),
                s.saturation.len()
            ),
            Err(e) => e,
        },
    );
    let sane = answers_against_oracle(
        world,
        oracle,
        &s.open.targets,
        open_replay.iter().map(|a| a.found),
        false,
    )
    .and_then(|n| {
        answers_against_oracle(
            world,
            oracle,
            &s.saturation,
            sat_replay.iter().map(|a| a.found),
            false,
        )
        .map(|k| n + k)
    });
    out.check(
        "answers_against_oracle",
        sane.is_ok(),
        match sane {
            Ok(n) => format!("{n} answers"),
            Err(e) => e,
        },
    );
}

/// The serving layer's own telemetry for one round.
fn serve_metrics(out: &mut Outcome, r: &Round) {
    quantile_metrics(out, "serve.queued_us", &r.open.queued);
    quantile_metrics(out, "serve.service_us", &r.open.service);
    quantile_metrics(out, "serve.total_us", &r.open.total);
    quantile_metrics(out, "serve.submit_us", &r.generator.submit);
    quantile_metrics(out, "serve.generator_lag_us", &r.generator.lag);
    out.metric(
        "serve.generator_lag_us.max",
        r.generator.lag.max().unwrap_or(0) as f64 / 1e3,
        "us",
    );
    let (done, batches) = r
        .saturation
        .iter()
        .chain([&r.open])
        .fold((0u64, 0u64), |(d, b), x| {
            (d + x.stats.completed, b + x.stats.batches)
        });
    out.metric(
        "serve.batch_fill",
        done as f64 / batches.max(1) as f64,
        "q/batch",
    );
    out.metric("serve.shed", r.open.stats.shed as f64, "count");
    out.metric(
        "serve.open_loop_qps",
        r.open.stats.completed as f64 / r.open.wall.as_secs_f64(),
        "1/s",
    );
}

fn replay(
    algo: &dyn NearestPeerAlgo,
    store: &dyn WorldStore,
    world: &ClusterWorld,
    truth: &NearestCache,
    targets: &[PeerId],
    seed: u64,
) -> (Vec<AnsweredQuery>, LatencyHist) {
    answer_all(algo, store, world, truth, targets, seed, 1)
}

pub fn run(p: &Params) -> Outcome {
    let cell = cell(p);
    let seed = cell.base_seed;
    // One thread throughout: the Meridian build at two threads is
    // hostage to the other core's steal (±30 % between runs).
    let threads = p.threads(1);
    let load = load(p.size);
    let registry = np_bench::full_registry();
    let factory = registry.expect("meridian");
    let mut out = Outcome::default();

    // Set-up: scenario, ground truth and the Meridian overlay, until
    // the daemon can answer. Repeated; the last one is kept.
    let mut setup_times = Vec::new();
    for _ in 1..SETUP_REPS {
        let t = now();
        let pr = Prepared::build(&cell, BACKEND, seed, threads);
        let shared = BuildCache::new();
        let algo = factory.build(&build_ctx(&pr, &shared));
        setup_times.push(t.elapsed().as_secs_f64());
        drop(algo);
    }
    let t = now();
    let pr = Prepared::build(&cell, BACKEND, seed, threads);
    let shared = BuildCache::new();
    let algo = factory.build(&build_ctx(&pr, &shared));
    setup_times.push(t.elapsed().as_secs_f64());
    let h = &pr.handle;
    let ctx = ServeCtx {
        store: h.store(),
        world: h.world(),
        truth: pr.truth(),
        seed,
    };
    let schedules = Schedules::new(h.targets(), &load, seed);

    let measured = rounds(p, 1, || round(&ctx, algo.as_ref(), &schedules, &load, None));
    record_peak_rss(&mut out);
    out.attempted = schedules.queries(load.saturation_reps) * measured.len() as u64;
    out.failed = measured
        .iter()
        .map(|(_, r)| {
            r.saturation
                .iter()
                .chain([&r.warmup, &r.open])
                .map(|x| x.stats.submitted - x.stats.completed)
                .sum::<u64>()
        })
        .sum();
    // The open-loop phase's wall is the schedule's length plus the
    // drain: it grows only when the pipeline falls behind 5,000 q/s, so
    // it gates no serving latency. The saturation phase's wall and the
    // open-loop latencies follow the host's steal (see the README) and
    // go to the record ungated; the gated cost of the pipeline,
    // hand-offs included, is the saturation phase's CPU per query.
    let open_walls: Vec<f64> = measured
        .iter()
        .map(|(_, r)| r.open.wall.as_secs_f64())
        .collect();
    let qps: Vec<f64> = measured
        .iter()
        .flat_map(|(_, r)| r.saturation_qps())
        .collect();
    let cpus: Vec<f64> = measured
        .iter()
        .flat_map(|(_, r)| r.saturation_cpu.iter().copied())
        .collect();
    out.metric("setup_s", median(&setup_times).expect("reps"), "s");
    out.metric("run_s", median(&open_walls).expect("round"), "s");
    out.metric(
        "cpu_us_per_query",
        cpu_us_per_query(&cpus, schedules.saturation.len() as u64),
        "us",
    );
    out.metric(
        "query_qps",
        median(&qps).expect("saturation batches"),
        "1/s",
    );
    let round_walls: Vec<f64> = measured.iter().map(|(w, _)| *w).collect();
    out.metric("round_s", median(&round_walls).expect("round"), "s");
    let last = &measured.last().expect("one round").1;
    let totals: Vec<f64> = measured
        .iter()
        .filter_map(|(_, r)| r.open.total.quantile(0.5))
        .map(|ns| ns as f64 / 1e3)
        .collect();
    out.metric("serve_p50_us", median(&totals).unwrap_or(0.0), "us");
    serve_metrics(&mut out, last);

    out.digest = last.digest();
    out.check(
        "rounds_identical",
        measured.iter().all(|(_, r)| r.digest() == out.digest),
        format!("{} rounds", measured.len()),
    );
    let oracle = pr.oracle();
    out.check(
        "truth_matches_oracle",
        truth_matches_oracle(h.store(), h.world(), pr.truth(), &oracle).is_ok(),
        format!("{} targets", oracle.targets().count()),
    );

    if p.trace {
        traced(
            &cell, &pr, &registry, &schedules, &load, &oracle, out.digest, &mut out,
        );
    } else {
        let (open_replay, _) = replay(
            algo.as_ref(),
            h.store(),
            h.world(),
            pr.truth(),
            &schedules.open.targets,
            seed,
        );
        let (sat_replay, _) = replay(
            algo.as_ref(),
            h.store(),
            h.world(),
            pr.truth(),
            &schedules.saturation,
            seed,
        );
        check_rounds(
            &mut out,
            measured.iter().map(|(_, r)| r),
            &schedules,
            &open_replay,
            &sat_replay,
            h.world(),
            &oracle,
        );
    }
    out
}

fn build_ctx<'a>(pr: &'a Prepared, shared: &'a BuildCache) -> AlgoContext<'a> {
    AlgoContext {
        store: pr.handle.store(),
        world: pr.handle.world(),
        overlay: pr.handle.overlay(),
        seed: pr.seed,
        threads: pr.threads,
        shared,
    }
}

/// The traced pass: world, store, truth and overlay rebuilt by their
/// layers, one round served over them with each phase timed, and the
/// same schedules answered through `run_one_query` and reduced through
/// `reduce_records`.
#[allow(clippy::too_many_arguments)]
fn traced(
    cell: &CellSpec,
    pr: &Prepared,
    registry: &np_core::experiment::AlgoRegistry,
    s: &Schedules,
    load: &Load,
    oracle: &Oracle,
    untraced_digest: u64,
    out: &mut Outcome,
) {
    let seed = pr.seed;
    let cpu0 = crate::procfs::process_cpu_s().unwrap_or(0.0);
    let steal0 = crate::procfs::steal_s().unwrap_or(0.0);
    let start = now();
    let mut spans = Spans::default();
    let layered = Layered::build(cell, BACKEND, pr, pr.threads, &mut spans);
    let shared = BuildCache::new();
    let build = AlgoContext {
        store: layered.store.as_dyn(),
        world: &layered.world,
        overlay: pr.handle.overlay(),
        seed,
        threads: pr.threads,
        shared: &shared,
    };
    let algo = spans.time("algo.build_s.meridian.dense", || {
        registry.expect("meridian").build(&build)
    });
    let ctx = ServeCtx {
        store: layered.store.as_dyn(),
        world: &layered.world,
        truth: &layered.truth,
        seed,
    };
    let r = round(&ctx, algo.as_ref(), s, load, Some(&mut spans));
    let (open_replay, h1) = spans.time("core.query_s.meridian.dense", || {
        replay(
            algo.as_ref(),
            ctx.store,
            ctx.world,
            ctx.truth,
            &s.open.targets,
            seed,
        )
    });
    let (sat_replay, h2) = spans.time("core.query_s.meridian.dense", || {
        replay(
            algo.as_ref(),
            ctx.store,
            ctx.world,
            ctx.truth,
            &s.saturation,
            seed,
        )
    });
    let reduced = spans.time("core.reduce_s", || {
        let records: Vec<QueryRecord> = sat_replay.iter().map(|a| a.record).collect();
        reduce_records(&records, records.len())
    });
    let pass_wall = start.elapsed().as_secs_f64();
    let cpu = crate::procfs::process_cpu_s().unwrap_or(0.0) - cpu0;
    let steal = crate::procfs::steal_s().unwrap_or(0.0) - steal0;

    check_rounds(
        out,
        [&r].into_iter(),
        s,
        &open_replay,
        &sat_replay,
        &layered.world,
        oracle,
    );
    out.check(
        "traced_equals_untraced",
        r.digest() == untraced_digest,
        format!("traced {:016x} untraced {untraced_digest:016x}", r.digest()),
    );
    let mut service = h1;
    service.merge(&h2);
    let queries = (open_replay.len() + sat_replay.len()) as u64;
    let probes = total_probes(&reduced) + total_probes(&r.open.metrics);
    layer_metrics(out, &spans, queries, probes);
    out.metric(
        "meridian.build_s",
        spans.get("algo.build_s.meridian.dense"),
        "s",
    );
    quantile_metrics(out, "core.service_us", &service);
    // The traced round's serving telemetry replaces the untraced one's.
    out.metrics.retain(|m| !m.name.starts_with("serve."));
    serve_metrics(out, &r);
    for (name, secs) in spans.iter().filter(|(n, _)| n.starts_with("serve.")) {
        out.metric(name.to_string(), secs, "s");
    }
    host_metrics(out, &spans, pass_wall, cpu, steal);
}
