//! `perfbench` — run one workload, every workload, or a workload's
//! spread.
//!
//! ```text
//! perfbench run --workload W --seed N --seconds S --trace 0|1
//! perfbench all [--seed 1] [--seconds 10] [--trace 0|1]
//! perfbench spread --workload W [--runs 10] [--seed-base 1] [--seconds 10] [--trace 0|1]
//! perfbench list
//! ```
//!
//! `run` prints a human summary on stderr, writes the full JSON record
//! to `perfbench/out/<workload>-seed<N>-trace<T>.json`, and prints the
//! one-line result last on stdout. A failed check exits 1 and names
//! the check. `all` runs every workload once and `spread` runs one
//! workload N times with consecutive seeds, each run in its own
//! process; `spread` prints every recorded metric's median, quartiles,
//! min, max and interquartile spread.

use perfbench::record::{self, Outcome, RunInfo};
use perfbench::stats::{median, quartiles, relative_spread};
use perfbench::trace::now;
use perfbench::workloads::{self, Params, Size};
use perfbench::{procfs, END_TO_END, PER_LAYER};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

const USAGE: &str = "usage: perfbench run --workload W --seed N --seconds S --trace 0|1\n       \
perfbench all [--seed N] [--seconds S] [--trace 0|1]\n       \
perfbench spread --workload W [--runs N] [--seed-base N] [--seconds S] [--trace 0|1]\n       \
perfbench list";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("all") => cmd_all(&args[1..]),
        Some("spread") => cmd_spread(&args[1..]),
        Some("list") => {
            for w in workloads::NAMES {
                println!("{w}");
            }
            Ok(ExitCode::SUCCESS)
        }
        _ => Err(USAGE.to_string()),
    };
    result.unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        ExitCode::from(2)
    })
}

/// `--key value` flags into a map; every flag takes a value.
fn flags(args: &[String]) -> Result<BTreeMap<String, String>, String> {
    let mut map = BTreeMap::new();
    let mut it = args.iter();
    while let Some(k) = it.next() {
        let key = k
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {k:?}\n{USAGE}"))?;
        let v = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
        map.insert(key.to_string(), v.clone());
    }
    Ok(map)
}

fn num<T: std::str::FromStr>(
    map: &BTreeMap<String, String>,
    key: &str,
    default: Option<T>,
) -> Result<T, String> {
    match map.get(key) {
        Some(v) => v
            .parse()
            .map_err(|_| format!("--{key}: not a number: {v:?}")),
        None => default.ok_or_else(|| format!("--{key} is required\n{USAGE}")),
    }
}

fn trace(map: &BTreeMap<String, String>) -> Result<bool, String> {
    match num::<u8>(map, "trace", Some(0))? {
        0 => Ok(false),
        1 => Ok(true),
        t => Err(format!("--trace: expected 0 or 1, got {t}")),
    }
}

fn workload(map: &BTreeMap<String, String>) -> Result<String, String> {
    let w = map
        .get("workload")
        .ok_or_else(|| format!("--workload is required\n{USAGE}"))?;
    if workloads::NAMES.contains(&w.as_str()) {
        Ok(w.clone())
    } else {
        Err(format!(
            "unknown workload {w:?} (workloads: {})",
            workloads::NAMES.join(", ")
        ))
    }
}

fn record_path(workload: &str, seed: u64, trace: bool) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!(
            "{workload}-seed{seed}-trace{}.json",
            u8::from(trace)
        ))
}

fn cmd_run(args: &[String]) -> Result<ExitCode, String> {
    let map = flags(args)?;
    let name = workload(&map)?;
    let trace = trace(&map)?;
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let params = Params {
        seed: num(&map, "seed", None)?,
        seconds: num::<u64>(&map, "seconds", None)? as f64,
        trace,
        size: Size::Full,
        cores,
    };
    let steal0 = procfs::steal_s().unwrap_or(0.0);
    let start = now();
    let mut outcome = workloads::run(&name, &params)?;
    let wall_s = start.elapsed().as_secs_f64();
    let names: &[(&str, &str)] = if trace { PER_LAYER } else { END_TO_END };
    for &(metric, unit) in names {
        if outcome.get(metric).is_none() {
            // Only the counters of layers a workload never reaches
            // (block cache, churn, serving) are absent; they count 0.
            eprintln!("perfbench: {name} does not reach {metric}; reporting 0");
            outcome.metric(metric, 0.0, unit);
        }
    }
    let info = RunInfo {
        workload: name.clone(),
        seed: params.seed,
        seconds: params.seconds as u64,
        trace,
        threads: params.threads(workloads::wanted_threads(&name)),
        cores,
        steal_s: procfs::steal_s().unwrap_or(0.0) - steal0,
        wall_s,
    };
    let path = record_path(&name, params.seed, trace);
    let written = path
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(&path, record::record_json(&info, &outcome)));
    match written {
        Ok(()) => eprintln!("record: {}", path.display()),
        Err(e) => eprintln!("perfbench: record {} not written: {e}", path.display()),
    }
    summarise(&info, &outcome);
    let picked: Vec<&str> = names.iter().map(|(n, _)| *n).collect();
    println!("{}", record::result_line(&outcome, &picked));
    if outcome.correct() {
        Ok(ExitCode::SUCCESS)
    } else {
        for c in outcome.failed_checks() {
            eprintln!("perfbench: check {} FAILED: {}", c.name, c.detail);
        }
        Ok(ExitCode::FAILURE)
    }
}

fn summarise(info: &RunInfo, o: &Outcome) {
    eprintln!(
        "{} seed {} trace {}: {:.1} s wall, {} threads on {} cores, steal {:.2} s, {} queries ({} failed)",
        info.workload,
        info.seed,
        u8::from(info.trace),
        info.wall_s,
        info.threads,
        info.cores,
        info.steal_s,
        o.attempted,
        o.failed
    );
    for m in &o.metrics {
        eprintln!("  {:<40} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for c in &o.checks {
        let verdict = if c.ok { "ok" } else { "FAILED" };
        eprintln!("  check {:<36} {verdict}  {}", c.name, c.detail);
    }
}

/// One child run's result line, its record's metrics, and whether it
/// passed (correct and exit 0).
struct Child {
    passed: bool,
    attempted: u64,
    failed: u64,
    printed: Vec<record::Parsed>,
    recorded: Vec<record::Parsed>,
}

/// Run `perfbench run` for one workload and seed in a child process,
/// passing its stderr through, and wait for it.
fn run_child(workload: &str, seed: u64, seconds: u64, trace: bool) -> Result<Child, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let out = Command::new(&exe)
        .args(["run", "--workload", workload, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            &seconds.to_string(),
            "--trace",
            if trace { "1" } else { "0" },
        ])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run {}: {e}", exe.display()))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let (correct, attempted, failed, printed) =
        record::parse_result_line(stdout.lines().last().unwrap_or("")).ok_or_else(|| {
            format!(
                "{workload} seed {seed}: no result line (exit {:?})",
                out.status.code()
            )
        })?;
    let recorded = std::fs::read_to_string(record_path(workload, seed, trace))
        .ok()
        .and_then(|text| record::parse_metrics(&text))
        .unwrap_or_default();
    Ok(Child {
        passed: correct && out.status.success(),
        attempted,
        failed,
        printed,
        recorded,
    })
}

fn cmd_all(args: &[String]) -> Result<ExitCode, String> {
    let map = flags(args)?;
    let seed: u64 = num(&map, "seed", Some(1))?;
    let seconds: u64 = num(&map, "seconds", Some(10))?;
    let trace = trace(&map)?;
    let mut all_passed = true;
    let mut rows = Vec::new();
    for w in workloads::NAMES {
        let child = run_child(w, seed, seconds, trace)?;
        all_passed &= child.passed;
        rows.push((w, child));
    }
    for (w, c) in &rows {
        println!(
            "{w}: {} ({} queries attempted, {} failed)",
            if c.passed { "correct" } else { "FAILED" },
            c.attempted,
            c.failed
        );
        for (metric, value, unit) in &c.printed {
            println!("  {metric:<32} {value:>16.6} {unit}");
        }
    }
    Ok(if all_passed {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn cmd_spread(args: &[String]) -> Result<ExitCode, String> {
    let map = flags(args)?;
    let name = workload(&map)?;
    let runs: u64 = num(&map, "runs", Some(10))?;
    let seed_base: u64 = num(&map, "seed-base", Some(1))?;
    let seconds: u64 = num(&map, "seconds", Some(10))?;
    let trace = trace(&map)?;
    let mut values: BTreeMap<String, (String, Vec<f64>)> = BTreeMap::new();
    let mut printed = Vec::new();
    let mut shares = Vec::new();
    let mut all_passed = true;
    for seed in seed_base..seed_base + runs {
        let child = run_child(&name, seed, seconds, trace)?;
        all_passed &= child.passed;
        shares.push(child.failed as f64 / child.attempted.max(1) as f64);
        printed = child.printed.iter().map(|(n, _, _)| n.clone()).collect();
        let metrics = if child.recorded.is_empty() {
            child.printed
        } else {
            child.recorded
        };
        for (metric, value, unit) in metrics {
            values
                .entry(metric)
                .or_insert_with(|| (unit, Vec::new()))
                .1
                .push(value);
        }
    }
    let lo = shares.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = shares.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    println!(
        "{name}: {runs} runs, seeds {seed_base}..{}, {seconds} s each, trace {}, all passed: {all_passed}, failed share {lo}..{hi}",
        seed_base + runs - 1,
        u8::from(trace)
    );
    println!("(* = printed in the result line)");
    println!(
        "{:<40} {:>8} {:>14} {:>14} {:>14} {:>14} {:>14} {:>9}",
        "metric", "unit", "median", "q1", "q3", "min", "max", "iqr/med"
    );
    for (metric, (unit, v)) in &values {
        let (q1, q3) = quartiles(v).unwrap_or((f64::NAN, f64::NAN));
        let star = if printed.contains(metric) { "*" } else { " " };
        println!(
            "{star}{:<39} {:>8} {:>14.6} {:>14.6} {:>14.6} {:>14.6} {:>14.6} {:>9.4}",
            metric,
            unit,
            median(v).unwrap_or(f64::NAN),
            q1,
            q3,
            v.iter().copied().fold(f64::INFINITY, f64::min),
            v.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            relative_spread(v).unwrap_or(f64::NAN)
        );
    }
    Ok(if all_passed {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}
