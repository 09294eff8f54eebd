//! What one benchmark run produces: named metrics with units, the
//! operations attempted and failed, the named checks, and the two
//! renderings of them — the one-line result the benchmark prints last
//! and the full per-run JSON record.

use np_core::experiment::sink::{json_escape, json_f64};
use std::fmt::Write as _;

/// One measured figure.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// One correctness check and its verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct Check {
    pub name: String,
    pub ok: bool,
    /// What was compared, for the record and for the failure message.
    pub detail: String,
}

/// The outcome of one workload run.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Queries the run asked (whole rounds only).
    pub attempted: u64,
    /// Queries that got no answer.
    pub failed: u64,
    pub metrics: Vec<Metric>,
    pub checks: Vec<Check>,
    /// Digest of every accuracy and accounting figure the program
    /// returned — equal digests mean bit-identical outputs.
    pub digest: u64,
}

impl Outcome {
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    pub fn check(&mut self, name: impl Into<String>, ok: bool, detail: impl Into<String>) {
        self.checks.push(Check {
            name: name.into(),
            ok,
            detail: detail.into(),
        });
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// Every check passed (and there was at least one).
    pub fn correct(&self) -> bool {
        !self.checks.is_empty() && self.checks.iter().all(|c| c.ok)
    }

    pub fn failed_checks(&self) -> impl Iterator<Item = &Check> {
        self.checks.iter().filter(|c| !c.ok)
    }
}

/// Run context written into the record next to the outcome.
#[derive(Debug, Clone)]
pub struct RunInfo {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub threads: usize,
    pub cores: usize,
    pub steal_s: f64,
    pub wall_s: f64,
}

fn metrics_object(metrics: &[&Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                json_escape(&m.name),
                json_f64(m.value),
                json_escape(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// The one-line result: exactly `correct`, `attempted`, `failed` and
/// `metrics`, the latter restricted to `names` in that order (a name
/// the run did not measure is left out).
pub fn result_line(outcome: &Outcome, names: &[&str]) -> String {
    let picked: Vec<&Metric> = names
        .iter()
        .filter_map(|n| outcome.metrics.iter().find(|m| m.name == *n))
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.correct(),
        outcome.attempted,
        outcome.failed,
        metrics_object(&picked)
    )
}

/// The full per-run record: run context, every metric, every check.
pub fn record_json(info: &RunInfo, outcome: &Outcome) -> String {
    let mut s = String::from("{\n");
    let _ = writeln!(s, "  \"workload\": \"{}\",", json_escape(&info.workload));
    let _ = writeln!(s, "  \"seed\": {},", info.seed);
    let _ = writeln!(s, "  \"seconds\": {},", info.seconds);
    let _ = writeln!(s, "  \"trace\": {},", info.trace);
    let _ = writeln!(s, "  \"threads\": {},", info.threads);
    let _ = writeln!(s, "  \"cores\": {},", info.cores);
    let _ = writeln!(s, "  \"steal_s\": {},", json_f64(info.steal_s));
    let _ = writeln!(s, "  \"wall_s\": {},", json_f64(info.wall_s));
    let _ = writeln!(s, "  \"attempted\": {},", outcome.attempted);
    let _ = writeln!(s, "  \"failed\": {},", outcome.failed);
    let _ = writeln!(s, "  \"correct\": {},", outcome.correct());
    let _ = writeln!(s, "  \"digest\": \"{:016x}\",", outcome.digest);
    let all: Vec<&Metric> = outcome.metrics.iter().collect();
    let _ = writeln!(s, "  \"metrics\": {},", metrics_object(&all));
    let checks: Vec<String> = outcome
        .checks
        .iter()
        .map(|c| {
            format!(
                "    {{\"name\": \"{}\", \"ok\": {}, \"detail\": \"{}\"}}",
                json_escape(&c.name),
                c.ok,
                json_escape(&c.detail)
            )
        })
        .collect();
    let _ = writeln!(s, "  \"checks\": [\n{}\n  ]", checks.join(",\n"));
    s.push_str("}\n");
    s
}

/// A parsed metric: `(name, value, unit)`.
pub type Parsed = (String, f64, String);

/// Parse a result line back into `(correct, attempted, failed,
/// metrics)` — what `all` and `spread` read from each child run. Only
/// the shape [`result_line`] writes is understood.
pub fn parse_result_line(line: &str) -> Option<(bool, u64, u64, Vec<Parsed>)> {
    let field = |key: &str| -> Option<&str> {
        let at = line.find(&format!("\"{key}\": "))? + key.len() + 4;
        let rest = &line[at..];
        let end = rest.find([',', '}']).unwrap_or(rest.len());
        Some(rest[..end].trim())
    };
    let correct = field("correct")? == "true";
    let attempted = field("attempted")?.parse().ok()?;
    let failed = field("failed")?.parse().ok()?;
    Some((correct, attempted, failed, parse_metrics(line)?))
}

/// The `"metrics"` object of a result line or a record as `(name,
/// value, unit)` triples. Metric names and units hold no braces,
/// quotes or commas, which is what makes this scan enough.
pub fn parse_metrics(text: &str) -> Option<Vec<Parsed>> {
    let open = text.find("\"metrics\": {")? + 11;
    let mut depth = 0usize;
    let close = text[open..].char_indices().find_map(|(i, c)| {
        match c {
            '{' => depth += 1,
            '}' => depth -= 1,
            _ => {}
        }
        (depth == 0).then_some(open + i)
    })?;
    let body = &text[open + 1..close];
    let mut metrics = Vec::new();
    for entry in body.split('}').filter(|e| e.contains(": {")) {
        let (name, inner) = entry.split_once(": {")?;
        let name = name.trim_matches([' ', '"', ',']).to_string();
        let value = inner
            .split("\"value\": ")
            .nth(1)?
            .split(',')
            .next()?
            .trim()
            .parse()
            .ok()?;
        let unit = inner
            .split("\"unit\": \"")
            .nth(1)?
            .split('"')
            .next()?
            .to_string();
        metrics.push((name, value, unit));
    }
    Some(metrics)
}

/// FNV-1a over a stream of 64-bit words: the digest the workloads fold
/// their program outputs into.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn word(&mut self, w: u64) -> &mut Digest {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        self
    }

    pub fn float(&mut self, f: f64) -> &mut Digest {
        self.word(f.to_bits())
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_round_trips() {
        let mut o = Outcome {
            attempted: 12,
            failed: 0,
            ..Outcome::default()
        };
        o.metric("run_s", 1.25, "s");
        o.metric("query_qps", 3.5e4, "1/s");
        o.metric("hidden", 1.0, "count");
        o.check("ok", true, "");
        let line = result_line(&o, &["run_s", "query_qps", "absent"]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 12, \"failed\": 0, \"metrics\": \
             {\"run_s\": {\"value\": 1.25, \"unit\": \"s\"}, \
             \"query_qps\": {\"value\": 35000.0, \"unit\": \"1/s\"}}}"
        );
        let (correct, attempted, failed, metrics) = parse_result_line(&line).expect("parses");
        assert!(correct);
        assert_eq!((attempted, failed), (12, 0));
        assert_eq!(
            metrics,
            vec![
                ("run_s".to_string(), 1.25, "s".to_string()),
                ("query_qps".to_string(), 35000.0, "1/s".to_string())
            ]
        );
    }

    #[test]
    fn record_metrics_parse_back() {
        let mut o = Outcome::default();
        o.metric("serve.total_us.p99", 466.943, "us");
        o.metric("core.probes_per_query.kademlia.sharded", 27.401, "count");
        o.check("ok", true, "detail with {braces}, \"quotes\"");
        let info = RunInfo {
            workload: "w".into(),
            seed: 1,
            seconds: 10,
            trace: true,
            threads: 1,
            cores: 2,
            steal_s: 0.5,
            wall_s: 3.0,
        };
        let parsed = parse_metrics(&record_json(&info, &o)).expect("parses");
        assert_eq!(
            parsed,
            vec![
                ("serve.total_us.p99".to_string(), 466.943, "us".to_string()),
                (
                    "core.probes_per_query.kademlia.sharded".to_string(),
                    27.401,
                    "count".to_string()
                ),
            ]
        );
        assert_eq!(parse_metrics("{\"metrics\": {}}"), Some(vec![]));
        assert_eq!(parse_metrics("no metrics here"), None);
    }

    #[test]
    fn correct_needs_a_passing_check() {
        let mut o = Outcome::default();
        assert!(!o.correct());
        o.check("a", true, "");
        o.check("b", false, "1 != 2");
        assert!(!o.correct());
        assert_eq!(o.failed_checks().count(), 1);
    }

    #[test]
    fn digest_sees_every_bit() {
        let a = Digest::default().float(0.5).finish();
        let b = Digest::default().float(0.5 + f64::EPSILON).finish();
        assert_ne!(a, b);
        assert_eq!(a, Digest::default().float(0.5).finish());
    }
}
