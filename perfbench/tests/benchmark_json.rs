//! `BENCHMARK.json` at the repository root declares exactly the
//! workloads and metrics this package runs and prints.

use perfbench::workloads::NAMES;
use perfbench::{END_TO_END, PER_LAYER};

fn benchmark_json() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root")
}

/// The `"name"` values (and units, where present) of one top-level
/// array of the file.
fn entries(json: &str, key: &str) -> Vec<(String, Option<String>)> {
    let start = json.find(&format!("\"{key}\": [")).expect("array present");
    let body = &json[start..];
    let body = &body[..body.find(']').expect("array closes")];
    body.split('{')
        .skip(1)
        .map(|e| {
            let field = |f: &str| {
                e.split(&format!("\"{f}\": \""))
                    .nth(1)
                    .map(|v| v.split('"').next().expect("closing quote").to_string())
            };
            (field("name").expect("name"), field("unit"))
        })
        .collect()
}

#[test]
fn workloads_match() {
    let listed: Vec<String> = entries(&benchmark_json(), "workloads")
        .into_iter()
        .map(|e| e.0)
        .collect();
    assert_eq!(
        listed,
        NAMES.iter().map(|s| s.to_string()).collect::<Vec<_>>()
    );
}

#[test]
fn metrics_match() {
    let json = benchmark_json();
    for (key, declared) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let listed = entries(&json, key);
        let want: Vec<(String, Option<String>)> = declared
            .iter()
            .map(|(n, u)| (n.to_string(), Some(u.to_string())))
            .collect();
        assert_eq!(listed, want, "{key}");
    }
}
