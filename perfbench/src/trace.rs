//! Spans recorded from the benchmark's side of each layer boundary.
//!
//! A traced pass wraps every call into a layer in [`Spans::time`],
//! which adds the call's wall time to a named total. Totals keep their
//! first-seen order, so records list layers in the order the workload
//! reaches them. The spans live in memory and are written out with the
//! run's record.

use std::time::Instant;

/// The clock every timing in this package reads. Times are reported,
/// never fed back into the program's inputs, so the workspace's
/// determinism lint allows this one read.
pub fn now() -> Instant {
    // np-lint: allow(D2) — benchmark timing only; no program input or checked output reads it
    Instant::now()
}

#[derive(Debug, Default)]
pub struct Spans {
    totals: Vec<(String, f64)>,
}

impl Spans {
    /// Run `f`, adding its wall time to span `name`.
    pub fn time<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> R {
        let t = now();
        let out = f();
        self.add(name, t.elapsed().as_secs_f64());
        out
    }

    /// Add `secs` to span `name`.
    pub fn add(&mut self, name: &str, secs: f64) {
        match self.totals.iter_mut().find(|(n, _)| n == name) {
            Some((_, total)) => *total += secs,
            None => self.totals.push((name.to_string(), secs)),
        }
    }

    /// Total seconds of span `name` (0 if never entered).
    pub fn get(&self, name: &str) -> f64 {
        self.totals
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0.0, |(_, s)| *s)
    }

    /// Sum of every span whose name starts with `prefix`.
    pub fn sum_prefix(&self, prefix: &str) -> f64 {
        self.totals
            .iter()
            .filter(|(n, _)| n.starts_with(prefix))
            .map(|(_, s)| s)
            .sum()
    }

    /// Sum of all spans (they never nest, so this is the timed share of
    /// the pass).
    pub fn total(&self) -> f64 {
        self.totals.iter().map(|(_, s)| s).sum()
    }

    pub fn iter(&self) -> impl Iterator<Item = (&str, f64)> {
        self.totals.iter().map(|(n, s)| (n.as_str(), *s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_accumulate_by_name_in_first_seen_order() {
        let mut s = Spans::default();
        s.add("b.x", 1.0);
        s.add("a", 0.5);
        s.add("b.x", 2.0);
        s.add("b.y", 0.25);
        let v: Vec<_> = s.iter().collect();
        assert_eq!(v, vec![("b.x", 3.0), ("a", 0.5), ("b.y", 0.25)]);
        assert_eq!(s.sum_prefix("b."), 3.25);
        assert_eq!(s.total(), 3.75);
        assert_eq!(s.get("missing"), 0.0);
        assert_eq!(s.time("c", || 7), 7);
        assert!(s.get("c") >= 0.0);
    }
}
