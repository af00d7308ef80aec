//! Metric names, units and the result line.
//!
//! The two tables below are the benchmark's contract with
//! `BENCHMARK.json`: a run prints every end-to-end metric (untraced
//! run) or every per-layer metric (traced run) by exactly these names
//! and units, and a test keeps the manifest in step with them.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("campaign_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_mean_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics: `(name, unit)`.
pub const PER_LAYER: [(&str, &str); 35] = [
    ("uarch.sim_us", "us"),
    ("uarch.ns_per_event", "ns"),
    ("uarch.cold_start_us", "us"),
    ("uarch.hierarchy_ns_per_access", "ns"),
    ("uarch.tlb_ns_per_access", "ns"),
    ("uarch.predictor_ns_per_branch", "ns"),
    ("uarch.l1d.misses", "count"),
    ("uarch.l2.accesses", "count"),
    ("uarch.l2.misses", "count"),
    ("uarch.llc.references", "count"),
    ("uarch.llc.misses", "count"),
    ("uarch.dtlb.misses", "count"),
    ("uarch.branch_misses", "count"),
    ("uarch.prefetches", "count"),
    ("uarch.sim_cycles", "count"),
    ("nn.infer_us", "us"),
    ("nn.narrate_us", "us"),
    ("nn.events.loads", "count"),
    ("nn.events.stores", "count"),
    ("nn.events.branches", "count"),
    ("nn.events.alu_ops", "count"),
    ("nn.train_s", "s"),
    ("data.synth_ms", "ms"),
    ("hpc.wrap_us", "us"),
    ("par.busy_frac", "fraction"),
    ("par.imbalance", "ratio"),
    ("cache.load_us", "us"),
    ("cache.store_us", "us"),
    ("cache.hit_rate", "fraction"),
    ("artifact.decode_us", "us"),
    ("evaluator.evaluate_us", "us"),
    ("service.queue_wait_ms", "ms"),
    ("service.exec_ms", "ms"),
    ("trace.overhead_s", "s"),
    ("trace.spans", "count"),
];

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    metrics: BTreeMap<&'static str, f64>,
    checks: Vec<(String, Result<(), String>)>,
    /// Operations attempted in the timed phase.
    pub attempted: u64,
    /// Operations that failed, were refused, went missing or came back
    /// twice.
    pub failed: u64,
}

impl Outcome {
    /// Records a metric by its table name.
    ///
    /// # Panics
    ///
    /// Panics when `name` is in neither table — a bug in the benchmark.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            unit_of(name).is_some(),
            "metric {name:?} is not in the benchmark's tables"
        );
        self.metrics.insert(name, value);
    }

    /// The recorded value of `name`, if any.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.get(name).copied()
    }

    /// Records a correctness check; a failed check fails the run.
    pub fn check(&mut self, name: impl Into<String>, result: Result<(), String>) {
        self.checks.push((name.into(), result));
    }

    /// True when every check passed and no operation failed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|(_, r)| r.is_ok())
    }

    /// Human-readable lines: every check and every recorded metric.
    pub fn render_lines(&self) -> String {
        let mut out = String::new();
        for (name, result) in &self.checks {
            match result {
                Ok(()) => writeln!(out, "check {name}: ok"),
                Err(e) => writeln!(out, "check {name}: FAILED: {e}"),
            }
            .expect("writing to a String cannot fail");
        }
        let rate = if self.attempted == 0 {
            f64::NAN
        } else {
            self.failed as f64 / self.attempted as f64
        };
        writeln!(
            out,
            "error_rate = {rate} fraction ({} failed of {} attempted)",
            self.failed, self.attempted
        )
        .expect("writing to a String cannot fail");
        for (name, value) in &self.metrics {
            let unit = unit_of(name).unwrap_or("");
            writeln!(out, "{name} = {value} {unit}").expect("writing to a String cannot fail");
        }
        out
    }

    /// The result line: `correct`, `attempted`, `failed` and the
    /// metrics of one table.
    ///
    /// # Errors
    ///
    /// Names a metric of the table that was not recorded or is not
    /// finite.
    pub fn result_json(&self, traced: bool) -> Result<String, String> {
        let table: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
        let mut metrics = String::new();
        for (i, (name, unit)) in table.iter().enumerate() {
            let value = self
                .get(name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite: {value}"));
            }
            if i > 0 {
                metrics.push_str(", ");
            }
            write!(
                metrics,
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(value)
            )
            .expect("writing to a String cannot fail");
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct(),
            self.attempted,
            self.failed
        ))
    }
}

/// The unit of a metric in either table.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|(n, _)| *n == name)
        .map(|&(_, u)| u)
}

/// A finite float as a JSON number with all its digits.
fn json_number(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_lists_exactly_one_table() {
        let mut o = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        for (name, _) in END_TO_END {
            o.set(name, 1.25);
        }
        let line = o.result_json(false).expect("every metric set");
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0,"));
        assert!(line.contains("\"setup_s\": {\"value\": 1.25, \"unit\": \"s\"}"));
        assert!(o.result_json(true).is_err(), "per-layer metrics missing");
    }

    #[test]
    fn a_failed_check_makes_the_run_incorrect() {
        let mut o = Outcome::default();
        o.check("alarm", Ok(()));
        assert!(o.correct());
        o.check("digest", Err("moved".into()));
        assert!(!o.correct());
    }

    #[test]
    fn manifest_lists_the_same_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let manifest = std::fs::read_to_string(path).expect("BENCHMARK.json sits beside perfbench");
        let doc = scnn_core::json::parse(&manifest).expect("manifest is JSON");
        for (key, table) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed: Vec<(&str, &str)> = doc
                .get(key)
                .and_then(|v| v.as_array())
                .expect("metric list")
                .iter()
                .map(|m| {
                    (
                        m.get("name").and_then(|v| v.as_str()).expect("name"),
                        m.get("unit").and_then(|v| v.as_str()).expect("unit"),
                    )
                })
                .collect();
            assert_eq!(
                listed,
                table.to_vec(),
                "{key} out of step with the manifest"
            );
        }
    }
}
