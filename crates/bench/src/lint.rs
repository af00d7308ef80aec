//! `repro lint <kind> [files...]` — validators for the JSON documents the
//! workspace writes and reads:
//!
//! ```text
//! repro lint telemetry run.json [...]     # repro --telemetry output
//! repro lint uarch                        # the presets embedded in the binary
//! repro lint uarch platform.json [...]    # --uarch config files
//! repro lint extract extract.json [...]   # repro extract --out
//! repro lint frontier frontier.json [...] # repro frontier --out
//! ```
//!
//! Every document is parsed with the strict in-tree reader
//! ([`scnn_core::json`]) and checked against its kind's invariants. The
//! first violation is returned as an error naming the file and the rule
//! that failed; each document that passes prints one `OK` line.

use scnn_core::json::{parse, Value};
use scnn_core::zoo::{parse_uarch, PRESETS};
use scnn_core::{Error, ToJson};
use scnn_uarch::UarchConfig;
use std::io::Write;

/// The document kinds `repro lint` understands.
const KINDS: [&str; 4] = ["telemetry", "uarch", "extract", "frontier"];

/// Lints every file in `paths` as a `kind` document, writing one `OK`
/// line per file to `out`. `uarch` with no files lints the embedded
/// preset zoo instead.
///
/// # Errors
///
/// An unknown kind, a missing file list, an unreadable file, or the
/// first violated rule (prefixed with the file it was found in).
pub fn run(kind: &str, paths: &[String], out: &mut impl Write) -> Result<(), Error> {
    let check: fn(&str) -> Result<String, String> = match kind {
        "telemetry" => |text| telemetry(&parse(text).map_err(|e| e.to_string())?),
        "uarch" => |text| uarch(text).map(|cfg| cfg.name),
        "extract" => |text| extract(&parse(text).map_err(|e| e.to_string())?),
        "frontier" => |text| frontier(&parse(text).map_err(|e| e.to_string())?),
        other => {
            return Err(Error::msg(format!(
                "unknown lint kind {other:?} (expected one of {})",
                KINDS.join(", ")
            )))
        }
    };
    let write_err = |e| Error::io("stdout", e);
    if paths.is_empty() {
        if kind != "uarch" {
            return Err(Error::msg(format!(
                "usage: repro lint {kind} <file.json> [more ...]"
            )));
        }
        // No files: lint the shipped zoo itself, and check that each
        // preset is loadable by the name it declares.
        for (name, src) in PRESETS {
            let cfg = uarch(src).map_err(|rule| Error::msg(format!("preset {name}: {rule}")))?;
            if cfg.name != name {
                return Err(Error::msg(format!(
                    "preset {name}: declares mismatching name {:?}",
                    cfg.name
                )));
            }
            writeln!(out, "preset {name}: OK ({})", cfg.description).map_err(write_err)?;
        }
        return Ok(());
    }
    for path in paths {
        let text = std::fs::read_to_string(path).map_err(|e| Error::io(path.clone(), e))?;
        let summary = check(&text).map_err(|rule| Error::msg(format!("{path}: {rule}")))?;
        writeln!(out, "{path}: OK ({summary})").map_err(write_err)?;
    }
    Ok(())
}

/// Checks one member list key, returning the array or an error.
fn section<'a>(root: &'a Value, key: &str) -> Result<&'a [Value], String> {
    root.get(key)
        .and_then(Value::as_array)
        .ok_or_else(|| format!("missing or non-array {key:?} section"))
}

fn number(v: &Value, key: &str) -> Result<f64, String> {
    v.get(key)
        .and_then(Value::as_f64)
        .ok_or_else(|| format!("missing numeric {key:?}"))
}

fn ratio(v: &Value, key: &str) -> Result<f64, String> {
    let n = number(v, key)?;
    if !(0.0..=1.0).contains(&n) {
        return Err(format!("{key:?} = {n} is outside [0, 1]"));
    }
    Ok(n)
}

fn flag(v: &Value, key: &str) -> Result<bool, String> {
    v.get(key)
        .and_then(Value::as_bool)
        .ok_or_else(|| format!("missing boolean {key:?}"))
}

/// Telemetry snapshot invariants: known version, spans carry every
/// required key and nest consistently (each `parent` id exists and has
/// a depth smaller by exactly one), counters are non-negative, histogram
/// bucket counts sum to the histogram's total, series points are pairs.
fn telemetry(root: &Value) -> Result<String, String> {
    let member =
        |v: &Value, key: &str| number(v, key).map_err(|e| format!("span/metric member {e}"));
    let version = root
        .get("version")
        .and_then(Value::as_f64)
        .ok_or("missing numeric \"version\"")?;
    if version != 1.0 {
        return Err(format!("unknown telemetry version {version}"));
    }

    let spans = section(root, "spans")?;
    let ids: Vec<f64> = spans
        .iter()
        .map(|s| member(s, "id"))
        .collect::<Result<_, _>>()?;
    for span in spans {
        for key in ["id", "thread", "depth", "start_ns", "duration_ns"] {
            member(span, key)?;
        }
        let name = span
            .get("name")
            .and_then(Value::as_str)
            .ok_or("span missing string \"name\"")?;
        let depth = member(span, "depth")?;
        match span.get("parent") {
            Some(Value::Null) => {
                if depth != 0.0 {
                    return Err(format!("root span {name:?} has nonzero depth {depth}"));
                }
            }
            Some(parent) => {
                let parent_id = parent
                    .as_f64()
                    .ok_or_else(|| format!("span {name:?} parent is neither null nor an id"))?;
                let parent_span = spans
                    .iter()
                    .zip(&ids)
                    .find(|(_, id)| **id == parent_id)
                    .map(|(s, _)| s)
                    .ok_or_else(|| format!("span {name:?} parent {parent_id} does not exist"))?;
                let parent_depth = member(parent_span, "depth")?;
                if depth != parent_depth + 1.0 {
                    return Err(format!(
                        "span {name:?} depth {depth} is not its parent's depth {parent_depth} + 1"
                    ));
                }
            }
            None => return Err(format!("span {name:?} missing \"parent\"")),
        }
    }

    let counters = section(root, "counters")?;
    for counter in counters {
        let value = member(counter, "value")?;
        if value < 0.0 {
            return Err(format!("counter with negative value {value}"));
        }
    }

    let histograms = section(root, "histograms")?;
    for histogram in histograms {
        let count = member(histogram, "count")?;
        let buckets = histogram
            .get("buckets")
            .and_then(Value::as_array)
            .ok_or("histogram missing \"buckets\" array")?;
        let bucket_total: f64 = buckets
            .iter()
            .map(|b| {
                b.as_array()
                    .filter(|pair| pair.len() == 2)
                    .and_then(|pair| pair[1].as_f64())
                    .ok_or("histogram bucket is not an [upper_bound, count] pair")
            })
            .sum::<Result<f64, _>>()?;
        if bucket_total != count {
            return Err(format!(
                "histogram bucket counts sum to {bucket_total}, total says {count}"
            ));
        }
    }

    let series = section(root, "series")?;
    for s in series {
        let points = s
            .get("points")
            .and_then(Value::as_array)
            .ok_or("series missing \"points\" array")?;
        if points
            .iter()
            .any(|p| p.as_array().map(<[Value]>::len) != Some(2))
        {
            return Err("series point is not an [x, y] pair".into());
        }
    }

    Ok(format!(
        "{} spans, {} counters, {} histograms, {} series",
        spans.len(),
        counters.len(),
        histograms.len(),
        series.len()
    ))
}

/// A `--uarch` document: strict parse (unknown fields are errors,
/// missing fields are reported by dotted name), validation, and a
/// round-trip through the canonical writer — `parse(write(parse(x)))`
/// must reproduce the identical config, which pins the writer to the
/// schema and therefore the artifact-cache key encoding.
fn uarch(src: &str) -> Result<UarchConfig, String> {
    let cfg = parse_uarch(src).map_err(|e| e.to_string())?;
    let rewritten = cfg.to_json();
    let back = parse_uarch(&rewritten)
        .map_err(|e| format!("canonical writer emitted an invalid document: {e}"))?;
    if back != cfg {
        return Err("config does not round-trip through the canonical writer".into());
    }
    Ok(cfg)
}

/// Extraction outcome invariants: `truth`/`rows`/`curve` present, every
/// row carries an arm name and a complete score block with every ratio
/// inside [0, 1], and the sample curve is strictly increasing in corpus
/// size.
fn extract(root: &Value) -> Result<String, String> {
    let truth = section(root, "truth")?;
    if truth.is_empty() {
        return Err("empty \"truth\" layer stack".into());
    }
    let rows = section(root, "rows")?;
    if rows.is_empty() {
        return Err("empty \"rows\" section".into());
    }
    for row in rows {
        let arm = row
            .get("arm")
            .and_then(Value::as_str)
            .ok_or("row missing string \"arm\"")?;
        let score = row
            .get("score")
            .ok_or_else(|| format!("row {arm:?} missing \"score\""))?;
        for key in [
            "kind_precision",
            "kind_recall",
            "dim_accuracy",
            "activation_accuracy",
            "overall",
        ] {
            ratio(score, key).map_err(|e| format!("row {arm:?}: score {e}"))?;
        }
        ratio(row, "holdout_agreement").map_err(|e| format!("row {arm:?}: {e}"))?;
    }
    let curve = section(root, "curve")?;
    let mut last = 0.0;
    for point in curve {
        let samples = point
            .get("samples")
            .and_then(Value::as_f64)
            .ok_or("curve point missing numeric \"samples\"")?;
        if samples <= last {
            return Err(format!(
                "curve samples not strictly increasing at {samples}"
            ));
        }
        last = samples;
        ratio(point, "overall")?;
        ratio(point, "kind_precision")?;
    }
    Ok(format!(
        "{} truth layers, {} arms, {} curve points",
        truth.len(),
        rows.len(),
        curve.len()
    ))
}

/// One frontier row's lint-relevant facts, extracted and range-checked.
struct Arm {
    name: String,
    alarm: bool,
    leakage: f64,
    overhead: f64,
    pareto: bool,
}

fn arm(row: &Value) -> Result<Arm, String> {
    let name = row
        .get("arm")
        .and_then(Value::as_str)
        .ok_or("row missing string \"arm\"")?
        .to_owned();
    let inner = |e: String| format!("row {name:?}: {e}");
    let alarm = flag(row, "alarm").map_err(inner)?;
    let leakage = ratio(row, "leakage").map_err(inner)?;
    ratio(row, "extraction_overall").map_err(inner)?;
    let cycles = number(row, "mean_cycles").map_err(inner)?;
    if cycles <= 0.0 {
        return Err(format!(
            "row {name:?}: \"mean_cycles\" = {cycles} is not positive"
        ));
    }
    let overhead = number(row, "overhead").map_err(inner)?;
    if overhead <= 0.0 {
        return Err(format!(
            "row {name:?}: \"overhead\" = {overhead} is not positive"
        ));
    }
    let pareto = flag(row, "pareto").map_err(inner)?;
    Ok(Arm {
        name,
        alarm,
        leakage,
        overhead,
        pareto,
    })
}

/// Frontier outcome invariants: at least six arms, every row carrying
/// an arm name, leakage statistics and a positive overhead, a baseline
/// row with overhead exactly 1 and its alarm raised, at least two
/// protected arms that suppress the alarm, and a non-empty Pareto set
/// whose members all leak strictly less than the baseline and never
/// dominate one another.
fn frontier(root: &Value) -> Result<String, String> {
    let rows = section(root, "rows")?;
    if rows.len() < 6 {
        return Err(format!(
            "only {} arms; a full frontier has at least 6",
            rows.len()
        ));
    }
    let arms: Vec<Arm> = rows.iter().map(arm).collect::<Result<_, _>>()?;
    let baseline = arms
        .iter()
        .find(|a| a.name == "baseline")
        .ok_or("no \"baseline\" row")?;
    if baseline.overhead != 1.0 {
        return Err(format!(
            "baseline overhead is {}, expected exactly 1",
            baseline.overhead
        ));
    }
    if !baseline.alarm {
        return Err("the baseline must raise the leakage alarm".into());
    }
    let quiet = arms
        .iter()
        .filter(|a| a.name != "baseline" && !a.alarm)
        .count();
    if quiet < 2 {
        return Err(format!(
            "only {quiet} protected arms suppress the alarm; expected at least 2"
        ));
    }
    let pareto: Vec<&Arm> = arms.iter().filter(|a| a.pareto).collect();
    if pareto.is_empty() {
        return Err("empty Pareto set".into());
    }
    for a in &pareto {
        if a.name == "baseline" {
            return Err("the baseline can never be on the frontier".into());
        }
        if a.leakage >= baseline.leakage {
            return Err(format!(
                "Pareto arm {:?} leaks {} >= baseline {}",
                a.name, a.leakage, baseline.leakage
            ));
        }
    }
    for a in &pareto {
        for b in &pareto {
            let dominates = a.name != b.name
                && a.leakage <= b.leakage
                && a.overhead <= b.overhead
                && (a.leakage < b.leakage || a.overhead < b.overhead);
            if dominates {
                return Err(format!(
                    "Pareto arm {:?} is dominated by {:?}",
                    b.name, a.name
                ));
            }
        }
    }
    let names = section(root, "pareto")?;
    if names.len() != pareto.len() {
        return Err(format!(
            "\"pareto\" name list has {} entries but {} rows are marked",
            names.len(),
            pareto.len()
        ));
    }
    number(root, "calibrated_dummy_events")?;
    number(root, "target_t")?;
    Ok(format!(
        "{} arms, {} on the frontier, {} alarm-quiet",
        arms.len(),
        pareto.len(),
        quiet
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint_str(kind: &str, text: &str) -> Result<String, String> {
        let dir = std::env::temp_dir().join(format!("scnn-lint-{kind}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("doc.json");
        std::fs::write(&path, text).unwrap();
        let mut out = Vec::new();
        let result = run(kind, &[path.display().to_string()], &mut out);
        let _ = std::fs::remove_dir_all(&dir);
        result
            .map(|()| String::from_utf8(out).unwrap())
            .map_err(|e| e.to_string())
    }

    #[test]
    fn telemetry_rules_keep_their_messages() {
        let ok = r#"{"version":1,"spans":[{"id":1,"parent":null,"name":"a","index":null,"thread":0,"depth":0,"start_ns":0,"duration_ns":5}],"counters":[],"histograms":[],"series":[]}"#;
        assert!(lint_str("telemetry", ok).unwrap().contains(": OK (1 spans"));
        let orphan = ok.replace(r#""parent":null"#, r#""parent":9"#);
        let err = lint_str("telemetry", &orphan).unwrap_err();
        assert!(err.contains("span \"a\" parent 9 does not exist"), "{err}");
        let missing = ok.replace(r#""thread":0,"#, "");
        let err = lint_str("telemetry", &missing).unwrap_err();
        assert!(
            err.contains("span/metric member missing numeric \"thread\""),
            "{err}"
        );
    }

    #[test]
    fn json_kinds_reject_what_their_rules_forbid() {
        let err = lint_str("extract", r#"{"truth":[],"rows":[],"curve":[]}"#).unwrap_err();
        assert!(err.contains("empty \"truth\" layer stack"), "{err}");
        let err = lint_str("frontier", r#"{"rows":[]}"#).unwrap_err();
        assert!(
            err.contains("only 0 arms; a full frontier has at least 6"),
            "{err}"
        );
        let err = lint_str("uarch", r#"{"name":"x"}"#).unwrap_err();
        assert!(err.contains("doc.json: "), "{err}");
        let err = lint_str("frontier", "{not json").unwrap_err();
        assert!(err.contains("doc.json: "), "{err}");
    }

    #[test]
    fn unknown_kind_and_missing_files_are_errors() {
        let mut out = Vec::new();
        let err = run("bogus", &[], &mut out).unwrap_err().to_string();
        assert!(err.contains("unknown lint kind \"bogus\""), "{err}");
        let err = run("telemetry", &[], &mut out).unwrap_err().to_string();
        assert!(err.contains("usage: repro lint telemetry"), "{err}");
        assert!(out.is_empty());
    }
}
