//! The result document: building it, writing and reading it, comparing two
//! of them, and the one-line result the driver reads.

use std::fmt::Write as _;

use gmlake_telemetry::json::{self, Value};

use crate::measure::{Correctness, Values};
use crate::metrics::{self, Better, END_TO_END, PER_LAYER};
use crate::stats::Summary;

pub const SCHEMA: &str = "gmlake-benchmark/v1";

/// One workload's part of a run.
pub struct WorkloadResult {
    pub name: &'static str,
    pub fingerprint: u64,
    /// Top-level calls in the steady section.
    pub ops: u64,
    pub end_to_end: Option<(Values, Correctness)>,
    pub per_layer: Option<(Values, Correctness)>,
}

impl WorkloadResult {
    pub fn correct(&self) -> bool {
        [&self.end_to_end, &self.per_layer]
            .into_iter()
            .flatten()
            .all(|(_, verdict)| verdict.correct())
    }
}

/// Facts about the machine and build a result was measured on.
pub struct Host {
    pub available_parallelism: usize,
    pub rustc: String,
    pub commit: String,
}

impl Host {
    pub fn detect() -> Host {
        let output_of = |program: &str, args: &[&str]| {
            std::process::Command::new(program)
                .args(args)
                .stderr(std::process::Stdio::null())
                .output()
                .ok()
                .filter(|out| out.status.success())
                .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_owned())
                .filter(|s| !s.is_empty())
                .unwrap_or_else(|| "unknown".to_owned())
        };
        Host {
            available_parallelism: std::thread::available_parallelism().map_or(1, usize::from),
            rustc: output_of("rustc", &["--version"]),
            commit: output_of("git", &["rev-parse", "--short", "HEAD"]),
        }
    }
}

fn obj(members: Vec<(&str, Value)>) -> Value {
    Value::Obj(
        members
            .into_iter()
            .map(|(k, v)| (k.to_owned(), v))
            .collect(),
    )
}

fn num(n: f64) -> Value {
    Value::Num(n)
}

fn text(s: &str) -> Value {
    Value::Str(s.to_owned())
}

/// Seeds and fingerprints use all 64 bits, which a JSON number cannot hold.
fn hex(n: u64) -> Value {
    Value::Str(format!("{n:#x}"))
}

fn summary_value(unit: &str, s: &Summary) -> Value {
    obj(vec![
        ("unit", text(unit)),
        ("median", num(s.median)),
        ("q1", num(s.q1)),
        ("q3", num(s.q3)),
        ("laps", num(s.laps as f64)),
        ("samples", num(s.samples as f64)),
    ])
}

fn phase_value(
    values: &Values,
    verdict: &Correctness,
    unit_of: impl Fn(&str) -> &'static str,
) -> Value {
    let metrics = values
        .iter()
        .map(|(name, s)| ((*name).to_owned(), summary_value(unit_of(name), s)))
        .collect();
    obj(vec![
        ("correct", Value::Bool(verdict.correct())),
        ("ops_attempted", num(verdict.attempted as f64)),
        ("ops_failed", num(verdict.failed as f64)),
        (
            "violations",
            Value::Arr(verdict.violations.iter().map(|v| text(v)).collect()),
        ),
        ("violation_count", num(verdict.violation_count as f64)),
        ("metrics", Value::Obj(metrics)),
    ])
}

/// The end-to-end phase also records the raw host time and the speed factor
/// its scaled times were made from, under their per-layer names.
fn end_to_end_unit(name: &str) -> &'static str {
    metrics::end_to_end(name).map_or_else(|| per_layer_unit(name), |m| m.unit)
}

fn per_layer_unit(name: &str) -> &'static str {
    PER_LAYER.iter().find(|m| m.0 == name).map_or("", |m| m.1)
}

/// The whole result document.
pub fn document(seed: u64, trace_seed: u64, host: &Host, workloads: &[WorkloadResult]) -> Value {
    let workloads = workloads
        .iter()
        .map(|w| {
            let mut members = vec![
                ("fingerprint", hex(w.fingerprint)),
                ("workload.ops", num(w.ops as f64)),
            ];
            if let Some((values, verdict)) = &w.end_to_end {
                members.push(("end_to_end", phase_value(values, verdict, end_to_end_unit)));
            }
            if let Some((values, verdict)) = &w.per_layer {
                members.push(("per_layer", phase_value(values, verdict, per_layer_unit)));
            }
            (w.name.to_owned(), obj(members))
        })
        .collect();
    obj(vec![
        ("schema", text(SCHEMA)),
        ("seed", hex(seed)),
        ("trace_seed", hex(trace_seed)),
        (
            "host",
            obj(vec![
                ("threads_used", num(1.0)),
                (
                    "available_parallelism",
                    num(host.available_parallelism as f64),
                ),
                ("rustc", text(&host.rustc)),
                ("commit", text(&host.commit)),
            ]),
        ),
        ("workloads", Value::Obj(workloads)),
    ])
}

/// Serialises `v` with two-space indentation.
pub fn render(v: &Value) -> String {
    let mut out = String::new();
    render_into(v, 0, &mut out);
    out.push('\n');
    out
}

fn render_into(v: &Value, depth: usize, out: &mut String) {
    let pad = |out: &mut String, depth: usize| out.push_str(&"  ".repeat(depth));
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => write!(out, "{b}").expect("writing to a String"),
        Value::Num(n) => out.push_str(&number(*n)),
        Value::Str(s) => write!(out, "\"{}\"", json::escape(s)).expect("writing to a String"),
        Value::Arr(items) if items.is_empty() => out.push_str("[]"),
        Value::Arr(items) => {
            out.push_str("[\n");
            for (i, item) in items.iter().enumerate() {
                pad(out, depth + 1);
                render_into(item, depth + 1, out);
                out.push_str(if i + 1 < items.len() { ",\n" } else { "\n" });
            }
            pad(out, depth);
            out.push(']');
        }
        Value::Obj(members) if members.is_empty() => out.push_str("{}"),
        Value::Obj(members) => {
            out.push_str("{\n");
            for (i, (key, value)) in members.iter().enumerate() {
                pad(out, depth + 1);
                write!(out, "\"{}\": ", json::escape(key)).expect("writing to a String");
                render_into(value, depth + 1, out);
                out.push_str(if i + 1 < members.len() { ",\n" } else { "\n" });
            }
            pad(out, depth);
            out.push('}');
        }
    }
}

/// A JSON number with all the digits of `n` (JSON has no NaN or infinity:
/// those become `null`).
fn number(n: f64) -> String {
    if n.is_finite() {
        format!("{n}")
    } else {
        "null".to_owned()
    }
}

/// The last line of standard output when one phase of one workload ran:
/// `correct`, `attempted`, `failed` and the phase's metrics by name.
pub fn contract_line(
    values: &Values,
    verdict: &Correctness,
    unit_of: impl Fn(&str) -> &'static str,
) -> String {
    let metrics: Vec<String> = values
        .iter()
        .map(|(name, s)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                number(s.median),
                unit_of(name)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        verdict.correct(),
        verdict.attempted.max(1),
        verdict.failed,
        metrics.join(", ")
    )
}

pub fn end_to_end_line(values: &Values, verdict: &Correctness) -> String {
    let mut listed = values.clone();
    listed.retain(|name, _| metrics::end_to_end(name).is_some());
    contract_line(&listed, verdict, end_to_end_unit)
}

pub fn per_layer_line(values: &Values, verdict: &Correctness) -> String {
    contract_line(values, verdict, per_layer_unit)
}

/// Prints one phase's metrics, a line each, in table order.
pub fn print_phase(workload: &str, values: &Values, verdict: &Correctness, end_to_end: bool) {
    let names: Vec<(&str, &str)> = if end_to_end {
        let context = ["workload.raw_host_ns_per_op", "workload.speed_factor"];
        END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(context.map(|name| (name, per_layer_unit(name))))
            .collect()
    } else {
        PER_LAYER.iter().map(|m| (m.0, m.1)).collect()
    };
    for (name, unit) in names {
        let Some(s) = values.get(name) else {
            continue;
        };
        if s.laps > 1 && s.q1 != s.q3 {
            println!(
                "{workload:<18} {name:<34} {:>16} {unit:<7} q1 {} q3 {} laps {} samples {}",
                short(s.median),
                short(s.q1),
                short(s.q3),
                s.laps,
                s.samples
            );
        } else {
            println!("{workload:<18} {name:<34} {:>16} {unit}", short(s.median));
        }
    }
    println!(
        "{workload:<18} ops attempted {} failed {} violations {} -> {}",
        verdict.attempted,
        verdict.failed,
        verdict.violation_count,
        if verdict.correct() {
            "correct"
        } else {
            "INCORRECT"
        }
    );
    for v in &verdict.violations {
        println!("{workload:<18} violation: {v}");
    }
}

/// A value with enough digits to read, not all of them.
pub fn short(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.0}")
    } else if v.abs() >= 100.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.4}")
    }
}

/// One row of a comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: &'static str,
    pub base: Summary,
    pub new: Summary,
    /// new / base.
    pub ratio: f64,
    pub verdict: &'static str,
}

fn read_summary(v: &Value) -> Option<Summary> {
    Some(Summary {
        median: v.get("median")?.as_f64()?,
        q1: v.get("q1")?.as_f64()?,
        q3: v.get("q3")?.as_f64()?,
        laps: v.get("laps")?.as_u64()? as usize,
        samples: v.get("samples")?.as_u64()? as usize,
    })
}

/// improved / unchanged / unresolved / regressed, for `new` against `base`.
pub fn judge(m: &metrics::EndToEnd, base: &Summary, new: &Summary) -> &'static str {
    if base.median == 0.0 {
        return if new.median == 0.0 {
            "unchanged"
        } else {
            "unresolved"
        };
    }
    // Positive when `new` is better.
    let gain = match m.better {
        Better::Lower => (base.median - new.median) / base.median,
        Better::Higher => (new.median - base.median) / base.median,
    };
    if base.spread().max(new.spread()) > m.bound {
        "unresolved"
    } else if gain < -m.bound {
        "regressed"
    } else if gain > 0.0 && gain > base.spread() {
        "improved"
    } else {
        "unchanged"
    }
}

/// Compares two result documents workload by workload, metric by metric.
///
/// # Errors
///
/// Refuses documents whose seeds differ, or a workload whose fingerprint or
/// `workload.ops` differ: those did not measure the same inputs.
pub fn compare(base: &Value, new: &Value) -> Result<Vec<Row>, String> {
    for key in ["schema", "seed", "trace_seed"] {
        let (a, b) = (base.get(key), new.get(key));
        if a.is_none() || a != b {
            return Err(format!("{key} differs: {a:?} vs {b:?}"));
        }
    }
    let workloads = |doc: &Value| match doc.get("workloads") {
        Some(Value::Obj(members)) => Ok(members.clone()),
        _ => Err("no workloads object".to_owned()),
    };
    let (base_w, new_w) = (workloads(base)?, workloads(new)?);
    let mut rows = Vec::new();
    for (name, b) in &base_w {
        let Some((_, n)) = new_w.iter().find(|(k, _)| k == name) else {
            continue;
        };
        for key in ["fingerprint", "workload.ops"] {
            if b.get(key).is_none() || b.get(key) != n.get(key) {
                return Err(format!(
                    "{name}: {key} differs ({:?} vs {:?}): the inputs are not the same",
                    b.get(key),
                    n.get(key)
                ));
            }
        }
        let metrics_of = |w: &Value| w.get("end_to_end").and_then(|p| p.get("metrics")).cloned();
        let (Some(bm), Some(nm)) = (metrics_of(b), metrics_of(n)) else {
            continue;
        };
        for m in &END_TO_END {
            let (Some(bs), Some(ns)) = (
                bm.get(m.name).and_then(read_summary),
                nm.get(m.name).and_then(read_summary),
            ) else {
                continue;
            };
            rows.push(Row {
                workload: name.clone(),
                metric: m.name,
                ratio: ns.median / bs.median,
                verdict: judge(m, &bs, &ns),
                base: bs,
                new: ns,
            });
        }
    }
    if rows.is_empty() {
        return Err("the two results share no workload with end-to-end metrics".to_owned());
    }
    Ok(rows)
}

pub fn print_rows(rows: &[Row]) {
    println!(
        "{:<18} {:<22} {:>14} {:>24} {:>14} {:>24} {:>9}  verdict",
        "workload", "metric", "base median", "base q1..q3", "new median", "new q1..q3", "new/base"
    );
    for r in rows {
        println!(
            "{:<18} {:<22} {:>14} {:>24} {:>14} {:>24} {:>9.4}  {}",
            r.workload,
            r.metric,
            short(r.base.median),
            format!("{}..{}", short(r.base.q1), short(r.base.q3)),
            short(r.new.median),
            format!("{}..{}", short(r.new.q1), short(r.new.q3)),
            r.ratio,
            r.verdict
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(host_ns: f64, fingerprint: u64) -> Value {
        let mut values = Values::new();
        values.insert(
            "host_ns_per_op",
            Summary::of(&[host_ns, host_ns * 1.01, host_ns * 0.99], 0),
        );
        values.insert("peak_reserved_bytes", Summary::exact(23_283_000_000.0, 15));
        let verdict = Correctness {
            attempted: 10,
            ..Correctness::default()
        };
        let host = Host {
            available_parallelism: 2,
            rustc: "rustc 1.95.0 (\"quoted\")".to_owned(),
            commit: "unknown".to_owned(),
        };
        let w = WorkloadResult {
            name: "train_lr",
            fingerprint,
            ops: 44_646,
            end_to_end: Some((values, verdict)),
            per_layer: None,
        };
        document(
            crate::inputs::DEFAULT_SEED,
            0xffff_ffff_ffff_fff1,
            &host,
            &[w],
        )
    }

    #[test]
    fn written_result_reads_back_identical() {
        let doc = sample(26_604.123_456_789, 0xdead_beef_dead_beef);
        let read = json::parse(&render(&doc)).expect("rendered JSON parses");
        assert_eq!(read, doc);
        let host = read.get("workloads").unwrap().get("train_lr").unwrap();
        assert_eq!(
            host.get("fingerprint").unwrap().as_str(),
            Some("0xdeadbeefdeadbeef")
        );
        let m = host.get("end_to_end").unwrap().get("metrics").unwrap();
        assert_eq!(
            read_summary(m.get("peak_reserved_bytes").unwrap()),
            Some(Summary::exact(23_283_000_000.0, 15))
        );
    }

    #[test]
    fn compare_refuses_different_inputs_and_judges_the_rest() {
        let base = sample(1000.0, 1);
        assert!(compare(&base, &sample(1000.0, 2))
            .unwrap_err()
            .contains("fingerprint"));
        let verdict_of = |new_ns: f64| {
            let rows = compare(&base, &sample(new_ns, 1)).unwrap();
            assert_eq!(rows.len(), 2);
            assert_eq!(rows[1].verdict, "unchanged", "the byte metric did not move");
            rows[0].verdict
        };
        assert_eq!(verdict_of(1000.0), "unchanged");
        assert_eq!(verdict_of(1005.0), "unchanged");
        assert_eq!(verdict_of(1300.0), "regressed");
        assert_eq!(verdict_of(800.0), "improved");
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved() {
        let m = metrics::end_to_end("host_ns_per_op").unwrap();
        let noisy = Summary::of(&[800.0, 1000.0, 1300.0], 0);
        assert_eq!(judge(m, &noisy, &Summary::exact(700.0, 3)), "unresolved");
        let exact = metrics::end_to_end("peak_reserved_bytes").unwrap();
        assert_eq!(
            judge(exact, &Summary::exact(100.0, 1), &Summary::exact(99.0, 1)),
            "improved"
        );
        assert_eq!(
            judge(exact, &Summary::exact(100.0, 1), &Summary::exact(110.0, 1)),
            "regressed"
        );
    }

    #[test]
    fn contract_line_is_one_json_object() {
        let mut values = Values::new();
        values.insert("setup_s", Summary::exact(0.125, 9));
        values.insert("workload.speed_factor", Summary::exact(1.07, 9));
        let line = end_to_end_line(&values, &Correctness::default());
        assert!(!line.contains('\n'));
        let v = json::parse(&line).unwrap();
        assert_eq!(v.get("correct"), Some(&Value::Bool(true)));
        assert_eq!(
            v.get("attempted").unwrap().as_u64(),
            Some(1),
            "never below one"
        );
        let m = v.get("metrics").unwrap().get("setup_s").unwrap();
        assert_eq!(m.get("value").unwrap().as_f64(), Some(0.125));
        assert_eq!(m.get("unit").unwrap().as_str(), Some("s"));
        let listed = v.get("metrics").unwrap();
        assert!(
            listed.get("workload.speed_factor").is_none(),
            "the line lists end-to-end metrics only"
        );
        assert_eq!(end_to_end_unit("workload.speed_factor"), "ratio");
    }
}
