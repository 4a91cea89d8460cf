//! `ledger compare A.json B.json`: one row per workload × end-to-end
//! metric, judged against the bound `BENCHMARK.json` fixes for the metric.

use std::fmt::Write as _;

use crate::catalog::{bounds, END_TO_END};
use crate::json::Json;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Same,
    Worse,
    Better,
    /// The run-to-run spread recorded in either document is wider than
    /// the bound (or was not recorded): the pair cannot show a change of
    /// the size the bound guards against.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Better => "better",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judge median `b` against median `a`. `bound` and `spread` are shares
/// of the base `a`.
pub fn verdict(a: f64, b: f64, better: &str, bound: f64, spread: Option<f64>) -> Verdict {
    let Some(spread) = spread else {
        return Verdict::Unresolved;
    };
    if spread > bound || a <= 0.0 {
        return Verdict::Unresolved;
    }
    let worsening = if better == "lower" {
        (b - a) / a
    } else {
        (a - b) / a
    };
    if worsening > bound {
        Verdict::Worse
    } else if worsening < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

fn workload<'a>(doc: &'a Json, name: &str) -> Option<&'a Json> {
    doc.get("workloads")?
        .as_arr()
        .iter()
        .find(|w| w.get("name").and_then(Json::as_str) == Some(name))
}

fn field(w: &Json, metric: &str, key: &str) -> Option<f64> {
    w.get("end_to_end")?.get(metric)?.get(key)?.as_f64()
}

/// Whether a measured run of the workload flagged its paced phase invalid
/// (the generator ran late): its latencies then say nothing.
fn paced_invalid(w: &Json) -> bool {
    w.get("measured_runs")
        .map(Json::as_arr)
        .unwrap_or_default()
        .iter()
        .any(|run| run.get("paced_valid").and_then(Json::as_bool) == Some(false))
}

/// The comparison table and whether any row is `worse`.
pub fn compare(a: &Json, b: &Json) -> Result<(String, bool), String> {
    let quick = |d: &Json| d.get("quick").and_then(Json::as_bool).unwrap_or(false);
    if quick(a) != quick(b) {
        return Err("a --quick document cannot be compared against a full one".into());
    }
    for key in ["seconds", "repeats"] {
        let of = |d: &Json| d.get(key).and_then(Json::as_f64);
        if of(a) != of(b) {
            return Err(format!(
                "the documents differ in `{key}`: {:?} against {:?}",
                of(a),
                of(b)
            ));
        }
    }
    let bounds = bounds();
    let mut out = String::new();
    let mut any_worse = false;
    let _ = writeln!(
        out,
        "{:<16} {:<15} {:>12} {:>12} {:>16} {:>6} {:>7}  verdict",
        "workload", "metric", "A median", "B median", "B/A (base A)", "bound", "spread"
    );
    for w in a.get("workloads").map(Json::as_arr).unwrap_or_default() {
        let name = w.get("name").and_then(Json::as_str).unwrap_or("?");
        let Some(wb) = workload(b, name) else {
            let _ = writeln!(out, "{name:<16} missing from B");
            any_worse = true;
            continue;
        };
        let latency_invalid = paced_invalid(w) || paced_invalid(wb);
        for (metric, _unit, better) in END_TO_END {
            let Some(ma) = field(w, metric, "median") else {
                continue;
            };
            let Some(mb) = field(wb, metric, "median") else {
                let _ = writeln!(out, "{name:<16} {metric:<15} missing from B  worse");
                any_worse = true;
                continue;
            };
            let bound = bounds
                .iter()
                .find(|(n, _)| n == metric)
                .map_or(0.0, |(_, b)| *b);
            let spread = match (field(w, metric, "spread"), field(wb, metric, "spread")) {
                (Some(x), Some(y)) => Some(x.max(y)),
                _ => None,
            };
            let v = if latency_invalid && metric.starts_with("latency_") {
                Verdict::Unresolved
            } else {
                verdict(ma, mb, better, bound, spread)
            };
            any_worse |= v == Verdict::Worse;
            let _ = writeln!(
                out,
                "{name:<16} {metric:<15} {ma:>12.5} {mb:>12.5} {:>7.4} ({ma:>7.4}) {bound:>6.2} {:>7}  {}",
                mb / ma,
                spread.map_or("-".to_string(), |s| format!("{s:.4}")),
                v.label()
            );
        }
        // Any increase in the failed share is a regression.
        let ratio = |d: &Json| d.get("fail_ratio").and_then(Json::as_f64).unwrap_or(0.0);
        let (fa, fb) = (ratio(w), ratio(wb));
        let v = if fb > fa {
            Verdict::Worse
        } else {
            Verdict::Same
        };
        any_worse |= v == Verdict::Worse;
        let _ = writeln!(
            out,
            "{name:<16} {:<15} {fa:>12.5} {fb:>12.5} {:>16} {:>6} {:>7}  {}",
            "fail_ratio",
            "-",
            "any",
            "-",
            v.label()
        );
    }
    Ok((out, any_worse))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_bound_direction_and_spread() {
        // Lower is better, bound 10 %.
        assert_eq!(
            verdict(100.0, 105.0, "lower", 0.10, Some(0.02)),
            Verdict::Same
        );
        assert_eq!(
            verdict(100.0, 111.0, "lower", 0.10, Some(0.02)),
            Verdict::Worse
        );
        assert_eq!(
            verdict(100.0, 85.0, "lower", 0.10, Some(0.02)),
            Verdict::Better
        );
        // Higher is better: the same numbers read the other way.
        assert_eq!(
            verdict(100.0, 111.0, "higher", 0.10, Some(0.02)),
            Verdict::Better
        );
        assert_eq!(
            verdict(100.0, 85.0, "higher", 0.10, Some(0.02)),
            Verdict::Worse
        );
        assert_eq!(
            verdict(100.0, 95.0, "higher", 0.10, Some(0.02)),
            Verdict::Same
        );
        // A spread wider than the bound, or none recorded, resolves nothing.
        assert_eq!(
            verdict(100.0, 150.0, "lower", 0.10, Some(0.12)),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(100.0, 100.0, "lower", 0.10, None),
            Verdict::Unresolved
        );
    }

    fn doc(quick: bool, items_per_s: f64, fail_ratio: f64) -> Json {
        stream_doc(quick, 25, items_per_s, fail_ratio, true)
    }

    fn stream_doc(
        quick: bool,
        seconds: u32,
        items_per_s: f64,
        fail_ratio: f64,
        paced_valid: bool,
    ) -> Json {
        let text = format!(
            r#"{{"quick": {quick}, "seconds": {seconds}, "repeats": 3,
                "workloads": [{{"name": "stream-local-64", "fail_ratio": {fail_ratio},
                "end_to_end": {{"items_per_s": {{"median": {items_per_s}, "spread": 0.01}},
                                "latency_p50_ms": {{"median": 2.0, "spread": 0.01}}}},
                "measured_runs": [{{"paced_valid": true}}, {{"paced_valid": {paced_valid}}}]}}]}}"#
        );
        Json::parse(&text).unwrap()
    }

    #[test]
    fn compare_flags_regressions_and_refuses_quick_against_full() {
        let base = doc(false, 1000.0, 0.0);
        let (table, worse) = compare(&base, &doc(false, 1010.0, 0.0)).unwrap();
        assert!(!worse, "{table}");
        assert!(table.contains("same"));
        // No bound may exceed a quarter, so half the throughput is worse under any.
        let (table, worse) = compare(&base, &doc(false, 500.0, 0.0)).unwrap();
        assert!(worse && table.contains("worse"), "{table}");
        let (_, worse) = compare(&base, &doc(false, 1000.0, 0.001)).unwrap();
        assert!(worse, "any increase in fail_ratio is a regression");
        assert!(compare(&base, &doc(true, 1000.0, 0.0)).is_err());
        // Runs of another length are not the same measurement.
        assert!(compare(&base, &stream_doc(false, 20, 1000.0, 0.0, true)).is_err());
    }

    #[test]
    fn compare_reads_an_invalid_paced_phase_as_unresolved_and_a_lost_metric_as_worse() {
        let base = doc(false, 1000.0, 0.0);
        let (table, worse) = compare(&base, &stream_doc(false, 25, 1000.0, 0.0, false)).unwrap();
        let row = |metric: &str| {
            table
                .lines()
                .find(|l| l.contains(metric))
                .unwrap()
                .to_string()
        };
        assert!(!worse, "{table}");
        assert!(row("latency_p50_ms").ends_with("unresolved"), "{table}");
        assert!(row("items_per_s").ends_with("same"), "{table}");

        let text = r#"{"quick": false, "seconds": 25, "repeats": 3, "workloads": [
            {"name": "stream-local-64", "fail_ratio": 0, "end_to_end": {}}]}"#;
        let (table, worse) = compare(&base, &Json::parse(text).unwrap()).unwrap();
        assert!(worse && table.contains("missing from B"), "{table}");
    }
}
