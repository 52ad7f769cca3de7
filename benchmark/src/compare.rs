//! `compare A.json B.json`: the no-regression rule between two result files.
//!
//! Per workload and end-to-end metric, the candidate's median may be worse
//! than the baseline's by at most the metric's bound from `BENCHMARK.json`.
//! Where the baseline's own spread (IQR over median) is wider than the
//! bound, the pair is unresolved unless every candidate run beats every
//! baseline run. `failed_frac` is strict, and the metrics digests must match.

use crate::stats::{median, relative_iqr};
use serde::Value;

/// The outcome for one (workload, metric) pair.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Within,
    Improved,
    Regression,
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Within => "within bound",
            Verdict::Improved => "improved",
            Verdict::Regression => "REGRESSION",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// The verdict for one metric: `lower` says lower values are better.
pub fn verdict(base: &[f64], cand: &[f64], lower: bool, bound: f64) -> Verdict {
    let (b, c) = (median(base), median(cand));
    let worse_by = if lower { (c - b) / b } else { (b - c) / b };
    let fold = |init: f64, f: fn(f64, f64) -> f64, v: &[f64]| v.iter().cloned().fold(init, f);
    let every_run_better = if lower {
        fold(f64::MIN, f64::max, cand) < fold(f64::MAX, f64::min, base)
    } else {
        fold(f64::MAX, f64::min, cand) > fold(f64::MIN, f64::max, base)
    };
    if relative_iqr(base) > bound {
        if every_run_better {
            Verdict::Improved
        } else {
            Verdict::Unresolved
        }
    } else if worse_by > bound {
        Verdict::Regression
    } else if -worse_by > bound {
        Verdict::Improved
    } else {
        Verdict::Within
    }
}

/// The failure share may not rise at all.
pub fn failed_verdict(base: f64, cand: f64) -> Verdict {
    if cand > base {
        Verdict::Regression
    } else {
        Verdict::Within
    }
}

fn values(metric: &Value) -> Vec<f64> {
    metric["values"]
        .as_array()
        .map(|v| v.iter().filter_map(Value::as_f64).collect())
        .unwrap_or_default()
}

fn workload<'a>(results: &'a Value, name: &str) -> Option<&'a Value> {
    results["workloads"]
        .as_array()?
        .iter()
        .find(|w| w["name"].as_str() == Some(name))
}

/// Compares candidate `cand` against baseline `base` under the end-to-end
/// bounds of `bench` (the parsed `BENCHMARK.json`). Returns the report and
/// whether the candidate passes.
pub fn compare(base: &Value, cand: &Value, bench: &Value) -> (String, bool) {
    let mut out = format!(
        "{:<15} {:<12} {:>11} {:>11} {:>8} {:>9} {:>6}  verdict\n",
        "workload", "metric", "baseline", "candidate", "change", "base IQR", "bound"
    );
    let mut pass = true;
    for (side, results) in [("baseline", base), ("candidate", cand)] {
        if results["correct"].as_bool() == Some(false) {
            out.push_str(&format!("the {side} run failed its output checks\n"));
            pass = false;
        }
    }
    let metrics = bench["end_to_end"].as_array().cloned().unwrap_or_default();
    for b in base["workloads"].as_array().into_iter().flatten() {
        let name = b["name"].as_str().unwrap_or("?");
        let Some(c) = workload(cand, name) else {
            out.push_str(&format!("{name:<15} missing from the candidate\n"));
            pass = false;
            continue;
        };
        if b["digest"] != c["digest"] {
            out.push_str(&format!(
                "{name:<15} DIGEST MISMATCH: baseline {} candidate {}\n",
                b["digest"].as_str().unwrap_or("?"),
                c["digest"].as_str().unwrap_or("?")
            ));
            pass = false;
        }
        for m in &metrics {
            let metric = m["name"].as_str().unwrap_or("?");
            let (bv, cv) = (values(&b["e2e"][metric]), values(&c["e2e"][metric]));
            if bv.is_empty() || cv.is_empty() {
                out.push_str(&format!("{name:<15} {metric:<12} missing values\n"));
                pass = false;
                continue;
            }
            let bound = m["bound"].as_f64().unwrap_or(0.0);
            let v = verdict(&bv, &cv, m["better"].as_str() == Some("lower"), bound);
            pass &= v != Verdict::Regression;
            let (bm, cm) = (median(&bv), median(&cv));
            out.push_str(&format!(
                "{name:<15} {metric:<12} {bm:>11.4} {cm:>11.4} {:>+7.1}% {:>8.1}% {:>5.0}%  {}\n",
                (cm - bm) / bm * 100.0,
                relative_iqr(&bv) * 100.0,
                bound * 100.0,
                v.label()
            ));
        }
        let failed = |w: &Value| w["e2e"]["failed_frac"]["median"].as_f64().unwrap_or(1.0);
        let v = failed_verdict(failed(b), failed(c));
        pass &= v != Verdict::Regression;
        out.push_str(&format!(
            "{name:<15} {:<12} {:>11.4} {:>11.4} {:>8} {:>9} {:>6}  {}\n",
            "failed_frac",
            failed(b),
            failed(c),
            "",
            "",
            "strict",
            v.label()
        ));
    }
    (out, pass)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_bound_and_the_baseline_spread() {
        let base = [10.0, 10.1, 10.2, 9.9, 10.0];
        assert_eq!(verdict(&base, &base, true, 0.1), Verdict::Within);
        let slower: Vec<f64> = base.iter().map(|v| v * 1.2).collect();
        assert_eq!(verdict(&base, &slower, true, 0.1), Verdict::Regression);
        assert_eq!(verdict(&base, &slower, true, 0.25), Verdict::Within);
        let faster: Vec<f64> = base.iter().map(|v| v * 0.8).collect();
        assert_eq!(verdict(&base, &faster, true, 0.1), Verdict::Improved);
        // Higher-is-better flips the direction.
        assert_eq!(verdict(&base, &slower, false, 0.1), Verdict::Improved);
        assert_eq!(verdict(&base, &faster, false, 0.1), Verdict::Regression);
    }

    #[test]
    fn a_noisy_baseline_makes_the_pair_unresolved() {
        let noisy = [8.0, 10.0, 12.0, 9.0, 11.0];
        assert!(relative_iqr(&noisy) > 0.1);
        let slower: Vec<f64> = noisy.iter().map(|v| v * 1.3).collect();
        assert_eq!(verdict(&noisy, &slower, true, 0.1), Verdict::Unresolved);
        // Unless every candidate run beats every baseline run.
        assert_eq!(verdict(&noisy, &[5.0, 6.0], true, 0.1), Verdict::Improved);
    }

    #[test]
    fn failures_may_not_rise_at_all() {
        assert_eq!(failed_verdict(0.0, 0.0), Verdict::Within);
        assert_eq!(failed_verdict(0.0, 0.0001), Verdict::Regression);
        assert_eq!(failed_verdict(0.1, 0.0), Verdict::Within);
    }

    #[test]
    fn compare_flags_regressions_and_digest_mismatches() {
        let results = |wall: f64, digest: &str| -> Value {
            serde_json::from_str(&format!(
                r#"{{"workloads":[{{"name":"w","digest":"{digest}","e2e":{{
                    "wall_s":{{"values":[{a},{b},{c}]}},
                    "failed_frac":{{"median":0.0}}}}}}]}}"#,
                a = wall,
                b = wall * 1.01,
                c = wall * 0.99
            ))
            .unwrap()
        };
        let bench: Value = serde_json::from_str(
            r#"{"end_to_end":[{"name":"wall_s","unit":"s","better":"lower","bound":0.1}]}"#,
        )
        .unwrap();
        let base = results(10.0, "aa");
        assert!(compare(&base, &results(10.5, "aa"), &bench).1);
        let (report, pass) = compare(&base, &results(12.0, "aa"), &bench);
        assert!(!pass && report.contains("REGRESSION"), "{report}");
        let (report, pass) = compare(&base, &results(10.0, "bb"), &bench);
        assert!(!pass && report.contains("DIGEST MISMATCH"), "{report}");
        let mut failing = results(10.0, "aa");
        if let Value::Object(fields) = &mut failing {
            fields.push(("correct".to_string(), Value::Bool(false)));
        }
        let (report, pass) = compare(&base, &failing, &bench);
        assert!(!pass && report.contains("candidate run failed"), "{report}");
    }
}
