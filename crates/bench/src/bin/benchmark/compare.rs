//! `--compare A B`: the regression verdict between two sets of runs of the
//! same benchmark, A from the parent and B from the change, each a file of
//! run records written by `--out`.
//!
//! For every workload and end-to-end metric it prints both sides' median
//! and quartiles, the change in the median, the metric's bound from
//! `BENCHMARK.json`, and a verdict:
//!
//! * `worse` — B's median is worse than A's by more than the bound;
//! * `unresolved` — the run-to-run spread (quartile distance over median)
//!   of either side is wider than the bound, so no verdict is possible,
//!   unless every run of B reads better than every run of A;
//! * `ok` — otherwise.

use crate::json::Json;
use crate::stats::quartiles;
use crate::{END_TO_END, WORKLOADS};

/// `BENCHMARK.json`, the benchmark's contract with its runner.
pub const CONTRACT: &str = include_str!("../../../../../BENCHMARK.json");

/// How a metric is judged.
struct Rule {
    name: String,
    lower_is_better: bool,
    bound: f64,
}

fn rules() -> Result<Vec<Rule>, String> {
    let doc = Json::parse(CONTRACT).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    doc.get("end_to_end")
        .map(Json::as_array)
        .unwrap_or_default()
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .ok_or(format!("BENCHMARK.json: metric without {k}"))
            };
            Ok(Rule {
                name: field("name")?.as_str().unwrap_or_default().to_string(),
                lower_is_better: field("better")?.as_str() == Some("lower"),
                bound: field("bound")?.as_f64().unwrap_or(0.0),
            })
        })
        .collect()
}

/// One untraced run: its workload and its metric values by name.
type Run = (String, Vec<(String, f64)>);

/// The untraced runs of one file.
fn load(path: &str) -> Result<Vec<Run>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut runs = Vec::new();
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let record = Json::parse(line).map_err(|e| format!("{path}:{}: {e}", i + 1))?;
        if record.get("trace") != Some(&Json::Bool(false)) {
            continue;
        }
        let result = record
            .get("result")
            .ok_or(format!("{path}:{}: no result", i + 1))?;
        if result.get("correct") != Some(&Json::Bool(true)) {
            return Err(format!("{path}:{}: a run with incorrect output", i + 1));
        }
        let workload = record
            .get("workload")
            .and_then(Json::as_str)
            .ok_or(format!("{path}:{}: no workload", i + 1))?;
        let values = result
            .get("metrics")
            .map(Json::members)
            .unwrap_or_default()
            .iter()
            .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
            .collect();
        runs.push((workload.to_string(), values));
    }
    Ok(runs)
}

fn values(runs: &[Run], workload: &str, metric: &str) -> Vec<f64> {
    runs.iter()
        .filter(|(w, _)| w == workload)
        .filter_map(|(_, vals)| vals.iter().find(|(n, _)| n == metric).map(|(_, v)| *v))
        .collect()
}

#[derive(Debug, PartialEq)]
enum Verdict {
    Ok,
    Worse,
    Unresolved,
}

/// The verdict on one metric of one workload; `a` from the parent, `b`
/// from the change, both non-empty.
fn judge(rule: &Rule, a: &[f64], b: &[f64]) -> (Verdict, f64) {
    let (qa1, ma, qa3) = quartiles(a).expect("parent runs");
    let (qb1, mb, qb3) = quartiles(b).expect("change runs");
    let delta = (mb - ma) / ma;
    let worse_by = if rule.lower_is_better { delta } else { -delta };
    let spread = ((qa3 - qa1) / ma).max((qb3 - qb1) / mb);
    let better = |x: f64, y: f64| if rule.lower_is_better { x < y } else { x > y };
    let all_better = b.iter().all(|&y| a.iter().all(|&x| better(y, x)));
    let verdict = if spread > rule.bound && !all_better {
        Verdict::Unresolved
    } else if worse_by > rule.bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    };
    (verdict, delta)
}

/// Prints the comparison; `Ok(true)` when nothing is worse.
pub fn run(a_path: &str, b_path: &str) -> Result<bool, String> {
    let rules = rules()?;
    let (a, b) = (load(a_path)?, load(b_path)?);
    let fmt = |v: &[f64]| {
        let (q1, m, q3) = quartiles(v).expect("runs");
        format!("{m:.4} [{q1:.4}, {q3:.4}] n={}", v.len())
    };
    println!(
        "{:<16} {:<12} {:<34} {:<34} {:>8} {:>6}  verdict",
        "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "delta", "bound"
    );
    let mut none_worse = true;
    for w in WORKLOADS.iter().map(|w| w.name) {
        for &(name, _) in END_TO_END {
            let rule = rules
                .iter()
                .find(|r| r.name == name)
                .ok_or(format!("BENCHMARK.json has no bound for {name}"))?;
            let (va, vb) = (values(&a, w, name), values(&b, w, name));
            if va.is_empty() || vb.is_empty() {
                println!("{w:<16} {name:<12} (no runs on one side)");
                continue;
            }
            let (verdict, delta) = judge(rule, &va, &vb);
            none_worse &= verdict != Verdict::Worse;
            println!(
                "{w:<16} {name:<12} {:<34} {:<34} {:>+7.2}% {:>5.1}%  {}",
                fmt(&va),
                fmt(&vb),
                delta * 100.0,
                rule.bound * 100.0,
                format!("{verdict:?}").to_lowercase()
            );
        }
    }
    Ok(none_worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rule(lower_is_better: bool, bound: f64) -> Rule {
        Rule {
            name: "m".into(),
            lower_is_better,
            bound,
        }
    }

    #[test]
    fn verdicts_follow_bound_and_spread() {
        let parent = [10.0, 10.1, 9.9, 10.0, 10.05];
        let lower = rule(true, 0.1);
        assert_eq!(judge(&lower, &parent, &[10.5, 10.4, 10.6]).0, Verdict::Ok);
        assert_eq!(
            judge(&lower, &parent, &[12.0, 12.1, 11.9]).0,
            Verdict::Worse
        );
        let higher = rule(false, 0.1);
        assert_eq!(judge(&higher, &parent, &[12.0, 12.1, 11.9]).0, Verdict::Ok);
        assert_eq!(judge(&higher, &parent, &[8.0, 8.1, 7.9]).0, Verdict::Worse);
        // A spread wider than the bound leaves no verdict…
        let noisy = [5.0, 10.0, 15.0, 10.0, 20.0];
        assert_eq!(judge(&lower, &noisy, &[11.0, 12.0]).0, Verdict::Unresolved);
        // …unless every run of the change beats every run of the parent.
        assert_eq!(judge(&lower, &noisy, &[4.0, 4.5]).0, Verdict::Ok);
    }

    #[test]
    fn every_end_to_end_metric_has_a_rule() {
        let rules = rules().expect("BENCHMARK.json parses");
        for &(name, _) in END_TO_END {
            let r = rules.iter().find(|r| r.name == name).expect(name);
            assert!(r.bound > 0.0 && r.bound <= 0.25, "{name}");
        }
    }
}
