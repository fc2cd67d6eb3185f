//! `perfbench compare <parent-results> <change-results>`: one verdict
//! per (workload, metric) between two sets of result records, by each
//! metric's bound in `BENCHMARK.json` and the pairing rule: a change
//! improves a metric only when it wins at least 9 of 10 pairs (ties
//! count for neither) and the medians differ by more than the parent's
//! interquartile range.

use std::collections::BTreeMap;
use std::path::Path;

use pgraph::json::Json;

use crate::out::number;
use crate::stats;

/// A comparison's outcome for one metric on one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The change wins by the pairing rule.
    Improved,
    /// Within the bound, and the spread allows saying so.
    Unchanged,
    /// Worse than the parent by more than the bound (or, for a metric
    /// without one, losing by the pairing rule).
    Worse,
    /// The parent's own spread is wider than the bound, or too few runs.
    Unresolved,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// How a metric is judged.
#[derive(Debug, Clone, Copy)]
pub struct Rule {
    /// Lower values are better.
    pub lower_is_better: bool,
    /// Share of the parent's median the metric may worsen by.
    pub bound: Option<f64>,
}

/// Judges `change` against `parent` (runs paired by position).
pub fn verdict(parent: &[f64], change: &[f64], rule: Rule) -> Verdict {
    let pairs = parent.len().min(change.len());
    let Some((q1, q3)) = stats::quartiles(parent) else {
        return Verdict::Unresolved;
    };
    if pairs < 2 || change.len() < 2 {
        return Verdict::Unresolved;
    }
    let better = |c: f64, p: f64| if rule.lower_is_better { c < p } else { c > p };
    let wins = (0..pairs).filter(|&i| better(change[i], parent[i])).count();
    let losses = (0..pairs).filter(|&i| better(parent[i], change[i])).count();
    let (pm, cm) = (stats::median(parent), stats::median(change));
    let separated = (cm - pm).abs() > q3 - q1;
    if better(cm, pm) && separated && wins * 10 >= pairs * 9 {
        return Verdict::Improved;
    }
    match rule.bound {
        Some(bound) => {
            let limit = if rule.lower_is_better {
                pm * (1.0 + bound)
            } else {
                pm * (1.0 - bound)
            };
            if better(limit, cm) {
                return Verdict::Worse;
            }
            let all_better = change.iter().all(|&c| parent.iter().all(|&p| better(c, p)));
            if pm != 0.0 && (q3 - q1) / pm.abs() > bound && !all_better {
                return Verdict::Unresolved;
            }
        }
        None => {
            if better(pm, cm) && separated && losses * 10 >= pairs * 9 {
                return Verdict::Worse;
            }
        }
    }
    Verdict::Unchanged
}

/// The rules `BENCHMARK.json` sets: metric name → rule.
pub fn rules(benchmark: &Json) -> BTreeMap<String, Rule> {
    let mut out = BTreeMap::new();
    for key in ["end_to_end", "per_layer"] {
        for m in benchmark.get(key).and_then(Json::as_array).unwrap_or(&[]) {
            let Some(name) = m.get("name").and_then(Json::as_str) else {
                continue;
            };
            out.insert(
                name.to_owned(),
                Rule {
                    lower_is_better: m.get("better").and_then(Json::as_str) == Some("lower"),
                    bound: m.get("bound").and_then(number),
                },
            );
        }
    }
    out
}

/// (workload, metric) → [(seed, value)], sorted by seed.
type Runs = BTreeMap<(String, String), Vec<(u64, f64)>>;

/// Every result record in `dir`.
fn load(dir: &Path) -> Result<Runs, String> {
    let mut out = Runs::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("read {}: {e}", dir.display()))?;
    for entry in entries {
        let path = entry.map_err(|e| e.to_string())?.path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if !name.ends_with(".json") {
            continue;
        }
        let text = std::fs::read_to_string(&path).map_err(|e| e.to_string())?;
        let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let workload = doc.get("workload").and_then(Json::as_str).unwrap_or("?");
        let seed = doc.get("seed").and_then(Json::as_i64).unwrap_or(0) as u64;
        let traced = matches!(doc.get("trace"), Some(Json::Bool(true)));
        let key = if traced { "per_layer" } else { "end_to_end" };
        if let Some(Json::Object(metrics)) = doc.get(key) {
            for (metric, m) in metrics {
                if let Some(v) = m.get("value").and_then(number) {
                    out.entry((workload.to_owned(), metric.clone()))
                        .or_default()
                        .push((seed, v));
                }
            }
        }
    }
    for runs in out.values_mut() {
        runs.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.total_cmp(&b.1)));
    }
    Ok(out)
}

/// Runs the comparison and prints one row per (workload, metric).
pub fn main(args: &[String]) -> Result<(), String> {
    let [parent_dir, change_dir] = args else {
        return Err("usage: compare <parent-results-dir> <change-results-dir>".to_owned());
    };
    let benchmark = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("read BENCHMARK.json (run from the checkout root): {e}"))?;
    let rules = rules(&Json::parse(&benchmark).map_err(|e| e.to_string())?);
    let parent = load(Path::new(parent_dir))?;
    let change = load(Path::new(change_dir))?;
    println!(
        "{:<16} {:<40} {:>14} {:>14} {:>9}  verdict",
        "workload", "metric", "parent_p50", "change_p50", "delta"
    );
    for (key, p_runs) in &parent {
        let Some(c_runs) = change.get(key) else {
            continue;
        };
        let Some(&rule) = rules.get(&key.1) else {
            continue;
        };
        let p: Vec<f64> = p_runs.iter().map(|r| r.1).collect();
        let c: Vec<f64> = c_runs.iter().map(|r| r.1).collect();
        let (pm, cm) = (stats::median(&p), stats::median(&c));
        let delta = if pm != 0.0 {
            format!("{:+.1}%", (cm - pm) / pm.abs() * 100.0)
        } else {
            "n/a".to_owned()
        };
        println!(
            "{:<16} {:<40} {:>14.4} {:>14.4} {:>9}  {}",
            key.0,
            key.1,
            pm,
            cm,
            delta,
            verdict(&p, &c, rule).name()
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    const LOWER: Rule = Rule {
        lower_is_better: true,
        bound: Some(0.1),
    };

    fn runs(base: f64, jitter: &[f64]) -> Vec<f64> {
        jitter.iter().map(|j| base + j).collect()
    }

    const JITTER: [f64; 10] = [0.0, 0.2, -0.2, 0.1, -0.1, 0.3, -0.3, 0.05, -0.05, 0.15];

    #[test]
    fn a_clear_win_is_improved() {
        let parent = runs(10.0, &JITTER);
        let change = runs(8.0, &JITTER);
        assert_eq!(verdict(&parent, &change, LOWER), Verdict::Improved);
        // Higher-is-better flips the direction.
        let higher = Rule {
            lower_is_better: false,
            bound: Some(0.1),
        };
        assert_eq!(verdict(&change, &parent, higher), Verdict::Improved);
    }

    #[test]
    fn winning_fewer_than_nine_pairs_in_ten_is_not_improved() {
        let parent = runs(10.0, &JITTER);
        let mut change = runs(9.0, &JITTER);
        change[0] = 11.0;
        change[1] = 11.0;
        assert_eq!(verdict(&parent, &change, LOWER), Verdict::Unchanged);
    }

    #[test]
    fn a_small_shift_inside_the_spread_is_unchanged() {
        let parent = runs(10.0, &JITTER);
        let change = runs(10.1, &JITTER);
        assert_eq!(verdict(&parent, &change, LOWER), Verdict::Unchanged);
    }

    #[test]
    fn beyond_the_bound_is_worse() {
        let parent = runs(10.0, &JITTER);
        let change = runs(11.5, &JITTER);
        assert_eq!(verdict(&parent, &change, LOWER), Verdict::Worse);
        // Without a bound, losing by the pairing rule is worse.
        let unbounded = Rule {
            lower_is_better: true,
            bound: None,
        };
        assert_eq!(verdict(&parent, &change, unbounded), Verdict::Worse);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved() {
        let parent = vec![5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0];
        let change = vec![6.0, 14.0, 9.0, 12.0, 10.0, 7.0, 13.0, 9.0, 11.0, 10.5];
        assert_eq!(verdict(&parent, &change, LOWER), Verdict::Unresolved);
        assert_eq!(verdict(&[1.0], &[1.0], LOWER), Verdict::Unresolved);
    }

    #[test]
    fn rules_come_from_benchmark_json() {
        let doc = Json::parse(
            r#"{"end_to_end": [{"name": "a", "unit": "ms", "better": "lower", "bound": 0.2}],
                "per_layer": [{"name": "b", "unit": "count", "better": "higher"}]}"#,
        )
        .unwrap();
        let r = rules(&doc);
        assert!(r["a"].lower_is_better && r["a"].bound == Some(0.2));
        assert!(!r["b"].lower_is_better && r["b"].bound.is_none());
    }
}
