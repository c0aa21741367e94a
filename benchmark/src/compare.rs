//! `fannr-bench compare A.json B.json`: one row per (workload,
//! end-to-end metric) with both medians and quartiles, the bound from
//! `BENCHMARK.json`, and a verdict.

use crate::json;
use crate::stats;

#[derive(Debug, Clone, PartialEq)]
pub struct MetricDef {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    pub bound: f64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Unchanged,
    Improved,
    Regressed,
    /// The run-to-run spread of either side exceeds the bound, so a
    /// change of the bound's size could not be told from noise.
    Unresolved,
}

impl Verdict {
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Unchanged => "unchanged",
            Verdict::Improved => "improved",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// The `end_to_end` list of a `BENCHMARK.json` document.
pub fn metric_defs(benchmark_json: &str) -> Vec<MetricDef> {
    json::elements(json::field(benchmark_json, "end_to_end").unwrap_or("[]"))
        .into_iter()
        .filter_map(|m| {
            Some(MetricDef {
                name: json::str_field(m, "name")?.to_string(),
                unit: json::str_field(m, "unit")?.to_string(),
                higher_is_better: json::str_field(m, "better")? == "higher",
                bound: json::f64_field(m, "bound")?,
            })
        })
        .collect()
}

/// The workload names of a `BENCHMARK.json` document, in order.
pub fn workload_names(benchmark_json: &str) -> Vec<String> {
    json::elements(json::field(benchmark_json, "workloads").unwrap_or("[]"))
        .into_iter()
        .filter_map(|w| json::str_field(w, "name").map(str::to_string))
        .collect()
}

/// Every value of `metric` on `workload` among the untraced runs of a
/// results document (`{"runs": [...]}`).
pub fn values(results_json: &str, workload: &str, metric: &str) -> Vec<f64> {
    json::elements(json::field(results_json, "runs").unwrap_or("[]"))
        .into_iter()
        .filter(|run| json::str_field(run, "workload") == Some(workload))
        .filter(|run| json::u64_field(run, "trace").unwrap_or(0) == 0)
        .filter_map(|run| {
            json::f64_field(json::field(json::field(run, "metrics")?, metric)?, "value")
        })
        .collect()
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Side {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub runs: usize,
}

impl Side {
    pub fn of(values: &[f64]) -> Side {
        let (q1, q3) = stats::quartiles(values);
        Side {
            median: stats::median(values),
            q1,
            q3,
            runs: values.len(),
        }
    }

    /// Interquartile range as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// How much worse `b` is than `a`, as a share of `a`'s median (negative:
/// better).
pub fn worsening(def: &MetricDef, a: &Side, b: &Side) -> f64 {
    if a.median == 0.0 {
        return if b.median == 0.0 { 0.0 } else { f64::INFINITY };
    }
    let change = (b.median - a.median) / a.median.abs();
    if def.higher_is_better {
        -change
    } else {
        change
    }
}

pub fn verdict(def: &MetricDef, a: &Side, b: &Side) -> Verdict {
    let worse = worsening(def, a, b);
    if a.spread().max(b.spread()) > def.bound {
        Verdict::Unresolved
    } else if worse > def.bound {
        Verdict::Regressed
    } else if worse < -def.bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

/// Print the table; returns how many rows regressed.
pub fn compare(benchmark_json: &str, a_json: &str, b_json: &str) -> usize {
    let defs = metric_defs(benchmark_json);
    let mut regressed = 0;
    println!(
        "{:<17} {:<12} {:>5} | {:>11} {:>11} {:>11} {:>3} | {:>11} {:>11} {:>11} {:>3} | {:>7} {:>6}  verdict",
        "workload", "metric", "unit", "A median", "A q1", "A q3", "n", "B median", "B q1", "B q3", "n", "worse", "bound"
    );
    for workload in workload_names(benchmark_json) {
        for def in &defs {
            let va = values(a_json, &workload, &def.name);
            let vb = values(b_json, &workload, &def.name);
            if va.is_empty() || vb.is_empty() {
                println!("{workload:<17} {:<12} missing on one side", def.name);
                continue;
            }
            let (a, b) = (Side::of(&va), Side::of(&vb));
            let v = verdict(def, &a, &b);
            regressed += usize::from(v == Verdict::Regressed);
            println!(
                "{:<17} {:<12} {:>5} | {:>11.3} {:>11.3} {:>11.3} {:>3} | {:>11.3} {:>11.3} {:>11.3} {:>3} | {:>+6.1}% {:>5.0}%  {}",
                workload,
                def.name,
                def.unit,
                a.median,
                a.q1,
                a.q3,
                a.runs,
                b.median,
                b.q1,
                b.q3,
                b.runs,
                worsening(def, &a, &b) * 100.0,
                def.bound * 100.0,
                v.name()
            );
        }
    }
    regressed
}

#[cfg(test)]
mod tests {
    use super::*;

    const BENCH: &str = r#"{
      "workloads": [{"name": "w", "why": "x"}],
      "end_to_end": [
        {"name": "qps", "unit": "1/s", "better": "higher", "bound": 0.1},
        {"name": "p50_us", "unit": "us", "better": "lower", "bound": 0.1}
      ]
    }"#;

    fn results(qps: &[f64], p50: &[f64]) -> String {
        let runs: Vec<String> = qps
            .iter()
            .zip(p50)
            .map(|(q, p)| {
                format!(
                    r#"{{"workload":"w","seed":1,"trace":0,"metrics":{{"qps":{{"value":{q},"unit":"1/s"}},"p50_us":{{"value":{p},"unit":"us"}}}}}}"#
                )
            })
            .collect();
        format!("{{\"runs\":[\n{}\n]}}", runs.join(",\n"))
    }

    #[test]
    fn reads_definitions_and_values() {
        let defs = metric_defs(BENCH);
        assert_eq!(defs.len(), 2);
        assert!(defs[0].higher_is_better && !defs[1].higher_is_better);
        assert_eq!(workload_names(BENCH), vec!["w"]);
        let doc = results(&[100.0, 110.0], &[5.0, 6.0]);
        assert_eq!(values(&doc, "w", "qps"), vec![100.0, 110.0]);
        assert!(values(&doc, "other", "qps").is_empty());
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let defs = metric_defs(BENCH);
        let (qps, p50) = (&defs[0], &defs[1]);
        let steady = |m: f64| Side::of(&[m * 0.99, m, m * 1.01]);
        assert_eq!(
            verdict(qps, &steady(100.0), &steady(104.0)),
            Verdict::Unchanged
        );
        assert_eq!(
            verdict(qps, &steady(100.0), &steady(85.0)),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(qps, &steady(100.0), &steady(120.0)),
            Verdict::Improved
        );
        assert_eq!(
            verdict(p50, &steady(100.0), &steady(120.0)),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(p50, &steady(100.0), &steady(85.0)),
            Verdict::Improved
        );
        let noisy = Side::of(&[70.0, 100.0, 130.0]);
        assert_eq!(verdict(qps, &noisy, &steady(85.0)), Verdict::Unresolved);
        // One run a side has no spread to speak of.
        assert_eq!(
            verdict(qps, &Side::of(&[100.0]), &Side::of(&[95.0])),
            Verdict::Unchanged
        );
    }

    #[test]
    fn compare_counts_regressions() {
        let a = results(&[100.0, 101.0, 99.0], &[5.0, 5.0, 5.0]);
        let b = results(&[80.0, 81.0, 79.0], &[5.0, 5.1, 4.9]);
        assert_eq!(compare(BENCH, &a, &b), 1);
        assert_eq!(compare(BENCH, &a, &a), 0);
    }
}
