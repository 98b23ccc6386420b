//! `ledger compare <parent> <change>`: applies each end-to-end metric's
//! bound and direction to two result files of `ledger run`.

use std::path::Path;
use std::process::ExitCode;

use crate::json::Json;
use crate::metrics::{Better, EndToEnd, END_TO_END};
use crate::stats::Summary;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    /// The parent's own inter-quartile spread exceeds the bound, so a
    /// difference of that size cannot be told from noise.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

pub fn verdict(metric: &EndToEnd, parent: Summary, change: Summary) -> Verdict {
    // Positive when the change is worse, as a share of the parent.
    let worsening = match metric.better {
        Better::Lower => change.median - parent.median,
        Better::Higher => parent.median - change.median,
    } / parent.median.abs();
    if metric.clock.exact() {
        // Exact per seed: any difference is real.
        return if change.median == parent.median {
            Verdict::Same
        } else if worsening > 0.0 {
            Verdict::Worse
        } else {
            Verdict::Better
        };
    }
    if parent.spread() > metric.bound {
        Verdict::Unresolved
    } else if worsening > metric.bound {
        Verdict::Worse
    } else if worsening < -metric.bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|err| format!("{}: {err}", path.display()))?;
    let file = Json::parse(&text).map_err(|err| format!("{}: {err}", path.display()))?;
    if file.get("schema").and_then(Json::as_f64) != Some(1.0) {
        return Err(format!("{}: not a ledger result file", path.display()));
    }
    Ok(file)
}

fn stat(workload: &Json, metric: &str) -> Option<Summary> {
    let entry = workload.get("metrics")?.get(metric)?;
    let field = |key: &str| entry.get(key).and_then(Json::as_f64);
    Some(Summary {
        median: field("median")?,
        q1: field("q1")?,
        q3: field("q3")?,
        n: field("n")? as usize,
    })
}

pub fn run(parent_path: &Path, change_path: &Path) -> Result<ExitCode, String> {
    let parent = load(parent_path)?;
    let change = load(change_path)?;
    let mut regressed = false;
    println!(
        "{:<15}{:<26}{:>16}{:>16}{:>9}  verdict",
        "workload", "metric", "parent", "change", "delta"
    );
    for (name, parent_workload) in parent
        .get("workloads")
        .map(Json::entries)
        .unwrap_or_default()
    {
        let change_workload = change
            .get("workloads")
            .and_then(|w| w.get(name))
            .ok_or_else(|| format!("{}: no workload {name}", change_path.display()))?;
        for metric in &END_TO_END {
            let (Some(a), Some(b)) = (
                stat(parent_workload, metric.name),
                stat(change_workload, metric.name),
            ) else {
                continue;
            };
            let verdict = verdict(metric, a, b);
            regressed |= verdict == Verdict::Worse;
            println!(
                "{name:<15}{:<26}{:>16.4}{:>16.4}{:>+8.1}%  {}",
                metric.name,
                a.median,
                b.median,
                (b.median / a.median - 1.0) * 100.0,
                verdict.label()
            );
        }
        let failed = |workload: &Json| workload.get("failed").and_then(Json::as_f64).unwrap_or(0.0);
        let (before, after) = (failed(parent_workload), failed(change_workload));
        let rose = after > before;
        regressed |= rose;
        println!(
            "{name:<15}{:<26}{before:>16}{after:>16}{:>9}  {}",
            "instances_failed",
            "",
            if rose { "worse" } else { "same" }
        );
    }
    Ok(if regressed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::end_to_end;

    fn tight(median: f64) -> Summary {
        Summary {
            median,
            q1: median * 0.99,
            q3: median * 1.01,
            n: 3,
        }
    }

    #[test]
    fn wall_metrics_use_bound_and_direction() {
        let latency = end_to_end("cpu_latency_p50_us").unwrap();
        let bound = latency.bound;
        assert_eq!(
            verdict(latency, tight(100.0), tight(100.0 * (1.0 + bound / 2.0))),
            Verdict::Same
        );
        assert_eq!(
            verdict(latency, tight(100.0), tight(100.0 * (1.0 + bound * 1.5))),
            Verdict::Worse
        );
        assert_eq!(
            verdict(latency, tight(100.0), tight(100.0 * (1.0 - bound * 1.5))),
            Verdict::Better
        );

        let throughput = end_to_end("instances_per_cpu_s").unwrap();
        let bound = throughput.bound;
        assert_eq!(
            verdict(
                throughput,
                tight(1000.0),
                tight(1000.0 * (1.0 - bound * 1.5))
            ),
            Verdict::Worse
        );
        assert_eq!(
            verdict(
                throughput,
                tight(1000.0),
                tight(1000.0 * (1.0 + bound * 1.5))
            ),
            Verdict::Better
        );
    }

    #[test]
    fn noisy_parent_is_unresolved() {
        let latency = end_to_end("cpu_latency_p50_us").unwrap();
        let noisy = Summary {
            median: 100.0,
            q1: 80.0,
            q3: 130.0,
            n: 3,
        };
        assert_eq!(verdict(latency, noisy, tight(300.0)), Verdict::Unresolved);
    }

    #[test]
    fn exact_metrics_compare_with_equality() {
        let bytes = end_to_end("wal_bytes_per_instance").unwrap();
        assert_eq!(
            verdict(bytes, tight(6284.684), tight(6284.684)),
            Verdict::Same
        );
        assert_eq!(
            verdict(bytes, tight(6284.684), tight(6284.685)),
            Verdict::Worse
        );
        assert_eq!(
            verdict(bytes, tight(6284.684), tight(6000.0)),
            Verdict::Better
        );
        let makespan = end_to_end("virtual_makespan_ms").unwrap();
        assert_eq!(
            verdict(makespan, tight(91001.09), tight(91001.10)),
            Verdict::Worse
        );
    }
}
