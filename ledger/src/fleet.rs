//! `ledger run` / `ledger trace`: every workload, each in a child
//! process of its own (clean peak RSS, clean allocator), interleaved
//! across rounds so a slow minute on this box lands on every workload
//! alike; medians and quartiles over rounds go to a result file that
//! `ledger compare` reads.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use crate::json::Json;
use crate::metrics::describe;
use crate::stats::summarize;
use crate::workloads::{Scratch, Workload};

pub struct Plan {
    pub traced: bool,
    pub seed: u64,
    pub seconds: f64,
    pub rounds: usize,
    pub out: Option<PathBuf>,
}

#[derive(Default)]
struct Collected {
    attempted: f64,
    failed: f64,
    /// Metric name → (unit, one value per round), in first-seen order.
    metrics: Vec<(String, String, Vec<f64>)>,
}

/// Runs one workload in a child and returns its result line.
fn child(plan: &Plan, workload: Workload) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|err| format!("cannot find own binary: {err}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload.name()])
        .args(["--seed", &plan.seed.to_string()])
        .args(["--seconds", &plan.seconds.to_string()])
        .args(["--trace", if plan.traced { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|err| format!("cannot run {}: {err}", workload.name()))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    if plan.traced {
        for line in stdout.lines().filter(|line| line.starts_with('#')) {
            println!("{line}");
        }
    }
    let last = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("{} printed nothing", workload.name()))?;
    let line = Json::parse(last).map_err(|err| format!("{}: {err}", workload.name()))?;
    if !output.status.success() || line.get("correct").and_then(Json::as_bool) != Some(true) {
        return Err(format!(
            "{} failed its output checks ({})",
            workload.name(),
            output.status
        ));
    }
    Ok(line)
}

pub fn run(plan: &Plan) -> Result<ExitCode, String> {
    let mut collected: BTreeMap<usize, Collected> = BTreeMap::new();
    for round in 0..plan.rounds {
        for (index, workload) in Workload::ALL.into_iter().enumerate() {
            eprintln!(
                "[round {}/{}] {} ...",
                round + 1,
                plan.rounds,
                workload.name()
            );
            let line = child(plan, workload)?;
            let entry = collected.entry(index).or_default();
            let number = |key: &str| line.get(key).and_then(Json::as_f64).unwrap_or(0.0);
            entry.attempted += number("attempted");
            entry.failed += number("failed");
            let metrics = line.get("metrics").map(Json::entries).unwrap_or_default();
            for (name, metric) in metrics {
                let value = metric.get("value").and_then(Json::as_f64).unwrap_or(0.0);
                match entry.metrics.iter_mut().find(|(n, _, _)| n == name) {
                    Some((_, _, values)) => values.push(value),
                    None => {
                        let unit = metric.get("unit").and_then(Json::as_str).unwrap_or("");
                        entry
                            .metrics
                            .push((name.clone(), unit.to_string(), vec![value]));
                    }
                }
            }
        }
    }

    let mut workloads = Vec::new();
    for (index, entry) in &collected {
        let name = Workload::ALL[*index].name();
        println!(
            "# workload {name}: attempted {} failed {}",
            entry.attempted, entry.failed
        );
        let mut metrics = Vec::new();
        for (metric, unit, values) in &entry.metrics {
            let s = summarize(values);
            println!(
                "{metric:<34}{:>18.4} {unit:<8}{:<8} q1 {:.4} q3 {:.4} n {}",
                s.median,
                describe(metric).1.label(),
                s.q1,
                s.q3,
                s.n
            );
            metrics.push((
                metric.clone(),
                Json::obj([
                    ("median", Json::Num(s.median)),
                    ("q1", Json::Num(s.q1)),
                    ("q3", Json::Num(s.q3)),
                    ("n", Json::Num(s.n as f64)),
                    ("unit", Json::Str(unit.clone())),
                ]),
            ));
        }
        workloads.push((
            name,
            Json::obj([
                ("attempted", Json::Num(entry.attempted)),
                ("failed", Json::Num(entry.failed)),
                ("metrics", Json::Obj(metrics)),
            ]),
        ));
    }
    let file = Json::obj([
        ("schema", Json::Num(1.0)),
        ("traced", Json::Bool(plan.traced)),
        ("seed", Json::Num(plan.seed as f64)),
        ("seconds", Json::Num(plan.seconds)),
        ("rounds", Json::Num(plan.rounds as f64)),
        ("workloads", Json::obj(workloads)),
    ]);
    let out = plan.out.clone().unwrap_or_else(|| {
        let kind = if plan.traced { "trace" } else { "run" };
        Scratch::new()
            .root()
            .join(format!("{kind}-seed{}.json", plan.seed))
    });
    if let Some(parent) = out.parent().filter(|p| !p.as_os_str().is_empty()) {
        std::fs::create_dir_all(parent).map_err(|err| format!("{}: {err}", parent.display()))?;
    }
    std::fs::write(&out, file.render() + "\n")
        .map_err(|err| format!("{}: {err}", out.display()))?;
    println!("# results written to {}", out.display());
    Ok(ExitCode::SUCCESS)
}
