//! `ledger`: the repo's benchmark runner.
//!
//! One process measures one workload:
//! `ledger --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! prints every metric by name, unit and clock, and ends with one JSON
//! line. `ledger run`, `ledger trace` and `ledger compare` wrap that for
//! people: all workloads interleaved in child processes, a result file,
//! and a regression verdict between two such files.

mod compare;
mod cpu;
mod e2e;
mod fleet;
mod json;
mod layers;
mod metrics;
mod spans;
mod stats;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::process::ExitCode;

use e2e::Report;
use json::Json;
use metrics::describe;
use workloads::{Workload, INSTANCES};

const USAGE: &str = "usage:
  ledger --workload <name> --seed <u64> --seconds <n> --trace <0|1>
  ledger run     [--seed <u64>] [--seconds <n>] [--rounds <n>] [--out <file>]
  ledger trace   [--seed <u64>] [--seconds <n>] [--out <file>]
  ledger compare <parent.json> <change.json>
workloads: wave closed_apps crash_recover";

/// `--flag value` pairs; anything else is a usage error.
fn flags(args: &[String]) -> Result<BTreeMap<&str, &str>, String> {
    let mut out = BTreeMap::new();
    let mut rest = args.iter();
    while let Some(flag) = rest.next() {
        let name = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument `{flag}`"))?;
        let value = rest
            .next()
            .ok_or_else(|| format!("`{flag}` needs a value"))?;
        out.insert(name, value.as_str());
    }
    Ok(out)
}

fn parsed<T: std::str::FromStr>(
    flags: &BTreeMap<&str, &str>,
    name: &str,
    default: Option<T>,
) -> Result<T, String> {
    match flags.get(name) {
        Some(text) => text
            .parse()
            .map_err(|_| format!("`--{name} {text}` is not valid")),
        None => default.ok_or_else(|| format!("`--{name}` is required")),
    }
}

/// Prints the report for people, then the one JSON line the driver
/// reads.
fn print_report(report: &Report) {
    let workload = report.workload;
    println!("# workload {}: {}", workload.name(), workload.why());
    for (name, value) in &report.values {
        let (unit, clock, note) = describe(name);
        println!(
            "{name:<34}{value:>18.4} {unit:<8}{:<8} # {note}",
            clock.label()
        );
    }
    for (name, s) in &report.spreads {
        println!(
            "# {name}: median {:.6} q1 {:.6} q3 {:.6} n {} spread {:.1} %",
            s.median,
            s.q1,
            s.q3,
            s.n,
            s.spread() * 100.0
        );
    }
    for failure in &report.failures {
        eprintln!("FAILED {failure}");
    }
    let metrics = Json::obj(report.values.iter().map(|(name, value)| {
        (
            *name,
            Json::obj([
                ("value", Json::Num(*value)),
                ("unit", Json::Str(describe(name).0.to_string())),
            ]),
        )
    }));
    let line = Json::obj([
        ("correct", Json::Bool(report.correct())),
        ("attempted", Json::Num(report.attempted as f64)),
        ("failed", Json::Num(report.failures.len() as f64)),
        ("metrics", metrics),
    ]);
    println!("{}", line.render());
}

fn one_workload(flags: &BTreeMap<&str, &str>) -> Result<ExitCode, String> {
    let name: String = parsed(flags, "workload", None)?;
    let workload =
        Workload::from_name(&name).ok_or_else(|| format!("unknown workload `{name}`"))?;
    let seed: u64 = parsed(flags, "seed", None)?;
    let seconds: f64 = parsed(flags, "seconds", None)?;
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err(format!("`--seconds {seconds}` is outside (0, 60]"));
    }
    let report = match parsed::<u8>(flags, "trace", None)? {
        0 => e2e::run(workload, seed, seconds, INSTANCES),
        1 => trace::run(workload, seed, seconds, INSTANCES),
        other => return Err(format!("`--trace {other}` is neither 0 nor 1")),
    };
    print_report(&report);
    Ok(if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn dispatch(args: &[String]) -> Result<ExitCode, String> {
    match args.first().map(String::as_str) {
        Some("run") | Some("trace") => {
            let traced = args[0] == "trace";
            let flags = flags(&args[1..])?;
            fleet::run(&fleet::Plan {
                traced,
                seed: parsed(&flags, "seed", Some(1))?,
                seconds: parsed(&flags, "seconds", Some(8.0))?,
                rounds: if traced {
                    1
                } else {
                    parsed(&flags, "rounds", Some(3))?
                },
                out: flags.get("out").map(std::path::PathBuf::from),
            })
        }
        Some("compare") => match &args[1..] {
            [parent, change] => compare::run(parent.as_ref(), change.as_ref()),
            _ => Err("compare takes exactly two result files".to_string()),
        },
        Some(_) => one_workload(&flags(args)?),
        None => Err("no arguments".to_string()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(code) => code,
        Err(message) => {
            eprintln!("ledger: {message}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metrics::{Better, END_TO_END, PER_LAYER};

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
    }

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repo root");
        Json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn listed(file: &Json, key: &str) -> Vec<String> {
        let Some(Json::Arr(items)) = file.get(key) else {
            panic!("BENCHMARK.json has no `{key}` list");
        };
        items
            .iter()
            .map(|item| item.get("name").and_then(Json::as_str).unwrap().to_string())
            .collect()
    }

    /// `BENCHMARK.json` as the tables in this crate would write it.
    fn expected_benchmark_json(file: &Json) -> Json {
        let better = |b: Better| Json::Str(b.label().to_string());
        Json::obj([
            ("command", file.get("command").unwrap().clone()),
            ("paths", file.get("paths").unwrap().clone()),
            ("run_seconds", file.get("run_seconds").unwrap().clone()),
            (
                "workloads",
                Json::Arr(
                    Workload::ALL
                        .iter()
                        .map(|w| {
                            Json::obj([
                                ("name", Json::Str(w.name().into())),
                                ("why", Json::Str(w.why().into())),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "end_to_end",
                Json::Arr(
                    END_TO_END
                        .iter()
                        .map(|m| {
                            Json::obj([
                                ("name", Json::Str(m.name.into())),
                                ("unit", Json::Str(m.unit.into())),
                                ("better", better(m.better)),
                                ("bound", Json::Num(m.bound)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "per_layer",
                Json::Arr(
                    PER_LAYER
                        .iter()
                        .map(|m| {
                            Json::obj([
                                ("name", Json::Str(m.name.into())),
                                ("unit", Json::Str(m.unit.into())),
                                ("better", better(m.better)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    #[test]
    fn benchmark_json_matches_the_tables() {
        let file = benchmark_json();
        let expected = expected_benchmark_json(&file);
        assert_eq!(
            file,
            expected,
            "BENCHMARK.json is out of step with metrics.rs/workloads.rs; expected:\n{}",
            expected.render()
        );
        for w in Workload::ALL {
            assert!(valid_name(w.name()) && w.why().len() <= 200 && !w.why().contains('\n'));
        }
        for (name, unit) in END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        {
            assert!(valid_name(name), "{name}");
            assert!(!unit.is_empty() && unit.len() <= 16, "{name}: unit {unit}");
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
    }

    /// Every workload, shrunk to 32 instances, completes, passes its
    /// checks and emits exactly the metric names `BENCHMARK.json` lists.
    #[test]
    fn small_workloads_emit_exactly_the_listed_metrics() {
        let file = benchmark_json();
        for (traced, key) in [(false, "end_to_end"), (true, "per_layer")] {
            let names = listed(&file, key);
            for w in Workload::ALL {
                let report = if traced {
                    trace::run(w, 7, 0.05, 32)
                } else {
                    e2e::run(w, 7, 0.05, 32)
                };
                assert!(
                    report.correct(),
                    "{} failed: {:?}",
                    w.name(),
                    report.failures
                );
                assert!(report.attempted >= 32 * 6);
                let emitted: Vec<&str> = report.values.iter().map(|(n, _)| *n).collect();
                assert_eq!(emitted, names, "{} {key}", w.name());
                assert!(
                    report.values.iter().all(|(_, v)| v.is_finite()),
                    "{}: {:?}",
                    w.name(),
                    report.values
                );
                if !traced {
                    assert!(
                        report.values.iter().all(|(_, v)| *v > 0.0),
                        "{}: an end-to-end metric is 0: {:?}",
                        w.name(),
                        report.values
                    );
                }
            }
        }
    }

    #[test]
    fn a_second_seed_gives_other_inputs_and_still_passes() {
        let a = e2e::run(Workload::ClosedApps, 1, 0.01, 32);
        let b = e2e::run(Workload::ClosedApps, 2, 0.01, 32);
        assert!(a.correct() && b.correct());
        let makespan = |r: &Report| {
            r.values
                .iter()
                .find(|(n, _)| *n == "virtual_makespan_ms")
                .unwrap()
                .1
        };
        assert_ne!(makespan(&a), makespan(&b));
    }

    #[test]
    fn flags_parse_and_reject() {
        let args: Vec<String> = ["--workload", "wave", "--seed", "3"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let parsed_flags = flags(&args).unwrap();
        assert_eq!(parsed::<u64>(&parsed_flags, "seed", None), Ok(3));
        assert!(parsed::<u64>(&parsed_flags, "seconds", None).is_err());
        assert_eq!(parsed::<u64>(&parsed_flags, "seconds", Some(8)), Ok(8));
        assert!(flags(&args[..3]).is_err());
        assert!(flags(&["stray".to_string()]).is_err());
    }
}
