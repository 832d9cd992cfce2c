//! `hsbench` — the repository benchmark (see `README.md`).
//!
//! ```text
//! cargo run --release --manifest-path hsbench/Cargo.toml -- \
//!     --workload prune-headstart --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Prints a detail line (host fingerprint, checks, raw samples) and then,
//! as the last line, `{"correct", "attempted", "failed", "metrics"}`.
//! Exits non-zero when any operation or output check failed.

mod calib;
mod host;
mod json;
mod metrics;
mod stats;
mod trace;
mod workloads;

use std::process::ExitCode;

use hs_telemetry::{Level, TelemetryConfig};

use crate::json::Json;
use crate::metrics::{per_layer, END_TO_END};
use crate::workloads::{Outcome, Plan, Workload};

const USAGE: &str = "usage: hsbench --workload prune-headstart|infer \
                     --seed N --seconds S --trace 0|1";

#[derive(Debug, PartialEq)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("{flag}: bad value `{value}`");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad())?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(bad());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The metrics a mode reports, with their units, in output order.
fn declared(trace: bool) -> Vec<(String, &'static str)> {
    if trace {
        per_layer().into_iter().map(|(n, u, _)| (n, u)).collect()
    } else {
        END_TO_END
            .iter()
            .map(|m| (m.name.to_string(), m.unit))
            .collect()
    }
}

/// Puts the reported metrics in declared order, and fails the run when
/// they are not exactly the declared set, each with a finite value.
fn check_metric_set(out: &mut Outcome, want: &[(String, &str)], trace: bool) {
    out.metrics
        .sort_by_key(|(n, _)| want.iter().position(|(w, _)| w == n).unwrap_or(usize::MAX));
    let got: Vec<&String> = out.metrics.iter().map(|(n, _)| n).collect();
    let complete = want.len() == got.len() && want.iter().zip(&got).all(|((w, _), g)| w == *g);
    let bad: Vec<&String> = out
        .metrics
        .iter()
        .filter(|(_, v)| !v.is_finite() || (!trace && *v <= 0.0))
        .map(|(n, _)| n)
        .collect();
    let ok = complete && bad.is_empty();
    if !ok {
        out.failed += 1;
    }
    out.checks.push(workloads::Check {
        name: "metrics_complete",
        ok,
        detail: format!(
            "{} of {} declared metrics reported; non-finite or non-positive: {bad:?}",
            got.len(),
            want.len()
        ),
    });
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("hsbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    host::cap_pool_threads();
    if let Err(e) = hs_telemetry::configure(&TelemetryConfig {
        stderr_level: Some(Level::Warn),
        jsonl: None,
    }) {
        eprintln!("hsbench: telemetry: {e}");
        return ExitCode::FAILURE;
    }

    let plan = Plan::full(args.seconds);
    let mut out = workloads::run(args.workload, args.seed, &plan, args.trace);
    let want = declared(args.trace);
    check_metric_set(&mut out, &want, args.trace);

    let metrics = Json::Obj(
        out.metrics
            .iter()
            .map(|(name, value)| {
                let unit = want.iter().find(|(n, _)| n == name).map_or("", |(_, u)| u);
                (
                    name.clone(),
                    Json::obj([
                        ("value", Json::Num(*value)),
                        ("unit", Json::Str(unit.to_string())),
                    ]),
                )
            })
            .collect(),
    );
    let checks = Json::Arr(
        out.checks
            .iter()
            .map(|c| {
                Json::obj([
                    ("name", Json::Str(c.name.into())),
                    ("ok", Json::Bool(c.ok)),
                    ("detail", Json::Str(c.detail.clone())),
                ])
            })
            .collect(),
    );
    let detail = Json::obj([
        ("workload", Json::Str(args.workload.name().into())),
        ("seed", Json::Str(args.seed.to_string())),
        ("seconds", Json::Num(args.seconds)),
        ("trace", Json::Bool(args.trace)),
        ("host", host::fingerprint()),
        ("checks", checks),
        (
            "samples",
            Json::Obj(
                out.samples
                    .iter()
                    .map(|(k, v)| (k.to_string(), v.clone()))
                    .collect(),
            ),
        ),
    ]);
    println!("{}", Json::obj([("hsbench", detail)]));
    let correct = out.failed == 0;
    println!(
        "{}",
        Json::obj([
            ("correct", Json::Bool(correct)),
            ("attempted", Json::Num(out.attempted.max(1) as f64)),
            ("failed", Json::Num(out.failed as f64)),
            ("metrics", metrics),
        ])
    );
    for c in out.checks.iter().filter(|c| !c.ok) {
        eprintln!("hsbench: check {} failed: {}", c.name, c.detail);
    }
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_command_line() {
        let args = parse_args(&argv("--workload infer --seed 7 --seconds 10 --trace 1")).unwrap();
        assert_eq!(
            args,
            Args {
                workload: Workload::Infer,
                seed: 7,
                seconds: 10.0,
                trace: true
            }
        );
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload infer --seed -1 --seconds 1 --trace 0",
            "--workload infer --seed 1 --seconds -3 --trace 0",
            "--workload infer --seed 1 --seconds 1 --trace 2",
            "--workload infer --seed 1 --seconds 1",
            "--workload infer --seed 1 --seconds 1 --trace",
            "--bogus 1",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }

    /// A smoke-sized pass of every workload in both modes: every check
    /// holds and exactly the declared metrics come out.
    #[test]
    fn every_workload_passes_at_smoke_size() {
        for workload in Workload::ALL {
            for trace in [false, true] {
                let mut out = workloads::run(workload, 11, &Plan::smoke(), trace);
                check_metric_set(&mut out, &declared(trace), trace);
                let failed: Vec<_> = out.checks.iter().filter(|c| !c.ok).collect();
                assert!(
                    failed.is_empty(),
                    "{} trace={trace}: {failed:?}",
                    workload.name()
                );
                assert_eq!(out.failed, 0, "{} trace={trace}", workload.name());
                assert!(out.attempted > 0);
            }
        }
    }
}
