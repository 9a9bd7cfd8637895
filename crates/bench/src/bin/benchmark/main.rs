//! The repo's benchmark: one client-observed `serve` benchmark, four
//! workloads, and an outside-in stage trace. See `README.md` beside this
//! file for the command, the workloads and the metric glossary.
//!
//! ```text
//! cargo run --release --offline -p rdfsum-bench --bin benchmark -- \
//!     [--workload NAME | --all] [--seed N] [--seconds N] [--trace [0|1]] [--smoke] [--out FILE]
//! ```
//!
//! The end-to-end half spawns the real `rdfsummary serve` binary as a
//! child process and drives it over TCP; it depends on the wire protocol
//! and the CLI flags only. The per-layer half (`--trace`) replays the
//! same requests in-process through the layers' public functions.

mod build_restart;
mod check;
mod data;
mod json;
mod layers;
mod report;
mod server;
mod serving;
mod stats;
mod trace;
mod wire;

use report::{Host, Report};
use std::path::PathBuf;
use std::process::ExitCode;

/// Seconds one run measures; `BENCHMARK.json`'s `run_seconds`.
pub(crate) const DEFAULT_SECONDS: f64 = 24.0;

/// What every workload needs to know about this invocation.
pub(crate) struct Env {
    /// The release `rdfsummary` binary built from this checkout.
    pub(crate) binary: PathBuf,
    /// Scratch directory (inside the build directory) holding the
    /// generated inputs; the server runs with it as working directory.
    pub(crate) work: PathBuf,
    pub(crate) seed: u64,
    pub(crate) seconds: f64,
    pub(crate) traced: bool,
    pub(crate) smoke: bool,
}

impl Env {
    /// BSBM scale of the serving workloads.
    pub(crate) fn products(&self) -> usize {
        if self.smoke {
            200
        } else {
            2000
        }
    }

    /// BSBM scale of `build_restart`.
    pub(crate) fn build_products(&self) -> usize {
        if self.smoke {
            200
        } else {
            4000
        }
    }

    pub(crate) fn trace_file(&self, workload: &str) -> PathBuf {
        self.work
            .parent()
            .expect("work dir has a parent")
            .join(format!("trace-{workload}.json"))
    }
}

struct Args {
    workloads: Vec<&'static str>,
    seed: u64,
    seconds: Option<f64>,
    traced: bool,
    smoke: bool,
    out: Option<PathBuf>,
}

const USAGE: &str = "usage: benchmark [--workload build_restart|explore|scan|explore_update | --all] [--seed N] [--seconds N] [--trace [0|1]] [--smoke] [--out FILE]";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workloads: Vec::new(),
        seed: data::DEFAULT_SEED,
        seconds: None,
        traced: false,
        smoke: false,
        out: None,
    };
    let mut i = 0;
    let value = |i: &mut usize, flag: &str| -> Result<String, String> {
        *i += 1;
        args.get(*i)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--workload" => {
                let name = value(&mut i, "--workload")?;
                let known = report::WORKLOADS
                    .iter()
                    .map(|(n, _)| *n)
                    .find(|n| *n == name)
                    .ok_or_else(|| format!("unknown workload `{name}`\n{USAGE}"))?;
                parsed.workloads.push(known);
            }
            "--all" => parsed.workloads = report::WORKLOADS.iter().map(|(n, _)| *n).collect(),
            "--seed" => {
                let v = value(&mut i, "--seed")?;
                parsed.seed = v.parse().map_err(|_| format!("bad --seed `{v}`"))?;
            }
            "--seconds" => {
                let v = value(&mut i, "--seconds")?;
                let s: f64 = v.parse().map_err(|_| format!("bad --seconds `{v}`"))?;
                if !(1.0..=600.0).contains(&s) {
                    return Err(format!("--seconds {v} is outside 1..=600"));
                }
                parsed.seconds = Some(s);
            }
            "--trace" => {
                // The driver passes `--trace 0|1`; a bare `--trace` means 1.
                parsed.traced = match args.get(i + 1).map(String::as_str) {
                    Some("0") => {
                        i += 1;
                        false
                    }
                    Some("1") => {
                        i += 1;
                        true
                    }
                    _ => true,
                };
            }
            "--smoke" => parsed.smoke = true,
            "--out" => parsed.out = Some(PathBuf::from(value(&mut i, "--out")?)),
            "-h" | "--help" => return Err(USAGE.into()),
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
        i += 1;
    }
    if parsed.workloads.is_empty() {
        parsed.workloads = report::WORKLOADS.iter().map(|(n, _)| *n).collect();
    }
    Ok(parsed)
}

fn run(args: &Args) -> Result<Vec<Report>, String> {
    let root = server::repo_root()?;
    let binary = server::build_server_binary(&root)?;
    let scratch = server::target_dir(&root).join("benchmark-work");
    let work = scratch.join(format!("run-{}", std::process::id()));
    let mut reports = Vec::new();
    for &workload in &args.workloads {
        let _ = std::fs::remove_dir_all(&work);
        std::fs::create_dir_all(&work).map_err(|e| format!("creating {}: {e}", work.display()))?;
        let env = Env {
            binary: binary.clone(),
            work: work.clone(),
            seed: args.seed,
            seconds: args
                .seconds
                .unwrap_or(if args.smoke { 2.0 } else { DEFAULT_SECONDS }),
            traced: args.traced,
            smoke: args.smoke,
        };
        let outcome = match workload {
            "build_restart" => build_restart::run(&env),
            "explore" => serving::run(&env, serving::Shape::Explore),
            "scan" => serving::run(&env, serving::Shape::Scan),
            "explore_update" => serving::run(&env, serving::Shape::ExploreUpdate),
            _ => unreachable!("parse_args admits registered workloads only"),
        };
        let _ = std::fs::remove_dir_all(&work);
        let report = outcome.map_err(|e| format!("{workload}: {e}"))?;
        print!("{}", report.table());
        reports.push(report);
    }
    if let Some(out) = &args.out {
        let doc = report::document(&Host::probe(&root), &reports);
        std::fs::write(out, doc).map_err(|e| format!("writing {}: {e}", out.display()))?;
    }
    Ok(reports)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(reports) => {
            // The contract's result line(s) come last: one per workload.
            for r in &reports {
                println!("{}", r.contract_line());
            }
            if reports.iter().all(Report::correct) {
                ExitCode::SUCCESS
            } else {
                eprintln!("benchmark: a check failed (see FAILED lines above)");
                ExitCode::FAILURE
            }
        }
        Err(msg) => {
            eprintln!("benchmark: {msg}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(&s.split_whitespace().map(str::to_string).collect::<Vec<_>>())
    }

    #[test]
    fn accepts_the_driver_s_and_the_human_s_command_lines() {
        let a = args("--workload scan --seed 7 --seconds 12 --trace 0").unwrap();
        assert_eq!(
            (a.workloads, a.seed, a.seconds, a.traced),
            (vec!["scan"], 7, Some(12.0), false)
        );
        let a = args("--workload explore --trace 1 --seed 9").unwrap();
        assert!(a.traced && a.seed == 9);
        let a = args("--all --trace --smoke --out x.json").unwrap();
        assert_eq!(a.workloads.len(), 4);
        assert!(a.traced && a.smoke && a.out.is_some() && a.seed == data::DEFAULT_SEED);
        assert_eq!(args("").unwrap().workloads.len(), 4);
        for bad in [
            "--workload nope",
            "--seed x",
            "--seconds 0",
            "--frobnicate",
            "--workload",
        ] {
            assert!(args(bad).is_err(), "{bad}");
        }
    }
}
