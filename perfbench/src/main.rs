//! `prima-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints any problems to standard error and, as the last line of
//! standard output, one JSON object with the run's result.

use prima_perfbench::result_json;
use prima_perfbench::workload::{run, Config, Sizing, Workload};
use std::process::ExitCode;

fn parse_args() -> Result<Config, String> {
    let mut cfg = Config {
        workload: Workload::ReadHot,
        seed: 1,
        seconds: 10.0,
        trace: false,
        sizing: Sizing::STANDARD,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                cfg.workload =
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?;
            }
            "--seed" => cfg.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                cfg.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                cfg.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(cfg)
}

fn main() -> ExitCode {
    let cfg = match parse_args() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("prima-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&cfg) {
        Ok(report) => {
            for p in report.problems.iter().take(20) {
                eprintln!("problem: {p}");
            }
            println!("{}", result_json(&report));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("prima-perfbench: run failed: {e}");
            ExitCode::FAILURE
        }
    }
}
