//! The command line.

use std::path::PathBuf;

use crate::outcome::RunOptions;
use crate::workloads::Workload;

/// Usage text.
pub const USAGE: &str = "\
legaliot-benchmark — paced end-to-end enforcement benchmark

  <no --workload>                     run all four workloads, each in its own child process
      [--seed N] [--seconds S] [--traced] [--smoke] [--out FILE] [--dir DIR] [--out-dir DIR]
  --workload NAME --seed N --seconds S --trace 0|1
                                      run one workload; last stdout line is the result object
      [--smoke] [--dir DIR] [--out-dir DIR]
  --compare A.json B.json             judge B against A with the per-metric bounds
  --print-benchmark-json              print the contents of BENCHMARK.json

workloads: home_steady fleet_churn home_durable bus_inline";

/// What the command line asked for.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Run one workload in this process.
    One {
        /// Which.
        workload: Workload,
        /// Shared options.
        options: RunOptions,
    },
    /// Run every workload, each in a child process.
    Suite {
        /// Shared options.
        options: RunOptions,
        /// Where the combined document goes (default: `<out-dir>/suite-<seed>.json`).
        out: Option<PathBuf>,
    },
    /// Compare two suite documents.
    Compare(PathBuf, PathBuf),
    /// Print the catalogue as `BENCHMARK.json`.
    PrintBenchmarkJson,
    /// Print the usage text.
    Help,
}

/// Parses the arguments after the program name.
///
/// # Errors
///
/// A one-line description of the first argument that cannot be understood.
pub fn parse(args: &[String]) -> Result<Command, String> {
    let mut options = RunOptions::default();
    let mut workload = None;
    let mut out = None;
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        let mut value =
            |what: &str| args.next().cloned().ok_or_else(|| format!("{flag} needs {what}"));
        match flag.as_str() {
            "--help" | "-h" => return Ok(Command::Help),
            "--print-benchmark-json" => return Ok(Command::PrintBenchmarkJson),
            "--compare" => {
                return Ok(Command::Compare(
                    value("two files")?.into(),
                    value("two files")?.into(),
                ));
            }
            "--workload" => {
                let name = value("a workload name")?;
                workload = Some(
                    Workload::named(&name).ok_or_else(|| format!("unknown workload `{name}`"))?,
                );
            }
            "--seed" => {
                options.seed = value("a number")?.parse().map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                options.seconds =
                    value("a number")?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(options.seconds > 0.0 && options.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            "--trace" => {
                options.traced = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--traced" => options.traced = true,
            "--smoke" => options.smoke = true,
            "--inject-corruption" => options.inject_corruption = true,
            "--dir" => options.durable_dir = value("a directory")?.into(),
            "--out-dir" => options.out_dir = value("a directory")?.into(),
            "--out" => out = Some(PathBuf::from(value("a file")?)),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(match workload {
        Some(workload) => Command::One { workload, options },
        None => Command::Suite { options, out },
    })
}
