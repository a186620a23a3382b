//! Entry point: see `legaliot_benchmark::cli::USAGE`.

use legaliot_benchmark::cli::{self, Command};
use legaliot_benchmark::{catalogue, compare, suite};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = cli::parse(&args).unwrap_or_else(|error| {
        eprintln!("{error}\n\n{}", cli::USAGE);
        std::process::exit(2);
    });
    let code = match command {
        Command::Help => {
            println!("{}", cli::USAGE);
            0
        }
        Command::PrintBenchmarkJson => {
            let text = serde_json::to_string_pretty(&catalogue::benchmark_json());
            println!("{}", text.expect("a value tree serialises"));
            0
        }
        Command::Compare(a, b) => {
            let load = |path: &std::path::Path| -> serde_json::Value {
                let text = std::fs::read_to_string(path).unwrap_or_else(|error| {
                    eprintln!("cannot read {}: {error}", path.display());
                    std::process::exit(2);
                });
                serde_json::from_str(&text).unwrap_or_else(|error| {
                    eprintln!("{}: {error}", path.display());
                    std::process::exit(2);
                })
            };
            let (report, any_worse) = compare::compare(&load(&a), &load(&b));
            print!("{report}");
            i32::from(any_worse)
        }
        Command::One { workload, options } => {
            refuse_unoptimised(options.smoke);
            suite::run_one(workload, &options)
        }
        Command::Suite { options, out } => {
            refuse_unoptimised(options.smoke);
            suite::run_suite(&options, out.as_deref())
        }
    };
    std::process::exit(code);
}

/// Numbers from a build with `debug_assertions` describe nothing anyone ships; only the
/// smoke run (checks, no measurement worth quoting) is allowed there.
fn refuse_unoptimised(smoke: bool) {
    if cfg!(debug_assertions) && !smoke {
        eprintln!("refusing to measure a build with debug_assertions: use `cargo run --release` (or --smoke)");
        std::process::exit(2);
    }
}
