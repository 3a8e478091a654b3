//! Command line of the benchmark:
//!
//! ```text
//! perfbench --workload <extract_cold|sweep_warm|serve_warm|all> \
//!           --seed <n> --seconds <s> --trace <0|1> [--short]
//! ```
//!
//! Prints the run's sizes and every metric by name with its unit, then,
//! as the last line, one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. `all` runs each workload in a child process
//! of its own (so each reports its own peak memory) and exits non-zero
//! unless every one was correct with no failures.

use perfbench::{run, Args, Workload, END_TO_END, PER_LAYER};
use std::process::{Command, ExitCode};

const USAGE: &str = "usage: perfbench --workload <extract_cold|sweep_warm|serve_warm|all> \
                     --seed <n> --seconds <s> --trace <0|1> [--short]";

struct Cli {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    short: bool,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace, mut short) = (None, None, None, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--short" {
            short = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if value == "all" => workload = Some(None),
            "--workload" => {
                workload = Some(Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                ))
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(format!("seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Cli {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        short,
    })
}

/// Runs every workload in its own child process.
fn run_all(args: &[String]) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot locate the benchmark executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for workload in Workload::ALL {
        let mut child_args: Vec<String> = args.to_vec();
        let at = child_args
            .iter()
            .position(|a| a == "--workload")
            .expect("parsed above");
        child_args[at + 1] = workload.name().to_string();
        let output = Command::new(&exe).args(&child_args).output();
        match output {
            Ok(out) => {
                let stdout = String::from_utf8_lossy(&out.stdout);
                print!("{stdout}");
                eprint!("{}", String::from_utf8_lossy(&out.stderr));
                let last = stdout.lines().last().unwrap_or_default();
                ok &= out.status.success()
                    && last.contains("\"correct\":true")
                    && last.contains("\"failed\":0,");
            }
            Err(e) => {
                eprintln!("{}: cannot run: {e}", workload.name());
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse(&raw) {
        Ok(cli) => cli,
        Err(why) => {
            eprintln!("{why}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let Some(workload) = cli.workload else {
        return run_all(&raw);
    };
    let args = Args {
        workload,
        seed: cli.seed,
        seconds: cli.seconds,
        trace: cli.trace,
        short: cli.short,
    };
    println!(
        "perfbench {} seed={} seconds={} trace={} threads={}{}",
        workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        ssta_math::parallel::effective_threads(0),
        if args.short { " short" } else { "" }
    );
    let report = run(&args);
    for note in &report.notes {
        println!("  {note}");
    }
    println!(
        "  operations: {} attempted, {} failed",
        report.attempted, report.failed
    );
    let catalogue = if args.trace { PER_LAYER } else { END_TO_END };
    for &(name, unit) in catalogue {
        let value = report.metrics.get(name).copied().unwrap_or(f64::NAN);
        println!("  {name:<36} {value:>14.6} {unit}");
    }
    for &(name, value, unit) in &report.named {
        println!("  {}: {name:<28} {value:>14.6} {unit}", workload.name());
    }
    if let Some(path) = &report.trace_file {
        println!("  chrome trace: {}", path.display());
    }
    println!("{}", report.result_line(args.trace));
    ExitCode::SUCCESS
}
