//! `locmps-perfbench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Runs one workload and prints, as the last line of standard output, one
//! JSON object `{"correct", "attempted", "failed", "metrics"}`: every
//! end-to-end metric with `--trace 0`, every per-layer metric with
//! `--trace 1`. Exits non-zero when any output is incorrect.
//!
//! The measurement runs in a child process whose standard error (where
//! the in-process daemon logs every request) goes to a file under
//! `.perfbench/`, off the timed path; the parent relays the child's
//! standard output and exit status.

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use locmps_perfbench::{inputs, run_traced, run_untraced, stats, WORKLOADS};

const CHILD_ENV: &str = "LOCMPS_PERFBENCH_CHILD";
const WORK_DIR: &str = ".perfbench";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: inputs::DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    if !(args.seconds > 0.0 && args.seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".into());
    }
    Ok(args)
}

/// The measuring child: runs the workload and prints the report.
fn child(args: &Args) -> ExitCode {
    let work = PathBuf::from(WORK_DIR).join(format!("run-{}", std::process::id()));
    std::fs::create_dir_all(&work).expect("create work directory");
    println!(
        "# perfbench workload={} seed={} seconds={} trace={}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    println!("# {}", stats::header());
    let outcome = if args.trace {
        let spans =
            PathBuf::from(WORK_DIR).join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
        run_traced(&args.workload, args.seed, &work, &spans)
    } else {
        run_untraced(&args.workload, args.seed, args.seconds, &work)
    };
    let _ = std::fs::remove_dir_all(&work);
    for note in &outcome.notes {
        println!("# {note}");
    }
    for e in &outcome.errors {
        println!("# INCORRECT: {e}");
    }
    print!("{}", outcome.metrics.render_table());
    let correct = outcome.errors.is_empty() && outcome.failed == 0;
    println!(
        "{}",
        outcome
            .metrics
            .result_line(correct, outcome.attempted, outcome.failed)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: locmps-perfbench --workload {} --seed N --seconds S --trace 0|1",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    if std::env::var_os(CHILD_ENV).is_some() {
        return child(&args);
    }
    std::fs::create_dir_all(WORK_DIR).expect("create .perfbench");
    let log = PathBuf::from(WORK_DIR).join(format!("stderr-{}-{}.log", args.workload, args.seed));
    let status = Command::new(std::env::current_exe().expect("own executable"))
        .args(std::env::args().skip(1))
        .env(CHILD_ENV, "1")
        .stdout(Stdio::inherit())
        .stderr(std::fs::File::create(&log).expect("create stderr log"))
        .status()
        .expect("start measuring child");
    if status.success() {
        let _ = std::fs::remove_file(&log);
        return ExitCode::SUCCESS;
    }
    let text = std::fs::read_to_string(&log).unwrap_or_default();
    let tail: Vec<&str> = text
        .lines()
        .rev()
        .filter(|l| !l.contains("\"at\":\"locmps-serve\""))
        .take(20)
        .collect();
    for line in tail.into_iter().rev() {
        eprintln!("{line}");
    }
    eprintln!(
        "measuring child failed ({status}); its standard error is in {}",
        log.display()
    );
    ExitCode::FAILURE
}
