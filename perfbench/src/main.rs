//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints context lines, one `name value unit` line per metric, and as
//! its last line the JSON result. Exits 0 only if every check passed.

use perfbench::report::Report;
use perfbench::{Options, Sizes, Workload};
use std::process::{Command, ExitCode};

const USAGE: &str =
    "usage: perfbench --workload <mul_solo_o3|mul_batch64_o3|serve_zkevm> --seed <n> --seconds <s> --trace <0|1>";

fn parse(args: &[String]) -> Result<(Options, bool), String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut setup_only) =
        (None, None, None, None, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--setup-only" {
            setup_only = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<u32>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=600).contains(&s) {
                    return Err("--seconds must be 1..=600".into());
                }
                seconds = Some(f64::from(s));
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let opts = Options {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        sizes: Sizes::full(),
    };
    Ok((opts, setup_only))
}

/// Refuses configurations whose timings would mislead.
fn guard() -> Result<(), String> {
    if cfg!(debug_assertions) {
        return Err("refusing to time an unoptimized build; build with --release".into());
    }
    if std::env::var_os("CIM_XBAR_BACKEND").is_some() {
        return Err(
            "refusing to run with CIM_XBAR_BACKEND set: the scalar backend is ~20x slower".into(),
        );
    }
    Ok(())
}

/// One cold set-up in a fresh process, which `Command::output` waits
/// for; returns its set-up time in seconds.
fn child_setup(args: &[String]) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(args)
        .arg("--setup-only")
        .output()
        .map_err(|e| format!("spawning set-up probe: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    text.trim()
        .parse::<f64>()
        .ok()
        .filter(|_| out.status.success())
        .ok_or_else(|| {
            format!(
                "set-up probe failed: {}",
                String::from_utf8_lossy(&out.stderr)
            )
        })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (opts, setup_only) = match parse(&args).and_then(|p| guard().map(|()| p)) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if setup_only {
        let mut report = Report::default();
        let setup_s = perfbench::setup_only(&opts, &mut report);
        println!("{setup_s}");
        return if report.correct() {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }

    let report = perfbench::run(&opts, &mut || child_setup(&args));

    let parallelism = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "# workload={} seed={} seconds={} trace={} available_parallelism={parallelism} rustc=\"{}\"",
        opts.workload.name(),
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        env!("PERFBENCH_RUSTC_VERSION"),
    );
    for line in &report.notes {
        println!("# {line}");
    }
    for m in &report.metrics {
        println!("{} {} {}", m.name, m.value, m.unit);
    }
    println!("{}", report.json_line());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
