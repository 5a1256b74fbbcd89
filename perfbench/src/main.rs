//! Host wall-clock benchmark of the GPUReplay stack.
//!
//! `perfbench --workload <cold-start|warm-infer|service-mix> --seed <n>
//! --seconds <s> --trace <0|1>` records the workload's models, precomputes
//! CPU reference outputs for a seeded input pool, runs a closed loop for
//! `--seconds`, checks every output bit for bit against
//! `gr_mlfw::cpu_ref`, and prints one JSON line last. With `--trace 0` it
//! reports the end-to-end metrics; with `--trace 1` it alternates untraced
//! and traced blocks, reports the per-layer metrics from the traced ops,
//! states the tracing overhead, and writes the spans under
//! `.perfbench_out/`. See `perfbench/README.md` for the workloads.

mod cold;
mod common;
mod layers;
mod mix;
mod trace;
mod warm;

use common::{Args, Report};

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(val),
            "--seed" => seed = Some(val.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = val.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let report: Result<Report, String> = match args.workload.as_str() {
        "cold-start" => cold::run(&args),
        "warm-infer" => warm::run(&args),
        "service-mix" => mix::run(&args),
        other => Err(format!("unknown workload '{other}'")),
    };
    match report {
        Ok(report) => {
            let ok = report.correct;
            report.print(&args);
            if !ok {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            std::process::exit(1);
        }
    }
}
