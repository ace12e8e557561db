//! `stencil-perfbench`: the repository benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <plan-l2|plan-dram|serve-wire|ooc-stream> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. `--trace 0` measures the workload and
//! prints the end-to-end metrics; `--trace 1` prints the per-layer
//! ledger instead. Either way the last line of standard output is the
//! JSON result.

use stencil_perfbench::host::HostStamp;
use stencil_perfbench::{ledger, workloads};

const WORKLOADS: [&str; 4] = ["plan-l2", "plan-dram", "serve-wire", "ooc-stream"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {val}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = val,
            "--seed" => args.seed = val.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = val.parse().map_err(|e| bad(&e))?,
            "--trace" => args.trace = val.parse::<u8>().map_err(|e| bad(&e))? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn main() {
    let args = parse().unwrap_or_else(|e| {
        eprintln!("stencil-perfbench: {e}");
        std::process::exit(2);
    });
    let host = HostStamp::detect();
    println!(
        "stencil-perfbench {} seed {} seconds {} trace {}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    println!("{}", host.line());
    let (seed, secs) = (args.seed, args.seconds);
    let outcome = if args.trace {
        ledger::traced(&args.workload, &host, seed, secs)
    } else {
        match args.workload.as_str() {
            "plan-l2" => workloads::plan_l2(&host, seed, secs),
            "plan-dram" => workloads::plan_dram(&host, seed, secs),
            "serve-wire" => workloads::serve_wire(&host, seed, secs),
            _ => workloads::ooc_stream(&host, seed, secs),
        }
    };
    outcome.print();
    println!("{}", outcome.json());
}
