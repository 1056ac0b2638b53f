//! Fleet-simulator benchmark binary. `run.py` builds and drives it; see
//! `fleetbench/README.md` for the workloads and metrics.
//!
//! Usage: `fleetbench <timed|traced> <workload> <seed> <seconds> <full|tiny> <spans-path>`
//!
//! Prints one JSON line: `correct`, `attempted`, `failed`, `metrics` and
//! `details`.

mod fleet;
mod reference;
mod sim;
mod timed;
mod traced;
mod util;

use fleet::{Scale, Workload};
use util::Json;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let usage =
        "usage: fleetbench <timed|traced> <workload> <seed> <seconds> <full|tiny> <spans-path>";
    if args.len() != 7 {
        eprintln!("{usage}");
        std::process::exit(2);
    }
    let workload = Workload::parse(&args[2]).unwrap_or_else(|| {
        eprintln!("unknown workload {:?}", args[2]);
        std::process::exit(2);
    });
    let (Ok(seed), Ok(seconds)) = (args[3].parse::<u64>(), args[4].parse::<f64>()) else {
        eprintln!("{usage}");
        std::process::exit(2);
    };
    let scale = match args[5].as_str() {
        "full" => Scale::Full,
        "tiny" => Scale::Tiny,
        _ => {
            eprintln!("{usage}");
            std::process::exit(2);
        }
    };
    let out = match args[1].as_str() {
        "timed" => timed::measure(workload, seed, seconds, scale),
        "traced" => traced::measure(workload, seed, scale, &args[6]),
        _ => {
            eprintln!("{usage}");
            std::process::exit(2);
        }
    };
    println!(
        "{}",
        Json::default()
            .bool("correct", out.correct)
            .int("attempted", out.attempted as u64)
            .int("failed", out.failed as u64)
            .raw("metrics", out.metrics)
            .raw("details", out.details)
            .finish()
    );
}
