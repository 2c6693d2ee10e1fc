//! Runs one experiment (E1–E10), or all of them in order, at the requested
//! scale and prints the tables — the single command that regenerates every
//! experiment's numbers.
//!
//! Usage: `cargo run --release -p geogossip-bench --bin all_experiments -- [e1..e10] [smoke|quick|full] [seed]`
//!
//! Without an id every experiment runs. An unknown id or scale exits
//! non-zero with the usage line on stderr.

use geogossip_bench::experiments::{Invocation, USAGE};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let invocation = Invocation::parse(&args).unwrap_or_else(|err| {
        eprintln!("all_experiments: {err}\n{USAGE}");
        std::process::exit(2);
    });
    for (_, run) in invocation.experiments {
        println!("{}", run(invocation.scale, invocation.seed).render());
    }
}
