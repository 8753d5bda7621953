//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a human-readable report and the run's full record on standard
//! error, and the result object as the last line of standard output. Exits
//! 1 when a correctness check fails, 2 on a usage error.

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match perfbench::parse_args(&argv) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}\n{}", perfbench::USAGE);
            std::process::exit(2);
        }
    };
    let ticks_before = perfbench::cpu_ticks();
    let outcome = perfbench::run(&args);
    let steal_share = ticks_before
        .zip(perfbench::cpu_ticks())
        .map(|((s0, t0), (s1, t1))| (s1 - s0) as f64 / (t1 - t0).max(1) as f64);
    for failure in &outcome.gate_failures {
        eprintln!("perfbench: correctness check failed: {failure}");
    }
    eprintln!(
        "record {}",
        perfbench::record_json(&args, &outcome, steal_share)
    );
    println!("{}", outcome.result_json(args.trace));
    if !outcome.correct() {
        std::process::exit(1);
    }
}
