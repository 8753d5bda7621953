//! One benchmark of the effective-resistance serving path: four seeded
//! workloads, a correctness gate before timing, end-to-end metrics from runs
//! with tracing off and per-layer metrics from a separate traced run.
//! See `perfbench/README.md`.

pub mod calib;
pub mod gen;
pub mod metrics;
pub mod stats;
pub mod trace;
pub mod wire;
pub mod workloads;

use metrics::{escape, number, Outcome};
use workloads::{Ctx, Scale, WORKLOADS};

/// Parsed command line.
#[derive(Clone, Debug)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
    pub corrupt_reference: bool,
}

pub const USAGE: &str =
    "usage: perfbench --workload <geer_pairs|http_zipf|dynamic_mixed|shard_cg> \
--seed <n> --seconds <s> --trace <0|1> [--scale full|tiny] [--corrupt-reference]";

pub fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        scale: Scale::Full,
        corrupt_reference: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => parsed.workload = value()?.clone(),
            "--seed" => parsed.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                parsed.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(parsed.seconds > 0.0 && parsed.seconds.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                }
            }
            "--scale" => {
                parsed.scale = match value()?.as_str() {
                    "full" => Scale::Full,
                    "tiny" => Scale::Tiny,
                    other => return Err(format!("--scale must be full or tiny, got {other}")),
                }
            }
            "--corrupt-reference" => parsed.corrupt_reference = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !WORKLOADS.contains(&parsed.workload.as_str()) {
        return Err(format!("unknown workload \"{}\"", parsed.workload));
    }
    Ok(parsed)
}

pub fn run(args: &Args) -> Outcome {
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        scale: args.scale,
        corrupt_reference: args.corrupt_reference,
    };
    match args.workload.as_str() {
        "geer_pairs" => workloads::geer_pairs::run(&ctx),
        "http_zipf" => workloads::http_zipf::run(&ctx),
        "dynamic_mixed" => workloads::dynamic_mixed::run(&ctx),
        "shard_cg" => workloads::shard_cg::run(&ctx),
        other => unreachable!("workload {other} was validated"),
    }
}

/// The full record of a run: environment, inputs and every metric with
/// its sample count (printed to standard error).
pub fn record_json(args: &Args, outcome: &Outcome, steal_share: Option<f64>) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|(name, m)| {
            format!(
                "\"{name}\":{{\"value\":{},\"samples\":{}}}",
                number(m.value),
                m.samples
            )
        })
        .collect();
    let context: Vec<String> = outcome
        .context
        .iter()
        .map(|(k, v)| format!("\"{k}\":\"{}\"", escape(v)))
        .collect();
    let failures: Vec<String> = outcome
        .gate_failures
        .iter()
        .map(|f| format!("\"{}\"", escape(f)))
        .collect();
    format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"scale\":\"{:?}\",\
\"git_sha\":\"{}\",\"nproc\":{},\"cpu\":\"{}\",\"steal_share\":{},\"attempted\":{},\"failed\":{},\
\"failed_share\":{},\"gate_failures\":[{}],\"context\":{{{}}},\"metrics\":{{{}}}}}",
        args.workload,
        args.seed,
        number(args.seconds),
        args.trace,
        args.scale,
        escape(&git_sha()),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        escape(&cpu_model()),
        steal_share.map_or("null".to_string(), number),
        outcome.attempted,
        outcome.failed,
        number(outcome.failed as f64 / outcome.attempted.max(1) as f64),
        failures.join(","),
        context.join(","),
        metrics.join(",")
    )
}

/// Cumulative `(steal, total)` CPU ticks of the machine from `/proc/stat`,
/// where available: time a virtual machine's CPUs were runnable but not
/// running, recorded with each run to explain its noise.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    Some((*fields.get(7)?, fields.iter().take(8).sum()))
}

/// The commit being measured: `git rev-parse HEAD` when the checkout is a
/// repository, else `unknown`.
fn git_sha() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}
