//! The benchmark's own tests: every workload runs at a tiny size through
//! the same code, inputs repeat per seed, the printed metric names match
//! `BENCHMARK.json`, and a failing correctness gate exits non-zero.

use er_http::json::Json;
use perfbench::metrics::{END_TO_END, PER_LAYER};
use perfbench::workloads::{self, Ctx, Scale, WORKLOADS};
use std::process::{Command, Output};

fn run(workload: &str, trace: bool, extra: &[&str]) -> Output {
    run_for(workload, "0.2", trace, extra)
}

fn run_for(workload: &str, seconds: &str, trace: bool, extra: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "5",
            "--seconds",
            seconds,
            "--scale",
            "tiny",
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(extra)
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("perfbench runs")
}

fn result(output: &Output) -> Json {
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().expect("a result line");
    Json::parse(last).expect("the result line is JSON")
}

fn metric_names(result: &Json) -> Vec<String> {
    match result.get("metrics") {
        Some(Json::Object(fields)) => fields.iter().map(|(k, _)| k.clone()).collect(),
        other => panic!("metrics is not an object: {other:?}"),
    }
}

fn check_run(workload: &str, trace: bool) {
    check_run_for(workload, "0.2", trace);
}

fn check_run_for(workload: &str, seconds: &str, trace: bool) {
    let output = run_for(workload, seconds, trace, &[]);
    assert!(
        output.status.success(),
        "{workload} (trace {trace}) failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let result = result(&output);
    assert_eq!(result.get("correct").and_then(Json::as_bool), Some(true));
    assert_eq!(result.get("failed").and_then(Json::as_u64), Some(0));
    assert!(result.get("attempted").and_then(Json::as_u64).unwrap_or(0) >= 1);
    let catalogue = if trace { PER_LAYER } else { END_TO_END };
    let expected: Vec<String> = catalogue.iter().map(|d| d.name.to_string()).collect();
    assert_eq!(metric_names(&result), expected);
    if !trace {
        for name in &expected {
            let value = result
                .get("metrics")
                .and_then(|m| m.get(name))
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64)
                .expect("a numeric value");
            assert!(
                value > 0.0,
                "{workload}: end-to-end metric {name} is {value}"
            );
        }
    }
}

#[test]
fn geer_pairs_runs_tiny() {
    check_run("geer_pairs", false);
    check_run("geer_pairs", true);
}

#[test]
fn http_zipf_runs_tiny() {
    check_run("http_zipf", false);
    check_run("http_zipf", true);
}

#[test]
fn dynamic_mixed_runs_tiny() {
    check_run("dynamic_mixed", false);
    check_run("dynamic_mixed", true);
}

/// Enough bursts to join every pair of resident sources several times over
/// if inserted edges were never deleted.
#[test]
fn dynamic_mixed_runs_many_bursts_tiny() {
    check_run_for("dynamic_mixed", "8", false);
}

#[test]
fn dynamic_mixed_keeps_the_inserted_edges_bounded() {
    let c = ctx(6);
    let p = workloads::dynamic_mixed::params(&c);
    let resident = workloads::dynamic_mixed::resident(&p);
    let pairs = resident.len() * (resident.len() - 1) / 2;
    let base = workloads::dynamic_mixed::graph(&c);
    let mut edges: std::collections::BTreeSet<(usize, usize)> = Default::default();
    let mut s = workloads::dynamic_mixed::Stream::new(&c, &p);
    for _ in 0..10 * pairs {
        for step in s.burst(|u, v| base.has_edge(u, v) || edges.contains(&(u.min(v), u.max(v)))) {
            match step {
                workloads::dynamic_mixed::Step::Insert(u, v) => assert!(edges.insert((u, v))),
                workloads::dynamic_mixed::Step::Remove(u, v) => assert!(edges.remove(&(u, v))),
                workloads::dynamic_mixed::Step::Read(..) => panic!("a burst reads"),
            }
        }
        assert_eq!(edges.len(), workloads::dynamic_mixed::INSERTS_PER_BURST);
    }
}

#[test]
fn shard_cg_runs_tiny() {
    check_run("shard_cg", false);
    check_run("shard_cg", true);
}

#[test]
fn a_failing_correctness_gate_exits_non_zero() {
    for workload in WORKLOADS {
        let output = run(workload, false, &["--corrupt-reference"]);
        assert_eq!(
            output.status.code(),
            Some(1),
            "{workload} must fail its gate"
        );
        let result = result(&output);
        assert_eq!(result.get("correct").and_then(Json::as_bool), Some(false));
        assert!(result.get("failed").and_then(Json::as_u64).unwrap_or(0) > 0);
    }
}

#[test]
fn usage_errors_exit_with_code_2() {
    let output = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("perfbench runs");
    assert_eq!(output.status.code(), Some(2));
    assert!(output.stdout.is_empty());
}

fn ctx(seed: u64) -> Ctx {
    Ctx {
        seed,
        seconds: 1.0,
        trace: false,
        scale: Scale::Tiny,
        corrupt_reference: false,
    }
}

#[test]
fn inputs_repeat_per_seed_and_change_with_it() {
    let (g1, p1) = workloads::geer_pairs::inputs(&ctx(3), 64);
    let (g2, p2) = workloads::geer_pairs::inputs(&ctx(3), 64);
    let (g3, p3) = workloads::geer_pairs::inputs(&ctx(4), 64);
    // The graph is the workload's fixed canonical graph; the seed varies
    // the requests.
    assert_eq!(
        g1.edges().collect::<Vec<_>>(),
        g2.edges().collect::<Vec<_>>()
    );
    assert_eq!(
        g1.edges().collect::<Vec<_>>(),
        g3.edges().collect::<Vec<_>>()
    );
    assert_eq!(p1, p2);
    assert_ne!(p1, p3);

    let ws = |seed| {
        workloads::shard_cg::graph(&ctx(seed))
            .edges()
            .collect::<Vec<_>>()
    };
    assert_eq!(ws(3), ws(4));

    let mix = |seed| {
        let c = ctx(seed);
        let nodes = workloads::canonical_ba(&c).num_nodes();
        let mut mix =
            workloads::http_zipf::PairMix::new(&c, &workloads::http_zipf::params(&c), nodes);
        (0..64).map(|_| mix.draw()).collect::<Vec<_>>()
    };
    assert_eq!(mix(3), mix(3));
    assert_ne!(mix(3), mix(4));

    let stream = |seed| {
        let c = ctx(seed);
        let p = workloads::dynamic_mixed::params(&c);
        let graph = workloads::dynamic_mixed::graph(&c);
        let mut s = workloads::dynamic_mixed::Stream::new(&c, &p);
        let mut steps = s.burst(|u, v| graph.has_edge(u, v));
        steps.extend(s.reads());
        steps
    };
    assert_eq!(stream(3), stream(3));
    assert_ne!(stream(3), stream(4));
}

#[test]
fn benchmark_json_lists_the_catalogue() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let doc = Json::parse(&text).expect("BENCHMARK.json parses");
    let listed = |key: &str| -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Json::as_array)
            .expect("a metric list")
            .iter()
            .map(|m| {
                (
                    m.get("name")
                        .and_then(Json::as_str)
                        .expect("name")
                        .to_string(),
                    m.get("unit")
                        .and_then(Json::as_str)
                        .expect("unit")
                        .to_string(),
                )
            })
            .collect()
    };
    let ours = |defs: &[perfbench::metrics::MetricDef]| -> Vec<(String, String)> {
        defs.iter()
            .map(|d| (d.name.to_string(), d.unit.to_string()))
            .collect()
    };
    assert_eq!(listed("end_to_end"), ours(END_TO_END));
    assert_eq!(listed("per_layer"), ours(PER_LAYER));
    let workloads: Vec<&str> = doc
        .get("workloads")
        .and_then(Json::as_array)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
        .collect();
    assert_eq!(workloads, WORKLOADS);
}
