//! Sharded-serving benchmark: a zipf pair workload through the
//! [`er_shard::ShardedService`] front door at 1, 2 and 4 shards.
//!
//! Before any timing, the intra-shard contract is asserted: routed answers
//! for pairs whose endpoints share a shard must be **bit-identical** to an
//! unsharded `ResistanceService` over the same induced subgraph. Timing
//! then measures end-to-end pairs/sec per shard count on fresh services
//! (cold caches), with the number of cross-shard pairs alongside — each of
//! those is an exact solve on the full graph.
//!
//! `BENCH_shard.json` (current directory — the repo root in CI) is an
//! **append-only trajectory** keyed by git SHA, exactly like
//! `BENCH_service.json`; `scripts/bench_diff.py` diffs the newest two
//! entries, including the headline metric `shard_pairs_per_sec_4`.
//!
//! Run with `cargo run --release -p er-bench --bin shard_scale
//! [--quick] [--seed N]`.

use er_bench::args::BenchArgs;
use er_bench::trajectory::{append_to_trajectory, git_sha};
use er_core::ApproxConfig;
use er_graph::transform::induced_subgraph;
use er_graph::{generators, Graph};
use er_service::{Accuracy, Query, Request, ResistanceService};
use er_shard::{ShardConfig, ShardedService};
use std::collections::HashSet;
use std::time::Instant;

/// One SplitMix64 step (the workspace's seeding primitive).
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Zipf(1) rank sampler via inverse CDF, as in the other serving benches:
/// a few popular nodes soak up most of the traffic.
struct ZipfNodes {
    cumulative: Vec<f64>,
}

impl ZipfNodes {
    fn new(n: usize) -> ZipfNodes {
        let mut cumulative = Vec::with_capacity(n);
        let mut total = 0.0f64;
        for rank in 0..n {
            total += 1.0 / (rank as f64 + 1.0);
            cumulative.push(total);
        }
        ZipfNodes { cumulative }
    }

    fn draw(&self, state: &mut u64) -> usize {
        let total = *self.cumulative.last().expect("non-empty graph");
        let u = (splitmix(state) >> 11) as f64 / (1u64 << 53) as f64 * total;
        self.cumulative.partition_point(|&c| c < u)
    }
}

/// `count` distinct pairs with zipf-skewed endpoints spread over the graph.
fn build_pairs(graph: &Graph, count: usize, seed: u64) -> Vec<(usize, usize)> {
    let n = graph.num_nodes();
    let zipf = ZipfNodes::new(n);
    // Spread ranks over the node-id space so popularity is not correlated
    // with the partitioner's shard layout.
    let spread: Vec<usize> = (0..n).map(|rank| (rank * 31 + 17) % n).collect();
    let mut state = seed | 1;
    let mut seen: HashSet<(usize, usize)> = HashSet::new();
    let mut pairs = Vec::with_capacity(count);
    while pairs.len() < count {
        let s = spread[zipf.draw(&mut state)];
        let t = spread[zipf.draw(&mut state)];
        if s == t || !seen.insert((s.min(t), s.max(t))) {
            continue;
        }
        pairs.push((s, t));
    }
    pairs
}

/// Asserts the intra-shard contract for one shard count: routed answers are
/// bit-identical to an unsharded service over the same induced subgraph.
/// Returns the number of pairs checked.
fn assert_intra_bit_identity(
    graph: &Graph,
    shards: usize,
    approx: ApproxConfig,
    accuracy: Accuracy,
    pairs: &[(usize, usize)],
    cap: usize,
) -> usize {
    let sharded = ShardedService::build(graph, ShardConfig::with_shards(shards), approx)
        .expect("sharded build");
    let router = sharded.router();
    let partition = sharded.partition().clone();
    let mut checked = 0;
    for p in 0..partition.num_parts {
        let nodes = partition.part_nodes(p);
        let (subgraph, map) = induced_subgraph(graph, &nodes).expect("induced subgraph");
        let reference = ResistanceService::with_config(&subgraph, approx).expect("reference");
        for &(s, t) in pairs {
            if checked >= cap * partition.num_parts {
                break;
            }
            if router.shard_of(s) != p || router.shard_of(t) != p {
                continue;
            }
            let routed = sharded
                .submit(&Request::new(Query::pair(s, t)).with_accuracy(accuracy))
                .expect("routed pair");
            assert_eq!(routed.backend, "SHARD");
            let (ls, lt) = (map.local_of(s).unwrap(), map.local_of(t).unwrap());
            let direct = reference
                .submit(&Request::new(Query::pair(ls, lt)).with_accuracy(accuracy))
                .expect("reference pair");
            assert_eq!(
                routed.value().to_bits(),
                direct.value().to_bits(),
                "intra-shard pair ({s}, {t}) diverged from the unsharded service at k = {shards}"
            );
            checked += 1;
        }
    }
    checked
}

struct ShardResult {
    shards: usize,
    pairs: usize,
    secs: f64,
    /// Cross-shard pairs of the workload (each escalated to an exact solve).
    cross_pairs: u64,
}

impl ShardResult {
    fn pairs_per_sec(&self) -> f64 {
        self.pairs as f64 / self.secs
    }
    fn json(&self) -> String {
        format!(
            "    {{\n      \"name\": \"shard_{}\",\n      \"pairs\": {},\n      \
             \"throughput\": {{\"pairs_per_sec\": {:.1}}},\n      \
             \"cross_shard\": {{\"pairs\": {}}}\n    }}",
            self.shards,
            self.pairs,
            self.pairs_per_sec(),
            self.cross_pairs
        )
    }
}

fn main() {
    let args = BenchArgs::from_env();
    let (nodes, count, reps) = if args.quick {
        (400usize, 64usize, 2usize)
    } else {
        (900, 160, 3)
    };
    eprintln!("generating watts_strogatz({nodes}, 6, 0.1) ...");
    let graph = generators::watts_strogatz(nodes, 6, 0.1, 9).expect("generator");
    let pairs = build_pairs(&graph, count, args.seed);
    eprintln!(
        "graph: n = {}, m = {}, pairs = {}, quick = {}",
        graph.num_nodes(),
        graph.num_edges(),
        pairs.len(),
        args.quick
    );
    let approx = ApproxConfig {
        epsilon: 0.2,
        seed: args.seed,
        threads: args.threads,
        ..ApproxConfig::default()
    };
    let accuracy = Accuracy::Epsilon {
        eps: approx.epsilon,
        delta: approx.delta,
    };
    let shard_counts = [1usize, 2, 4];

    // The contract gate, before any timing: intra-shard routing must be
    // invisible (bit-identical to the unsharded service per subgraph).
    let mut bit_identical = true;
    for &k in &shard_counts[1..] {
        let checked = assert_intra_bit_identity(&graph, k, approx, accuracy, &pairs, 12);
        eprintln!("verified: {checked} intra-shard pairs bit-identical at k = {k}");
        bit_identical &= checked > 0;
    }

    let mut results = Vec::new();
    for &k in &shard_counts {
        // Fresh services per rep: cold caches, so pairs/sec measures the
        // serving plane, not the facade cache.
        let mut best = f64::INFINITY;
        let mut cross_pairs = 0u64;
        for rep in 0..reps {
            let sharded = ShardedService::build(&graph, ShardConfig::with_shards(k), approx)
                .expect("sharded build");
            let start = Instant::now();
            for &(s, t) in &pairs {
                sharded
                    .submit(&Request::new(Query::pair(s, t)).with_accuracy(accuracy))
                    .expect("routed pair");
            }
            best = best.min(start.elapsed().as_secs_f64());
            if rep == 0 {
                cross_pairs = sharded.router().stats().escalated;
            }
        }
        eprintln!(
            "k = {k}: {:.1} pairs/sec, {cross_pairs} cross-shard",
            pairs.len() as f64 / best
        );
        results.push(ShardResult {
            shards: k,
            pairs: pairs.len(),
            secs: best,
            cross_pairs,
        });
    }

    println!(
        "{:<12} {:>10} {:>16} {:>12}",
        "shards", "pairs", "pairs/sec", "cross-shard"
    );
    for r in &results {
        println!(
            "{:<12} {:>10} {:>16.1} {:>12}",
            r.shards,
            r.pairs,
            r.pairs_per_sec(),
            r.cross_pairs
        );
    }

    let created = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let sha = git_sha();
    let metrics: Vec<String> = results
        .iter()
        .map(|r| {
            format!(
                "\"shard_pairs_per_sec_{}\": {:.1}",
                r.shards,
                r.pairs_per_sec()
            )
        })
        .collect();
    let entry = format!(
        "{{\n  \"bench\": \"shard_scale\",\n  \"git_sha\": \"{sha}\",\n  \
         \"created_unix\": {created},\n  \
         \"quick\": {},\n  \"seed\": {},\n  \
         \"graph\": {{\"model\": \"watts_strogatz\", \"nodes\": {}, \"edges\": {}}},\n  \
         \"workload\": {{\"pairs\": {}, \"epsilon\": {}, \"skew\": \"zipf1_spread\"}},\n  \
         \"determinism\": {{\"checked\": \"sharded_vs_unsharded_intra\", \
         \"bit_identical\": {bit_identical}}},\n  \
         \"metrics\": {{{}}},\n  \
         \"workloads\": [\n{}\n  ]\n}}",
        args.quick,
        args.seed,
        graph.num_nodes(),
        graph.num_edges(),
        pairs.len(),
        approx.epsilon,
        metrics.join(", "),
        results
            .iter()
            .map(|r| r.json())
            .collect::<Vec<_>>()
            .join(",\n")
    );
    let path = "BENCH_shard.json";
    let total = append_to_trajectory(path, &entry, &sha);
    println!("appended entry {sha} to {path} ({total} entries in the trajectory)");
}
