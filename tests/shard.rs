//! Integration tests for the sharded serving plane: intra-shard answers
//! bit-identical to an unsharded service over the same induced subgraph (at
//! several thread counts), and cross-shard answers exact against all-pairs
//! ground truth.

use effective_resistance::graph::transform::induced_subgraph;
use effective_resistance::graph::{generators, Graph};
use effective_resistance::index::AllPairsResistance;
use effective_resistance::{
    Accuracy, ApproxConfig, Query, Request, ResistanceService, ShardConfig, ShardedService,
};

fn test_graph() -> Graph {
    generators::watts_strogatz(240, 6, 0.1, 5).unwrap()
}

fn approx_at(threads: usize) -> ApproxConfig {
    ApproxConfig::with_epsilon(0.2)
        .reseeded(7)
        .with_threads(threads)
}

#[test]
fn intra_shard_answers_are_bit_identical_to_unsharded_service() {
    let g = test_graph();
    let accuracy = Accuracy::epsilon(0.2);
    let mut per_thread_bits: Vec<Vec<u64>> = Vec::new();
    for threads in [1, 2, 8] {
        let sharded =
            ShardedService::build(&g, ShardConfig::with_shards(2), approx_at(threads)).unwrap();
        let partition = sharded.partition().clone();
        assert_eq!(partition.num_parts, 2, "both shards must be ergodic here");
        let mut bits = Vec::new();
        for p in 0..partition.num_parts {
            let nodes = partition.part_nodes(p);
            let (subgraph, map) = induced_subgraph(&g, &nodes).unwrap();
            let reference = ResistanceService::with_config(&subgraph, approx_at(threads)).unwrap();
            let n = subgraph.num_nodes();
            let local_pairs = [(0, n - 1), (1, n / 2), (n / 3, 2 * n / 3)];
            // Pair-shaped single submits.
            for &(ls, lt) in &local_pairs {
                let via_shard = sharded
                    .submit(
                        &Request::new(Query::pair(map.global_of(ls), map.global_of(lt)))
                            .with_accuracy(accuracy),
                    )
                    .unwrap();
                assert_eq!(via_shard.backend, "SHARD");
                let direct = reference
                    .submit(&Request::new(Query::pair(ls, lt)).with_accuracy(accuracy))
                    .unwrap();
                assert_eq!(
                    via_shard.value().to_bits(),
                    direct.value().to_bits(),
                    "shard {p} pair ({ls}, {lt}) at {threads} threads"
                );
                bits.push(via_shard.value().to_bits());
            }
            // A batch over the same shard (fresh services so neither side
            // answers from the caches warmed above).
            let fresh =
                ShardedService::build(&g, ShardConfig::with_shards(2), approx_at(threads)).unwrap();
            let fresh_reference =
                ResistanceService::with_config(&subgraph, approx_at(threads)).unwrap();
            let global_batch: Vec<_> = local_pairs
                .iter()
                .map(|&(ls, lt)| (map.global_of(ls), map.global_of(lt)))
                .collect();
            let via_shard = fresh
                .submit(&Request::new(Query::batch(global_batch)).with_accuracy(accuracy))
                .unwrap();
            let direct = fresh_reference
                .submit(&Request::new(Query::batch(local_pairs.to_vec())).with_accuracy(accuracy))
                .unwrap();
            for (slot, (a, b)) in via_shard.values.iter().zip(&direct.values).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "shard {p} batch slot {slot} at {threads} threads"
                );
                bits.push(a.to_bits());
            }
        }
        per_thread_bits.push(bits);
    }
    assert_eq!(per_thread_bits[0], per_thread_bits[1]);
    assert_eq!(per_thread_bits[0], per_thread_bits[2]);
}

/// Every cross-shard pair escalates to an exact solve on the full graph,
/// whatever the requested accuracy: the answer matches all-pairs ground
/// truth and each pair counts once as escalated, never as `cross`.
#[test]
fn cross_shard_pairs_are_answered_exactly() {
    let g = test_graph();
    let sharded = ShardedService::build(&g, ShardConfig::with_shards(2), approx_at(1)).unwrap();
    let router = sharded.router();
    let truth = AllPairsResistance::compute(&g).unwrap();
    let n = g.num_nodes();
    let mut checked = 0;
    for s in (0..n).step_by(7) {
        for t in (0..n).step_by(11) {
            // s < t: the facade cache is orientation-free, so (t, s) would
            // hit the entry (s, t) left instead of reaching the router.
            if s >= t || router.shard_of(s) == router.shard_of(t) {
                continue;
            }
            let exact = truth.get(s, t);
            for accuracy in [Accuracy::epsilon(0.2), Accuracy::Exact] {
                let before = router.stats();
                let value = sharded
                    .submit(&Request::new(Query::pair(s, t)).with_accuracy(accuracy))
                    .unwrap()
                    .value();
                assert!(
                    (value - exact).abs() < 1e-6,
                    "r({s},{t}) at {accuracy:?}: {value} vs exact {exact}"
                );
                let after = router.stats();
                assert_eq!(after.escalated, before.escalated + 1);
                assert_eq!(after.intra, before.intra);
                assert_eq!(after.cross, 0);
            }
            checked += 1;
        }
    }
    assert!(
        checked >= 20,
        "too few cross-shard pairs exercised: {checked}"
    );
}

/// The routed plane serves through the ordinary front door: mixed batches
/// split correctly, self-pairs stay trivial, and repeats hit the facade
/// cache while still reporting the router.
#[test]
fn routed_facade_serves_mixed_batches_and_caches() {
    let g = test_graph();
    let sharded = ShardedService::build(&g, ShardConfig::with_shards(2), approx_at(2)).unwrap();
    let router = sharded.router();
    let n = g.num_nodes();
    let (mut intra_pair, mut cross_pair) = (None, None);
    for s in 0..n {
        for t in (s + 1)..n {
            if router.shard_of(s) == router.shard_of(t) {
                intra_pair.get_or_insert((s, t));
            } else {
                cross_pair.get_or_insert((s, t));
            }
        }
    }
    let (intra_pair, cross_pair) = (intra_pair.unwrap(), cross_pair.unwrap());
    let batch = vec![intra_pair, cross_pair, (3, 3)];
    let response = sharded
        .submit(&Request::new(Query::batch(batch.clone())))
        .unwrap();
    assert_eq!(response.backend, "SHARD");
    assert_eq!(response.values.len(), 3);
    assert!(response.values[0] > 0.0 && response.values[1] > 0.0);
    assert_eq!(response.values[2], 0.0, "self-pair is trivial");
    assert_eq!(response.trivial_queries, 1);

    let repeat = sharded.submit(&Request::new(Query::batch(batch))).unwrap();
    assert_eq!(repeat.backend, "SHARD");
    assert_eq!(repeat.values, response.values);
    assert_eq!(repeat.cache_hits, 2, "both non-trivial pairs cached");
}
