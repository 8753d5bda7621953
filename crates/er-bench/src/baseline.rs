//! Frozen reproductions of superseded hot paths, kept so the walk-kernel
//! bench always measures against the same baseline.
//!
//! The `walk_kernel` binary compares the current walk kernel against
//! [`pr1_endpoint_histogram`] — the bulk endpoint-histogram operation exactly
//! as it ran before the kernel landed — and asserts both produce the same
//! walks. Do not "fix" or modernise this code: its whole value is that it
//! stays identical to what the frozen numbers in `BENCH_walk_kernel.json`
//! were measured against.

use er_graph::{Graph, NodeId};
use er_walks::par;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The bulk endpoint-histogram operation as of PR 1 (the single-threaded arm
/// of `par_fold_commutative`): one dense `vec![0; n]` tally, and per walk a
/// freshly constructed `StdRng` on the `mix_seed(fan_seed, i)` stream
/// stepping via `Graph::random_neighbor`. Returns the endpoint counts and the
/// total steps taken.
pub fn pr1_endpoint_histogram(
    graph: &Graph,
    start: NodeId,
    len: usize,
    num_walks: u64,
    fan_seed: u64,
) -> (Vec<u64>, u64) {
    let mut counts = vec![0u64; graph.num_nodes()];
    let mut steps_total = 0u64;
    for i in 0..num_walks {
        let mut rng = StdRng::seed_from_u64(par::mix_seed(fan_seed, i));
        let mut current = start;
        for _ in 0..len {
            match graph.random_neighbor(current, &mut rng) {
                Some(next) => {
                    current = next;
                    steps_total += 1;
                }
                None => break,
            }
        }
        counts[current] += 1;
    }
    (counts, steps_total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_graph::generators;

    #[test]
    fn baseline_histogram_accounts_every_walk_and_step() {
        let g = generators::complete(12).unwrap();
        let (counts, steps) = pr1_endpoint_histogram(&g, 0, 7, 500, 9);
        assert_eq!(counts.iter().sum::<u64>(), 500);
        assert_eq!(steps, 500 * 7);
        let (again, _) = pr1_endpoint_histogram(&g, 0, 7, 500, 9);
        assert_eq!(counts, again, "baseline must stay deterministic per seed");
    }
}
