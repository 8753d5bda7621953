//! Configuration of the sharded serving plane.

/// How the graph is split into shards.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ShardConfig {
    /// Number of shards to aim for. Clamped to the node count; shards whose
    /// induced subgraph fails the estimators' ergodicity requirements make
    /// the builder fall back to `num_shards − 1` (down to 1).
    pub num_shards: usize,
    /// Balance slack forwarded to the partitioner: no part may exceed
    /// `(1 + balance_slack) · n / k` nodes.
    pub balance_slack: f64,
    /// Label-propagation refinement sweeps of the partitioner.
    pub sweeps: usize,
    /// Seed for the partitioner.
    pub seed: u64,
}

impl Default for ShardConfig {
    fn default() -> Self {
        ShardConfig {
            num_shards: 2,
            balance_slack: 0.1,
            sweeps: 8,
            seed: 0x5eed,
        }
    }
}

impl ShardConfig {
    /// Default config with `k` shards.
    pub fn with_shards(k: usize) -> Self {
        ShardConfig {
            num_shards: k.max(1),
            ..Self::default()
        }
    }

    /// Sets the partitioner seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_compose() {
        let c = ShardConfig::with_shards(4).with_seed(7);
        assert_eq!(c.num_shards, 4);
        assert_eq!(c.seed, 7);
        assert_eq!(ShardConfig::with_shards(0).num_shards, 1);
    }
}
