//! The cross-shard query router.

use crate::config::ShardConfig;
use er_core::{ApproxConfig, CostBreakdown, Exact, GraphContext, ResistanceEstimator};
use er_graph::transform::induced_subgraph;
use er_graph::{NodeId, Partition, SubgraphMap};
use er_service::{
    Backend, Plan, Query, QueryShapeSet, Request, ResistanceService, Response, ServiceError,
    StreamPlan,
};
use std::sync::atomic::{AtomicU64, Ordering};

/// One shard of the serving plane: its service over the induced subgraph
/// and the global↔local id mapping.
struct ShardContext {
    service: ResistanceService,
    map: SubgraphMap,
}

/// Counters of routed traffic, snapshotted by [`ShardRouter::stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RouterStats {
    /// Pairs forwarded to a single owning shard.
    pub intra: u64,
    /// Cross-shard pairs answered without a global solve. Always 0: every
    /// cross-shard pair escalates.
    pub cross: u64,
    /// Cross-shard pairs escalated to a global exact solve.
    pub escalated: u64,
}

#[derive(Default)]
struct AtomicStats {
    intra: AtomicU64,
    escalated: AtomicU64,
}

/// Routes pair queries across a partitioned serving plane.
///
/// Implements [`Backend`], so it plugs into a full-graph
/// [`ResistanceService`] via `with_pair_router` — planner-routed `Pair`,
/// `Batch` and `EdgeSet` requests then flow through the shards while
/// source-shaped queries and explicit backend overrides keep their ordinary
/// path. Intra-shard pairs go to the owning shard's service; cross-shard
/// pairs escalate to an exact CG solve on the full graph.
///
/// ```
/// use er_shard::{ShardConfig, ShardedService};
/// use er_graph::generators;
/// use er_service::{Query, Request};
///
/// let g = generators::watts_strogatz(80, 6, 0.1, 5).unwrap();
/// let sharded =
///     ShardedService::build(&g, ShardConfig::with_shards(2), Default::default()).unwrap();
/// let response = sharded.submit(&Request::new(Query::pair(0, 40))).unwrap();
/// assert_eq!(response.backend, "SHARD");
///
/// let router = sharded.router();
/// let stats = router.stats();
/// assert_eq!(stats.intra + stats.escalated, 1);
/// assert_eq!(stats.cross, 0);
/// let cross_shard = router.shard_of(0) != router.shard_of(40);
/// assert_eq!(stats.escalated, u64::from(cross_shard));
/// ```
pub struct ShardRouter {
    partition: Partition,
    shards: Vec<ShardContext>,
    /// Preprocessed full graph, for escalation solves.
    global: GraphContext,
    config: ShardConfig,
    stats: AtomicStats,
}

impl ShardRouter {
    /// Builds the per-shard services for an existing partition.
    ///
    /// Fails with the underlying estimator error when a shard's induced
    /// subgraph is not ergodic (disconnected parts cannot occur for a
    /// connected input, but bipartite parts can) — [`crate::ShardedService`]
    /// catches that and retries with fewer shards.
    pub fn build(
        global: GraphContext,
        partition: Partition,
        config: ShardConfig,
        approx: ApproxConfig,
    ) -> Result<Self, ServiceError> {
        let mut shards = Vec::with_capacity(partition.num_parts);
        for p in 0..partition.num_parts {
            let (subgraph, map) = induced_subgraph(global.graph(), &partition.part_nodes(p))
                .map_err(|e| ServiceError::Index(er_index::IndexError::Graph(e)))?;
            let service = ResistanceService::with_config(subgraph, approx)?;
            shards.push(ShardContext { service, map });
        }
        Ok(ShardRouter {
            partition,
            shards,
            global,
            config,
            stats: AtomicStats::default(),
        })
    }

    /// The partition the router serves over.
    pub fn partition(&self) -> &Partition {
        &self.partition
    }

    /// The router's configuration.
    pub fn config(&self) -> &ShardConfig {
        &self.config
    }

    /// Number of shards actually serving.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The shard owning global node `v`.
    ///
    /// # Panics
    /// Panics if `v` is out of range.
    pub fn shard_of(&self, v: NodeId) -> usize {
        self.partition.assignment[v]
    }

    /// Snapshot of the routed-traffic counters.
    pub fn stats(&self) -> RouterStats {
        RouterStats {
            intra: self.stats.intra.load(Ordering::Relaxed),
            cross: 0,
            escalated: self.stats.escalated.load(Ordering::Relaxed),
        }
    }
}

impl Backend for ShardRouter {
    fn name(&self) -> &'static str {
        "SHARD"
    }

    fn capabilities(&self) -> QueryShapeSet {
        QueryShapeSet::PAIRWISE
    }

    /// Answers a pair-shaped plan: intra-shard items are grouped per shard
    /// and forwarded as one local batch each (the owning service dedups,
    /// caches and parallelises exactly as an unsharded service would);
    /// cross-shard items are solved exactly on the full graph, one by one.
    ///
    /// The `StreamPlan` is ignored: per-shard services re-derive RNG streams
    /// from local pair content, which is what makes intra-shard answers
    /// bit-identical to an unsharded service over the same subgraph.
    fn answer(&self, plan: &Plan, _streams: &StreamPlan) -> Result<Response, ServiceError> {
        let mut values = vec![0.0; plan.items.len()];
        let mut cost = CostBreakdown::default();
        let mut item_costs = vec![CostBreakdown::default(); plan.items.len()];
        let mut backend_calls = 0u64;
        // slot lists per shard for intra items, collected first so each
        // shard sees one batch.
        let mut intra: Vec<Vec<usize>> = vec![Vec::new(); self.shards.len()];
        let mut cross: Vec<usize> = Vec::new();
        for (slot, item) in plan.items.iter().enumerate() {
            if self.shard_of(item.s) == self.shard_of(item.t) {
                intra[self.shard_of(item.s)].push(slot);
            } else {
                cross.push(slot);
            }
        }
        for (shard, slots) in intra.iter().enumerate() {
            if slots.is_empty() {
                continue;
            }
            let ctx = &self.shards[shard];
            let pairs: Vec<(NodeId, NodeId)> = slots
                .iter()
                .map(|&slot| {
                    let item = &plan.items[slot];
                    (
                        ctx.map.local_of(item.s).expect("item lies in its shard"),
                        ctx.map.local_of(item.t).expect("item lies in its shard"),
                    )
                })
                .collect();
            let response = ctx
                .service
                .submit(&Request::new(Query::batch(pairs)).with_accuracy(plan.accuracy))?;
            for (&slot, &value) in slots.iter().zip(&response.values) {
                values[slot] = value;
            }
            cost += response.cost;
            backend_calls += response.backend_calls;
            self.stats
                .intra
                .fetch_add(slots.len() as u64, Ordering::Relaxed);
        }
        for slot in cross {
            let item = &plan.items[slot];
            let exact = Exact::with_solver(&self.global).estimate(item.s, item.t)?;
            values[slot] = exact.value;
            item_costs[slot] = exact.cost;
            cost += exact.cost;
            self.stats.escalated.fetch_add(1, Ordering::Relaxed);
            backend_calls += 1;
        }
        Ok(Response {
            values,
            nodes: Vec::new(),
            backend: self.name(),
            cost,
            shared_cost: CostBreakdown::default(),
            item_costs,
            cache_hits: 0,
            backend_calls,
            trivial_queries: 0,
        })
    }
}
