//! The sharded front door.

use crate::config::ShardConfig;
use crate::router::ShardRouter;
use er_core::{ApproxConfig, GraphContext};
use er_graph::{IntoGraphArc, Partition, PartitionConfig, Partitioner};
use er_service::{Request, ResistanceService, Response, ServiceError};
use std::sync::Arc;

/// A partitioned serving plane behind the ordinary service interface.
///
/// `ShardedService` is a full-graph [`ResistanceService`] whose
/// planner-routed pair traffic flows through a [`ShardRouter`]: intra-shard
/// pairs are answered by the owning shard's own service (bit-identical to an
/// unsharded service over that subgraph), cross-shard pairs by an exact
/// solve on the full graph. Everything that
/// consumes a `ResistanceService` — the server worker pool, the HTTP front
/// end, sessions — works on [`service`](Self::service) /
/// [`into_service`](Self::into_service) unchanged.
pub struct ShardedService {
    service: ResistanceService,
    router: Arc<ShardRouter>,
}

impl ShardedService {
    /// Partitions `graph` into `config.num_shards` parts and builds the
    /// per-shard services and the router.
    ///
    /// The estimators require each shard's induced subgraph to be ergodic
    /// (connected and non-bipartite). The partitioner guarantees connected
    /// parts for a connected input, but a part can come out bipartite; when
    /// that happens the builder transparently retries with one shard fewer,
    /// down to a single shard (the full — validated — graph).
    pub fn build(
        graph: impl IntoGraphArc,
        config: ShardConfig,
        approx: ApproxConfig,
    ) -> Result<Self, ServiceError> {
        let context = GraphContext::preprocess(graph)?;
        let mut k = config.num_shards.max(1);
        loop {
            let partition = Partitioner::new(PartitionConfig {
                num_parts: k,
                balance_slack: config.balance_slack,
                sweeps: config.sweeps,
                seed: config.seed,
            })
            .partition(context.graph())
            .map_err(|e| ServiceError::Index(er_index::IndexError::Graph(e)))?;
            match ShardRouter::build(context.clone(), partition, config, approx) {
                Ok(router) => {
                    let router = Arc::new(router);
                    let service = ResistanceService::from_context(context, approx)
                        .with_pair_router(router.clone());
                    return Ok(ShardedService { service, router });
                }
                // A shard subgraph failed estimator validation (bipartite
                // part): coarsen and retry. k = 1 is the full graph, which
                // `preprocess` above already validated, so this terminates.
                Err(ServiceError::Estimator(_)) if k > 1 => k -= 1,
                Err(e) => return Err(e),
            }
        }
    }

    /// Submits a request through the routed front door.
    pub fn submit(&self, request: &Request) -> Result<Response, ServiceError> {
        self.service.submit(request)
    }

    /// The routed full-graph service (for spawning a server, HTTP front
    /// end, or sessions on top).
    pub fn service(&self) -> &ResistanceService {
        &self.service
    }

    /// Consumes the wrapper, returning the routed service.
    pub fn into_service(self) -> ResistanceService {
        self.service
    }

    /// The router, for partition and traffic-statistics inspection.
    pub fn router(&self) -> &Arc<ShardRouter> {
        &self.router
    }

    /// The partition the plane serves over.
    pub fn partition(&self) -> &Partition {
        self.router.partition()
    }
}
