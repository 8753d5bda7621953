//! Sharded serving plane for pairwise effective resistance.
//!
//! One `ResistanceService` per machine stops scaling when the graph (or the
//! query rate) outgrows it. This crate splits the graph into `k` balanced,
//! connected parts ([`er_graph::Partitioner`]) and serves each part with its
//! own [`ResistanceService`](er_service::ResistanceService) over the induced
//! subgraph. A [`ShardRouter`] sits in front:
//!
//! * **Intra-shard** pairs (both endpoints in one part) are forwarded to the
//!   owning shard unchanged — answers are *bit-identical* to an unsharded
//!   service over the same induced subgraph, because the per-shard services
//!   run the same planner, the same estimator configuration and the same
//!   content-derived RNG streams on the same local node ids.
//! * **Cross-shard** pairs are *escalated*: the router answers them with an
//!   exact CG solve on the full graph, whatever the requested accuracy.
//!
//! An intra-shard answer is the effective resistance of the shard's
//! *induced subgraph*, not of the full graph. By Rayleigh monotonicity
//! (deleting the rest of the graph can only raise resistance) it
//! overestimates the full-graph value, often by far more than ε: the
//! ε guarantee holds against the shard subgraph only.
//!
//! [`ShardedService`] bundles the partition, the per-shard services and the
//! router behind the ordinary service front door: it is a full-graph
//! `ResistanceService` with the router installed via
//! `with_pair_router`, so the server, HTTP front end and CLI all work on a
//! sharded topology unchanged.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod router;
pub mod service;

pub use config::ShardConfig;
pub use router::{RouterStats, ShardRouter};
pub use service::ShardedService;
