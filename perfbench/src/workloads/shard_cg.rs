//! `shard_cg`: a two-shard `ShardedService` plane over a slow-mixing
//! Watts–Strogatz graph, where every ε pair goes to an exact CG solve —
//! intra-shard pairs on the owning shard, cross-shard pairs escalated to a
//! global solve. Uniform pairs at ε = 0.05, one caller in a closed loop.
//!
//! Set-up is `ShardedService::build`. The traced run also times the
//! public calls that build makes — preprocess, partition, router build —
//! one at a time, for the per-layer figures.

use super::{
    approx, calibrator, cg_reference, check_epsilon, closed_loop_metrics, closed_loop_tails,
    finish_trace, pair_request, spmv_probe, timed_setups, zero_unexercised, ClosedLoop, Ctx,
    GRAPH_SEED, SETUP_REQUEST,
};
use crate::metrics::Outcome;
use crate::stats;
use crate::trace::{Analysis, Tracer, ROOT};
use er_core::GraphContext;
use er_graph::transform::induced_subgraph;
use er_graph::{generators, Graph, PartitionConfig, Partitioner};
use er_service::ResistanceService;
use er_shard::{ShardConfig, ShardRouter, ShardedService};
use std::collections::HashMap;

/// Nominal time of a calibration slice's matrix rows on the workload graph
/// (see [`super::CANONICAL_ROWS_S`]).
pub const ROWS_S: f64 = 0.15e-3;

/// Pairs per second on the seed commit: a run times `PACE × seconds` pairs.
pub const PACE: f64 = 160.0;

pub struct Params {
    pub nodes: usize,
    pub ring_degree: usize,
    pub beta: f64,
    pub shards: usize,
    pub gate_pairs: usize,
    pub checked_pairs: usize,
}

pub fn params(ctx: &Ctx) -> Params {
    if ctx.full() {
        Params {
            nodes: 5_000,
            ring_degree: 6,
            beta: 0.1,
            shards: 2,
            gate_pairs: 8,
            checked_pairs: 32,
        }
    } else {
        Params {
            nodes: 400,
            ring_degree: 6,
            beta: 0.1,
            shards: 2,
            gate_pairs: 4,
            checked_pairs: 8,
        }
    }
}

pub fn graph(ctx: &Ctx) -> Graph {
    let p = params(ctx);
    generators::watts_strogatz(p.nodes, p.ring_degree, p.beta, GRAPH_SEED)
        .expect("WS generator parameters are valid")
}

/// Times each part `ShardedService::build` runs, one public call at a
/// time, on the plane's own graph and shard count: preprocess, partition,
/// router build. Traced runs only; the plane itself comes from
/// `ShardedService::build`.
fn setup_parts(graph: &Graph, shards: usize, tracer: &Tracer) {
    tracer.span("setup.parts", SETUP_REQUEST, ROOT, |parent| {
        let context = tracer.span("core.preprocess", SETUP_REQUEST, parent, |_| {
            GraphContext::preprocess(graph.clone()).expect("WS graph is ergodic")
        });
        let config = ShardConfig::with_shards(shards);
        let partition = tracer.span("graph.partition", SETUP_REQUEST, parent, |_| {
            Partitioner::new(PartitionConfig {
                num_parts: shards,
                balance_slack: config.balance_slack,
                sweeps: config.sweeps,
                seed: config.seed,
            })
            .partition(context.graph())
            .expect("partitioning a connected graph")
        });
        tracer.span("shard.router_build", SETUP_REQUEST, parent, |_| {
            ShardRouter::build(context, partition, config, approx())
                .expect("the plane built this router")
        });
    });
}

pub fn run(ctx: &Ctx) -> Outcome {
    let p = params(ctx);
    let mut out = Outcome::default();
    let tracer = Tracer::new(ctx.trace);
    let graph = graph(ctx);
    out.note(
        "graph",
        format!(
            "watts_strogatz(n={}, k={}, beta={}, seed={GRAPH_SEED})",
            p.nodes, p.ring_degree, p.beta
        ),
    );
    out.note("edges", graph.num_edges());
    let mut cal = calibrator(ctx, &graph, ROWS_S);

    let (plane, setup_s, setups) = timed_setups(
        ctx.setup_reps(),
        &tracer,
        &mut cal,
        |_| {
            ShardedService::build(graph.clone(), ShardConfig::with_shards(p.shards), approx())
                .expect("building the shard plane")
        },
        drop,
    );
    let (service, router) = (plane.service(), plane.router());
    out.note("spectral_gap", service.context().spectral_gap());
    out.note("shards", router.num_shards());
    out.note("edge_cut", router.partition().edge_cut);
    out.note("setup_runs_s", format!("{setups:?}"));
    if !ctx.trace {
        out.set("setup_s", setup_s, setups.len() as u64);
    }

    let mut rng = ctx.rng(1);
    let is_intra = |(s, t): (usize, usize)| router.shard_of(s) == router.shard_of(t);

    // Gate, untimed: intra pairs bit-identical to an unsharded service over
    // the same subgraph; every gate pair within ε of CG on the full graph.
    let (mut intra, mut cross) = (Vec::new(), Vec::new());
    while intra.len() < p.gate_pairs || (cross.len() < p.gate_pairs && router.num_shards() > 1) {
        let pair = rng.pair(p.nodes);
        if is_intra(pair) {
            if intra.len() < p.gate_pairs {
                intra.push(pair);
            }
        } else if cross.len() < p.gate_pairs {
            cross.push(pair);
        }
    }
    let mut truth = ShardTruth::new(&graph, router, ctx);
    for &(s, t) in &intra {
        let (local, (ls, lt)) = truth.unsharded(s, t);
        let sharded = service.submit(&pair_request(s, t)).map(|r| r.value());
        let alone = local.submit(&pair_request(ls, lt)).map(|r| r.value());
        let same = matches!((&sharded, &alone), (Ok(a), Ok(b)) if a.to_bits() == b.to_bits());
        out.gate(same, || {
            format!("intra-shard r({s},{t}) = {sharded:?}, unsharded subgraph service {alone:?}")
        });
    }
    let gate: Vec<(usize, usize)> = intra.iter().chain(&cross).copied().collect();
    let answers: Vec<Option<f64>> = gate
        .iter()
        .map(|&(s, t)| service.submit(&pair_request(s, t)).ok().map(|r| r.value()))
        .collect();
    let mut full_error = Vec::new();
    truth.check(&mut out, "gate", &gate, &answers, &mut full_error);
    if !out.correct() {
        return out;
    }

    let before = router.stats();
    let timed = ClosedLoop::run(
        &mut out,
        ctx,
        &tracer,
        &mut cal,
        service,
        ctx.requests(PACE),
        || rng.pair(p.nodes),
    );
    let after = router.stats();

    // Untimed: a spread sample of the timed answers against CG.
    let (sample, answers) = timed.sample(p.checked_pairs);
    truth.check(&mut out, "timed sample", &sample, &answers, &mut full_error);
    out.note("checked_pairs", gate.len() + sample.len());

    if !ctx.trace {
        closed_loop_metrics(&mut out, &timed.latency_s, &timed.marks, &cal);
        return out;
    }
    closed_loop_tails(&mut out, &timed.latency_s);
    let (n_intra, n_cross, n_esc) = (
        after.intra - before.intra,
        after.cross - before.cross,
        after.escalated - before.escalated,
    );
    let routed = (n_intra + n_cross + n_esc).max(1);
    out.set("shard.intra_share", n_intra as f64 / routed as f64, routed);
    out.set(
        "shard.escalation_rate",
        if n_cross + n_esc == 0 {
            0.0
        } else {
            n_esc as f64 / (n_cross + n_esc) as f64
        },
        n_cross + n_esc,
    );
    let intra: Vec<bool> = timed.pairs.iter().map(|&pair| is_intra(pair)).collect();
    let by_class = |want: bool| -> Vec<f64> {
        timed
            .latency_s
            .iter()
            .zip(&intra)
            .filter(|(_, &c)| c == want)
            .map(|(&l, _)| l)
            .collect()
    };
    let (intra_s, cross_s) = (by_class(true), by_class(false));
    out.set(
        "shard.intra_p50_ms",
        stats::median(&intra_s) * 1e3,
        intra_s.len() as u64,
    );
    out.set(
        "shard.cross_p50_ms",
        stats::median(&cross_s) * 1e3,
        cross_s.len() as u64,
    );
    out.set(
        "shard.intra_full_graph_error",
        stats::mean(&full_error),
        full_error.len() as u64,
    );
    spmv_probe(&mut out, &graph, 200);

    setup_parts(&graph, router.num_shards(), &tracer);

    let analysis = Analysis::new(tracer.take());
    timed.report_traced(&mut out, &analysis);
    out.set(
        "core.preprocess_s",
        analysis.durations_s("core.preprocess").iter().sum(),
        1,
    );
    out.set(
        "shard.partition_s",
        analysis.durations_s("graph.partition").iter().sum(),
        1,
    );
    out.set(
        "shard.router_build_s",
        analysis.durations_s("shard.router_build").iter().sum(),
        1,
    );
    let setup_fall = analysis.waterfall("setup.parts", |_| Some("setup, part by part"));
    let waterfall = analysis.waterfall("request", |id| {
        Some(if intra[id as usize] {
            "intra-shard"
        } else {
            "cross-shard"
        })
    });
    finish_trace(
        &mut out,
        ctx,
        "shard_cg",
        &analysis,
        &[setup_fall, waterfall],
    );
    zero_unexercised(&mut out);
    out
}

/// The references the shard plane answers against. Its documented contract
/// is shard-local for intra-shard pairs — the answer of an unsharded
/// service over the shard's induced subgraph, so ε is checked against CG on
/// that subgraph — and global for cross-shard pairs, which escalate to a
/// full-graph solve. How far intra-shard answers lie from the full-graph
/// resistance is measured, not gated.
struct ShardTruth<'a> {
    graph: &'a Graph,
    router: &'a ShardRouter,
    ctx: &'a Ctx,
    shards: HashMap<usize, (Graph, er_graph::SubgraphMap, Option<ResistanceService>)>,
}

impl<'a> ShardTruth<'a> {
    fn new(graph: &'a Graph, router: &'a ShardRouter, ctx: &'a Ctx) -> ShardTruth<'a> {
        ShardTruth {
            graph,
            router,
            ctx,
            shards: HashMap::new(),
        }
    }

    fn shard(
        &mut self,
        shard: usize,
    ) -> &mut (Graph, er_graph::SubgraphMap, Option<ResistanceService>) {
        let (graph, router) = (self.graph, self.router);
        self.shards.entry(shard).or_insert_with(|| {
            let (subgraph, map) = induced_subgraph(graph, &router.partition().part_nodes(shard))
                .expect("shard nodes lie in the graph");
            (subgraph, map, None)
        })
    }

    /// An unsharded service over the shard subgraph of intra pair `(s, t)`,
    /// and the pair in its local ids.
    fn unsharded(&mut self, s: usize, t: usize) -> (&ResistanceService, (usize, usize)) {
        let entry = self.shard(self.router.shard_of(s));
        let local = (
            entry.1.local_of(s).expect("s lies in its shard"),
            entry.1.local_of(t).expect("t lies in its shard"),
        );
        if entry.2.is_none() {
            let service = ResistanceService::with_config(entry.0.clone(), approx())
                .expect("shard subgraph is ergodic");
            entry.2 = Some(service);
        }
        (entry.2.as_ref().expect("built above"), local)
    }

    /// Checks each answer within ε of its contract reference; records the
    /// absolute distance of intra-shard answers from the full-graph
    /// resistance in `full_error`.
    fn check(
        &mut self,
        out: &mut Outcome,
        what: &str,
        pairs: &[(usize, usize)],
        answers: &[Option<f64>],
        full_error: &mut Vec<f64>,
    ) {
        let ctx = self.ctx;
        let global = cg_reference(self.graph, pairs, ctx);
        let mut reference = global.clone();
        for (i, &(s, t)) in pairs.iter().enumerate() {
            if self.router.shard_of(s) == self.router.shard_of(t) {
                let entry = self.shard(self.router.shard_of(s));
                let local = (
                    entry.1.local_of(s).expect("s lies in its shard"),
                    entry.1.local_of(t).expect("t lies in its shard"),
                );
                reference[i] = cg_reference(&entry.0, &[local], ctx)[0];
                if let Some(v) = answers[i] {
                    let exact = global[i] - if ctx.corrupt_reference { 1.0 } else { 0.0 };
                    full_error.push((v - exact).abs());
                }
            }
        }
        check_epsilon(out, what, pairs, answers, &reference);
    }
}
