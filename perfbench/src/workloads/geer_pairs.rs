//! `geer_pairs`: the paper's setting. Distinct uniform pairs at ε = 0.05
//! through `ResistanceService::submit`, one caller in a closed loop, on a
//! Barabási–Albert graph whose spectral gap routes every pair to GEER.

use super::{
    approx, calibrator, canonical_ba, cg_reference, check_epsilon, closed_loop_metrics,
    closed_loop_tails, finish_trace, geer_probe, pair_request, spmv_probe, timed_setups,
    zero_unexercised, ClosedLoop, Ctx, CANONICAL_ROWS_S, GRAPH_SEED,
};
use crate::gen::DistinctPairs;
use crate::metrics::Outcome;
use crate::trace::{Analysis, Tracer};
use er_core::GraphContext;
use er_service::ResistanceService;

/// Pairs per second on the seed commit: a run times `PACE × seconds` pairs.
pub const PACE: f64 = 220.0;

pub struct Params {
    pub gate_pairs: usize,
    pub checked_pairs: usize,
    pub probe_pairs: usize,
}

pub fn params(ctx: &Ctx) -> Params {
    if ctx.full() {
        Params {
            gate_pairs: 16,
            checked_pairs: 16,
            probe_pairs: 60,
        }
    } else {
        Params {
            gate_pairs: 4,
            checked_pairs: 4,
            probe_pairs: 4,
        }
    }
}

/// The graph and the first pairs of the stream a seed generates.
pub fn inputs(ctx: &Ctx, count: usize) -> (er_graph::Graph, Vec<(usize, usize)>) {
    let graph = canonical_ba(ctx);
    let pairs = crate::gen::distinct_pairs(&mut ctx.rng(1), graph.num_nodes(), count);
    (graph, pairs)
}

pub fn run(ctx: &Ctx) -> Outcome {
    let p = params(ctx);
    let mut out = Outcome::default();
    let tracer = Tracer::new(ctx.trace);
    let graph = canonical_ba(ctx);
    let nodes = graph.num_nodes();
    out.note(
        "graph",
        format!("barabasi_albert(n={nodes}, attach=4, seed={GRAPH_SEED})"),
    );
    out.note("edges", graph.num_edges());
    let mut cal = calibrator(ctx, &graph, CANONICAL_ROWS_S);

    let (service, setup_s, setups) = timed_setups(
        ctx.setup_reps(),
        &tracer,
        &mut cal,
        |parent| {
            let context = tracer.span("core.preprocess", super::SETUP_REQUEST, parent, |_| {
                GraphContext::preprocess(graph.clone()).expect("BA graph is ergodic")
            });
            ResistanceService::from_context(context, approx())
        },
        drop,
    );
    out.note("spectral_gap", service.context().spectral_gap());
    out.note("setup_runs_s", format!("{setups:?}"));
    if ctx.trace {
        out.set("core.preprocess_s", setup_s, 1);
    } else {
        out.set("setup_s", setup_s, setups.len() as u64);
    }

    // Pair stream: distinct across the whole run, gate pairs first.
    let mut rng = ctx.rng(1);
    let mut distinct = DistinctPairs::new(nodes);
    let mut next_pair = move || distinct.draw(&mut rng);

    // Correctness gate, untimed: every gate pair within ε of CG.
    let gate: Vec<(usize, usize)> = (0..p.gate_pairs).map(|_| next_pair()).collect();
    let reference = cg_reference(&graph, &gate, ctx);
    let answers: Vec<Option<f64>> = gate
        .iter()
        .map(|&(s, t)| service.submit(&pair_request(s, t)).ok().map(|r| r.value()))
        .collect();
    check_epsilon(&mut out, "gate", &gate, &answers, &reference);
    if !out.correct() {
        return out;
    }

    let timed = ClosedLoop::run(
        &mut out,
        ctx,
        &tracer,
        &mut cal,
        &service,
        ctx.requests(PACE),
        next_pair,
    );

    // Untimed: a spread sample of the timed answers against CG.
    let (sample, answers) = timed.sample(p.checked_pairs);
    let reference = cg_reference(&graph, &sample, ctx);
    check_epsilon(&mut out, "timed sample", &sample, &answers, &reference);
    out.note("checked_pairs", gate.len() + sample.len());

    if !ctx.trace {
        closed_loop_metrics(&mut out, &timed.latency_s, &timed.marks, &cal);
        return out;
    }
    closed_loop_tails(&mut out, &timed.latency_s);
    let probe = &timed.pairs[..p.probe_pairs.min(timed.pairs.len())];
    geer_probe(&mut out, &tracer, service.context(), probe, 1 << 40);
    spmv_probe(&mut out, &graph, 20);
    let analysis = Analysis::new(tracer.take());
    timed.report_traced(&mut out, &analysis);
    let waterfall = analysis.waterfall("request", |_| Some("miss"));
    let probe_fall = analysis.waterfall("probe", |_| Some("geer"));
    let setup_fall = analysis.waterfall("setup", |_| Some("setup"));
    finish_trace(
        &mut out,
        ctx,
        "geer_pairs",
        &analysis,
        &[setup_fall, waterfall, probe_fall],
    );
    zero_unexercised(&mut out);
    out
}
