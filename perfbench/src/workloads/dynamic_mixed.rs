//! `dynamic_mixed`: the streaming plane. Bursts of edge inserts and deletes
//! alternate with zipf pair queries on a `DynamicResistanceService` over the
//! `geer_pairs` graph, one caller in a closed loop. Every burst forces a new
//! epoch, which the first read after it pays for.
//!
//! Set-up seeds the resident INDEX state a warmed-up server holds (a few
//! CG-solved L⁺ columns and a Hutchinson diagonal), and mutations join
//! resident sources, so Sherman–Morrison updates run from column
//! differences.

use super::{
    approx, calibrator, canonical_ba, closed_loop_metrics, closed_loop_tails, finish_trace,
    overhead_share, pair_request, spmv_probe, timed_setups, zero_unexercised, Ctx, ResponseTally,
    CANONICAL_ROWS_S, EPSILON, GRAPH_SEED, SETUP_REQUEST,
};
use crate::gen::{Rng, Zipf};
use crate::metrics::Outcome;
use crate::stats;
use crate::trace::{Analysis, Tracer, ROOT};
use er_graph::transform::{add_edges, remove_edges};
use er_graph::Graph;
use er_linalg::LaplacianSolver;
use er_service::DynamicResistanceService;
use std::collections::VecDeque;
use std::time::Instant;

/// Reads per second on the seed commit: a run times `PACE × seconds`
/// reads and the bursts between them.
pub const PACE: f64 = 95.0;

pub struct Params {
    pub nodes: usize,
    pub resident: usize,
    pub probes: usize,
    pub refresh_interval: u64,
    pub reads_per_burst: usize,
    pub pool: usize,
    pub gate_pairs: usize,
}

pub fn params(ctx: &Ctx) -> Params {
    if ctx.full() {
        Params {
            nodes: 100_000,
            resident: 16,
            probes: 4,
            refresh_interval: 256,
            reads_per_burst: 50,
            pool: 4096,
            gate_pairs: 4,
        }
    } else {
        Params {
            nodes: 2_000,
            resident: 8,
            probes: 2,
            refresh_interval: 256,
            reads_per_burst: 10,
            pool: 256,
            gate_pairs: 3,
        }
    }
}

/// One step of the mutation/read stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Step {
    Insert(usize, usize),
    Remove(usize, usize),
    Read(usize, usize),
}

/// The resident sources: spread over the id space.
pub fn resident(p: &Params) -> Vec<usize> {
    (0..p.resident).map(|r| (r * 6151 + 17) % p.nodes).collect()
}

/// Edges a burst inserts, and edges inserted by bursts that stay in the
/// graph: once the window is full, each burst deletes as many of the
/// oldest inserted edges as it inserts, so the graph stays the same size.
pub const INSERTS_PER_BURST: usize = 2;

/// The mutation/read stream: each burst inserts [`INSERTS_PER_BURST`]
/// edges between resident sources not yet joined and deletes the edges the
/// previous burst inserted (never a bridge: the base graph already connects
/// their endpoints), then `reads_per_burst` zipf reads over a fixed pool of
/// distinct pairs.
pub struct Stream {
    rng: Rng,
    resident: Vec<usize>,
    pool: Vec<(usize, usize)>,
    zipf: Zipf,
    fresh: VecDeque<(usize, usize)>,
    reads_per_burst: usize,
}

impl Stream {
    pub fn new(ctx: &Ctx, p: &Params) -> Stream {
        let mut rng = ctx.rng(2);
        let pool = crate::gen::distinct_pairs(&mut rng, p.nodes, p.pool);
        Stream {
            rng,
            resident: resident(p),
            pool,
            zipf: Zipf::new(p.pool),
            fresh: VecDeque::new(),
            reads_per_burst: p.reads_per_burst,
        }
    }

    pub fn burst(&mut self, has_edge: impl Fn(usize, usize) -> bool) -> Vec<Step> {
        let mut steps = Vec::new();
        for _ in 0..INSERTS_PER_BURST {
            let mut free = Vec::new();
            for (i, &u) in self.resident.iter().enumerate() {
                for &v in &self.resident[i + 1..] {
                    let key = (u.min(v), u.max(v));
                    if !has_edge(u, v) && !self.fresh.contains(&key) {
                        free.push(key);
                    }
                }
            }
            assert!(
                !free.is_empty(),
                "every pair of resident sources is already joined"
            );
            let pair = free[self.rng.below(free.len())];
            self.fresh.push_back(pair);
            steps.push(Step::Insert(pair.0, pair.1));
        }
        while self.fresh.len() > INSERTS_PER_BURST {
            let (u, v) = self.fresh.pop_front().expect("non-empty");
            steps.push(Step::Remove(u, v));
        }
        steps
    }

    pub fn reads(&mut self) -> Vec<Step> {
        (0..self.reads_per_burst)
            .map(|_| {
                let (s, t) = self.pool[self.zipf.draw(&mut self.rng)];
                Step::Read(s, t)
            })
            .collect()
    }
}

pub fn graph(ctx: &Ctx) -> Graph {
    canonical_ba(ctx)
}

/// Exact centred `L⁺ e_source` columns and a Hutchinson estimate of
/// `diag(L⁺)`, both by CG on `graph`.
fn resident_state(graph: &Graph, p: &Params, seed: u64) -> (Vec<f64>, Vec<(usize, Vec<f64>)>) {
    let solver = LaplacianSolver::for_ground_truth(graph);
    let n = graph.num_nodes();
    let columns = resident(p)
        .into_iter()
        .map(|s| {
            let mut b = vec![0.0; n];
            b[s] = 1.0;
            (s, solver.solve(&b).0)
        })
        .collect();
    let mut rng = Rng::new(seed, 0xd1a);
    let mut diagonal = vec![0.0; n];
    for _ in 0..p.probes {
        let z: Vec<f64> = (0..n)
            .map(|_| if rng.next_u64() & 1 == 0 { 1.0 } else { -1.0 })
            .collect();
        let (x, _) = solver.solve(&z);
        for ((d, &zi), &xi) in diagonal.iter_mut().zip(&z).zip(&x) {
            *d += zi * xi / p.probes as f64;
        }
    }
    (diagonal, columns)
}

/// Gate: after two bursts (inserts, then deletes) that reach the refresh
/// interval, a full refresh answers bit-identically to a service built
/// cold on the mutated graph.
fn full_refresh_gate(out: &mut Outcome, ctx: &Ctx, graph: &Graph, p: &Params) {
    let mut stream = Stream::new(ctx, p);
    let mut burst = stream.burst(|u, v| graph.has_edge(u, v));
    burst.extend(stream.burst(|u, v| graph.has_edge(u, v)));
    let dynamic = DynamicResistanceService::from_graph(graph, approx())
        .with_refresh_interval(burst.len() as u64);
    dynamic.refresh().expect("first epoch");
    let (mut inserted, mut removed) = (Vec::new(), Vec::new());
    for step in &burst {
        match *step {
            Step::Insert(u, v) => {
                dynamic.insert_edge(u, v).expect("gate insert");
                inserted.push((u, v));
            }
            Step::Remove(u, v) => {
                dynamic.remove_edge(u, v).expect("gate remove");
                removed.push((u, v));
            }
            Step::Read(..) => unreachable!("bursts hold mutations only"),
        }
    }
    dynamic.refresh().expect("full refresh");
    let mutated = add_edges(graph, &inserted).expect("gate inserts");
    let mutated = remove_edges(&mutated, &removed).expect("gate removes");
    let cold = DynamicResistanceService::from_graph(&mutated, approx());
    for _ in 0..p.gate_pairs {
        let (s, t) = stream.rng.pair(p.nodes);
        let warm = dynamic.submit(&pair_request(s, t)).map(|r| r.value());
        let fresh = cold.submit(&pair_request(s, t)).map(|r| r.value());
        let same = matches!((&warm, &fresh), (Ok(a), Ok(b)) if a.to_bits() == b.to_bits());
        out.gate(same, || {
            format!("full refresh r({s},{t}) = {warm:?}, cold rebuild {fresh:?}")
        });
    }
}

pub fn run(ctx: &Ctx) -> Outcome {
    let p = params(ctx);
    let mut out = Outcome::default();
    let tracer = Tracer::new(ctx.trace);
    let graph = graph(ctx);
    out.note(
        "graph",
        format!(
            "barabasi_albert(n={}, attach=4, seed={GRAPH_SEED})",
            p.nodes
        ),
    );
    out.note("edges", graph.num_edges());
    out.note("resident_columns", p.resident);
    out.note("refresh_interval", p.refresh_interval);
    out.note("reads_per_burst", p.reads_per_burst);
    let mut cal = calibrator(ctx, &graph, CANONICAL_ROWS_S);

    let (dynamic, setup_s, setups) = timed_setups(
        ctx.setup_reps(),
        &tracer,
        &mut cal,
        |parent| {
            let dynamic = DynamicResistanceService::from_graph(&graph, approx())
                .with_refresh_interval(p.refresh_interval);
            tracer.span("dynamic.refresh", SETUP_REQUEST, parent, |_| {
                dynamic.refresh().expect("first epoch")
            });
            let (diagonal, columns) =
                tracer.span("dynamic.resident_state", SETUP_REQUEST, parent, |_| {
                    resident_state(&graph, &p, ctx.seed)
                });
            tracer.span("dynamic.seed_index_state", SETUP_REQUEST, parent, |_| {
                dynamic
                    .seed_index_state(diagonal, columns)
                    .expect("seeding resident state")
            });
            dynamic
        },
        drop,
    );
    out.note("setup_runs_s", format!("{setups:?}"));
    if !ctx.trace {
        out.set("setup_s", setup_s, setups.len() as u64);
    }

    full_refresh_gate(&mut out, ctx, &graph, &p);
    if !out.correct() {
        return out;
    }

    // Timed closed loop, with calibration slices before bursts and between
    // reads. Checks of post-burst answers against `resistance_exact` run
    // with the clock stopped.
    let mut stream = Stream::new(ctx, &p);
    let mut tally = ResponseTally::default();
    let (full0, incr0, sm0, cg0) = (
        dynamic.snapshot_full_rebuilds(),
        dynamic.incremental_refreshes(),
        dynamic.sm_updates(),
        dynamic.cg_fallbacks(),
    );
    let (mut read_s, mut post_s, mut mutation_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut marks = Vec::new();
    let (mut traced_s, mut untraced_s, mut lag_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut classes: Vec<&'static str> = Vec::new();
    let mut last_end;
    let mut checked = 0usize;
    let reads = ctx.requests(PACE);
    while read_s.len() < reads {
        // Burst.
        let burst = stream.burst(|u, v| dynamic.has_edge(u, v));
        let burst_id = classes.len() as u64;
        classes.push("burst");
        let burst_mark = cal.between();
        let begin = Instant::now();
        tracer.span("burst", burst_id, ROOT, |root| {
            for step in &burst {
                let t0 = Instant::now();
                let ok = match *step {
                    Step::Insert(u, v) => {
                        tracer.span("dynamic.insert_edge", burst_id, root, |_| {
                            dynamic.insert_edge(u, v)
                        })
                    }
                    Step::Remove(u, v) => {
                        tracer.span("dynamic.remove_edge", burst_id, root, |_| {
                            dynamic.remove_edge(u, v)
                        })
                    }
                    Step::Read(..) => unreachable!("bursts hold mutations only"),
                };
                mutation_s.push(t0.elapsed().as_secs_f64());
                out.count(matches!(ok, Ok(true)));
            }
        });
        let burst_s = begin.elapsed().as_secs_f64();
        last_end = Instant::now();
        // Reads; the first pays the epoch refresh.
        for (i, step) in stream.reads().into_iter().enumerate() {
            let Step::Read(s, t) = step else {
                unreachable!("reads hold reads only")
            };
            let request = pair_request(s, t);
            let id = classes.len() as u64;
            let post = i == 0;
            classes.push(if post { "post-burst read" } else { "read" });
            let traced = ctx.trace && (post || id.is_multiple_of(2));
            // The first read and the burst before it are one interval.
            marks.push(if post { burst_mark } else { cal.between() });
            let begin = Instant::now();
            lag_s.push((begin - last_end).as_secs_f64());
            let answer = if traced {
                tracer.span("read", id, ROOT, |root| {
                    if post {
                        tracer
                            .span("dynamic.refresh", id, root, |_| {
                                dynamic.refresh().map(|_| ())
                            })
                            .expect("epoch refresh");
                    }
                    let epoch = dynamic.epoch().expect("an epoch is installed");
                    tracer.span("service.plan", id, root, |_| epoch.service().plan(&request));
                    tracer.span("dynamic.submit", id, root, |_| dynamic.submit(&request))
                })
            } else {
                dynamic.submit(&request)
            };
            last_end = Instant::now();
            let took = (last_end - begin).as_secs_f64();
            if post {
                post_s.push(took);
                // The caller applied the burst just before this read.
                read_s.push(took + burst_s);
            } else {
                read_s.push(took);
                if ctx.trace {
                    if traced {
                        traced_s.push(took)
                    } else {
                        untraced_s.push(took)
                    }
                }
            }
            match &answer {
                Ok(response) => tally.add(response),
                Err(e) => eprintln!("dynamic_mixed: r({s},{t}) failed: {e}"),
            }
            out.count(answer.is_ok());
            if post {
                let exact = dynamic.resistance_exact(s, t).expect("exact resistance")
                    + if ctx.corrupt_reference { 1.0 } else { 0.0 };
                let value = answer.as_ref().ok().map(|r| r.value());
                let ok = value.is_some_and(|v| (v - exact).abs() <= EPSILON);
                out.gate(ok, || {
                    format!("post-burst r({s},{t}) = {value:?}, resistance_exact {exact}")
                });
                checked += 1;
                last_end = Instant::now();
            }
        }
    }
    out.note("checked_pairs", checked + p.gate_pairs);
    out.note("bursts", post_s.len());
    out.note("mutations", mutation_s.len());

    if !ctx.trace {
        closed_loop_metrics(&mut out, &read_s, &marks, &cal);
        return out;
    }
    closed_loop_tails(&mut out, &read_s);

    tally.report(&mut out);
    let bursts = post_s.len() as u64;
    out.set(
        "linalg.sm_updates",
        (dynamic.sm_updates() - sm0) as f64,
        bursts,
    );
    out.set(
        "linalg.cg_fallbacks",
        (dynamic.cg_fallbacks() - cg0) as f64,
        bursts,
    );
    out.set(
        "dynamic.full_rebuilds",
        (dynamic.snapshot_full_rebuilds() - full0) as f64,
        bursts,
    );
    out.set(
        "dynamic.incremental_refreshes",
        (dynamic.incremental_refreshes() - incr0) as f64,
        bursts,
    );
    out.set(
        "dynamic.mutation_us",
        stats::mean(&mutation_s) * 1e6,
        mutation_s.len() as u64,
    );
    out.set(
        "dynamic.post_mutation_p50_ms",
        stats::median(&post_s) * 1e3,
        bursts,
    );
    out.set(
        "loadgen.lag_p99_ms",
        stats::quantile(&lag_s, 0.99) * 1e3,
        lag_s.len() as u64,
    );
    overhead_share(&mut out, &traced_s, &untraced_s);
    spmv_probe(&mut out, &graph, 20);

    let analysis = Analysis::new(tracer.take());
    let refresh_s: f64 = analysis
        .spans
        .iter()
        .filter(|s| s.name == "dynamic.refresh" && s.request != SETUP_REQUEST)
        .map(|s| s.duration_ns() as f64 * 1e-9)
        .sum();
    out.set(
        "dynamic.refresh_ms",
        refresh_s / bursts.max(1) as f64 * 1e3,
        bursts,
    );
    out.set(
        "dynamic.mutations_per_s",
        mutation_s.len() as f64 / (mutation_s.iter().sum::<f64>() + refresh_s),
        mutation_s.len() as u64,
    );
    out.set(
        "core.preprocess_s",
        analysis
            .spans
            .iter()
            .find(|s| s.name == "dynamic.refresh" && s.request == SETUP_REQUEST)
            .map_or(0.0, |s| s.duration_ns() as f64 * 1e-9),
        1,
    );
    out.set(
        "service.plan_us",
        analysis.mean_s("service.plan") * 1e6,
        analysis.durations_s("service.plan").len() as u64,
    );
    out.set(
        "trace.unattributed_share",
        analysis.unattributed_share("read"),
        traced_s.len() as u64,
    );
    let class_of = |id: u64| classes.get(id as usize).copied();
    let setup_fall = analysis.waterfall("setup", |_| Some("setup"));
    let burst_fall = analysis.waterfall("burst", class_of);
    let read_fall = analysis.waterfall("read", class_of);
    finish_trace(
        &mut out,
        ctx,
        "dynamic_mixed",
        &analysis,
        &[setup_fall, burst_fall, read_fall],
    );
    zero_unexercised(&mut out);
    out
}
