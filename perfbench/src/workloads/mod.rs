//! The four workloads and the helpers they share.

pub mod dynamic_mixed;
pub mod geer_pairs;
pub mod http_zipf;
pub mod shard_cg;

use crate::calib::Calibrator;
use crate::gen::Rng;
use crate::metrics::{Outcome, PER_LAYER};
use crate::stats;
use crate::trace::{Tracer, ROOT};
use er_core::{ApproxConfig, GeerTrace, GraphContext};
use er_graph::Graph;
use er_linalg::{CsrMatrix, LaplacianSolver, LinearOperator};
use er_service::{Accuracy, Query, Request, ResistanceService, Response};
use std::hint::black_box;
use std::time::Instant;

pub const WORKLOADS: &[&str] = &["geer_pairs", "http_zipf", "dynamic_mixed", "shard_cg"];

/// Input size: `Full` is the benchmark; `Tiny` runs the same code on
/// small graphs (for the benchmark's own tests).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    Full,
    Tiny,
}

/// What every workload receives from the command line.
#[derive(Clone, Copy, Debug)]
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
    /// Test seam: shifts every ε reference by 1, so the accuracy gates
    /// must fail.
    pub corrupt_reference: bool,
}

impl Ctx {
    pub fn full(&self) -> bool {
        self.scale == Scale::Full
    }

    /// Requests a timed phase needs at least, so that p99 has ten samples
    /// beyond it.
    pub fn min_requests(&self) -> usize {
        if self.full() {
            1000
        } else {
            100
        }
    }

    /// Requests of a closed-loop timed phase: the workload's `pace` (its
    /// rate on the seed commit) times the run's seconds, so every commit
    /// measures the same work; at least [`min_requests`](Self::min_requests).
    pub fn requests(&self, pace: f64) -> usize {
        ((pace * self.seconds) as usize).max(self.min_requests())
    }

    /// Set-ups per run: several with tracing off (the median is reported),
    /// one traced.
    pub fn setup_reps(&self) -> usize {
        if self.trace {
            1
        } else {
            3
        }
    }

    /// The seeded stream `stream` of this run.
    pub fn rng(&self, stream: u64) -> Rng {
        Rng::new(self.seed, stream)
    }
}

/// Seed of the workload graphs. Fixed: every run of a workload serves the
/// same graph, and the run's seed varies the requests.
pub const GRAPH_SEED: u64 = 7;

/// The canonical graph of `geer_pairs`, `http_zipf` and `dynamic_mixed`:
/// Barabási–Albert with attach 4 (n = 100 000 at full scale).
pub fn canonical_ba(ctx: &Ctx) -> Graph {
    let nodes = if ctx.full() { 100_000 } else { 2_000 };
    er_graph::generators::barabasi_albert(nodes, 4, GRAPH_SEED)
        .expect("BA generator parameters are valid")
}

/// Nominal time of a calibration slice's matrix rows on the canonical
/// graph (their typical time on the 2-vCPU Intel Xeon machine the benchmark was
/// built on).
pub const CANONICAL_ROWS_S: f64 = 0.52e-3;

/// The run's calibrator over `graph`: slices in untraced runs only, so
/// the traced run times the same requests with nothing between them.
pub fn calibrator(ctx: &Ctx, graph: &Graph, rows_nominal_s: f64) -> Calibrator {
    Calibrator::new(graph, rows_nominal_s, !ctx.trace)
}

/// The accuracy every workload asks for: ε = 0.05 at δ = 0.01.
pub const EPSILON: f64 = 0.05;

/// The estimator configuration every workload serves with.
pub fn approx() -> ApproxConfig {
    ApproxConfig {
        epsilon: EPSILON,
        delta: 0.01,
        threads: 1,
        ..ApproxConfig::default()
    }
}

pub fn pair_request(s: usize, t: usize) -> Request {
    Request::new(Query::pair(s, t)).with_accuracy(Accuracy::epsilon(EPSILON))
}

/// Request id of spans recorded while setting up (not a request).
pub const SETUP_REQUEST: u64 = u64::MAX;

/// Runs `build` `reps` times, each inside a `setup` span between two sets
/// of calibration slices, and hands every build but the last to
/// `teardown`; returns the last build, the median calibrated time in
/// seconds and every wall time.
pub fn timed_setups<T>(
    reps: usize,
    tracer: &Tracer,
    cal: &mut Calibrator,
    mut build: impl FnMut(u32) -> T,
    mut teardown: impl FnMut(T),
) -> (T, f64, Vec<f64>) {
    let mut times = Vec::with_capacity(reps);
    let mut calibrated = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        if let Some(previous) = last.take() {
            teardown(previous);
        }
        let mark = cal.bracket();
        let start = Instant::now();
        let built = tracer.span("setup", SETUP_REQUEST, ROOT, &mut build);
        let took = start.elapsed().as_secs_f64();
        cal.bracket();
        times.push(took);
        calibrated.push(took / cal.chain_slowdown(mark));
        last = Some(built);
    }
    let median = stats::median(&calibrated);
    (last.expect("at least one set-up"), median, times)
}

/// Exact resistances by Jacobi-preconditioned CG on `graph`.
pub fn cg_reference(graph: &Graph, pairs: &[(usize, usize)], ctx: &Ctx) -> Vec<f64> {
    let solver = LaplacianSolver::new(graph, 1e-9, 20 * graph.num_nodes().max(100));
    pairs
        .iter()
        .map(|&(s, t)| {
            solver.effective_resistance(s, t) + if ctx.corrupt_reference { 1.0 } else { 0.0 }
        })
        .collect()
}

/// Counts each answer against its reference: failed when the request
/// erred or the value lies more than ε from the reference.
pub fn check_epsilon(
    out: &mut Outcome,
    what: &str,
    pairs: &[(usize, usize)],
    answers: &[Option<f64>],
    reference: &[f64],
) {
    for ((&(s, t), answer), &exact) in pairs.iter().zip(answers).zip(reference) {
        let ok = answer.is_some_and(|v| (v - exact).abs() <= EPSILON);
        out.gate(ok, || {
            format!("{what}: r({s},{t}) answered {answer:?}, reference {exact}")
        });
    }
}

/// End-to-end figures of a closed loop with one caller, each latency
/// divided by the slowdown at its calibration mark: completed pairs per
/// calibrated second and the 95th-percentile calibrated latency. The raw
/// figures and the mean slowdown go into the run's record.
pub fn closed_loop_metrics(
    out: &mut Outcome,
    latency_s: &[f64],
    marks: &[usize],
    cal: &Calibrator,
) {
    let n = latency_s.len() as u64;
    let calibrated: Vec<f64> = latency_s
        .iter()
        .zip(marks)
        .map(|(&l, &mark)| l / cal.slowdown(mark))
        .collect();
    out.set("pairs_per_s", n as f64 / calibrated.iter().sum::<f64>(), n);
    out.set("p95_ms", stats::quantile(&calibrated, 0.95) * 1e3, n);
    out.note("raw_pairs_per_s", n as f64 / latency_s.iter().sum::<f64>());
    out.note("raw_p95_ms", stats::quantile(latency_s, 0.95) * 1e3);
    out.note("calibration_slices", cal.slices());
    let (chain, rows) = cal.mean_parts();
    out.note("mean_slowdown", cal.mean_slowdown());
    out.note("chain_slowdown", chain);
    out.note("rows_slowdown", rows);
}

/// What a closed loop of pair requests through `ResistanceService::submit`
/// measured.
pub struct ClosedLoop {
    pub pairs: Vec<(usize, usize)>,
    pub answers: Vec<Option<f64>>,
    pub latency_s: Vec<f64>,
    /// The calibration mark of each request.
    pub marks: Vec<usize>,
    traced_s: Vec<f64>,
    untraced_s: Vec<f64>,
    lag_s: Vec<f64>,
    tally: ResponseTally,
}

impl ClosedLoop {
    /// Sends `count` pairs from `next_pair` one after another, each when
    /// the previous answer is back, with a calibration slice between two
    /// requests when one is due. In a traced run every other request
    /// runs inside a `request` span around `service.plan` and
    /// `service.submit`; the request id is its position.
    pub fn run(
        out: &mut Outcome,
        ctx: &Ctx,
        tracer: &Tracer,
        cal: &mut Calibrator,
        service: &ResistanceService,
        count: usize,
        mut next_pair: impl FnMut() -> (usize, usize),
    ) -> ClosedLoop {
        let mut run = ClosedLoop {
            pairs: Vec::with_capacity(count),
            answers: Vec::with_capacity(count),
            latency_s: Vec::with_capacity(count),
            marks: Vec::with_capacity(count),
            traced_s: Vec::new(),
            untraced_s: Vec::new(),
            lag_s: Vec::with_capacity(count),
            tally: ResponseTally::default(),
        };
        let mut last_end = Instant::now();
        for id in 0..count as u64 {
            let (s, t) = next_pair();
            let request = pair_request(s, t);
            run.marks.push(cal.between());
            let traced = ctx.trace && id.is_multiple_of(2);
            let begin = Instant::now();
            run.lag_s.push((begin - last_end).as_secs_f64());
            let answer = if traced {
                tracer.span("request", id, ROOT, |root| {
                    tracer.span("service.plan", id, root, |_| service.plan(&request));
                    tracer.span("service.submit", id, root, |_| service.submit(&request))
                })
            } else {
                service.submit(&request)
            };
            last_end = Instant::now();
            let took = (last_end - begin).as_secs_f64();
            run.latency_s.push(took);
            if ctx.trace {
                if traced {
                    run.traced_s.push(took)
                } else {
                    run.untraced_s.push(took)
                }
            }
            match &answer {
                Ok(response) => run.tally.add(response),
                Err(e) => eprintln!("perfbench: r({s},{t}) failed: {e}"),
            }
            out.count(answer.is_ok());
            run.pairs.push((s, t));
            run.answers.push(answer.ok().map(|r| r.value()));
        }
        run
    }

    /// A spread sample of `k` timed pairs and their answers, to check after
    /// timing.
    pub fn sample(&self, k: usize) -> (Vec<(usize, usize)>, Vec<Option<f64>>) {
        let step = (self.pairs.len() / k.max(1)).max(1);
        (0..self.pairs.len())
            .step_by(step)
            .take(k)
            .map(|i| (self.pairs[i], self.answers[i]))
            .unzip()
    }

    /// The per-layer figures every traced closed loop gives: the service
    /// tally, generator lag, tracing overhead, plan time and the unattributed
    /// share of its `request` spans.
    pub fn report_traced(&self, out: &mut Outcome, analysis: &crate::trace::Analysis) {
        self.tally.report(out);
        let traced = self.traced_s.len() as u64;
        out.set(
            "loadgen.lag_p99_ms",
            stats::quantile(&self.lag_s, 0.99) * 1e3,
            self.lag_s.len() as u64,
        );
        overhead_share(out, &self.traced_s, &self.untraced_s);
        out.set(
            "service.plan_us",
            analysis.mean_s("service.plan") * 1e6,
            traced,
        );
        out.set(
            "trace.unattributed_share",
            analysis.unattributed_share("request"),
            traced,
        );
    }
}

/// The median and 99th-percentile latency of a closed loop, as measured.
pub fn closed_loop_tails(out: &mut Outcome, latency_s: &[f64]) {
    let n = latency_s.len() as u64;
    out.set("closed_loop.p50_ms", stats::median(latency_s) * 1e3, n);
    out.set(
        "closed_loop.p99_ms",
        stats::quantile(latency_s, 0.99) * 1e3,
        n,
    );
}

/// Tallies what the service reported across responses.
#[derive(Default)]
pub struct ResponseTally {
    responses: u64,
    cache_hits: u64,
    backend_calls: u64,
    solver_iterations: u64,
    solves: u64,
    backends: std::collections::BTreeMap<&'static str, u64>,
}

impl ResponseTally {
    pub fn add(&mut self, response: &Response) {
        self.add_parts(
            response.backend,
            response.cache_hits,
            response.backend_calls,
        );
        if response.cost.solver_iterations > 0 {
            self.solver_iterations += response.cost.solver_iterations;
            self.solves += response.backend_calls.max(1);
        }
    }

    /// Counts a response from its backend name and cache accounting (as a
    /// wire reply carries them).
    pub fn add_parts(&mut self, backend: &'static str, cache_hits: u64, backend_calls: u64) {
        self.responses += 1;
        self.cache_hits += cache_hits;
        self.backend_calls += backend_calls;
        *self.backends.entry(backend).or_default() += 1;
    }

    /// Sets the service-layer metrics this tally supports.
    pub fn report(&self, out: &mut Outcome) {
        let n = self.responses.max(1);
        let lookups = self.cache_hits + self.backend_calls;
        out.set(
            "service.cache_hit_share",
            if lookups == 0 {
                0.0
            } else {
                self.cache_hits as f64 / lookups as f64
            },
            lookups,
        );
        let mut other = 0u64;
        for (&backend, &count) in &self.backends {
            match backend {
                "GEER" => out.set("service.backend_share.GEER", count as f64 / n as f64, n),
                "EXACT-CG" => out.set("service.backend_share.EXACT-CG", count as f64 / n as f64, n),
                "SHARD" => out.set("service.backend_share.SHARD", count as f64 / n as f64, n),
                _ => other += count,
            }
        }
        out.set("service.backend_share.other", other as f64 / n as f64, n);
        out.set(
            "linalg.cg_iters_per_solve",
            if self.solves == 0 {
                0.0
            } else {
                self.solver_iterations as f64 / self.solves as f64
            },
            self.solves,
        );
    }
}

/// One Laplacian matvec on the workload graph, in ns per stored entry
/// (median of repeated products).
pub fn spmv_probe(out: &mut Outcome, graph: &Graph, repeats: usize) {
    let laplacian = CsrMatrix::laplacian(graph);
    let n = laplacian.dim();
    let x: Vec<f64> = (0..n).map(|i| (i % 7) as f64 - 3.0).collect();
    let mut y = vec![0.0; n];
    let mut per_nnz = Vec::with_capacity(repeats);
    for _ in 0..repeats {
        let start = Instant::now();
        laplacian.apply(black_box(&x), &mut y);
        black_box(&y);
        per_nnz.push(start.elapsed().as_nanos() as f64 / laplacian.nnz() as f64);
    }
    out.set(
        "linalg.spmv_ns_per_nnz",
        stats::median(&per_nnz),
        repeats as u64,
    );
}

/// Times GEER outside the service on `pairs`: `Geer::estimate_traced`,
/// then `smm::run_smm` at the traced switch point ℓ_b. The AMC tail is the
/// difference.
pub fn geer_probe(
    out: &mut Outcome,
    tracer: &Tracer,
    context: &GraphContext,
    pairs: &[(usize, usize)],
    first_request: u64,
) {
    let mut geer = er_core::Geer::new(context, approx());
    let graph = context.graph();
    let (mut pair_ns, mut smm_ns) = (0f64, 0f64);
    let (mut ops, mut steps, mut ell_b, mut early) = (0u64, 0u64, 0u64, 0u64);
    for (i, &(s, t)) in pairs.iter().enumerate() {
        let request = first_request + i as u64;
        let traced: GeerTrace = tracer.span("probe", request, ROOT, |root| {
            let start = Instant::now();
            let traced: GeerTrace = tracer
                .span("geer.estimate_traced", request, root, |_| {
                    geer.estimate_traced(s, t)
                })
                .expect("GEER probe on a valid pair");
            pair_ns += start.elapsed().as_nanos() as f64;
            let start = Instant::now();
            let run = tracer.span("smm.run_smm", request, root, |_| {
                er_core::smm::run_smm(graph, s, t, traced.ell_b)
            });
            black_box(run.r_b);
            smm_ns += start.elapsed().as_nanos() as f64;
            traced
        });
        ops += traced.cost.matvec_ops;
        steps += traced.cost.walk_steps;
        ell_b += traced.ell_b as u64;
        early += traced.amc_terminated_early as u64;
    }
    let k = pairs.len().max(1) as f64;
    let samples = pairs.len() as u64;
    let amc_ns = (pair_ns - smm_ns).max(0.0);
    out.set("geer.pair_ms", pair_ns / k / 1e6, samples);
    out.set("geer.smm_ms", smm_ns / k / 1e6, samples);
    out.set("geer.amc_ms", amc_ns / k / 1e6, samples);
    out.set("geer.matvec_ops_per_pair", ops as f64 / k, samples);
    out.set("geer.walk_steps_per_pair", steps as f64 / k, samples);
    out.set("geer.ell_b_mean", ell_b as f64 / k, samples);
    out.set("geer.amc_early_stop_share", early as f64 / k, samples);
    out.set(
        "geer.ns_per_op",
        pair_ns / (ops + steps).max(1) as f64,
        samples,
    );
    out.set("walks.ns_per_step", amc_ns / steps.max(1) as f64, samples);
}

/// The traced run's overhead: median latency of traced requests over that
/// of the untraced requests interleaved with them, minus one.
pub fn overhead_share(out: &mut Outcome, traced_s: &[f64], untraced_s: &[f64]) {
    let base = stats::median(untraced_s);
    let share = if base > 0.0 {
        stats::median(traced_s) / base - 1.0
    } else {
        0.0
    };
    out.set(
        "trace.overhead_share",
        share,
        (traced_s.len() + untraced_s.len()) as u64,
    );
}

/// Fills every per-layer metric the workload does not exercise with 0.
pub fn zero_unexercised(out: &mut Outcome) {
    for d in PER_LAYER {
        if !out.metrics.contains_key(d.name) {
            out.set(d.name, 0.0, 0);
        }
    }
}

/// Writes the spans of a traced pass and prints its waterfall.
pub fn finish_trace(
    out: &mut Outcome,
    ctx: &Ctx,
    workload: &str,
    analysis: &crate::trace::Analysis,
    waterfalls: &[String],
) {
    for w in waterfalls {
        eprint!("{w}");
    }
    let path = std::path::PathBuf::from(format!(
        "perfbench/out/trace-{workload}-seed{}.jsonl",
        ctx.seed
    ));
    match analysis.write_jsonl(&path) {
        Ok(()) => out.note("trace_file", path.display()),
        Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
    }
}
