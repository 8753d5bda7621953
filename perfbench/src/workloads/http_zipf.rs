//! `http_zipf`: `ResistanceServer` with one worker behind `HttpServer` on
//! loopback. Pair popularity is zipf(1) over a pool four times the
//! service's cache capacity, so hits, misses and eviction all occur.
//!
//! Runs with tracing off time a closed loop over one keep-alive
//! connection. The traced run drives the open loop — Poisson arrivals at
//! two fixed rates over two pipelined connections — against `HttpServer`,
//! searches the highest rate meeting the latency objective with real
//! passes, and takes the per-span breakdown from shorter passes through an
//! instrumented front end.

use super::{
    approx, calibrator, canonical_ba, cg_reference, check_epsilon, closed_loop_metrics,
    closed_loop_tails, finish_trace, geer_probe, overhead_share, pair_request, spmv_probe,
    timed_setups, zero_unexercised, Ctx, ResponseTally, CANONICAL_ROWS_S, EPSILON, GRAPH_SEED,
    SETUP_REQUEST,
};
use crate::gen::{poisson_schedule, Rng, Zipf};
use crate::metrics::Outcome;
use crate::stats;
use crate::trace::{Analysis, Tracer, ROOT};
use crate::wire::{closed_loop, open_loop, pair_bytes, Exchange, Reply, TracedFrontEnd};
use er_core::GraphContext;
use er_graph::Graph;
use er_http::{HttpConfig, HttpServer};
use er_service::{Request, ResistanceServer, ResistanceService, ServerConfig, ServerHandle};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The two absolute open-loop rates (requests per second), about 25 % and
/// 75 % of the seed commit's capacity on this workload. Fixed: never
/// recomputed from a run.
pub const RATES: (f64, f64) = (125.0, 375.0);
/// The latency objective of `open_loop.max_rate_rps`: p99 at most 20 ms.
pub const SLO_P99_S: f64 = 0.020;
/// Relative resolution of the search for `open_loop.max_rate_rps`.
pub const RATE_RESOLUTION: f64 = 0.1;
/// Client connections of the open loop (one load-generator thread each).
pub const CONNS: usize = 2;
/// Requests per second over one connection on the seed commit: a run
/// times `PACE × seconds` requests.
pub const PACE: f64 = 500.0;

pub struct Params {
    pub cache_capacity: usize,
    pub pool: usize,
    pub gate_pairs: usize,
    pub reference_pairs: usize,
    pub checked: usize,
    pub overhead_requests: usize,
    pub probe_pairs: usize,
}

pub fn params(ctx: &Ctx) -> Params {
    let cache_capacity = if ctx.full() {
        ResistanceService::DEFAULT_CACHE_CAPACITY
    } else {
        64
    };
    Params {
        cache_capacity,
        pool: 4 * cache_capacity,
        gate_pairs: if ctx.full() { 32 } else { 8 },
        reference_pairs: if ctx.full() { 8 } else { 4 },
        checked: if ctx.full() { 64 } else { 16 },
        overhead_requests: if ctx.full() { 400 } else { 40 },
        probe_pairs: if ctx.full() { 20 } else { 4 },
    }
}

/// Zipf(1) draws over a fixed pool of distinct pairs.
pub struct PairMix {
    pool: Vec<(usize, usize)>,
    zipf: Zipf,
    rng: Rng,
}

impl PairMix {
    pub fn new(ctx: &Ctx, p: &Params, nodes: usize) -> PairMix {
        let mut rng = ctx.rng(3);
        let pool = crate::gen::distinct_pairs(&mut rng, nodes, p.pool);
        PairMix {
            zipf: Zipf::new(pool.len()),
            pool,
            rng,
        }
    }

    pub fn draw(&mut self) -> (usize, usize) {
        self.pool[self.zipf.draw(&mut self.rng)]
    }
}

fn spawn_server(context: GraphContext, p: &Params) -> ServerHandle {
    let service =
        ResistanceService::from_context(context, approx()).with_cache_capacity(p.cache_capacity);
    ResistanceServer::spawn(
        service,
        ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        },
    )
}

/// Requests of an open-loop pass at `rate`: half the run's seconds, at
/// least the minimum a p99 needs.
fn pass_size(ctx: &Ctx, rate: f64) -> usize {
    ((rate * ctx.seconds * 0.5) as usize).max(ctx.min_requests())
}

pub fn run(ctx: &Ctx) -> Outcome {
    let p = params(ctx);
    let mut out = Outcome::default();
    let tracer = Arc::new(Tracer::new(ctx.trace));
    let graph = canonical_ba(ctx);
    out.note(
        "graph",
        format!(
            "barabasi_albert(n={}, attach=4, seed={GRAPH_SEED})",
            graph.num_nodes()
        ),
    );
    out.note("edges", graph.num_edges());
    out.note("pool_pairs", p.pool);
    out.note("cache_capacity", p.cache_capacity);
    let mut cal = calibrator(ctx, &graph, CANONICAL_ROWS_S);

    // Set-up: preprocess, spawn the one-worker server, bind HTTP.
    let (http, setup_s, setups) = timed_setups(
        ctx.setup_reps(),
        &tracer,
        &mut cal,
        |parent| {
            let context = tracer.span("core.preprocess", SETUP_REQUEST, parent, |_| {
                GraphContext::preprocess(graph.clone()).expect("BA graph is ergodic")
            });
            let handle = tracer.span("server.spawn", SETUP_REQUEST, parent, |_| {
                spawn_server(context, &p)
            });
            tracer.span("http.bind", SETUP_REQUEST, parent, |_| {
                HttpServer::bind(handle, HttpConfig::default()).expect("binding loopback")
            })
        },
        HttpServer::shutdown,
    );
    out.note("setup_runs_s", format!("{setups:?}"));
    let context = http.handle().service().context().clone();
    // An in-process twin with its own cache: the bit-identity reference.
    let twin =
        ResistanceService::from_context(context, approx()).with_cache_capacity(p.cache_capacity);
    let mut mix = PairMix::new(ctx, &p, graph.num_nodes());
    let addr = http.local_addr();

    // Gate, untimed: wire values bit-identical to in-process submits, and a
    // few pairs within ε of CG.
    let gate_pairs: Vec<(usize, usize)> = (0..p.gate_pairs).map(|_| mix.draw()).collect();
    let gate = exchange_closed(addr, &gate_pairs);
    wire_identity(&mut out, "gate", &gate_pairs, &gate, &twin, 1);
    let mut distinct = gate_pairs.clone();
    distinct.sort_unstable();
    distinct.dedup();
    distinct.truncate(p.reference_pairs);
    let reference = cg_reference(&graph, &distinct, ctx);
    let answers: Vec<Option<f64>> = distinct
        .iter()
        .map(|&(s, t)| twin.submit(&pair_request(s, t)).ok().map(|r| r.value()))
        .collect();
    check_epsilon(&mut out, "gate", &distinct, &answers, &reference);
    if !out.correct() {
        http.shutdown();
        return out;
    }

    if ctx.trace {
        out.set("core.preprocess_s", setup_s, 1);
        traced_run(&mut out, ctx, &p, &tracer, http, &twin, &mut mix, &graph);
        return out;
    }
    out.set("setup_s", setup_s, setups.len() as u64);

    // Timed closed loop over one keep-alive connection, with calibration
    // slices between requests.
    let pairs: Vec<(usize, usize)> = (0..ctx.requests(PACE)).map(|_| mix.draw()).collect();
    let mut marks = Vec::with_capacity(pairs.len());
    let replies = closed_loop(addr, &pair_requests(&pairs), || marks.push(cal.between()));
    http.shutdown();
    for (_, reply) in &replies {
        out.count(reply.as_ref().is_some_and(|r| r.ok()));
    }
    let hits = replies
        .iter()
        .filter(|(_, r)| r.as_ref().is_some_and(|r| r.cache_hits > 0))
        .count();
    out.note("cache_hit_share", hits as f64 / replies.len() as f64);

    // Untimed: a spread sample of the timed replies against in-process
    // submits.
    wire_identity(
        &mut out,
        "timed",
        &pairs,
        &replies,
        &twin,
        (pairs.len() / p.checked).max(1),
    );

    let service_s: Vec<f64> = replies.iter().map(|(rtt, _)| *rtt).collect();
    closed_loop_metrics(&mut out, &service_s, &marks, &cal);
    out
}

/// Round trips of `pairs` over one connection, in order.
fn exchange_closed(
    addr: std::net::SocketAddr,
    pairs: &[(usize, usize)],
) -> Vec<(f64, Option<Reply>)> {
    closed_loop(addr, &pair_requests(pairs), || {})
}

fn pair_requests(pairs: &[(usize, usize)]) -> Vec<Vec<u8>> {
    pairs
        .iter()
        .map(|&(s, t)| pair_bytes(s, t, EPSILON, None))
        .collect()
}

/// Counts every `step`-th reply against an in-process submit of the same
/// request: values must agree bit for bit.
fn wire_identity(
    out: &mut Outcome,
    what: &str,
    pairs: &[(usize, usize)],
    replies: &[(f64, Option<Reply>)],
    twin: &ResistanceService,
    step: usize,
) {
    for (i, (&(s, t), (_, reply))) in pairs.iter().zip(replies).enumerate().step_by(step) {
        let wire = reply.as_ref().and_then(|r| r.value);
        let local = twin.submit(&pair_request(s, t)).ok().map(|r| r.value());
        let same = matches!((wire, local), (Some(a), Some(b)) if a.to_bits() == b.to_bits());
        out.gate(same, || {
            format!("{what} {i}: r({s},{t}) over HTTP {wire:?}, in-process {local:?}")
        });
    }
}

/// One open-loop pass: Poisson arrivals at `rate` over [`CONNS`]
/// keep-alive connections, each request timed from when it fell due.
struct Pass {
    pairs: Vec<(usize, usize)>,
    exchanges: Vec<Exchange>,
    /// When the pass began; exchange times count from here.
    start: Instant,
    /// Client root span of each request (`ROOT` when untraced).
    roots: Vec<u32>,
}

impl Pass {
    /// Sends `count` requests at `rate` to `addr`. With `traced` set, every
    /// other request carries its id (`first_id` + position) and a reserved
    /// root span for the traced front end. `after_send` runs after each
    /// request is written.
    #[allow(clippy::too_many_arguments)]
    fn run(
        addr: std::net::SocketAddr,
        mix: &mut PairMix,
        rng: &mut Rng,
        rate: f64,
        count: usize,
        traced: Option<(&Tracer, u64)>,
        after_send: &(dyn Fn() + Sync),
    ) -> Pass {
        let due = poisson_schedule(rng, rate, count);
        let pairs: Vec<(usize, usize)> = (0..count).map(|_| mix.draw()).collect();
        let roots: Vec<u32> = (0..count)
            .map(|i| match traced {
                Some((tracer, _)) if i % 2 == 0 => tracer.reserve(),
                _ => ROOT,
            })
            .collect();
        let requests: Vec<(f64, Vec<u8>)> = due
            .iter()
            .zip(&pairs)
            .enumerate()
            .map(|(i, (&d, &(s, t)))| {
                let ids = traced
                    .filter(|_| i % 2 == 0)
                    .map(|(_, first_id)| (first_id + i as u64, roots[i]));
                (d, pair_bytes(s, t, EPSILON, ids))
            })
            .collect();
        let start = Instant::now();
        let exchanges = open_loop(addr, &requests, CONNS, start, after_send);
        Pass {
            pairs,
            exchanges,
            start,
            roots,
        }
    }

    fn ok(&self, i: usize) -> bool {
        self.exchanges[i].reply.as_ref().is_some_and(|r| r.ok())
    }

    fn hit(&self, i: usize) -> bool {
        self.exchanges[i]
            .reply
            .as_ref()
            .is_some_and(|r| r.cache_hits > 0)
    }

    fn latencies_s(&self) -> Vec<f64> {
        self.exchanges.iter().map(Exchange::latency_s).collect()
    }

    /// Whether the latency objective held: every request answered, p99 at
    /// most [`SLO_P99_S`], and a backlog that did not grow — the median
    /// latency of the pass's last tenth also within [`SLO_P99_S`].
    fn meets_slo(&self) -> bool {
        let latencies = self.latencies_s();
        let tail = &latencies[latencies.len() - (latencies.len() / 10).max(1)..];
        (0..self.exchanges.len()).all(|i| self.ok(i))
            && stats::quantile(&latencies, 0.99) <= SLO_P99_S
            && stats::median(tail) <= SLO_P99_S
    }
}

/// The highest open-loop rate at which the latency objective holds on
/// `HttpServer`, searched with real passes from `lo`, a rate where it held
/// (0 if none is known), and `hi`, one where it did not: with no `hi`, the
/// rate doubles from `lo` until a pass misses the objective; then the
/// bracket halves to [`RATE_RESOLUTION`] of `hi`. A search pass sends
/// the larger of 2 s of arrivals and half the requests of a timed phase, so
/// its p99 has at least five samples beyond it. Returns the rate and the
/// passes it took.
fn search_max_rate(
    ctx: &Ctx,
    addr: std::net::SocketAddr,
    mix: &mut PairMix,
    rng: &mut Rng,
    mut lo: f64,
    hi: Option<f64>,
) -> (f64, usize) {
    let pass_s = if ctx.full() { 2.0 } else { 0.25 };
    let mut passes = 0;
    let mut holds = |rate: f64| {
        passes += 1;
        let count = (ctx.min_requests() / 2).max((rate * pass_s) as usize);
        Pass::run(addr, mix, rng, rate, count, None, &|| {}).meets_slo()
    };
    let mut hi = match hi {
        Some(hi) => hi,
        None => {
            while holds(2.0 * lo) {
                lo *= 2.0;
            }
            2.0 * lo
        }
    };
    while hi - lo > RATE_RESOLUTION * hi {
        let mid = 0.5 * (lo + hi);
        if holds(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    (lo, passes)
}

/// The traced run. Against `HttpServer` itself, after a cache warm-up:
/// open-loop passes at the fixed low and high rates, the search for the highest rate meeting the
/// latency objective and a closed loop over one connection. Then the
/// traced front end serves one shorter pass at each rate for the per-span
/// breakdown, and the server-overhead, plan, GEER and SpMV probes run.
#[allow(clippy::too_many_arguments)]
fn traced_run(
    out: &mut Outcome,
    ctx: &Ctx,
    p: &Params,
    tracer: &Arc<Tracer>,
    http: HttpServer,
    twin: &ResistanceService,
    mix: &mut PairMix,
    graph: &Graph,
) {
    let rates = if ctx.full() { RATES } else { (100.0, 300.0) };
    out.note("rate_low_rps", rates.0);
    out.note("rate_high_rps", rates.1);
    out.note("slo_p99_ms", SLO_P99_S * 1e3);
    let mut rng = ctx.rng(4);
    let handle = http.handle().clone();
    let addr = http.local_addr();

    // Warm the cache with as many requests as it holds, so the passes
    // below see the steady hit share the timed closed loop reaches.
    let warm: Vec<(usize, usize)> = (0..p.cache_capacity).map(|_| mix.draw()).collect();
    for (_, reply) in exchange_closed(addr, &warm) {
        out.count(reply.is_some_and(|r| r.ok()));
    }

    // Open loop at the fixed rates, on HttpServer.
    let pending_max = AtomicUsize::new(0);
    let sample_pending = || {
        pending_max.fetch_max(handle.pending(), Ordering::Relaxed);
    };
    let before = handle.stats();
    let low = Pass::run(
        addr,
        mix,
        &mut rng,
        rates.0,
        pass_size(ctx, rates.0),
        None,
        &sample_pending,
    );
    let high = Pass::run(
        addr,
        mix,
        &mut rng,
        rates.1,
        pass_size(ctx, rates.1),
        None,
        &sample_pending,
    );
    let after = handle.stats();
    let mut tally = ResponseTally::default();
    let mut lag = Vec::new();
    for (pass, p50, p99) in [
        (&low, "open_loop.p50_ms.low", "open_loop.p99_ms.low"),
        (&high, "open_loop.p50_ms.high", "open_loop.p99_ms.high"),
    ] {
        for (i, e) in pass.exchanges.iter().enumerate() {
            out.count(pass.ok(i));
            lag.push(e.sent_s - e.due_s);
            if let Some(r) = &e.reply {
                tally.add_parts(r.backend, r.cache_hits, r.backend_calls);
            }
        }
        let latencies = pass.latencies_s();
        let n = latencies.len() as u64;
        out.set(p50, stats::median(&latencies) * 1e3, n);
        out.set(p99, stats::quantile(&latencies, 0.99) * 1e3, n);
    }
    out.set(
        "loadgen.lag_p99_ms",
        stats::quantile(&lag, 0.99) * 1e3,
        lag.len() as u64,
    );
    tally.report(out);
    let submitted = (after.submitted - before.submitted).max(1);
    let completed = (after.completed - before.completed).max(1);
    out.set(
        "server.coalesced_share",
        (after.coalesced_requests - before.coalesced_requests) as f64 / completed as f64,
        completed,
    );
    out.set(
        "server.attached_share",
        (after.attached_running - before.attached_running) as f64 / submitted as f64,
        submitted,
    );
    out.set(
        "server.pending_max",
        pending_max.load(Ordering::Relaxed) as f64,
        submitted,
    );
    // Wire identity on a spread sample of both passes.
    for (name, pass) in [("low", &low), ("high", &high)] {
        let replies: Vec<(f64, Option<Reply>)> = pass
            .exchanges
            .iter()
            .map(|e| (0.0, e.reply.clone()))
            .collect();
        let step = (pass.pairs.len() / p.checked).max(1);
        wire_identity(out, name, &pass.pairs, &replies, twin, step);
    }

    // The fixed-rate passes bracket the search.
    let (lo, hi) = match (low.meets_slo(), high.meets_slo()) {
        (_, true) => (rates.1, None),
        (true, false) => (rates.0, Some(rates.1)),
        (false, false) => (0.0, Some(rates.0)),
    };
    let (max_rate, passes) = search_max_rate(ctx, addr, mix, &mut rng, lo, hi);
    out.set("open_loop.max_rate_rps", max_rate, passes as u64);
    let closed_pairs: Vec<(usize, usize)> = (0..ctx.min_requests()).map(|_| mix.draw()).collect();
    let round_trips: Vec<f64> = exchange_closed(addr, &closed_pairs)
        .into_iter()
        .map(|(rtt, _)| rtt)
        .collect();
    closed_loop_tails(out, &round_trips);
    http.shutdown();

    // The per-span breakdown: one shorter pass at each rate through the
    // traced front end, every other request traced.
    let front = TracedFrontEnd::bind(handle.clone(), Arc::clone(tracer), 2 * CONNS)
        .expect("binding loopback");
    let count = ctx.min_requests() / 2;
    let traced_passes = [
        (
            "low",
            0u64,
            Pass::run(
                front.addr,
                mix,
                &mut rng,
                rates.0,
                count,
                Some((tracer, 0)),
                &|| {},
            ),
        ),
        (
            "high",
            1 << 32,
            Pass::run(
                front.addr,
                mix,
                &mut rng,
                rates.1,
                count,
                Some((tracer, 1 << 32)),
                &|| {},
            ),
        ),
    ];
    front.join();

    let (mut traced_s, mut untraced_s) = (Vec::new(), Vec::new());
    let mut class: HashMap<u64, &'static str> = HashMap::new();
    for (name, first_id, pass) in &traced_passes {
        for (i, e) in pass.exchanges.iter().enumerate() {
            let ok = pass.ok(i);
            out.count(ok);
            if !ok {
                continue;
            }
            let id = first_id + i as u64;
            if i % 2 == 0 {
                let at = |s: f64| pass.start + Duration::from_secs_f64(s);
                tracer.record_as(
                    pass.roots[i],
                    "client.request",
                    id,
                    ROOT,
                    at(e.due_s),
                    at(e.done_s),
                );
                tracer.record("client.queue", id, pass.roots[i], at(e.due_s), at(e.sent_s));
                class.insert(
                    id,
                    match (*name, pass.hit(i)) {
                        ("low", true) => "low rate, hit",
                        ("low", false) => "low rate, miss",
                        (_, true) => "high rate, hit",
                        (_, false) => "high rate, miss",
                    },
                );
                if *name == "low" {
                    traced_s.push(e.latency_s());
                }
            } else if *name == "low" {
                untraced_s.push(e.latency_s());
            }
        }
    }
    overhead_share(out, &traced_s, &untraced_s);

    server_overhead(out, p, mix, twin.context());
    plan_probe(out, tracer, twin, &traced_passes[0].2.pairs);
    let misses: Vec<(usize, usize)> = (0..low.pairs.len())
        .filter(|&i| low.ok(i) && !low.hit(i))
        .map(|i| low.pairs[i])
        .take(p.probe_pairs)
        .collect();
    geer_probe(out, tracer, twin.context(), &misses, 1 << 40);
    spmv_probe(out, graph, 20);
    drop(handle);

    // Give the socket legs an owner: from the client's write to the front
    // end's parse (transfer, connection-thread wake-up and the wait behind
    // earlier requests on the same connection), and from the front end's
    // write to the client's read.
    let mut server_side: HashMap<u64, (Option<u64>, Option<u64>)> = HashMap::new();
    for span in tracer.snapshot() {
        match span.name {
            "http.parse_request" => {
                server_side.entry(span.request).or_default().0 = Some(span.start_ns)
            }
            "conn.write" => server_side.entry(span.request).or_default().1 = Some(span.end_ns),
            _ => {}
        }
    }
    for (_, first_id, pass) in &traced_passes {
        for (i, e) in pass.exchanges.iter().enumerate() {
            let id = first_id + i as u64;
            if let (Some(&(Some(parse), Some(written))), true) =
                (server_side.get(&id), class.contains_key(&id))
            {
                let at = |s: f64| pass.start + Duration::from_secs_f64(s);
                tracer.record(
                    "conn.queued",
                    id,
                    pass.roots[i],
                    at(e.sent_s),
                    tracer.instant(parse),
                );
                tracer.record(
                    "conn.reply",
                    id,
                    pass.roots[i],
                    tracer.instant(written),
                    at(e.done_s),
                );
            }
        }
    }
    let analysis = Analysis::new(tracer.take());
    let ticket: HashMap<u64, f64> = analysis
        .spans
        .iter()
        .filter(|s| s.name == "server.ticket")
        .map(|s| (s.request, s.duration_ns() as f64 * 1e-9))
        .collect();
    let mut wire = Vec::new();
    for (_, first_id, pass) in &traced_passes {
        for (i, e) in pass.exchanges.iter().enumerate() {
            if let Some(t) = ticket.get(&(first_id + i as u64)) {
                wire.push((e.done_s - e.sent_s) - t);
            }
        }
    }
    let traced_n = class.len() as u64;
    out.set("http.wire_us", stats::mean(&wire) * 1e6, wire.len() as u64);
    out.set(
        "http.parse_us",
        (analysis.mean_s("http.parse_request") + analysis.mean_s("api.parse_query_body")) * 1e6,
        traced_n,
    );
    out.set(
        "http.render_us",
        (analysis.mean_s("api.render_response") + analysis.mean_s("http.write_response")) * 1e6,
        traced_n,
    );
    out.set(
        "trace.unattributed_share",
        analysis.unattributed_share("client.request"),
        traced_n,
    );
    let setup_fall = analysis.waterfall("setup", |_| Some("setup"));
    let request_fall = analysis.waterfall("client.request", |id| class.get(&id).copied());
    let probe_fall = analysis.waterfall("probe", |_| Some("geer"));
    finish_trace(
        out,
        ctx,
        "http_zipf",
        &analysis,
        &[setup_fall, request_fall, probe_fall],
    );
    zero_unexercised(out);
}

/// `ResistanceService::plan` of each of `pairs` on the server's twin, each
/// in a `service.plan` span, outside any request.
fn plan_probe(
    out: &mut Outcome,
    tracer: &Tracer,
    twin: &ResistanceService,
    pairs: &[(usize, usize)],
) {
    for (i, &(s, t)) in pairs.iter().enumerate() {
        let request = pair_request(s, t);
        tracer.span("service.plan", (1 << 48) + i as u64, ROOT, |_| {
            std::hint::black_box(twin.plan(&request))
        });
    }
    let plans = tracer.snapshot();
    let durations: Vec<f64> = plans
        .iter()
        .filter(|s| s.name == "service.plan")
        .map(|s| s.duration_ns() as f64 * 1e-9)
        .collect();
    out.set(
        "service.plan_us",
        stats::mean(&durations) * 1e6,
        durations.len() as u64,
    );
}

/// Ticket round trip through a one-worker server minus a direct `submit`
/// of the same request, on two fresh services fed the same sequence (so
/// both see the same cache hits and misses); the median difference.
fn server_overhead(out: &mut Outcome, p: &Params, mix: &mut PairMix, context: &GraphContext) {
    let server = spawn_server(context.clone(), p);
    let direct = ResistanceService::from_context(context.clone(), approx())
        .with_cache_capacity(p.cache_capacity);
    let mut diffs = Vec::with_capacity(p.overhead_requests);
    for _ in 0..p.overhead_requests {
        let (s, t) = mix.draw();
        let request: Request = pair_request(s, t);
        let start = Instant::now();
        let via_ticket = server
            .submit(request.clone())
            .and_then(|ticket| ticket.wait());
        let ticket_s = start.elapsed().as_secs_f64();
        let start = Instant::now();
        let alone = direct.submit(&request);
        let direct_s = start.elapsed().as_secs_f64();
        let same = matches!((&via_ticket, &alone), (Ok(a), Ok(b)) if a.value().to_bits() == b.value().to_bits());
        out.gate(same, || {
            format!("server overhead probe r({s},{t}): ticket {via_ticket:?} vs direct {alone:?}")
        });
        diffs.push(ticket_s - direct_s);
    }
    out.set(
        "server.overhead_us",
        stats::median(&diffs) * 1e6,
        diffs.len() as u64,
    );
}
