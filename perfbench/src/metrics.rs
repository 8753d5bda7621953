//! The metric catalogue (the names `BENCHMARK.json` lists) and the result
//! a run prints.

use std::collections::BTreeMap;

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better }
}

/// Metrics a user of the serving path sees; every workload reports each
/// one from runs with tracing off.
pub const END_TO_END: &[MetricDef] = &[
    m("setup_s", "s", "lower"),
    m("pairs_per_s", "1/s", "higher"),
    m("p95_ms", "ms", "lower"),
];

/// Metrics of single layers, from the separate traced run. A layer the
/// workload does not exercise reports 0.
pub const PER_LAYER: &[MetricDef] = &[
    m("core.preprocess_s", "s", "lower"),
    m("geer.pair_ms", "ms", "lower"),
    m("geer.smm_ms", "ms", "lower"),
    m("geer.amc_ms", "ms", "lower"),
    m("geer.matvec_ops_per_pair", "count", "lower"),
    m("geer.walk_steps_per_pair", "count", "lower"),
    m("geer.ell_b_mean", "count", "lower"),
    m("geer.amc_early_stop_share", "share", "higher"),
    m("geer.ns_per_op", "ns", "lower"),
    m("walks.ns_per_step", "ns", "lower"),
    m("linalg.spmv_ns_per_nnz", "ns", "lower"),
    m("linalg.cg_iters_per_solve", "count", "lower"),
    m("linalg.sm_updates", "count", "higher"),
    m("linalg.cg_fallbacks", "count", "lower"),
    m("dynamic.mutation_us", "us", "lower"),
    m("dynamic.refresh_ms", "ms", "lower"),
    m("dynamic.full_rebuilds", "count", "lower"),
    m("dynamic.incremental_refreshes", "count", "higher"),
    m("dynamic.mutations_per_s", "1/s", "higher"),
    m("dynamic.post_mutation_p50_ms", "ms", "lower"),
    m("service.plan_us", "us", "lower"),
    m("service.cache_hit_share", "share", "higher"),
    m("service.backend_share.GEER", "share", "higher"),
    m("service.backend_share.EXACT-CG", "share", "higher"),
    m("service.backend_share.SHARD", "share", "higher"),
    m("service.backend_share.other", "share", "lower"),
    m("server.overhead_us", "us", "lower"),
    m("server.coalesced_share", "share", "higher"),
    m("server.attached_share", "share", "higher"),
    m("server.pending_max", "count", "lower"),
    m("http.parse_us", "us", "lower"),
    m("http.render_us", "us", "lower"),
    m("http.wire_us", "us", "lower"),
    m("shard.partition_s", "s", "lower"),
    m("shard.router_build_s", "s", "lower"),
    m("shard.intra_share", "share", "higher"),
    m("shard.escalation_rate", "share", "lower"),
    m("shard.intra_p50_ms", "ms", "lower"),
    m("shard.cross_p50_ms", "ms", "lower"),
    m("shard.intra_full_graph_error", "1", "lower"),
    m("closed_loop.p50_ms", "ms", "lower"),
    m("closed_loop.p99_ms", "ms", "lower"),
    m("open_loop.p50_ms.low", "ms", "lower"),
    m("open_loop.p99_ms.low", "ms", "lower"),
    m("open_loop.p50_ms.high", "ms", "lower"),
    m("open_loop.p99_ms.high", "ms", "lower"),
    m("open_loop.max_rate_rps", "1/s", "higher"),
    m("loadgen.lag_p99_ms", "ms", "lower"),
    m("trace.overhead_share", "share", "lower"),
    m("trace.unattributed_share", "share", "lower"),
];

pub fn catalogue(trace: bool) -> &'static [MetricDef] {
    if trace {
        PER_LAYER
    } else {
        END_TO_END
    }
}

/// One measured value and the number of samples behind it.
#[derive(Clone, Copy, Debug)]
pub struct Measured {
    pub value: f64,
    pub samples: u64,
}

/// What one run found: its correctness accounting, its metrics and the
/// context a result needs to be compared (graph parameters, rates, …).
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Descriptions of correctness-gate failures; any entry makes the run
    /// incorrect.
    pub gate_failures: Vec<String>,
    pub metrics: BTreeMap<&'static str, Measured>,
    pub context: Vec<(&'static str, String)>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64, samples: u64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|d| d.name == name),
            "metric {name} is not in the catalogue"
        );
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.metrics.insert(name, Measured { value, samples });
    }

    pub fn note(&mut self, key: &'static str, value: impl ToString) {
        self.context.push((key, value.to_string()));
    }

    /// Counts one attempted operation, failed or not.
    pub fn count(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Records a correctness-gate failure (it also counts as a failed
    /// attempt).
    pub fn gate(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.count(ok);
        if !ok {
            self.gate_failures.push(what());
        }
    }

    pub fn correct(&self) -> bool {
        self.gate_failures.is_empty() && self.failed == 0
    }

    /// The result line: `correct`, `attempted`, `failed` and the metrics of
    /// the catalogue in catalogue order.
    pub fn result_json(&self, trace: bool) -> String {
        let metrics: Vec<String> = if self.correct() {
            catalogue(trace)
                .iter()
                .map(|d| {
                    let v = self
                        .metrics
                        .get(d.name)
                        .unwrap_or_else(|| panic!("workload did not report metric {}", d.name));
                    format!(
                        "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                        d.name,
                        number(v.value),
                        d.unit
                    )
                })
                .collect()
        } else {
            Vec::new()
        };
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A JSON number with every digit of the value (shortest round trip).
pub fn number(v: f64) -> String {
    let text = format!("{v:?}");
    if text.contains('e') || text.contains('E') {
        format!("{v:e}")
    } else {
        text
    }
}

pub fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_limits() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|d| d.name).collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(d.name.len() <= 64 && d.unit.len() <= 16);
            assert!(d.name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(d.better == "lower" || d.better == "higher");
        }
    }

    #[test]
    fn numbers_keep_every_digit() {
        assert_eq!(number(1.2034), "1.2034");
        assert_eq!(number(0.1 + 0.2), "0.30000000000000004");
        assert_eq!(number(3.0), "3.0");
        assert_eq!(number(1e-7), "1e-7");
    }
}
