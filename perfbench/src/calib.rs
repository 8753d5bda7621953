//! Machine-speed calibration of the timed loops.
//!
//! The benchmark runs on virtual machines whose speed drifts by tens of
//! percent over minutes: other tenants contend for the shared cores,
//! caches and memory bandwidth, and consecutive runs are slow or fast
//! together. Longer runs do not average that out. So the untraced runs
//! interleave short slices of a fixed reference kernel with the timed
//! requests and divide each request's latency by the slowdown its
//! neighbouring slices measured against the kernel's nominal times. The
//! slowdown is a mean, not a median: a slice the scheduler preempted or
//! whose virtual CPU was stolen reads long, and so would the requests
//! around it.
//!
//! The kernel is the benchmark's own code on its own copy of the workload
//! graph, so no change to the program moves it. It has two parts, timed
//! apart and weighted equally: a dependent floating-point chain (core
//! speed, and a sibling hardware thread competing for the core) and a
//! rotating slice of an averaging sparse matrix-vector product over the
//! graph (caches and memory). Together they tracked the serving path's
//! speed under contention far better than either alone or than random
//! walks. A slice runs between two requests, never inside one.

use crate::stats;
use er_graph::Graph;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Iterations of the floating-point chain in one slice.
const CHAIN: u64 = 200_000;
/// Matrix rows one slice multiplies (wrapping around the graph).
const ROWS: usize = 10_000;
/// Least time between two slices of a timed loop.
const EVERY: Duration = Duration::from_millis(25);
/// Slices on each side of a request whose means give its slowdown (about
/// 0.4 s of a timed loop each way).
const NEIGHBOURS: usize = 16;
/// Nominal time of the chain (its typical time on the 2-vCPU Intel Xeon machine
/// the benchmark was built on).
pub const CHAIN_NOMINAL_S: f64 = 0.57e-3;

pub struct Calibrator {
    enabled: bool,
    /// Nominal time of `ROWS` rows of the product on this graph.
    rows_nominal_s: f64,
    offsets: Vec<usize>,
    targets: Vec<usize>,
    x: Vec<f64>,
    y: Vec<f64>,
    row: usize,
    last: Option<Instant>,
    chain_s: Vec<f64>,
    rows_s: Vec<f64>,
}

impl Calibrator {
    /// A calibrator over its own copy of `graph`, on which `ROWS` rows of
    /// the product take `rows_nominal_s` seconds on the reference machine.
    /// A disabled calibrator (traced runs) runs no slice and reports a
    /// slowdown of 1.
    pub fn new(graph: &Graph, rows_nominal_s: f64, enabled: bool) -> Calibrator {
        let (offsets, targets) = graph.csr();
        let nodes = graph.num_nodes();
        Calibrator {
            enabled,
            rows_nominal_s,
            offsets: offsets.to_vec(),
            targets: targets.to_vec(),
            x: vec![1.0; nodes],
            y: vec![0.0; nodes],
            row: 0,
            last: None,
            chain_s: Vec::new(),
            rows_s: Vec::new(),
        }
    }

    /// Runs one slice of the reference kernel and records its two times.
    fn slice(&mut self) {
        let start = Instant::now();
        let mut v = 1.0f64;
        for i in 0..CHAIN {
            v = v * 1.000_000_1 + (i & 3) as f64 * 1e-9;
        }
        black_box(v);
        let chained = Instant::now();
        let nodes = self.x.len();
        for _ in 0..ROWS {
            let i = self.row;
            let (lo, hi) = (self.offsets[i], self.offsets[i + 1]);
            let sum: f64 = self.targets[lo..hi].iter().map(|&j| self.x[j]).sum();
            self.y[i] = sum / (hi - lo).max(1) as f64;
            self.row += 1;
            if self.row == nodes {
                self.row = 0;
                std::mem::swap(&mut self.x, &mut self.y);
            }
        }
        black_box(&self.y);
        let now = Instant::now();
        self.chain_s.push((chained - start).as_secs_f64());
        self.rows_s.push((now - chained).as_secs_f64());
        self.last = Some(now);
    }

    /// Call between two timed requests: runs a slice when [`EVERY`] has
    /// passed since the last one. Returns the mark of the request that
    /// follows, for [`slowdown`](Self::slowdown).
    pub fn between(&mut self) -> usize {
        if self.enabled && self.last.is_none_or(|t| t.elapsed() >= EVERY) {
            self.slice();
        }
        self.chain_s.len()
    }

    /// Runs the slices that bracket a set-up: call before and after it.
    /// Returns the mark of what follows, for
    /// [`chain_slowdown`](Self::chain_slowdown).
    pub fn bracket(&mut self) -> usize {
        if self.enabled {
            for _ in 0..NEIGHBOURS {
                self.slice();
            }
        }
        self.chain_s.len()
    }

    /// How much slower than nominal the machine ran around `mark`: the
    /// average of the two parts' slowdowns, each the mean time of the
    /// slices on either side of the mark over its nominal time; 1 when
    /// disabled or before any slice.
    pub fn slowdown(&self, mark: usize) -> f64 {
        let lo = mark.saturating_sub(NEIGHBOURS);
        let hi = (mark + NEIGHBOURS).min(self.chain_s.len());
        if lo >= hi {
            return 1.0;
        }
        self.slowdown_of(&self.chain_s[lo..hi], &self.rows_s[lo..hi])
    }

    /// The chain's slowdown alone around `mark`. Slices that run back to
    /// back find the product's data in cache and so run faster than
    /// slices between requests; the chain holds no data, so its time does
    /// not depend on what ran before it.
    pub fn chain_slowdown(&self, mark: usize) -> f64 {
        let lo = mark.saturating_sub(NEIGHBOURS);
        let hi = (mark + NEIGHBOURS).min(self.chain_s.len());
        if lo >= hi {
            return 1.0;
        }
        stats::mean(&self.chain_s[lo..hi]) / CHAIN_NOMINAL_S
    }

    fn slowdown_of(&self, chain_s: &[f64], rows_s: &[f64]) -> f64 {
        0.5 * (stats::mean(chain_s) / CHAIN_NOMINAL_S + stats::mean(rows_s) / self.rows_nominal_s)
    }

    /// The mean slowdown over the whole run (for the run's record).
    pub fn mean_slowdown(&self) -> f64 {
        if self.chain_s.is_empty() {
            1.0
        } else {
            self.slowdown_of(&self.chain_s, &self.rows_s)
        }
    }

    /// The mean slowdowns of the chain and of the row product over the
    /// whole run.
    pub fn mean_parts(&self) -> (f64, f64) {
        (
            stats::mean(&self.chain_s) / CHAIN_NOMINAL_S,
            stats::mean(&self.rows_s) / self.rows_nominal_s,
        )
    }

    pub fn slices(&self) -> usize {
        self.chain_s.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph() -> Graph {
        er_graph::generators::barabasi_albert(200, 3, 1).unwrap()
    }

    #[test]
    fn a_disabled_calibrator_runs_nothing() {
        let mut cal = Calibrator::new(&graph(), 1e-3, false);
        assert_eq!(cal.between(), 0);
        assert_eq!(cal.slices(), 0);
        assert_eq!(cal.slowdown(0), 1.0);
        assert_eq!(cal.mean_slowdown(), 1.0);
    }

    #[test]
    fn slices_run_at_most_every_interval() {
        let mut cal = Calibrator::new(&graph(), 1e-3, true);
        assert_eq!(cal.between(), 1);
        assert_eq!(cal.between(), 1);
        std::thread::sleep(EVERY);
        assert_eq!(cal.between(), 2);
        assert!(cal.slowdown(1) > 0.0);
    }

    #[test]
    fn slowdown_averages_the_neighbouring_means() {
        let mut cal = Calibrator::new(&graph(), 2.0, true);
        cal.chain_s = (0..40)
            .map(|i| if i < 20 { 1.0 } else { 3.0 } * CHAIN_NOMINAL_S)
            .collect();
        cal.rows_s = vec![4.0; 40];
        // Around mark 20: slices 4..36, half at 1 and half at 3 times the
        // nominal chain time; the rows take twice their nominal 2.
        assert!((cal.chain_slowdown(20) - 2.0).abs() < 1e-12);
        assert!((cal.slowdown(20) - 2.0).abs() < 1e-12);
        // Near the start only the slices after the mark count.
        assert!((cal.chain_slowdown(0) - 1.0).abs() < 1e-12);
        assert_eq!(cal.slowdown(100), 1.0);
    }
}
