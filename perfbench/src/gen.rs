//! Seeded input generation: every workload input is a function of the
//! `--seed` argument alone.

/// SplitMix64, the workspace's seeding primitive.
#[derive(Clone, Debug)]
pub struct Rng {
    state: u64,
}

impl Rng {
    /// A stream for `seed`, separated from other streams of the same seed
    /// by `stream`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng {
            state: seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03),
        };
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }

    /// A uniform pair of distinct nodes of `0..n`.
    pub fn pair(&mut self, n: usize) -> (usize, usize) {
        loop {
            let (s, t) = (self.below(n), self.below(n));
            if s != t {
                return (s, t);
            }
        }
    }

    /// An exponential gap with mean `1 / rate`.
    pub fn exponential(&mut self, rate: f64) -> f64 {
        -(1.0 - self.unit()).ln() / rate
    }
}

/// Uniform pairs of distinct nodes of `0..nodes`, no pair repeated in
/// either orientation.
pub struct DistinctPairs {
    nodes: usize,
    seen: std::collections::HashSet<(usize, usize)>,
}

impl DistinctPairs {
    pub fn new(nodes: usize) -> DistinctPairs {
        DistinctPairs {
            nodes,
            seen: std::collections::HashSet::new(),
        }
    }

    pub fn draw(&mut self, rng: &mut Rng) -> (usize, usize) {
        loop {
            let (s, t) = rng.pair(self.nodes);
            if self.seen.insert((s.min(t), s.max(t))) {
                return (s, t);
            }
        }
    }
}

/// The first `count` pairs of [`DistinctPairs`] over `0..n`.
pub fn distinct_pairs(rng: &mut Rng, n: usize, count: usize) -> Vec<(usize, usize)> {
    let mut pairs = DistinctPairs::new(n);
    (0..count).map(|_| pairs.draw(rng)).collect()
}

/// Zipf(1) over ranks `0..len` by inverse CDF.
pub struct Zipf {
    cumulative: Vec<f64>,
}

impl Zipf {
    pub fn new(len: usize) -> Zipf {
        let mut total = 0.0;
        let cumulative = (0..len)
            .map(|rank| {
                total += 1.0 / (rank as f64 + 1.0);
                total
            })
            .collect();
        Zipf { cumulative }
    }

    pub fn draw(&self, rng: &mut Rng) -> usize {
        let total = *self.cumulative.last().expect("non-empty zipf support");
        let u = rng.unit() * total;
        self.cumulative
            .partition_point(|&c| c < u)
            .min(self.cumulative.len() - 1)
    }
}

/// A Poisson arrival schedule: `count` due times (seconds from the start)
/// at `rate` per second.
pub fn poisson_schedule(rng: &mut Rng, rate: f64, count: usize) -> Vec<f64> {
    let mut t = 0.0;
    (0..count)
        .map(|_| {
            t += rng.exponential(rate);
            t
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_repeat_per_seed_and_differ_across_seeds() {
        let a: Vec<u64> = (0..8)
            .map({
                let mut r = Rng::new(7, 1);
                move |_| r.next_u64()
            })
            .collect();
        let b: Vec<u64> = (0..8)
            .map({
                let mut r = Rng::new(7, 1);
                move |_| r.next_u64()
            })
            .collect();
        let c: Vec<u64> = (0..8)
            .map({
                let mut r = Rng::new(8, 1);
                move |_| r.next_u64()
            })
            .collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn distinct_pairs_are_distinct_and_proper() {
        let pairs = distinct_pairs(&mut Rng::new(3, 0), 50, 400);
        let mut keys: Vec<_> = pairs.iter().map(|&(s, t)| (s.min(t), s.max(t))).collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), 400);
        assert!(pairs.iter().all(|&(s, t)| s != t && s < 50 && t < 50));
    }

    #[test]
    fn zipf_favours_low_ranks_and_stays_in_range() {
        let zipf = Zipf::new(1000);
        let mut rng = Rng::new(5, 0);
        let draws: Vec<usize> = (0..10_000).map(|_| zipf.draw(&mut rng)).collect();
        assert!(draws.iter().all(|&d| d < 1000));
        let top = draws.iter().filter(|&&d| d == 0).count();
        let tail = draws.iter().filter(|&&d| d == 999).count();
        assert!(top > 20 * tail.max(1));
    }

    #[test]
    fn poisson_schedule_has_the_requested_rate() {
        let due = poisson_schedule(&mut Rng::new(9, 0), 200.0, 20_000);
        let rate = due.len() as f64 / due.last().unwrap();
        assert!((rate - 200.0).abs() < 10.0, "rate {rate}");
        assert!(due.windows(2).all(|w| w[0] < w[1]));
    }
}
