//! Wait-free power-of-two histograms.
//!
//! Recording a value is three relaxed `fetch_add`s (count, sum, bucket) —
//! no CAS loops, no locks, no ordering constraints — so a histogram can sit
//! on a sampled transaction hot path. Bucket *i* ≥ 1 covers values in
//! `[2^(i-1), 2^i)`; bucket 0 holds exact zeros; the top bucket absorbs
//! everything `≥ 2^62`. Quantiles therefore resolve to a power of two —
//! plenty for latency reporting (p50/p99 within 2×), and what buys the
//! wait-free record path.

use core::sync::atomic::{AtomicU64, Ordering};

/// Number of buckets in a [`Histogram`] (and a [`HistSnapshot`]).
pub const HIST_BUCKETS: usize = 64;

/// Maps a value to its bucket index.
#[inline]
fn bucket_of(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        ((64 - v.leading_zeros()) as usize).min(HIST_BUCKETS - 1)
    }
}

/// Inclusive upper bound of bucket `i` (the Prometheus `le` boundary).
/// The top bucket has no finite bound and reports `u64::MAX`.
#[inline]
pub(crate) fn bucket_bound(i: usize) -> u64 {
    if i >= HIST_BUCKETS - 1 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

/// A concurrent histogram: 64 power-of-two buckets plus total count and
/// sum, all relaxed atomics. 528 bytes.
#[derive(Debug)]
pub struct Histogram {
    count: AtomicU64,
    sum: AtomicU64,
    buckets: [AtomicU64; HIST_BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            buckets: [0u64; HIST_BUCKETS].map(AtomicU64::new),
        }
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one value. Wait-free: three relaxed `fetch_add`s.
    #[inline]
    pub fn record(&self, v: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
    }

    /// Total recorded values (racy by nature — concurrent records may be
    /// mid-flight).
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Takes a point-in-time copy. Concurrent recording keeps running;
    /// a record that lands mid-snapshot may show in `count` but not yet in
    /// its bucket (or vice versa) — bounded skew, never torn values.
    pub fn snapshot(&self) -> HistSnapshot {
        let mut buckets = [0u64; HIST_BUCKETS];
        for (b, s) in buckets.iter_mut().zip(self.buckets.iter()) {
            *b = s.load(Ordering::Relaxed);
        }
        HistSnapshot {
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            buckets,
        }
    }
}

/// An owned copy of a [`Histogram`]'s state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistSnapshot {
    /// Total recorded values.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: u64,
    /// Per-bucket counts (see the module docs for bucket coverage).
    pub buckets: [u64; HIST_BUCKETS],
}

impl Default for HistSnapshot {
    fn default() -> Self {
        HistSnapshot {
            count: 0,
            sum: 0,
            buckets: [0; HIST_BUCKETS],
        }
    }
}

impl HistSnapshot {
    /// Arithmetic mean of recorded values (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Approximate quantile `q` in `[0, 1]`: the upper bound of the first
    /// bucket at which the cumulative count reaches `q · count`. Resolves
    /// to a power of two; 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let target = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut cum = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            cum += b;
            if cum >= target {
                return bucket_bound(i) as f64;
            }
        }
        bucket_bound(HIST_BUCKETS - 1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_mapping_covers_powers_of_two() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), HIST_BUCKETS - 1);
        // Every bucket's bound is the last value still inside it.
        for i in 1..HIST_BUCKETS - 1 {
            assert_eq!(bucket_of(bucket_bound(i)), i);
            assert_eq!(bucket_of(bucket_bound(i) + 1), i + 1);
        }
    }

    #[test]
    fn quantiles_track_known_distribution() {
        let h = Histogram::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 100);
        assert_eq!(s.sum, 5050);
        // p50 of 1..=100 lands in the [33..64] bucket (cum 64 ≥ 50).
        assert_eq!(s.quantile(0.50), 63.0);
        assert_eq!(s.quantile(0.99), 127.0);
        assert!((s.mean() - 50.5).abs() < 1e-9);
        // Empty histogram degrades to zeros.
        let e = Histogram::new().snapshot();
        assert_eq!(e.quantile(0.50), 0.0);
        assert_eq!(e.mean(), 0.0);
    }

    /// A multi-thread recording storm conserves the total count and the
    /// bucket-sum across concurrent recording.
    #[test]
    fn concurrent_storm_conserves_counts() {
        const THREADS: u64 = 8;
        const PER_THREAD: u64 = 10_000;
        let shared = Histogram::new();
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let shared = &shared;
                s.spawn(move || {
                    let mut x = (t + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                    for _ in 0..PER_THREAD {
                        // xorshift values exercise every bucket range.
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        shared.record(x >> (x % 64) as u32);
                    }
                });
            }
        });
        let s = shared.snapshot();
        assert_eq!(s.count, THREADS * PER_THREAD);
        assert_eq!(
            s.buckets.iter().sum::<u64>(),
            s.count,
            "every record landed in exactly one bucket"
        );
    }
}
