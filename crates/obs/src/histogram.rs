//! Lock-free log₂-bucketed histograms.
//!
//! Bucket `0` holds the value `0`; bucket `b ≥ 1` holds values in
//! `[2^(b-1), 2^b)`, so bucket `b = 64 − leading_zeros(v)`. 65 buckets
//! cover the whole `u64` range. Recording is one `fetch_add` per cell
//! plus min/max maintenance — no locks on the hot path.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const BUCKETS: usize = 65;

#[derive(Debug)]
struct Inner {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

/// A named log-scale histogram. Cheap to clone; all clones share the
/// same cells. Recording respects the global enable flag.
#[derive(Clone, Debug)]
pub struct Histogram {
    inner: Arc<Inner>,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            inner: Arc::new(Inner {
                buckets: std::array::from_fn(|_| AtomicU64::new(0)),
                count: AtomicU64::new(0),
                sum: AtomicU64::new(0),
                min: AtomicU64::new(u64::MAX),
                max: AtomicU64::new(0),
            }),
        }
    }
}

fn bucket_of(v: u64) -> usize {
    (64 - v.leading_zeros()) as usize
}

/// Inclusive upper bound of a bucket, used for quantile estimates.
fn bucket_upper(b: usize) -> u64 {
    if b == 0 {
        0
    } else if b >= 64 {
        u64::MAX
    } else {
        (1u64 << b) - 1
    }
}

impl Histogram {
    /// Records one observation (no-op while recording is disabled).
    #[inline]
    pub fn record(&self, v: u64) {
        if !crate::enabled() {
            return;
        }
        let inner = &*self.inner;
        inner.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        inner.count.fetch_add(1, Ordering::Relaxed);
        inner.sum.fetch_add(v, Ordering::Relaxed);
        inner.min.fetch_min(v, Ordering::Relaxed);
        inner.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Takes a consistent-enough point-in-time copy of the cells.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let inner = &*self.inner;
        let count = inner.count.load(Ordering::Relaxed);
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| inner.buckets[i].load(Ordering::Relaxed)),
            count,
            sum: inner.sum.load(Ordering::Relaxed),
            min: if count == 0 { 0 } else { inner.min.load(Ordering::Relaxed) },
            max: inner.max.load(Ordering::Relaxed),
        }
    }

    pub(crate) fn reset(&self) {
        let inner = &*self.inner;
        for b in &inner.buckets {
            b.store(0, Ordering::Relaxed);
        }
        inner.count.store(0, Ordering::Relaxed);
        inner.sum.store(0, Ordering::Relaxed);
        inner.min.store(u64::MAX, Ordering::Relaxed);
        inner.max.store(0, Ordering::Relaxed);
    }
}

/// Point-in-time copy of one histogram's cells.
#[derive(Clone, Debug)]
pub struct HistogramSnapshot {
    /// Per-bucket observation counts (`buckets[0]` = value 0,
    /// `buckets[b]` = values in `[2^(b-1), 2^b)`).
    pub buckets: [u64; BUCKETS],
    /// Total observations.
    pub count: u64,
    /// Sum of all observed values (wrapping on overflow).
    pub sum: u64,
    /// Smallest observed value (0 when empty).
    pub min: u64,
    /// Largest observed value (0 when empty).
    pub max: u64,
}

impl HistogramSnapshot {
    /// Arithmetic mean of the observations (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Estimates the `q`-quantile (`0.0 ..= 1.0`) as the upper bound of
    /// the bucket containing the `ceil(q·count)`-th observation —
    /// accurate to within one power of two.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (b, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_upper(b).min(self.max);
            }
        }
        self.max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_partition_the_u64_range() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 64);
        for b in 1..64 {
            assert_eq!(bucket_of(bucket_upper(b)), b);
            assert_eq!(bucket_of(bucket_upper(b) + 1), b + 1);
        }
    }

    #[test]
    fn snapshot_reflects_recordings() {
        let _enabled = crate::lock_enabled();
        crate::set_enabled(true);
        let h = Histogram::default();
        for v in [0, 1, 1, 7, 100] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 5);
        assert_eq!(s.sum, 109);
        assert_eq!(s.min, 0);
        assert_eq!(s.max, 100);
        assert_eq!(s.buckets[0], 1); // the single 0
        assert_eq!(s.buckets[1], 2); // the two 1s
        assert_eq!(s.buckets[3], 1); // 7 ∈ [4, 8)
        assert_eq!(s.buckets[7], 1); // 100 ∈ [64, 128)
        assert!((s.mean() - 21.8).abs() < 1e-9);
    }

    #[test]
    fn quantiles_are_bucket_accurate() {
        let _enabled = crate::lock_enabled();
        crate::set_enabled(true);
        let h = Histogram::default();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let s = h.snapshot();
        let p50 = s.quantile(0.5);
        // The 500th observation lives in [256, 512); the estimate is
        // the bucket's upper bound.
        assert_eq!(p50, 511);
        assert_eq!(s.quantile(1.0), 1000); // clamped to the observed max
        assert_eq!(s.quantile(0.0), 1); // rank clamps to the 1st value
    }
}
