//! Log-bucketed latency histogram.
//!
//! Latencies in these experiments span five orders of magnitude (a few µs up
//! to hundreds of ms), so a linear histogram is hopeless and storing raw
//! samples is wasteful for multi-million-I/O runs. [`LatencyHistogram`] uses
//! the HdrHistogram bucketing scheme: values are grouped by binary order of
//! magnitude, each split into `2^precision_bits` sub-buckets, which bounds
//! the relative quantization error by `2^-precision_bits`.
//!
//! # Storage layout
//!
//! Order 0 holds the values `0..128` exactly, one sub-bucket each. A value
//! of order ≥ 1 has its top bit above bit 6, so `ns >> order` always lands
//! in the upper half `64..128` of the sub-bucket range: the lower half of
//! every order ≥ 1 can never hold a sample. The counts therefore live in
//! one flat `Vec<u64>` indexed by `(order << 6) + sub`. Order 0 keeps its
//! 128 slots (`0..128`), and order `k ≥ 1` keeps only its 64 populated
//! slots (`(k + 1) · 64 .. (k + 2) · 64`). The flat index is monotone in
//! the value, so a walk over it visits buckets in the same order as a walk
//! over `[order][sub]` with the empty halves removed.
//!
//! The vector stores only the 64-slot blocks that span the flat indices
//! actually recorded: `counts[i]` is bucket `base + i`, where `base` and
//! the length are multiples of 64. A tenant whose latencies span
//! 100 µs–10 ms keeps 512 counters (4 KiB) instead of 18 orders × 128
//! (18 KiB). The range grows a block or more at a time through
//! `Vec::resize`, so growth is amortised, and `merge` adds over aligned
//! ranges.
//!
//! The layout is exact: a percentile walk stops at the first bucket whose
//! running count reaches the rank, and an empty bucket leaves the running
//! count unchanged, so no empty bucket — stored or dropped — can be where
//! a walk stops. Every query returns what the `[order][sub]` layout
//! returns (an oracle property in `tests/proptests.rs` holds both to it).

use simkit::SimDuration;

/// Number of sub-bucket bits; relative error ≤ 2⁻⁷ ≈ 0.8 %.
const PRECISION_BITS: u32 = 7;
const SUB_BUCKETS: usize = 1 << PRECISION_BITS;
/// Populated sub-buckets per order ≥ 1 (the upper half); also the
/// alignment of the stored range's `base`.
const HALF: usize = SUB_BUCKETS / 2;

/// A histogram of [`SimDuration`] samples with ~0.8 % relative error.
///
/// # Examples
///
/// ```
/// use dd_metrics::LatencyHistogram;
/// use simkit::SimDuration;
///
/// let mut h = LatencyHistogram::new();
/// for us in 1..=1000u64 {
///     h.record(SimDuration::from_micros(us));
/// }
/// let p50 = h.percentile(50.0).as_micros_f64();
/// assert!((p50 - 500.0).abs() / 500.0 < 0.02);
/// ```
#[derive(Clone, Debug)]
pub struct LatencyHistogram {
    /// `counts[i]` counts the samples in flat bucket `base + i` (see the
    /// module docs for the flat index).
    counts: Vec<u64>,
    /// Flat index of `counts[0]`; a multiple of [`HALF`], as is
    /// `counts.len()`.
    base: usize,
    total: u64,
    sum_ns: u128,
    min_ns: u64,
    max_ns: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        LatencyHistogram {
            counts: Vec::new(),
            base: 0,
            total: 0,
            sum_ns: 0,
            min_ns: u64::MAX,
            max_ns: 0,
        }
    }

    /// Maps a value to its flat bucket index `(order << 6) + sub`.
    fn index_of(ns: u64) -> usize {
        if ns < SUB_BUCKETS as u64 {
            return ns as usize;
        }
        // Highest bit position above the sub-bucket range decides the order.
        let order = (63 - ns.leading_zeros()) as usize - (PRECISION_BITS as usize - 1);
        // For order ≥ 1 only the top half of the sub-buckets
        // [SUB_BUCKETS/2, SUB_BUCKETS) is populated, as in HdrHistogram.
        let sub = (ns >> order) as usize;
        debug_assert!((HALF..SUB_BUCKETS).contains(&sub));
        (order << 6) + sub
    }

    /// Reconstructs a representative value (bucket midpoint) from a flat
    /// index.
    fn value_of(idx: usize) -> u64 {
        if idx < SUB_BUCKETS {
            return idx as u64;
        }
        let order = (idx >> 6) - 1;
        let lower = ((HALF + idx % HALF) as u64) << order;
        // Midpoint of the bucket span to halve the max error.
        lower + (1u64 << order) / 2
    }

    /// Widens the stored range to whole [`HALF`]-slot blocks covering flat
    /// indices `lo..hi`. Growth at either end goes through `Vec::resize`,
    /// so it is amortised.
    #[cold]
    fn cover(&mut self, lo: usize, hi: usize) {
        let lo = lo - lo % HALF;
        if self.counts.is_empty() {
            self.base = lo;
        } else if lo < self.base {
            let shift = self.base - lo;
            let len = self.counts.len();
            self.counts.resize(len + shift, 0);
            self.counts.copy_within(0..len, shift);
            self.counts[..shift].fill(0);
            self.base = lo;
        }
        let hi = hi.next_multiple_of(HALF);
        if hi - self.base > self.counts.len() {
            self.counts.resize(hi - self.base, 0);
        }
    }

    /// Records one sample.
    pub fn record(&mut self, sample: SimDuration) {
        let ns = sample.as_nanos();
        let idx = Self::index_of(ns);
        // One unsigned compare covers both ends (an index below `base`
        // wraps to a huge offset) and the empty histogram.
        let mut off = idx.wrapping_sub(self.base);
        if off >= self.counts.len() {
            self.cover(idx, idx + 1);
            off = idx - self.base;
        }
        self.counts[off] += 1;
        self.total += 1;
        self.sum_ns += ns as u128;
        self.min_ns = self.min_ns.min(ns);
        self.max_ns = self.max_ns.max(ns);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// True when no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Arithmetic mean of the samples (exact, not quantized).
    pub fn mean(&self) -> SimDuration {
        if self.total == 0 {
            return SimDuration::ZERO;
        }
        SimDuration::from_nanos((self.sum_ns / self.total as u128) as u64)
    }

    /// Smallest recorded sample (exact).
    pub fn min(&self) -> SimDuration {
        if self.total == 0 {
            SimDuration::ZERO
        } else {
            SimDuration::from_nanos(self.min_ns)
        }
    }

    /// Largest recorded sample (exact).
    pub fn max(&self) -> SimDuration {
        SimDuration::from_nanos(self.max_ns)
    }

    /// Value at percentile `p ∈ [0, 100]`, within the quantization error.
    pub fn percentile(&self, p: f64) -> SimDuration {
        if self.total == 0 {
            return SimDuration::ZERO;
        }
        let rank = ((p / 100.0) * self.total as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let v = Self::value_of(self.base + i);
                return SimDuration::from_nanos(v.clamp(self.min_ns, self.max_ns));
            }
        }
        SimDuration::from_nanos(self.max_ns)
    }

    /// Convenience accessors for the percentiles the paper reports.
    pub fn p50(&self) -> SimDuration {
        self.percentile(50.0)
    }

    /// 99th percentile.
    pub fn p99(&self) -> SimDuration {
        self.percentile(99.0)
    }

    /// 99.9th percentile — the paper's headline tail metric.
    pub fn p999(&self) -> SimDuration {
        self.percentile(99.9)
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        if !other.counts.is_empty() {
            let len = other.counts.len();
            self.cover(other.base, other.base + len);
            // Both bases are multiples of HALF, so the ranges align.
            let off = other.base - self.base;
            for (dst, &c) in self.counts[off..off + len].iter_mut().zip(&other.counts) {
                *dst += c;
            }
        }
        self.total += other.total;
        self.sum_ns += other.sum_ns;
        self.min_ns = self.min_ns.min(other.min_ns);
        self.max_ns = self.max_ns.max(other.max_ns);
    }

    /// Clears all samples.
    pub fn reset(&mut self) {
        self.counts.clear();
        self.base = 0;
        self.total = 0;
        self.sum_ns = 0;
        self.min_ns = u64::MAX;
        self.max_ns = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(v: u64) -> SimDuration {
        SimDuration::from_micros(v)
    }

    #[test]
    fn empty_histogram() {
        let h = LatencyHistogram::new();
        assert!(h.is_empty());
        assert_eq!(h.mean(), SimDuration::ZERO);
        assert_eq!(h.percentile(99.0), SimDuration::ZERO);
    }

    #[test]
    fn single_sample_everywhere() {
        let mut h = LatencyHistogram::new();
        h.record(us(123));
        for p in [0.0, 50.0, 99.0, 99.9, 100.0] {
            let v = h.percentile(p).as_micros_f64();
            assert!((v - 123.0).abs() / 123.0 < 0.01, "p{p} = {v}");
        }
        assert_eq!(h.min(), us(123));
        assert_eq!(h.max(), us(123));
    }

    #[test]
    fn mean_is_exact() {
        let mut h = LatencyHistogram::new();
        h.record(us(100));
        h.record(us(300));
        assert_eq!(h.mean(), us(200));
    }

    #[test]
    fn uniform_percentiles() {
        let mut h = LatencyHistogram::new();
        for v in 1..=10_000u64 {
            h.record(SimDuration::from_micros(v));
        }
        for (p, expect) in [(50.0, 5_000.0), (90.0, 9_000.0), (99.0, 9_900.0)] {
            let got = h.percentile(p).as_micros_f64();
            assert!(
                (got - expect).abs() / expect < 0.02,
                "p{p}: got {got}, expect {expect}"
            );
        }
    }

    #[test]
    fn percentiles_monotone() {
        let mut h = LatencyHistogram::new();
        let mut rng = simkit::SimRng::new(11);
        for _ in 0..10_000 {
            h.record(SimDuration::from_nanos(rng.gen_range(100_000_000) + 1));
        }
        let mut last = SimDuration::ZERO;
        for p in 1..=100 {
            let v = h.percentile(p as f64);
            assert!(v >= last, "p{p} regressed");
            last = v;
        }
    }

    #[test]
    fn tail_dominated_distribution() {
        let mut h = LatencyHistogram::new();
        for _ in 0..999 {
            h.record(us(10));
        }
        h.record(us(100_000));
        let p999 = h.p999().as_micros_f64();
        assert!(p999 > 90_000.0, "p999={p999}");
        let p50 = h.p50().as_micros_f64();
        assert!((p50 - 10.0).abs() < 1.0);
    }

    #[test]
    fn merge_equals_combined() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        let mut both = LatencyHistogram::new();
        let mut rng = simkit::SimRng::new(5);
        for i in 0..2000 {
            let v = SimDuration::from_nanos(rng.gen_range(10_000_000) + 1);
            if i % 2 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
            both.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), both.count());
        assert_eq!(a.mean(), both.mean());
        assert_eq!(a.p999(), both.p999());
    }

    #[test]
    fn reset_empties() {
        let mut h = LatencyHistogram::new();
        h.record(us(5));
        h.reset();
        assert!(h.is_empty());
        assert_eq!(h.max(), SimDuration::ZERO);
    }

    #[test]
    fn stores_only_the_recorded_range() {
        let mut h = LatencyHistogram::new();
        // 600 µs and 1 ms share an order (2¹⁹ ns ≤ v < 2²⁰ ns): one block.
        h.record(us(600));
        h.record(us(1_000));
        assert_eq!(h.base, LatencyHistogram::index_of(1_000_000) / HALF * HALF);
        assert_eq!(h.counts.len(), HALF);
        // A smaller sample extends the range downwards and keeps the counts.
        h.record(us(10));
        assert_eq!(h.base, LatencyHistogram::index_of(10_000) / HALF * HALF);
        assert_eq!(h.counts.len() % HALF, 0);
        assert_eq!(h.counts.iter().sum::<u64>(), 3);
        assert_eq!(h.percentile(100.0), us(1_000));
        assert!((h.percentile(1.0).as_micros_f64() - 10.0).abs() < 0.1);
        h.reset();
        assert!(h.counts.is_empty());
    }

    #[test]
    fn quantization_error_bounded() {
        let mut h = LatencyHistogram::new();
        for ns in [1u64, 127, 128, 129, 1 << 20, (1 << 30) + 12345] {
            h.reset();
            h.record(SimDuration::from_nanos(ns));
            let got = h.percentile(50.0).as_nanos() as f64;
            let err = (got - ns as f64).abs() / ns as f64;
            assert!(err <= 0.01, "ns={ns} got={got} err={err}");
        }
    }
}
