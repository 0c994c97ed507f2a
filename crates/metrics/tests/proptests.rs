//! Property-based tests of the measurement layer (dd-check harness).
//!
//! DESIGN §7 names "histogram percentile monotonicity" as a workspace
//! invariant: tail-latency claims (p99/p99.9 tables in every figure) are
//! only trustworthy if the percentile estimator is ordered and bounded.

use dd_check::{check, prop_assert, prop_assert_eq};
use dd_metrics::LatencyHistogram;
use simkit::SimDuration;

/// Percentiles are monotone in `p` and bounded by min/max; count, mean and
/// extremes are consistent with the recorded samples.
#[test]
fn histogram_percentiles_monotone_and_bounded() {
    check("histogram_percentiles_monotone_and_bounded", |c| {
        let samples = c.vec_of(1, 300, |c| c.u64_in(1, 100_000_000));
        let mut h = LatencyHistogram::new();
        for &ns in &samples {
            h.record(SimDuration::from_nanos(ns));
        }
        prop_assert_eq!(h.count(), samples.len() as u64);
        let lo = *samples.iter().min().unwrap();
        let hi = *samples.iter().max().unwrap();
        // Monotone sweep across the percentile axis.
        let mut last = SimDuration::ZERO;
        for p in [0.0, 1.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 99.9, 100.0] {
            let v = h.percentile(p);
            prop_assert!(v >= last, "percentile({p}) regressed");
            last = v;
        }
        // Named percentiles agree with the sweep and with each other.
        prop_assert!(h.p50() <= h.p99());
        prop_assert!(h.p99() <= h.p999());
        // Min/max bracket every percentile up to quantization error (the
        // histogram is log-bucketed with ≤ 0.8 % relative error).
        let tol = |v: u64| v + v / 64 + 1;
        prop_assert!(h.min().as_nanos() <= tol(lo) && lo <= tol(h.min().as_nanos()));
        prop_assert!(h.max().as_nanos() <= tol(hi) && hi <= tol(h.max().as_nanos()));
        prop_assert!(h.percentile(100.0) <= SimDuration::from_nanos(tol(hi)));
        prop_assert!(
            SimDuration::from_nanos(lo)
                <= SimDuration::from_nanos(tol(h.percentile(0.0).as_nanos()))
        );
        // Mean sits within [min, max].
        prop_assert!(
            h.mean() >= h.min() && h.mean() <= SimDuration::from_nanos(tol(h.max().as_nanos()))
        );
        Ok(())
    });
}

/// Merging histograms adds counts and keeps percentiles within the merged
/// envelope.
#[test]
fn histogram_merge_conserves() {
    check("histogram_merge_conserves", |c| {
        let xs = c.vec_of(1, 200, |c| c.u64_in(1, 10_000_000));
        let ys = c.vec_of(1, 200, |c| c.u64_in(1, 10_000_000));
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        for &ns in &xs {
            a.record(SimDuration::from_nanos(ns));
        }
        for &ns in &ys {
            b.record(SimDuration::from_nanos(ns));
        }
        let (amin, amax) = (a.min(), a.max());
        let (bmin, bmax) = (b.min(), b.max());
        a.merge(&b);
        prop_assert_eq!(a.count(), (xs.len() + ys.len()) as u64);
        prop_assert_eq!(a.min(), amin.min(bmin));
        prop_assert_eq!(a.max(), amax.max(bmax));
        for p in [50.0, 99.0, 99.9] {
            let v = a.percentile(p);
            prop_assert!(v >= a.min() && v <= a.max());
        }
        Ok(())
    });
}

/// The two-level layout `LatencyHistogram` stored before it went flat: one
/// `[u64; 128]` per binary order, every order's lower half included. Kept
/// here as the oracle for the flat, range-trimmed layout.
#[derive(Clone)]
struct TwoLevelHistogram {
    counts: Vec<[u64; 128]>,
    total: u64,
    sum_ns: u128,
    min_ns: u64,
    max_ns: u64,
}

impl TwoLevelHistogram {
    fn new() -> Self {
        TwoLevelHistogram {
            counts: Vec::new(),
            total: 0,
            sum_ns: 0,
            min_ns: u64::MAX,
            max_ns: 0,
        }
    }

    fn index_of(ns: u64) -> (usize, usize) {
        if ns < 128 {
            return (0, ns as usize);
        }
        let order = (63 - ns.leading_zeros()) as usize - 6;
        (order, (ns >> order) as usize)
    }

    fn value_of(order: usize, sub: usize) -> u64 {
        if order == 0 {
            return sub as u64;
        }
        (((64 + sub % 64) as u64) << order) + (1u64 << order) / 2
    }

    fn record(&mut self, ns: u64) {
        let (order, sub) = Self::index_of(ns);
        if self.counts.len() <= order {
            self.counts.resize(order + 1, [0; 128]);
        }
        self.counts[order][sub] += 1;
        self.total += 1;
        self.sum_ns += ns as u128;
        self.min_ns = self.min_ns.min(ns);
        self.max_ns = self.max_ns.max(ns);
    }

    fn mean(&self) -> u64 {
        if self.total == 0 {
            return 0;
        }
        (self.sum_ns / self.total as u128) as u64
    }

    fn min(&self) -> u64 {
        if self.total == 0 {
            0
        } else {
            self.min_ns
        }
    }

    fn percentile(&self, p: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let rank = ((p / 100.0) * self.total as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (order, subs) in self.counts.iter().enumerate() {
            for (sub, &c) in subs.iter().enumerate() {
                seen += c;
                if seen >= rank {
                    return Self::value_of(order, sub).clamp(self.min_ns, self.max_ns);
                }
            }
        }
        self.max_ns
    }

    fn merge(&mut self, other: &TwoLevelHistogram) {
        if other.counts.len() > self.counts.len() {
            self.counts.resize(other.counts.len(), [0; 128]);
        }
        for (order, subs) in other.counts.iter().enumerate() {
            for (sub, &c) in subs.iter().enumerate() {
                self.counts[order][sub] += c;
            }
        }
        self.total += other.total;
        self.sum_ns += other.sum_ns;
        self.min_ns = self.min_ns.min(other.min_ns);
        self.max_ns = self.max_ns.max(other.max_ns);
    }
}

/// One sample value, weighted toward the layout's edges: order 0's last
/// slots, the first orders ≥ 1, powers of two ± 1, and values near 2⁶².
fn edge_sample(c: &mut dd_check::Case) -> u64 {
    match c.u8_in(0, 4) {
        0 => [0u64, 1, 2, 63, 64, 127, 128, 129, 191, 192, 255, 256][c.usize_in(0, 12)],
        1 => {
            let p = 1u64 << c.u32_in(1, 63);
            [p - 1, p, p + 1][c.usize_in(0, 3)]
        }
        2 => (1u64 << 62) - 64 + c.u64_in(0, 128),
        _ => {
            let bits = c.u32_in(1, 63);
            c.u64_in(0, 1u64 << bits)
        }
    }
}

const PERCENTILE_GRID: [f64; 17] = [
    0.0, 0.1, 1.0, 5.0, 10.0, 25.0, 33.3, 50.0, 66.7, 75.0, 90.0, 95.0, 99.0, 99.9, 99.99, 100.0,
    101.0,
];

/// Every query of `h` equals the oracle's.
fn same_answers(h: &LatencyHistogram, r: &TwoLevelHistogram) -> dd_check::CheckResult {
    prop_assert_eq!(h.count(), r.total);
    prop_assert_eq!(h.is_empty(), r.total == 0);
    prop_assert_eq!(h.mean().as_nanos(), r.mean());
    prop_assert_eq!(h.min().as_nanos(), r.min());
    prop_assert_eq!(h.max().as_nanos(), r.max_ns);
    for p in PERCENTILE_GRID {
        prop_assert_eq!(
            h.percentile(p).as_nanos(),
            r.percentile(p),
            "percentile({})",
            p
        );
    }
    Ok(())
}

/// The flat, range-trimmed histogram answers every query exactly as the
/// two-level `[u64; 128]`-per-order layout does: after recording, after a
/// merge in either direction (empty, disjoint and overlapping ranges), and
/// after recording more into a merged histogram.
#[test]
fn histogram_matches_two_level_reference() {
    check("histogram_matches_two_level_reference", |c| {
        let mut xs = c.vec_of(0, 200, edge_sample);
        let mut ys = c.vec_of(0, 200, edge_sample);
        match c.u8_in(0, 4) {
            0 => xs.clear(),
            1 => ys.clear(),
            // Disjoint ranges: xs below 2¹⁶, ys in [2³⁰, 2³¹).
            2 => {
                xs.iter_mut().for_each(|x| *x %= 1 << 16);
                ys.iter_mut()
                    .for_each(|y| *y = (1 << 30) | (*y % (1 << 30)));
            }
            _ => {}
        }
        let extra = c.vec_of(0, 20, edge_sample);
        let build = |vals: &[u64]| {
            let mut h = LatencyHistogram::new();
            let mut r = TwoLevelHistogram::new();
            for &ns in vals {
                h.record(SimDuration::from_nanos(ns));
                r.record(ns);
            }
            (h, r)
        };
        let (a, ra) = build(&xs);
        let (b, rb) = build(&ys);
        same_answers(&a, &ra)?;
        same_answers(&b, &rb)?;
        for ((h, r), (oh, or)) in [((&a, &ra), (&b, &rb)), ((&b, &rb), (&a, &ra))] {
            let (mut h, mut r) = (h.clone(), r.clone());
            h.merge(oh);
            r.merge(or);
            same_answers(&h, &r)?;
            for &ns in &extra {
                h.record(SimDuration::from_nanos(ns));
                r.record(ns);
            }
            same_answers(&h, &r)?;
        }
        Ok(())
    });
}
