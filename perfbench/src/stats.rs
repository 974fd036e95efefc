//! Time-windowed samples and the order statistics the metrics are made of.
//!
//! A run's timed phase is cut into fixed-width windows. Every end-to-end
//! metric is computed once per full window and reported as the best
//! quartile over windows (see [`best_quartile`]), so a spell of
//! interference from outside the process moves some windows, not the
//! reported figure.

/// Samples bucketed by the window they ended in. Times are nanoseconds
/// since the start of the timed phase.
#[derive(Default)]
pub struct Series {
    width_ns: u64,
    /// Latency samples (ns) per window.
    lat: Vec<Vec<u32>>,
    /// Operations completed per window.
    ops: Vec<u64>,
    /// Payload bytes moved per window, and the time spent moving them.
    bytes: Vec<u64>,
    busy_ns: Vec<u64>,
}

impl Series {
    pub fn new(width_ns: u64) -> Series {
        Series {
            width_ns,
            ..Series::default()
        }
    }

    fn slot(&mut self, t_ns: u64) -> usize {
        let i = (t_ns / self.width_ns) as usize;
        if self.ops.len() <= i {
            self.lat.resize_with(i + 1, Vec::new);
            self.ops.resize(i + 1, 0);
            self.bytes.resize(i + 1, 0);
            self.busy_ns.resize(i + 1, 0);
        }
        i
    }

    pub fn window_of(&self, t_ns: u64) -> usize {
        (t_ns / self.width_ns) as usize
    }

    pub fn lat(&mut self, t_ns: u64, lat_ns: u64) {
        let i = self.slot(t_ns);
        self.lat[i].push(lat_ns.min(u32::MAX as u64) as u32);
    }

    pub fn ops(&mut self, t_ns: u64, n: u64) {
        let i = self.slot(t_ns);
        self.ops[i] += n;
    }

    pub fn bytes(&mut self, t_ns: u64, bytes: u64, busy_ns: u64) {
        let i = self.slot(t_ns);
        self.bytes[i] += bytes;
        self.busy_ns[i] += busy_ns;
    }

    /// Fold another thread's samples (same origin and width) into this one.
    pub fn merge(&mut self, other: Series) {
        for (i, lat) in other.lat.into_iter().enumerate() {
            let t = i as u64 * self.width_ns;
            let j = self.slot(t);
            self.lat[j].extend(lat);
            self.ops[j] += other.ops[i];
            self.bytes[j] += other.bytes[i];
            self.busy_ns[j] += other.busy_ns[i];
        }
    }

    /// Reduce the given windows (each wholly inside the timed phase) to
    /// per-window figures.
    pub fn summarize(&self, windows: &[usize]) -> Summary {
        let secs = self.width_ns as f64 / 1e9;
        let mut s = Summary::default();
        for &i in windows {
            let ops = self.ops.get(i).copied().unwrap_or(0);
            s.rates.push(ops as f64 / secs);
            s.ops += ops;
            let mut lat = self.lat.get(i).cloned().unwrap_or_default();
            s.lat_samples += lat.len() as u64;
            lat.sort_unstable();
            if !lat.is_empty() {
                s.p50.push(quantile_sorted(&lat, 0.50));
            }
            // p99 is reported only where at least ten samples lie beyond it.
            if lat.len() >= 1000 {
                s.p99.push(quantile_sorted(&lat, 0.99));
            }
            let busy = self.busy_ns.get(i).copied().unwrap_or(0);
            if busy > 0 {
                s.goodput.push(self.bytes[i] as f64 / (busy as f64 / 1e9));
            }
        }
        s
    }
}

/// Per-window figures of one run.
#[derive(Default)]
pub struct Summary {
    pub rates: Vec<f64>,
    pub p50: Vec<f64>,
    pub p99: Vec<f64>,
    pub goodput: Vec<f64>,
    pub ops: u64,
    pub lat_samples: u64,
}

impl Summary {
    /// Mean rate over the first and the second half of the windows, so a
    /// leak or drift shows as a gap between the two.
    pub fn halves(&self) -> (f64, f64) {
        let h = self.rates.len() / 2;
        (mean(&self.rates[..h]), mean(&self.rates[h..]))
    }
}

pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// Quantile `q` of unsorted values, linearly interpolated; 0 for an empty
/// slice.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    quantile_sorted(&s, q)
}

pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// The window figure a run reports: the best quartile of its windows (the
/// 75th percentile of a higher-is-better figure, the 25th of a
/// lower-is-better one). On a shared host, interference from outside the
/// process comes in spells of seconds that only slow windows down, and the
/// share of a run they cover varies from run to run; the best quartile
/// tracks the program's own speed through them, while a change to the
/// program still moves every window.
pub fn best_quartile(v: &[f64], higher_is_better: bool) -> f64 {
    quantile(v, if higher_is_better { 0.75 } else { 0.25 })
}

/// Linearly interpolated quantile of sorted, non-empty samples.
pub fn quantile_sorted<T: Copy + Into<f64>>(s: &[T], q: f64) -> f64 {
    let pos = q * (s.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    let (a, b) = (s[lo].into(), s[hi].into());
    a + (b - a) * (pos - lo as f64)
}

/// A log-linear histogram of nanosecond durations: 32 sub-buckets per power
/// of two, so a quantile read back is within about 3% of the true value.
/// Used for span durations, which are too many to keep one by one.
#[derive(Clone)]
pub struct Hist {
    buckets: Vec<u64>,
    count: u64,
}

const SUB_BITS: u32 = 5;
const SUB: u64 = 1 << SUB_BITS;

impl Default for Hist {
    fn default() -> Self {
        Hist {
            buckets: vec![0; (64 * SUB) as usize],
            count: 0,
        }
    }
}

impl Hist {
    fn index(v: u64) -> usize {
        if v < SUB {
            return v as usize;
        }
        let exp = 63 - v.leading_zeros(); // >= SUB_BITS
        let shift = exp - SUB_BITS;
        let sub = (v >> shift) & (SUB - 1);
        (((shift + 1) as u64) * SUB + sub) as usize
    }

    /// Midpoint of the values that fall in bucket `i`.
    fn value(i: usize) -> f64 {
        let i = i as u64;
        if i < SUB {
            return i as f64;
        }
        let shift = i / SUB - 1;
        let sub = i % SUB;
        let lo = (SUB + sub) << shift;
        lo as f64 + ((1u64 << shift) as f64 - 1.0) / 2.0
    }

    pub fn record(&mut self, v: u64) {
        self.buckets[Self::index(v)] += 1;
        self.count += 1;
    }

    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
    }

    /// Quantile `q`; 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = (q * (self.count - 1) as f64).round() as u64;
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen > rank {
                return Self::value(i);
            }
        }
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hist_quantiles_track_exact_ones() {
        let mut h = Hist::default();
        let mut v: Vec<u32> = (0..10_000u32).map(|i| (i * 7919) % 50_000 + 10).collect();
        for &x in &v {
            h.record(x as u64);
        }
        v.sort_unstable();
        for q in [0.5, 0.9, 0.99] {
            let exact = quantile_sorted(&v, q);
            let approx = h.quantile(q);
            assert!(
                (approx - exact).abs() / exact < 0.04,
                "q={q} exact={exact} approx={approx}"
            );
        }
    }

    #[test]
    fn windows_split_samples_by_time() {
        let mut s = Series::new(1_000);
        for t in 0..3_000u64 {
            s.ops(t, 1);
        }
        s.lat(10, 5);
        s.lat(1_500, 7);
        let sum = s.summarize(&[0, 1]);
        assert_eq!(sum.rates, vec![1e9, 1e9], "1000 ops per 1000 ns");
        assert_eq!(sum.p50, vec![5.0, 7.0]);
        assert!(sum.p99.is_empty(), "too few samples for a p99");
        assert_eq!(sum.ops, 2_000);
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(best_quartile(&[1.0, 2.0, 3.0, 4.0, 5.0], true), 4.0);
        assert_eq!(best_quartile(&[1.0, 2.0, 3.0, 4.0, 5.0], false), 2.0);
    }
}
