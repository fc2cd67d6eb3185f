//! Order statistics over latency samples: medians, quartiles and the
//! tail rule "the highest percentile with at least ten samples beyond
//! it".

/// Sorts a copy of `samples` (NaN-free by construction: every sample is
/// a measured duration or ratio).
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    v
}

/// The `q`-quantile (0..=1) of already sorted samples, by linear
/// interpolation between closest ranks. `None` for an empty slice.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * frac)
}

/// Median of unsorted samples (0 for none).
pub fn median(samples: &[f64]) -> f64 {
    quantile_sorted(&sorted(samples), 0.5).unwrap_or(0.0)
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// computes them (the default "exclusive" method). Needs two samples.
pub fn quartiles(samples: &[f64]) -> Option<(f64, f64)> {
    let s = sorted(samples);
    let n = s.len();
    if n < 2 {
        return None;
    }
    let at = |i: usize| -> f64 {
        // Python: j = i*m // 4, clamped to 1..=n-1, then
        // delta = i*m - 4*j (which may extrapolate past the ends).
        let m = (n + 1) as i64;
        let j = ((i as i64 * m) / 4).clamp(1, n as i64 - 1);
        let delta = i as i64 * m - 4 * j;
        let (lo, hi) = (s[j as usize - 1], s[j as usize]);
        (lo * (4 - delta) as f64 + hi * delta as f64) / 4.0
    };
    Some((at(1), at(3)))
}

/// The tail rule: the highest percentile, up to p99, that leaves at
/// least ten samples beyond it, with its value. Below 1000 samples that
/// is the eleventh-largest sample, at percentile `100 (n - 10) / n`, so
/// the percentile follows the sample count smoothly. `None` with fewer
/// than eleven samples; callers then report the maximum and say so.
pub fn tail(samples: &[f64]) -> Option<(f64, f64)> {
    let s = sorted(samples);
    let n = s.len();
    if n >= 1000 {
        return Some((99.0, quantile_sorted(&s, 0.99)?));
    }
    if n < 11 {
        return None;
    }
    Some((100.0 * (n - 10) as f64 / n as f64, s[n - 11]))
}

/// The tail value reported as `latency_p99_ms`: p99 when the sample
/// supports it, otherwise the highest percentile the tail rule allows,
/// otherwise the maximum. Returns `(percentile used, value)`.
pub fn tail_or_max(samples: &[f64]) -> (f64, f64) {
    tail(samples).unwrap_or_else(|| (100.0, sorted(samples).last().copied().unwrap_or(0.0)))
}

/// Samples per block of [`block_p99`].
pub const TAIL_BLOCK: usize = 1000;

/// The median over consecutive blocks of [`TAIL_BLOCK`] samples (in time
/// order) of each block's p99, which leaves ten samples beyond it: the
/// p99 of a typical stretch of a thousand ops, which a few seconds of
/// stalled I/O on a shared host move no more than any other few seconds
/// do. A trailing partial block is left out; `None` under two blocks.
pub fn block_p99(samples: &[f64]) -> Option<f64> {
    if samples.len() < 2 * TAIL_BLOCK {
        return None;
    }
    let p99s: Vec<f64> = samples
        .chunks_exact(TAIL_BLOCK)
        .map(|b| quantile_sorted(&sorted(b), 0.99).unwrap_or(0.0))
        .collect();
    Some(median(&p99s))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn median_and_quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(quantile_sorted(&ramp(101), 0.99), Some(100.0));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        assert_eq!(quartiles(&ramp(10)), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn tail_is_p99_with_a_thousand_samples() {
        let (p, v) = tail(&ramp(1000)).unwrap();
        assert_eq!(p, 99.0);
        assert!((v - 990.01).abs() < 1e-9);
        assert_eq!(tail_or_max(&ramp(1000)).0, 99.0);
    }

    #[test]
    fn the_block_tail_is_the_median_block_p99() {
        // Three blocks; the middle one stalls. Each block's p99 sits at
        // its own 990.01st sample; the stalled block's does not win.
        let calm: Vec<f64> = ramp(TAIL_BLOCK);
        let stalled: Vec<f64> = ramp(TAIL_BLOCK).iter().map(|v| v * 10.0).collect();
        let run: Vec<f64> = [calm.clone(), stalled, calm].concat();
        assert!((block_p99(&run).unwrap() - 990.01).abs() < 1e-9);
        assert_eq!(block_p99(&ramp(2 * TAIL_BLOCK - 1)), None);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 999 samples: p99 would leave 9 beyond; the 11th-largest
        // sample (989) leaves 10, at percentile 98.9989...
        let (p, v) = tail(&ramp(999)).unwrap();
        assert_eq!(v, 989.0);
        assert!((p - 100.0 * 989.0 / 999.0).abs() < 1e-9);
        // 40 samples: p75, with exactly 10 samples beyond.
        assert_eq!(tail(&ramp(40)), Some((75.0, 30.0)));
        // 50 samples: p80.
        assert_eq!(tail(&ramp(50)), Some((80.0, 40.0)));
        // 11 samples: the minimum is the only value with 10 beyond.
        assert_eq!(tail(&ramp(11)).unwrap().1, 1.0);
        // 10 samples: nothing qualifies; the maximum is reported.
        assert_eq!(tail(&ramp(10)), None);
        assert_eq!(tail_or_max(&ramp(10)), (100.0, 10.0));
        // The rule never reads a sample with fewer than 10 beyond it.
        for n in 11..1200 {
            let (_, v) = tail(&ramp(n)).unwrap();
            let beyond = ramp(n).iter().filter(|&&x| x > v).count();
            assert!(beyond >= 10, "n = {n}: {beyond} beyond {v}");
        }
    }
}
