//! Sample summaries: the median and the tail percentile rule.

/// The median of `samples` (the mean of the two middle values for an even
/// count). `NaN` for an empty slice.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Samples a reported tail must have beyond it.
pub const TAIL_BEYOND: usize = 10;

/// A tail latency: the highest percentile that leaves at least
/// [`TAIL_BEYOND`] samples beyond it, with the sample count it was taken
/// from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile reported (50 when too few samples support a higher
    /// one; the tail then equals the median).
    pub percentile: f64,
    /// The sample at that percentile.
    pub value: f64,
    /// How many samples the summary was taken from.
    pub samples: usize,
}

/// Applies the tail rule. With `n` sorted samples, the sample of rank `r`
/// (1-based) sits at percentile `100·r/n` and has `n − r` samples beyond
/// it, so the highest percentile with ten beyond is rank `n − 10`: the
/// eleventh-largest sample. The percentile moves smoothly with `n`, so runs
/// that complete a few more or fewer requests report nearly the same
/// percentile. When that rank falls below the median (fewer than 20
/// samples), the median is reported as the tail.
pub fn tail(samples: &[f64]) -> Tail {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = n.saturating_sub(TAIL_BEYOND);
    if rank == 0 || 2 * rank < n {
        return Tail {
            percentile: 50.0,
            value: median(&sorted),
            samples: n,
        };
    }
    Tail {
        percentile: 100.0 * rank as f64 / n as f64,
        value: sorted[rank - 1],
        samples: n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn median_handles_odd_even_and_unsorted_input() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn tail_is_the_eleventh_largest_sample() {
        let t = tail(&ramp(1000));
        assert_eq!((t.percentile, t.value, t.samples), (99.0, 990.0, 1000));
        let t = tail(&ramp(100));
        assert_eq!((t.percentile, t.value), (90.0, 90.0));
        let t = tail(&ramp(40));
        assert_eq!((t.percentile, t.value), (75.0, 30.0));
        // 20 samples: rank 10 is the median rank, still reported as a tail.
        let t = tail(&ramp(20));
        assert_eq!((t.percentile, t.value), (50.0, 10.0));
    }

    #[test]
    fn every_reported_tail_keeps_ten_samples_beyond_it() {
        for n in 20..400 {
            let samples = ramp(n);
            let t = tail(&samples);
            let beyond = samples.iter().filter(|&&s| s > t.value).count();
            assert!(beyond >= TAIL_BEYOND, "n={n}: {t:?} has {beyond} beyond");
        }
    }

    #[test]
    fn too_few_samples_fall_back_to_the_median() {
        let t = tail(&[5.0, 1.0, 3.0]);
        assert_eq!((t.percentile, t.value, t.samples), (50.0, 3.0, 3));
        // 19 samples: rank 9 would sit below the median.
        let t = tail(&ramp(19));
        assert_eq!((t.percentile, t.value), (50.0, 10.0));
    }
}
