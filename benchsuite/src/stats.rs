//! Order statistics for timings: medians and the tail percentile rule.

/// The median of `values` (mean of the middle two for an even count);
/// `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// The percentiles a tail is reported at, highest last.
pub const TAIL_PERCENTILES: [f64; 5] = [50.0, 90.0, 99.0, 99.9, 99.99];

/// How many samples must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// The nearest-rank value at percentile `p` of sorted `v`, with its
/// 1-based rank.
fn nearest_rank(v: &[f64], p: f64) -> (usize, f64) {
    // The epsilon keeps float error from pushing an exact rank (p99.9
    // of 10 000 is rank 9 990) up by one.
    let rank = ((p * v.len() as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, v.len());
    (rank, v[rank - 1])
}

/// A tail latency: the percentile it sits at, its value and the sample
/// count it came from.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The percentile, e.g. `99.0`.
    pub percentile: f64,
    /// The nearest-rank value at that percentile.
    pub value: f64,
    /// Samples in the population.
    pub samples: usize,
}

/// The highest percentile of [`TAIL_PERCENTILES`] with at least
/// [`MIN_BEYOND`] samples ranked beyond it (nearest-rank), or `None`
/// when the sample is too small for even the median to qualify.
pub fn tail(values: &[f64]) -> Option<Tail> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    TAIL_PERCENTILES
        .iter()
        .rev()
        .filter(|_| !v.is_empty())
        .map(|&p| (p, nearest_rank(&v, p)))
        .find(|(_, (rank, _))| v.len() - rank >= MIN_BEYOND)
        .map(|(percentile, (_, value))| Tail {
            percentile,
            value,
            samples: v.len(),
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Reverse order, so the functions must sort.
        (1..=n).rev().map(|i| i as f64).collect()
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn too_few_samples_give_no_tail() {
        assert_eq!(tail(&[]), None);
        // 19 samples: the median's rank is 10, leaving 9 beyond it.
        assert_eq!(tail(&ramp(19)), None);
    }

    #[test]
    fn twenty_samples_support_only_the_median() {
        let t = tail(&ramp(20)).unwrap();
        assert_eq!((t.percentile, t.value, t.samples), (50.0, 10.0, 20));
    }

    #[test]
    fn p90_needs_ten_beyond() {
        // 99 samples: p90 rank 90 leaves 9 beyond, so the median wins.
        assert_eq!(tail(&ramp(99)).unwrap().percentile, 50.0);
        // 100 samples: p90 rank 90 leaves exactly 10 beyond.
        let t = tail(&ramp(100)).unwrap();
        assert_eq!((t.percentile, t.value), (90.0, 90.0));
    }

    #[test]
    fn p99_from_a_thousand_and_p99_9_from_ten_thousand() {
        let t = tail(&ramp(1000)).unwrap();
        assert_eq!((t.percentile, t.value), (99.0, 990.0));
        assert_eq!(tail(&ramp(9999)).unwrap().percentile, 99.0);
        let t = tail(&ramp(10_000)).unwrap();
        assert_eq!((t.percentile, t.value), (99.9, 9990.0));
    }

    #[test]
    fn tail_picks_the_slow_outliers() {
        let mut v = vec![1.0; 990];
        v.extend([50.0; 10]);
        // Rank 990 is the last fast sample; the ten outliers lie beyond.
        assert_eq!(tail(&v).unwrap().value, 1.0);
        v.push(50.0);
        // Now rank 990 of 1001 is still fast but p99 = rank 991 is slow.
        assert_eq!(tail(&v).unwrap().value, 50.0);
    }
}
