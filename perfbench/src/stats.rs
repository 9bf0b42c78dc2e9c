//! Sample summaries shared by every pass.

/// Nearest-rank quantile (`q` in `[0, 1]`) of an unsorted sample; 0 for
/// an empty one.
pub fn quantile(sample: &[f64], q: f64) -> f64 {
    if sample.is_empty() {
        return 0.0;
    }
    let mut sorted = sample.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The median (nearest-rank p50).
pub fn median(sample: &[f64]) -> f64 {
    quantile(sample, 0.5)
}

/// Chunks a long run is cut into at most.
const MAX_CHUNKS: usize = 30;

/// A quantile of a long run that a stall in part of it does not move:
/// the sample, in time order, is cut into up to 30 consecutive chunks of
/// at least `min_chunk` samples each (one chunk when it is shorter than
/// two), and this is the median of the chunks' `q`-quantiles. A host
/// stall (a descheduled virtual CPU, a busy neighbour) inflates the
/// chunks it lands in; a change to the program moves every chunk.
pub fn chunked_quantile(sample: &[f64], q: f64, min_chunk: usize) -> f64 {
    let chunks = (sample.len() / min_chunk.max(1)).clamp(1, MAX_CHUNKS);
    let size = sample.len().div_ceil(chunks).max(1);
    let per_chunk: Vec<f64> = sample.chunks(size).map(|c| quantile(c, q)).collect();
    median(&per_chunk)
}

/// Arithmetic mean; 0 for an empty sample.
pub fn mean(sample: &[f64]) -> f64 {
    if sample.is_empty() {
        0.0
    } else {
        sample.iter().sum::<f64>() / sample.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&s, 0.5), 50.0);
        assert_eq!(quantile(&s, 0.99), 99.0);
        assert_eq!(quantile(&s, 1.0), 100.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }

    #[test]
    fn chunked_quantiles_shrug_off_stalls() {
        // 10 000 samples of 1.0 with 4 stalls of 100.0 spread over the run:
        // the plain p99 reads the stalls, the chunked p99 does not.
        let mut s = vec![1.0; 10_000];
        for start in [500, 3_000, 6_000, 9_000] {
            s[start..start + 200].fill(100.0);
        }
        assert_eq!(quantile(&s, 0.99), 100.0);
        assert_eq!(chunked_quantile(&s, 0.99, 1_000), 1.0);
        // A slowdown everywhere shows.
        let slow: Vec<f64> = s.iter().map(|v| v * 2.0).collect();
        assert_eq!(chunked_quantile(&slow, 0.99, 1_000), 2.0);
        // Too short to cut: the plain quantile.
        assert_eq!(chunked_quantile(&s[..1_500], 0.5, 1_000), 1.0);
        assert_eq!(chunked_quantile(&[], 0.5, 100), 0.0);
    }
}
