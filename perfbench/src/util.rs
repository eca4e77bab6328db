//! Small statistics and input-generation helpers.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// An RNG for one named stream of one seed, so adding a stream never
/// shifts the draws of another.
pub fn rng(seed: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

pub fn shuffle<T>(items: &mut [T], rng: &mut StdRng) {
    for i in (1..items.len()).rev() {
        let j = rng.gen_range(0..i + 1);
        items.swap(i, j);
    }
}

/// Point `i` of a Weyl sequence started at `offset`: evenly spread over
/// [0, 1) for any prefix length, so a run's inputs cover a range the same
/// way whatever the seed.
pub fn weyl(offset: f64, i: usize, step: f64) -> f64 {
    (offset + i as f64 * step).fract()
}

/// Rationally independent Weyl steps (fractional parts of φ, √2, √3 and
/// e), so sequences drawn with different steps are jointly equidistributed
/// instead of correlated.
pub const GOLDEN: f64 = 0.618_033_988_749_894_9;
pub const SQRT2_FRAC: f64 = 0.414_213_562_373_095_1;
pub const SQRT3_FRAC: f64 = 0.732_050_807_568_877_2;
pub const E_FRAC: f64 = 0.718_281_828_459_045_1;

/// `lo + frac·(hi − lo)`, rounded down, inclusive of `hi`.
pub fn spread(lo: usize, hi: usize, frac: f64) -> usize {
    lo + ((hi - lo + 1) as f64 * frac) as usize
}

pub fn ms(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e3
}

/// Nearest-rank quantile (`q` in [0, 1]) of unsorted samples.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

pub fn geomean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    (samples.iter().map(|x| x.ln()).sum::<f64>() / samples.len() as f64).exp()
}

/// Histogram of `values` over `[edges[i], edges[i+1])` buckets (the last
/// bucket is open-ended), as a JSON object keyed by the lower edge.
pub fn histogram(values: &[usize], edges: &[usize]) -> serde_json::Value {
    let mut m = serde_json::Map::new();
    for (i, &lo) in edges.iter().enumerate() {
        let hi = edges.get(i + 1).copied().unwrap_or(usize::MAX);
        let n = values.iter().filter(|&&v| v >= lo && v < hi).count();
        m.insert(format!(">={lo}"), serde_json::json!(n as u64));
    }
    serde_json::Value::Object(m)
}

/// p10/p50/p90/max of a count distribution.
pub fn distribution(values: &[usize]) -> serde_json::Value {
    let f: Vec<f64> = values.iter().map(|&v| v as f64).collect();
    serde_json::json!({
        "n": values.len() as u64,
        "p10": quantile(&f, 0.10),
        "p50": quantile(&f, 0.50),
        "p90": quantile(&f, 0.90),
        "max": values.iter().copied().max().unwrap_or(0) as u64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_is_nearest_rank() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 5.0);
        assert_eq!(quantile(&v, 0.9), 9.0);
        assert_eq!(quantile(&v, 1.0), 10.0);
    }

    #[test]
    fn weyl_points_cover_the_interval() {
        let pts: Vec<f64> = (0..100).map(|i| weyl(0.3, i, GOLDEN)).collect();
        for lo in 0..10 {
            let lo = lo as f64 / 10.0;
            let n = pts.iter().filter(|&&p| p >= lo && p < lo + 0.1).count();
            assert!((8..=12).contains(&n), "bucket {lo}: {n}");
        }
    }
}
