//! Small numeric helpers: order statistics, digests, metric-name checks
//! and span self time.

/// Fewest samples for which a p95 is reported: below this, fewer than
/// ten samples lie beyond the 95th percentile and it is noise.
pub const P95_MIN_SAMPLES: usize = 200;

/// Median of `values` (mean of the middle two for an even count).
/// `None` when empty or when a value is not finite.
pub fn median(values: &[f64]) -> Option<f64> {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile `q` in `[0, 1]` of `values`. `None` when
/// empty or when a value is not finite.
fn quantile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() || values.iter().any(|v| !v.is_finite()) {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64))
}

/// The 95th percentile, reported only from at least [`P95_MIN_SAMPLES`]
/// samples.
pub fn p95(samples: &[f64]) -> Option<f64> {
    if samples.len() < P95_MIN_SAMPLES {
        return None;
    }
    quantile(samples, 0.95)
}

/// 64-bit FNV-1a digest of `bytes` (plan and row digests).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// True when `name` is a valid metric name: 1 to 64 characters from
/// `[A-Za-z0-9_.-]`, starting with a letter or a digit.
pub fn valid_metric_name(name: &str) -> bool {
    let first_ok = name
        .chars()
        .next()
        .is_some_and(|c| c.is_ascii_alphanumeric());
    first_ok
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Self time of a span `[start, end)`: its duration minus the part of it
/// covered by the union of its children's intervals (overlapping
/// children are counted once, and the parts of a child outside the span
/// not at all).
pub fn self_time(start: u64, end: u64, children: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|&(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut cursor = start;
    for (s, e) in clipped {
        let s = s.max(cursor);
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    end.saturating_sub(start) - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_covered_interval_of_children() {
        // No children: the whole duration.
        assert_eq!(self_time(10, 110, &[]), 100);
        // Disjoint children.
        assert_eq!(self_time(0, 100, &[(10, 20), (50, 70)]), 70);
        // Overlapping children are counted once.
        assert_eq!(self_time(0, 100, &[(10, 40), (30, 60)]), 50);
        // Nested children are counted once.
        assert_eq!(self_time(0, 100, &[(10, 90), (20, 30)]), 20);
        // Children sticking out of the span are clipped to it.
        assert_eq!(self_time(50, 100, &[(0, 60), (90, 200)]), 30);
        // A child covering the span leaves no self time.
        assert_eq!(self_time(50, 100, &[(0, 200)]), 0);
        // Unsorted input.
        assert_eq!(self_time(0, 100, &[(60, 80), (10, 20)]), 70);
    }

    #[test]
    fn p95_needs_two_hundred_samples() {
        let few: Vec<f64> = (0..P95_MIN_SAMPLES - 1).map(|i| i as f64).collect();
        assert_eq!(p95(&few), None);
        let enough: Vec<f64> = (0..P95_MIN_SAMPLES).map(|i| i as f64).collect();
        let p = p95(&enough).expect("200 samples give a p95");
        assert!((p - 189.05).abs() < 1e-9, "{p}");
    }

    #[test]
    fn quantiles_interpolate_and_reject_bad_input() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[1.0, f64::NAN]), None);
    }

    #[test]
    fn metric_name_rule() {
        for ok in [
            "exp_per_s",
            "cluster.window_us_per_sim_s",
            "etcd.commits",
            "a-b",
            "9x",
        ] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        for bad in ["", "_x", ".x", "a b", "a/b", "ümlaut", &"x".repeat(65)] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
