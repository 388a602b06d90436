//! Order statistics over latency samples.
//!
//! Workloads whose operations come in several input kinds (five program
//! shapes, a 2-D and a 3-D mesh, twelve hot request keys) have a
//! multi-modal latency distribution, and a plain order statistic of such
//! a mixture jumps between modes from run to run. [`stratified`] takes
//! the statistic inside each kind and averages the kinds by their share
//! of the samples, which is the fixed mix of the workload because runs
//! execute whole passes.
//!
//! End-to-end latency is the stratified *minimum*, per-layer self time
//! the stratified *median*. The bench host has slow phases of 5–40 s in
//! which memory-bound code runs 1.5× slower; they move the median of a
//! run by ±12% whatever its length, and its minimum by ±2% (numbers in
//! the README), so only the minimum can carry a regression bound.

/// Median of `xs` (mean of the two middle values for an even count).
/// `None` when empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// The `pm`/1000 quantile by nearest rank (per-mille, so ranks are exact
/// integer arithmetic).
pub fn quantile_pm(xs: &[f64], pm: usize) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (v.len() * pm).div_ceil(1000).clamp(1, v.len());
    Some(v[rank - 1])
}

/// The highest percentile worth reporting next to a median: the largest
/// of p99.9 / p99 / p95 / p90 that still has at least ten samples beyond
/// it. `None` when even p90 has fewer (under 100 samples).
pub fn tail_percentile(xs: &[f64]) -> Option<(&'static str, f64)> {
    const LADDER: [(&str, usize); 4] = [("p99.9", 999), ("p99", 990), ("p95", 950), ("p90", 900)];
    LADDER
        .iter()
        .find(|(_, pm)| xs.len() * (1000 - pm) / 1000 >= 10)
        .and_then(|(label, pm)| quantile_pm(xs, *pm).map(|v| (*label, v)))
}

/// Smallest of `xs`; `None` when empty.
pub fn minimum(xs: &[f64]) -> Option<f64> {
    xs.iter().copied().min_by(f64::total_cmp)
}

/// Mix-weighted mean of a per-kind statistic over `(kind, value)`
/// samples. With a single kind this is the plain statistic.
pub fn stratified(samples: &[(u32, f64)], stat: fn(&[f64]) -> Option<f64>) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut kinds: Vec<u32> = samples.iter().map(|(k, _)| *k).collect();
    kinds.sort_unstable();
    kinds.dedup();
    let total = samples.len() as f64;
    let mut acc = 0.0;
    for kind in kinds {
        let xs: Vec<f64> = samples
            .iter()
            .filter(|(k, _)| *k == kind)
            .map(|(_, x)| *x)
            .collect();
        acc += stat(&xs)? * xs.len() as f64 / total;
    }
    Some(acc)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        let xs = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
        assert_eq!(tail_percentile(&xs(99)), None);
        assert_eq!(tail_percentile(&xs(100)), Some(("p90", 90.0)));
        assert_eq!(tail_percentile(&xs(199)), Some(("p90", 180.0)));
        assert_eq!(tail_percentile(&xs(200)), Some(("p95", 190.0)));
        assert_eq!(tail_percentile(&xs(1000)), Some(("p99", 990.0)));
        assert_eq!(tail_percentile(&xs(10_000)), Some(("p99.9", 9990.0)));
    }

    #[test]
    fn stratified_weights_kinds_by_their_share() {
        // Kind 0: median 1, min 0.5, three samples; kind 1: one sample.
        let s = [(0, 0.5), (0, 1.0), (0, 9.0), (1, 100.0)];
        assert_eq!(stratified(&s, median), Some(0.75 * 1.0 + 0.25 * 100.0));
        assert_eq!(stratified(&s, minimum), Some(0.75 * 0.5 + 0.25 * 100.0));
        // A single kind degenerates to the plain statistic.
        assert_eq!(
            stratified(&[(7, 3.0), (7, 1.0), (7, 2.0)], median),
            Some(2.0)
        );
        assert_eq!(stratified(&[], median), None);
    }
}
