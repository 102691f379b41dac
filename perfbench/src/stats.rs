//! Order statistics over repeated samples, metric-name rules, and the
//! one-line JSON result the benchmark ends with.
//!
//! Quantiles follow Python's `statistics.quantiles(data, n=N)` with its
//! default "exclusive" method, so a spread computed here reads the same
//! as one computed from the printed values with the standard library.

use std::fmt::Write as _;

/// Fewest samples that must lie beyond a reported tail percentile.
pub const TAIL_SAMPLES: usize = 10;

/// The `i`-th of the `n - 1` cut points dividing `samples` into `n`
/// equal groups (Python's exclusive method). `None` for no samples.
pub fn quantile(samples: &[f64], i: usize, n: usize) -> Option<f64> {
    assert!(0 < i && i < n, "cut point {i} of {n} does not exist");
    let mut data = samples.to_vec();
    data.sort_by(f64::total_cmp);
    let ld = data.len();
    match ld {
        0 => None,
        1 => Some(data[0]),
        _ => {
            let m = ld + 1;
            let j = (i * m / n).clamp(1, ld - 1);
            let delta = (i * m) as f64 - (j * n) as f64;
            Some((data[j - 1] * (n as f64 - delta) + data[j] * delta) / n as f64)
        }
    }
}

/// The median of `samples`.
pub fn median(samples: &[f64]) -> Option<f64> {
    quantile(samples, 1, 2)
}

/// The arithmetic mean of `samples`. `None` for no samples.
pub fn mean(samples: &[f64]) -> Option<f64> {
    (!samples.is_empty()).then(|| samples.iter().sum::<f64>() / samples.len() as f64)
}

/// First quartile, median and third quartile, as
/// `statistics.quantiles(samples, n=4)` gives them.
pub fn quartiles(samples: &[f64]) -> Option<[f64; 3]> {
    Some([quantile(samples, 1, 4)?, quantile(samples, 2, 4)?, quantile(samples, 3, 4)?])
}

/// The 90th percentile (the ninth of ten cut points).
pub fn p90(samples: &[f64]) -> Option<f64> {
    quantile(samples, 9, 10)
}

/// The highest percentile that still has at least [`TAIL_SAMPLES`]
/// samples beyond it, for `n` samples; `None` when there are too few
/// samples to report any tail.
pub fn tail_percentile(n: usize) -> Option<f64> {
    (n > TAIL_SAMPLES).then(|| 100.0 * (n - TAIL_SAMPLES) as f64 / n as f64)
}

/// Value of the percentile `pct` (0..100) by linear interpolation
/// between order statistics (used for the tail percentile, whose rank
/// is not a whole cut point).
pub fn percentile(samples: &[f64], pct: f64) -> Option<f64> {
    let mut data = samples.to_vec();
    data.sort_by(f64::total_cmp);
    let last = data.len().checked_sub(1)?;
    let pos = (pct / 100.0).clamp(0.0, 1.0) * last as f64;
    let lo = pos.floor() as usize;
    let hi = (lo + 1).min(last);
    Some(data[lo] + (data[hi] - data[lo]) * (pos - lo as f64))
}

/// Interquartile distance as a share of the median (the run-to-run
/// spread every end-to-end bound is judged against).
pub fn spread(samples: &[f64]) -> Option<f64> {
    let [q1, med, q3] = quartiles(samples)?;
    Some((q3 - q1) / med)
}

/// A metric name: starts with a letter or digit, at most 64 characters
/// of letters, digits, `_`, `.` and `-`.
pub fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

/// A unit: 1 to 16 characters of letters, digits, `_`, `/`, `%`, `.`
/// and `-`.
pub fn valid_unit(unit: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
    !unit.is_empty() && unit.len() <= 16 && unit.chars().all(ok)
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name (see [`valid_name`]).
    pub name: String,
    /// Unit (see [`valid_unit`]).
    pub unit: &'static str,
    /// The measured value, printed with all its digits.
    pub value: f64,
}

/// Why a result line could not be written.
#[derive(Debug, PartialEq)]
pub enum ReportError {
    /// A name breaks [`valid_name`].
    BadName(String),
    /// A unit breaks [`valid_unit`].
    BadUnit(String),
    /// A name appears twice.
    Duplicate(String),
    /// A value is NaN or infinite, which JSON cannot carry.
    NotFinite(String),
}

/// The result line: exactly the keys `correct`, `attempted`, `failed`
/// and `metrics`, each metric as `{"value": v, "unit": u}`.
pub fn result_json(attempted: u64, failed: u64, metrics: &[Metric]) -> Result<String, ReportError> {
    let mut seen = std::collections::BTreeSet::new();
    let mut body = String::new();
    for m in metrics {
        if !valid_name(&m.name) {
            return Err(ReportError::BadName(m.name.clone()));
        }
        if !valid_unit(m.unit) {
            return Err(ReportError::BadUnit(m.unit.to_string()));
        }
        if !seen.insert(m.name.as_str()) {
            return Err(ReportError::Duplicate(m.name.clone()));
        }
        if !m.value.is_finite() {
            return Err(ReportError::NotFinite(m.name.clone()));
        }
        if !body.is_empty() {
            body.push_str(", ");
        }
        let _ =
            write!(body, "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}", m.name, m.value, m.unit);
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{body}}}}}",
        failed == 0 && attempted > 0
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[7.5]), Some(7.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn mean_of_samples() {
        assert_eq!(mean(&[3.0, 1.5, 1.5]), Some(2.0));
        assert_eq!(mean(&[7.5]), Some(7.5));
        assert_eq!(mean(&[]), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), Some([1.5, 3.0, 4.5]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        let s = spread(&v).unwrap();
        assert!((s - (8.25 - 2.75) / 5.5).abs() < 1e-12);
    }

    #[test]
    fn p90_matches_python_deciles() {
        // statistics.quantiles(range(1, 21), n=10)[8] == 18.9
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert!((p90(&v).unwrap() - 18.9).abs() < 1e-12);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(10), None);
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        let p = tail_percentile(48).unwrap();
        assert!(48.0 * (1.0 - p / 100.0) >= TAIL_SAMPLES as f64 - 1e-9);
        let v: Vec<f64> = (0..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 90.0), Some(90.0));
        assert_eq!(percentile(&v, 12.5), Some(12.5));
    }

    #[test]
    fn metric_names_and_units_are_checked() {
        assert!(valid_name("dram.ns_per_access.FT-CG"));
        assert!(valid_name("setup_s"));
        assert!(valid_name("9lives"));
        assert!(!valid_name(""));
        assert!(!valid_name("_hidden"));
        assert!(!valid_name("a b"));
        assert!(!valid_name("p/s"));
        assert!(!valid_name(&"x".repeat(65)));
        assert!(valid_unit("1/s"));
        assert!(valid_unit("%"));
        assert!(!valid_unit(""));
        assert!(!valid_unit("per second"));
    }

    #[test]
    fn result_line_has_the_contract_shape() {
        let ms = [
            Metric { name: "wall_s".into(), unit: "s", value: 1.25 },
            Metric { name: "peak_rss_mb".into(), unit: "MB", value: 0.1 + 0.2 },
        ];
        assert_eq!(
            result_json(12, 0, &ms).unwrap(),
            "{\"correct\": true, \"attempted\": 12, \"failed\": 0, \"metrics\": {\"wall_s\": \
             {\"value\": 1.25, \"unit\": \"s\"}, \"peak_rss_mb\": {\"value\": \
             0.30000000000000004, \"unit\": \"MB\"}}}"
        );
        assert!(result_json(3, 1, &ms).unwrap().starts_with("{\"correct\": false,"));
        let dup = [ms[0].clone(), ms[0].clone()];
        assert_eq!(result_json(1, 0, &dup), Err(ReportError::Duplicate("wall_s".into())));
        let bad = [Metric { name: "x y".into(), unit: "s", value: 1.0 }];
        assert_eq!(result_json(1, 0, &bad), Err(ReportError::BadName("x y".into())));
        let nan = [Metric { name: "x".into(), unit: "s", value: f64::NAN }];
        assert_eq!(result_json(1, 0, &nan), Err(ReportError::NotFinite("x".into())));
    }
}
