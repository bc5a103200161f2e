//! Small numeric helpers: medians, quartiles, metric-name validation
//! and the ratio ledgers the report derives from sweep counts.

/// Median of `xs` (mean of the middle pair for an even count); `None`
/// when `xs` is empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    let v = sorted(xs);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// First and third quartiles of `xs` by the "exclusive" method — the
/// default of Python's `statistics.quantiles(xs, n=4)` — so spreads
/// printed here match the ones computed over repeated runs. `None`
/// with fewer than two samples.
pub fn quartiles(xs: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(xs);
    let len = v.len();
    if len < 2 {
        return None;
    }
    let cut = |i: usize| {
        let (n, m) = (4, len + 1);
        let j = (i * m / n).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        (v[j - 1] * (n as f64 - delta) + v[j] * delta) / n as f64
    };
    Some((cut(1), cut(3)))
}

/// Interquartile distance as a share of the median: the run-to-run
/// spread a bound is compared against. `None` when undefined.
pub fn spread(xs: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(xs)?;
    let m = median(xs)?;
    (m != 0.0).then(|| (q3 - q1) / m.abs())
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// True when `name` is a legal metric name: 1–64 characters from
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_metric_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

/// `num / den`, or 0 when nothing was attempted.
pub fn rate(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Mean absolute error of the solved model against the paper's Table 3,
/// over `(app, solved α, solved γ)` rows. α is compared only where both
/// the row and the paper have one; γ wherever the paper lists the app.
/// Returns `(α error, γ error)`, each with the number of rows it covers.
pub fn model_errors<'a>(
    rows: impl IntoIterator<Item = (&'a str, Option<f64>, f64)>,
) -> ((f64, usize), (f64, usize)) {
    let (mut a_sum, mut a_n, mut g_sum, mut g_n) = (0.0, 0, 0.0, 0);
    for (app, alpha, gamma) in rows {
        if let (Some(a), Some(pa)) = (alpha, numa_metrics::paper::paper_alpha(app)) {
            a_sum += (a - pa).abs();
            a_n += 1;
        }
        let (_, pg) = numa_metrics::paper::paper_beta_gamma(app);
        if !pg.is_nan() {
            g_sum += (gamma - pg).abs();
            g_n += 1;
        }
    }
    let mean = |s: f64, n: usize| if n == 0 { 0.0 } else { s / n as f64 };
    ((mean(a_sum, a_n), a_n), (mean(g_sum, g_n), g_n))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), Some((1.5, 4.5)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(spread(&xs), Some((8.25 - 2.75) / 5.5));
        assert_eq!(spread(&[2.0, 2.0, 2.0]), Some(0.0));
    }

    #[test]
    fn metric_names() {
        for ok in [
            "wall_s",
            "sim.grant_us.self",
            "core.request_ns.pin_global",
            "9x",
            "a-b",
        ] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        for bad in ["", "_x", ".x", "a b", "a/b", "α", &"x".repeat(65)] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
    }

    #[test]
    fn shed_and_fail_rate_ledgers() {
        // The kv-overload shape: 37,776 of 98,304 requests shed, 32 of
        // 64 cells degraded.
        assert_eq!(rate(37_776, 98_304), 37_776.0 / 98_304.0);
        assert_eq!(rate(32, 64), 0.5);
        assert_eq!(rate(0, 0), 0.0, "nothing attempted reads as no failures");
        assert_eq!(rate(0, 40), 0.0);
    }

    #[test]
    fn model_errors_against_the_paper() {
        use numa_metrics::paper::PAPER_TABLE3;
        // The paper's own rows score zero on both errors.
        let exact = PAPER_TABLE3.iter().map(|r| (r.0, r.4, r.6));
        assert_eq!(model_errors(exact), ((0.0, 7), (0.0, 8)));
        // Shift every solved value: α by +0.1 (7 apps), γ by -0.2 (8).
        let shifted = PAPER_TABLE3
            .iter()
            .map(|r| (r.0, r.4.map(|a| a + 0.1), r.6 - 0.2));
        let ((a, an), (g, gn)) = model_errors(shifted);
        assert!((a - 0.1).abs() < 1e-12 && an == 7, "{a} over {an}");
        assert!((g - 0.2).abs() < 1e-12 && gn == 8, "{g} over {gn}");
        // A row the model could not solve (α = None) and an app the
        // paper does not list contribute nothing to α.
        let ((a, an), (_, gn)) =
            model_errors([("ParMult", Some(0.5), 1.0), ("KvServe", Some(0.5), 1.0)]);
        assert_eq!((a, an, gn), (0.0, 0, 1));
    }
}
