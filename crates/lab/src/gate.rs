//! The perf-regression gate: sweep-document diffing with per-metric
//! tolerances.
//!
//! The generic tree walk lives in [`numa_metrics::baseline`]; this
//! module contributes the *policy* — which tolerance applies to which
//! leaf of a sweep document. Identity leaves (ids, names, grid axes)
//! are exact: a changed grid is a different experiment, not a drifted
//! one. Time-like metrics get relative slack, model factors get a small
//! absolute window (α is meaningful near zero), protocol counters get
//! a relative band with an absolute floor of a few events.

use ace_sim::{metric, Class};
use numa_metrics::baseline::{compare, BaselineDiff, Tolerance};
use numa_metrics::{parse, Json};

/// Per-metric-class tolerances; the CLI can widen or tighten each.
#[derive(Clone, Copy, Debug)]
pub struct GateTolerances {
    /// Relative slack on virtual times (user/system/makespan and the
    /// model's T columns).
    pub time_rel: f64,
    /// Absolute slack on model factors (α, β, γ, measured α).
    pub model_abs: f64,
    /// Relative slack on protocol counters (replications, pins, ...).
    pub count_rel: f64,
    /// Absolute floor on protocol counters, so tiny counts may wobble
    /// by a few events without tripping the gate.
    pub count_abs: f64,
    /// Relative slack on bus traffic bytes.
    pub bytes_rel: f64,
}

impl Default for GateTolerances {
    fn default() -> GateTolerances {
        GateTolerances {
            time_rel: 0.02,
            model_abs: 0.02,
            count_rel: 0.10,
            count_abs: 2.0,
            bytes_rel: 0.02,
        }
    }
}

impl GateTolerances {
    /// Everything exact — any drift at all is a violation. (This is
    /// what CI's byte-identity check means, expressed structurally.)
    pub fn strict() -> GateTolerances {
        GateTolerances { time_rel: 0.0, model_abs: 0.0, count_rel: 0.0, count_abs: 0.0, bytes_rel: 0.0 }
    }

    /// The tolerance applied to the leaf at `path`: the class of the
    /// metric the leaf names, exact for everything else (ids, axes,
    /// names, schema, paper constants).
    pub fn for_path(&self, path: &str) -> Tolerance {
        let leaf = path.rsplit('.').next().unwrap_or(path);
        match metric(leaf).map_or(Class::Exact, |m| m.class) {
            Class::Time => Tolerance::rel(self.time_rel),
            Class::Model => Tolerance::abs(self.model_abs),
            Class::Count => Tolerance { rel: self.count_rel, abs: self.count_abs },
            Class::Bytes => Tolerance::rel(self.bytes_rel),
            Class::Exact => Tolerance::EXACT,
        }
    }
}

/// Parses two sweep documents and compares `current` against
/// `baseline` under the gate's tolerances. Errors are parse failures,
/// not drift — drift is in the returned [`BaselineDiff`].
pub fn diff_documents(
    baseline: &str,
    current: &str,
    tol: &GateTolerances,
) -> Result<BaselineDiff, String> {
    let b = parse(baseline).map_err(|e| format!("baseline is not valid JSON: {e}"))?;
    let c = parse(current).map_err(|e| format!("current report is not valid JSON: {e}"))?;
    check_schema(&b, "baseline")?;
    check_schema(&c, "current report")?;
    Ok(compare(&b, &c, &|path| tol.for_path(path)))
}

fn check_schema(doc: &Json, what: &str) -> Result<(), String> {
    let Json::Obj(members) = doc else {
        return Err(format!("{what} is not a JSON object"));
    };
    match members.iter().find(|(k, _)| k == "schema") {
        Some((_, Json::Str(s))) if s == crate::sweep::SCHEMA => Ok(()),
        Some((_, other)) => Err(format!(
            "{what} has schema {other}, expected \"{}\"",
            crate::sweep::SCHEMA
        )),
        None => Err(format!("{what} has no schema field")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::Grid;
    use crate::sweep::Sweep;

    fn sweep_text() -> String {
        Sweep::run(Grid::smoke(), 2, None).unwrap().to_json().to_string_flat()
    }

    #[test]
    fn identical_sweeps_pass_the_gate() {
        let text = sweep_text();
        let diff = diff_documents(&text, &text, &GateTolerances::default()).unwrap();
        assert!(diff.passes());
        assert!(diff.deltas.is_empty());
        assert!(diff.compared > 50, "compared only {} leaves", diff.compared);
    }

    #[test]
    fn a_perturbed_metric_beyond_tolerance_fails_the_gate() {
        let text = sweep_text();
        // Perturb the first user_s value by 10x its 2% tolerance.
        let needle = "\"user_s\":";
        let at = text.find(needle).unwrap() + needle.len();
        let end = at + text[at..].find(',').unwrap();
        let v: f64 = text[at..end].parse().unwrap();
        let perturbed = format!("{}{}{}", &text[..at], v * 1.2, &text[end..]);
        let diff = diff_documents(&text, &perturbed, &GateTolerances::default()).unwrap();
        assert!(!diff.passes());
        let v = diff.violations().next().unwrap();
        assert!(v.path.ends_with("user_s"), "unexpected violation path {}", v.path);
    }

    #[test]
    fn a_perturbation_within_tolerance_passes_but_is_reported() {
        let text = sweep_text();
        let needle = "\"user_s\":";
        let at = text.find(needle).unwrap() + needle.len();
        let end = at + text[at..].find(',').unwrap();
        let v: f64 = text[at..end].parse().unwrap();
        let perturbed = format!("{}{}{}", &text[..at], v * 1.001, &text[end..]);
        let diff = diff_documents(&text, &perturbed, &GateTolerances::default()).unwrap();
        assert!(diff.passes());
        assert_eq!(diff.deltas.len(), 1);
        // Strict mode turns the same drift into a violation.
        let strict = diff_documents(&text, &perturbed, &GateTolerances::strict()).unwrap();
        assert!(!strict.passes());
    }

    #[test]
    fn identity_leaves_are_always_exact() {
        let text = sweep_text();
        let perturbed = text.replace("\"cpus\":4", "\"cpus\":5");
        let diff = diff_documents(&text, &perturbed, &GateTolerances::default()).unwrap();
        assert!(!diff.passes());
    }

    /// Builds two one-leaf documents and gates `cur` against `base`.
    /// The leaf name selects the tolerance class under test.
    fn gate_leaf(
        leaf: &str,
        base: impl Into<Json>,
        cur: impl Into<Json>,
        tol: &GateTolerances,
    ) -> BaselineDiff {
        let mk = |v: Json| {
            Json::obj()
                .field("schema", crate::sweep::SCHEMA)
                .field(leaf, v)
                .to_string_flat()
        };
        diff_documents(&mk(base.into()), &mk(cur.into()), tol).unwrap()
    }

    // One boundary test per tolerance class: a drift just inside the
    // band passes, a drift just outside trips. The "just over" margins
    // account for `Tolerance::allows` using max(|baseline|, |current|)
    // as the relative base.

    #[test]
    fn time_class_has_two_percent_relative_slack() {
        let tol = GateTolerances::default();
        for leaf in ["user_s", "system_s", "makespan_ns", "t_local_s", "t_global_s", "t_numa_s"] {
            assert!(gate_leaf(leaf, 100.0, 101.5, &tol).passes(), "{leaf}: 1.5% tripped");
            assert!(!gate_leaf(leaf, 100.0, 103.0, &tol).passes(), "{leaf}: 3% passed");
        }
    }

    #[test]
    fn latency_percentiles_share_the_time_class() {
        // Tail latencies are virtual times, so they drift (if at all)
        // with the same cost-model shifts that move user_s — they get
        // the same relative band. Request counts stay identity-exact:
        // a served-request delta is a different workload, not drift.
        let tol = GateTolerances::default();
        for leaf in ["p50_ns", "p95_ns", "p99_ns", "p999_ns"] {
            assert!(gate_leaf(leaf, 1_000_000u64, 1_015_000u64, &tol).passes(), "{leaf}: 1.5% tripped");
            assert!(!gate_leaf(leaf, 1_000_000u64, 1_030_000u64, &tol).passes(), "{leaf}: 3% passed");
        }
        for leaf in ["requests_served", "gets", "puts"] {
            assert!(!gate_leaf(leaf, 1000u64, 1001u64, &tol).passes(), "{leaf}: not exact");
        }
    }

    #[test]
    fn model_class_has_an_absolute_window() {
        let tol = GateTolerances::default();
        for leaf in ["alpha", "beta", "gamma", "alpha_measured"] {
            assert!(gate_leaf(leaf, 0.5, 0.515, &tol).passes(), "{leaf}: +0.015 tripped");
            assert!(!gate_leaf(leaf, 0.5, 0.525, &tol).passes(), "{leaf}: +0.025 passed");
            // The window is absolute precisely so factors near zero get
            // headroom a relative band would deny them.
            assert!(gate_leaf(leaf, 0.0, 0.015, &tol).passes(), "{leaf}: near-zero tripped");
            assert!(!gate_leaf(leaf, 0.0, 0.025, &tol).passes(), "{leaf}: near-zero passed");
        }
    }

    #[test]
    fn counter_class_has_ten_percent_relative_slack() {
        let tol = GateTolerances::default();
        let counts: Vec<&str> =
            ace_sim::METRICS.iter().filter(|m| m.class == Class::Count).map(|m| m.name).collect();
        for leaf in ["near_replications", "recovery_actions", "threads_drained", "admitted"] {
            assert!(counts.contains(&leaf), "{leaf} is not a counter");
        }
        for leaf in counts {
            assert!(gate_leaf(leaf, 1000u64, 1080u64, &tol).passes(), "{leaf}: 8% tripped");
            assert!(!gate_leaf(leaf, 1000u64, 1130u64, &tol).passes(), "{leaf}: 13% passed");
        }
    }

    #[test]
    fn flush_pin_counters_share_the_counter_floor_and_policy_stays_exact() {
        // A handful of flush pins may wobble by the floor's two events;
        // the policy label on a model row is identity, never drift.
        let tol = GateTolerances::default();
        assert!(gate_leaf("flush_pins", 3u64, 5u64, &tol).passes());
        assert!(!gate_leaf("flush_pins", 3u64, 6u64, &tol).passes());
        assert!(!gate_leaf("policy", "flush-limit", "move-limit", &tol).passes());
    }

    #[test]
    fn counter_class_has_an_absolute_floor_for_tiny_counts() {
        // 3 -> 5 is a 67% relative jump but only two events: the floor
        // absorbs it. One more event is out.
        let tol = GateTolerances::default();
        assert!(gate_leaf("pins", 3u64, 5u64, &tol).passes(), "floor did not absorb 2 events");
        assert!(!gate_leaf("pins", 3u64, 6u64, &tol).passes(), "3 events slipped under the floor");
    }

    #[test]
    fn overload_ledger_counters_share_the_counter_class() {
        // Shed counts wobble with the same cost-model shifts that move
        // any protocol counter; the floor absorbs a couple of requests
        // on near-empty ledgers.
        let tol = GateTolerances::default();
        for leaf in ["admitted", "shed_queue_full", "shed_deadline", "shed_quota"] {
            assert!(gate_leaf(leaf, 1000u64, 1080u64, &tol).passes(), "{leaf}: 8% tripped");
            assert!(!gate_leaf(leaf, 1000u64, 1130u64, &tol).passes(), "{leaf}: 13% passed");
            assert!(gate_leaf(leaf, 3u64, 5u64, &tol).passes(), "{leaf}: floor missing");
            assert!(!gate_leaf(leaf, 3u64, 6u64, &tol).passes(), "{leaf}: floor too wide");
        }
    }

    #[test]
    fn goodput_percentiles_share_the_time_class() {
        let tol = GateTolerances::default();
        for leaf in ["goodput_p50_ns", "goodput_p95_ns", "goodput_p99_ns", "goodput_p999_ns"] {
            assert!(
                gate_leaf(leaf, 1_000_000u64, 1_015_000u64, &tol).passes(),
                "{leaf}: 1.5% tripped"
            );
            assert!(
                !gate_leaf(leaf, 1_000_000u64, 1_030_000u64, &tol).passes(),
                "{leaf}: 3% passed"
            );
        }
        // The knob axes themselves are identity: a different queue
        // depth or deadline is a different experiment, not drift.
        for leaf in ["queue_depth", "deadline_ns", "tenant_quota"] {
            assert!(!gate_leaf(leaf, 8u64, 9u64, &tol).passes(), "{leaf}: not exact");
        }
    }

    #[test]
    fn bus_bytes_class_has_two_percent_relative_slack() {
        let tol = GateTolerances::default();
        assert!(gate_leaf("bus_bytes", 1_000_000u64, 1_015_000u64, &tol).passes());
        assert!(!gate_leaf("bus_bytes", 1_000_000u64, 1_030_000u64, &tol).passes());
    }

    #[test]
    fn strict_mode_trips_on_drift_every_class_would_absorb() {
        let strict = GateTolerances::strict();
        let cases: &[(&str, Json, Json)] = &[
            ("user_s", Json::Num(100.0), Json::Num(100.5)),
            ("alpha", Json::Num(0.5), Json::Num(0.51)),
            ("pins", Json::Int(10), Json::Int(11)),
            ("bus_bytes", Json::Int(1_000_000), Json::Int(1_000_100)),
        ];
        for (leaf, base, cur) in cases {
            assert!(
                gate_leaf(leaf, base.clone(), cur.clone(), &GateTolerances::default()).passes(),
                "{leaf}: default tolerance should absorb this drift"
            );
            assert!(
                !gate_leaf(leaf, base.clone(), cur.clone(), &strict).passes(),
                "{leaf}: strict mode let drift through"
            );
            // Strict still passes bit-identical documents.
            assert!(gate_leaf(leaf, base.clone(), base.clone(), &strict).passes());
        }
    }

    #[test]
    fn schema_mismatch_is_an_error_not_a_diff() {
        let text = sweep_text();
        let other = text.replace(crate::sweep::SCHEMA, "something/else/v9");
        assert!(diff_documents(&other, &text, &GateTolerances::default()).is_err());
        assert!(diff_documents("not json", &text, &GateTolerances::default()).is_err());
    }
}
