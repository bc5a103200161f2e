//! The run-metric table: every counter and measurement a run reports,
//! declared once.
//!
//! Each [`Metric`] gives a name, the regression gate's tolerance
//! [`Class`], an accessor ([`Get`]) and a presence rule ([`Shown`]).
//! The run report, the lab's sweep rows, model rows, checkpoint codec
//! and gate all read this table. Documents do not share one field order, so each
//! keeps its own ordered list of names; everything else lives here.

use crate::report::RunReport;
use numa_core::NumaStats;
use numa_metrics::{Json, ServingReport};

/// How the regression gate tolerates drift in a metric.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Class {
    /// Virtual times and latencies: a relative band.
    Time,
    /// Model factors (α, β, γ): an absolute window.
    Model,
    /// Protocol and admission counters: a relative band with an
    /// absolute floor of a few events.
    Count,
    /// Bus traffic: a relative band.
    Bytes,
    /// Identity: any change is a different experiment.
    Exact,
}

/// How a metric is read from a report.
#[derive(Clone, Copy)]
pub enum Get {
    /// A [`NumaStats`] field; checkpoints persist exactly these.
    Counter(fn(&mut NumaStats) -> &mut u64),
    /// Derived from the whole report; `None` means absent.
    Report(fn(&RunReport) -> Option<Json>),
    /// A field of the serving report; absent on batch runs.
    Serving(fn(&ServingReport) -> u64),
    /// A column of a sweep's model rows, solved by the lab from three
    /// cells; no single report has it.
    Model,
}

/// When a metric appears. Counters only some experiments produce are
/// omitted elsewhere, so documents that predate them keep their exact
/// bytes. The run report judges every group on its own values (noted
/// per variant). A sweep row does too, except for a group that an
/// optional grid axis reveals: the lab's axis list declares which, and
/// the row shows that group exactly when its cell sets the axis.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Shown {
    /// Whenever a document lists the metric.
    Always,
    /// Memory pressure (report: the counter is nonzero).
    Pressure,
    /// Flush-aware pinning (report: `flush_pins > 0`).
    FlushPin,
    /// Hierarchical machines (report: the counter is nonzero).
    Topology,
    /// Hard component loss (report: `hard_failure_actions() > 0`).
    HardFailure,
    /// A serving report is attached.
    Serving,
    /// The serving report engaged an overload knob.
    Limited,
    /// Never serialized; checkpoints still persist it.
    Never,
}

/// One entry of the metric table.
#[derive(Clone, Copy)]
pub struct Metric {
    /// Key in every document that shows the metric.
    pub name: &'static str,
    /// Gate tolerance class.
    pub class: Class,
    /// Accessor.
    pub get: Get,
    /// Presence rule.
    pub shown: Shown,
}

impl Metric {
    /// The metric's value in `r`, or `None` when `r` has none (a
    /// serving metric of a batch run, a healthy run's degraded reason).
    pub fn value(&self, r: &RunReport) -> Option<Json> {
        match self.get {
            Get::Counter(field) => Some((*field(&mut { r.numa })).into()),
            Get::Report(f) => f(r),
            Get::Serving(f) => r.serving.as_ref().map(|s| f(s).into()),
            Get::Model => None,
        }
    }

    /// Whether the run report shows the metric, judged on its values.
    pub fn shown_in_report(&self, r: &RunReport) -> bool {
        match self.shown {
            Shown::Always => true,
            Shown::Pressure | Shown::Topology => self.value(r) != Some(Json::Int(0)),
            Shown::FlushPin => r.numa.flush_pins > 0,
            Shown::HardFailure => r.numa.hard_failure_actions() > 0,
            Shown::Serving => r.serving.is_some(),
            Shown::Limited => r.serving.as_ref().is_some_and(|s| s.limited),
            Shown::Never => false,
        }
    }
}

/// The metric named `name`, if any.
pub fn metric(name: &str) -> Option<&'static Metric> {
    METRICS.iter().find(|m| m.name == name)
}

/// The metrics a document's field list names, in its order.
///
/// # Panics
///
/// On a name with no table entry: the lists are constants, so that is
/// a programming error every test run catches.
pub fn metrics(names: &[&str]) -> Vec<&'static Metric> {
    let find = |n: &&str| metric(n).unwrap_or_else(|| panic!("`{n}` is not in the metric table"));
    names.iter().map(find).collect()
}

/// Every [`NumaStats`] counter: its name and field, in table order.
pub fn counters() -> impl Iterator<Item = (&'static str, fn(&mut NumaStats) -> &mut u64)> {
    METRICS.iter().filter_map(|m| match m.get {
        Get::Counter(field) => Some((m.name, field)),
        _ => None,
    })
}

/// `m!(field, Class, Shown)` for a [`NumaStats`] counter, or
/// `m!("name", Class, Shown, Get::Variant(accessor))`.
macro_rules! m {
    ($field:ident, $class:ident, $shown:ident) => {
        m!(stringify!($field), $class, $shown, Get::Counter(|n| &mut n.$field))
    };
    ($name:expr, $class:ident, $shown:ident, $get:expr) => {
        Metric { name: $name, class: Class::$class, get: $get, shown: Shown::$shown }
    };
}

/// Every run metric. Each [`NumaStats`] field has exactly one
/// `Counter` entry (a test enforces it).
pub const METRICS: &[Metric] = &[
    m!("user_s", Time, Always, Get::Report(|r| Some(r.user_secs().into()))),
    m!("system_s", Time, Always, Get::Report(|r| Some(r.system_secs().into()))),
    m!("makespan_ns", Time, Always, Get::Report(|r| Some(r.makespan().0.into()))),
    m!("alpha_measured", Model, Always, Get::Report(|r| Some(r.alpha_measured().into()))),
    m!(requests, Count, Always),
    m!(read_requests, Count, Always),
    m!(write_requests, Count, Always),
    m!(replications, Count, Always),
    m!(migrations, Count, Always),
    m!(syncs, Count, Always),
    m!(flushes, Count, Always),
    m!(shootdowns, Count, Always),
    m!(to_global, Count, Always),
    m!(to_remote, Count, Always),
    m!(pins, Count, Always),
    m!(zero_fill_local, Count, Always),
    m!(zero_fill_global, Count, Always),
    m!(local_pressure_fallbacks, Count, Always),
    m!("recovery_actions", Count, Always, Get::Report(|r| Some(r.numa.recovery_actions().into()))),
    m!(lazy_free_syncs, Count, Never),
    m!(bus_retries, Count, Never),
    m!(frame_quarantines, Count, Never),
    m!(corruptions_detected, Count, Never),
    m!(replica_refetches, Count, Never),
    m!(fault_global_fallbacks, Count, Never),
    m!(local_peak_frames, Count, Never),
    m!(reclaims, Count, Pressure),
    m!(degradations, Count, Pressure),
    m!(pressure_ticks, Count, Pressure),
    m!(flush_pins, Count, FlushPin),
    m!(coherence_invalidations, Count, FlushPin),
    m!(near_replications, Count, Topology),
    m!(nodes_offlined, Count, HardFailure),
    m!(pages_rehomed, Count, HardFailure),
    m!(pages_lost, Count, HardFailure),
    m!(threads_drained, Count, HardFailure),
    m!(dead_node_fallbacks, Count, HardFailure),
    m!("degraded", Exact, Always, Get::Report(|r| r.degraded.as_deref().map(Json::from))),
    m!("requests_served", Exact, Serving, Get::Serving(|s| s.requests)),
    m!("gets", Exact, Serving, Get::Serving(|s| s.gets)),
    m!("puts", Exact, Serving, Get::Serving(|s| s.puts)),
    m!("p50_ns", Time, Serving, Get::Serving(|s| s.latency.p50())),
    m!("p95_ns", Time, Serving, Get::Serving(|s| s.latency.p95())),
    m!("p99_ns", Time, Serving, Get::Serving(|s| s.latency.p99())),
    m!("p999_ns", Time, Serving, Get::Serving(|s| s.latency.p999())),
    m!("admitted", Count, Limited, Get::Serving(|s| s.admitted)),
    m!("shed_queue_full", Count, Limited, Get::Serving(|s| s.shed_queue_full)),
    m!("shed_deadline", Count, Limited, Get::Serving(|s| s.shed_deadline)),
    m!("shed_quota", Count, Limited, Get::Serving(|s| s.shed_quota)),
    m!("goodput_p50_ns", Time, Limited, Get::Serving(|s| s.goodput.p50())),
    m!("goodput_p95_ns", Time, Limited, Get::Serving(|s| s.goodput.p95())),
    m!("goodput_p99_ns", Time, Limited, Get::Serving(|s| s.goodput.p99())),
    m!("goodput_p999_ns", Time, Limited, Get::Serving(|s| s.goodput.p999())),
    m!("bus_bytes", Bytes, Always, Get::Report(|r| Some(r.bus.total_bytes().into()))),
    m!("t_local_s", Time, Always, Get::Model),
    m!("t_global_s", Time, Always, Get::Model),
    m!("t_numa_s", Time, Always, Get::Model),
    m!("alpha", Model, Always, Get::Model),
    m!("beta", Model, Always, Get::Model),
    m!("gamma", Model, Always, Get::Model),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_numa_stats_field_has_one_counter_entry() {
        // `Debug` prints each field as `name: value`; a field added to
        // the struct without a table entry breaks the count.
        let debug = format!("{:?}", NumaStats::default());
        let fields: Vec<&str> = debug
            .split(['{', ','])
            .skip(1)
            .filter_map(|f| f.split(':').next())
            .map(str::trim)
            .collect();
        let counters: Vec<&str> = counters().map(|(name, _)| name).collect();
        assert_eq!(counters.len(), fields.len(), "fields {fields:?}");
        for f in &fields {
            assert!(counters.contains(f), "NumaStats::{f} has no Counter entry");
        }
    }

    #[test]
    fn counter_entries_read_their_own_field() {
        // A distinct value per field: an entry pointing at the wrong
        // field reads another entry's value.
        let mut n = NumaStats::default();
        for (i, (_, f)) in counters().enumerate() {
            *f(&mut n) = 100 + i as u64;
        }
        let debug = format!("{n:?}");
        for (i, (name, _)) in counters().enumerate() {
            assert!(debug.contains(&format!("{name}: {}", 100 + i)), "{name} in {debug}");
        }
    }

    #[test]
    fn names_are_unique() {
        for (i, m) in METRICS.iter().enumerate() {
            assert!(METRICS[..i].iter().all(|o| o.name != m.name), "{} twice", m.name);
        }
    }
}
