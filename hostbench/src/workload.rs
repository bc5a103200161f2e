//! The workloads, one repetition of each (untraced or traced), the
//! correctness gate, and the simulated outcomes read off a finished
//! sweep.

use ace_sim::{RunReport, Simulator};
use numa_lab::{
    diff_documents, run_jobs_opts, FarmOptions, GateTolerances, Grid, JobSpec, Placement, Sweep,
};
use numa_metrics::{Json, LatencyHistogram};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::spans::Tracer;
use crate::stats::{model_errors, rate};

/// Farm workers: cells run one at a time, so host timings measure the
/// program rather than the host scheduler's placement of two workers.
pub const FARM_WORKERS: usize = 1;

/// A named, fixed grid of sweep cells.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Workload {
    /// `paper-bench`: the paper's 8 apps x {local, global, numa} at
    /// Bench scale.
    BatchPaper,
    /// `serving`: KvServe under open-loop load, 3 placements x 3 policies.
    KvServe,
    /// `overload`: KvServe past saturation with admission limits and
    /// node loss in half the cells.
    KvOverload,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::BatchPaper,
        Workload::KvServe,
        Workload::KvOverload,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::BatchPaper => "batch-paper",
            Workload::KvServe => "kv-serve",
            Workload::KvOverload => "kv-overload",
        }
    }

    pub fn from_name(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The lab preset this workload runs.
    pub fn grid(self) -> Grid {
        match self {
            Workload::BatchPaper => Grid::paper_bench(),
            Workload::KvServe => Grid::serving(),
            Workload::KvOverload => Grid::overload(),
        }
    }

    /// The committed document the workload's output must match byte
    /// for byte, relative to the repository root. `paper-bench` has
    /// none: its documents must instead agree across repetitions.
    pub fn baseline_file(self) -> Option<&'static str> {
        match self {
            Workload::BatchPaper => None,
            Workload::KvServe => Some("BENCH_serving.json"),
            Workload::KvOverload => Some("BENCH_overload.json"),
        }
    }
}

fn farm_options() -> FarmOptions {
    // Same options as `numa-lab run`, with a watchdog well inside the
    // benchmark's own time limit so a wedged cell fails typed.
    FarmOptions {
        timeout: Some(Duration::from_secs(120)),
        retry_faulted: true,
    }
}

/// One finished repetition.
pub struct Rep {
    /// Host seconds from grid expansion to a gated document.
    pub wall_s: f64,
    pub doc: String,
    pub sweep: Sweep,
}

/// One untraced repetition through the lab's public one-call path,
/// exactly as `numa-lab run --jobs 1` runs a grid.
pub fn untraced_rep(grid: &Grid, reference: Option<&str>) -> Result<Rep, String> {
    let t0 = Instant::now();
    let sweep = Sweep::run_opts(grid.clone(), FARM_WORKERS, None, farm_options())
        .map_err(|e| e.to_string())?;
    let doc = sweep.to_json().to_string_flat();
    gate(&sweep, &doc, reference)?;
    Ok(Rep {
        wall_s: t0.elapsed().as_secs_f64(),
        doc,
        sweep,
    })
}

/// One traced repetition: the same calls, split at each layer boundary
/// with a span around every public call.
pub fn traced_rep(
    grid: &Grid,
    reference: Option<&str>,
    tracer: &Arc<Tracer>,
) -> Result<Rep, String> {
    let t0 = Instant::now();
    let (doc, sweep) = tracer.span(
        "rep",
        None,
        None,
        |rep| -> Result<(String, Sweep), String> {
            let jobs = tracer.span("lab.grid", None, Some(rep), |_| grid.jobs());
            let results = tracer
                .span("lab.farm", None, Some(rep), |farm| {
                    let tr = Arc::clone(tracer);
                    run_jobs_opts(
                        &jobs,
                        FARM_WORKERS,
                        None,
                        farm_options(),
                        move |spec| run_cell_traced(spec, &tr, farm),
                        |_, _| {},
                    )
                })
                .map_err(|e| e.to_string())?;
            let sweep = Sweep {
                grid: grid.clone(),
                results,
            };
            let doc = tracer.span("lab.sweep", None, Some(rep), |_| {
                sweep.to_json().to_string_flat()
            });
            tracer.span("lab.gate", None, Some(rep), |_| {
                gate(&sweep, &doc, reference)
            })?;
            Ok((doc, sweep))
        },
    )?;
    Ok(Rep {
        wall_s: t0.elapsed().as_secs_f64(),
        doc,
        sweep,
    })
}

/// `JobSpec::run`, step for step, with spans around `Simulator::new`,
/// `App::run` and `Simulator::report`. The traced document must equal
/// the untraced one byte for byte, which checks that this stays the
/// same function of the cell as the lab's own runner.
fn run_cell_traced(spec: &JobSpec, tr: &Tracer, farm: usize) -> Result<RunReport, String> {
    let cell = Some(spec.id);
    spec.sim_config()
        .machine
        .validate()
        .map_err(|e| format!("{}: bad machine config: {e}", spec.label()))?;
    let app = spec.make_app();
    let cfg = spec.sim_config();
    let budget = cfg.vt_budget.map_or(0, |n| n.0);
    let mut sim = tr.span("sim.setup", cell, Some(farm), |_| {
        Simulator::new(cfg, spec.policy())
    });
    if spec.hard_schedule().is_empty() {
        let result = tr.span("apps.run", cell, Some(farm), |_| {
            app.run(&mut sim, spec.workers)
        });
        if sim.vt_exceeded() {
            return Err(format!(
                "{}: virtual-time budget of {budget} ns exceeded",
                spec.label()
            ));
        }
        result.map_err(|e| format!("{}: {e}", spec.label()))?;
        return Ok(tr.span("sim.report", cell, Some(farm), |_| sim.report()));
    }
    let outcome = tr.span("apps.run", cell, Some(farm), |_| {
        catch_unwind(AssertUnwindSafe(|| app.run(&mut sim, spec.workers)))
    });
    let degraded = if sim.vt_exceeded() {
        Some(format!(
            "virtual-time budget of {budget} ns exceeded after component loss"
        ))
    } else {
        match outcome {
            Ok(Ok(())) => None,
            Ok(Err(e)) => Some(format!("verification failed after component loss: {e}")),
            Err(panic) => {
                let msg = panic
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .or_else(|| panic.downcast_ref::<&str>().copied())
                    .unwrap_or("opaque panic");
                Some(format!("workload aborted after component loss: {msg}"))
            }
        }
    };
    let mut report = tr.span("sim.report", cell, Some(farm), |_| sim.report());
    report.degraded = degraded;
    Ok(report)
}

/// The correctness gate of one repetition. Every cell already passed
/// its app's own verification (a failure is a farm error); on top of
/// that, every serving cell's admission ledger must balance, and the
/// document must equal `reference` byte for byte and leaf for leaf.
pub fn gate(sweep: &Sweep, doc: &str, reference: Option<&str>) -> Result<(), String> {
    for r in &sweep.results {
        if let Some(s) = &r.report.serving {
            if !s.ledger_balanced() {
                return Err(format!(
                    "cell {} ({}): serving ledger unbalanced: {} requests != {} admitted + {} shed",
                    r.spec.id,
                    r.spec.label(),
                    s.requests,
                    s.admitted,
                    s.shed_total()
                ));
            }
        }
    }
    let Some(reference) = reference else {
        return Ok(());
    };
    let diff = diff_documents(reference, doc, &GateTolerances::strict())?;
    if let Some(d) = diff.deltas.first() {
        return Err(format!(
            "document drifted from the reference at {} leaves; first {}: {} -> {}",
            diff.deltas.len(),
            d.path,
            d.baseline,
            d.current
        ));
    }
    if doc != reference {
        return Err(format!(
            "document bytes differ from the reference ({} vs {} bytes) with no leaf drift",
            doc.len(),
            reference.len()
        ));
    }
    Ok(())
}

/// Simulated outcomes and deterministic work counts of one sweep. Two
/// sweeps with equal documents have equal outcomes.
pub struct Outcomes {
    pub cells: u64,
    pub refs: u64,
    pub requests: u64,
    pub json: Json,
    /// `(metric name, count)` pairs reported as per-layer metrics.
    pub counts: Vec<(&'static str, u64)>,
}

pub fn outcomes(sweep: &Sweep) -> Outcomes {
    let res = &sweep.results;
    let sum = |f: &dyn Fn(&RunReport) -> u64| res.iter().map(|r| f(&r.report)).sum::<u64>();
    let serve =
        |f: &dyn Fn(&numa_metrics::ServingReport) -> u64| sum(&|r| r.serving.as_ref().map_or(0, f));
    let cells = res.len() as u64;
    let degraded = res.iter().filter(|r| r.report.degraded.is_some()).count() as u64;
    let refs = sum(&|r| r.refs.local + r.refs.global + r.refs.remote);
    let requests = serve(&|s| s.requests);
    let counts = vec![
        ("sim.refs.local", sum(&|r| r.refs.local)),
        ("sim.refs.global", sum(&|r| r.refs.global)),
        ("sim.refs.remote", sum(&|r| r.refs.remote)),
        ("core.requests", sum(&|r| r.numa.requests)),
        ("core.replications", sum(&|r| r.numa.replications)),
        ("core.migrations", sum(&|r| r.numa.migrations)),
        ("core.syncs", sum(&|r| r.numa.syncs)),
        ("core.flushes", sum(&|r| r.numa.flushes)),
        ("core.shootdowns", sum(&|r| r.numa.shootdowns)),
        ("core.pins", sum(&|r| r.numa.pins)),
        ("core.flush_pins", sum(&|r| r.numa.flush_pins)),
        ("core.pages_rehomed", sum(&|r| r.numa.pages_rehomed)),
        ("core.pages_lost", sum(&|r| r.numa.pages_lost)),
        (
            "ace.bus.global_words",
            sum(&|r| r.bus.global_word_transfers),
        ),
        ("ace.bus.copy_words", sum(&|r| r.bus.copy_word_transfers)),
        (
            "ace.bus.remote_words",
            sum(&|r| r.bus.remote_word_transfers),
        ),
        ("ace.bus.bytes", sum(&|r| r.bus.total_bytes())),
        ("apps.serve.requests", requests),
        ("apps.serve.admitted", serve(&|s| s.admitted)),
        ("apps.serve.shed_queue_full", serve(&|s| s.shed_queue_full)),
        ("apps.serve.shed_deadline", serve(&|s| s.shed_deadline)),
        ("apps.serve.shed_quota", serve(&|s| s.shed_quota)),
        ("apps.cells_degraded", degraded),
    ];

    let numa: Vec<&RunReport> = res
        .iter()
        .filter(|r| r.spec.placement == Placement::Numa)
        .map(|r| &r.report)
        .collect();
    let mut j = Json::obj()
        .field("cells", cells)
        .field("cell_fail_rate", rate(degraded, cells))
        .field(
            "vt_makespan_s",
            res.iter()
                .map(|r| r.report.makespan().as_secs_f64())
                .sum::<f64>(),
        );
    if requests > 0 {
        let mut hist = LatencyHistogram::new();
        for s in numa.iter().filter_map(|r| r.serving.as_ref()) {
            hist.merge(&s.latency);
        }
        j = j
            .field("shed_rate", rate(serve(&|s| s.shed_total()), requests))
            .field("vt_latency_n", hist.total())
            .field("vt_p50_us", hist.p50() as f64 / 1e3)
            .field("vt_p99_us", hist.p99() as f64 / 1e3)
            .field("vt_p999_us", hist.p999() as f64 / 1e3);
    }
    let rows = sweep.model_rows();
    let ((alpha_err, alpha_n), (gamma_err, gamma_n)) =
        model_errors(rows.iter().map(|r| (r.spec.app.name(), r.alpha, r.gamma)));
    if alpha_n + gamma_n > 0 {
        j = j
            .field("vt_user_s", numa.iter().map(|r| r.user_secs()).sum::<f64>())
            .field("model_alpha_err", alpha_err)
            .field("model_alpha_apps", alpha_n)
            .field("model_gamma_err", gamma_err)
            .field("model_gamma_apps", gamma_n);
    }
    let mut counts_json = Json::obj();
    for (name, v) in &counts {
        counts_json = counts_json.field(name, *v);
    }
    Outcomes {
        cells,
        refs,
        requests,
        json: j.field("counts", counts_json),
        counts,
    }
}

/// Host time of the `apps.run` spans of one traced repetition, split by
/// placement and by application, with the work each group simulated.
pub struct RunSplit {
    /// placement label -> (host seconds, simulated references)
    pub by_placement: BTreeMap<String, (f64, u64)>,
    /// app name -> host seconds
    pub by_app: BTreeMap<&'static str, f64>,
    /// total host seconds in `App::run`, and total simulated makespan (s)
    pub total_s: f64,
    pub makespan_s: f64,
}

pub fn run_split(sweep: &Sweep, run_s_by_cell: &BTreeMap<usize, f64>) -> RunSplit {
    let mut split = RunSplit {
        by_placement: BTreeMap::new(),
        by_app: BTreeMap::new(),
        total_s: 0.0,
        makespan_s: 0.0,
    };
    for r in &sweep.results {
        let secs = run_s_by_cell.get(&r.spec.id).copied().unwrap_or(0.0);
        let refs = r.report.refs.local + r.report.refs.global + r.report.refs.remote;
        let e = split
            .by_placement
            .entry(r.spec.placement.label())
            .or_default();
        e.0 += secs;
        e.1 += refs;
        *split.by_app.entry(r.spec.app.name()).or_default() += secs;
        split.total_s += secs;
        split.makespan_s += r.report.makespan().as_secs_f64();
    }
    split
}

#[cfg(test)]
mod tests {
    use super::*;
    use numa_lab::grid::PolicyAxis;

    /// Two overload cells at 16x saturation with every admission limit
    /// on, one healthy and one losing a node: both ledgers are exact.
    fn small_overload() -> Grid {
        Grid {
            name: "overload-small".into(),
            policies: vec![PolicyAxis::FlushLimit],
            req_rates: vec![32_000],
            queue_depths: vec![8],
            deadlines_ns: vec![400_000],
            tenant_quotas: vec![800],
            ..Grid::overload()
        }
    }

    #[test]
    fn shed_rate_and_cell_fail_rate_follow_the_ledgers() {
        let rep = untraced_rep(&small_overload(), None).expect("cells run and gate");
        let out = outcomes(&rep.sweep);
        let count = |name: &str| out.counts.iter().find(|(n, _)| *n == name).expect(name).1;
        let shed = count("apps.serve.shed_queue_full")
            + count("apps.serve.shed_deadline")
            + count("apps.serve.shed_quota");
        assert_eq!(out.cells, 2);
        assert_eq!(
            count("apps.serve.requests"),
            count("apps.serve.admitted") + shed
        );
        assert!(shed > 0, "16x saturation sheds");
        let field = |name: &str| match &out.json {
            Json::Obj(members) => members
                .iter()
                .find(|(k, _)| k == name)
                .map(|(_, v)| v.clone()),
            _ => None,
        };
        assert_eq!(
            field("shed_rate"),
            Some(Json::Num(rate(shed, out.requests)))
        );
        let degraded = count("apps.cells_degraded");
        assert_eq!(field("cell_fail_rate"), Some(Json::Num(rate(degraded, 2))));
    }

    #[test]
    fn traced_cells_reproduce_the_untraced_document() {
        let grid = small_overload();
        let plain = untraced_rep(&grid, None).expect("untraced");
        let traced =
            traced_rep(&grid, Some(&plain.doc), &Arc::new(Tracer::new())).expect("traced gates");
        assert_eq!(plain.doc, traced.doc);
    }

    #[test]
    fn the_gate_rejects_any_drift() {
        let grid = Grid {
            apps: vec![numa_lab::AppId::Gfetch],
            ..Grid::smoke()
        };
        let rep = untraced_rep(&grid, None).expect("smoke cells run");
        assert!(gate(&rep.sweep, &rep.doc, Some(&rep.doc)).is_ok());
        let drifted = rep.doc.replacen("\"pins\":", "\"pins\":1", 1);
        assert!(gate(&rep.sweep, &rep.doc, Some(&drifted)).is_err());
        let respaced = format!("{} ", rep.doc);
        assert!(
            gate(&rep.sweep, &rep.doc, Some(&respaced)).is_err(),
            "bytes must match too"
        );
    }
}
