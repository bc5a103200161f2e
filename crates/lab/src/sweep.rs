//! Aggregation: a finished grid rendered as one deterministic report.
//!
//! The sweep document is the lab's unit of trajectory: `numa-lab run`
//! writes it as `BENCH_sweep.json`, CI regenerates it and requires the
//! bytes to match, and the regression gate diffs a fresh run against
//! the committed copy with per-metric tolerances.
//!
//! Besides the raw per-cell measurements, the report solves the
//! paper's analytic model (equations 4 and 5) for every `numa` cell
//! whose `local` and `global` companions are in the same grid, and
//! embeds the paper's published α/β/γ next to each solved row — the
//! same side-by-side the bench harnesses print, but machine-readable.

use crate::checkpoint::Checkpoint;
use crate::farm::{self, FarmOptions, JobResult, LabError};
use crate::grid::{Grid, JobSpec, Placement};
use ace_sim::{metrics, Get};
use numa_metrics::paper::{paper_alpha, paper_beta_gamma};
use numa_metrics::{Json, Model, ServingReport, SharedSink};
use std::collections::HashMap;

/// Schema tag of the sweep document.
pub const SCHEMA: &str = "numa-repro/lab-sweep/v1";

/// A grid together with its results, in grid order.
#[derive(Clone, Debug)]
pub struct Sweep {
    /// The grid that ran.
    pub grid: Grid,
    /// One result per job, in grid order.
    pub results: Vec<JobResult>,
}

/// One solved model row (the sweep-level analogue of a Table 3 row).
#[derive(Clone, Debug)]
pub struct ModelRow {
    /// The `numa` cell the row was solved for.
    pub spec: JobSpec,
    /// T_local of the matching `local` cell (seconds).
    pub t_local: f64,
    /// T_global of the matching `global` cell (seconds).
    pub t_global: f64,
    /// T_numa of the cell itself (seconds).
    pub t_numa: f64,
    /// Model alpha; `None` when the app is placement-insensitive.
    pub alpha: Option<f64>,
    /// Model beta.
    pub beta: f64,
    /// Gamma.
    pub gamma: f64,
    /// Ground-truth local-reference fraction of the `numa` run.
    pub alpha_measured: f64,
    /// The `numa` cell's serving report, when the cell is a serving
    /// workload: its latency tail is published next to the model
    /// columns.
    pub serving: Option<ServingReport>,
}

impl Sweep {
    /// Runs `grid` on `n_workers` farm threads.
    pub fn run(
        grid: Grid,
        n_workers: usize,
        progress: Option<&SharedSink>,
    ) -> Result<Sweep, LabError> {
        Sweep::run_opts(grid, n_workers, progress, FarmOptions::default())
    }

    /// [`Sweep::run`] with farm options (wall-clock watchdog, bounded
    /// retry of fault-injected cells).
    pub fn run_opts(
        grid: Grid,
        n_workers: usize,
        progress: Option<&SharedSink>,
        opts: FarmOptions,
    ) -> Result<Sweep, LabError> {
        let results =
            farm::run_jobs_opts(&grid.jobs(), n_workers, progress, opts, JobSpec::run, |_, _| {})?;
        Ok(Sweep { grid, results })
    }

    /// Resumable run: cells already in `checkpoint` are not re-run,
    /// every newly finished cell is recorded as it completes, and the
    /// merged results come back in grid order — so the final document
    /// is byte-identical to an uninterrupted run of the same grid.
    pub fn run_resumable(
        grid: Grid,
        n_workers: usize,
        progress: Option<&SharedSink>,
        opts: FarmOptions,
        checkpoint: &mut Checkpoint,
    ) -> Result<Sweep, String> {
        let jobs = grid.jobs();
        let done = checkpoint.completed_results(&jobs);
        let have: std::collections::HashSet<usize> = done.iter().map(|r| r.spec.id).collect();
        let todo: Vec<JobSpec> = jobs.iter().filter(|j| !have.contains(&j.id)).cloned().collect();
        let mut io_err: Option<String> = None;
        let fresh =
            farm::run_jobs_opts(&todo, n_workers, progress, opts, JobSpec::run, |spec, report| {
                if io_err.is_none() {
                    io_err = checkpoint.record(spec, report).err();
                }
            })
            .map_err(|e| e.to_string())?;
        if let Some(e) = io_err {
            return Err(format!("sweep ran but checkpointing failed: {e}"));
        }
        let mut by_id: std::collections::BTreeMap<usize, JobResult> =
            done.into_iter().chain(fresh).map(|r| (r.spec.id, r)).collect();
        let results: Vec<JobResult> =
            jobs.iter().map(|j| by_id.remove(&j.id).expect("every job has a result")).collect();
        Ok(Sweep { grid, results })
    }

    /// Solves the analytic model for every `numa` cell whose `local`
    /// and `global` companions are in the grid: the cells holding its
    /// coordinates under those placements, collapsed by the same
    /// applicability rules as the grid's own cells.
    pub fn model_rows(&self) -> Vec<ModelRow> {
        let by_key: HashMap<_, &JobResult> =
            self.results.iter().map(|r| (r.spec.key(&self.grid), r)).collect();
        let find = |spec: JobSpec| by_key.get(&spec.key(&self.grid)).copied();
        let mut rows = Vec::new();
        for result in &self.results {
            if result.spec.placement != Placement::Numa {
                continue;
            }
            let (Some(local), Some(global)) = (
                find(result.spec.under(Placement::Local)),
                find(result.spec.under(Placement::Global)),
            ) else {
                continue;
            };
            let (t_local, t_global, t_numa) = (
                local.report.user_secs(),
                global.report.user_secs(),
                result.report.user_secs(),
            );
            let (alpha, beta, gamma) =
                match Model::solve(t_global, t_numa, t_local, result.spec.app.g_over_l()) {
                    Ok(m) => (Some(m.alpha), m.beta, m.gamma),
                    Err(_) => (None, 0.0, if t_local > 0.0 { t_numa / t_local } else { 1.0 }),
                };
            rows.push(ModelRow {
                spec: result.spec.clone(),
                t_local,
                t_global,
                t_numa,
                alpha,
                beta,
                gamma,
                alpha_measured: result.report.alpha_measured(),
                serving: result.report.serving.clone(),
            });
        }
        rows
    }

    /// The whole sweep as one deterministic JSON document.
    pub fn to_json(&self) -> Json {
        let row_metrics = metrics(&ROW);
        let jobs: Vec<Json> = self
            .results
            .iter()
            .map(|r| {
                let mut j = r.spec.to_json();
                for m in &row_metrics {
                    // Counters of an experiment family an axis reveals
                    // ride along only on cells that set the axis (the
                    // spec drives the shape, so the column set is
                    // uniform across a sweep of that axis).
                    let shown = r
                        .spec
                        .reveals(m.shown)
                        .unwrap_or_else(|| m.shown_in_report(&r.report));
                    if let Some(v) = m.value(&r.report).filter(|_| shown) {
                        j = j.field(m.name, v);
                    }
                }
                j
            })
            .collect();
        let tail = metrics(&MODEL_TAIL);
        let model: Vec<Json> = self
            .model_rows()
            .iter()
            .map(|m| {
                let mut j = m.spec.model_json(
                    Json::obj()
                        .field("app", m.spec.app.name())
                        .field("cpus", m.spec.cpus)
                        .field("threshold", m.spec.threshold.map(u64::from))
                        .field("fault_rate", Json::Num(m.spec.fault_rate))
                        .field("page_size", m.spec.page_size),
                );
                for (name, value) in MODEL_COLUMNS {
                    j = j.field(name, value(m));
                }
                // The tail of the numa cell rides alongside alpha/beta/
                // gamma on serving rows; batch documents are unchanged.
                if let Some(s) = &m.serving {
                    for metric in &tail {
                        if let Get::Serving(f) = metric.get {
                            j = j.field(metric.name, f(s));
                        }
                    }
                }
                j
            })
            .collect();
        Json::obj()
            .field("schema", SCHEMA)
            .field("grid", self.grid.to_json())
            .field("jobs", Json::Arr(jobs))
            .field("model", Json::Arr(model))
    }
}

/// The metrics of a job row, in document order. The run report orders
/// its counters differently and also shows `threads_drained`.
const ROW: [&str; 37] = [
    "user_s",
    "system_s",
    "makespan_ns",
    "alpha_measured",
    "replications",
    "migrations",
    "pins",
    "syncs",
    "shootdowns",
    "recovery_actions",
    "flush_pins",
    "coherence_invalidations",
    "reclaims",
    "degradations",
    "pressure_ticks",
    "nodes_offlined",
    "pages_rehomed",
    "pages_lost",
    "dead_node_fallbacks",
    "degraded",
    "near_replications",
    "requests_served",
    "gets",
    "puts",
    "p50_ns",
    "p95_ns",
    "p99_ns",
    "p999_ns",
    "admitted",
    "shed_queue_full",
    "shed_deadline",
    "shed_quota",
    "goodput_p50_ns",
    "goodput_p95_ns",
    "goodput_p99_ns",
    "goodput_p999_ns",
    "bus_bytes",
];

/// The serving tail a model row carries after its model columns.
const MODEL_TAIL: [&str; 4] = ["p50_ns", "p95_ns", "p99_ns", "p999_ns"];

/// A model column: name and value.
type Column = (&'static str, fn(&ModelRow) -> Json);

/// The model columns of a model row, in document order. Their gate
/// classes are in the metric table; the paper constants have no entry
/// and are gated exactly.
const MODEL_COLUMNS: [Column; 10] = [
    ("t_local_s", |m| m.t_local.into()),
    ("t_global_s", |m| m.t_global.into()),
    ("t_numa_s", |m| m.t_numa.into()),
    ("alpha", |m| m.alpha.into()),
    ("beta", |m| m.beta.into()),
    ("gamma", |m| m.gamma.into()),
    ("alpha_measured", |m| m.alpha_measured.into()),
    ("paper_alpha", |m| paper_alpha(m.spec.app.name()).into()),
    ("paper_beta", |m| paper_beta_gamma(m.spec.app.name()).0.into()),
    ("paper_gamma", |m| paper_beta_gamma(m.spec.app.name()).1.into()),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::PolicyAxis;
    use numa_metrics::validate;

    #[test]
    fn smoke_sweep_solves_the_model_and_serializes() {
        let sweep = Sweep::run(Grid::smoke(), 2, None).unwrap();
        assert_eq!(sweep.results.len(), 6);
        let rows = sweep.model_rows();
        assert_eq!(rows.len(), 2, "one model row per app");
        for row in &rows {
            assert!(row.t_local > 0.0 && row.t_global > 0.0 && row.t_numa > 0.0);
            assert!(row.gamma > 0.0);
        }
        let text = sweep.to_json().to_string_flat();
        validate(&text).unwrap();
        assert!(text.contains("\"schema\":\"numa-repro/lab-sweep/v1\""));
        assert!(text.contains("\"model\":[{"));
        assert!(text.contains("\"paper_alpha\""));
    }

    #[test]
    fn local_cells_collapse_the_topology_axis_and_solve_the_model() {
        // The single-processor baseline cannot run on a two-node shape:
        // it collapses the topology axis like the processor axis, and
        // every topology's numa cell pairs with it.
        let g = Grid {
            placements: vec![Placement::Local, Placement::Global, Placement::Numa],
            ..Grid::topology()
        };
        let sweep = Sweep::run(g, 2, None).unwrap();
        // Per app: one local cell, then global and numa per topology.
        assert_eq!(sweep.results.len(), 2 * (1 + 2 + 2));
        for r in sweep.results.iter().filter(|r| r.spec.placement == Placement::Local) {
            assert_eq!((r.spec.cpus, r.spec.topology), (1, None));
        }
        let rows = sweep.model_rows();
        assert_eq!(rows.len(), 4, "one model row per app and topology");
        for row in &rows {
            assert!(row.t_local > 0.0 && row.gamma > 0.0);
            let global = sweep
                .results
                .iter()
                .find(|r| {
                    r.spec.placement == Placement::Global
                        && r.spec.app == row.spec.app
                        && r.spec.topology == row.spec.topology
                })
                .unwrap();
            assert_eq!(row.t_global, global.report.user_secs(), "same-topology companion");
        }
        let text = sweep.to_json().to_string_flat();
        let model_part = text.split("\"model\":").nth(1).unwrap();
        assert!(model_part.contains("\"topology\":\"two-socket\""));
        assert!(model_part.contains("\"topology\":\"mesh-4\""));
    }

    #[test]
    fn grids_without_baselines_have_no_model_rows() {
        let sweep = Sweep::run(Grid::threshold(), 2, None).unwrap();
        assert!(sweep.model_rows().is_empty());
        validate(&sweep.to_json().to_string_flat()).unwrap();
    }

    #[test]
    fn pressure_cells_carry_pressure_counters() {
        let mut g = Grid::pressure();
        g.placements.truncate(1);
        g.fault_rates.truncate(1);
        g.local_frames = vec![4];
        let sweep = Sweep::run(g, 2, None).unwrap();
        let text = sweep.to_json().to_string_flat();
        validate(&text).unwrap();
        assert!(text.contains("\"reclaims\":"), "pressure cells report reclaims");
        assert!(text.contains("\"degradations\":"));
        assert!(text.contains("\"pressure_ticks\":"));
        let total: u64 = sweep.results.iter().map(|r| r.report.numa.reclaims).sum();
        assert!(total > 0, "4 local frames must force actual reclaim work");
    }

    #[test]
    fn serving_sweep_reports_the_latency_tail_next_to_the_model() {
        // A cut-down serving grid: one load point, all three placements
        // so the model solves.
        let mut g = Grid::serving();
        g.req_rates = vec![500];
        g.zipf_exponents = vec![1.0];
        g.tenant_counts = vec![1];
        let sweep = Sweep::run(g, 2, None).unwrap();
        // local + global + one numa cell per policy-axis value.
        assert_eq!(sweep.results.len(), 5);
        for r in &sweep.results {
            let s = r.report.serving.as_ref().expect("every serving cell attaches a report");
            assert_eq!(s.requests, s.gets + s.puts);
            assert!(s.latency.p999() >= s.latency.p50());
        }
        let rows = sweep.model_rows();
        assert_eq!(rows.len(), 3, "one model row per policy-axis value");
        assert!(rows.iter().all(|r| r.serving.is_some()));
        let text = sweep.to_json().to_string_flat();
        validate(&text).unwrap();
        // Job rows carry the ledger and the tail...
        assert!(text.contains("\"requests_served\":1536"));
        assert!(text.contains("\"p50_ns\":"));
        assert!(text.contains("\"p999_ns\":"));
        // ...policy cells carry the flush-pin counters...
        assert!(text.contains("\"flush_pins\":"));
        assert!(text.contains("\"coherence_invalidations\":"));
        // ...and the model rows name the load point and the pinning
        // rule next to the model columns.
        assert!(text.contains("\"req_rate\":500"));
        assert!(text.contains("\"zipf_s\":1.0"));
        // ...but an unprotected serving sweep never mentions the
        // overload ledger (byte-compatibility with its baseline).
        assert!(!text.contains("admitted") && !text.contains("goodput"), "overload leak");
        let model_part = text.split("\"model\":").nth(1).unwrap();
        assert!(model_part.contains("\"policy\":\"move-limit\""));
        assert!(model_part.contains("\"policy\":\"flush-limit\""));
        assert!(model_part.contains("\"policy\":\"move-or-flush\""));
        assert!(model_part.contains("\"p99_ns\":"));
        assert!(model_part.contains("\"gamma\":"));
    }

    #[test]
    fn overload_sweep_balances_the_shed_ledger() {
        // A cut-down overload grid: one saturated load point with every
        // protection knob engaged, plus healthy/chaos contrast.
        let mut g = Grid::overload();
        g.policies = vec![PolicyAxis::MoveLimit];
        g.offline_at = vec![0];
        g.req_rates = vec![32_000];
        g.queue_depths = vec![8];
        g.deadlines_ns = vec![400_000];
        g.tenant_quotas = vec![800];
        let sweep = Sweep::run(g, 2, None).unwrap();
        assert_eq!(sweep.results.len(), 1);
        let s = sweep.results[0].report.serving.as_ref().expect("serving report attaches");
        assert!(s.limited, "engaged knobs mark the report limited");
        assert!(s.ledger_balanced(), "requests == admitted + shed_*");
        assert!(s.shed_total() > 0, "a 32k req/s burst against protection must shed");
        let text = sweep.to_json().to_string_flat();
        validate(&text).unwrap();
        for needle in [
            "\"admitted\":",
            "\"shed_queue_full\":",
            "\"shed_deadline\":",
            "\"shed_quota\":",
            "\"goodput_p99_ns\":",
        ] {
            assert!(text.contains(needle), "overload document lacks {needle}");
        }
    }

    #[test]
    fn batch_sweep_documents_never_mention_serving_fields() {
        let sweep = Sweep::run(Grid::smoke(), 2, None).unwrap();
        let text = sweep.to_json().to_string_flat();
        for needle in [
            "requests_served",
            "p50_ns",
            "p95_ns",
            "p99_ns",
            "p999_ns",
            "serving",
            "\"policy\"",
            "flush_pins",
            "coherence_invalidations",
            "admitted",
            "shed_",
            "goodput",
            "queue_depth",
            "deadline",
            "quota",
        ] {
            assert!(!text.contains(needle), "smoke document mentions {needle}");
        }
    }

    #[test]
    fn resumed_sweeps_are_byte_identical_to_uninterrupted_ones() {
        let mut g = Grid::pressure();
        g.placements.truncate(1);
        g.fault_rates = vec![0.01];
        g.local_frames = vec![16, 4];
        let uninterrupted = Sweep::run(g.clone(), 2, None).unwrap();
        let expected = uninterrupted.to_json().to_string_flat();

        // Simulate a sweep killed after two cells: checkpoint those,
        // then resume from the sidecar.
        let path = std::env::temp_dir().join(format!(
            "numa-lab-sweep-resume-{}.json.partial",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        let mut cp = Checkpoint::load_or_create(&path, &g).unwrap();
        for r in &uninterrupted.results[..2] {
            cp.record(&r.spec, &r.report).unwrap();
        }
        let mut cp = Checkpoint::load_or_create(&path, &g).unwrap();
        assert_eq!(cp.completed_ids(), vec![0, 1]);
        let resumed =
            Sweep::run_resumable(g, 2, None, FarmOptions::default(), &mut cp).unwrap();
        assert_eq!(resumed.to_json().to_string_flat(), expected);
        cp.remove();
        assert!(!path.exists());
    }
}
