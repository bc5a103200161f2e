//! Resumable sweeps: a sidecar checkpoint of completed cells.
//!
//! `numa-lab run --resume` must survive being killed mid-sweep and,
//! on the next invocation, produce a final document **byte-identical**
//! to an uninterrupted run. Determinism makes that cheap: every cell
//! is an independent deterministic simulation, so a completed cell's
//! measurements can simply be persisted and replayed. The checkpoint
//! lives next to the output file (`<out>.partial`), is rewritten
//! atomically (temp file + rename) after every finished job, and is
//! deleted once the sweep completes.
//!
//! Two properties carry the byte-identity guarantee:
//!
//! * Reports are restored from **exact integers** — the raw nanosecond
//!   and counter fields and the latency buckets, never the derived
//!   floating-point seconds or percentiles. Every float in the final
//!   document is recomputed from integers by the same code on both
//!   paths. The counters are every `NumaStats` field of the simulator's
//!   metric table, so a new counter is checkpointed with no change here.
//! * A checkpoint is only trusted for the grid that wrote it: the
//!   grid's serialized axes are embedded and byte-compared on load.
//!   A mismatch is an error, not a silent restart — a different grid
//!   is a different experiment.

use crate::farm::JobResult;
use crate::grid::{Grid, JobSpec};
use ace_machine::{BusStats, CpuTime, FaultStats, Ns};
use ace_sim::{counters, RefCounters, RunReport};
use numa_core::NumaStats;
use numa_metrics::{parse, Json, ServingReport};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Schema tag of the checkpoint document.
pub const SCHEMA: &str = "numa-repro/lab-checkpoint/v1";

/// The sidecar checkpoint of one in-flight sweep.
#[derive(Debug)]
pub struct Checkpoint {
    path: PathBuf,
    /// The owning grid's serialized axes (the identity the checkpoint
    /// is valid for).
    grid_text: String,
    /// Completed cells, keyed by grid-order id.
    done: BTreeMap<usize, RunReport>,
}

impl Checkpoint {
    /// Where the checkpoint for an output file lives.
    pub fn path_for(out: &str) -> PathBuf {
        PathBuf::from(format!("{out}.partial"))
    }

    /// Opens the checkpoint at `path` for `grid`, loading completed
    /// cells when the file exists. Errors mean an unusable checkpoint
    /// (unreadable, unparsable, or written by a different grid) — the
    /// caller decides whether to delete and start over.
    pub fn load_or_create(path: &Path, grid: &Grid) -> Result<Checkpoint, String> {
        let grid_text = grid.to_json().to_string_flat();
        let mut cp = Checkpoint { path: path.to_path_buf(), grid_text, done: BTreeMap::new() };
        if !path.exists() {
            return Ok(cp);
        }
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read checkpoint {}: {e}", path.display()))?;
        let doc = parse(&text)
            .map_err(|e| format!("checkpoint {} is not valid JSON: {e}", path.display()))?;
        match doc.get("schema") {
            Some(Json::Str(s)) if s == SCHEMA => {}
            other => {
                return Err(format!(
                    "checkpoint {} has schema {other:?}, expected \"{SCHEMA}\"",
                    path.display()
                ))
            }
        }
        let stored_grid =
            doc.get("grid").ok_or_else(|| format!("checkpoint {} has no grid", path.display()))?;
        if stored_grid.to_string_flat() != cp.grid_text {
            return Err(format!(
                "checkpoint {} was written by a different grid; \
                 delete it to start this sweep from scratch",
                path.display()
            ));
        }
        let specs: BTreeMap<usize, JobSpec> =
            grid.jobs().into_iter().map(|j| (j.id, j)).collect();
        let Some(Json::Arr(entries)) = doc.get("done") else {
            return Err(format!("checkpoint {} has no done array", path.display()));
        };
        for entry in entries {
            let id = entry.get_u64("id").map_err(|e| format!("checkpoint entry: {e}"))? as usize;
            let spec = specs
                .get(&id)
                .ok_or_else(|| format!("checkpoint records job #{id}, not in this grid"))?;
            let report = report_from_json(entry, spec).map_err(|e| format!("job #{id}: {e}"))?;
            cp.done.insert(id, report);
        }
        Ok(cp)
    }

    /// Ids of the cells already completed.
    pub fn completed_ids(&self) -> Vec<usize> {
        self.done.keys().copied().collect()
    }

    /// The completed cells as grid-ordered [`JobResult`]s (specs taken
    /// from `jobs`, which must be the owning grid's job list).
    pub fn completed_results(&self, jobs: &[JobSpec]) -> Vec<JobResult> {
        jobs.iter()
            .filter_map(|j| {
                self.done.get(&j.id).map(|r| JobResult { spec: j.clone(), report: r.clone() })
            })
            .collect()
    }

    /// Records one finished cell and rewrites the checkpoint file
    /// atomically, so a kill at any moment leaves either the previous
    /// or the new checkpoint — never a torn file.
    pub fn record(&mut self, spec: &JobSpec, report: &RunReport) -> Result<(), String> {
        self.done.insert(spec.id, report.clone());
        let entries: Vec<Json> = self
            .done
            .iter()
            .map(|(&id, report)| report_to_json(id, report))
            .collect();
        let grid = parse(&self.grid_text).expect("grid text round-trips");
        let doc = Json::obj()
            .field("schema", SCHEMA)
            .field("grid", grid)
            .field("done", Json::Arr(entries))
            .to_string_flat();
        let tmp = self.path.with_extension("partial.tmp");
        std::fs::write(&tmp, &doc)
            .map_err(|e| format!("cannot write checkpoint {}: {e}", tmp.display()))?;
        std::fs::rename(&tmp, &self.path)
            .map_err(|e| format!("cannot commit checkpoint {}: {e}", self.path.display()))?;
        Ok(())
    }

    /// Removes the checkpoint file (the sweep completed; the sidecar
    /// has served its purpose). Missing file is fine.
    pub fn remove(&self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

/// One completed cell: the report's own JSON with its `numa` block
/// swapped for every `NumaStats` counter of the metric table. The
/// loader reads back only integers (nanoseconds, counters, histogram
/// buckets) and ignores the derived floats.
fn report_to_json(id: usize, r: &RunReport) -> Json {
    let mut numa = r.numa;
    let exact: Vec<(String, Json)> =
        counters().map(|(name, f)| (name.to_string(), (*f(&mut numa)).into())).collect();
    match r.to_json() {
        Json::Obj(members) => Json::Obj(
            std::iter::once(("id".to_string(), id.into()))
                .chain(members.into_iter().map(|(k, v)| match k.as_str() {
                    "numa" => (k, Json::Obj(exact.clone())),
                    _ => (k, v),
                }))
                .collect(),
        ),
        other => other,
    }
}

/// Rebuilds a [`RunReport`] from a checkpoint entry. The policy string
/// is cross-checked against the spec (the report's `&'static str` is
/// re-derived from the spec's policy, so a stale or hand-edited entry
/// cannot smuggle in a mismatched label).
fn report_from_json(entry: &Json, spec: &JobSpec) -> Result<RunReport, String> {
    let policy = spec.policy().name();
    match entry.get("policy") {
        Some(Json::Str(s)) if *s == policy => {}
        other => {
            return Err(format!("checkpoint policy {other:?} does not match the grid's `{policy}`"))
        }
    }
    let Some(Json::Arr(cpu_entries)) = entry.get("cpu_times") else {
        return Err("checkpoint entry has no cpu_times".to_string());
    };
    let cpu_times = cpu_entries
        .iter()
        .map(|t| {
            Ok(CpuTime { user: Ns(t.get_u64("user_ns")?), system: Ns(t.get_u64("system_ns")?) })
        })
        .collect::<Result<Vec<_>, String>>()?;
    let section =
        |key: &str| entry.get(key).ok_or_else(|| format!("checkpoint entry has no {key}"));
    let (refs, n, bus, faults) =
        (section("refs")?, section("numa")?, section("bus")?, section("faults")?);
    let mut numa = NumaStats::default();
    for (name, field) in counters() {
        *field(&mut numa) = n.get_u64(name)?;
    }
    Ok(RunReport {
        policy,
        cpu_times,
        refs: RefCounters {
            local: refs.get_u64("local")?,
            global: refs.get_u64("global")?,
            remote: refs.get_u64("remote")?,
        },
        numa,
        bus: BusStats {
            global_word_transfers: bus.get_u64("global_word_transfers")?,
            copy_word_transfers: bus.get_u64("copy_word_transfers")?,
            remote_word_transfers: bus.get_u64("remote_word_transfers")?,
        },
        faults: FaultStats {
            bus_timeouts: faults.get_u64("bus_timeouts")?,
            bad_frames: faults.get_u64("bad_frames")?,
            corruptions: faults.get_u64("corruptions")?,
        },
        serving: entry.get("serving").map(ServingReport::from_json).transpose()?,
        degraded: match entry.get("degraded") {
            Some(Json::Str(d)) => Some(d.clone()),
            Some(other) => return Err(format!("degraded is not a string: {other:?}")),
            None => None,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A unique temp path per test (no external tempfile crate).
    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "numa-lab-checkpoint-{tag}-{}.json.partial",
            std::process::id()
        ))
    }

    fn small_grid() -> Grid {
        let mut g = Grid::pressure();
        g.apps.truncate(1);
        g.placements.truncate(1);
        g.fault_rates.truncate(1);
        g.local_frames = vec![8];
        g
    }

    #[test]
    fn reports_round_trip_exactly() {
        let grid = small_grid();
        let jobs = grid.jobs();
        let mut report = jobs[0].run().unwrap();
        // A distinct value per counter of the metric table: a counter
        // the codec dropped or swapped reloads as another value.
        for (i, (_, field)) in counters().enumerate() {
            *field(&mut report.numa) = 1_000 + i as u64;
        }
        let path = temp_path("roundtrip");
        let mut cp = Checkpoint::load_or_create(&path, &grid).unwrap();
        cp.record(&jobs[0], &report).unwrap();
        let reloaded = Checkpoint::load_or_create(&path, &grid).unwrap();
        let results = reloaded.completed_results(&jobs);
        assert_eq!(results.len(), 1);
        let r = &results[0].report;
        let mut numa = r.numa;
        for (i, (name, field)) in counters().enumerate() {
            assert_eq!(*field(&mut numa), 1_000 + i as u64, "{name}");
        }
        assert_eq!(r.numa, report.numa);
        assert_eq!(r.policy, report.policy);
        assert_eq!(r.cpu_times, report.cpu_times);
        // The byte-identity guarantee, at its root: the serialization of
        // the reloaded report matches the original.
        assert_eq!(r.to_json().to_string_flat(), report.to_json().to_string_flat());
        cp.remove();
        assert!(!path.exists());
    }

    #[test]
    fn serving_reports_round_trip_exactly() {
        let mut grid = Grid::serving();
        grid.placements.truncate(1);
        grid.req_rates = vec![500];
        grid.zipf_exponents = vec![1.0];
        grid.tenant_counts = vec![1];
        let jobs = grid.jobs();
        assert_eq!(jobs.len(), 1);
        let report = jobs[0].run().unwrap();
        assert!(report.serving.is_some(), "serving cell must attach a ServingReport");
        let path = temp_path("serving");
        let mut cp = Checkpoint::load_or_create(&path, &grid).unwrap();
        cp.record(&jobs[0], &report).unwrap();
        let reloaded = Checkpoint::load_or_create(&path, &grid).unwrap();
        let r = &reloaded.completed_results(&jobs)[0].report;
        // The whole distribution survives, not just the headline
        // percentiles: the reloaded histogram is structurally equal.
        assert_eq!(r.serving, report.serving);
        assert_eq!(r.to_json().to_string_flat(), report.to_json().to_string_flat());
        cp.remove();
    }

    #[test]
    fn limited_serving_cells_round_trip_ledger_and_goodput_exactly() {
        // An overload cell checkpoints the admission ledger and the
        // sparse goodput distribution; the reload rebuilds both without
        // losing a single bucket.
        let mut grid = Grid::overload();
        grid.policies.truncate(1);
        grid.offline_at = vec![0];
        grid.req_rates = vec![32_000];
        grid.queue_depths = vec![8];
        grid.deadlines_ns = vec![400_000];
        grid.tenant_quotas = vec![800];
        let jobs = grid.jobs();
        assert_eq!(jobs.len(), 1);
        let report = jobs[0].run().unwrap();
        let s = report.serving.as_ref().expect("overload cell attaches a ServingReport");
        assert!(s.limited && s.shed_total() > 0, "the saturated cell must shed");
        assert!(s.ledger_balanced());
        let path = temp_path("overload");
        let mut cp = Checkpoint::load_or_create(&path, &grid).unwrap();
        cp.record(&jobs[0], &report).unwrap();
        let reloaded = Checkpoint::load_or_create(&path, &grid).unwrap();
        let r = &reloaded.completed_results(&jobs)[0].report;
        assert_eq!(r.serving, report.serving);
        assert_eq!(r.to_json().to_string_flat(), report.to_json().to_string_flat());
        cp.remove();
    }

    #[test]
    fn flush_limit_cells_round_trip_with_their_pin_counters() {
        use crate::grid::{Placement, PolicyAxis};
        let mut grid = Grid::serving();
        grid.placements = vec![Placement::Numa];
        grid.policies = vec![PolicyAxis::FlushLimit];
        grid.req_rates = vec![2_000];
        grid.zipf_exponents = vec![1.5];
        grid.tenant_counts = vec![1];
        let jobs = grid.jobs();
        assert_eq!(jobs.len(), 1);
        assert_eq!(jobs[0].policy().name(), "flush-limit");
        let report = jobs[0].run().unwrap();
        assert!(
            report.numa.coherence_invalidations > 0,
            "a hot single-writer serving cell must observe invalidations"
        );
        let path = temp_path("flushlimit");
        let mut cp = Checkpoint::load_or_create(&path, &grid).unwrap();
        cp.record(&jobs[0], &report).unwrap();
        let reloaded = Checkpoint::load_or_create(&path, &grid).unwrap();
        let r = &reloaded.completed_results(&jobs)[0].report;
        // The new counters are part of the exact-integer round trip, and
        // the policy cross-check accepts the flush-limit label.
        assert_eq!(r.numa.flush_pins, report.numa.flush_pins);
        assert_eq!(r.numa.coherence_invalidations, report.numa.coherence_invalidations);
        assert_eq!(r.to_json().to_string_flat(), report.to_json().to_string_flat());
        cp.remove();
    }

    #[test]
    fn a_checkpoint_from_a_different_grid_is_refused() {
        let grid = small_grid();
        let jobs = grid.jobs();
        let report = jobs[0].run().unwrap();
        let path = temp_path("gridmismatch");
        let mut cp = Checkpoint::load_or_create(&path, &grid).unwrap();
        cp.record(&jobs[0], &report).unwrap();
        let mut other = grid.clone();
        other.local_frames = vec![6];
        let err = Checkpoint::load_or_create(&path, &other).unwrap_err();
        assert!(err.contains("different grid"), "got: {err}");
        cp.remove();
    }

    #[test]
    fn garbage_checkpoints_are_typed_errors() {
        let grid = small_grid();
        let path = temp_path("garbage");
        std::fs::write(&path, "not json at all").unwrap();
        assert!(Checkpoint::load_or_create(&path, &grid).is_err());
        std::fs::write(&path, "{\"schema\":\"wrong/schema/v0\"}").unwrap();
        let err = Checkpoint::load_or_create(&path, &grid).unwrap_err();
        assert!(err.contains("schema"), "got: {err}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn missing_checkpoint_means_empty_start() {
        let grid = small_grid();
        let path = temp_path("fresh");
        let cp = Checkpoint::load_or_create(&path, &grid).unwrap();
        assert!(cp.completed_ids().is_empty());
        assert!(!path.exists(), "load_or_create must not create the file eagerly");
    }
}
