//! `hostbench`: what a run of the simulator and lab costs on the host,
//! and where that cost goes.
//!
//! ```text
//! cargo run --release --manifest-path hostbench/Cargo.toml -- \
//!     --workload batch-paper|kv-serve|kv-overload --seed N --seconds S --trace 0|1
//! ```
//!
//! Each workload is one fixed lab grid run on one farm worker through
//! the library's public calls. Every repetition is gated: each cell
//! passes its app's own verification, every serving ledger balances,
//! and the document equals the committed baseline (`kv-*`) or the
//! first repetition's document (`batch-paper`) byte for byte. Any gate
//! failure prints no numbers and exits 1.
//!
//! `--trace 0` repeats the untraced grid for `--seconds`, times the
//! host's thread handoffs between repetitions, and reports the
//! end-to-end metrics; `--trace 1` runs the outside-in probes, then
//! alternates untraced and traced repetitions and reports per-layer
//! metrics. The last stdout line is the result object; the line before
//! it carries the environment stamp, the simulated outcomes and every
//! workload-specific number. See `hostbench/README.md`.

mod affinity;
mod calib;
mod probes;
mod spans;
mod stats;
mod workload;

use numa_metrics::Json;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use spans::Tracer;
use stats::{median, quartiles, spread};
use workload::{Outcomes, Rep, Workload, FARM_WORKERS};

/// End-to-end metrics (`--trace 0`), with units. `wall_rt` is a
/// repetition's wall time in reference handoff round trips (see
/// `calib`).
const END_TO_END: [(&str, &str); 3] = [("wall_rt", "rt"), ("setup_s", "s"), ("peak_rss_mb", "MB")];

/// Host seconds of set-up passes at the start of a `--trace 0` run,
/// after one discarded warm-up pass. `setup_s` is their median. The
/// window spans many passes, so a short burst of host noise cannot move
/// the median; the warm-up keeps first-touch page faults out of it.
/// Passes between repetitions would not do: how much of the heap the
/// allocator has handed back to the kernel after a repetition varies
/// from run to run, and with it the page faults of a pass (median 0.8
/// or 4 ms on `kv-overload`).
const SETUP_WINDOW_S: f64 = 1.0;

/// Untraced repetitions per `--trace 0` run, at the least.
const MIN_REPS: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (0u64, 10.0f64, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::from_name(value).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload `{value}` (one of {})", names.join(", "))
                })?)
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed `{value}`"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad --seconds `{value}`"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace wants 0 or 1, got `{value}`")),
                }
            }
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = parse_args(&argv).and_then(|args| run(&args));
    match result {
        Ok(lines) => {
            for line in lines {
                println!("{line}");
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("hostbench: {e}");
            ExitCode::from(1)
        }
    }
}

/// The repository root: the benchmark package's parent directory.
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("package has a parent")
        .to_path_buf()
}

/// Runs one workload and returns the stdout lines: the detail object,
/// then the result object.
fn run(args: &Args) -> Result<Vec<String>, String> {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let pinned_cpu = affinity::pin_to_one_cpu()?;
    let started = Instant::now();
    let w = args.workload;
    let grid = w.grid();
    let reference = match w.baseline_file() {
        Some(f) => {
            let path = repo_root().join(f);
            Some(std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?)
        }
        None => None,
    };
    let (metrics, detail, attempted) = if args.trace {
        traced_run(args, &grid, reference, started)?
    } else {
        untraced_run(args, &grid, reference, started)?
    };
    let mut m = Json::obj();
    for (name, value, unit) in &metrics {
        if !value.is_finite() || !stats::valid_metric_name(name) {
            return Err(format!("metric {name} = {value} cannot be reported"));
        }
        m = m.field(
            name,
            Json::obj().field("value", *value).field("unit", *unit),
        );
    }
    let detail = Json::obj()
        .field("workload", w.name())
        .field("trace", args.trace)
        .field("env", env_stamp(args, nproc, pinned_cpu))
        .field("elapsed_s", started.elapsed().as_secs_f64())
        .field("detail", detail);
    let result = Json::obj()
        .field("correct", true)
        .field("attempted", attempted)
        .field("failed", 0u64)
        .field("metrics", m);
    Ok(vec![
        Json::obj().field("hostbench", detail).to_string_flat(),
        result.to_string_flat(),
    ])
}

type Metrics = Vec<(String, f64, &'static str)>;

/// `--trace 0`: set-up passes, then untraced repetitions for the rest of
/// the run's time, each gated and each followed by a handoff reference
/// measurement.
fn untraced_run(
    args: &Args,
    grid: &numa_lab::Grid,
    mut reference: Option<String>,
    started: Instant,
) -> Result<(Metrics, Json, u64), String> {
    setup_pass(grid);
    let window = Instant::now();
    let mut setup = Vec::new();
    while setup.len() < MIN_REPS || window.elapsed().as_secs_f64() < SETUP_WINDOW_S {
        setup.push(setup_pass(grid));
    }
    let mut round_trips = vec![calib::round_trip_s()];
    let (mut walls, mut rel, mut rss, mut steps) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut first: Option<Rep> = None;
    while walls.len() < MIN_REPS || fits(started, args.seconds, &steps) {
        let step = Instant::now();
        let rep = workload::untraced_rep(grid, reference.as_deref())?;
        round_trips.push(calib::round_trip_s());
        // The reference on either side of the repetition, averaged.
        let rt = round_trips[round_trips.len() - 2..].iter().sum::<f64>() / 2.0;
        eprintln!(
            "{} rep {}: {:.3}s, {:.2} us/rt, {:.0} rt",
            args.workload.name(),
            walls.len() + 1,
            rep.wall_s,
            rt * 1e6,
            rep.wall_s / rt
        );
        walls.push(rep.wall_s);
        rel.push(rep.wall_s / rt);
        rss.push(peak_rss_mb()?);
        reference.get_or_insert_with(|| rep.doc.clone());
        first.get_or_insert(rep);
        steps.push(step.elapsed().as_secs_f64());
    }
    let first = first.expect("MIN_REPS > 0");
    let out = workload::outcomes(&first.sweep);
    let wall = median(&walls).expect("MIN_REPS > 0");
    let values = [
        median(&rel).expect("MIN_REPS > 0"),
        median(&setup).expect("MIN_REPS > 0"),
        // The high-water mark after the first repetition: each later
        // repetition in the same process adds allocator fragmentation
        // (up to ~1.3 MB on `batch-paper`) that one sweep never pays.
        rss[0],
    ];
    let metrics: Metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| (name.into(), v, unit))
        .collect();
    let detail = Json::obj()
        .field("outcomes", outcomes_json(&out, wall))
        .field("wall_s", wall)
        .field("wall_s_samples", floats(&walls))
        .field("wall_rt_samples", floats(&rel))
        .field(
            "round_trip_us_samples",
            floats(&round_trips.iter().map(|s| s * 1e6).collect::<Vec<_>>()),
        )
        .field("peak_rss_mb_by_rep", floats(&rss))
        .field("wall_s_spread", spread(&walls))
        .field("wall_rt_spread", spread(&rel))
        .field("setup_s_passes", setup.len())
        .field(
            "setup_s_quartiles",
            quartiles(&setup).map(|(q1, q3)| floats(&[q1, q3])),
        )
        .field("doc_bytes", first.doc.len());
    Ok((metrics, detail, out.cells * walls.len() as u64))
}

/// `--trace 1`: probes, then untraced and traced repetitions in
/// alternation; per-layer numbers are medians over traced repetitions.
fn traced_run(
    args: &Args,
    grid: &numa_lab::Grid,
    mut reference: Option<String>,
    started: Instant,
) -> Result<(Metrics, Json, u64), String> {
    let probes = probes::run_all(args.seed)?;
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut per_rep: Vec<BTreeMap<String, f64>> = Vec::new();
    let mut all_spans = Vec::new();
    let mut last: Option<Rep> = None;
    let mut pairs = Vec::new();
    while pairs.is_empty() || fits(started, args.seconds, &pairs) {
        let u = workload::untraced_rep(grid, reference.as_deref())?;
        reference.get_or_insert_with(|| u.doc.clone());
        let tracer = Arc::new(Tracer::new());
        let t = workload::traced_rep(grid, reference.as_deref(), &tracer)?;
        if t.doc != u.doc {
            return Err("traced and untraced documents differ".into());
        }
        eprintln!(
            "{} pair {}: untraced {:.3}s, traced {:.3}s",
            args.workload.name(),
            pairs.len() + 1,
            u.wall_s,
            t.wall_s
        );
        let spans = tracer.spans();
        per_rep.push(layer_seconds(&spans, &t.sweep)?);
        all_spans.extend(spans);
        plain.push(u.wall_s);
        traced.push(t.wall_s);
        pairs.push(u.wall_s + t.wall_s);
        last = Some(t);
    }
    let rep = last.expect("at least one pair runs");
    let out = workload::outcomes(&rep.sweep);
    let span_file = write_spans(args.workload, &all_spans)?;

    let mut metrics: Metrics = Vec::new();
    for name in per_rep[0].keys() {
        let xs: Vec<f64> = per_rep
            .iter()
            .filter_map(|m| m.get(name).copied())
            .collect();
        metrics.push((name.clone(), median(&xs).expect("one rep"), unit_of(name)));
    }
    let (wall_plain, wall_traced) = (
        median(&plain).expect("one pair"),
        median(&traced).expect("one pair"),
    );
    metrics.push(("trace.overhead_s".into(), wall_traced - wall_plain, "s"));
    metrics.push((
        "trace.spans".into(),
        (all_spans.len() / per_rep.len()) as f64,
        "count",
    ));
    metrics.push(("lab.doc_bytes".into(), rep.doc.len() as f64, "count"));
    for p in &probes {
        metrics.push((p.name.into(), p.per_op, p.unit));
        metrics.push((format!("{}.ops", p.name), p.ops as f64, "count"));
    }
    for (name, v) in &out.counts {
        metrics.push(((*name).into(), *v as f64, "count"));
    }
    let detail = Json::obj()
        .field("outcomes", outcomes_json(&out, wall_plain))
        .field("wall_s_untraced_samples", floats(&plain))
        .field("wall_s_traced_samples", floats(&traced))
        .field("span_file", span_file)
        .field("layers", {
            let mut j = Json::obj();
            for (name, v, unit) in &metrics {
                j = j.field(name, Json::obj().field("value", *v).field("unit", *unit));
            }
            j
        });
    // Workload-specific layer numbers stay in the detail line only:
    // the result line lists exactly the metrics every workload has.
    metrics.retain(|(name, _, _)| PER_LAYER.contains(&name.as_str()));
    if metrics.len() != PER_LAYER.len() {
        return Err(format!(
            "{} of {} per-layer metrics measured",
            metrics.len(),
            PER_LAYER.len()
        ));
    }
    Ok((metrics, detail, out.cells * 2 * per_rep.len() as u64))
}

/// Host seconds per layer in one traced repetition: the self time of
/// each span name, then the `apps.run` time split by placement and app
/// and normalised by the work each group simulated.
fn layer_seconds(
    spans: &[spans::Span],
    sweep: &numa_lab::Sweep,
) -> Result<BTreeMap<String, f64>, String> {
    let by_name = spans::self_seconds_by_name(spans);
    let mut layer: BTreeMap<String, f64> = BTreeMap::new();
    for (span, metric) in [
        ("lab.grid", "lab.grid_s"),
        ("lab.farm", "lab.farm_s"),
        ("lab.sweep", "lab.sweep_s"),
        ("lab.gate", "lab.gate_s"),
        ("sim.setup", "sim.setup_s"),
        ("apps.run", "apps.run_s"),
        ("sim.report", "sim.report_s"),
        ("rep", "trace.rep_self_s"),
    ] {
        let secs = by_name
            .get(span)
            .copied()
            .ok_or(format!("no `{span}` span recorded"))?;
        layer.insert(metric.into(), secs);
    }
    let mut run_s_by_cell: BTreeMap<usize, f64> = BTreeMap::new();
    for (s, ns) in spans::self_times(spans) {
        if s.name == "apps.run" {
            *run_s_by_cell
                .entry(s.cell.expect("cell spans carry their cell"))
                .or_default() += ns as f64 / 1e9;
        }
    }
    let split = workload::run_split(sweep, &run_s_by_cell);
    for (placement, (secs, refs)) in &split.by_placement {
        layer.insert(format!("sim.run_s.{placement}"), *secs);
        layer.insert(
            format!("sim.host_ns_per_ref.{placement}"),
            ns_per(*secs, *refs),
        );
    }
    for (app, secs) in &split.by_app {
        layer.insert(format!("apps.run_s.{app}"), *secs);
    }
    let refs: u64 = split.by_placement.values().map(|v| v.1).sum();
    layer.insert("sim.host_ns_per_ref".into(), ns_per(split.total_s, refs));
    layer.insert(
        "sim.host_us_per_vt_ms".into(),
        split.total_s * 1e6 / (split.makespan_s * 1e3),
    );
    Ok(layer)
}

/// Per-layer metrics reported on every workload (`--trace 1`).
const PER_LAYER: [&str; 56] = [
    "lab.grid_s",
    "lab.farm_s",
    "lab.sweep_s",
    "lab.gate_s",
    "lab.doc_bytes",
    "sim.setup_s",
    "apps.run_s",
    "sim.report_s",
    "sim.run_s.numa",
    "sim.host_ns_per_ref",
    "sim.host_ns_per_ref.numa",
    "sim.host_us_per_vt_ms",
    "trace.overhead_s",
    "trace.rep_self_s",
    "trace.spans",
    "sim.grant_us.self",
    "sim.grant_us.self.ops",
    "sim.grant_us.cross",
    "sim.grant_us.cross.ops",
    "sim.kernel_fault_us.fresh",
    "sim.kernel_fault_us.fresh.ops",
    "sim.kernel_fault_us.remote",
    "sim.kernel_fault_us.remote.ops",
    "core.request_ns.fresh_write",
    "core.request_ns.fresh_write.ops",
    "core.request_ns.replicate_read",
    "core.request_ns.replicate_read.ops",
    "core.request_ns.migrate_write",
    "core.request_ns.migrate_write.ops",
    "core.request_ns.pin_global",
    "core.request_ns.pin_global.ops",
    "ace.translate_ns",
    "ace.translate_ns.ops",
    "sim.refs.local",
    "sim.refs.global",
    "sim.refs.remote",
    "core.requests",
    "core.replications",
    "core.migrations",
    "core.syncs",
    "core.flushes",
    "core.shootdowns",
    "core.pins",
    "core.flush_pins",
    "core.pages_rehomed",
    "core.pages_lost",
    "ace.bus.global_words",
    "ace.bus.copy_words",
    "ace.bus.remote_words",
    "ace.bus.bytes",
    "apps.serve.requests",
    "apps.serve.admitted",
    "apps.serve.shed_queue_full",
    "apps.serve.shed_deadline",
    "apps.serve.shed_quota",
    "apps.cells_degraded",
];

fn unit_of(name: &str) -> &'static str {
    if name.starts_with("sim.host_ns_per_ref") {
        "ns"
    } else if name.ends_with("_us_per_vt_ms") {
        "us/ms"
    } else {
        "s"
    }
}

fn ns_per(secs: f64, n: u64) -> f64 {
    if n == 0 {
        0.0
    } else {
        secs * 1e9 / n as f64
    }
}

/// True when another step as long as the median so far still fits in
/// the run's time.
fn fits(started: Instant, seconds: f64, steps: &[f64]) -> bool {
    let next = median(steps).unwrap_or(0.0);
    started.elapsed().as_secs_f64() + next <= seconds
}

/// One set-up pass: `Grid::jobs` plus `Simulator::new` for every cell
/// (the simulators are dropped outside the timed sections).
fn setup_pass(grid: &numa_lab::Grid) -> f64 {
    let t = Instant::now();
    let jobs = grid.jobs();
    let mut secs = t.elapsed().as_secs_f64();
    for spec in &jobs {
        let (cfg, policy) = (spec.sim_config(), spec.policy());
        let t = Instant::now();
        let sim = ace_sim::Simulator::new(cfg, policy);
        secs += t.elapsed().as_secs_f64();
        drop(black_box(sim));
    }
    secs
}

fn outcomes_json(out: &Outcomes, wall_s: f64) -> Json {
    let j = out
        .json
        .clone()
        .field("refs_per_s", out.refs as f64 / wall_s);
    if out.requests > 0 {
        j.field("requests_per_s", out.requests as f64 / wall_s)
    } else {
        j
    }
}

fn floats(xs: &[f64]) -> Json {
    Json::Arr(xs.iter().map(|&x| Json::Num(x)).collect())
}

/// Process peak resident set (VmHWM), in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("peak RSS needs /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Writes the traced run's spans under `hostbench/out/` and returns the
/// path written, relative to the repository root.
fn write_spans(w: Workload, spans: &[spans::Span]) -> Result<String, String> {
    let rel = format!("hostbench/out/spans-{}.json", w.name());
    let path = repo_root().join(&rel);
    let dir = path.parent().expect("file has a directory");
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    std::fs::write(&path, spans::to_json(spans).to_string_flat())
        .map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(rel)
}

/// Host, toolchain and source identity, plus the fixed input seeds.
fn env_stamp(args: &Args, nproc: usize, pinned_cpu: usize) -> Json {
    let root = repo_root();
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix("model name")
                    .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into());
    let command = |prog: &str, argv: &[&str]| {
        std::process::Command::new(prog)
            .args(argv)
            .current_dir(&root)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
    };
    let commit = if root.join(".git").exists() {
        command("git", &["rev-parse", "HEAD"])
    } else {
        None
    };
    let seed_line = |file: &str, needle: &str| -> Json {
        std::fs::read_to_string(root.join(file))
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.contains(needle))
                    .map(|l| format!("{file}: {}", l.trim()))
            })
            .into()
    };
    Json::obj()
        .field("cpu_model", cpu)
        .field("nproc", nproc)
        .field("pinned_cpu", pinned_cpu)
        .field("rustc", command("rustc", &["--version"]))
        .field("git_commit", commit)
        .field("source_fnv64", format!("{:016x}", source_digest(&root)))
        .field("farm_workers", FARM_WORKERS)
        .field("seed", args.seed)
        .field(
            "inputs",
            "fixed: each workload runs one input set by private constants; --seed only rotates probe address order",
        )
        .field(
            "fixed_seeds",
            Json::obj()
                .field("SERVE_SEED", seed_line("crates/apps/src/kvserve.rs", "const SERVE_SEED"))
                .field("FAULT_SEED", seed_line("crates/lab/src/grid.rs", "const FAULT_SEED"))
                .field("PlyTrace", seed_line("crates/apps/src/plytrace.rs", "Scale::Bench => PlyTrace")),
        )
}

/// FNV-1a over the workspace manifests and every file under `crates/`,
/// in sorted path order: identifies the measured source when the
/// checkout carries no git metadata.
fn source_digest(root: &Path) -> u64 {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else {
                out.push(p);
            }
        }
    }
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    walk(&root.join("crates"), &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in files {
        let rel = f
            .strip_prefix(root)
            .unwrap_or(&f)
            .to_string_lossy()
            .into_owned();
        let body = std::fs::read(&f).unwrap_or_default();
        for &b in rel.as_bytes().iter().chain([0u8].iter()).chain(body.iter()) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_reported_name_is_valid() {
        for (name, _) in END_TO_END {
            assert!(stats::valid_metric_name(name), "{name}");
        }
        for name in PER_LAYER {
            assert!(stats::valid_metric_name(name), "{name}");
        }
    }

    /// `BENCHMARK.json` at the repository root lists exactly the metrics
    /// this program reports.
    #[test]
    fn benchmark_json_matches_the_reported_metrics() {
        let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json"))
            .expect("BENCHMARK.json at the repository root");
        let doc = numa_metrics::parse(&text).expect("BENCHMARK.json parses");
        fn get<'a>(j: &'a Json, key: &str) -> Option<&'a Json> {
            let Json::Obj(members) = j else { return None };
            members.iter().find(|(k, _)| k == key).map(|(_, v)| v)
        }
        let names = |key: &str| -> Vec<String> {
            let Some(Json::Arr(items)) = get(&doc, key) else {
                panic!("{key} is an array")
            };
            items
                .iter()
                .map(|m| match get(m, "name") {
                    Some(Json::Str(s)) => s.clone(),
                    other => panic!("{key} entry without a name: {other:?}"),
                })
                .collect()
        };
        let e2e: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        assert_eq!(names("end_to_end"), e2e);
        let mut listed = names("per_layer");
        listed.sort();
        let mut ours: Vec<String> = PER_LAYER.iter().map(|s| s.to_string()).collect();
        ours.sort();
        ours.dedup();
        assert_eq!(listed, ours);
        let workloads = names("workloads");
        let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, ours);
    }

    #[test]
    fn args_parse_and_reject() {
        let a = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let ok = parse_args(&a("--workload kv-serve --seed 3 --seconds 10 --trace 1")).unwrap();
        assert_eq!(
            (ok.workload, ok.seed, ok.seconds, ok.trace),
            (Workload::KvServe, 3, 10.0, true)
        );
        for bad in [
            "",
            "--workload nope",
            "--workload kv-serve --trace 2",
            "--workload kv-serve --x 1",
            "--workload",
        ] {
            assert!(parse_args(&a(bad)).is_err(), "{bad}");
        }
    }
}
