//! Declarative sweep grids.
//!
//! A [`Grid`] names one value set per experiment axis — application,
//! placement, processor count, move-limit threshold, fault rate, page
//! size, plus the optional axes of the axis list `AXES` — and
//! [`Grid::jobs`] expands the cross product into independent
//! [`JobSpec`]s in a fixed *grid order* (an odometer, axes in the order
//! above). Axes that do not apply to a cell (a threshold under the
//! all-global placement, the processor and topology axes under the
//! single-processor `local` baseline) are collapsed during expansion,
//! so the job list contains no duplicate work.
//!
//! Every job is a complete, self-contained description of one
//! deterministic simulation: the worker farm can run the list in any
//! order, on any number of OS threads, and the merged results are the
//! same.

use crate::farm::panic_message;
use ace_machine::{FaultConfig, HardFault, NodeId, Ns, PageSize, TopologyBuilder};
use ace_sim::{RunReport, Shown, SimConfig};
use numa_apps::{
    App, DivisorDiscipline, Fft, Gfetch, IMatMult, KvServe, ParMult, PlyTrace, Primes1, Primes2,
    Primes3, Scale, ServeParams,
};
use numa_core::{
    AllGlobalPolicy, AllLocalPolicy, CachePolicy, FlushLimitPolicy, MoveLimitPolicy,
    MoveOrFlushLimitPolicy, ReconsiderPolicy,
};
use numa_metrics::paper::EVAL_CPUS;
use numa_metrics::Json;
use std::collections::HashSet;
use std::fmt;

/// Deterministic seed for fault-injecting sweep cells: every cell with
/// the same fault rate sees the same fault schedule on every run and
/// under every `--jobs` setting.
const FAULT_SEED: u64 = 0x0ACE_5EED;

/// The eight applications of the paper's evaluation — plus the serving
/// workload, which is not part of the paper's table and therefore not
/// in [`AppId::ALL`] — as grid values.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum AppId {
    /// Pure integer multiplication, no data references.
    ParMult,
    /// Nothing but fetches from shared memory.
    Gfetch,
    /// Integer matrix product.
    IMatMult,
    /// Trial division by all odd numbers.
    Primes1,
    /// Trial division by previously found primes (tuned variant).
    Primes2,
    /// Sieve in writably shared memory.
    Primes3,
    /// EPEX-style 2-D FFT.
    Fft,
    /// Polygon rendering from a work pile.
    PlyTrace,
    /// Sharded KV store under open-loop zipfian request load (the
    /// serving workload; measured by tail latency, not completion
    /// time).
    KvServe,
}

impl AppId {
    /// All applications, in the paper's Table 3 order.
    pub const ALL: [AppId; 8] = [
        AppId::ParMult,
        AppId::Gfetch,
        AppId::IMatMult,
        AppId::Primes1,
        AppId::Primes2,
        AppId::Primes3,
        AppId::Fft,
        AppId::PlyTrace,
    ];

    /// Name as it appears in the paper's tables (matches
    /// [`App::name`] of the instantiated application).
    pub fn name(self) -> &'static str {
        match self {
            AppId::ParMult => "ParMult",
            AppId::Gfetch => "Gfetch",
            AppId::IMatMult => "IMatMult",
            AppId::Primes1 => "Primes1",
            AppId::Primes2 => "Primes2",
            AppId::Primes3 => "Primes3",
            AppId::Fft => "FFT",
            AppId::PlyTrace => "PlyTrace",
            AppId::KvServe => "KvServe",
        }
    }

    /// Case-insensitive lookup, for CLI arguments.
    pub fn from_name(s: &str) -> Option<AppId> {
        AppId::ALL
            .iter()
            .copied()
            .chain(std::iter::once(AppId::KvServe))
            .find(|a| a.name().eq_ignore_ascii_case(s))
    }

    /// Instantiates the application at the given workload scale.
    pub fn make(self, scale: Scale) -> Box<dyn App> {
        match self {
            AppId::ParMult => Box::new(ParMult::new(scale)),
            AppId::Gfetch => Box::new(Gfetch::new(scale)),
            AppId::IMatMult => Box::new(IMatMult::new(scale)),
            AppId::Primes1 => Box::new(Primes1::new(scale)),
            AppId::Primes2 => Box::new(Primes2::new(scale, DivisorDiscipline::PrivateCopy)),
            AppId::Primes3 => Box::new(Primes3::new(scale)),
            AppId::Fft => Box::new(Fft::new(scale)),
            AppId::PlyTrace => Box::new(PlyTrace::new(scale)),
            AppId::KvServe => Box::new(KvServe::at_scale(scale)),
        }
    }

    /// The paper evaluates fetch-dominated programs with G/L = 2.3
    /// instead of 2 (mirrors [`App::fetch_heavy`]).
    pub fn g_over_l(self) -> f64 {
        match self {
            AppId::Gfetch | AppId::IMatMult => 2.3,
            _ => 2.0,
        }
    }
}

/// One value of the placement axis.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Placement {
    /// The T_local baseline: one thread on one processor under the
    /// move-limit policy. Definitionally single-processor (section 3.1),
    /// so this placement ignores the grid's processor and threshold axes.
    Local,
    /// The T_global baseline: all writable data in global memory.
    Global,
    /// The paper's NUMA policy: move-limit with the grid's threshold.
    Numa,
    /// Never give up on caching (the all-local policy).
    NeverPin,
    /// Move-limit whose pins are reconsidered every `period` daemon
    /// ticks (the paper's section 5 future-work item).
    Reconsider {
        /// Reconsideration period in daemon ticks.
        period: u64,
    },
}

impl Placement {
    /// Stable label used in job listings and serialized reports.
    pub fn label(self) -> String {
        match self {
            Placement::Local => "local".to_string(),
            Placement::Global => "global".to_string(),
            Placement::Numa => "numa".to_string(),
            Placement::NeverPin => "never-pin".to_string(),
            Placement::Reconsider { period } => format!("reconsider-{period}"),
        }
    }

    /// Whether the move-limit threshold axis applies to this placement.
    fn uses_threshold(self) -> bool {
        matches!(self, Placement::Numa | Placement::Reconsider { .. })
    }
}

/// One value of the policy axis: which pinning rule a NUMA-placement
/// cell runs under. The axis applies to [`Placement::Numa`] cells only
/// (the baselines and wrappers fix their own policy); other placements
/// collapse it. The grid's `thresholds` axis remains the *move* budget;
/// flush-aware policies use their own boot-time invalidation budget.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum PolicyAxis {
    /// The paper's move-limit rule (the default when the axis is empty).
    MoveLimit,
    /// The write-invalidation dual: pin once the flush budget trips.
    FlushLimit,
    /// Both budgets layered; a page pins when either trips.
    MoveOrFlush,
}

impl PolicyAxis {
    /// Stable label used in job listings and serialized reports
    /// (matches the policy's `CachePolicy::name`).
    pub fn label(self) -> &'static str {
        match self {
            PolicyAxis::MoveLimit => "move-limit",
            PolicyAxis::FlushLimit => "flush-limit",
            PolicyAxis::MoveOrFlush => "move-or-flush",
        }
    }

    /// Case-insensitive lookup, for CLI arguments.
    pub fn from_name(s: &str) -> Option<PolicyAxis> {
        [PolicyAxis::MoveLimit, PolicyAxis::FlushLimit, PolicyAxis::MoveOrFlush]
            .into_iter()
            .find(|p| p.label().eq_ignore_ascii_case(s))
    }
}

impl fmt::Display for PolicyAxis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

impl From<PolicyAxis> for Json {
    fn from(p: PolicyAxis) -> Json {
        p.label().into()
    }
}

/// One value of the topology axis: a named machine shape, built at the
/// cell's processor count. The default — an empty axis — is the paper's
/// flat ACE, where every processor is its own node.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum TopologyAxis {
    /// One node per processor: the flat ACE (identical to leaving the
    /// axis empty; useful for putting the baseline in a sweep).
    Flat,
    /// Two sockets splitting the processors evenly, one hop apart.
    TwoSocket,
    /// A 2-D mesh of `nodes` memory nodes, processors spread evenly.
    Mesh {
        /// Number of memory nodes in the mesh.
        nodes: usize,
    },
}

impl TopologyAxis {
    /// Stable label used in job listings and serialized reports.
    pub fn label(self) -> String {
        match self {
            TopologyAxis::Flat => "flat".to_string(),
            TopologyAxis::TwoSocket => "two-socket".to_string(),
            TopologyAxis::Mesh { nodes } => format!("mesh-{nodes}"),
        }
    }

    /// Case-insensitive lookup, for CLI arguments (`flat`, `two-socket`,
    /// `mesh-N`).
    pub fn from_name(s: &str) -> Option<TopologyAxis> {
        let s = s.to_ascii_lowercase();
        match s.as_str() {
            "flat" => Some(TopologyAxis::Flat),
            "two-socket" | "two_socket" => Some(TopologyAxis::TwoSocket),
            _ => {
                let n = s.strip_prefix("mesh-").or_else(|| s.strip_prefix("mesh_"))?;
                n.parse().ok().map(|nodes| TopologyAxis::Mesh { nodes })
            }
        }
    }

    /// The machine this shape describes at `cpus` processors, with the
    /// evaluation ACE's page size, memory sizes and cost constants.
    pub fn builder(self, cpus: usize) -> TopologyBuilder {
        match self {
            TopologyAxis::Flat => TopologyBuilder::flat_ace(cpus),
            TopologyAxis::TwoSocket => TopologyBuilder::two_socket(cpus),
            TopologyAxis::Mesh { nodes } => {
                TopologyBuilder::mesh(nodes, cpus.div_ceil(nodes.max(1)))
            }
        }
    }
}

impl fmt::Display for TopologyAxis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

impl From<TopologyAxis> for Json {
    fn from(t: TopologyAxis) -> Json {
        t.label().into()
    }
}

/// Workload-scale label for serialized reports.
fn scale_label(scale: Scale) -> &'static str {
    match scale {
        Scale::Test => "test",
        Scale::Bench => "bench",
    }
}

/// One declarative sweep: a value set per axis.
///
/// The six core axes (apps to page sizes) are always set. The other
/// axes are optional: empty — the default — means the axis is absent,
/// and it then appears in no serialized grid, job or label, so
/// documents from grids that predate it stay byte-identical. How each
/// optional axis expands, collapses, serializes and labels is declared
/// once, in the axis list `AXES`.
#[derive(Clone, Debug)]
pub struct Grid {
    /// Preset name (or a caller-chosen label for ad-hoc grids).
    pub name: String,
    /// Workload scale every cell runs at.
    pub scale: Scale,
    /// Application axis.
    pub apps: Vec<AppId>,
    /// Placement axis.
    pub placements: Vec<Placement>,
    /// Processor-count axis.
    pub cpus: Vec<usize>,
    /// Move-limit threshold axis (applies to threshold-bearing
    /// placements only).
    pub thresholds: Vec<u32>,
    /// Policy axis: which pinning rule NUMA-placement cells run under
    /// (empty = the paper's move-limit rule).
    pub policies: Vec<PolicyAxis>,
    /// Fault-rate axis (applied to bus-timeout, bad-frame and
    /// corruption channels alike, with a fixed seed).
    pub fault_rates: Vec<f64>,
    /// Page-size axis, in bytes.
    pub page_sizes: Vec<usize>,
    /// Local-frames axis: per-processor local-memory sizes in frames,
    /// for memory-pressure sweeps (empty = the machine preset's local
    /// memory).
    pub local_frames: Vec<usize>,
    /// Hard-failure time axis: virtual times (ns) at which a scheduled
    /// node loss fires (empty = no hard failures). A `0` entry is the
    /// healthy sentinel — that cell schedules nothing — so one grid can
    /// hold failure-free and mid-failure cells side by side.
    pub offline_at: Vec<u64>,
    /// Hard-failure extent axis: how many nodes die at the scheduled
    /// time (the highest-numbered processors' memories, never node 0's).
    /// Collapses to one node when `offline_at` is set and this is empty.
    pub offline_nodes: Vec<usize>,
    /// Topology axis: machine shapes every cell runs on (empty = the
    /// flat ACE).
    pub topologies: Vec<TopologyAxis>,
    /// Serving request-rate axis (requests per second of virtual time;
    /// empty = the scale default). This and the five serving axes below
    /// apply to [`AppId::KvServe`] cells only; other apps collapse them.
    pub req_rates: Vec<u64>,
    /// Serving key-popularity axis: zipf exponents (multiples of 0.5).
    pub zipf_exponents: Vec<f64>,
    /// Serving tenant-count axis.
    pub tenant_counts: Vec<usize>,
    /// Serving queue-depth axis: per-worker bounds on waiting requests
    /// (0 = unbounded).
    pub queue_depths: Vec<usize>,
    /// Serving deadline axis in nanoseconds (0 = no deadline).
    pub deadlines_ns: Vec<u64>,
    /// Serving per-tenant admission-quota axis in requests per second
    /// (0 = unlimited).
    pub tenant_quotas: Vec<u64>,
    /// Per-job virtual-time budget in nanoseconds (`None` = unbounded).
    /// Not an axis: a safety net so a wedged cell fails typed instead
    /// of hanging a sweep.
    pub vt_budget: Option<u64>,
    /// Whether cells run with the simulator's batched-access fast path.
    /// Not an axis and not serialized: the two settings are
    /// observationally equivalent, so sweep documents from either must
    /// be byte-identical (CI regenerates the committed baseline with the
    /// fast path and `cmp`s).
    pub fastpath: bool,
}

/// A built-in grid's constructor.
type Preset = fn() -> Grid;

/// Every built-in preset, by name.
const PRESETS: [(&str, Preset); 11] = [
    ("paper", Grid::paper),
    ("paper-bench", Grid::paper_bench),
    ("smoke", Grid::smoke),
    ("threshold", Grid::threshold),
    ("page-size", Grid::page_size),
    ("faults", Grid::faults),
    ("pressure", Grid::pressure),
    ("chaos", Grid::chaos),
    ("topology", Grid::topology),
    ("serving", Grid::serving),
    ("overload", Grid::overload),
];

/// The names in [`PRESETS`], in order.
const PRESET_NAMES: [&str; PRESETS.len()] = {
    let mut names = [""; PRESETS.len()];
    let mut i = 0;
    while i < names.len() {
        names[i] = PRESETS[i].0;
        i += 1;
    }
    names
};

/// The per-job virtual-time budget of the presets that can wedge.
fn sixty_seconds() -> Option<u64> {
    Some(Ns::from_ms(60_000).0)
}

impl Grid {
    /// The paper's evaluation grid: all eight applications under the
    /// three placements of section 3.1, on the evaluation machine.
    /// This is the grid behind the committed `BENCH_sweep.json`, and
    /// the base every other preset updates.
    pub fn paper() -> Grid {
        Grid {
            name: "paper".to_string(),
            scale: Scale::Test,
            apps: AppId::ALL.to_vec(),
            placements: vec![Placement::Local, Placement::Global, Placement::Numa],
            cpus: vec![EVAL_CPUS],
            thresholds: vec![MoveLimitPolicy::DEFAULT_THRESHOLD],
            policies: vec![],
            fault_rates: vec![0.0],
            page_sizes: vec![2048],
            local_frames: vec![],
            offline_at: vec![],
            offline_nodes: vec![],
            topologies: vec![],
            req_rates: vec![],
            zipf_exponents: vec![],
            tenant_counts: vec![],
            queue_depths: vec![],
            deadlines_ns: vec![],
            tenant_quotas: vec![],
            vt_budget: None,
            fastpath: true,
        }
    }

    /// The paper grid at evaluation workload sizes (slow; for manual
    /// runs and speedup measurements, not CI).
    pub fn paper_bench() -> Grid {
        Grid { name: "paper-bench".to_string(), scale: Scale::Bench, ..Grid::paper() }
    }

    /// A small grid for CI gating: two placement-sensitive apps under
    /// the three placements on four processors.
    pub fn smoke() -> Grid {
        Grid {
            name: "smoke".to_string(),
            apps: vec![AppId::IMatMult, AppId::Gfetch],
            cpus: vec![4],
            ..Grid::paper()
        }
    }

    /// Move-limit threshold ablation on the two most
    /// threshold-sensitive applications.
    pub fn threshold() -> Grid {
        Grid {
            name: "threshold".to_string(),
            apps: vec![AppId::IMatMult, AppId::Primes3],
            placements: vec![Placement::Numa],
            thresholds: vec![0, 1, 2, 4, 8, 16],
            ..Grid::paper()
        }
    }

    /// Page-size ablation (false-sharing sensitivity).
    pub fn page_size() -> Grid {
        Grid {
            name: "page-size".to_string(),
            apps: vec![AppId::Primes3],
            placements: vec![Placement::Numa],
            page_sizes: vec![256, 512, 2048, 8192],
            ..Grid::paper()
        }
    }

    /// Fault-injection sweep: how placement quality degrades as the
    /// hardware gets worse.
    pub fn faults() -> Grid {
        Grid {
            name: "faults".to_string(),
            apps: vec![AppId::IMatMult],
            placements: vec![Placement::Numa],
            fault_rates: vec![0.0, 0.001, 0.01],
            ..Grid::paper()
        }
    }

    /// Memory-pressure sweep: one placement-sensitive application with
    /// local memory shrunk from ample (64 frames per processor) down to
    /// a few frames, with and without injected faults. Every cell
    /// carries a virtual-time budget so a reclaim bug fails typed
    /// instead of hanging CI.
    pub fn pressure() -> Grid {
        Grid {
            name: "pressure".to_string(),
            apps: vec![AppId::IMatMult],
            placements: vec![Placement::Numa, Placement::NeverPin],
            cpus: vec![4],
            fault_rates: vec![0.0, 0.01],
            local_frames: vec![64, 16, 4],
            vt_budget: sixty_seconds(),
            ..Grid::paper()
        }
    }

    /// Chaos sweep: hard component loss (whole nodes going offline
    /// mid-run) crossed with failure time, failure extent, and soft
    /// fault rates, on a read-dominated application. Cells whose data
    /// is destroyed by the typed zero-fill (or wedged and cut by the
    /// budget) come back as deterministic *degraded* rows rather than
    /// sweep failures, so every outcome is a stable baseline row.
    pub fn chaos() -> Grid {
        Grid {
            name: "chaos".to_string(),
            apps: vec![AppId::Gfetch, AppId::Primes3],
            placements: vec![Placement::Numa],
            cpus: vec![4],
            fault_rates: vec![0.0, 0.01],
            offline_at: vec![Ns::from_ms(1).0, Ns::from_ms(5).0],
            offline_nodes: vec![1, 2],
            vt_budget: sixty_seconds(),
            ..Grid::paper()
        }
    }

    /// Hierarchical-machine smoke sweep: the CI-gating applications on
    /// machines where memory forms real nodes — a two-socket split and a
    /// 2x2 mesh (two hops corner to corner) — under the global and NUMA
    /// placements. This is the grid behind `BENCH_topology.json`.
    pub fn topology() -> Grid {
        Grid {
            name: "topology".to_string(),
            apps: vec![AppId::IMatMult, AppId::Gfetch],
            placements: vec![Placement::Global, Placement::Numa],
            cpus: vec![4],
            topologies: vec![TopologyAxis::TwoSocket, TopologyAxis::Mesh { nodes: 4 }],
            ..Grid::paper()
        }
    }

    /// Serving sweep: the KV store under the three paper placements,
    /// crossed with request rate (below and above the thrash-bound
    /// capacity of the NUMA placement), key-popularity skew, and tenant
    /// count, with local memory tight enough (pressure machinery) that
    /// hot-set replication competes for frames. The NUMA cells are
    /// additionally swept over the policy axis — move-limit (which
    /// never pins the single-writer shard pages and thrashes),
    /// flush-limit, and the layered move-or-flush rule — so the
    /// committed document compares the pinning rules head to head.
    /// This is the grid behind `BENCH_serving.json`; its rows carry
    /// p50/p95/p99/p999 virtual-time latencies next to the model
    /// columns.
    pub fn serving() -> Grid {
        Grid {
            name: "serving".to_string(),
            apps: vec![AppId::KvServe],
            cpus: vec![4],
            policies: vec![PolicyAxis::MoveLimit, PolicyAxis::FlushLimit, PolicyAxis::MoveOrFlush],
            local_frames: vec![12],
            req_rates: vec![500, 2_000],
            zipf_exponents: vec![0.5, 1.5],
            tenant_counts: vec![1, 3],
            vt_budget: sixty_seconds(),
            ..Grid::paper()
        }
    }

    /// Overload sweep: the KV store under the NUMA placement, driven
    /// through and past its saturation rate, crossed with the three
    /// admission knobs (queue bound, deadline, per-tenant quota, each
    /// off and on) and the move-limit/flush-limit policy pair — so the
    /// committed document shows the unprotected queueing collapse and
    /// the bounded tail side by side. The hard-failure axis rides
    /// along with its 0-sentinel healthy cell: half the grid also
    /// loses a node mid-serve, proving the serving stack composes with
    /// the chaos machinery (re-homed shard pages, typed degraded rows)
    /// deterministically. This is the grid behind `BENCH_overload.json`.
    pub fn overload() -> Grid {
        Grid {
            name: "overload".to_string(),
            apps: vec![AppId::KvServe],
            placements: vec![Placement::Numa],
            cpus: vec![4],
            policies: vec![PolicyAxis::MoveLimit, PolicyAxis::FlushLimit],
            local_frames: vec![12],
            offline_at: vec![0, Ns::from_ms(2).0],
            offline_nodes: vec![1],
            req_rates: vec![2_000, 32_000],
            zipf_exponents: vec![1.0],
            tenant_counts: vec![3],
            queue_depths: vec![0, 8],
            deadlines_ns: vec![0, 400_000],
            tenant_quotas: vec![0, 800],
            vt_budget: sixty_seconds(),
            ..Grid::paper()
        }
    }

    /// Names of all built-in presets.
    pub fn preset_names() -> &'static [&'static str] {
        &PRESET_NAMES
    }

    /// Looks up a preset by name.
    pub fn named(name: &str) -> Option<Grid> {
        PRESETS.iter().find(|(n, _)| *n == name).map(|(_, preset)| preset())
    }

    /// Expands the grid into jobs, in grid order, with inapplicable
    /// axes collapsed (no duplicate cells).
    ///
    /// Grid order is an odometer whose last digit turns fastest. Its
    /// digits, outermost first: app, placement, cpus, threshold, the
    /// policy axis, fault rate, page size, then the remaining optional
    /// axes in `AXES` order. An empty optional axis is one unset digit.
    pub fn jobs(&self) -> Vec<JobSpec> {
        let (policy, rest) = (AXES[0], &AXES[1..]);
        let mut radix = [0; 7 + AXES.len() - 1];
        radix[..7].copy_from_slice(&[
            self.apps.len(),
            self.placements.len(),
            self.cpus.len(),
            self.thresholds.len(),
            policy.radix(self),
            self.fault_rates.len(),
            self.page_sizes.len(),
        ]);
        for (r, axis) in radix[7..].iter_mut().zip(rest) {
            *r = axis.radix(self);
        }
        let mut out: Vec<JobSpec> = Vec::new();
        if radix.contains(&0) {
            return out;
        }
        let mut seen = HashSet::new();
        let mut digit = [0; 7 + AXES.len() - 1];
        loop {
            let mut spec = JobSpec {
                id: out.len(),
                app: self.apps[digit[0]],
                placement: self.placements[digit[1]],
                cpus: self.cpus[digit[2]],
                workers: self.cpus[digit[2]],
                threshold: Some(self.thresholds[digit[3]]),
                policy: None,
                fault_rate: self.fault_rates[digit[5]],
                page_size: self.page_sizes[digit[6]],
                local_frames: None,
                offline_at: None,
                offline_nodes: None,
                topology: None,
                req_rate: None,
                zipf_s: None,
                tenants: None,
                queue_depth: None,
                deadline_ns: None,
                tenant_quota: None,
                scale: self.scale,
                vt_budget: self.vt_budget,
                fastpath: self.fastpath,
            };
            policy.set(self, digit[4], &mut spec);
            for (axis, &d) in rest.iter().zip(&digit[7..]) {
                axis.set(self, d, &mut spec);
            }
            spec.collapse();
            // Collapsed axes (and clamped or repeated values) map
            // several digit tuples to one cell: keep its first. Dedup
            // through a hash set, not a scan of `out`: a scan leaves a
            // different heap layout behind, and measured on a 2-vCPU
            // Xeon the next `Simulator::new` then ran ~7x slower
            // (7.4 ms against 0.9 ms per grid-and-setup pass on the
            // paper-bench grid) because glibc trimmed and re-faulted
            // the heap top.
            if seen.insert(spec.key(self)) {
                out.push(spec);
            }
            // Turn the odometer.
            let mut k = radix.len();
            loop {
                if k == 0 {
                    return out;
                }
                k -= 1;
                digit[k] += 1;
                if digit[k] < radix[k] {
                    break;
                }
                digit[k] = 0;
            }
        }
    }

    /// The grid's axes as one deterministic JSON object.
    pub fn to_json(&self) -> Json {
        let mut g = Json::obj()
            .field("name", self.name.as_str())
            .field("scale", scale_label(self.scale))
            .field("apps", Json::Arr(self.apps.iter().map(|a| a.name().into()).collect()))
            .field(
                "placements",
                Json::Arr(self.placements.iter().map(|p| p.label().into()).collect()),
            )
            .field("cpus", list(&self.cpus))
            .field(
                "thresholds",
                Json::Arr(self.thresholds.iter().map(|&t| u64::from(t).into()).collect()),
            )
            .field("fault_rates", list(&self.fault_rates))
            .field("page_sizes", list(&self.page_sizes));
        for axis in AXES {
            g = axis.grid_json(self, g);
        }
        if let Some(b) = self.vt_budget {
            g = g.field("vt_budget_ns", b);
        }
        g.field("jobs", self.jobs().len())
    }
}

/// One optional axis of the grid: how it expands, collapses,
/// serializes and labels. Adding an axis is one entry in [`AXES`] plus
/// its `Grid` and `JobSpec` fields.
trait Axis: Sync {
    /// Odometer radix: how many values the grid sets, at least one (an
    /// empty axis is a single unset value).
    fn radix(&self, g: &Grid) -> usize;
    /// Writes the axis's `i`-th value into a cell, before collapse.
    fn set(&self, g: &Grid, i: usize, spec: &mut JobSpec);
    /// The applicability rule: clears (or clamps) the cell's value
    /// where the axis does not apply.
    fn collapse(&self, spec: &mut JobSpec);
    /// Appends the grid's value list when the axis is set.
    fn grid_json(&self, g: &Grid, j: Json) -> Json;
    /// Appends the cell's value when set.
    fn job_json(&self, spec: &JobSpec, j: Json) -> Json;
    /// Appends the cell's value to its label when set.
    fn label(&self, spec: &JobSpec, s: &mut String);
    /// The metric group sweep rows show exactly when their cell sets
    /// the axis (the report's values decide every other group).
    fn reveals(&self) -> Option<Shown>;
    /// Whether the cell has a value on the axis.
    fn is_set(&self, spec: &JobSpec) -> bool;
    /// Whether model rows name the axis.
    fn names_model_rows(&self) -> bool;
    /// The cell's value as a number for [`JobSpec::key`] (its position
    /// in the grid's list), `None` when unset.
    fn key(&self, g: &Grid, spec: &JobSpec) -> Option<u64>;
}

/// An optional axis with one value per cell, serialized under the
/// names of its `Grid` and `JobSpec` fields.
struct Opt<T: 'static> {
    keys: [&'static str; 2],
    /// Label tag: ` tag=value`.
    tag: &'static str,
    values: fn(&Grid) -> &[T],
    field: fn(&mut JobSpec) -> &mut Option<T>,
    get: fn(&JobSpec) -> Option<T>,
    applies: fn(&JobSpec) -> bool,
    reveals: Option<Shown>,
    names_model_rows: bool,
}

impl<T: Copy + PartialEq + Into<Json> + fmt::Display + Sync> Axis for Opt<T> {
    fn radix(&self, g: &Grid) -> usize {
        (self.values)(g).len().max(1)
    }
    fn set(&self, g: &Grid, i: usize, spec: &mut JobSpec) {
        *(self.field)(spec) = (self.values)(g).get(i).copied();
    }
    fn collapse(&self, spec: &mut JobSpec) {
        if !(self.applies)(spec) {
            *(self.field)(spec) = None;
        }
    }
    fn grid_json(&self, g: &Grid, j: Json) -> Json {
        match (self.values)(g) {
            [] => j,
            values => j.field(self.keys[0], list(values)),
        }
    }
    fn job_json(&self, spec: &JobSpec, j: Json) -> Json {
        match (self.get)(spec) {
            Some(v) => j.field(self.keys[1], v),
            None => j,
        }
    }
    fn label(&self, spec: &JobSpec, s: &mut String) {
        if let Some(v) = (self.get)(spec) {
            s.push_str(&format!(" {}={v}", self.tag));
        }
    }
    fn reveals(&self) -> Option<Shown> {
        self.reveals
    }
    fn is_set(&self, spec: &JobSpec) -> bool {
        (self.get)(spec).is_some()
    }
    fn names_model_rows(&self) -> bool {
        self.names_model_rows
    }
    fn key(&self, g: &Grid, spec: &JobSpec) -> Option<u64> {
        (self.get)(spec).map(|v| position((self.values)(g), &v))
    }
}

/// `opt!(grid_field => job_field, "tag", applies, reveals, names_model_rows)`
macro_rules! opt {
    ($values:ident => $field:ident, $tag:literal, $applies:expr, $reveals:expr, $model:literal) => {
        &Opt {
            keys: [stringify!($values), stringify!($field)],
            tag: $tag,
            values: |g| &g.$values,
            field: |j| &mut j.$field,
            get: |j| j.$field,
            applies: $applies,
            reveals: $reveals,
            names_model_rows: $model,
        }
    };
}

/// The hard-failure axis: time crossed with extent, two odometer
/// digits in one entry. A zero time is the healthy sentinel; the
/// extent defaults to one node and is clamped so node 0 survives.
struct Offline;

impl Axis for Offline {
    fn radix(&self, g: &Grid) -> usize {
        g.offline_at.len().max(1) * g.offline_nodes.len().max(1)
    }
    fn set(&self, g: &Grid, i: usize, spec: &mut JobSpec) {
        let per_time = g.offline_nodes.len().max(1);
        spec.offline_at = g.offline_at.get(i / per_time).copied().filter(|&t| t > 0);
        spec.offline_nodes = Some(g.offline_nodes.get(i % per_time).copied().unwrap_or(1));
    }
    fn collapse(&self, spec: &mut JobSpec) {
        // A single-processor cell has no node to spare.
        let spare = spec.cpus.saturating_sub(1);
        spec.offline_nodes = spec.offline_at.and(spec.offline_nodes).map(|n| n.min(spare));
    }
    fn grid_json(&self, g: &Grid, j: Json) -> Json {
        match (g.offline_at.as_slice(), g.offline_nodes.as_slice()) {
            ([], _) => j,
            (at, []) => j.field("offline_at_ns", list(at)),
            (at, n) => j.field("offline_at_ns", list(at)).field("offline_nodes", list(n)),
        }
    }
    fn job_json(&self, spec: &JobSpec, j: Json) -> Json {
        match (spec.offline_at, spec.offline_nodes) {
            (Some(at), Some(n)) => j.field("offline_at_ns", at).field("offline_nodes", n),
            _ => j,
        }
    }
    fn label(&self, spec: &JobSpec, s: &mut String) {
        if let (Some(at), Some(n)) = (spec.offline_at, spec.offline_nodes) {
            s.push_str(&format!(" off={n}@{at}ns"));
        }
    }
    fn reveals(&self) -> Option<Shown> {
        Some(Shown::HardFailure)
    }
    fn is_set(&self, spec: &JobSpec) -> bool {
        spec.offline_at.is_some()
    }
    fn names_model_rows(&self) -> bool {
        true
    }
    fn key(&self, g: &Grid, spec: &JobSpec) -> Option<u64> {
        // The extent is clamped per cell, so it enters by value.
        Some(position(&g.offline_at, &spec.offline_at?) << 32 | spec.offline_nodes? as u64)
    }
}

fn serving_app(spec: &JobSpec) -> bool {
    spec.app == AppId::KvServe
}

/// Every optional axis, in grid order. The policy axis comes first: its
/// odometer digit and label sit right after the threshold's. The
/// baselines and wrappers fix their own policy; the single-processor
/// baseline runs on the flat ACE (no two-node shape has one processor);
/// serving model rows predate naming the local-frames axis.
static AXES: [&dyn Axis; 10] = [
    opt!(
        policies => policy,
        "pol",
        |j| j.placement == Placement::Numa,
        Some(Shown::FlushPin),
        true
    ),
    opt!(local_frames => local_frames, "lf", |_| true, Some(Shown::Pressure), false),
    &Offline,
    opt!(
        topologies => topology,
        "topo",
        |j| j.placement != Placement::Local,
        Some(Shown::Topology),
        true
    ),
    opt!(req_rates => req_rate, "r", serving_app, None, true),
    opt!(zipf_exponents => zipf_s, "zs", serving_app, None, true),
    opt!(tenant_counts => tenants, "ten", serving_app, None, true),
    opt!(queue_depths => queue_depth, "qd", serving_app, None, true),
    opt!(deadlines_ns => deadline_ns, "dl", serving_app, None, true),
    opt!(tenant_quotas => tenant_quota, "tq", serving_app, None, true),
];

/// One fully specified sweep cell: everything needed to run one
/// deterministic simulation, independent of every other cell. Each
/// optional coordinate is `None` when the grid leaves its axis empty
/// or the axis does not apply to the cell.
#[derive(Clone, Debug, PartialEq)]
pub struct JobSpec {
    /// Grid-order index (also the merge position for results).
    pub id: usize,
    /// Application to run.
    pub app: AppId,
    /// Placement under test.
    pub placement: Placement,
    /// Processor count of the simulated machine.
    pub cpus: usize,
    /// Worker-thread count the application spawns.
    pub workers: usize,
    /// Move-limit threshold, when the placement takes one.
    pub threshold: Option<u32>,
    /// Pinning rule of a NUMA-placement cell (`None` = the paper's
    /// move-limit rule).
    pub policy: Option<PolicyAxis>,
    /// Injected fault rate on all three fault channels.
    pub fault_rate: f64,
    /// Page size in bytes.
    pub page_size: usize,
    /// Per-processor local-memory size in frames (`None` = the machine
    /// preset's default).
    pub local_frames: Option<usize>,
    /// Virtual time (ns) at which the scheduled node loss fires
    /// (`None` = no hard failures).
    pub offline_at: Option<u64>,
    /// How many nodes die at that time (highest-numbered processors'
    /// memories first; present exactly when `offline_at` is).
    pub offline_nodes: Option<usize>,
    /// Machine shape the cell runs on (`None` = the flat ACE).
    pub topology: Option<TopologyAxis>,
    /// Serving request rate override (`None` = the scale default).
    pub req_rate: Option<u64>,
    /// Serving zipf-exponent override.
    pub zipf_s: Option<f64>,
    /// Serving tenant-count override.
    pub tenants: Option<usize>,
    /// Serving per-worker queue bound (0 = unbounded).
    pub queue_depth: Option<usize>,
    /// Serving deadline in nanoseconds (0 = none).
    pub deadline_ns: Option<u64>,
    /// Serving per-tenant quota in requests per second (0 = unlimited).
    pub tenant_quota: Option<u64>,
    /// Workload scale.
    pub scale: Scale,
    /// Virtual-time budget in nanoseconds (`None` = unbounded). Not an
    /// axis and not serialized: a safety net, never an observable.
    pub vt_budget: Option<u64>,
    /// Whether the cell runs with the batched-access fast path (not a
    /// grid axis; carried so `sim_config` can set the knob, and excluded
    /// from `to_json` because the paths are observationally equivalent).
    pub fastpath: bool,
}

impl JobSpec {
    /// Short human label, e.g. `IMatMult/numa t=4 p=7`.
    pub fn label(&self) -> String {
        let mut s = format!("{}/{}", self.app.name(), self.placement.label());
        if let Some(t) = self.threshold {
            s.push_str(&format!(" t={t}"));
        }
        AXES[0].label(self, &mut s);
        s.push_str(&format!(" p={}", self.cpus));
        if self.fault_rate > 0.0 {
            s.push_str(&format!(" f={}", self.fault_rate));
        }
        if self.page_size != 2048 {
            s.push_str(&format!(" pg={}", self.page_size));
        }
        for axis in &AXES[1..] {
            axis.label(self, &mut s);
        }
        s
    }

    /// Applies every applicability rule: the single-processor `local`
    /// baseline collapses the processor axis, threshold-free placements
    /// the threshold, and each optional axis clears or clamps itself.
    fn collapse(&mut self) {
        if self.placement == Placement::Local {
            self.cpus = 1;
        }
        self.workers = self.cpus;
        if !self.placement.uses_threshold() {
            self.threshold = None;
        }
        for axis in AXES {
            axis.collapse(self);
        }
    }

    /// The cell that holds this cell's coordinates under `placement`,
    /// collapsed by the same rules (the companions model rows pair).
    pub(crate) fn under(&self, placement: Placement) -> JobSpec {
        let mut spec = JobSpec { placement, ..self.clone() };
        spec.collapse();
        spec
    }

    /// The cell's coordinates in grid `g` as numbers: equal exactly
    /// when two of the grid's cells are equal, ids aside.
    pub(crate) fn key(&self, g: &Grid) -> CellKey {
        let core = [
            position(&g.apps, &self.app),
            position(&g.placements, &self.placement),
            self.cpus as u64,
            self.workers as u64,
            self.threshold.map_or(u64::MAX, u64::from),
            position(&g.fault_rates, &self.fault_rate),
            self.page_size as u64,
        ];
        (core, AXES.map(|axis| axis.key(g, self)))
    }

    /// Whether the cell's sweep row shows metric group `group`: `None`
    /// when no axis reveals the group (the report's values decide),
    /// else whether the cell sets an axis that does.
    pub(crate) fn reveals(&self, group: Shown) -> Option<bool> {
        AXES.iter()
            .filter(|a| a.reveals() == Some(group))
            .map(|a| a.is_set(self))
            .reduce(|a, b| a || b)
    }

    /// Appends the optional coordinates model rows name.
    pub(crate) fn model_json(&self, mut j: Json) -> Json {
        for axis in AXES.iter().filter(|a| a.names_model_rows()) {
            j = axis.job_json(self, j);
        }
        j
    }

    /// Instantiates the cell's application, applying the serving-axis
    /// overrides to the serving workload's scale defaults.
    pub fn make_app(&self) -> Box<dyn App> {
        if self.app == AppId::KvServe {
            let p = ServeParams::for_scale(self.scale);
            return Box::new(KvServe::new(ServeParams {
                rate: self.req_rate.unwrap_or(p.rate),
                zipf_s: self.zipf_s.unwrap_or(p.zipf_s),
                tenants: self.tenants.unwrap_or(p.tenants),
                queue_depth: self.queue_depth.unwrap_or(p.queue_depth),
                deadline_ns: self.deadline_ns.unwrap_or(p.deadline_ns),
                tenant_quota: self.tenant_quota.unwrap_or(p.tenant_quota),
                ..p
            }));
        }
        self.app.make(self.scale)
    }

    /// Memory-node count of the cell's machine.
    fn n_nodes(&self) -> usize {
        self.topology.map_or(self.cpus, |t| t.builder(self.cpus).config().topology.n_nodes())
    }

    /// The scheduled hard failures of this cell: `offline_nodes` node
    /// losses at `offline_at`, taking the highest-numbered processors'
    /// memories first (node 0 always survives). Empty for healthy cells.
    pub fn hard_schedule(&self) -> Vec<HardFault> {
        let (Some(at), Some(n)) = (self.offline_at, self.offline_nodes) else {
            return Vec::new();
        };
        let nodes = self.n_nodes();
        (0..n.min(nodes.saturating_sub(1)))
            .map(|k| HardFault::NodeOffline {
                node: NodeId((nodes - 1 - k) as u16),
                vt: Ns(at),
            })
            .collect()
    }

    /// The placement policy this cell runs under.
    pub fn policy(&self) -> Box<dyn CachePolicy> {
        let threshold = self.threshold.unwrap_or(MoveLimitPolicy::DEFAULT_THRESHOLD);
        match self.placement {
            Placement::Local => Box::new(MoveLimitPolicy::default()),
            Placement::Global => Box::new(AllGlobalPolicy),
            Placement::Numa => match self.policy.unwrap_or(PolicyAxis::MoveLimit) {
                PolicyAxis::MoveLimit => Box::new(MoveLimitPolicy::new(threshold)),
                PolicyAxis::FlushLimit => Box::new(FlushLimitPolicy::default()),
                PolicyAxis::MoveOrFlush => Box::new(MoveOrFlushLimitPolicy::new(
                    threshold,
                    FlushLimitPolicy::DEFAULT_THRESHOLD,
                    FlushLimitPolicy::DEFAULT_DECAY_PERIOD,
                )),
            },
            Placement::NeverPin => Box::new(AllLocalPolicy),
            Placement::Reconsider { period } => Box::new(ReconsiderPolicy::new(threshold, period)),
        }
    }

    /// The simulator configuration this cell runs on: the evaluation
    /// ACE, resized for the cell's page size (keeping 16 MB global /
    /// 8 MB local memory) and fault rate.
    pub fn sim_config(&self) -> SimConfig {
        let mut cfg = SimConfig::ace(self.cpus).fastpath(self.fastpath);
        if let Some(t) = self.topology {
            cfg = cfg.machine(t.builder(self.cpus).config());
        }
        if self.page_size != cfg.machine.page_size.bytes() {
            cfg.machine.page_size = PageSize::new(self.page_size);
            cfg.machine.global_frames = 16 * 1024 * 1024 / self.page_size;
            cfg.machine.topology.set_uniform_local_frames(8 * 1024 * 1024 / self.page_size);
        }
        let hard_faults = self.hard_schedule();
        if self.fault_rate > 0.0 || !hard_faults.is_empty() {
            cfg = cfg.faults(FaultConfig {
                seed: FAULT_SEED,
                bus_timeout_rate: self.fault_rate,
                bad_frame_rate: self.fault_rate,
                corruption_rate: self.fault_rate,
                hard_faults,
                ..FaultConfig::default()
            });
        }
        if let Some(lf) = self.local_frames {
            cfg.machine.topology.set_uniform_local_frames(lf);
        }
        cfg.vt_budget = self.vt_budget.map(Ns);
        cfg
    }

    /// Runs this cell to completion on the current thread and returns
    /// the report; the application's self-verification failure (or an
    /// invalid machine configuration) comes back as `Err`.
    pub fn run(&self) -> Result<RunReport, String> {
        let cfg = self.sim_config();
        cfg.machine.validate().map_err(|e| format!("{}: bad machine config: {e}", self.label()))?;
        let app = self.make_app();
        if cfg.machine.faults.hard_faults.is_empty() {
            return ace_sim::run_one(cfg, self.policy(), |sim| app.run(sim, self.workers))
                .map_err(|e| format!("{}: {e}", self.label()));
        }
        // Chaos cells: a hard component loss may legitimately destroy
        // the application's working data (the typed zero-fill of lost
        // pages) or wedge it until the virtual-time budget cuts the run.
        // Both outcomes are as deterministic as a verified completion,
        // so they become typed *degraded* rows instead of sweep errors.
        let budget = cfg.vt_budget.map_or(0, |n| n.0);
        let mut sim = ace_sim::Simulator::new(cfg, self.policy());
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            app.run(&mut sim, self.workers)
        }));
        let degraded = match outcome {
            _ if sim.vt_exceeded() => {
                Some(format!("virtual-time budget of {budget} ns exceeded after component loss"))
            }
            Ok(Ok(())) => None,
            Ok(Err(e)) => Some(format!("verification failed after component loss: {e}")),
            Err(panic) => {
                Some(format!("workload aborted after component loss: {}", panic_message(panic)))
            }
        };
        Ok(RunReport { degraded, ..sim.report() })
    }

    /// The cell's coordinates as one deterministic JSON object (the
    /// metrics of a finished run are appended by the sweep layer).
    pub fn to_json(&self) -> Json {
        let mut j = Json::obj()
            .field("id", self.id)
            .field("app", self.app.name())
            .field("placement", self.placement.label())
            .field("cpus", self.cpus)
            .field("workers", self.workers)
            .field("threshold", self.threshold.map(u64::from))
            .field("fault_rate", Json::Num(self.fault_rate))
            .field("page_size", self.page_size);
        for axis in AXES {
            j = axis.job_json(self, j);
        }
        j.field("scale", scale_label(self.scale))
    }
}

/// A cell's coordinates as numbers: the core axes, then each optional
/// axis (`None` when unset).
pub(crate) type CellKey = ([u64; 7], [Option<u64>; AXES.len()]);

/// The position of `v` in `values` (`u64::MAX` when absent).
fn position<T: PartialEq>(values: &[T], v: &T) -> u64 {
    values.iter().position(|x| x == v).map_or(u64::MAX, |i| i as u64)
}

/// A JSON array of plain values.
fn list<T: Copy + Into<Json>>(values: &[T]) -> Json {
    Json::Arr(values.iter().map(|&v| v.into()).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_grid_is_eight_apps_by_three_placements() {
        let jobs = Grid::paper().jobs();
        assert_eq!(jobs.len(), 24);
        // Grid order: apps outermost, placements inner.
        assert_eq!(jobs[0].app, AppId::ParMult);
        assert_eq!(jobs[0].placement, Placement::Local);
        assert_eq!((jobs[0].cpus, jobs[0].workers), (1, 1));
        assert_eq!(jobs[1].placement, Placement::Global);
        assert_eq!(jobs[1].cpus, EVAL_CPUS);
        assert_eq!(jobs[2].placement, Placement::Numa);
        assert_eq!(jobs[2].threshold, Some(4));
        assert!(jobs.iter().enumerate().all(|(i, j)| j.id == i));
    }

    #[test]
    fn inapplicable_axes_collapse_without_duplicates() {
        let mut g = Grid::smoke();
        g.thresholds = vec![0, 4, 8, 4];
        g.cpus = vec![2, 4];
        let jobs = g.jobs();
        // Per app: local collapses both axes (1 job), global collapses
        // thresholds (2 cpus), numa is 2 cpus x 3 distinct thresholds.
        assert_eq!(jobs.len(), 2 * (1 + 2 + 6));
        let locals: Vec<_> = jobs.iter().filter(|j| j.placement == Placement::Local).collect();
        assert_eq!(locals.len(), 2);
        assert!(locals.iter().all(|j| j.cpus == 1 && j.threshold.is_none()));
    }

    #[test]
    fn presets_resolve_by_name() {
        for name in Grid::preset_names() {
            let g = Grid::named(name).expect("preset exists");
            assert_eq!(&g.name, name);
            assert!(!g.jobs().is_empty());
        }
        assert!(Grid::named("nope").is_none());
    }

    #[test]
    fn app_ids_round_trip_and_match_table_order() {
        for (id, paper) in AppId::ALL.iter().zip(numa_metrics::paper::PAPER_TABLE3.iter()) {
            assert_eq!(id.name(), paper.0);
            assert_eq!(AppId::from_name(id.name()), Some(*id));
            assert_eq!(AppId::from_name(&id.name().to_lowercase()), Some(*id));
        }
    }

    #[test]
    fn job_spec_builds_policy_and_config() {
        let mut g = Grid::page_size();
        g.fault_rates = vec![0.01];
        let jobs = g.jobs();
        let j = &jobs[0];
        assert_eq!(j.page_size, 256);
        let cfg = j.sim_config();
        assert_eq!(cfg.machine.page_size.bytes(), 256);
        assert_eq!(cfg.machine.global_frames * 256, 16 * 1024 * 1024);
        assert_eq!(cfg.machine.topology.local_frames(NodeId(0)) * 256, 8 * 1024 * 1024);
        assert!(cfg.machine.faults.bus_timeout_rate > 0.0);
        assert_eq!(j.policy().name(), "move-limit");
        cfg.machine.validate().unwrap();
    }

    #[test]
    fn labels_are_informative() {
        let jobs = Grid::paper().jobs();
        assert_eq!(jobs[2].label(), "ParMult/numa t=4 p=7");
        assert!(jobs[0].label().contains("local"));
    }

    #[test]
    fn pressure_preset_sweeps_local_frames() {
        let g = Grid::pressure();
        let jobs = g.jobs();
        // 1 app x 2 placements x 2 fault rates x 3 frame counts.
        assert_eq!(jobs.len(), 12);
        assert!(jobs.iter().all(|j| j.local_frames.is_some()));
        assert!(jobs.iter().all(|j| j.vt_budget.is_some()));
        let j = jobs.iter().find(|j| j.local_frames == Some(4)).expect("tightest cell");
        let cfg = j.sim_config();
        assert_eq!(cfg.machine.topology.local_frames(NodeId(0)), 4);
        assert_eq!(cfg.vt_budget, Some(Ns(g.vt_budget.unwrap())));
        assert!(j.label().contains("lf=4"));
        // The axis shows up in both serialized forms.
        let gj = g.to_json().to_string_flat();
        assert!(gj.contains("\"local_frames\":[64,16,4]"));
        assert!(gj.contains("\"vt_budget_ns\""));
        assert!(j.to_json().to_string_flat().contains("\"local_frames\":4"));
    }

    #[test]
    fn default_grids_do_not_mention_the_pressure_axis() {
        // Byte-compatibility: grids that leave the axis empty must
        // serialize exactly as they did before the axis existed.
        for name in ["paper", "smoke", "threshold", "page-size", "faults"] {
            let g = Grid::named(name).unwrap();
            let s = g.to_json().to_string_flat();
            assert!(!s.contains("local_frames"), "{name} grid mentions local_frames");
            assert!(!s.contains("vt_budget"), "{name} grid mentions vt_budget");
            for j in g.jobs() {
                assert_eq!(j.local_frames, None);
                assert_eq!(j.vt_budget, None);
                assert!(!j.to_json().to_string_flat().contains("local_frames"));
            }
        }
    }

    #[test]
    fn chaos_preset_schedules_node_loss() {
        let g = Grid::chaos();
        let jobs = g.jobs();
        // 2 apps x 2 fault rates x 2 offline times x 2 node counts.
        assert_eq!(jobs.len(), 16);
        assert!(jobs.iter().all(|j| j.offline_at.is_some() && j.offline_nodes.is_some()));
        let j = jobs
            .iter()
            .find(|j| j.offline_nodes == Some(2) && j.offline_at == Some(Ns::from_ms(1).0))
            .expect("two-node cell");
        assert!(j.label().contains("off=2@1000000ns"), "label: {}", j.label());
        // Highest-numbered nodes die first, never node 0, at the
        // scheduled instant.
        let sched = j.hard_schedule();
        assert_eq!(sched.len(), 2);
        assert!(matches!(sched[0], HardFault::NodeOffline { node: NodeId(3), vt } if vt == Ns::from_ms(1)));
        assert!(matches!(sched[1], HardFault::NodeOffline { node: NodeId(2), vt } if vt == Ns::from_ms(1)));
        // The schedule reaches the machine config and validates.
        let cfg = j.sim_config();
        assert_eq!(cfg.machine.faults.hard_faults.len(), 2);
        cfg.machine.validate().unwrap();
        // The axes show up in both serialized forms.
        let gj = g.to_json().to_string_flat();
        assert!(gj.contains("\"offline_at_ns\":[1000000,5000000]"));
        assert!(gj.contains("\"offline_nodes\":[1,2]"));
        let jj = j.to_json().to_string_flat();
        assert!(jj.contains("\"offline_at_ns\":1000000"));
        assert!(jj.contains("\"offline_nodes\":2"));
    }

    #[test]
    fn offline_node_count_is_clamped_to_leave_a_survivor() {
        let mut g = Grid::chaos();
        g.cpus = vec![2];
        g.offline_nodes = vec![1, 8];
        let jobs = g.jobs();
        // A request to kill 8 of 2 nodes clamps to 1 (node 0 always
        // survives) and dedups against the explicit 1-node cell.
        assert!(jobs.iter().all(|j| j.offline_nodes == Some(1)));
        assert_eq!(jobs.len(), 2 * 2 * 2);
        for j in &jobs {
            let sched = j.hard_schedule();
            assert_eq!(sched.len(), 1);
            assert!(matches!(sched[0], HardFault::NodeOffline { node: NodeId(1), .. }));
        }
    }

    #[test]
    fn topology_preset_sweeps_machine_shapes() {
        let g = Grid::topology();
        let jobs = g.jobs();
        // 2 apps x 2 placements x 2 topologies.
        assert_eq!(jobs.len(), 8);
        assert!(jobs.iter().all(|j| j.topology.is_some()));
        let j = jobs.iter().find(|j| j.topology == Some(TopologyAxis::Mesh { nodes: 4 })).unwrap();
        assert!(j.label().contains("topo=mesh-4"), "label: {}", j.label());
        let cfg = j.sim_config();
        assert_eq!(cfg.machine.n_cpus(), 4);
        assert_eq!(cfg.machine.topology.n_nodes(), 4);
        assert!(cfg.machine.topology.max_hops() >= 2, "the mesh spans at least two hops");
        cfg.machine.validate().unwrap();
        // The axis shows up in both serialized forms.
        assert!(g.to_json().to_string_flat().contains("\"topologies\":[\"two-socket\",\"mesh-4\"]"));
        assert!(j.to_json().to_string_flat().contains("\"topology\":\"mesh-4\""));
    }

    #[test]
    fn topology_axis_names_round_trip() {
        for t in [TopologyAxis::Flat, TopologyAxis::TwoSocket, TopologyAxis::Mesh { nodes: 6 }] {
            assert_eq!(TopologyAxis::from_name(&t.label()), Some(t));
        }
        assert_eq!(TopologyAxis::from_name("MESH-3"), Some(TopologyAxis::Mesh { nodes: 3 }));
        assert!(TopologyAxis::from_name("ring").is_none());
    }

    #[test]
    fn default_grids_do_not_mention_the_topology_axis() {
        // Byte-compatibility: grids that leave the axis empty must
        // serialize exactly as they did before the axis existed.
        for name in ["paper", "smoke", "threshold", "page-size", "faults", "pressure", "chaos"] {
            let g = Grid::named(name).unwrap();
            assert!(!g.to_json().to_string_flat().contains("topolog"), "{name} grid");
            for j in g.jobs() {
                assert_eq!(j.topology, None);
                assert!(!j.to_json().to_string_flat().contains("topolog"));
            }
        }
    }

    #[test]
    fn serving_preset_sweeps_rate_skew_and_tenants() {
        let g = Grid::serving();
        let jobs = g.jobs();
        // The serving axes (2 rates x 2 exponents x 2 tenant counts)
        // are app parameters and apply to every placement, including
        // single-cpu local; the policy axis applies to NUMA cells only.
        // local 8 + global 8 + numa 8x3 policies = 40 cells.
        assert_eq!(jobs.len(), 40);
        assert!(jobs.iter().all(|j| j.app == AppId::KvServe));
        assert!(jobs
            .iter()
            .all(|j| j.req_rate.is_some() && j.zipf_s.is_some() && j.tenants.is_some()));
        assert!(jobs.iter().all(|j| j.local_frames == Some(12) && j.vt_budget.is_some()));
        assert!(jobs
            .iter()
            .all(|j| (j.placement == Placement::Numa) == j.policy.is_some()));
        let j = jobs
            .iter()
            .find(|j| {
                j.placement == Placement::Numa
                    && j.policy == Some(PolicyAxis::FlushLimit)
                    && j.req_rate == Some(2_000)
                    && j.zipf_s == Some(1.5)
                    && j.tenants == Some(3)
            })
            .expect("hot flush-limit numa cell");
        assert!(j.label().contains("pol=flush-limit"), "label: {}", j.label());
        assert!(j.label().contains("r=2000"), "label: {}", j.label());
        assert!(j.label().contains("zs=1.5"), "label: {}", j.label());
        assert!(j.label().contains("ten=3"), "label: {}", j.label());
        // The axes show up in both serialized forms.
        let gj = g.to_json().to_string_flat();
        assert!(gj.contains("\"policies\":[\"move-limit\",\"flush-limit\",\"move-or-flush\"]"));
        assert!(gj.contains("\"req_rates\":[500,2000]"));
        assert!(gj.contains("\"zipf_exponents\":[0.5,1.5]"));
        assert!(gj.contains("\"tenant_counts\":[1,3]"));
        let jj = j.to_json().to_string_flat();
        assert!(jj.contains("\"policy\":\"flush-limit\""));
        assert!(jj.contains("\"req_rate\":2000"));
        assert!(jj.contains("\"zipf_s\":1.5"));
        assert!(jj.contains("\"tenants\":3"));
    }

    #[test]
    fn policy_axis_names_round_trip() {
        for p in [PolicyAxis::MoveLimit, PolicyAxis::FlushLimit, PolicyAxis::MoveOrFlush] {
            assert_eq!(PolicyAxis::from_name(p.label()), Some(p));
            assert_eq!(PolicyAxis::from_name(&p.label().to_uppercase()), Some(p));
        }
        assert!(PolicyAxis::from_name("lru").is_none());
    }

    #[test]
    fn policy_axis_selects_the_cell_policy() {
        let jobs = Grid::serving().jobs();
        let by = |pol| {
            jobs.iter()
                .find(move |j| j.placement == Placement::Numa && j.policy == Some(pol))
                .expect("numa cell for policy")
        };
        assert_eq!(by(PolicyAxis::MoveLimit).policy().name(), "move-limit");
        assert_eq!(by(PolicyAxis::FlushLimit).policy().name(), "flush-limit");
        assert_eq!(by(PolicyAxis::MoveOrFlush).policy().name(), "move-or-flush");
        // Baselines keep their fixed policies regardless of the axis.
        let global = jobs.iter().find(|j| j.placement == Placement::Global).unwrap();
        assert_eq!(global.policy, None);
        assert_eq!(global.policy().name(), "all-global");
    }

    #[test]
    fn default_grids_do_not_mention_the_policy_axis() {
        // Byte-compatibility: grids that leave the policy axis empty
        // must serialize exactly as they did before the axis existed.
        for name in
            ["paper", "smoke", "threshold", "page-size", "faults", "pressure", "chaos", "topology"]
        {
            let g = Grid::named(name).unwrap();
            assert!(!g.to_json().to_string_flat().contains("polic"), "{name} grid");
            for j in g.jobs() {
                assert_eq!(j.policy, None);
                assert!(!j.to_json().to_string_flat().contains("\"policy\""));
                assert!(!j.label().contains("pol="));
            }
        }
    }

    #[test]
    fn serving_axes_collapse_for_batch_apps() {
        // A grid mixing a batch app into the serving axes must not
        // multiply the batch app's cells.
        let mut g = Grid::serving();
        g.apps = vec![AppId::Gfetch, AppId::KvServe];
        let jobs = g.jobs();
        let batch: Vec<_> = jobs.iter().filter(|j| j.app == AppId::Gfetch).collect();
        // One Gfetch cell per placement, except numa — the policy axis
        // is a placement property, so its three values still apply.
        assert_eq!(batch.len(), 5);
        assert!(batch.iter().all(|j| j.req_rate.is_none() && j.zipf_s.is_none()));
    }

    #[test]
    fn kvserve_resolves_by_name_but_stays_out_of_the_paper_table() {
        assert_eq!(AppId::from_name("kvserve"), Some(AppId::KvServe));
        assert_eq!(AppId::from_name("KvServe"), Some(AppId::KvServe));
        assert!(!AppId::ALL.contains(&AppId::KvServe));
        assert_eq!(AppId::KvServe.make(Scale::Test).name(), "KvServe");
    }

    #[test]
    fn make_app_applies_serving_overrides() {
        let g = Grid::serving();
        let j = g.jobs().into_iter().find(|j| j.req_rate == Some(500)).unwrap();
        // The override reaches the app: a sanity run would use it, but
        // here it is enough that instantiation succeeds and the batch
        // path is untouched.
        assert_eq!(j.make_app().name(), "KvServe");
        let paper = &Grid::paper().jobs()[0];
        assert_eq!(paper.make_app().name(), paper.app.name());
    }

    #[test]
    fn default_grids_do_not_mention_the_serving_axes() {
        // Byte-compatibility: grids that leave the serving axes empty
        // must serialize exactly as they did before the axes existed.
        for name in
            ["paper", "smoke", "threshold", "page-size", "faults", "pressure", "chaos", "topology"]
        {
            let g = Grid::named(name).unwrap();
            let s = g.to_json().to_string_flat();
            assert!(!s.contains("req_rate"), "{name} grid mentions req_rates");
            assert!(!s.contains("zipf"), "{name} grid mentions zipf_exponents");
            assert!(!s.contains("tenant"), "{name} grid mentions tenant_counts");
            for j in g.jobs() {
                assert_eq!(j.req_rate, None);
                assert_eq!(j.zipf_s, None);
                assert_eq!(j.tenants, None);
                let jj = j.to_json().to_string_flat();
                assert!(!jj.contains("req_rate") && !jj.contains("zipf") && !jj.contains("tenant"));
            }
        }
    }

    #[test]
    fn overload_preset_sweeps_protection_knobs_through_saturation() {
        let g = Grid::overload();
        let jobs = g.jobs();
        // 2 policies x 2 offline (healthy + node-loss) x 2 rates
        // x 2 depths x 2 deadlines x 2 quotas, numa placement only.
        assert_eq!(jobs.len(), 64);
        assert!(jobs.iter().all(|j| j.app == AppId::KvServe && j.placement == Placement::Numa));
        assert!(jobs.iter().all(|j| {
            j.queue_depth.is_some() && j.deadline_ns.is_some() && j.tenant_quota.is_some()
        }));
        // The healthy sentinel: a zero offline_at entry schedules nothing.
        let healthy = jobs.iter().filter(|j| j.offline_at.is_none()).count();
        assert_eq!(healthy, 32);
        assert!(jobs
            .iter()
            .filter(|j| j.offline_at.is_none())
            .all(|j| j.hard_schedule().is_empty()));
        assert!(jobs
            .iter()
            .filter(|j| j.offline_at.is_some())
            .all(|j| j.hard_schedule().len() == 1));
        let j = jobs
            .iter()
            .find(|j| {
                j.req_rate == Some(32_000)
                    && j.queue_depth == Some(8)
                    && j.deadline_ns == Some(400_000)
                    && j.tenant_quota == Some(800)
            })
            .expect("fully protected saturated cell");
        assert!(j.label().contains("qd=8"), "label: {}", j.label());
        assert!(j.label().contains("dl=400000"), "label: {}", j.label());
        assert!(j.label().contains("tq=800"), "label: {}", j.label());
        let jj = j.to_json().to_string_flat();
        assert!(jj.contains("\"queue_depth\":8"));
        assert!(jj.contains("\"deadline_ns\":400000"));
        assert!(jj.contains("\"tenant_quota\":800"));
        let gj = g.to_json().to_string_flat();
        assert!(gj.contains("\"queue_depths\":[0,8]"));
        assert!(gj.contains("\"deadlines_ns\":[0,400000]"));
        assert!(gj.contains("\"tenant_quotas\":[0,800]"));
    }

    #[test]
    fn overload_knobs_reach_the_serving_app_and_collapse_for_batch() {
        // The knobs reach ServeParams through make_app (instantiation
        // succeeds with them applied) and collapse for batch apps.
        let g = Grid::overload();
        let j = g.jobs().into_iter().find(|j| j.queue_depth == Some(8)).unwrap();
        assert_eq!(j.make_app().name(), "KvServe");
        let mut mixed = Grid::overload();
        mixed.apps = vec![AppId::Gfetch, AppId::KvServe];
        let batch: Vec<_> =
            mixed.jobs().into_iter().filter(|j| j.app == AppId::Gfetch).collect();
        // Gfetch keeps only the policy x offline axes: 2 x 2 = 4 cells.
        assert_eq!(batch.len(), 4);
        assert!(batch.iter().all(|j| {
            j.queue_depth.is_none() && j.deadline_ns.is_none() && j.tenant_quota.is_none()
        }));
    }

    #[test]
    fn default_grids_do_not_mention_the_overload_axes() {
        // Byte-compatibility: grids that leave the overload axes empty
        // must serialize exactly as they did before the axes existed —
        // including the serving preset, whose baseline predates them.
        for name in Grid::preset_names().iter().filter(|&&n| n != "overload") {
            let g = Grid::named(name).unwrap();
            let s = g.to_json().to_string_flat();
            assert!(!s.contains("queue_depth"), "{name} grid mentions queue_depths");
            assert!(!s.contains("deadline"), "{name} grid mentions deadlines_ns");
            assert!(!s.contains("quota"), "{name} grid mentions tenant_quotas");
            for j in g.jobs() {
                assert_eq!(j.queue_depth, None);
                assert_eq!(j.deadline_ns, None);
                assert_eq!(j.tenant_quota, None);
                let jj = j.to_json().to_string_flat();
                assert!(!jj.contains("queue_depth") && !jj.contains("deadline"));
                assert!(!jj.contains("quota"));
                let l = j.label();
                assert!(!l.contains("qd=") && !l.contains("dl=") && !l.contains("tq="));
            }
        }
    }

    #[test]
    fn default_grids_do_not_mention_the_offline_axis() {
        // Byte-compatibility: runs with no hard-failure schedule must
        // serialize exactly as they did before the axis existed.
        for name in ["paper", "smoke", "threshold", "page-size", "faults", "pressure"] {
            let g = Grid::named(name).unwrap();
            let s = g.to_json().to_string_flat();
            assert!(!s.contains("offline"), "{name} grid mentions the offline axis");
            for j in g.jobs() {
                assert_eq!(j.offline_at, None);
                assert_eq!(j.offline_nodes, None);
                assert!(j.hard_schedule().is_empty());
                assert!(!j.to_json().to_string_flat().contains("offline"));
            }
        }
    }
}
