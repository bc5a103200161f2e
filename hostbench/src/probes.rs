//! Outside-in probes: fixed, exactly counted operations timed through
//! the public API of one layer each, with no farm around them.
//!
//! Every probe repeats a batch of `ops` operations `TRIALS` times and
//! reports the median per-operation time with the total operation
//! count, so each ratio has a base. Each batch also checks through the
//! layer's own counters that it did the operations it claims to time.

use ace_machine::{Access, CpuId, Machine, MemRegion, Ns, Prot, TopologyBuilder};
use ace_sim::{SimConfig, Simulator};
use mach_vm::{LPageId, VAddr};
use numa_core::{CachePolicy, MoveLimitPolicy, NumaManager, NumaStats};
use std::hint::black_box;
use std::time::Instant;

use crate::stats::median;

/// Batches per probe; the median batch is reported.
const TRIALS: usize = 7;

/// One probe result: median time per operation and operations timed.
pub struct Probe {
    pub name: &'static str,
    pub unit: &'static str,
    pub per_op: f64,
    pub ops: u64,
}

/// Runs every probe. `seed` rotates the order in which pages are
/// touched, so different seeds time the same operations on different
/// address sequences.
pub fn run_all(seed: u64) -> Result<Vec<Probe>, String> {
    let mut out = vec![grant(false)?, grant(true)?];
    out.extend(kernel_fault(seed)?);
    for t in Transition::ALL {
        out.push(manager_request(t, seed)?);
    }
    out.push(translate(seed));
    Ok(out)
}

/// Times `TRIALS` batches of `batch`, each returning (host seconds,
/// operations), and returns the median seconds per operation.
fn median_per_op(
    mut batch: impl FnMut() -> Result<(f64, u64), String>,
) -> Result<(f64, u64), String> {
    let mut per_op = Vec::with_capacity(TRIALS);
    let mut ops = 0;
    for _ in 0..TRIALS {
        let (secs, n) = batch()?;
        per_op.push(secs / n as f64);
        ops += n;
    }
    Ok((median(&per_op).expect("TRIALS > 0"), ops))
}

/// Engine grant handoff: `n` simulated threads each `compute(1 ns)`
/// then `yield_now()`, `YIELDS` times. Every yield ends exactly one
/// grant, and each thread also receives its starting grant, so a run
/// makes `n * (YIELDS + 1)` grants. One thread on one processor gets
/// every grant back (`self`); two threads on two processors alternate,
/// because each 1 ns charge leaves the other processor's clock lowest
/// (`cross`).
fn grant(cross: bool) -> Result<Probe, String> {
    const YIELDS: usize = 400;
    let n = if cross { 2 } else { 1 };
    let (secs, ops) = median_per_op(|| {
        let mut sim = Simulator::new(SimConfig::small(n), Box::new(MoveLimitPolicy::default()));
        for _ in 0..n {
            sim.spawn("yield", |ctx| {
                for _ in 0..YIELDS {
                    ctx.compute(Ns(1));
                    ctx.yield_now();
                }
            });
        }
        let t = Instant::now();
        let report = sim.run();
        let secs = t.elapsed().as_secs_f64();
        let charged = report.total_user() + report.total_system();
        if charged != Ns((n * YIELDS) as u64) {
            return Err(format!(
                "grant probe charged {charged:?}, expected {} ns",
                n * YIELDS
            ));
        }
        Ok((secs, (n * (YIELDS + 1)) as u64))
    })?;
    Ok(Probe {
        name: if cross {
            "sim.grant_us.cross"
        } else {
            "sim.grant_us.self"
        },
        unit: "us",
        per_op: secs * 1e6,
        ops,
    })
}

/// Kernel fault path without the engine: `Kernel::store_u32` through
/// `Simulator::with_kernel`, first on fresh pages (zero-fill on the
/// writer's node) and then from the other processor on the same pages,
/// now owned remotely (migration). Every store faults exactly once.
fn kernel_fault(seed: u64) -> Result<Vec<Probe>, String> {
    const PAGES: u64 = 128;
    let mut fresh = Vec::with_capacity(TRIALS);
    let mut remote = Vec::with_capacity(TRIALS);
    for _ in 0..TRIALS {
        let sim = Simulator::new(SimConfig::ace(2), Box::new(MoveLimitPolicy::default()));
        let page = sim.config().machine.page_size.bytes() as u64;
        let base = sim.alloc(PAGES * page, Prot::READ_WRITE);
        let addrs: Vec<VAddr> = rotated(PAGES, seed)
            .into_iter()
            .map(|i| VAddr(base.0 + i * page))
            .collect();
        let (f, r) = sim.with_kernel(|k| -> Result<(f64, f64), String> {
            let mut pass = |cpu: CpuId| -> Result<(f64, NumaStats), String> {
                let before = k.pmap.stats();
                let t = Instant::now();
                for (i, &a) in addrs.iter().enumerate() {
                    k.store_u32(cpu, a, i as u32).map_err(|e| e.to_string())?;
                }
                let secs = t.elapsed().as_secs_f64();
                Ok((secs, delta(&before, &k.pmap.stats())))
            };
            let (f, d) = pass(CpuId(0))?;
            expect_count("fresh stores", d.requests, PAGES)?;
            let (r, d) = pass(CpuId(1))?;
            expect_count("remote-owned stores", d.migrations, PAGES)?;
            Ok((f, r))
        })?;
        fresh.push(f / PAGES as f64);
        remote.push(r / PAGES as f64);
    }
    let ops = PAGES * TRIALS as u64;
    Ok(vec![
        Probe {
            name: "sim.kernel_fault_us.fresh",
            unit: "us",
            per_op: median(&fresh).expect("TRIALS > 0") * 1e6,
            ops,
        },
        Probe {
            name: "sim.kernel_fault_us.remote",
            unit: "us",
            per_op: median(&remote).expect("TRIALS > 0") * 1e6,
            ops,
        },
    ])
}

/// The Table 1/2 transitions probed directly on `NumaManager::request`.
#[derive(Clone, Copy)]
enum Transition {
    /// A store to a fresh page: zero-fill on the writer's node.
    FreshWrite,
    /// A fetch from a second processor of a read-only page: replicate.
    ReplicateRead,
    /// A store from a second processor of a local-writable page: migrate.
    MigrateWrite,
    /// A store past the move limit: pin the page in global memory.
    PinGlobal,
}

impl Transition {
    const ALL: [Transition; 4] = [
        Transition::FreshWrite,
        Transition::ReplicateRead,
        Transition::MigrateWrite,
        Transition::PinGlobal,
    ];

    fn name(self) -> &'static str {
        match self {
            Transition::FreshWrite => "core.request_ns.fresh_write",
            Transition::ReplicateRead => "core.request_ns.replicate_read",
            Transition::MigrateWrite => "core.request_ns.migrate_write",
            Transition::PinGlobal => "core.request_ns.pin_global",
        }
    }

    /// Untimed requests that bring a fresh page to the state the timed
    /// request starts from.
    fn prelude(self) -> &'static [(Access, u16)] {
        match self {
            Transition::FreshWrite => &[],
            Transition::ReplicateRead => &[(Access::Fetch, 0)],
            Transition::MigrateWrite => &[(Access::Store, 0)],
            Transition::PinGlobal => &[(Access::Store, 0), (Access::Store, 1)],
        }
    }

    /// The timed request.
    fn timed(self) -> (Access, u16) {
        match self {
            Transition::FreshWrite => (Access::Store, 0),
            Transition::ReplicateRead => (Access::Fetch, 1),
            Transition::MigrateWrite => (Access::Store, 1),
            Transition::PinGlobal => (Access::Store, 0),
        }
    }

    /// The counter the timed requests must each bump once.
    fn count(self, d: &NumaStats) -> u64 {
        match self {
            Transition::FreshWrite => d.zero_fill_local,
            Transition::ReplicateRead => d.replications,
            Transition::MigrateWrite => d.migrations,
            Transition::PinGlobal => d.pins,
        }
    }
}

fn manager_request(t: Transition, seed: u64) -> Result<Probe, String> {
    const PAGES: u64 = 256;
    let (secs, ops) = median_per_op(|| {
        let mut m = Machine::new(TopologyBuilder::flat_ace(2).config());
        let mut mgr = NumaManager::new();
        // Threshold 0: the first migration already exhausts the move
        // limit, so the pin transition needs a two-request prelude.
        let mut pol = MoveLimitPolicy::new(0);
        let pages: Vec<LPageId> = rotated(PAGES, seed)
            .into_iter()
            .map(|i| LPageId(i as u32 + 1))
            .collect();
        let mut req = |m: &mut Machine, mgr: &mut NumaManager, p, (acc, cpu): (Access, u16)| {
            mgr.request(m, p, acc, CpuId(cpu), &mut pol as &mut dyn CachePolicy)
                .map(black_box)
                .map_err(|e| format!("{}: {e}", t.name()))
        };
        for &p in &pages {
            mgr.zero_page(p);
            for &step in t.prelude() {
                req(&mut m, &mut mgr, p, step)?;
            }
        }
        let before = mgr.stats();
        let start = Instant::now();
        for &p in &pages {
            req(&mut m, &mut mgr, p, t.timed())?;
        }
        let secs = start.elapsed().as_secs_f64();
        expect_count(t.name(), t.count(&delta(&before, &mgr.stats())), PAGES)?;
        Ok((secs, PAGES))
    })?;
    Ok(Probe {
        name: t.name(),
        unit: "ns",
        per_op: secs * 1e9,
        ops,
    })
}

/// `Mmu::translate` hits on a set of mapped pages.
fn translate(seed: u64) -> Probe {
    const PAGES: u64 = 64;
    const ROUNDS: u64 = 2_000;
    let mut m = Machine::new(TopologyBuilder::flat_ace(1).config());
    let vpns = rotated(PAGES, seed);
    for &vpn in &vpns {
        let f = m
            .mem
            .alloc(MemRegion::Global)
            .expect("64 of 8192 global frames are free");
        m.mmu(CpuId(0)).enter(1, vpn, f, Prot::READ_WRITE);
    }
    let (secs, ops) = median_per_op(|| {
        let mmu = m.mmu(CpuId(0));
        let start = Instant::now();
        for _ in 0..ROUNDS {
            for &vpn in &vpns {
                let _ = black_box(mmu.translate(1, black_box(vpn), Access::Fetch));
            }
        }
        Ok((start.elapsed().as_secs_f64(), ROUNDS * PAGES))
    })
    .expect("translation batches cannot fail");
    Probe {
        name: "ace.translate_ns",
        unit: "ns",
        per_op: secs * 1e9,
        ops,
    }
}

/// `0..n` rotated left by `seed % n`.
fn rotated(n: u64, seed: u64) -> Vec<u64> {
    (0..n).map(|i| (i + seed) % n).collect()
}

fn delta(before: &NumaStats, after: &NumaStats) -> NumaStats {
    NumaStats {
        requests: after.requests - before.requests,
        migrations: after.migrations - before.migrations,
        replications: after.replications - before.replications,
        zero_fill_local: after.zero_fill_local - before.zero_fill_local,
        pins: after.pins - before.pins,
        ..NumaStats::default()
    }
}

fn expect_count(what: &str, got: u64, want: u64) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!(
            "probe {what}: {got} operations counted, {want} expected"
        ))
    }
}
