//! Idle waits served by the scheduler.
//!
//! `ThreadCtx::wait_until` hands every grant its wait outlasts to the
//! scheduler, which charges the idle steps while the thread sleeps.
//! Nothing observable may differ from the same wait written with the
//! public API as a loop of `now` and `compute`: clocks, counters, bus
//! traffic, memory contents, the budget verdict and the number of
//! grants. Only the kind of grant changes: grants the scheduler serves
//! count as idle grants and wake no thread.

use numa_repro::machine::{BusStats, CpuId, CpuTime, FaultConfig, HardFault, NodeId, Ns, Prot};
use numa_repro::numa::{MoveLimitPolicy, NumaStats};
use numa_repro::sim::{EngineStats, RefCounters, SchedulerKind, SimConfig, Simulator, ThreadCtx};

/// Open-loop arrivals per thread.
const ROUNDS: u64 = 12;
/// Words of private memory per thread.
const PRIVATE: u64 = 64;

/// How a thread idles until an arrival.
#[derive(Clone, Copy)]
enum Wait {
    /// `ThreadCtx::wait_until`.
    Scheduler,
    /// A loop of `now` and `compute` over the public API, in steps of at
    /// most the compute chunk.
    Reference,
}

impl Wait {
    fn until(self, ctx: &mut ThreadCtx, t: Ns, chunk: Ns) {
        match self {
            Wait::Scheduler => ctx.wait_until(t),
            Wait::Reference => loop {
                let now = ctx.now();
                if now >= t {
                    break;
                }
                ctx.compute(Ns((t.0 - now.0).min(chunk.0.max(1))));
            },
        }
    }
}

/// Everything observable about one run, and the grant count.
#[derive(Debug, PartialEq)]
struct Outcome {
    cpu_times: Vec<CpuTime>,
    refs: RefCounters,
    numa: NumaStats,
    bus: BusStats,
    memory: Vec<u32>,
    vt_exceeded: bool,
    grants: u64,
}

/// Arrival `i` of thread `t`: a staggered period of 500 µs, with a
/// 4 ms gap after the first half, so waits range from already over to
/// many lookahead windows long.
fn arrival(t: u64, i: u64) -> Ns {
    let gap = if i >= ROUNDS / 2 { 4_000_000 } else { 0 };
    Ns(i * 500_000 + t * 37_000 + gap)
}

/// `threads` workers, each serving its arrivals: bump one shared
/// counter, record the value it saw in a private word (so memory holds
/// the order in which all threads were served) and compute for a
/// thread-dependent time (longer than the period for some, so some
/// waits are already over). One more thread never waits and bumps the
/// counter after every 3 µs of compute, so a waiter that ran one
/// reference early or late would see a different count.
fn run(cfg: SimConfig, threads: u64, wait: Wait) -> (Outcome, EngineStats) {
    let chunk = cfg.compute_chunk;
    let mut s = Simulator::new(cfg, Box::new(MoveLimitPolicy::default()));
    let a = s.alloc(4, Prot::READ_WRITE);
    let privates: Vec<_> =
        (0..threads).map(|_| s.alloc(PRIVATE * 4, Prot::READ_WRITE)).collect();
    s.spawn("busy", move |ctx| {
        for _ in 0..1000 {
            let v = ctx.read_u32(a);
            ctx.write_u32(a, v + 1);
            ctx.compute(Ns(3_000));
        }
    });
    for (t, &private) in (0..threads).zip(&privates) {
        s.spawn(format!("w{t}"), move |ctx| {
            for i in 0..ROUNDS {
                wait.until(ctx, arrival(t, i), chunk);
                let v = ctx.read_u32(a);
                ctx.write_u32(a, v + 1);
                ctx.write_u32(private + (i % PRIVATE) * 4, v);
                ctx.compute(Ns(20_000 + t * 45_000));
            }
        });
    }
    let r = s.run();
    let words = privates.iter().flat_map(|&p| (0..PRIVATE).map(move |w| p + w * 4));
    let memory =
        [a].into_iter().chain(words).map(|w| s.with_kernel(|k| k.peek_u32(w))).collect();
    let stats = s.engine_stats();
    let outcome = Outcome {
        cpu_times: r.cpu_times,
        refs: r.refs,
        numa: r.numa,
        bus: r.bus,
        memory,
        vt_exceeded: s.vt_exceeded(),
        grants: stats.grants,
    };
    (outcome, stats)
}

/// Runs both waits and checks they are indistinguishable but for the
/// grant split; returns the scheduler side's outcome.
fn differential(cfg: SimConfig, threads: u64) -> Outcome {
    let (reference, ref_stats) = run(cfg.clone(), threads, Wait::Reference);
    let (served, stats) = run(cfg, threads, Wait::Scheduler);
    assert_eq!(served, reference);
    for st in [ref_stats, stats] {
        assert_eq!(st.grants, st.handoffs + st.self_grants + st.idle_grants, "{st:?}");
    }
    assert_eq!(ref_stats.idle_grants, 0, "the reference wait never yields idle");
    assert!(stats.idle_grants > 0, "no wait outlasted a grant: {stats:?}");
    assert!(stats.handoffs < ref_stats.handoffs, "{stats:?} vs {ref_stats:?}");
    served
}

/// More threads than processors under the affinity scheduler: threads
/// sharing a processor share its clock, so one thread's work moves the
/// other's wait. Exact interleaving and a lookahead window, both paths.
#[test]
fn affinity_with_shared_processor_clocks() {
    for lookahead in [Ns::ZERO, Ns::from_us(30)] {
        for fast in [true, false] {
            let cfg = SimConfig::small(2).lookahead(lookahead).fastpath(fast);
            let out = differential(cfg, 5);
            assert!(!out.vt_exceeded);
        }
    }
}

/// Under the global queue an idle thread is rotated off its processor
/// and may resume its wait on another one.
#[test]
fn global_queue_moves_idle_threads() {
    let cfg = SimConfig::small(3)
        .scheduler(SchedulerKind::GlobalQueue)
        .quantum(Ns::from_us(200));
    differential(cfg, 5);
}

/// A processor death and a node death both fire inside the 4 ms gap,
/// while every thread is idle: the dead processor's idle threads drain
/// to survivors mid-wait.
#[test]
fn hard_failures_fire_while_threads_idle() {
    let hard_faults = vec![
        HardFault::CpuOffline { cpu: CpuId(2), vt: Ns::from_us(6_000) },
        HardFault::NodeOffline { node: NodeId(1), vt: Ns::from_us(6_500) },
    ];
    let cfg = SimConfig::small(3).faults(FaultConfig { hard_faults, ..FaultConfig::default() });
    let out = differential(cfg, 4);
    assert_eq!(out.numa.nodes_offlined, 1);
    assert!(out.numa.threads_drained > 0, "an idle thread sat on the dead processor");
}

/// The virtual-time budget runs out in the middle of the gap: both
/// waits stop the run at the same grant.
#[test]
fn vt_budget_expires_during_a_wait() {
    let cfg = SimConfig::small(2).vt_budget(Some(Ns::from_us(6_200)));
    let out = differential(cfg, 3);
    assert!(out.vt_exceeded);
}
