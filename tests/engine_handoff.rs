//! The engine's direct handoff: each yielding thread makes the next
//! grant decision itself and wakes the chosen thread.
//!
//! These tests pin the properties that design has to keep: threads
//! start in tid order whatever order their OS threads come up in, a
//! panic inside a grant decision propagates instead of hanging the run,
//! and the engine's grant counters are deterministic.

use numa_repro::apps::{paper_mix, App, KvServe, Scale};
use numa_repro::machine::{Access, CpuId, Ns, Prot};
use numa_repro::numa::{CachePolicy, MoveLimitPolicy, Placement};
use numa_repro::sim::{EngineStats, SimConfig, Simulator};
use numa_repro::vm::LPageId;
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

fn sim(cfg: SimConfig) -> Simulator {
    Simulator::new(cfg, Box::new(MoveLimitPolicy::default()))
}

/// Eight threads on one processor run first in spawn order, on every
/// one of many runs: the start order must not depend on which OS
/// thread happens to come up first.
#[test]
fn threads_start_in_tid_order() {
    for run in 0..60 {
        let mut s = sim(SimConfig::small(1));
        let log = Arc::new(Mutex::new(Vec::new()));
        for t in 0..8 {
            let log = Arc::clone(&log);
            s.spawn(format!("t{t}"), move |ctx| {
                log.lock().unwrap().push(ctx.tid());
                ctx.compute(Ns::from_us(5));
            });
        }
        s.run();
        assert_eq!(*log.lock().unwrap(), (0..8).collect::<Vec<_>>(), "run {run}");
    }
}

/// Move-limit placement whose daemon tick panics.
struct ExplodingTick(MoveLimitPolicy);

impl CachePolicy for ExplodingTick {
    fn name(&self) -> &'static str {
        "exploding-tick"
    }

    fn decide(&mut self, lpage: LPageId, access: Access, cpu: CpuId) -> Placement {
        self.0.decide(lpage, access, cpu)
    }

    fn on_tick(&mut self) {
        panic!("daemon tick exploded");
    }
}

/// The daemon tick runs inside a grant decision, on whichever simulated
/// thread yields when virtual time crosses the tick. Its panic must come
/// out of `Simulator::run` with its message, within a wall-clock bound.
#[test]
fn panic_in_a_daemon_tick_propagates() {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let result = std::panic::catch_unwind(|| {
            let policy = ExplodingTick(MoveLimitPolicy::default());
            let mut s = Simulator::new(SimConfig::small(2), Box::new(policy));
            let a = s.alloc(4096, Prot::READ_WRITE);
            for t in 0..2u64 {
                s.spawn(format!("t{t}"), move |ctx| {
                    for i in 0..64u64 {
                        ctx.write_u32(a + t * 2048 + i * 4, i as u32);
                        ctx.compute(Ns::from_us(100));
                    }
                });
            }
            s.run();
        });
        let msg = match result {
            Ok(()) => None,
            Err(payload) => Some(
                payload
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                    .unwrap_or_default(),
            ),
        };
        let _ = tx.send(msg);
    });
    let msg = rx
        .recv_timeout(Duration::from_secs(60))
        .expect("Simulator::run hung after a panic in the daemon tick");
    let msg = msg.expect("the daemon tick's panic must propagate out of Simulator::run");
    assert!(msg.contains("daemon tick exploded"), "got: {msg}");
}

/// One thread on one processor gets every grant after its first back
/// without a wake; two threads on two processors alternate, so every
/// grant wakes the other one.
#[test]
fn engine_stats_count_self_grants_and_handoffs() {
    let yielding = |n: usize| {
        let mut s = sim(SimConfig::small(n));
        for _ in 0..n {
            s.spawn("yield", |ctx| {
                for _ in 0..100 {
                    ctx.compute(Ns(1));
                    ctx.yield_now();
                }
            });
        }
        s.run();
        s.engine_stats()
    };
    assert_eq!(
        yielding(1),
        EngineStats { grants: 101, handoffs: 1, self_grants: 100, idle_grants: 0 }
    );
    assert_eq!(
        yielding(2),
        EngineStats { grants: 202, handoffs: 202, self_grants: 0, idle_grants: 0 }
    );
}

/// Two threads on two processors each wait until 200 µs. Each gets a
/// first grant and charges one 20 µs step under it; with exact
/// interleaving every later grant is one more step, and the scheduler
/// charges all nine of each thread's while both sleep. Each thread is
/// woken once more, at 200 µs, to return and finish.
#[test]
fn engine_stats_count_idle_grants() {
    let mut s = sim(SimConfig::small(2));
    for _ in 0..2 {
        s.spawn("wait", |ctx| ctx.wait_until(Ns::from_us(200)));
    }
    let r = s.run();
    assert!(r.cpu_times.iter().all(|t| t.user == Ns::from_us(200)), "{:?}", r.cpu_times);
    assert_eq!(
        s.engine_stats(),
        EngineStats { grants: 22, handoffs: 4, self_grants: 0, idle_grants: 18 }
    );
}

/// The counters always split exactly into handoffs, self grants and
/// idle grants, and are the same on both access paths. The serving
/// workload's open-loop waits make idle grants; the batch kernels make
/// none.
#[test]
fn engine_stats_are_path_independent() {
    let stats = |fastpath: bool| -> Vec<EngineStats> {
        let serve: Box<dyn App> = Box::new(KvServe::at_scale(Scale::Test));
        paper_mix(Scale::Test)
            .into_iter()
            .take(4)
            .chain([serve])
            .map(|app| {
                let mut s = sim(SimConfig::small(3).fastpath(fastpath));
                app.run(&mut s, 3)
                    .unwrap_or_else(|e| panic!("{} failed verification: {e}", app.name()));
                s.engine_stats()
            })
            .collect()
    };
    let fast = stats(true);
    for st in &fast {
        assert!(st.grants > 0);
        assert_eq!(st.grants, st.handoffs + st.self_grants + st.idle_grants);
    }
    let (serve, batch) = fast.split_last().unwrap();
    assert!(batch.iter().all(|st| st.idle_grants == 0), "{batch:?}");
    assert!(serve.idle_grants > 0, "{serve:?}");
    assert_eq!(fast, stats(false));
}
