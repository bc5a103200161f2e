//! The simulation engine: spawning, scheduling, and running simulated
//! threads deterministically.
//!
//! There is no engine thread. The scheduler state lives in one
//! [`Sched`] that every simulated thread of a run reaches through the
//! run's shared [`Handoff`]. A thread that yields makes the next grant
//! decision itself, posts the grant into the chosen thread's slot and
//! wakes it, then parks until its own slot is filled: one OS wake per
//! grant to another thread, none for a grant back to itself. A thread
//! idling in [`ThreadCtx::wait_until`] is not woken at all until its
//! wait ends: the scheduler charges its idle steps itself. The caller
//! of [`Simulator::run`] only posts the first grant and waits for the
//! run to end.

use crate::config::{SchedulerKind, SimConfig};
use crate::ctx::{Grant, StopToken, ThreadCtx, YieldReason};
use crate::kernel::Kernel;
use crate::report::RunReport;
use ace_machine::{CpuId, HardFault, Machine, Ns, Prot};
use mach_vm::VAddr;
use numa_core::{AcePmap, CachePolicy};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, OnceLock};
use std::thread::Thread;

/// A closure waiting to be run as a simulated thread.
struct PendingThread {
    name: String,
    body: Box<dyn FnOnce(&mut ThreadCtx) + Send + 'static>,
}

/// Deterministic counts of the engine's scheduling work, summed over
/// every [`Simulator::run`] of one simulator. They depend only on the
/// grant sequence, so they are identical on both access paths and at
/// any worker count; no report or sweep document serializes them.
/// Every grant is exactly one of the three kinds:
/// `grants == handoffs + self_grants + idle_grants`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Grants made: each lets one thread run until its budget ends.
    pub grants: u64,
    /// Grants to a thread other than the one deciding, each waking a
    /// parked OS thread (a run's first grant is one of these).
    pub handoffs: u64,
    /// Grants back to the thread that just yielded, with no wake.
    pub self_grants: u64,
    /// Grants spent entirely inside a [`ThreadCtx::wait_until`]: the
    /// scheduler charges the idle steps and the thread sleeps through.
    pub idle_grants: u64,
}

/// Runs one complete simulation from one configuration: boots a
/// simulator for `cfg` and `policy`, hands it to `body` (which
/// allocates, spawns and drives an application to completion), and
/// returns the run's report.
///
/// This is the single-config entry point the `numa-lab` worker farm
/// calls once per sweep cell; unlike the panicking harness helpers it
/// propagates the application's verification failure as a typed `Err`,
/// so a wrong answer in one grid cell surfaces as that cell's error
/// instead of tearing down the whole sweep.
pub fn run_one(
    cfg: SimConfig,
    policy: Box<dyn CachePolicy>,
    body: impl FnOnce(&mut Simulator) -> Result<(), String>,
) -> Result<RunReport, String> {
    let budget = cfg.vt_budget;
    let mut sim = Simulator::new(cfg, policy);
    let result = body(&mut sim);
    if sim.vt_exceeded() {
        // The budget abort truncates the run, so any verification
        // failure in `body` is a symptom; report the cause.
        let b = budget.map(|n| n.0).unwrap_or(0);
        return Err(format!("virtual-time budget of {b} ns exceeded"));
    }
    result?;
    Ok(sim.report())
}

/// The user-facing simulator: build a machine, allocate memory, spawn
/// threads, run, inspect.
///
/// # Examples
///
/// ```
/// use ace_machine::Prot;
/// use ace_sim::{SimConfig, Simulator};
/// use numa_core::MoveLimitPolicy;
///
/// let mut sim = Simulator::new(SimConfig::small(2), Box::new(MoveLimitPolicy::default()));
/// let a = sim.alloc(256, Prot::READ_WRITE);
/// sim.spawn("writer", move |ctx| ctx.write_u32(a, 7));
/// let report = sim.run();
/// assert_eq!(sim.with_kernel(|k| k.peek_u32(a)), 7);
/// assert!(report.total_user() > ace_machine::Ns::ZERO);
/// ```
pub struct Simulator {
    cfg: SimConfig,
    kernel: Arc<Mutex<Kernel>>,
    pending: Vec<PendingThread>,
    /// Next processor for sequential affinity assignment.
    next_cpu: usize,
    /// True once a run was cut short by the virtual-time budget.
    vt_exceeded: bool,
    /// Engine work counted over every run so far.
    stats: EngineStats,
    /// Serving-workload measurements attached by the application (see
    /// [`Simulator::attach_serving`]); `None` for every batch workload.
    serving: Option<numa_metrics::ServingReport>,
}

impl Simulator {
    /// Boots a simulator with the given placement policy. If the config
    /// carries an event sink, the machine's tap and the NUMA manager's
    /// sink are both wired to it, so the sink sees the full stream —
    /// bus traffic and protocol actions alike — in virtual-time order
    /// per processor.
    pub fn new(cfg: SimConfig, policy: Box<dyn CachePolicy>) -> Simulator {
        let mut machine = Machine::new(cfg.machine.clone());
        let mut pmap = AcePmap::new(policy);
        if let Some(sink) = &cfg.events {
            let tap_sink = Arc::clone(sink);
            machine.set_tap(Box::new(move |me| {
                let ev = numa_metrics::Event::from(me);
                tap_sink.lock().expect("event sink poisoned").record(&ev);
            }));
            pmap.set_event_sink(Arc::clone(sink));
        }
        pmap.set_max_reclaim_attempts(cfg.max_reclaim_attempts);
        let kernel = Kernel::new(machine, pmap);
        Simulator {
            cfg,
            kernel: Arc::new(Mutex::new(kernel)),
            pending: Vec::new(),
            next_cpu: 0,
            vt_exceeded: false,
            stats: EngineStats::default(),
            serving: None,
        }
    }

    /// Attaches serving-workload measurements (request counts, tail
    /// latency) to every subsequent [`Simulator::report`]. Only serving
    /// applications call this, so batch runs keep the exact report
    /// shape they had before the serving subsystem existed.
    pub fn attach_serving(&mut self, serving: numa_metrics::ServingReport) {
        self.serving = Some(serving);
    }

    /// True if any run so far was cut short by the configured
    /// virtual-time budget (the report then covers a truncated run).
    pub fn vt_exceeded(&self) -> bool {
        self.vt_exceeded
    }

    /// The engine's grant counts over every run so far.
    pub fn engine_stats(&self) -> EngineStats {
        self.stats
    }

    /// The engine configuration.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// Allocates zero-filled application memory (harness-level
    /// `vm_allocate`).
    pub fn alloc(&self, bytes: u64, prot: Prot) -> VAddr {
        self.kernel
            .lock()
            .alloc(bytes, prot)
            .expect("application allocation failed")
    }

    /// Frees an allocation made with [`Simulator::alloc`] (harness-level
    /// `vm_deallocate`): its logical pages go through the lazy
    /// `pmap_free_page` path and their placement history is forgotten.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not the base of a live allocation.
    pub fn dealloc(&self, addr: VAddr) {
        self.kernel.lock().dealloc(addr).expect("deallocating a live allocation")
    }

    /// Runs `f` with the kernel locked (inspection and setup).
    pub fn with_kernel<R>(&self, f: impl FnOnce(&mut Kernel) -> R) -> R {
        f(&mut self.kernel.lock())
    }

    /// Queues a simulated thread for the next [`Simulator::run`].
    pub fn spawn(
        &mut self,
        name: impl Into<String>,
        body: impl FnOnce(&mut ThreadCtx) + Send + 'static,
    ) {
        self.pending.push(PendingThread { name: name.into(), body: Box::new(body) });
    }

    /// Runs every queued thread to completion and reports what was
    /// measured. May be called repeatedly: kernel state (memory
    /// contents, placement, clocks) persists across runs.
    ///
    /// # Panics
    ///
    /// Panics with `simulated thread panicked: <message>` if a simulated
    /// thread panics, including inside a grant decision it made (a
    /// daemon tick or hard-failure recovery); the other threads are
    /// stopped and joined first.
    pub fn run(&mut self) -> RunReport {
        let pending = std::mem::take(&mut self.pending);
        if !pending.is_empty() {
            if let Some(msg) = self.run_threads(pending) {
                panic!("simulated thread panicked: {msg}");
            }
        }
        self.report()
    }

    /// Runs `pending` as simulated threads until the last one finishes,
    /// the virtual-time budget runs out, or one panics; returns the
    /// panic message, if any.
    fn run_threads(&mut self, pending: Vec<PendingThread>) -> Option<String> {
        // Threads enter their queues in tid order, before any of them
        // exists as an OS thread, so the start order is deterministic.
        let (sched, first) = {
            let mut k = self.kernel.lock();
            let mut sched = Sched::new(&self.cfg, &k, self.next_cpu, self.stats);
            for _ in &pending {
                sched.add_thread(&k);
            }
            let first = sched.decide(&mut k, None);
            (sched, first)
        };
        let homes = sched.home_cpu.clone();
        let handoff = Arc::new(Handoff {
            kernel: Arc::clone(&self.kernel),
            sched: Mutex::new(sched),
            slots: pending.iter().map(|_| Slot::default()).collect(),
            caller: std::thread::current(),
            outcome: Mutex::new(None),
        });
        let handles: Vec<_> = pending
            .into_iter()
            .enumerate()
            .map(|(tid, p)| {
                let h = Arc::clone(&handoff);
                let mut ctx = ThreadCtx {
                    tid,
                    cpu: CpuId::from(homes[tid]),
                    kernel: Arc::clone(&self.kernel),
                    handoff: Arc::clone(&h),
                    budget_end: Ns::ZERO,
                    over_budget: false,
                    compute_chunk: self.cfg.compute_chunk,
                    page: self.cfg.machine.page_size,
                    fastpath: self.cfg.fastpath,
                    tlb: [None; crate::ctx::TLB_ENTRIES],
                    tlb_next: 0,
                };
                std::thread::Builder::new()
                    .name(format!("sim-{}-{}", tid, p.name))
                    .spawn(move || {
                        let result = catch_unwind(AssertUnwindSafe(|| {
                            ctx.start();
                            (p.body)(&mut ctx);
                            h.hand_off(ctx.tid, ctx.cpu, YieldReason::Done);
                        }));
                        if let Err(payload) = result {
                            if payload.downcast_ref::<StopToken>().is_none() {
                                h.end(Some(panic_message(payload)));
                            }
                        }
                    })
                    .expect("spawning simulated thread")
            })
            .collect();
        // Every thread exists before the first grant, so every wake
        // finds its target's handle.
        for (slot, h) in handoff.slots.iter().zip(&handles) {
            let _ = slot.thread.set(h.thread().clone());
        }
        match first {
            Next::Run(tid, grant) => handoff.post(tid, grant),
            Next::Over => handoff.end(None),
        }
        let panic_msg = loop {
            if let Some(outcome) = handoff.outcome.lock().take() {
                break outcome;
            }
            std::thread::park();
        };
        // Every thread still alive is parked on its slot: stop them all.
        for tid in 0..handles.len() {
            handoff.post(tid, Grant::Stop);
        }
        for h in handles {
            let _ = h.join();
        }
        let s = handoff.sched.lock();
        self.next_cpu = s.next_cpu;
        self.vt_exceeded |= s.vt_exceeded;
        self.stats = s.stats;
        panic_msg
    }

    /// A report of everything measured so far.
    pub fn report(&self) -> RunReport {
        let k = self.kernel.lock();
        RunReport {
            policy: k.pmap.policy_name(),
            cpu_times: k.machine.clocks.all().to_vec(),
            refs: k.refs,
            numa: k.pmap.stats(),
            bus: k.machine.bus,
            faults: k.machine.fault.stats(),
            serving: self.serving.clone(),
            degraded: None,
        }
    }
}

/// The text of a panic payload.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "<non-string panic>".to_string())
}

/// What the simulated threads of one run share: the scheduler, one
/// grant slot per thread, and the caller waiting for the run to end.
pub(crate) struct Handoff {
    kernel: Arc<Mutex<Kernel>>,
    sched: Mutex<Sched>,
    slots: Vec<Slot>,
    /// The thread that called [`Simulator::run`], woken when the run
    /// ends.
    caller: Thread,
    /// How the run ended, once it has: `Some(None)` for a clean finish
    /// or budget abort, `Some(Some(msg))` for a panic.
    outcome: Mutex<Option<Option<String>>>,
}

/// One simulated thread's mailbox: the grant waiting for it, and its
/// OS thread to wake.
#[derive(Default)]
struct Slot {
    grant: Mutex<Option<Grant>>,
    thread: OnceLock<Thread>,
}

impl Handoff {
    /// Parks thread `tid` until a grant is posted to it.
    pub(crate) fn wait(&self, tid: usize) -> Grant {
        loop {
            if let Some(grant) = self.slots[tid].grant.lock().take() {
                return grant;
            }
            std::thread::park();
        }
    }

    /// Posts `grant` to thread `tid` and wakes it. Called with no lock
    /// held: the woken thread may preempt the poster on the same host
    /// CPU, and would then block on any lock the poster still held.
    fn post(&self, tid: usize, grant: Grant) {
        *self.slots[tid].grant.lock() = Some(grant);
        if let Some(t) = self.slots[tid].thread.get() {
            t.unpark();
        }
    }

    /// Called by thread `tid`, which ran on `cpu` and gives up the run
    /// token for `reason`: records the yield, makes the next grant
    /// decision and delivers it. Returns the grant when it goes back to
    /// `tid` itself; otherwise a yielding thread must [`Handoff::wait`]
    /// for its next one.
    pub(crate) fn hand_off(&self, tid: usize, cpu: CpuId, reason: YieldReason) -> Option<Grant> {
        let next = {
            let mut s = self.sched.lock();
            let mut k = self.kernel.lock();
            s.retire(&k, tid, cpu.index(), reason);
            s.decide(&mut k, Some(tid))
        };
        match next {
            Next::Run(t, grant) if t == tid => return Some(grant),
            Next::Run(t, grant) => self.post(t, grant),
            Next::Over => self.end(None),
        }
        None
    }

    /// Ends the run with `panic` (the first ending wins) and wakes the
    /// caller.
    pub(crate) fn end(&self, panic: Option<String>) {
        self.outcome.lock().get_or_insert(panic);
        self.caller.unpark();
    }
}

/// A grant decision.
enum Next {
    /// Thread `tid` runs under the grant.
    Run(usize, Grant),
    /// The run is over: no thread is left, or the virtual-time budget
    /// ran out.
    Over,
}

/// Per-processor scheduler slot.
struct CpuSlot {
    runq: VecDeque<usize>,
    current: Option<usize>,
    quantum_end: Ns,
}

/// The scheduler of one run: run queues, processor slots, daemon and
/// hard-failure deadlines and the virtual-time budget. Only the thread
/// holding the run token (or the caller, before the first grant)
/// touches it.
struct Sched {
    scheduler: SchedulerKind,
    quantum: Ns,
    lookahead: Ns,
    cpus: Vec<CpuSlot>,
    global_q: VecDeque<usize>,
    /// The processor each thread was bound to at creation (used by the
    /// affinity scheduler), indexed by tid.
    home_cpu: Vec<usize>,
    alive: usize,
    next_cpu: usize,
    daemon_interval: Ns,
    next_daemon_tick: Ns,
    pressure_low: usize,
    pressure_high: usize,
    vt_budget: Option<Ns>,
    vt_exceeded: bool,
    /// Scheduled hard failures not yet fired, ascending by (vt, cpu).
    /// Fired between grants when the minimum runnable clock crosses the
    /// failure's virtual time — the same deterministic trigger as the
    /// daemon tick, so recovery is identical at any `--jobs`.
    pending_hard: Vec<HardFault>,
    /// The instant each thread idles until, while its wait outlasts
    /// its grants (indexed by tid).
    idle_until: Vec<Option<Ns>>,
    /// Longest single idle step (see [`idle_steps`]).
    compute_chunk: Ns,
    stats: EngineStats,
}

impl Sched {
    fn new(cfg: &SimConfig, kernel: &Kernel, next_cpu: usize, stats: EngineStats) -> Sched {
        // Hard failures come from the machine's fault schedule. Sorted
        // ascending so they fire in virtual-time order; already-fired
        // ones (repeated `run()` calls) no-op at the kernel layer.
        let mut pending_hard = kernel.machine.fault.config().hard_faults.clone();
        pending_hard.sort_by_key(|hf| (hf.vt().0, hf.target_index()));
        Sched {
            scheduler: cfg.scheduler,
            quantum: cfg.quantum,
            lookahead: cfg.lookahead,
            cpus: (0..cfg.machine.n_cpus())
                .map(|_| CpuSlot { runq: VecDeque::new(), current: None, quantum_end: Ns::ZERO })
                .collect(),
            global_q: VecDeque::new(),
            home_cpu: Vec::new(),
            alive: 0,
            next_cpu,
            daemon_interval: cfg.daemon_interval,
            next_daemon_tick: cfg.daemon_interval,
            pressure_low: cfg.pressure_low,
            pressure_high: cfg.pressure_high,
            vt_budget: cfg.vt_budget,
            vt_exceeded: false,
            pending_hard,
            idle_until: Vec::new(),
            compute_chunk: cfg.compute_chunk,
            stats,
        }
    }

    /// Registers the next thread (tids ascend from 0): binds it to a
    /// processor and queues it.
    fn add_thread(&mut self, k: &Kernel) {
        let cpu = self.assign_cpu(k);
        self.home_cpu.push(cpu);
        self.idle_until.push(None);
        self.enqueue(self.home_cpu.len() - 1);
        self.alive += 1;
    }

    /// Fires one scheduled hard failure. Runs between grants, so no
    /// thread is mid-access when the machine changes under it.
    fn fire_hard_fault(&mut self, k: &mut Kernel, hf: HardFault) {
        match hf {
            HardFault::NodeOffline { node, .. } => {
                // The node's processors keep executing; their local
                // memory is gone. The kernel runs the online recovery
                // protocol.
                k.node_offline(node);
            }
            HardFault::CpuOffline { cpu, .. } => {
                let c = cpu.index();
                if k.dead_cpus[c] {
                    return;
                }
                // Drain the dead processor's runnable threads (its
                // parked current thread plus its affinity queue) to
                // survivors, round-robin in drain order — a
                // deterministic re-home. Memory stays online: pages the
                // processor owned migrate away on their next access.
                let mut drained: Vec<usize> = Vec::new();
                if let Some(tid) = self.cpus[c].current.take() {
                    drained.push(tid);
                }
                drained.extend(self.cpus[c].runq.drain(..));
                k.dead_cpus[c] = true;
                let survivors: Vec<usize> =
                    (0..self.cpus.len()).filter(|&i| !k.dead_cpus[i]).collect();
                assert!(
                    !survivors.is_empty(),
                    "a CpuOffline schedule may not kill every processor"
                );
                let Kernel { machine, pmap, .. } = k;
                pmap.note_cpu_offline(machine, cpu, drained.len() as u32);
                for (i, tid) in drained.into_iter().enumerate() {
                    self.home_cpu[tid] = survivors[i % survivors.len()];
                    self.enqueue(tid);
                }
            }
        }
    }

    /// Sequential processor assignment for new threads (the paper's
    /// affinity scheduler assigns "sequentially by processor number"),
    /// skipping processors stopped by hard failures.
    fn assign_cpu(&mut self, k: &Kernel) -> usize {
        for _ in 0..self.cpus.len() {
            let c = self.next_cpu % self.cpus.len();
            self.next_cpu += 1;
            if !k.dead_cpus[c] {
                return c;
            }
        }
        panic!("no live processor left to assign threads to");
    }

    /// Adds a parked thread to the appropriate queue.
    fn enqueue(&mut self, tid: usize) {
        match self.scheduler {
            // The thread keeps the cpu it was assigned at creation.
            SchedulerKind::Affinity => self.cpus[self.home_cpu[tid]].runq.push_back(tid),
            SchedulerKind::GlobalQueue => self.global_q.push_back(tid),
        }
    }

    /// Installs queued threads on idle processors (dead ones excluded —
    /// granting a stopped processor would stall virtual time forever).
    fn fill_cpus(&mut self, k: &Kernel) {
        for c in 0..self.cpus.len() {
            if k.dead_cpus[c] || self.cpus[c].current.is_some() {
                continue;
            }
            let tid = match self.scheduler {
                SchedulerKind::Affinity => self.cpus[c].runq.pop_front(),
                SchedulerKind::GlobalQueue => self.global_q.pop_front(),
            };
            if let Some(tid) = tid {
                self.cpus[c].current = Some(tid);
                self.cpus[c].quantum_end = k.clock_of(CpuId::from(c)) + self.quantum;
            }
        }
    }

    /// Accounts for thread `tid` giving up processor `cpu` for `reason`.
    fn retire(&mut self, k: &Kernel, tid: usize, cpu: usize, reason: YieldReason) {
        match reason {
            YieldReason::Budget | YieldReason::Idle(_) => {
                if let YieldReason::Idle(until) = reason {
                    self.idle_until[tid] = Some(until);
                }
                let now = k.clock_of(CpuId::from(cpu));
                if now >= self.cpus[cpu].quantum_end && self.has_waiters(cpu) {
                    // Quantum expired with competition: rotate.
                    self.cpus[cpu].current = None;
                    self.enqueue(tid);
                } else if now >= self.cpus[cpu].quantum_end {
                    // No competition: just extend the quantum.
                    self.cpus[cpu].quantum_end = now + self.quantum;
                }
            }
            YieldReason::Done => {
                self.cpus[cpu].current = None;
                self.alive -= 1;
            }
        }
    }

    /// The heart of the engine: picks the lowest-clock processor's
    /// thread and its budget, firing any hard failure or daemon tick
    /// due first. `yielder` is the thread making the decision (`None`
    /// for a run's first grant); it only classifies the grant in the
    /// engine counters.
    ///
    /// A picked thread that is idling serves its grant here: the
    /// scheduler charges its idle steps as the thread would have, and
    /// only when the wait ends inside the grant is the grant posted.
    /// Otherwise the thread retires as from a spent budget, still idle,
    /// and the decision goes on.
    fn decide(&mut self, k: &mut Kernel, yielder: Option<usize>) -> Next {
        loop {
            if self.alive == 0 {
                return Next::Over;
            }
            self.fill_cpus(k);
            // Pick the runnable processor with the lowest clock.
            let mut best: Option<(Ns, usize, usize)> = None;
            for (c, slot) in self.cpus.iter().enumerate() {
                if let Some(tid) = slot.current {
                    let t = k.clock_of(CpuId::from(c));
                    if best.is_none_or(|(bt, bc, _)| (t, c) < (bt, bc)) {
                        best = Some((t, c, tid));
                    }
                }
            }
            // Alive threads but nothing runnable cannot happen: every
            // alive thread is current on or queued for a live processor,
            // which fill_cpus would have installed.
            let Some((t, cpu, tid)) = best else {
                panic!("engine: {} live threads but no processor has work", self.alive);
            };
            // Scheduled hard failures fire when the minimum runnable
            // clock crosses the failure's virtual time, between grants.
            // A CpuOffline may drain the picked processor, so re-run
            // selection.
            if self.pending_hard.first().is_some_and(|hf| t >= hf.vt()) {
                while self.pending_hard.first().is_some_and(|hf| t >= hf.vt()) {
                    let hf = self.pending_hard.remove(0);
                    self.fire_hard_fault(k, hf);
                }
                continue;
            }
            // Fire the periodic kernel daemon when virtual time crosses
            // its next deadline (measured on the minimum clock, so the
            // tick happens "before" any thread passes it).
            if t >= self.next_daemon_tick {
                let Kernel { machine, pmap, .. } = &mut *k;
                pmap.timer_tick(machine);
                // Pressure scan rides the same tick: flush cold
                // replicas on processors below their low watermark.
                // Above the watermarks this reads one free count per
                // cpu and does nothing.
                if self.pressure_low > 0 {
                    pmap.pressure_tick(machine, self.pressure_low, self.pressure_high);
                }
                self.next_daemon_tick = Ns(t.0 + self.daemon_interval.0);
            }
            // A wedged application (spin-wait that can never be
            // released, runaway loop) advances virtual time forever;
            // the budget turns that into a truncated run the caller
            // can type as an error instead of a hang.
            if self.vt_budget.is_some_and(|budget| t > budget) {
                self.vt_exceeded = true;
                return Next::Over;
            }
            // Budget: up to the next other processor's clock plus the
            // lookahead window, but never past the quantum.
            let others_min = (0..self.cpus.len())
                .filter(|&c| c != cpu && self.cpus[c].current.is_some())
                .map(|c| k.clock_of(CpuId::from(c)))
                .min();
            let mut budget_end = match others_min {
                Some(om) => Ns(om.0.saturating_add(self.lookahead.0))
                    .min(self.cpus[cpu].quantum_end),
                None if self.has_waiters(cpu) => self.cpus[cpu].quantum_end,
                None => Ns(u64::MAX),
            };
            // Never grant past the virtual-time budget: a lone runaway
            // thread would otherwise receive an unbounded budget and
            // never yield back for the abort check above.
            if let Some(b) = self.vt_budget {
                budget_end = budget_end.min(Ns(b.0.saturating_add(1)));
            }
            self.stats.grants += 1;
            if let Some(until) = self.idle_until[tid] {
                let c = CpuId::from(cpu);
                if k.clock_of(c) < until
                    && idle_steps(k, c, until, budget_end, self.compute_chunk) >= budget_end
                {
                    self.stats.idle_grants += 1;
                    self.retire(k, tid, cpu, YieldReason::Budget);
                    continue;
                }
                self.idle_until[tid] = None;
            }
            if yielder == Some(tid) {
                self.stats.self_grants += 1;
            } else {
                self.stats.handoffs += 1;
            }
            return Next::Run(tid, Grant::Run { cpu: CpuId::from(cpu), budget_end });
        }
    }

    /// True if any other thread is waiting to run (on `cpu`'s queue or
    /// the global queue, by scheduler kind).
    fn has_waiters(&self, cpu: usize) -> bool {
        match self.scheduler {
            SchedulerKind::Affinity => !self.cpus[cpu].runq.is_empty(),
            SchedulerKind::GlobalQueue => !self.global_q.is_empty(),
        }
    }
}

/// Idles `cpu` toward `until` under a grant that ends at `budget_end`,
/// and returns the clock. Charges pure compute in steps of
/// `min(until - clock, chunk)`, as [`ThreadCtx::compute`] would charge
/// a chunk, stopping at the first step that reaches `budget_end` or
/// `until`; at least one step is charged, so the clock must start
/// below `until`. The only implementation of idle waiting: the waiting
/// thread runs it under its own grant, the scheduler under each grant
/// it serves while the thread sleeps.
pub(crate) fn idle_steps(
    k: &mut Kernel,
    cpu: CpuId,
    until: Ns,
    budget_end: Ns,
    chunk: Ns,
) -> Ns {
    loop {
        let clock = k.clock_of(cpu);
        k.compute(cpu, Ns((until.0 - clock.0).min(chunk.0.max(1))));
        let clock = k.clock_of(cpu);
        if clock >= budget_end || clock >= until {
            return clock;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use numa_core::MoveLimitPolicy;

    fn sim(n_cpus: usize) -> Simulator {
        Simulator::new(SimConfig::small(n_cpus), Box::new(MoveLimitPolicy::default()))
    }

    #[test]
    fn single_thread_runs_to_completion() {
        let mut s = sim(1);
        let a = s.alloc(256, Prot::READ_WRITE);
        s.spawn("writer", move |ctx| {
            for i in 0..10u32 {
                ctx.write_u32(a + (i as u64) * 4, i * i);
            }
        });
        let r = s.run();
        assert!(r.total_user() > Ns::ZERO);
        for i in 0..10u32 {
            assert_eq!(s.with_kernel(|k| k.peek_u32(a + (i as u64) * 4)), i * i);
        }
    }

    #[test]
    fn threads_interleave_in_virtual_time() {
        // Two threads on two cpus append their tid to a log guarded only
        // by virtual-time ordering (distinct slots). Both make the same
        // number of references, so their clocks stay within one op of
        // each other and neither can run far ahead.
        let mut s = sim(2);
        let a = s.alloc(4096, Prot::READ_WRITE);
        for t in 0..2u32 {
            let base = a + (t as u64) * 1024;
            s.spawn(format!("t{t}"), move |ctx| {
                for i in 0..50u32 {
                    ctx.write_u32(base + (i as u64) * 4, i + t * 1000);
                }
            });
        }
        let r = s.run();
        // Both cpus actually did work.
        assert!(r.cpu_times[0].user > Ns::ZERO);
        assert!(r.cpu_times[1].user > Ns::ZERO);
        assert_eq!(s.with_kernel(|k| k.peek_u32(a + 1024 + 4)), 1001);
    }

    #[test]
    fn deterministic_across_runs() {
        let total = |_: ()| {
            let mut s = sim(3);
            let a = s.alloc(8192, Prot::READ_WRITE);
            for t in 0..3u64 {
                s.spawn(format!("t{t}"), move |ctx| {
                    for i in 0..40u64 {
                        let slot = a + ((t * 40 + i) % 128) * 4;
                        let v = ctx.read_u32(slot);
                        ctx.write_u32(slot, v + 1);
                    }
                });
            }
            let r = s.run();
            (r.total_user(), r.total_system(), r.numa.requests, r.refs)
        };
        assert_eq!(total(()), total(()));
    }

    #[test]
    fn more_threads_than_cpus_time_slice() {
        let mut s = sim(1);
        let a = s.alloc(1024, Prot::READ_WRITE);
        for t in 0..3u32 {
            let slot = a + (t as u64) * 256;
            s.spawn(format!("t{t}"), move |ctx| {
                ctx.compute(Ns::from_ms(5));
                ctx.write_u32(slot, t + 1);
            });
        }
        let r = s.run();
        for t in 0..3u64 {
            assert_eq!(s.with_kernel(|k| k.peek_u32(a + t * 256)), t as u32 + 1);
        }
        // All on one cpu.
        assert!(r.cpu_times[0].user >= Ns::from_ms(15));
    }

    #[test]
    #[should_panic(expected = "simulated thread panicked")]
    fn app_panic_propagates() {
        let mut s = sim(2);
        s.spawn("bad", |_ctx| panic!("boom"));
        s.spawn("good", |ctx| ctx.compute(Ns::from_us(1)));
        let _ = s.run();
    }

    #[test]
    fn global_queue_scheduler_migrates_threads() {
        let mut cfg = SimConfig::small(2);
        cfg.scheduler = SchedulerKind::GlobalQueue;
        cfg.quantum = Ns::from_us(200);
        let mut s = Simulator::new(cfg, Box::new(MoveLimitPolicy::default()));
        let a = s.alloc(4096, Prot::READ_WRITE);
        // Three compute-heavy threads on two cpus with a tiny quantum
        // must migrate; each records the set of cpus it ran on.
        use std::sync::{Arc as SArc, Mutex as SMutex};
        let seen = SArc::new(SMutex::new(vec![Vec::new(), Vec::new(), Vec::new()]));
        for t in 0..3usize {
            let seen = SArc::clone(&seen);
            let slot = a + (t as u64) * 1024;
            s.spawn(format!("t{t}"), move |ctx| {
                for i in 0..40u32 {
                    ctx.compute(Ns::from_us(100));
                    ctx.write_u32(slot, i);
                    seen.lock().unwrap()[t].push(ctx.cpu().index());
                }
            });
        }
        let _ = s.run();
        let seen = seen.lock().unwrap();
        let migrated = seen.iter().any(|v| {
            let mut s = v.clone();
            s.dedup();
            s.len() > 1
        });
        assert!(migrated, "expected at least one thread to change cpus: {seen:?}");
    }

    #[test]
    fn run_helpers_round_trip_values() {
        let mut s = sim(1);
        let a = s.alloc(4096, Prot::READ_WRITE);
        s.spawn("runner", move |ctx| {
            let vals: Vec<u32> = (0..256u32).map(|i| i * 3 + 1).collect();
            ctx.write_run(a, 4, &vals);
            assert_eq!(ctx.read_run(a, 4, 256), vals);
            // Strided f64 runs (one element per 16 bytes).
            let fv: Vec<f64> = (0..32).map(|i| i as f64 * 0.5 - 3.0).collect();
            ctx.write_run_f64(a + 2048, 16, &fv);
            assert_eq!(ctx.read_run_f64(a + 2048, 16, 32), fv);
            // Stride zero: repeated references to one address.
            assert_eq!(ctx.read_run(a, 0, 5), vec![vals[0]; 5]);
        });
        let r = s.run();
        assert!(r.total_user() > Ns::ZERO);
    }

    #[test]
    fn fast_and_slow_paths_measure_identically() {
        // Two threads doing batched runs over shared and private pages,
        // under tight budgets (small preset: zero lookahead), must
        // produce identical clocks and reference counters on both paths.
        let run = |fast: bool| {
            let cfg = SimConfig::small(2).fastpath(fast);
            let mut s = Simulator::new(cfg, Box::new(MoveLimitPolicy::default()));
            let a = s.alloc(8192, Prot::READ_WRITE);
            for t in 0..2u64 {
                let base = a + t * 4096;
                s.spawn(format!("t{t}"), move |ctx| {
                    let vals: Vec<u32> = (0..512u32).map(|i| i ^ (t as u32)).collect();
                    ctx.write_run(base, 4, &vals);
                    for _ in 0..3 {
                        assert_eq!(ctx.read_run(base, 4, 512), vals);
                    }
                    // A shared word both threads re-read.
                    let _ = ctx.read_run(a, 0, 16);
                });
            }
            let r = s.run();
            (r.cpu_times.clone(), r.refs, r.numa.requests, r.bus)
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn vt_budget_turns_runaway_threads_into_typed_errors() {
        // A thread that computes forever can never finish; without the
        // budget this would schedule endlessly. With it, run_one returns
        // a typed error naming the budget instead of hanging.
        let cfg = SimConfig::small(1).vt_budget(Some(Ns::from_ms(2)));
        let res = run_one(cfg, Box::new(MoveLimitPolicy::default()), |sim| {
            sim.spawn("spinner", |ctx| loop {
                ctx.compute(Ns::from_us(50));
            });
            sim.run();
            Ok(())
        });
        let err = res.expect_err("runaway thread must exceed the budget");
        assert!(err.contains("virtual-time budget"), "got: {err}");
    }

    #[test]
    fn vt_budget_does_not_disturb_completing_runs() {
        let run = |budget: Option<Ns>| {
            let cfg = SimConfig::small(2).vt_budget(budget);
            let mut s = Simulator::new(cfg, Box::new(MoveLimitPolicy::default()));
            let a = s.alloc(4096, Prot::READ_WRITE);
            for t in 0..2u64 {
                let base = a + t * 2048;
                s.spawn(format!("t{t}"), move |ctx| {
                    for i in 0..64u64 {
                        ctx.write_u32(base + i * 4, i as u32);
                    }
                });
            }
            let r = s.run();
            assert!(!s.vt_exceeded());
            (r.cpu_times, r.refs, r.numa)
        };
        assert_eq!(run(None), run(Some(Ns::from_ms(500))));
    }

    #[test]
    fn pressure_daemon_is_invisible_with_ample_frames() {
        let run = |low: usize, high: usize| {
            let mut cfg = SimConfig::small(2);
            cfg.pressure_low = low;
            cfg.pressure_high = high;
            let mut s = Simulator::new(cfg, Box::new(MoveLimitPolicy::default()));
            let a = s.alloc(8192, Prot::READ_WRITE);
            for t in 0..2u64 {
                let base = a + t * 4096;
                s.spawn(format!("t{t}"), move |ctx| {
                    for i in 0..256u64 {
                        ctx.write_u32(base + i * 16, (i + t) as u32);
                    }
                    ctx.compute(Ns::from_ms(3)); // cross a daemon tick
                });
            }
            let r = s.run();
            (r.cpu_times, r.refs, r.numa, r.bus)
        };
        let with_daemon = run(2, 4);
        let without_daemon = run(0, 0);
        assert_eq!(with_daemon.2.pressure_ticks, 0, "no pressure on a roomy machine");
        assert_eq!(with_daemon, without_daemon, "daemon must be free when idle");
    }

    /// A schedule with one `NodeOffline` against a machine where two
    /// threads share pages across the dead node's boundary.
    fn chaos_sim(hard: Vec<ace_machine::HardFault>) -> Simulator {
        use ace_machine::FaultConfig;
        let cfg = SimConfig::small(3)
            .faults(FaultConfig { hard_faults: hard, ..FaultConfig::default() });
        Simulator::new(cfg, Box::new(MoveLimitPolicy::default()))
    }

    fn chaos_workload(s: &mut Simulator) -> VAddr {
        let a = s.alloc(8192, Prot::READ_WRITE);
        for t in 0..3u64 {
            let base = a + t * 2048;
            s.spawn(format!("t{t}"), move |ctx| {
                for i in 0..64u64 {
                    ctx.write_u32(base + i * 4, (t * 1000 + i) as u32);
                    // Everybody also re-reads a shared word so replicas
                    // exist on the node that will die.
                    let _ = ctx.read_u32(a);
                    ctx.compute(Ns::from_us(40));
                }
            });
        }
        a
    }

    #[test]
    fn node_offline_mid_run_completes_with_typed_degradation() {
        let mut s = chaos_sim(vec![ace_machine::HardFault::NodeOffline {
            node: ace_machine::NodeId(1),
            vt: Ns::from_us(800),
        }]);
        let a = chaos_workload(&mut s);
        let r = s.run();
        assert_eq!(r.numa.nodes_offlined, 1);
        assert!(
            r.numa.pages_rehomed + r.numa.pages_lost > 0,
            "the dead node held replicas that must be recovered"
        );
        assert!(r.numa.hard_failure_actions() > 0);
        // Survivors' private pages are intact; the directory is legal.
        for t in [0u64, 2] {
            assert_eq!(
                s.with_kernel(|k| k.peek_u32(a + t * 2048 + 63 * 4)),
                (t * 1000 + 63) as u32
            );
        }
        s.with_kernel(|k| k.check_consistency()).expect("directory legal after recovery");
    }

    #[test]
    fn cpu_offline_drains_threads_to_survivors() {
        let mut s = chaos_sim(vec![ace_machine::HardFault::CpuOffline {
            cpu: CpuId(2),
            vt: Ns::from_us(500),
        }]);
        let a = chaos_workload(&mut s);
        let r = s.run();
        assert_eq!(r.numa.threads_drained, 1, "t2 was running on the dead cpu");
        // The drained thread still finished its writes on a survivor.
        assert_eq!(s.with_kernel(|k| k.peek_u32(a + 2 * 2048 + 63 * 4)), 2063);
        assert!(r.cpu_times[2].user < r.cpu_times[0].user);
        s.with_kernel(|k| k.check_consistency()).expect("directory legal after drain");
    }

    #[test]
    fn hard_failure_recovery_is_deterministic() {
        let run = |_: ()| {
            let mut s = chaos_sim(vec![
                ace_machine::HardFault::NodeOffline { node: ace_machine::NodeId(1), vt: Ns::from_us(600) },
                ace_machine::HardFault::CpuOffline { cpu: CpuId(2), vt: Ns::from_us(900) },
            ]);
            chaos_workload(&mut s);
            let r = s.run();
            (r.cpu_times.clone(), r.refs, r.numa, r.bus)
        };
        assert_eq!(run(()), run(()));
    }

    #[test]
    fn dead_cpu_stays_dead_across_runs() {
        let mut s = chaos_sim(vec![ace_machine::HardFault::CpuOffline {
            cpu: CpuId(0),
            vt: Ns(0),
        }]);
        let a = s.alloc(256, Prot::READ_WRITE);
        s.spawn("one", move |ctx| ctx.write_u32(a, 1));
        let r1 = s.run();
        assert_eq!(r1.cpu_times[0].user, Ns::ZERO, "cpu 0 died before running");
        // A second run re-arms the schedule; the offline is idempotent
        // and new threads still avoid the dead processor.
        s.spawn("two", move |ctx| ctx.write_u32(a + 4, 2));
        let r2 = s.run();
        assert_eq!(r2.cpu_times[0].user, Ns::ZERO);
        assert_eq!(s.with_kernel(|k| k.peek_u32(a + 4)), 2);
    }

    #[test]
    fn empty_hard_schedule_is_byte_invisible() {
        let run = |hard: Vec<ace_machine::HardFault>| {
            let mut s = chaos_sim(hard);
            chaos_workload(&mut s);
            let r = s.run();
            (r.cpu_times.clone(), r.refs, r.numa, r.bus)
        };
        assert_eq!(run(Vec::new()), run(Vec::new()));
        assert_eq!(run(Vec::new()).2.hard_failure_actions(), 0);
    }

    #[test]
    fn run_twice_accumulates() {
        let mut s = sim(1);
        let a = s.alloc(64, Prot::READ_WRITE);
        s.spawn("one", move |ctx| ctx.write_u32(a, 1));
        let r1 = s.run();
        s.spawn("two", move |ctx| ctx.write_u32(a + 4, 2));
        let r2 = s.run();
        assert!(r2.total_user() > r1.total_user());
        assert_eq!(s.with_kernel(|k| k.peek_u32(a + 4)), 2);
    }
}
