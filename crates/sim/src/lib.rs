//! The ACE simulator: a deterministic execution engine tying together
//! the machine model, the Mach-style VM, and the NUMA pmap layer.
//!
//! Application threads are ordinary Rust closures given a [`ThreadCtx`]
//! whose memory operations go through the simulated MMUs: a miss or
//! protection fault enters the kernel fault path (machine-independent VM
//! → NUMA policy → NUMA manager → `pmap_enter`), exactly the chain of
//! the paper. Every operation charges virtual time; Table 3's
//! user-time totals and Table 4's system-time totals fall out of the
//! per-processor clocks.
//!
//! # Determinism
//!
//! Exactly one simulated thread executes at any instant. The engine
//! always grants the runnable processor with the lowest virtual clock a
//! bounded *lookahead budget*; within the budget the thread executes
//! operations inline (cheap), then re-rendezvouses. With a zero
//! lookahead the interleaving is the exact virtual-time order; larger
//! lookaheads trade bounded re-ordering (never observable by the
//! consistency protocol's correctness, only by its timing) for speed.
//! Given deterministic application code, runs are bit-for-bit
//! reproducible.

pub mod config;
pub mod ctx;
pub mod engine;
pub mod kernel;
pub mod metric;
pub mod report;

pub use config::{SchedulerKind, SimConfig};
pub use ctx::ThreadCtx;
pub use engine::{run_one, EngineStats, Simulator};
pub use kernel::{Kernel, RefCounters, RefEvent, RefSink};
pub use metric::{counters, metric, metrics, Class, Get, Metric, Shown, METRICS};
pub use report::RunReport;
