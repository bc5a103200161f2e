//! The worker farm: N OS threads draining one job queue.
//!
//! Jobs are fully independent deterministic simulations, so the farm's
//! only correctness obligations are (1) merge results back into **grid
//! order**, so output is byte-identical whatever the completion order
//! or worker count, and (2) turn every possible worker misbehaviour —
//! a failed verification, a panic inside a job, a worker that dies
//! without reporting, a job that wedges — into a typed [`LabError`]
//! instead of a hang or a poisoned lock.
//!
//! Plumbing is `std` only: an `mpsc` channel (behind a mutex) hands
//! out job indices, a second channel carries `Started`/`Finished`
//! messages home, and the collector (the calling thread) enforces the
//! wall-clock watchdog from the `Started` timestamps. Workers are
//! **detached** threads over `Arc`-shared state rather than scoped
//! ones: a scope must join every worker before returning, so a single
//! wedged job would turn the watchdog's typed error back into a hang.
//! On timeout the farm abandons the stuck worker (it holds only
//! `Arc` clones, so nothing dangles) and returns
//! [`LabError::JobTimedOut`] at once.
//!
//! Progress is reported through the structured event sink of the
//! observability pipeline: one [`EventKind::JobCompleted`] per
//! finished job, stamped with the worker slot and the job's virtual
//! makespan.

use crate::grid::JobSpec;
use ace_machine::{CpuId, Ns};
use ace_sim::RunReport;
use numa_metrics::{Event, EventKind, SharedSink};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// How often the collector wakes to check the watchdog when no results
/// are arriving.
const WATCHDOG_TICK: Duration = Duration::from_millis(50);

/// One finished sweep cell.
#[derive(Clone, Debug)]
pub struct JobResult {
    /// The cell that ran.
    pub spec: JobSpec,
    /// Its measurements.
    pub report: RunReport,
}

/// Knobs of one farm invocation (everything defaults to off).
#[derive(Clone, Copy, Debug, Default)]
pub struct FarmOptions {
    /// Wall-clock watchdog: a job still running this long after it
    /// started fails the sweep with [`LabError::JobTimedOut`] instead
    /// of hanging it. `None` disables the watchdog.
    pub timeout: Option<Duration>,
    /// Give a failing job one second attempt when its spec injects
    /// hardware faults (`fault_rate > 0`): under injected faults a
    /// verification failure can be the fault schedule's doing rather
    /// than a policy bug, and the retry — same seed, same schedule —
    /// distinguishes "recovered wrong" (fails twice, reported) from a
    /// transient worker-side issue. Fault-free jobs never retry.
    pub retry_faulted: bool,
}

/// Everything that can go wrong running a grid.
#[derive(Clone, Debug, PartialEq)]
pub enum LabError {
    /// A job returned an error (an application failed its own output
    /// verification, or its machine configuration was invalid).
    JobFailed {
        /// Grid-order index of the failing job.
        job: usize,
        /// Human label of the failing job.
        label: String,
        /// What went wrong.
        reason: String,
    },
    /// A job panicked; the farm caught it at the job boundary and the
    /// remaining jobs still ran.
    JobPanicked {
        /// Grid-order index of the panicking job.
        job: usize,
        /// Human label of the panicking job.
        label: String,
        /// The panic payload, when it was a string.
        message: String,
    },
    /// A job blew the wall-clock watchdog. The worker running it is
    /// abandoned (detached, parked on shared `Arc`s), so the sweep
    /// fails typed instead of hanging.
    JobTimedOut {
        /// Grid-order index of the stuck job.
        job: usize,
        /// Human label of the stuck job.
        label: String,
        /// The watchdog bound that was exceeded, in seconds.
        seconds: u64,
    },
    /// One or more workers died without reporting results (a panic
    /// outside the job boundary) — the listed jobs never completed.
    WorkersLost {
        /// Grid-order indices of the jobs with no result.
        jobs: Vec<usize>,
    },
}

impl std::fmt::Display for LabError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LabError::JobFailed { job, label, reason } => {
                write!(f, "job #{job} ({label}) failed: {reason}")
            }
            LabError::JobPanicked { job, label, message } => {
                write!(f, "job #{job} ({label}) panicked: {message}")
            }
            LabError::JobTimedOut { job, label, seconds } => {
                write!(f, "job #{job} ({label}) exceeded the {seconds}s wall-clock watchdog")
            }
            LabError::WorkersLost { jobs } => {
                write!(f, "worker(s) died without reporting; jobs {jobs:?} have no result")
            }
        }
    }
}

impl std::error::Error for LabError {}

/// What one worker sends home per job.
enum Outcome {
    Done(Box<RunReport>),
    Failed(String),
    Panicked(String),
}

/// Worker-to-collector messages. `Started` carries no timestamp — the
/// collector stamps arrival, which only widens the watchdog window
/// (never fires it early).
enum Msg {
    Started(usize),
    Finished(usize, usize, Outcome),
}

/// The text of a caught panic.
pub(crate) fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs every job on a farm of `n_workers` OS threads and returns the
/// results **in grid order**. The optional `progress` sink receives one
/// `JobCompleted` event per finished job (in completion order — it is
/// progress reporting, not part of the deterministic output).
pub fn run_jobs(
    jobs: &[JobSpec],
    n_workers: usize,
    progress: Option<&SharedSink>,
) -> Result<Vec<JobResult>, LabError> {
    run_jobs_with(jobs, n_workers, progress, JobSpec::run)
}

/// [`run_jobs`] with an injectable per-job runner, so tests can
/// exercise the farm's failure paths (panicking jobs, failing jobs)
/// without building pathological simulations.
pub fn run_jobs_with<F>(
    jobs: &[JobSpec],
    n_workers: usize,
    progress: Option<&SharedSink>,
    runner: F,
) -> Result<Vec<JobResult>, LabError>
where
    F: Fn(&JobSpec) -> Result<RunReport, String> + Send + Sync + 'static,
{
    run_jobs_opts(jobs, n_workers, progress, FarmOptions::default(), runner, |_, _| {})
}

/// The full-control farm entry point: options (watchdog, fault retry)
/// plus an `on_complete` hook the collector calls — on the calling
/// thread, in completion order — for every successfully finished job.
/// The resume checkpoint hangs off this hook; anything needing
/// deterministic order should use the returned grid-ordered results
/// instead.
pub fn run_jobs_opts<F, C>(
    jobs: &[JobSpec],
    n_workers: usize,
    progress: Option<&SharedSink>,
    opts: FarmOptions,
    runner: F,
    mut on_complete: C,
) -> Result<Vec<JobResult>, LabError>
where
    F: Fn(&JobSpec) -> Result<RunReport, String> + Send + Sync + 'static,
    C: FnMut(&JobSpec, &RunReport),
{
    let n_workers = n_workers.max(1);
    let (job_tx, job_rx) = mpsc::channel::<usize>();
    for i in 0..jobs.len() {
        job_tx.send(i).expect("queue receiver alive");
    }
    drop(job_tx);
    let job_rx = Arc::new(Mutex::new(job_rx));
    let (res_tx, res_rx) = mpsc::channel::<Msg>();
    let shared_jobs: Arc<Vec<JobSpec>> = Arc::new(jobs.to_vec());
    let runner: Arc<F> = Arc::new(runner);

    let mut slots: Vec<Option<Outcome>> = Vec::new();
    slots.resize_with(jobs.len(), || None);

    for w in 0..n_workers.min(jobs.len().max(1)) {
        let job_rx = Arc::clone(&job_rx);
        let res_tx = res_tx.clone();
        let jobs = Arc::clone(&shared_jobs);
        let runner = Arc::clone(&runner);
        thread::spawn(move || loop {
            // A poisoned queue mutex means another worker panicked
            // while holding it; this worker just retires — the
            // collector reports the unfinished jobs.
            let next = match job_rx.lock() {
                Ok(rx) => rx.recv(),
                Err(_) => return,
            };
            let Ok(idx) = next else { return };
            let spec = &jobs[idx];
            let mut attempts = if opts.retry_faulted && spec.fault_rate > 0.0 { 2 } else { 1 };
            let outcome = loop {
                // Each attempt re-arms the watchdog: a retry gets the
                // full window again.
                if res_tx.send(Msg::Started(idx)).is_err() {
                    return;
                }
                let outcome = match catch_unwind(AssertUnwindSafe(|| runner(spec))) {
                    Ok(Ok(report)) => Outcome::Done(Box::new(report)),
                    Ok(Err(reason)) => Outcome::Failed(reason),
                    Err(payload) => Outcome::Panicked(panic_message(payload)),
                };
                attempts -= 1;
                match outcome {
                    Outcome::Failed(_) if attempts > 0 => continue,
                    outcome => break outcome,
                }
            };
            if res_tx.send(Msg::Finished(w, idx, outcome)).is_err() {
                return;
            }
        });
    }
    drop(res_tx);

    // Collect until every job reported (or the channel closed because
    // workers died). `recv_timeout` keeps the watchdog live even when
    // nothing is finishing; expiry is also checked on every message so
    // a busy channel cannot starve it.
    let mut pending = jobs.len();
    let mut started: HashMap<usize, Instant> = HashMap::new();
    while pending > 0 {
        if let Some(bound) = opts.timeout {
            // Deterministic victim choice: the lowest-indexed job over
            // the bound, not HashMap iteration order.
            let expired = started
                .iter()
                .filter(|(_, since)| since.elapsed() >= bound)
                .map(|(&idx, _)| idx)
                .min();
            if let Some(idx) = expired {
                return Err(LabError::JobTimedOut {
                    job: jobs[idx].id,
                    label: jobs[idx].label(),
                    seconds: bound.as_secs(),
                });
            }
        }
        let msg = if opts.timeout.is_some() {
            match res_rx.recv_timeout(WATCHDOG_TICK) {
                Ok(msg) => msg,
                Err(mpsc::RecvTimeoutError::Timeout) => continue,
                Err(mpsc::RecvTimeoutError::Disconnected) => break,
            }
        } else {
            match res_rx.recv() {
                Ok(msg) => msg,
                Err(_) => break,
            }
        };
        match msg {
            Msg::Started(idx) => {
                started.insert(idx, Instant::now());
            }
            Msg::Finished(worker, idx, outcome) => {
                started.remove(&idx);
                pending -= 1;
                if let Some(sink) = progress {
                    let makespan = match &outcome {
                        Outcome::Done(r) => r.makespan(),
                        _ => Ns::ZERO,
                    };
                    if let Ok(mut sink) = sink.lock() {
                        sink.record(&Event {
                            t: makespan,
                            cpu: CpuId((worker % CpuId::MAX_CPUS) as u16),
                            kind: EventKind::JobCompleted {
                                job: jobs[idx].id as u32,
                                of: jobs.len() as u32,
                            },
                        });
                    }
                }
                if let Outcome::Done(report) = &outcome {
                    on_complete(&jobs[idx], report);
                }
                slots[idx] = Some(outcome);
            }
        }
    }

    // Errors surface in grid order, so which failure is reported does
    // not depend on scheduling.
    let mut results = Vec::with_capacity(jobs.len());
    let mut lost = Vec::new();
    for (idx, slot) in slots.into_iter().enumerate() {
        match slot {
            Some(Outcome::Done(report)) => {
                results.push(JobResult { spec: jobs[idx].clone(), report: *report })
            }
            Some(Outcome::Failed(reason)) => {
                return Err(LabError::JobFailed {
                    job: jobs[idx].id,
                    label: jobs[idx].label(),
                    reason,
                })
            }
            Some(Outcome::Panicked(message)) => {
                return Err(LabError::JobPanicked {
                    job: jobs[idx].id,
                    label: jobs[idx].label(),
                    message,
                })
            }
            None => lost.push(jobs[idx].id),
        }
    }
    if !lost.is_empty() {
        return Err(LabError::WorkersLost { jobs: lost });
    }
    Ok(results)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::Grid;
    use numa_metrics::{shared, VecSink};
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn tiny_jobs(n: usize) -> Vec<JobSpec> {
        let mut jobs = Grid::smoke().jobs();
        while jobs.len() < n {
            let mut j = jobs[jobs.len() % 6].clone();
            j.id = jobs.len();
            jobs.push(j);
        }
        jobs.truncate(n);
        jobs
    }

    #[test]
    fn results_come_back_in_grid_order() {
        let jobs = tiny_jobs(6);
        let results = run_jobs_with(&jobs, 4, None, |spec| {
            // Make early jobs slow so completion order inverts.
            std::thread::sleep(std::time::Duration::from_millis(
                (6 - spec.id as u64) * 3,
            ));
            spec.run()
        })
        .unwrap();
        let ids: Vec<usize> = results.iter().map(|r| r.spec.id).collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn a_panicking_job_is_a_typed_error_not_a_hang() {
        let jobs = tiny_jobs(6);
        let err = run_jobs_with(&jobs, 3, None, |spec| {
            if spec.id == 2 {
                panic!("worker poisoned on purpose");
            }
            spec.run()
        })
        .unwrap_err();
        match err {
            LabError::JobPanicked { job, message, .. } => {
                assert_eq!(job, 2);
                assert!(message.contains("poisoned on purpose"));
            }
            other => panic!("expected JobPanicked, got {other:?}"),
        }
    }

    #[test]
    fn a_failing_job_reports_its_label_and_reason() {
        let jobs = tiny_jobs(3);
        let err = run_jobs_with(&jobs, 2, None, |spec| {
            if spec.id == 1 {
                Err("verification failed".to_string())
            } else {
                spec.run()
            }
        })
        .unwrap_err();
        match err {
            LabError::JobFailed { job, reason, label } => {
                assert_eq!(job, 1);
                assert_eq!(reason, "verification failed");
                assert!(!label.is_empty());
            }
            other => panic!("expected JobFailed, got {other:?}"),
        }
    }

    #[test]
    fn the_first_error_in_grid_order_wins() {
        let jobs = tiny_jobs(6);
        let err = run_jobs_with(&jobs, 6, None, |spec| {
            if spec.id >= 2 {
                Err(format!("boom {}", spec.id))
            } else {
                spec.run()
            }
        })
        .unwrap_err();
        assert!(matches!(err, LabError::JobFailed { job: 2, .. }), "got {err:?}");
    }

    #[test]
    fn progress_events_flow_through_the_event_sink() {
        struct Counting(Arc<Mutex<Vec<u32>>>);
        impl numa_metrics::EventSink for Counting {
            fn record(&mut self, event: &Event) {
                if let EventKind::JobCompleted { job, of } = event.kind {
                    assert_eq!(of, 4);
                    self.0.lock().unwrap().push(job);
                }
            }
        }
        let jobs = tiny_jobs(4);
        let seen = Arc::new(Mutex::new(Vec::new()));
        let sink: SharedSink = shared(Counting(Arc::clone(&seen)));
        run_jobs_with(&jobs, 2, Some(&sink), |spec| spec.run()).unwrap();
        let mut seen = seen.lock().unwrap().clone();
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 2, 3]);
    }

    #[test]
    fn the_vec_sink_also_works_as_a_progress_sink() {
        let jobs = tiny_jobs(2);
        let sink = shared(VecSink::new());
        run_jobs(&jobs, 2, Some(&sink)).unwrap();
    }

    #[test]
    fn a_wedged_job_times_out_typed_instead_of_hanging() {
        let jobs = tiny_jobs(4);
        let opts =
            FarmOptions { timeout: Some(Duration::from_millis(200)), ..FarmOptions::default() };
        let before = Instant::now();
        let err = run_jobs_opts(
            &jobs,
            2,
            None,
            opts,
            |spec| {
                if spec.id == 1 {
                    // Wedge well past the watchdog; the thread is
                    // abandoned and exits on its own later.
                    std::thread::sleep(Duration::from_secs(5));
                }
                spec.run()
            },
            |_, _| {},
        )
        .unwrap_err();
        assert!(
            before.elapsed() < Duration::from_secs(4),
            "watchdog must fire without joining the stuck worker"
        );
        match err {
            LabError::JobTimedOut { job, label, seconds } => {
                assert_eq!(job, 1);
                assert!(!label.is_empty());
                assert_eq!(seconds, 0, "sub-second bound truncates to 0s in the message");
            }
            other => panic!("expected JobTimedOut, got {other:?}"),
        }
    }

    #[test]
    fn fault_injected_jobs_get_one_retry() {
        let mut jobs = tiny_jobs(2);
        jobs[0].fault_rate = 0.01;
        let calls = Arc::new(AtomicUsize::new(0));
        let seen = Arc::clone(&calls);
        let opts = FarmOptions { retry_faulted: true, ..FarmOptions::default() };
        let results = run_jobs_opts(
            &jobs,
            1,
            None,
            opts,
            move |spec| {
                if spec.id == 0 && seen.fetch_add(1, Ordering::SeqCst) == 0 {
                    Err("transient fault-schedule casualty".to_string())
                } else {
                    spec.run()
                }
            },
            |_, _| {},
        )
        .unwrap();
        assert_eq!(results.len(), 2);
        assert_eq!(calls.load(Ordering::SeqCst), 2, "first attempt failed, retry ran");
    }

    #[test]
    fn retries_are_bounded_and_fault_free_jobs_never_retry() {
        let mut jobs = tiny_jobs(2);
        jobs[0].fault_rate = 0.01;
        let calls = Arc::new(AtomicUsize::new(0));
        let seen = Arc::clone(&calls);
        let opts = FarmOptions { retry_faulted: true, ..FarmOptions::default() };
        let err = run_jobs_opts(
            &jobs,
            1,
            None,
            opts,
            move |spec| {
                if spec.id == 0 {
                    seen.fetch_add(1, Ordering::SeqCst);
                    Err("fails every time".to_string())
                } else {
                    spec.run()
                }
            },
            |_, _| {},
        )
        .unwrap_err();
        assert!(matches!(err, LabError::JobFailed { job: 0, .. }), "got {err:?}");
        assert_eq!(calls.load(Ordering::SeqCst), 2, "exactly one retry, then typed failure");

        // A fault-free job gets no second chance even with the knob on.
        let calls = Arc::new(AtomicUsize::new(0));
        let seen = Arc::clone(&calls);
        let err = run_jobs_opts(
            &tiny_jobs(1),
            1,
            None,
            opts,
            move |_| {
                seen.fetch_add(1, Ordering::SeqCst);
                Err("no faults injected".to_string())
            },
            |_, _| {},
        )
        .unwrap_err();
        assert!(matches!(err, LabError::JobFailed { job: 0, .. }));
        assert_eq!(calls.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn on_complete_sees_every_finished_job() {
        let jobs = tiny_jobs(3);
        let mut seen = Vec::new();
        let results = run_jobs_opts(
            &jobs,
            2,
            None,
            FarmOptions::default(),
            JobSpec::run,
            |spec, report| seen.push((spec.id, report.makespan())),
        )
        .unwrap();
        seen.sort_unstable_by_key(|&(id, _)| id);
        assert_eq!(seen.len(), 3);
        for (i, r) in results.iter().enumerate() {
            assert_eq!(seen[i], (r.spec.id, r.report.makespan()));
        }
    }
}
