//! The host's speed at thread handoffs, measured between repetitions.
//!
//! Almost all of a workload's host time is OS thread handoffs: the
//! engine hands one run token between simulated threads, about 500k
//! context switches per `batch-paper` repetition. On a shared virtual
//! machine the cost of a handoff drifts by ±25% over tens of seconds
//! with other tenants' load, and every repetition drifts with it. A
//! fixed reference loop that does nothing but hand off between two
//! threads drifts the same way (rep time against the adjacent reference
//! time: correlation 0.79 on `batch-paper`), so dividing by it cancels
//! the host's drift while leaving every change in the program visible.
//! The loop uses only `std`, so no change to the repository's crates
//! can move it.

use std::sync::mpsc::sync_channel;
use std::time::Instant;

/// Round trips per reference measurement: about 0.1 s on a 2-vCPU Xeon
/// VM.
pub const ROUND_TRIPS: u32 = 10_000;

/// Host seconds per round trip of a value between two threads over a
/// rendezvous channel. The benchmark process is pinned to one CPU, and
/// the helper thread inherits that, so each round trip is two wake-ups
/// on the same CPU, as the engine's grants are.
pub fn round_trip_s() -> f64 {
    let (ping_tx, ping_rx) = sync_channel::<u32>(0);
    let (pong_tx, pong_rx) = sync_channel::<u32>(0);
    let echo = std::thread::spawn(move || {
        while let Ok(v) = ping_rx.recv() {
            if pong_tx.send(v).is_err() {
                break;
            }
        }
    });
    let t = Instant::now();
    for i in 0..ROUND_TRIPS {
        ping_tx.send(i).expect("echo thread alive");
        let back = pong_rx.recv().expect("echo thread alive");
        debug_assert_eq!(back, i);
    }
    let secs = t.elapsed().as_secs_f64();
    drop(ping_tx);
    echo.join().expect("echo thread exits cleanly");
    secs / f64::from(ROUND_TRIPS)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_is_positive_and_finite() {
        let s = round_trip_s();
        assert!(s.is_finite() && s > 0.0, "{s}");
    }
}
