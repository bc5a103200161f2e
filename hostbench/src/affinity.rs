//! Pins the benchmark process to one host CPU.
//!
//! The simulator runs every simulated thread on its own OS thread and
//! hands the single run token between them, so each grant is an OS
//! wake-up. Unpinned on a 2-vCPU virtual machine, those wake-ups cross
//! vCPUs and their latency follows the load of other tenants: run
//! medians of `kv-overload` spread 25% (IQR over median, 6 runs), against
//! 10% pinned. Threads inherit the affinity of the thread that creates
//! them, so pinning the main thread before any work pins every engine,
//! farm and simulated thread too.

use std::ffi::c_int;

/// Bytes in glibc's `cpu_set_t` (1024 CPUs).
const CPU_SET_BYTES: usize = 128;

extern "C" {
    fn sched_getaffinity(pid: c_int, cpusetsize: usize, mask: *mut u8) -> c_int;
    fn sched_setaffinity(pid: c_int, cpusetsize: usize, mask: *const u8) -> c_int;
}

/// Restricts the calling thread, and every thread it creates later, to
/// the highest-numbered CPU it may run on now. Returns that CPU.
pub fn pin_to_one_cpu() -> Result<usize, String> {
    let mut mask = [0u8; CPU_SET_BYTES];
    // SAFETY: `mask` is a writable buffer of exactly `CPU_SET_BYTES`
    // bytes, the size passed; pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, CPU_SET_BYTES, mask.as_mut_ptr()) } != 0 {
        return Err(format!(
            "sched_getaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    let cpu = (0..CPU_SET_BYTES * 8)
        .rev()
        .find(|&c| mask[c / 8] & (1 << (c % 8)) != 0)
        .ok_or("sched_getaffinity returned an empty CPU set")?;
    let mut one = [0u8; CPU_SET_BYTES];
    one[cpu / 8] = 1 << (cpu % 8);
    // SAFETY: `one` is a readable buffer of exactly `CPU_SET_BYTES`
    // bytes, the size passed; pid 0 names the calling thread.
    if unsafe { sched_setaffinity(0, CPU_SET_BYTES, one.as_ptr()) } != 0 {
        return Err(format!(
            "sched_setaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(cpu)
}
