//! The simulation thread's CPU clock and the host-noise record.
//!
//! Every timing the benchmark reports is CPU time of the calling thread
//! (`CLOCK_THREAD_CPUTIME_ID`). Unlike wall time it leaves out time the
//! hypervisor steals from the guest and time the thread waits in the run
//! queue; on a shared 2-vCPU guest those move wall time by tens of
//! percent between identical runs. The host record keeps both losses
//! visible as diagnostics.

use std::os::raw::{c_int, c_long};
use std::time::Instant;

#[cfg(not(target_os = "linux"))]
compile_error!("the benchmark reads the Linux thread CPU clock and /proc");

/// `struct timespec` on Linux, where `time_t` is a C `long`.
#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

const CLOCK_THREAD_CPUTIME_ID: c_int = 3;

extern "C" {
    fn clock_gettime(clock_id: c_int, tp: *mut Timespec) -> c_int;
}

/// CPU time the calling thread has consumed so far, in nanoseconds.
pub fn thread_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` with the C
    // layout, and clock_gettime writes nothing but that struct.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the thread CPU clock is always available on Linux");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Run `f` and return its result with the thread CPU time it took.
pub fn cpu_timed<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let t0 = thread_cpu_ns();
    let out = f();
    (out, thread_cpu_ns() - t0)
}

/// Host losses over one measured interval.
#[derive(Clone, Copy, Debug, Default)]
pub struct HostNoise {
    /// Wall time of the interval.
    pub wall_s: f64,
    /// Time stolen by the hypervisor from all of the guest's CPUs
    /// (the steal column of `/proc/stat`, 10 ms ticks).
    pub steal_s: f64,
    /// Time this thread spent runnable but waiting for a CPU
    /// (`/proc/thread-self/schedstat` field 2).
    pub runq_wait_s: f64,
    /// CPUs this process may run on.
    pub cpus: usize,
}

/// Start of a host-noise interval.
pub struct HostRecord {
    wall: Instant,
    steal_ticks: u64,
    runq_ns: u64,
}

impl HostRecord {
    /// Open an interval on the calling thread.
    pub fn start() -> HostRecord {
        HostRecord {
            wall: Instant::now(),
            steal_ticks: steal_ticks(),
            runq_ns: schedstat().1,
        }
    }

    /// Close the interval; call on the thread that opened it.
    pub fn stop(&self) -> HostNoise {
        // USER_HZ is 100 on every Linux configuration in use.
        const TICK_S: f64 = 0.01;
        HostNoise {
            wall_s: self.wall.elapsed().as_secs_f64(),
            steal_s: steal_ticks().saturating_sub(self.steal_ticks) as f64 * TICK_S,
            runq_wait_s: schedstat().1.saturating_sub(self.runq_ns) as f64 * 1e-9,
            cpus: std::thread::available_parallelism().map_or(1, |n| n.get()),
        }
    }
}

/// Aggregate steal ticks: field 8 of the `cpu` line of `/proc/stat`.
/// Reads 0 where the kernel does not report steal.
fn steal_ticks() -> u64 {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    stat.lines()
        .next()
        .and_then(|line| line.split_whitespace().nth(8))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// `(on-CPU ns, run-queue wait ns)` of the calling thread, from
/// `/proc/thread-self/schedstat`; zeros where schedstats are off.
pub fn schedstat() -> (u64, u64) {
    let text = std::fs::read_to_string("/proc/thread-self/schedstat").unwrap_or_default();
    let mut fields = text.split_whitespace().map(|f| f.parse().unwrap_or(0));
    (fields.next().unwrap_or(0), fields.next().unwrap_or(0))
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn clock_counts_busy_time_and_skips_sleep() {
        let (wall0, cpu0) = (Instant::now(), thread_cpu_ns());
        let mut x = 0u64;
        while wall0.elapsed() < Duration::from_millis(3) {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
        }
        let busy = thread_cpu_ns() - cpu0;
        let wall = wall0.elapsed().as_nanos() as u64;
        // CPU time never exceeds wall time; steal may take part of it.
        assert!(busy <= wall + 100_000, "busy {busy} ns over wall {wall} ns");
        assert!(busy >= 1_000_000, "3 ms busy loop read only {busy} ns");

        let cpu1 = thread_cpu_ns();
        std::thread::sleep(Duration::from_millis(50));
        let slept = thread_cpu_ns() - cpu1;
        assert!(slept < 1_000_000, "50 ms sleep cost {slept} ns of CPU");
    }

    #[test]
    fn clock_agrees_with_schedstat() {
        let (run0, _) = schedstat();
        if run0 == 0 {
            return; // schedstats disabled on this kernel
        }
        let cpu0 = thread_cpu_ns();
        let wall0 = Instant::now();
        while wall0.elapsed() < Duration::from_millis(5) {
            std::hint::black_box(0);
        }
        let cpu = thread_cpu_ns() - cpu0;
        let (run1, _) = schedstat();
        let run = run1 - run0;
        let gap = cpu.abs_diff(run);
        assert!(gap < 500_000, "clock {cpu} ns vs schedstat {run} ns");
    }

    #[test]
    fn host_record_reads_proc() {
        let rec = HostRecord::start();
        std::thread::sleep(Duration::from_millis(5));
        let noise = rec.stop();
        assert!(noise.wall_s >= 0.005);
        assert!(noise.steal_s >= 0.0 && noise.runq_wait_s >= 0.0);
        assert!(noise.cpus >= 1);
        assert!(peak_rss_mib() > 0.0);
    }
}
