//! Host-side readings: CPU and run-queue time of this process's threads
//! and its peak resident set.

use std::fs;

/// Scheduler accounting of every thread of this process.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Sched {
    /// Nanoseconds spent running on a CPU.
    pub oncpu_ns: u64,
    /// Nanoseconds spent runnable but waiting on a run queue.
    pub runq_ns: u64,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time of the whole process, exact to the nanosecond (the schedstat
/// figure of a running thread only advances at scheduler ticks).
fn process_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit fields
    // on the 64-bit Linux targets this benchmark runs on) for the whole
    // call, and clock_gettime writes nothing else.
    if unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) } != 0 {
        return 0;
    }
    (ts.tv_sec as u64) * 1_000_000_000 + ts.tv_nsec as u64
}

impl Sched {
    /// Read the current totals: CPU time from `clock_gettime`, run-queue
    /// wait from `/proc/self/task/*/schedstat` (zero where `/proc` is
    /// unavailable).
    pub fn now() -> Sched {
        let mut total = Sched {
            oncpu_ns: process_cpu_ns(),
            runq_ns: 0,
        };
        let Ok(tasks) = fs::read_dir("/proc/self/task") else {
            return total;
        };
        for task in tasks.flatten() {
            let Ok(text) = fs::read_to_string(task.path().join("schedstat")) else {
                continue;
            };
            total.runq_ns += text
                .split_whitespace()
                .nth(1)
                .and_then(|f| f.parse::<u64>().ok())
                .unwrap_or(0);
        }
        total
    }

    /// Time accumulated since `earlier`.  Threads that exited in between
    /// take their counters with them, so each field saturates at zero.
    pub fn since(self, earlier: Sched) -> Sched {
        Sched {
            oncpu_ns: self.oncpu_ns.saturating_sub(earlier.oncpu_ns),
            runq_ns: self.runq_ns.saturating_sub(earlier.runq_ns),
        }
    }
}

/// Peak resident set size (`VmHWM`) of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}
