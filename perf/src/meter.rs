//! Host-side gauges read around a timed section: wall clock, process CPU
//! time, allocation counts, and the process's peak resident set.

use std::time::Instant;

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("meter.rs declares glibc's 64-bit Linux `struct timespec` and `cpu_set_t`");

/// `struct timespec` of the 64-bit Linux ABIs.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// Words of glibc's `cpu_set_t` (1024 CPUs).
const CPU_SET_WORDS: usize = 16;

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// While it lives, the calling thread — and every thread it starts, which
/// inherits the mask — runs on one CPU: the last one the thread was allowed
/// on (interrupts favour the first). Dropping it gives the calling thread
/// its CPUs back.
///
/// For the daemon workloads. Their seven busy threads hand each message from
/// one to the next; spread over this box's two virtual CPUs every hand-over
/// is a wake-up across CPUs, which here costs more than the work it hands
/// over (`sock-feed`: 8.9 µs of CPU per delivery and 190 k deliveries/s
/// spread, 4.1 µs and 245 k/s on one CPU) and is what a slow phase of the
/// host hits hardest. On one CPU the numbers are the program's.
pub struct OneCpu {
    before: [u64; CPU_SET_WORDS],
}

impl OneCpu {
    /// Pins the calling thread. Where the kernel refuses, nothing changes.
    pub fn pin() -> OneCpu {
        let mut before = [0u64; CPU_SET_WORDS];
        // SAFETY: `before` is writable and of the size passed; pid 0 is the
        // calling thread.
        let rc = unsafe { sched_getaffinity(0, size_of_val(&before), before.as_mut_ptr()) };
        if rc != 0 {
            return OneCpu {
                before: [0; CPU_SET_WORDS],
            };
        }
        let mut one = [0u64; CPU_SET_WORDS];
        if let Some(w) = before.iter().rposition(|&w| w != 0) {
            one[w] = 1 << (63 - before[w].leading_zeros());
            // SAFETY: `one` is readable and of the size passed.
            unsafe { sched_setaffinity(0, size_of_val(&one), one.as_ptr()) };
        }
        OneCpu { before }
    }
}

impl Drop for OneCpu {
    fn drop(&mut self) {
        if self.before.iter().any(|&w| w != 0) {
            // SAFETY: `before` is readable and of the size passed.
            unsafe { sched_setaffinity(0, size_of_val(&self.before), self.before.as_ptr()) };
        }
    }
}

/// `CLOCK_PROCESS_CPUTIME_ID` of `<time.h>` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// User + system CPU seconds of the whole process (all threads, those that
/// have ended too), at the scheduler's nanosecond resolution. (Fields 14
/// and 15 of `/proc/self/stat` say the same in 10 ms ticks, too coarse for
/// a unit of a few hundred milliseconds.)
pub fn cpu_seconds() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `timespec` of this ABI's layout and
    // the clock id is a constant of it; the call writes `ts` and nothing
    // else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the process CPU clock is always readable");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Peak resident set (`VmHWM`) of this process in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// What one timed section cost the host.
#[derive(Clone, Copy, Debug, Default)]
pub struct Cost {
    /// Wall seconds.
    pub wall_s: f64,
    /// Process CPU seconds (all threads).
    pub cpu_s: f64,
    /// Allocation calls.
    pub allocs: u64,
    /// Bytes requested from the allocator.
    pub alloc_bytes: u64,
}

/// A running measurement; [`Meter::stop`] yields the [`Cost`] since
/// [`Meter::start`].
pub struct Meter {
    t0: Instant,
    cpu0: f64,
    alloc0: (u64, u64),
}

impl Meter {
    /// Starts measuring.
    pub fn start() -> Meter {
        Meter {
            cpu0: cpu_seconds(),
            alloc0: crate::alloc::snapshot(),
            t0: Instant::now(),
        }
    }

    /// Stops measuring.
    pub fn stop(self) -> Cost {
        let wall_s = self.t0.elapsed().as_secs_f64();
        let (a, b) = crate::alloc::snapshot();
        Cost {
            wall_s,
            cpu_s: cpu_seconds() - self.cpu0,
            allocs: a - self.alloc0.0,
            alloc_bytes: b - self.alloc0.1,
        }
    }
}
