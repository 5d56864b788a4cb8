//! Host clocks: process CPU time and the machine's stolen time.
//!
//! The host metrics are in CPU seconds of this process (every thread,
//! exited ones included) rather than wall seconds. On a shared VM the wall
//! clock also counts time the hypervisor gave to other guests (steal) and
//! time other processes held the CPUs; wall-clock medians of identical runs
//! moved by 10–30 % there, CPU time by about 5 %.

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench reads Linux process clocks and /proc on 64-bit targets");

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` from `<time.h>` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU seconds used so far by every thread of this process.
pub fn process_cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `timespec` with the C layout for the
    // whole call, and the clock id is one Linux always provides.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Seconds stolen from this machine's CPUs by the hypervisor so far, summed
/// over CPUs (`steal` of the `cpu` line of `/proc/stat`, in USER_HZ = 100
/// ticks per second). 0 where the field is missing.
pub fn steal_s() -> f64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            s.lines()
                .next()
                .and_then(|l| l.split_whitespace().nth(8))
                .and_then(|t| t.parse::<f64>().ok())
        })
        .map_or(0.0, |ticks| ticks / 100.0)
}
