//! Process CPU time, from `getrusage(2)`, and peak resident set, from
//! `/proc/self/status`.

/// User+system CPU seconds and peak resident set of this process.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Usage {
    /// User plus system CPU time of all threads, seconds.
    pub cpu_s: f64,
    /// Peak resident set size, MiB.
    pub peak_rss_mb: f64,
}

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` of 64-bit Linux: two timevals, then 14 longs of which
/// the first is `ru_maxrss` in KiB (the fallback peak when `/proc` is
/// missing).
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const RUSAGE_SELF: i32 = 0;

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the rusage layout above is that of 64-bit Linux");

/// Reads this process's usage now.
///
/// # Panics
///
/// If `getrusage` fails, which it cannot for `RUSAGE_SELF` and a valid
/// buffer.
pub fn usage() -> Usage {
    let mut ru = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `ru` is a live, writable `struct rusage` with the 64-bit
    // Linux layout (checked by the `compile_error!` above), and
    // `getrusage` writes only inside it.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
    let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
    let peak_kib = vm_hwm_kib().unwrap_or(ru.maxrss);
    Usage {
        cpu_s: secs(&ru.utime) + secs(&ru.stime),
        peak_rss_mb: peak_kib as f64 / 1024.0,
    }
}

/// `VmHWM` of `/proc/self/status`, KiB: the peak of this program's own
/// address space. `ru_maxrss` is not that: across `execve` it keeps the
/// peak of the process image that ran before, such as a `cargo run`
/// parent's forked copy.
fn vm_hwm_kib() -> Option<i64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}
