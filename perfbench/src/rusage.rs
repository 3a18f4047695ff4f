//! `getrusage(2)` for this process and for its waited-for children.

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench's process accounting reads the 64-bit Linux `struct rusage`");

/// `struct rusage` on 64-bit Linux: two `timeval`s (seconds,
/// microseconds), then fourteen `long`s, the first of which is
/// `ru_maxrss` in KiB.
#[repr(C)]
#[derive(Default)]
pub struct RUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

const RUSAGE_SELF: i32 = 0;
const RUSAGE_CHILDREN: i32 = -1;

fn seconds(tv: [i64; 2]) -> f64 {
    tv[0] as f64 + tv[1] as f64 * 1e-6
}

impl RUsage {
    /// User CPU seconds.
    pub fn user_s(&self) -> f64 {
        seconds(self.utime)
    }

    /// System CPU seconds.
    pub fn sys_s(&self) -> f64 {
        seconds(self.stime)
    }

    /// Peak resident set size in MiB.
    pub fn peak_rss_mb(&self) -> f64 {
        self.maxrss as f64 / 1024.0
    }
}

fn usage(who: i32) -> std::io::Result<RUsage> {
    let mut usage = RUsage::default();
    // SAFETY: `usage` is a live, writable value with the layout of the
    // 64-bit Linux `struct rusage` (the compile_error above rejects other
    // targets), and getrusage writes only within that struct.
    if unsafe { getrusage(who, &mut usage) } != 0 {
        return Err(std::io::Error::last_os_error());
    }
    Ok(usage)
}

/// Resource usage of this process, all threads included.
pub fn this_process() -> std::io::Result<RUsage> {
    usage(RUSAGE_SELF)
}

/// Resource usage of every child this process has waited for.
pub fn children() -> std::io::Result<RUsage> {
    usage(RUSAGE_CHILDREN)
}
