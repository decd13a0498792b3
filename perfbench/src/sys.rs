//! Host readers: CPU time and peak resident memory from `getrusage`,
//! CPU steal from `/proc/stat`, and the host line every run record
//! states so that runs from different hosts or kernel backends are
//! never compared.
//!
//! `getrusage` is called through a raw `extern "C"` declaration (the
//! same idiom the TCP transport uses for its `SO_REUSEADDR` bind), so
//! the benchmark needs no dependency beyond the repository's crates.

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench reads Linux getrusage and /proc/stat (64-bit Linux only)");

/// CPU time and peak resident set of a process (or of its reaped
/// children).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Usage {
    /// User plus system CPU seconds.
    pub cpu_s: f64,
    /// Peak resident set in KiB (for children: the largest child).
    pub maxrss_kib: u64,
}

/// `struct timeval` on 64-bit Linux.
#[repr(C)]
#[derive(Clone, Copy, Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals, then fourteen
/// `long` counters of which only `ru_maxrss` is read.
#[repr(C)]
#[derive(Clone, Copy, Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    rest: [i64; 13],
}

fn usage_from(ru: &Rusage) -> Usage {
    let secs = |t: Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
    Usage {
        cpu_s: secs(ru.utime) + secs(ru.stime),
        maxrss_kib: ru.maxrss.max(0) as u64,
    }
}

fn rusage(who: i32) -> Usage {
    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
    let mut ru = Rusage::default();
    // SAFETY: `ru` is a live, writable `struct rusage` with the 64-bit
    // Linux layout, and `who` is one of the two valid selectors below.
    let rc = unsafe { getrusage(who, &mut ru) };
    assert_eq!(
        rc,
        0,
        "getrusage({who}) failed: {}",
        std::io::Error::last_os_error()
    );
    usage_from(&ru)
}

/// This process: every thread, including the rank threads.
pub fn self_usage() -> Usage {
    const RUSAGE_SELF: i32 = 0;
    rusage(RUSAGE_SELF)
}

/// Every child process that has been waited for (rank processes).
pub fn children_usage() -> Usage {
    const RUSAGE_CHILDREN: i32 = -1;
    rusage(RUSAGE_CHILDREN)
}

/// CPU seconds of this process plus its reaped children.
pub fn cpu_now() -> f64 {
    self_usage().cpu_s + children_usage().cpu_s
}

/// Aggregate CPU tick counters from the first line of `/proc/stat`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CpuTicks {
    /// user + nice + system + idle + iowait + irq + softirq + steal.
    pub total: u64,
    /// idle + iowait: ticks no task wanted the CPU.
    pub idle: u64,
    /// Ticks the hypervisor ran something else while this guest wanted
    /// the CPU.
    pub steal: u64,
}

/// Parses the aggregate `cpu` line of `/proc/stat`. Kernels older than
/// 2.6.11 print no steal column; it then reads as zero.
pub fn parse_proc_stat(text: &str) -> Option<CpuTicks> {
    let line = text.lines().find(|l| l.starts_with("cpu "))?;
    let fields: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .take(8)
        .map(str::parse)
        .collect::<Result<_, _>>()
        .ok()?;
    if fields.len() < 4 {
        return None;
    }
    Some(CpuTicks {
        total: fields.iter().sum(),
        idle: fields[3] + fields.get(4).copied().unwrap_or(0),
        steal: fields.get(7).copied().unwrap_or(0),
    })
}

/// Current aggregate ticks, or `None` where `/proc/stat` is unreadable.
pub fn cpu_ticks() -> Option<CpuTicks> {
    parse_proc_stat(&std::fs::read_to_string("/proc/stat").ok()?)
}

/// Share of the time the guest wanted a CPU (busy or stolen, not idle)
/// that the hypervisor stole between two readings (0 when none).
pub fn steal_share(before: CpuTicks, after: CpuTicks) -> f64 {
    let d = |a: u64, b: u64| b.saturating_sub(a);
    let wanted = d(before.total, after.total).saturating_sub(d(before.idle, after.idle));
    if wanted == 0 {
        return 0.0;
    }
    d(before.steal, after.steal) as f64 / wanted as f64
}

/// What a run record states about the machine it ran on.
#[derive(Clone, Debug)]
pub struct Host {
    /// `available_parallelism()`.
    pub nproc: usize,
    /// Kernel backend and numeric mode, e.g. `avx2/strict`.
    pub kernels: String,
}

impl Host {
    /// Reads the host.
    pub fn detect() -> Self {
        let k = spmat::kernel::active();
        Host {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            kernels: format!("{}/{}", k.backend.label(), k.mode.label()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_stat_with_steal() {
        let text = "cpu  100 5 50 1000 20 3 2 7 0 0\ncpu0 50 2 25 500 10 1 1 3 0 0\nintr 1\n";
        let t = parse_proc_stat(text).unwrap();
        assert_eq!(t.total, 100 + 5 + 50 + 1000 + 20 + 3 + 2 + 7);
        assert_eq!(t.idle, 1000 + 20);
        assert_eq!(t.steal, 7);
    }

    #[test]
    fn proc_stat_without_steal_column() {
        let t = parse_proc_stat("cpu  10 0 5 100 1 0 0\n").unwrap();
        assert_eq!(t.total, 116);
        assert_eq!(t.idle, 101);
        assert_eq!(t.steal, 0);
    }

    #[test]
    fn proc_stat_rejects_garbage() {
        assert_eq!(parse_proc_stat(""), None);
        assert_eq!(parse_proc_stat("cpu0 1 2 3 4\n"), None);
        assert_eq!(parse_proc_stat("cpu  1 2 x 4\n"), None);
        assert_eq!(parse_proc_stat("cpu  1 2\n"), None);
    }

    #[test]
    fn steal_share_of_delta() {
        let a = CpuTicks {
            total: 1000,
            idle: 500,
            steal: 10,
        };
        let b = CpuTicks {
            total: 1400,
            idle: 700,
            steal: 30,
        };
        assert!((steal_share(a, b) - 0.1).abs() < 1e-12);
        assert_eq!(steal_share(b, b), 0.0);
    }

    #[test]
    fn rusage_conversion() {
        let ru = Rusage {
            utime: Timeval {
                sec: 2,
                usec: 500_000,
            },
            stime: Timeval {
                sec: 0,
                usec: 250_000,
            },
            maxrss: 4096,
            rest: [0; 13],
        };
        let u = usage_from(&ru);
        assert!((u.cpu_s - 2.75).abs() < 1e-12);
        assert_eq!(u.maxrss_kib, 4096);
    }

    #[test]
    fn live_readers_are_sane() {
        let a = self_usage();
        let mut x = 0u64;
        for i in 0..2_000_000u64 {
            x = x.wrapping_mul(31).wrapping_add(i);
        }
        std::hint::black_box(x);
        let b = self_usage();
        assert!(b.cpu_s >= a.cpu_s);
        assert!(b.maxrss_kib > 0);
        if let Some(t) = cpu_ticks() {
            assert!(t.total > 0);
        }
    }
}
