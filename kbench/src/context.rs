//! The run-context header: the box, the compiler, and the sizes of what
//! the workload holds, so claims such as "fits in L2" are stated rather
//! than assumed.

use std::fs;

/// CPUs this process may run on (what `nproc` prints).
fn allowed_cpus() -> Option<usize> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let list = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))?;
    let mut n = 0;
    for part in list.trim().split(',') {
        n += match part.split_once('-') {
            Some((a, b)) => b.parse::<usize>().ok()? - a.parse::<usize>().ok()? + 1,
            None => 1,
        };
    }
    Some(n)
}

pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Size in bytes of the unified cache at `level` seen by CPU 0.
fn cache_bytes(level: u32) -> Option<u64> {
    for i in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
        let read = |f: &str| fs::read_to_string(format!("{dir}/{f}")).ok();
        let (Some(l), Some(t), Some(size)) = (read("level"), read("type"), read("size")) else {
            continue;
        };
        if l.trim() == level.to_string() && t.trim() == "Unified" {
            let size = size.trim();
            let (num, mult) = match size.strip_suffix('K') {
                Some(k) => (k, 1024),
                None => match size.strip_suffix('M') {
                    Some(m) => (m, 1024 * 1024),
                    None => (size, 1),
                },
            };
            return num.parse::<u64>().ok().map(|v| v * mult);
        }
    }
    None
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
extern "C" {
    fn malloc_trim(pad: usize) -> i32;
}

/// Starts a fresh peak: returns freed heap memory to the kernel, then
/// resets this process's peak resident set (VmHWM) to its current
/// resident set, where the kernel allows it. Returns whether it did.
pub fn reset_peak_rss() -> bool {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    // SAFETY: glibc's malloc_trim only releases free heap pages; it takes
    // the allocator's own locks and touches no live allocation.
    unsafe {
        malloc_trim(0);
    }
    fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// CPU time the calling thread has used, in seconds
/// (`CLOCK_THREAD_CPUTIME_ID`). Time the thread spends waiting for a CPU,
/// behind another process or while the hypervisor runs another guest
/// (steal), is not counted; page faults and other kernel work done for
/// the thread are.
#[cfg(target_os = "linux")]
pub fn thread_cpu_s() -> f64 {
    use std::os::raw::{c_int, c_long};

    #[repr(C)]
    struct Timespec {
        tv_sec: c_long,
        tv_nsec: c_long,
    }
    extern "C" {
        fn clock_gettime(clock: c_int, tp: *mut Timespec) -> c_int;
    }
    const CLOCK_THREAD_CPUTIME_ID: c_int = 3;

    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable timespec for the call to fill.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Peak resident set of this process (VmHWM), in MiB.
pub fn peak_rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn opt(v: Option<impl ToString>) -> String {
    v.map_or("null".into(), |v| v.to_string())
}

/// The header as one JSON object; `sizes` are the workload's own
/// `(name, value)` pairs (node counts, samples, working-set bytes).
pub fn header_json(workload: &str, seed: u64, trace: bool, sizes: &[(&str, f64)]) -> String {
    let sizes: Vec<String> = sizes.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
    format!(
        "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"trace\": {trace}, \
         \"nproc\": {}, \"available_parallelism\": {}, \"cpu_model\": \"{}\", \
         \"l2_bytes\": {}, \"l3_bytes\": {}, \"rustc\": \"{}\", \"rustc_commit\": \"{}\", \
         \"sizes\": {{{}}}}}",
        opt(allowed_cpus()),
        available_parallelism(),
        cpu_model().replace('"', "'"),
        opt(cache_bytes(2)),
        opt(cache_bytes(3)),
        env!("KBENCH_RUSTC_RELEASE"),
        env!("KBENCH_RUSTC_COMMIT"),
        sizes.join(", "),
    )
}
