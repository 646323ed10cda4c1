//! Summaries, CPU clocks and the machine record.

use std::time::Duration;

/// A latency summary: the median and the tail, where the tail is the
/// highest percentile with at least ten samples beyond it.
#[derive(Debug, Clone, Copy, Default)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    pub tail: f64,
    /// The percentile `tail` sits at (100 × share of samples at or
    /// below it).
    pub tail_pct: f64,
}

pub fn summarize(samples: &[f64]) -> Summary {
    if samples.is_empty() {
        return Summary::default();
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let p50 = if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    };
    // Below 21 samples no percentile above the median has ten beyond
    // it; the maximum stands in and says so through `tail_pct`.
    let idx = if n <= 20 { n - 1 } else { n - 11 };
    Summary {
        n,
        p50,
        tail: sorted[idx],
        tail_pct: 100.0 * (idx + 1) as f64 / n as f64,
    }
}

/// The `q` quantile (0 to 1) by the nearest rank; 0 without samples.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    summarize(samples).p50
}

/// The arithmetic mean; 0 without samples.
pub fn mean(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len().max(1) as f64
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
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
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn cpu_clock_ns(clock: i32) -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the duration of
    // the call, and both clock ids are valid on Linux, where this
    // benchmark runs.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// CPU time this process has used, in nanoseconds.
pub fn process_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time the calling thread has used, in nanoseconds.
pub fn thread_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_THREAD_CPUTIME_ID)
}

/// Resident set size of this process now, in MB.
pub fn rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

extern "C" {
    fn malloc_trim(pad: usize) -> i32;
}

/// Return the allocator's free pages to the kernel.
pub fn release_free_memory() {
    // SAFETY: glibc's `malloc_trim` only releases memory the allocator
    // holds free; it takes no pointers and is safe to call at any time.
    unsafe {
        malloc_trim(0);
    }
}

/// Machine-wide CPU time so far as (all, steal), in clock ticks, from
/// `/proc/stat`.
pub fn host_cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    Some((fields.iter().sum(), *fields.get(7)?))
}

/// The machine record every result carries.
pub fn machine(seed: u64) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into());
    format!(
        "{{\"nproc\": {nproc}, \"kernel\": \"{kernel}\", \"rustc\": \"{}\", \"commit\": \"{}\", \"seed\": {seed}, \"network\": \"loopback\"}}",
        env!("PERFBENCH_RUSTC"),
        commit()
    )
}

/// The checked-out commit, read from `.git` in the working directory
/// without leaving it; "unknown" when the checkout is not a repository.
fn commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(head) => head.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".into()),
        None => head,
    }
}
