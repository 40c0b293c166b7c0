//! What the harness reads off the host: process memory and CPU time, the
//! provenance every result file records, and the counting allocator behind
//! `sim.steady_allocs_per_kcycle`.

use serde::Value;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// A `kB` field of `/proc/self/status` (0 when unavailable).
fn status_kb(field: &str) -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0)
}

/// High-water resident set size of this process, KiB (`VmHWM`).
pub fn peak_rss_kb() -> u64 {
    status_kb("VmHWM:")
}

/// Current resident set size of this process, KiB (`VmRSS`).
pub fn rss_kb() -> u64 {
    status_kb("VmRSS:")
}

/// User + system CPU seconds consumed by every thread of this process so
/// far, exited threads included. `/proc/self/stat` reports clock ticks of
/// `USER_HZ`, which Linux fixes at 100 for everything it shows user space.
pub fn cpu_seconds() -> f64 {
    cpu_seconds_of("/proc/self/stat")
}

/// The same reading from any `stat` file of `/proc`: a process's, or one
/// thread's (`/proc/<pid>/task/<tid>/stat`).
pub fn cpu_seconds_of(stat_path: &str) -> f64 {
    const USER_HZ: f64 = 100.0;
    let Ok(stat) = std::fs::read_to_string(stat_path) else {
        return 0.0;
    };
    // The command name (field 2) may contain spaces; fields are counted
    // from the closing parenthesis: state is field 3, utime 14, stime 15.
    let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (tick(11) + tick(12)) / USER_HZ
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Where the numbers came from. `run.sh` exports the commit and compiler
/// version; a binary started by hand records "unknown" for both.
pub fn provenance() -> Value {
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".into());
    Value::Object(vec![
        ("git_commit".into(), Value::Str(env("NOC_BENCH_COMMIT"))),
        ("rustc".into(), Value::Str(env("NOC_BENCH_RUSTC"))),
        ("nproc".into(), Value::U64(nproc() as u64)),
        ("cpu_model".into(), Value::Str(cpu_model())),
    ])
}

/// The system allocator plus an allocation counter that is armed only
/// around the probe that reads it: disarmed it costs one relaxed load per
/// allocation, so the campaign workers never contend on a shared counter.
pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter touches no allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // Relaxed: a statistic that publishes no other data.
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc`/`realloc` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: same pointer, layout and size the caller vouched for.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Heap allocations (and reallocations) made while `f` runs, on any thread.
pub fn count_allocations<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    COUNTING.store(true, Ordering::Relaxed);
    let out = f();
    COUNTING.store(false, Ordering::Relaxed);
    (out, ALLOCATIONS.load(Ordering::Relaxed) - before)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn process_readings_are_live() {
        assert!(peak_rss_kb() >= rss_kb() && rss_kb() > 0);
        assert!(nproc() >= 1);
        let spin = std::time::Instant::now();
        while spin.elapsed().as_millis() < 30 {
            std::hint::black_box(0u64);
        }
        assert!(cpu_seconds() > 0.0);
    }

    #[test]
    fn armed_counter_sees_a_heap_allocation() {
        let (v, counted) = count_allocations(|| vec![1u8; 4096]);
        assert!(counted >= 1 && v.len() == 4096);
    }
}
