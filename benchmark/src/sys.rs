//! Readers for what the host kernel knows about this process (`/proc`).

use std::fs;

/// The first whitespace-separated field of a `/proc` file.
fn first_field<T: std::str::FromStr>(path: impl AsRef<std::path::Path>) -> Option<T> {
    fs::read_to_string(path)
        .ok()?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// CPU nanoseconds the calling thread has run.
pub fn thread_cpu_ns() -> u64 {
    first_field("/proc/thread-self/schedstat")
        .expect("CPU accounting needs /proc/thread-self/schedstat (Linux)")
}

/// CPU nanoseconds summed over every live thread of this process. Exact to
/// the nanosecond, unlike the tick-sampled `utime`/`stime`; callers take it
/// while every thread of the window is still alive.
pub fn process_cpu_ns() -> u64 {
    let tasks = fs::read_dir("/proc/self/task").expect("CPU accounting needs /proc/self/task");
    tasks
        .flatten()
        .filter_map(|t| first_field::<u64>(t.path().join("schedstat")))
        .sum()
}

/// Peak resident set size (`VmHWM`) in megabytes.
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The one-minute load average.
pub fn loadavg() -> f64 {
    first_field("/proc/loadavg").unwrap_or(0.0)
}

pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

pub fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The commit checked out at the repo root, read from `.git` directly (no
/// process is started); `unknown` where the checkout is not a repository.
pub fn commit() -> String {
    let git = crate::manifest_dir().join("../.git");
    let read = |rel: &str| fs::read_to_string(git.join(rel)).ok();
    let Some(head) = read("HEAD") else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string(); // detached: HEAD holds the hash
    };
    read(reference)
        .map(|hash| hash.trim().to_string())
        .or_else(|| {
            read("packed-refs")?.lines().find_map(|l| {
                l.strip_suffix(reference)
                    .map(|hash| hash.trim().to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}
