//! Process-level cost gauges read from `/proc/self/{stat,status}`: CPU
//! seconds (total time, next to the wall time the latencies give), live
//! threads and peak resident memory. `None` where `/proc` is absent.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Linux reports `utime`/`stime` in `USER_HZ` ticks, which is 100 on every
/// supported architecture (the kernel scales to it whatever its own HZ).
const TICKS_PER_SECOND: f64 = 100.0;

/// User + system CPU seconds this process has burned so far, all threads.
pub fn cpu_seconds() -> Option<f64> {
    parse_cpu_seconds(&std::fs::read_to_string("/proc/self/stat").ok()?)
}

fn parse_cpu_seconds(stat: &str) -> Option<f64> {
    // The command name (field 2) may hold spaces and parentheses; fields
    // are counted from the last `)`. utime and stime are fields 14 and 15.
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let utime: f64 = fields.next()?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) / TICKS_PER_SECOND)
}

fn status_field(status: &str, key: &str) -> Option<f64> {
    status
        .lines()
        .find_map(|line| line.strip_prefix(key)?.strip_prefix(':'))
        .and_then(|rest| rest.split_ascii_whitespace().next()?.parse().ok())
}

/// Threads alive in this process right now.
pub fn threads() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status_field(&status, "Threads").map(|n| n as u64)
}

/// Peak resident set size so far, in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status_field(&status, "VmHWM").map(|kb| kb / 1024.0)
}

/// Polls the thread count from a side thread (every 10 ms — a few tens of
/// microseconds of work per poll) so short-lived per-query threads show up
/// in the peak.
pub struct ThreadSampler {
    stop: Arc<AtomicBool>,
    handle: JoinHandle<u64>,
}

impl ThreadSampler {
    pub fn start() -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = stop.clone();
        let handle = std::thread::spawn(move || {
            let mut peak = 0;
            while !flag.load(Ordering::Relaxed) {
                peak = peak.max(threads().unwrap_or(0));
                std::thread::sleep(Duration::from_millis(10));
            }
            peak
        });
        ThreadSampler { stop, handle }
    }

    /// Stops the sampler; returns the highest thread count it saw (its own
    /// thread included).
    pub fn finish(self) -> u64 {
        self.stop.store(true, Ordering::Relaxed);
        self.handle.join().expect("thread sampler panicked")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_stat_with_awkward_command_names() {
        let stat = "1234 (mj bench) x) S 1 1 1 0 -1 4194304 100 0 0 0 250 50 0 0 20 0 3 0 100 0 0";
        assert_eq!(parse_cpu_seconds(stat), Some(3.0));
        assert_eq!(parse_cpu_seconds("garbage"), None);
    }

    #[test]
    fn parses_status_fields() {
        let status = "Name:\tx\nVmHWM:\t  20480 kB\nThreads:\t7\n";
        assert_eq!(status_field(status, "Threads"), Some(7.0));
        assert_eq!(status_field(status, "VmHWM"), Some(20480.0));
        assert_eq!(status_field(status, "VmPeak"), None);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn sampler_sees_a_spawned_thread() {
        let sampler = ThreadSampler::start();
        let worker = std::thread::spawn(|| std::thread::sleep(Duration::from_millis(60)));
        worker.join().unwrap();
        // This thread, the sampler's and the worker's all count.
        assert!(sampler.finish() >= 3);
        assert!(cpu_seconds().is_some() && peak_rss_mb().unwrap() > 0.0);
    }
}
