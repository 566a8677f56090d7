//! What the benchmark reads about its own process and host: CPU time,
//! peak resident memory, the worker count, and a fixed-speed probe.

use std::hint::black_box;
use std::time::Instant;

/// Clock ticks per second of the CPU times in `/proc/<pid>/stat`
/// (`USER_HZ`, fixed at 100 by the Linux ABI).
const USER_HZ: f64 = 100.0;

/// CPU seconds (user + system, every thread, including threads that
/// have already exited) consumed by this process so far; 0 where
/// `/proc` is unavailable.
pub fn process_cpu_s() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // The command name is parenthesised and may hold spaces: fields are
    // counted from the closing parenthesis. utime and stime are fields
    // 14 and 15, i.e. the 12th and 13th after it.
    let Some(rest) = stat.rfind(')').map(|i| &stat[i + 1..]) else {
        return 0.0;
    };
    let ticks: f64 = rest
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|f| f.parse::<f64>().ok())
        .sum();
    ticks / USER_HZ
}

/// Peak resident set size of this process in MiB (`VmHWM`); 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Worker threads every configuration in the benchmark is given. One,
/// on purpose: on a shared 2-vCPU host a neighbour busy on one vCPU
/// slowed the 2-worker extraction and Monte Carlo calls by up to 2.3x
/// between runs, while single-threaded calls (and the probe) moved by
/// 15% at most.
pub const WORKER_THREADS: usize = 1;

/// Iterations of the probe kernel (about 30 ms on a 2020s x86 core).
const PROBE_ITERATIONS: u64 = 20_000_000;

/// Times a fixed scalar integer kernel that calls no program code: a
/// slow host shows here, a slow program does not. Returns the median of
/// five repetitions, in milliseconds.
pub fn probe_ms() -> f64 {
    let mut times: Vec<f64> = (0..5)
        .map(|rep| {
            let start = Instant::now();
            let mut x = black_box(0x9e37_79b9_7f4a_7c15_u64 ^ rep);
            for _ in 0..black_box(PROBE_ITERATIONS) {
                // xorshift64 step: a serial dependency chain, so the
                // time is latency-bound and independent of the cache.
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
            }
            black_box(x);
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    crate::stats::median(&mut times)
}
