//! Host-side measurements read from `/proc/self` and the context
//! recorded with every result.

use std::fs;

/// Clock ticks per second in `/proc/<pid>/stat` (Linux's `USER_HZ`,
/// fixed at 100 in the kernel's user-space ABI).
const USER_HZ: f64 = 100.0;

/// Process CPU time (user + system, all threads) in seconds; 0 where
/// `/proc` is unavailable.
#[must_use]
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name: state is field 3,
    // utime and stime are fields 14 and 15.
    let Some(rest) = stat.rfind(')').map(|i| &stat[i + 1..]) else {
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

/// Process high-water resident set size (`VmHWM`) in MiB.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Cores the process may use.
#[must_use]
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Every `MMSIM_*` variable in the environment, sorted, as `K=V`.
#[must_use]
pub fn mmsim_env() -> Vec<String> {
    let mut v: Vec<String> = std::env::vars()
        .filter(|(k, _)| k.starts_with("MMSIM_"))
        .map(|(k, v)| format!("{k}={v}"))
        .collect();
    v.sort();
    v
}

/// The cargo profile this binary was built with.
#[must_use]
pub fn build_profile() -> &'static str {
    if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    }
}

/// The host context recorded with every result, as `key=value` pairs.
#[must_use]
pub fn context() -> Vec<(&'static str, String)> {
    let env = mmsim_env();
    vec![
        ("nproc", nproc().to_string()),
        (
            "default_engine",
            format!("{:?}", mmsim::EngineKind::default()),
        ),
        (
            "mmsim_env",
            if env.is_empty() {
                "none".to_string()
            } else {
                env.join(",")
            },
        ),
        ("profile", build_profile().to_string()),
    ]
}
