//! Peak resident memory of this process (Linux `/proc`).

/// Reset the peak (`VmHWM`) to the current resident set.
pub fn reset_peak() {
    // Best effort: without the file the peak simply covers more of the run.
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// `VmHWM` in MB (0 when unavailable).
pub fn peak_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
