//! Host-side measurements: this process's peak memory and a fixed
//! calibration loop for comparing figures across machines.

use std::hint::black_box;
use std::time::Instant;

/// Peak resident set of this process, MB (`VmHWM` from
/// `/proc/self/status`), or `None` where procfs is unavailable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_vm_hwm_kb(&status).map(|kb| kb as f64 / 1024.0)
}

/// The `VmHWM` value in kB from a `/proc/<pid>/status` text.
fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|v| v.parse().ok())
}

/// Iterations of the calibration loop.
const CALIB_OPS: u64 = 50_000_000;

/// Runs a fixed dependent integer loop (one xorshift-multiply step per
/// op) and returns millions of ops per second. Not gated: it is recorded
/// so that figures from different machines can be put side by side.
pub fn calib_mops() -> f64 {
    let start = Instant::now();
    let mut x = black_box(0x9E37_79B9_7F4A_7C15u64);
    for _ in 0..black_box(CALIB_OPS) {
        x ^= x >> 29;
        x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    }
    black_box(x);
    CALIB_OPS as f64 / start.elapsed().as_secs_f64() / 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_vm_hwm() {
        let status = "Name:\tx\nVmPeak:\t  9000 kB\nVmHWM:\t    2048 kB\nVmRSS:\t 1024 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(2048));
        assert_eq!(parse_vm_hwm_kb("Name:\tx\n"), None);
    }

    #[test]
    fn own_peak_rss_is_positive_on_linux() {
        if cfg!(target_os = "linux") {
            assert!(peak_rss_mb().expect("procfs") > 0.0);
        }
    }
}
