//! `/proc/self` readers: peak resident memory and consumed CPU time.

use std::fs;

/// Kernel clock ticks per second as exposed in `/proc/<pid>/stat`.
/// `USER_HZ` has been 100 on every Linux ABI since 2.6; reading it properly
/// needs `sysconf`, i.e. libc, which this package does not depend on.
const USER_HZ: f64 = 100.0;

/// Extracts `VmHWM` (peak resident set size) from `/proc/<pid>/status`
/// text, in MiB.
pub fn parse_vm_hwm_mib(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut fields = line["VmHWM:".len()..].split_whitespace();
    let kib: f64 = fields.next()?.parse().ok()?;
    (fields.next() == Some("kB")).then_some(kib / 1024.0)
}

/// Extracts `utime + stime` from `/proc/<pid>/stat` text, in seconds.
///
/// The second field (`comm`) may contain spaces and parentheses, so the
/// numeric fields are counted from the *last* `)`.
pub fn parse_cpu_seconds(stat: &str) -> Option<f64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    // After `comm`: state is field 3, so utime (14) and stime (15) are the
    // 12th and 13th whitespace-separated tokens.
    let mut fields = rest.split_whitespace().skip(11);
    let utime: f64 = fields.next()?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) / USER_HZ)
}

/// This process's peak resident set size in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    parse_vm_hwm_mib(&fs::read_to_string("/proc/self/status").ok()?)
}

/// CPU seconds (user + system, all threads) this process has consumed.
pub fn cpu_seconds() -> Option<f64> {
    parse_cpu_seconds(&fs::read_to_string("/proc/self/stat").ok()?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vm_hwm_is_parsed_from_status_text() {
        let status = "Name:\tbench\nVmPeak:\t  300000 kB\nVmHWM:\t   20480 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_vm_hwm_mib(status), Some(20.0));
        assert_eq!(parse_vm_hwm_mib("Name:\tbench\n"), None);
        assert_eq!(parse_vm_hwm_mib("VmHWM:\t12 MB\n"), None, "unit must be kB");
        assert_eq!(parse_vm_hwm_mib("VmHWM:\tlots kB\n"), None);
    }

    #[test]
    fn cpu_time_survives_a_hostile_comm_field() {
        // pid (comm) state ppid pgrp session tty tpgid flags minflt cminflt
        // majflt cmajflt utime stime ...
        let stat = "42 (a) b) c) S 1 42 42 0 -1 4194304 100 0 0 0 250 50 0 0 20 0 2 0 1 2 3";
        assert_eq!(parse_cpu_seconds(stat), Some(3.0));
        assert_eq!(parse_cpu_seconds("42 (x) S 1 2"), None);
        assert_eq!(parse_cpu_seconds("no parens"), None);
    }

    #[test]
    fn live_readers_see_this_process() {
        let rss = peak_rss_mib().expect("/proc/self/status is readable on Linux");
        assert!(rss > 0.5, "a running test binary holds more than half a MiB ({rss})");
        let before = cpu_seconds().expect("/proc/self/stat is readable on Linux");
        let mut x = 0u64;
        // At least two USER_HZ ticks of work, so the counter must move.
        let t0 = std::time::Instant::now();
        while t0.elapsed().as_millis() < 40 {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
        }
        let after = cpu_seconds().unwrap();
        assert!(after > before, "cpu time must advance ({before} -> {after})");
    }
}
