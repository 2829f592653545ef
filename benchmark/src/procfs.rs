//! Process CPU time and memory, read from `/proc/self` (the workspace has
//! no libc binding, and the kernel's text files need none).

use std::time::Duration;

/// `USER_HZ`: the unit of the CPU times in `/proc/<pid>/stat`. Fixed at 100
/// by the Linux ABI on every architecture this runs on.
const TICKS_PER_SECOND: f64 = 100.0;

/// User + system CPU time of the whole process (all threads) so far.
pub fn cpu_time() -> Duration {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    Duration::from_secs_f64(cpu_ticks(&stat) / TICKS_PER_SECOND)
}

/// utime + stime out of a `/proc/<pid>/stat` line. The command name (field
/// 2) may hold spaces and parentheses, so fields are counted from the last
/// `)`: utime and stime are fields 14 and 15.
fn cpu_ticks(stat: &str) -> f64 {
    let after_comm = &stat[stat.rfind(')').expect("stat has a command field") + 1..];
    let mut fields = after_comm.split_ascii_whitespace().skip(11);
    let mut tick = || -> f64 {
        fields
            .next()
            .and_then(|f| f.parse().ok())
            .expect("stat has utime and stime")
    };
    tick() + tick()
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    status_kib("VmHWM:") / 1024.0
}

/// Current resident set size (`VmRSS`) in bytes.
pub fn rss_bytes() -> f64 {
    status_kib("VmRSS:") * 1024.0
}

fn status_kib(key: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    parse_status_kib(&status, key).unwrap_or_else(|| panic!("{key} missing from status"))
}

fn parse_status_kib(status: &str, key: &str) -> Option<f64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))?
        .split_ascii_whitespace()
        .next()?
        .parse()
        .ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_fields_are_found_past_a_hostile_command_name() {
        let stat = "1234 (a b) c) S 1 2 3 4 5 6 7 8 9 10 250 50 0 0 20 0 3 0";
        assert_eq!(cpu_ticks(stat), 300.0);
    }

    #[test]
    fn status_values_are_in_kib() {
        let status = "Name:\tx\nVmHWM:\t  2048 kB\nVmRSS:\t  1024 kB\n";
        assert_eq!(parse_status_kib(status, "VmHWM:"), Some(2048.0));
        assert_eq!(parse_status_kib(status, "VmRSS:"), Some(1024.0));
        assert_eq!(parse_status_kib(status, "VmSwap:"), None);
    }

    #[test]
    fn live_readings_are_positive() {
        assert!(peak_rss_mib() > 0.0);
        assert!(rss_bytes() > 0.0);
        let _ = cpu_time();
    }
}
