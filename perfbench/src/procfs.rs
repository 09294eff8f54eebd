//! Readers for the few `/proc` figures the benchmark reports: the
//! process's peak resident set, its CPU time, and the host's steal
//! time. Each reader is a pure parser over the file's text plus a thin
//! wrapper that reads the live file, so the parsers are tested against
//! fixture strings.

/// Clock ticks per second of `/proc` time fields (`USER_HZ`). Linux
/// fixes it at 100 on every architecture the workspace builds for.
pub const USER_HZ: f64 = 100.0;

/// `VmHWM` (peak resident set) in KiB from the text of
/// `/proc/<pid>/status`.
pub fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kib| kib.parse().ok())
}

/// User plus system CPU seconds of a process (all its threads, live
/// and exited) from the text of `/proc/<pid>/stat`.
pub fn parse_process_cpu_s(stat: &str) -> Option<f64> {
    // The command name (field 2) is parenthesised and may hold spaces
    // or parentheses itself; fields resume after the last ')'.
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // `rest` starts at field 3 (state); utime and stime are fields 14
    // and 15.
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) as f64 / USER_HZ)
}

/// Host-wide steal seconds (summed over CPUs) from the text of
/// `/proc/stat`: the eighth value of the aggregate `cpu` line.
pub fn parse_steal_s(stat: &str) -> Option<f64> {
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    let steal: u64 = line.split_whitespace().nth(8)?.parse().ok()?;
    Some(steal as f64 / USER_HZ)
}

fn read(path: &str) -> Option<String> {
    std::fs::read_to_string(path).ok()
}

/// This process's peak resident set, MiB.
pub fn peak_rss_mib() -> Option<f64> {
    parse_vm_hwm_kib(&read("/proc/self/status")?).map(|kib| kib as f64 / 1024.0)
}

/// This process's CPU time so far, seconds.
pub fn process_cpu_s() -> Option<f64> {
    parse_process_cpu_s(&read("/proc/self/stat")?)
}

/// Host steal time so far, seconds.
pub fn steal_s() -> Option<f64> {
    parse_steal_s(&read("/proc/stat")?)
}

#[cfg(test)]
mod tests {
    use super::*;

    const STATUS: &str = "Name:\tperfbench\nUmask:\t0022\nState:\tR (running)\n\
VmPeak:\t  812344 kB\nVmSize:\t  812340 kB\nVmHWM:\t  409616 kB\nVmRSS:\t  398100 kB\nThreads:\t3\n";

    #[test]
    fn vm_hwm_is_read_in_kib() {
        assert_eq!(parse_vm_hwm_kib(STATUS), Some(409_616));
        assert_eq!(parse_vm_hwm_kib("Name:\tx\nVmRSS:\t12 kB\n"), None);
    }

    #[test]
    fn process_cpu_survives_odd_command_names() {
        // pid (comm) state ppid pgrp sid tty tpgid flags minflt
        // cminflt majflt cmajflt utime stime ...
        let stat = "4242 (perf bench (x)) R 1 4242 4242 0 -1 4194304 9000 0 3 0 \
                    1234 66 0 0 20 0 3 0 100 812340000 100000 18446744073709551615";
        assert_eq!(parse_process_cpu_s(stat), Some(13.0));
        assert_eq!(parse_process_cpu_s("4242 (short) R 1 2"), None);
    }

    #[test]
    fn steal_is_the_eighth_cpu_value() {
        let stat = "cpu  232113 0 13868 4845663 529 0 177 17636 0 0\n\
                    cpu0 116000 0 6900 2422000 260 0 90 8800 0 0\nintr 1 2 3\n";
        assert_eq!(parse_steal_s(stat), Some(176.36));
        assert_eq!(parse_steal_s("intr 1 2 3\n"), None);
    }

    #[test]
    fn live_files_parse_here() {
        assert!(peak_rss_mib().expect("VmHWM") > 0.0);
        assert!(process_cpu_s().expect("process stat") >= 0.0);
        assert!(steal_s().expect("host stat") >= 0.0);
    }
}
