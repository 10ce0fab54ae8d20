//! Process resource readings from Linux `/proc`, taken by a timed child
//! on itself just before it exits: exact peak RSS and CPU time without
//! `unsafe` or a libc binding.

/// Kernel clock ticks per second (`USER_HZ`) of `/proc/<pid>/stat`
/// times. Linux fixes it at 100 on every architecture the project
/// builds for.
const CLOCK_TICKS_PER_SEC: f64 = 100.0;

/// The calling process's peak resident set size (`VmHWM`) in KiB, and its
/// user plus system CPU time in seconds over all of its threads.
pub fn self_usage() -> Result<(u64, f64), String> {
    let read = |path: &str| std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"));
    let hwm = parse_vm_hwm_kb(&read("/proc/self/status")?)
        .ok_or("/proc/self/status has no VmHWM line")?;
    let ticks = parse_cpu_ticks(&read("/proc/self/stat")?).ok_or("/proc/self/stat is malformed")?;
    Ok((hwm, ticks as f64 / CLOCK_TICKS_PER_SEC))
}

/// `VmHWM` in KiB from the text of `/proc/<pid>/status`.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut fields = line["VmHWM:".len()..].split_whitespace();
    let kb = fields.next()?.parse().ok()?;
    (fields.next() == Some("kB")).then_some(kb)
}

/// `utime + stime` in clock ticks from the text of `/proc/<pid>/stat`.
/// The command name (field 2) may hold spaces and parentheses, so the
/// fields are counted from the last `)`: `utime` and `stime` are fields
/// 14 and 15, the 12th and 13th after it.
pub fn parse_cpu_ticks(stat: &str) -> Option<u64> {
    let after_comm = &stat[stat.rfind(')')? + 1..];
    let mut fields = after_comm.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hwm_is_read_from_its_own_line() {
        let status =
            "Name:\tbench_e2e\nVmPeak:\t  900000 kB\nVmHWM:\t   123456 kB\nVmRSS:\t    1000 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(123_456));
        assert_eq!(parse_vm_hwm_kb("VmRSS:\t 1 kB\n"), None);
        assert_eq!(parse_vm_hwm_kb("VmHWM:\t many kB\n"), None);
        assert_eq!(parse_vm_hwm_kb("VmHWM:\t 12 MB\n"), None);
    }

    #[test]
    fn cpu_ticks_skip_a_command_name_with_spaces_and_parens() {
        // pid (comm) state ppid pgrp session tty tpgid flags minflt cminflt
        // majflt cmajflt utime stime cutime cstime ...
        let stat = "4242 (odd ) name) R 1 2 3 4 5 6 7 8 9 10 250 31 99 98 20 0 1 0";
        assert_eq!(parse_cpu_ticks(stat), Some(281));
        assert_eq!(parse_cpu_ticks("4242 (x) R 1 2"), None);
        assert_eq!(parse_cpu_ticks("no parenthesis"), None);
    }

    #[test]
    fn own_usage_is_readable() {
        let (hwm_kb, cpu_s) = self_usage().expect("Linux /proc");
        assert!(hwm_kb > 0);
        assert!(cpu_s >= 0.0);
    }
}
