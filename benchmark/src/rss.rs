//! Peak resident set size of this process, from `/proc/self/status`.

/// Parses the `VmHWM:` line of a `/proc/<pid>/status` text into MB
/// (the kernel reports kB, meaning KiB).
pub fn parse_vm_hwm_mb(status: &str) -> Option<f64> {
    let rest = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    let mut parts = rest.split_whitespace();
    let kb: f64 = parts.next()?.parse().ok()?;
    (parts.next()? == "kB").then_some(kb / 1024.0)
}

pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    parse_vm_hwm_mb(&status).expect("VmHWM line in /proc/self/status")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_vm_hwm_line() {
        let status =
            "Name:\tncc-benchmark\nVmPeak:\t  200000 kB\nVmHWM:\t   58368 kB\nVmRSS:\t   1024 kB\n";
        assert_eq!(parse_vm_hwm_mb(status), Some(57.0));
        assert_eq!(parse_vm_hwm_mb("VmRSS:\t 1 kB\n"), None);
        assert_eq!(parse_vm_hwm_mb("VmHWM:\t 12 MB\n"), None);
        assert_eq!(parse_vm_hwm_mb("VmHWM:\t many kB\n"), None);
    }

    #[test]
    fn this_process_has_a_peak() {
        assert!(peak_rss_mb() > 0.5);
    }
}
