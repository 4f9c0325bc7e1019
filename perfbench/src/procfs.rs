//! Readers for the few `/proc` figures the benchmark records: this
//! process's fault and CPU-time counters, its peak resident set, and the
//! host's steal time. Parsers take the file text so they can be tested on
//! fixed inputs; the `read_*` wrappers return zeros where `/proc` is
//! unavailable rather than failing the run.

/// Kernel clock ticks per second for the `/proc` tick counters
/// (`USER_HZ`, fixed at 100 by the Linux ABI on every mainstream port).
pub const TICKS_PER_S: f64 = 100.0;

/// Counters from `/proc/self/stat`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProcStat {
    /// Minor page faults.
    pub minflt: u64,
    /// User CPU time, in ticks.
    pub utime: u64,
    /// System CPU time, in ticks.
    pub stime: u64,
}

impl ProcStat {
    /// Counter growth since an earlier reading.
    pub fn since(&self, earlier: &ProcStat) -> ProcStat {
        ProcStat {
            minflt: self.minflt.saturating_sub(earlier.minflt),
            utime: self.utime.saturating_sub(earlier.utime),
            stime: self.stime.saturating_sub(earlier.stime),
        }
    }

    /// System CPU time in seconds.
    pub fn sys_s(&self) -> f64 {
        self.stime as f64 / TICKS_PER_S
    }
}

/// Parse `/proc/<pid>/stat`. The command name (field 2) is parenthesised
/// and may itself hold spaces or parentheses, so fields are counted from
/// the last `)`.
pub fn parse_stat(text: &str) -> Option<ProcStat> {
    let rest = &text[text.rfind(')')? + 1..];
    // `rest` starts at field 3 (state); field k sits at index k - 3.
    let f: Vec<&str> = rest.split_whitespace().collect();
    let field = |k: usize| f.get(k - 3)?.parse::<u64>().ok();
    Some(ProcStat {
        minflt: field(10)?,
        utime: field(14)?,
        stime: field(15)?,
    })
}

/// Parse the `VmHWM` (peak resident set) line of `/proc/<pid>/status`,
/// in KiB.
pub fn parse_vm_hwm_kib(text: &str) -> Option<u64> {
    let line = text.lines().find(|l| l.starts_with("VmHWM:"))?;
    line["VmHWM:".len()..]
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// Parse the host-wide steal ticks (8th value of the aggregate `cpu`
/// line) from `/proc/stat`.
pub fn parse_steal_ticks(text: &str) -> Option<u64> {
    let line = text.lines().find(|l| l.starts_with("cpu "))?;
    line.split_whitespace().nth(8)?.parse().ok()
}

fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_default()
}

/// This process's counters now.
pub fn read_stat() -> ProcStat {
    parse_stat(&read("/proc/self/stat")).unwrap_or_default()
}

/// This process's peak resident set so far, in MB (10^6 bytes).
pub fn read_peak_rss_mb() -> f64 {
    parse_vm_hwm_kib(&read("/proc/self/status")).unwrap_or(0) as f64 * 1024.0 / 1e6
}

/// Host steal ticks so far.
pub fn read_steal_ticks() -> u64 {
    parse_steal_ticks(&read("/proc/stat")).unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_are_counted_from_the_last_paren() {
        // A command name with a space and a parenthesis must not shift
        // the fields.
        let text = "4242 (perf bench) x) R 1 4242 4242 0 -1 4194304 57850 0 3 0 \
                    1234 56 0 0 20 0 1 0 100 1000000 500 18446744073709551615";
        let s = parse_stat(text).expect("parse");
        assert_eq!(
            s,
            ProcStat {
                minflt: 57850,
                utime: 1234,
                stime: 56,
            }
        );
        assert!((s.sys_s() - 0.56).abs() < 1e-12);
        assert_eq!(parse_stat("garbage"), None);
        assert_eq!(parse_stat("1 (x) R 1 2"), None, "truncated line");
    }

    #[test]
    fn stat_deltas_saturate() {
        let a = ProcStat {
            minflt: 10,
            utime: 5,
            stime: 7,
        };
        let b = ProcStat {
            minflt: 25,
            utime: 9,
            stime: 7,
        };
        assert_eq!(b.since(&a).minflt, 15);
        assert_eq!(a.since(&b), ProcStat::default());
    }

    #[test]
    fn vm_hwm_line() {
        let text =
            "Name:\tperfbench\nVmPeak:\t  200000 kB\nVmHWM:\t   51200 kB\nVmRSS:\t 40000 kB\n";
        assert_eq!(parse_vm_hwm_kib(text), Some(51200));
        assert_eq!(parse_vm_hwm_kib("Name:\tx\n"), None);
    }

    #[test]
    fn steal_is_the_eighth_cpu_value() {
        let text = "cpu  65073 0 6107 1709937 252 0 207 5028 0 0\n\
                    cpu0 29425 0 4112 856669 232 0 155 3937 0 0\n";
        assert_eq!(parse_steal_ticks(text), Some(5028));
        assert_eq!(parse_steal_ticks("cpu0 1 2 3\n"), None);
    }

    #[test]
    fn live_readers_see_this_process() {
        // On Linux the live files exist and this test process has faulted
        // at least once and holds some resident memory.
        if std::path::Path::new("/proc/self/stat").exists() {
            assert!(read_stat().minflt > 0);
            assert!(read_peak_rss_mb() > 0.0);
        }
    }
}
