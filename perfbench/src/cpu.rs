//! CPU accounting from outside the program: per-thread CPU time and
//! run-queue wait from Linux schedstat files.
//!
//! `/proc/<pid>/task/<tid>/schedstat` holds three numbers: nanoseconds on
//! CPU, nanoseconds runnable but waiting for a CPU, and timeslices. Threads
//! are grouped by the prefix of their `comm` name, which the kernel cuts to
//! 15 bytes: mailroom workers show as `mailroom-worker`, bank producers as
//! `bank-producer-N`.

use std::fs;

/// CPU and run-queue time of one thread or group, in nanoseconds.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Cpu {
    /// Time on a CPU.
    pub cpu_ns: u64,
    /// Time runnable but waiting for a CPU.
    pub runq_ns: u64,
}

impl Cpu {
    /// `self - earlier`, saturating.
    pub fn since(self, earlier: Cpu) -> Cpu {
        Cpu {
            cpu_ns: self.cpu_ns.saturating_sub(earlier.cpu_ns),
            runq_ns: self.runq_ns.saturating_sub(earlier.runq_ns),
        }
    }
}

fn parse(text: &str) -> Option<Cpu> {
    let mut fields = text.split_whitespace().map(|f| f.parse::<u64>().ok());
    Some(Cpu {
        cpu_ns: fields.next()??,
        runq_ns: fields.next()??,
    })
}

/// The calling thread's counters; `None` where schedstat is missing.
pub fn this_thread() -> Option<Cpu> {
    parse(&fs::read_to_string("/proc/thread-self/schedstat").ok()?)
}

/// Sums the counters of this process's threads whose name starts with each
/// prefix; `None` where schedstat is missing.
pub fn threads_by_prefix(prefixes: &[&str]) -> Option<Vec<Cpu>> {
    let mut sums = vec![Cpu::default(); prefixes.len()];
    for entry in fs::read_dir("/proc/self/task").ok()? {
        let dir = entry.ok()?.path();
        // A thread may exit between listing and reading; skip it.
        let Ok(comm) = fs::read_to_string(dir.join("comm")) else {
            continue;
        };
        let Some(i) = prefixes.iter().position(|p| comm.starts_with(p)) else {
            continue;
        };
        let Ok(stat) = fs::read_to_string(dir.join("schedstat")) else {
            continue;
        };
        let cpu = parse(&stat)?;
        sums[i].cpu_ns += cpu.cpu_ns;
        sums[i].runq_ns += cpu.runq_ns;
    }
    Some(sums)
}

/// Peak resident set size of this process in MiB (`VmHWM`), 0 if unknown.
pub fn rss_peak_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_schedstat_lines() {
        assert_eq!(
            parse("123 456 7\n"),
            Some(Cpu {
                cpu_ns: 123,
                runq_ns: 456
            })
        );
        assert_eq!(parse("garbage"), None);
        let later = Cpu {
            cpu_ns: 10,
            runq_ns: 5,
        };
        let earlier = Cpu {
            cpu_ns: 4,
            runq_ns: 9,
        };
        assert_eq!(
            later.since(earlier),
            Cpu {
                cpu_ns: 6,
                runq_ns: 0
            }
        );
    }
}
