//! What the run measured on: the host record, plus the process and
//! system counters read from `/proc`.

use std::process::Command;

/// Worker count the host offers this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Process CPU time (user + system) in milliseconds, from
/// `/proc/self/stat` (clock ticks at the usual 100 Hz).
pub fn process_cpu_ms() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = &stat[stat.rfind(')')? + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) * 10.0)
}

/// Peak resident set size in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Host-wide steal ticks so far (the aggregate `cpu` line of `/proc/stat`).
pub fn steal_ticks() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    line.split_whitespace().nth(8)?.parse().ok()
}

/// One-minute load average.
pub fn loadavg() -> Option<f64> {
    std::fs::read_to_string("/proc/loadavg")
        .ok()?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// The host record every result carries, as `(key, value)` pairs.
pub fn record() -> Vec<(&'static str, String)> {
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let cpu_max = std::fs::read_to_string("/sys/fs/cgroup/cpu.max")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unavailable".into());
    let rustc = command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into());
    let commit = command_line("git", &["rev-parse", "HEAD"])
        .unwrap_or_else(|| "unavailable (not a git checkout)".into());
    vec![
        ("nproc", nproc().to_string()),
        ("cpu_model", cpu_model),
        ("cgroup_cpu_max", cpu_max),
        ("rustc", rustc),
        ("git_commit", commit),
    ]
}

/// Counters sampled at the start and end of a run, so a disturbed host
/// shows in the record.
#[derive(Debug, Clone, Copy)]
pub struct Noise {
    pub steal_ticks: Option<u64>,
    pub loadavg: Option<f64>,
}

impl Noise {
    pub fn sample() -> Self {
        Noise {
            steal_ticks: steal_ticks(),
            loadavg: loadavg(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readers_parse_this_process() {
        assert!(nproc() >= 1);
        assert!(process_cpu_ms().is_some_and(|ms| ms >= 0.0));
        assert!(peak_rss_mb().is_some_and(|mb| mb > 0.0));
        assert!(loadavg().is_some_and(|l| l >= 0.0));
        assert!(steal_ticks().is_some());
    }
}
