//! CPU time and peak memory of one process, and the machine's
//! hypervisor steal counter, from `/proc`.

/// Kernel clock ticks per second for `/proc/<pid>/stat` times. Linux
/// reports `USER_HZ`, which is 100 on every supported architecture.
const USER_HZ: f64 = 100.0;

/// utime + stime of process `pid` (all its threads, live and exited), in
/// seconds.
pub fn cpu_seconds(pid: u32) -> Result<f64, String> {
    let path = format!("/proc/{pid}/stat");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    // Fields after the parenthesised command name (which may hold
    // spaces); utime and stime are fields 14 and 15 of the whole line.
    let rest = text
        .rsplit_once(')')
        .map(|(_, rest)| rest)
        .ok_or_else(|| format!("{path}: no command field"))?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|v| v.parse::<u64>().ok())
            .map(|v| v as f64 / USER_HZ)
            .ok_or_else(|| format!("{path}: field {} unreadable", i + 3))
    };
    Ok(tick(11)? + tick(12)?)
}

/// Ticks the hypervisor stole from this machine's CPUs so far, summed
/// over CPUs (`steal` of the `cpu` line of `/proc/stat`).
pub fn steal_ticks() -> Result<u64, String> {
    let text = std::fs::read_to_string("/proc/stat").map_err(|e| format!("/proc/stat: {e}"))?;
    text.lines()
        .next()
        .and_then(|line| line.strip_prefix("cpu "))
        .and_then(|rest| rest.split_whitespace().nth(7))
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| "/proc/stat: no steal field".into())
}

/// Readings taken at every interval boundary of a timed phase.
#[derive(Debug, Default)]
pub struct Readings {
    /// CPU seconds of the analysing process.
    pub cpu: Vec<f64>,
    /// The machine's steal counter.
    pub steal: Vec<u64>,
}

impl Readings {
    /// Takes one reading for process `pid`.
    pub fn take(&mut self, pid: u32) -> Result<(), String> {
        self.cpu.push(cpu_seconds(pid)?);
        self.steal.push(steal_ticks()?);
        Ok(())
    }

    /// Readings taken so far.
    pub fn len(&self) -> usize {
        self.cpu.len()
    }

    /// How the timed phase went: stolen time, the intervals measured and
    /// the latency samples they held.
    pub fn describe(&self, iv: &crate::stats::Intervals, latency_samples: usize) -> String {
        let stolen =
            self.steal.last().copied().unwrap_or(0) - self.steal.first().copied().unwrap_or(0);
        format!(
            "{:.2} s stolen by the hypervisor; medians over {} of {} intervals of {:.2} s \
             (warm-up and most-stolen excluded), {latency_samples} latency samples",
            stolen as f64 / USER_HZ,
            iv.quiet(&self.steal).len(),
            iv.count,
            iv.step.as_secs_f64()
        )
    }

    /// CPU seconds spent in interval `k`.
    pub fn cpu_in(&self, k: usize) -> f64 {
        self.cpu[k + 1] - self.cpu[k]
    }
}

/// `VmHWM` (peak resident set) of process `pid`, in megabytes.
pub fn peak_rss_mb(pid: u32) -> Result<f64, String> {
    let path = format!("/proc/{pid}/status");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    text.lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<u64>().ok())
        .map(|kb| kb as f64 / 1024.0)
        .ok_or_else(|| format!("{path}: no VmHWM"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn own_process_is_readable() {
        let pid = std::process::id();
        let mut x = 0u64;
        for i in 0..2_000_000u64 {
            x = x.wrapping_mul(31).wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(x);
        assert!(cpu_seconds(pid).expect("stat") >= 0.0);
        assert!(peak_rss_mb(pid).expect("status") > 0.0);
        steal_ticks().expect("stat");
    }
}
