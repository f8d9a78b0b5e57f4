//! Sample statistics and process counters read from `/proc`.

use std::time::Instant;

/// Nearest-rank percentile of an unsorted sample (`q` in 0..=1).
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// A p99 needs this many samples to leave ten beyond it.
const P99_SAMPLES: usize = 1000;
const P99_PARTS: usize = 3;

/// The median of the p99s of up to three consecutive parts of the samples
/// (in completion order), each part holding at least `P99_SAMPLES`. A stall
/// that hits one part moves this less than it moves the p99 of all samples.
pub fn p99_of_parts(values: &[f64]) -> f64 {
    let parts = (values.len() / P99_SAMPLES).clamp(1, P99_PARTS);
    let size = values.len() / parts;
    let mut p99s: Vec<f64> = (0..parts)
        .map(|part| {
            let end = if part + 1 == parts {
                values.len()
            } else {
                (part + 1) * size
            };
            percentile(&values[part * size..end], 0.99)
        })
        .collect();
    p99s.sort_by(f64::total_cmp);
    if parts % 2 == 1 {
        p99s[parts / 2]
    } else {
        (p99s[parts / 2 - 1] + p99s[parts / 2]) / 2.0
    }
}

pub fn ms_since(earlier: Instant, later: Instant) -> f64 {
    later.saturating_duration_since(earlier).as_secs_f64() * 1e3
}

/// Process user + system CPU seconds, all threads included.
///
/// Fields 14 and 15 of `/proc/self/stat`, in clock ticks of 1/100 s (the
/// Linux `USER_HZ`); the ticks are counted after the command name, which
/// may itself hold spaces.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    let after_name = &stat[stat.rfind(')').expect("stat has a command name") + 2..];
    let fields: Vec<&str> = after_name.split_whitespace().collect();
    // `after_name` starts at field 3 (state), so utime/stime are 11 and 12.
    let ticks: u64 =
        fields[11].parse::<u64>().expect("utime") + fields[12].parse::<u64>().expect("stime");
    ticks as f64 / 100.0
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|value| value.parse().ok())
        .expect("VmHWM in /proc/self/status");
    kib / 1024.0
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Outcome counts and latency samples of one measured phase.
#[derive(Default)]
pub struct Phase {
    /// Requests the generator attempted.
    pub attempted: u64,
    /// Rows that reconstructed and matched the ground truth.
    pub verified: u64,
    /// Rows that reconstructed to the wrong bytes.
    pub wrong: u64,
    /// Requests refused by backpressure.
    pub shed: u64,
    /// Requests that failed with another typed error.
    pub failed: u64,
    /// Queries submitted again after a version-skew failure (a wire query
    /// that straddled two reloads); not counted as attempts.
    pub resubmitted: u64,
    /// Verified answers within the workload's latency limit.
    pub within_limit: u64,
    /// Verified answers completed inside the throughput window.
    pub in_window: u64,
    /// Per-request latency in ms, tagged with whether the request was traced.
    pub latency: Vec<(f64, bool)>,
    /// Generator lateness in ms.
    pub lag: Vec<f64>,
}

impl Phase {
    pub fn errors(&self) -> u64 {
        self.shed + self.failed + self.wrong
    }

    pub fn latencies(&self) -> Vec<f64> {
        self.latency.iter().map(|&(ms, _)| ms).collect()
    }

    /// Traced p50 / untraced p50 − 1, from the alternating trace segments.
    pub fn trace_overhead(&self) -> f64 {
        let pick = |traced: bool| -> Vec<f64> {
            self.latency
                .iter()
                .filter(|&&(_, t)| t == traced)
                .map(|&(ms, _)| ms)
                .collect()
        };
        median(&pick(true)) / median(&pick(false)) - 1.0
    }

    /// Outcome counts summed over phases (latency samples are not merged).
    pub fn totals(phases: &[&Phase]) -> Phase {
        let mut all = Phase::default();
        for phase in phases {
            all.attempted += phase.attempted;
            all.verified += phase.verified;
            all.wrong += phase.wrong;
            all.shed += phase.shed;
            all.failed += phase.failed;
            all.resubmitted += phase.resubmitted;
        }
        all
    }
}

/// CPU and wall clock at the start of a measured interval.
pub struct Meter {
    cpu_s: f64,
    wall: Instant,
}

impl Meter {
    pub fn start() -> Self {
        Self {
            cpu_s: cpu_seconds(),
            wall: Instant::now(),
        }
    }

    /// (process CPU seconds, wall seconds) since [`Meter::start`].
    pub fn read(&self) -> (f64, f64) {
        (
            cpu_seconds() - self.cpu_s,
            self.wall.elapsed().as_secs_f64(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&values, 0.5), 50.0);
        assert_eq!(percentile(&values, 0.99), 99.0);
        assert_eq!(percentile(&values, 1.0), 100.0);
        assert_eq!(percentile(&[3.0], 0.99), 3.0);
    }

    #[test]
    fn p99_of_parts_ignores_a_stall_in_one_part() {
        let mut values = vec![1.0; 3000];
        values[10..50].iter_mut().for_each(|v| *v = 100.0);
        assert_eq!(percentile(&values, 0.99), 100.0);
        assert_eq!(p99_of_parts(&values), 1.0);
        // Too few samples for parts: the plain p99.
        assert_eq!(p99_of_parts(&values[..999]), 100.0);
    }

    #[test]
    fn proc_counters_are_readable() {
        assert!(cpu_seconds() >= 0.0);
        assert!(peak_rss_mb() > 0.0);
    }
}
