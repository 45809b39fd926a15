//! The benchmark's own measuring tools: percentiles over raw samples,
//! process memory and per-thread CPU read from `/proc`, and a digest of
//! the decisions a run received. Nothing here reads the program's
//! instruments, so later changes to those cannot move these numbers.

use std::collections::BTreeMap;

/// Nearest-rank percentile (`p` in `[0, 1]`) of `values`; 0 when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of `values` (nearest rank); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// The share of a run's rounds, fastest first, that its timing metrics
/// are read from. The host's contention episodes last seconds and only
/// ever slow a round down, so the fastest rounds show the program's own
/// speed, while a change to the program's speed moves them as it moves
/// every round.
pub const FAST_SHARE: f64 = 0.1;

/// What a duration (or latency) per round reads in the fastest
/// [`FAST_SHARE`] of rounds: that quantile, lower being faster.
pub fn fast_time(per_round: &[f64]) -> f64 {
    percentile(per_round, FAST_SHARE)
}

/// What a rate per round reads in the fastest [`FAST_SHARE`] of rounds.
pub fn fast_rate(per_round: &[f64]) -> f64 {
    percentile(per_round, 1.0 - FAST_SHARE)
}

/// A latency sample set, printed as p50/p90/p99 with the sample count
/// and the number of samples beyond p99.
pub struct Latencies {
    pub p50: f64,
    pub p90: f64,
    pub p99: f64,
    pub count: usize,
}

impl Latencies {
    pub fn of(samples: &[f64]) -> Latencies {
        Latencies {
            p50: percentile(samples, 0.5),
            p90: percentile(samples, 0.9),
            p99: percentile(samples, 0.99),
            count: samples.len(),
        }
    }

    /// One report line; p99 is printed for the record but not gated.
    pub fn line(&self, what: &str) -> String {
        format!(
            "{what}: p50 {:.1} us  p90 {:.1} us  p99 {:.1} us  ({} samples, {} beyond p99)",
            self.p50,
            self.p90,
            self.p99,
            self.count,
            self.count / 100
        )
    }
}

/// A `kB` field of `/proc/self/status` (`VmHWM`, `VmRSS`); 0 when the
/// file or field is missing.
pub fn status_kb(field: &str) -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

/// CPU time per live thread of this process: tid → (name, on-CPU ns),
/// from `/proc/self/task/*/{comm,schedstat}`.
pub type ThreadCpu = BTreeMap<u64, (String, u64)>;

pub fn thread_cpu() -> ThreadCpu {
    let mut out = ThreadCpu::new();
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return out;
    };
    for task in tasks.flatten() {
        let Some(tid) = task.file_name().to_str().and_then(|s| s.parse().ok()) else {
            continue;
        };
        let path = task.path();
        let comm = std::fs::read_to_string(path.join("comm")).unwrap_or_default();
        let ns = std::fs::read_to_string(path.join("schedstat"))
            .ok()
            .and_then(|s| s.split_whitespace().next()?.parse().ok())
            .unwrap_or(0);
        out.insert(tid, (comm.trim().to_string(), ns));
    }
    out
}

/// CPU seconds spent between two samples by the threads whose name
/// starts with `prefix` (thread names are cut to 15 bytes by Linux).
pub fn cpu_between(before: &ThreadCpu, after: &ThreadCpu, prefix: &str) -> f64 {
    after
        .iter()
        .filter(|(_, (name, _))| name.starts_with(prefix))
        .map(|(tid, (_, ns))| ns.saturating_sub(before.get(tid).map_or(0, |b| b.1)))
        .sum::<u64>() as f64
        / 1e9
}

/// CPU seconds the main thread (the load thread) spent between two
/// samples.
pub fn main_thread_cpu(before: &ThreadCpu, after: &ThreadCpu) -> f64 {
    let tid = u64::from(std::process::id());
    let ns = |s: &ThreadCpu| s.get(&tid).map_or(0, |t| t.1);
    ns(after).saturating_sub(ns(before)) as f64 / 1e9
}

/// Words of a Linux `cpu_set_t` (1024 CPUs).
const CPU_SET_WORDS: usize = 16;

/// A set of CPUs a thread may run on.
#[derive(Clone, Copy)]
pub struct CpuSet([u64; CPU_SET_WORDS]);

impl CpuSet {
    /// The lowest CPU of the set.
    pub fn first(&self) -> Option<CpuSet> {
        let word = self.0.iter().position(|&w| w != 0)?;
        let mut one = [0; CPU_SET_WORDS];
        one[word] = self.0[word] & self.0[word].wrapping_neg();
        Some(CpuSet(one))
    }
}

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// The CPUs thread `tid` may run on; `None` when it cannot be read.
pub fn affinity(tid: u64) -> Option<CpuSet> {
    let mut set = CpuSet([0; CPU_SET_WORDS]);
    let tid = i32::try_from(tid).ok()?;
    // SAFETY: the mask points at a buffer of exactly the size passed.
    let rc = unsafe { sched_getaffinity(tid, std::mem::size_of_val(&set.0), set.0.as_mut_ptr()) };
    (rc == 0).then_some(set)
}

/// Restricts thread `tid` to `set`; false when that failed.
pub fn set_affinity(tid: u64, set: &CpuSet) -> bool {
    let Ok(tid) = i32::try_from(tid) else {
        return false;
    };
    // SAFETY: the mask points at a buffer of exactly the size passed.
    unsafe { sched_setaffinity(tid, std::mem::size_of_val(&set.0), set.0.as_ptr()) == 0 }
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// FNV-1a over a stream of integers: two runs received identical
/// decisions exactly when their digests match.
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn add(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn value(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.9), 90.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }
}
