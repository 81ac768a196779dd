//! Process and thread accounting read from `/proc/self`, plus the
//! percentile helpers every metric uses.

use std::collections::BTreeMap;
use std::path::Path;

/// One thread's counters at a point in time.
#[derive(Clone, Debug, Default)]
pub struct ThreadStat {
    pub name: String,
    /// Time on CPU, nanoseconds (`schedstat` field 1).
    pub cpu_ns: u64,
    /// Voluntary plus involuntary context switches (`status`).
    pub switches: u64,
}

/// Every live thread of this process, keyed by thread id.
pub fn threads() -> BTreeMap<u32, ThreadStat> {
    let mut out = BTreeMap::new();
    let Ok(entries) = std::fs::read_dir("/proc/self/task") else {
        return out;
    };
    for entry in entries.flatten() {
        let Some(tid) = entry.file_name().to_str().and_then(|s| s.parse().ok()) else {
            continue;
        };
        let dir = entry.path();
        let name = read(&dir.join("comm")).trim().to_string();
        let cpu_ns = read(&dir.join("schedstat"))
            .split_whitespace()
            .next()
            .and_then(|v| v.parse().ok())
            .unwrap_or(0);
        let switches = read(&dir.join("status"))
            .lines()
            .filter(|l| {
                l.starts_with("voluntary_ctxt_switches")
                    || l.starts_with("nonvoluntary_ctxt_switches")
            })
            .filter_map(|l| l.split_whitespace().nth(1)?.parse::<u64>().ok())
            .sum();
        out.insert(
            tid,
            ThreadStat {
                name,
                cpu_ns,
                switches,
            },
        );
    }
    out
}

/// CPU and context-switch deltas between two [`threads`] captures,
/// summed over threads whose name starts with `prefix`. Threads born
/// after `before` count from zero.
pub fn delta(
    before: &BTreeMap<u32, ThreadStat>,
    after: &BTreeMap<u32, ThreadStat>,
    prefix: &str,
) -> (u64, u64) {
    let (mut cpu, mut switches) = (0, 0);
    for (tid, now) in after {
        if !now.name.starts_with(prefix) {
            continue;
        }
        let then = before.get(tid).cloned().unwrap_or_default();
        cpu += now.cpu_ns.saturating_sub(then.cpu_ns);
        switches += now.switches.saturating_sub(then.switches);
    }
    (cpu, switches)
}

/// A CPU set as `sched_{get,set}affinity` take it: 1024 bits.
type CpuMask = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuMask) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuMask) -> i32;
}

/// Pins the calling thread, and every thread it spawns afterwards, to the
/// last CPU it may run on; the first one often takes most device
/// interrupts. Returns that CPU, or `None` if the affinity calls fail and
/// the process goes on unpinned.
pub fn pin_to_one_cpu() -> Option<usize> {
    let size = std::mem::size_of::<CpuMask>();
    let mut allowed: CpuMask = [0; 16];
    // SAFETY: `allowed` is a live, writable buffer of exactly `size`
    // bytes, and pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, size, &mut allowed) } != 0 {
        return None;
    }
    let cpu = (0..size * 8).rfind(|&c| allowed[c / 64] >> (c % 64) & 1 == 1)?;
    let mut one: CpuMask = [0; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a live buffer of exactly `size` bytes, and pid 0
    // names the calling thread.
    (unsafe { sched_setaffinity(0, size, &one) } == 0).then_some(cpu)
}

/// The calling thread's time on CPU, nanoseconds.
pub fn own_cpu_ns() -> u64 {
    read(Path::new("/proc/thread-self/schedstat"))
        .split_whitespace()
        .next()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// Peak resident set size (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    read(Path::new("/proc/self/status"))
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// File-system type of the mount holding `path` (longest matching mount
/// point in `/proc/self/mountinfo`).
pub fn fs_type(path: &Path) -> String {
    let Ok(path) = path.canonicalize() else {
        return "unknown".into();
    };
    let mut best = (0usize, "unknown".to_string());
    for line in read(Path::new("/proc/self/mountinfo")).lines() {
        let fields: Vec<&str> = line.split_whitespace().collect();
        let Some(sep) = fields.iter().position(|f| *f == "-") else {
            continue;
        };
        let (Some(mount), Some(fs)) = (fields.get(4), fields.get(sep + 1)) else {
            continue;
        };
        if path.starts_with(mount) && mount.len() >= best.0 {
            best = (mount.len(), fs.to_string());
        }
    }
    best.1
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_default()
}

/// Nearest-rank percentile of `values` (`p` in 0..=1); sorts in place.
/// Zero for an empty slice.
pub fn percentile(values: &mut [f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let rank = (p * values.len() as f64).ceil() as usize;
    values[rank.clamp(1, values.len()) - 1]
}

/// The median of `values`.
pub fn median(values: &mut [f64]) -> f64 {
    percentile(values, 0.5)
}

/// Mean of the middle half of `values` (a quarter dropped from each end);
/// sorts in place. Zero for an empty slice.
pub fn interquartile_mean(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let cut = values.len() / 4;
    let middle = &values[cut..values.len() - cut];
    middle.iter().sum::<f64>() / middle.len().max(1) as f64
}
