//! Host and thread accounting from `/proc`, read at the start and end
//! of a measured phase so that a run slowed by other tenants of the
//! host (CPU steal) can be told apart from a slower program.

use std::collections::BTreeMap;
use std::fs;

/// `/proc` reports process times in USER_HZ ticks, fixed at 100 per
/// second by the kernel ABI.
const NS_PER_TICK: u64 = 10_000_000;

fn read(path: &str) -> String {
    fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"))
}

/// User plus system CPU time of the whole process, exited threads
/// included, in nanoseconds.
pub fn process_cpu_ns() -> u64 {
    let stat = read("/proc/self/stat");
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th fields of the line.
    let rest = &stat[stat.rfind(')').expect("stat has a comm field") + 2..];
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks: u64 = f[11].parse::<u64>().expect("utime") + f[12].parse::<u64>().expect("stime");
    ticks * NS_PER_TICK
}

/// Peak resident set size of the process (VmHWM), in bytes.
pub fn peak_rss_bytes() -> u64 {
    let status = read("/proc/self/status");
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .expect("status has VmHWM");
    let kib: u64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .expect("VmHWM value");
    kib * 1024
}

/// On-CPU time of each live thread, by thread id: `(name, ns)`.
pub fn threads() -> BTreeMap<u64, (String, u64)> {
    let mut out = BTreeMap::new();
    let Ok(dir) = fs::read_dir("/proc/self/task") else {
        return out;
    };
    for entry in dir.flatten() {
        let Some(tid) = entry.file_name().to_str().and_then(|s| s.parse().ok()) else {
            continue;
        };
        let base = entry.path();
        // A thread may exit between the listing and these reads.
        let (Ok(comm), Ok(sched)) = (
            fs::read_to_string(base.join("comm")),
            fs::read_to_string(base.join("schedstat")),
        ) else {
            continue;
        };
        let ns = sched
            .split_whitespace()
            .next()
            .and_then(|v| v.parse().ok())
            .unwrap_or(0);
        out.insert(tid, (comm.trim().to_string(), ns));
    }
    out
}

/// CPU time per thread name spent between two [`threads`] readings.
/// Threads born after `before` count in full; threads that exited
/// before `after` are lost, so read `after` while the threads of
/// interest are still alive.
pub fn cpu_by_name(
    before: &BTreeMap<u64, (String, u64)>,
    after: &BTreeMap<u64, (String, u64)>,
) -> BTreeMap<String, u64> {
    let mut out = BTreeMap::new();
    for (tid, (name, ns)) in after {
        let base = before.get(tid).map_or(0, |(_, b)| *b);
        *out.entry(name.clone()).or_insert(0) += ns.saturating_sub(base);
    }
    out
}

/// The host's aggregate CPU ticks: `(steal, total)`.
pub fn host_ticks() -> (u64, u64) {
    let stat = read("/proc/stat");
    let line = stat.lines().next().expect("/proc/stat has a cpu line");
    let f: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .filter_map(|v| v.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice];
    // guest time is already inside user, so only the first eight count.
    let total = f.iter().take(8).sum();
    (f.get(7).copied().unwrap_or(0), total)
}

/// Steal as a share of all host ticks between two [`host_ticks`]
/// readings, in percent.
pub fn steal_pct(before: (u64, u64), after: (u64, u64)) -> f64 {
    let total = after.1.saturating_sub(before.1);
    if total == 0 {
        return 0.0;
    }
    100.0 * after.0.saturating_sub(before.0) as f64 / total as f64
}
