//! Hypervisor steal: CPU time the host gave to other guests while this
//! guest wanted to run. It is a property of the host, not of the program;
//! every run notes its share so a disturbed run can be told apart.

/// `(steal, total)` CPU jiffies from `/proc/stat` (zeros when unreadable).
pub fn jiffies() -> (u64, u64) {
    let Ok(stat) = std::fs::read_to_string("/proc/stat") else {
        return (0, 0);
    };
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    (fields.get(7).copied().unwrap_or(0), fields.iter().sum())
}

/// Share of CPU time stolen between two [`jiffies`] samples.
pub fn share(before: (u64, u64), after: (u64, u64)) -> f64 {
    let total = after.1.saturating_sub(before.1);
    if total == 0 {
        return 0.0;
    }
    after.0.saturating_sub(before.0) as f64 / total as f64
}
