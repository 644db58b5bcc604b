//! Machine fingerprint printed with every result.

use std::path::Path;

fn read_trim(path: impl AsRef<Path>) -> Option<String> {
    std::fs::read_to_string(path)
        .ok()
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|s| s.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// `(release, host target)` from `rustc -vV`.
fn rustc() -> (String, String) {
    let out = std::process::Command::new("rustc").arg("-vV").output();
    let text = out
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).into_owned())
        .unwrap_or_default();
    let field = |key: &str| {
        text.lines()
            .find_map(|l| l.strip_prefix(key))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|| "unknown".into())
    };
    (field("release:"), field("host:"))
}

/// Filesystem type of the mount holding `dir` (longest mount-point prefix).
fn filesystem_of(dir: &Path) -> String {
    let abs = std::fs::canonicalize(dir).unwrap_or_else(|_| dir.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_dev, mount, fstype) = (f.next()?, f.next()?, f.next()?);
            abs.starts_with(mount)
                .then(|| (mount.len(), fstype.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map(|(_, fs)| fs)
        .unwrap_or_else(|| "unknown".into())
}

/// The commit of the checkout, when it is a git work tree.
fn git_commit() -> String {
    let head = match read_trim(".git/HEAD") {
        Some(h) => h,
        None => return "none (not a git checkout)".into(),
    };
    match head.strip_prefix("ref: ") {
        Some(r) => read_trim(Path::new(".git").join(r)).unwrap_or(head),
        None => head,
    }
}

/// One line describing the machine and build the numbers came from.
pub fn line(wal_dir: &Path) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let (rustc, target) = rustc();
    let governor = read_trim("/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor")
        .unwrap_or_else(|| "unreadable".into());
    format!(
        "fingerprint: nproc={nproc} cpu=\"{}\" rustc={rustc} target={target} pool_threads={} \
         governor={governor} wal_fs={} commit={}",
        cpu_model(),
        ucad_pool::global().threads(),
        filesystem_of(wal_dir),
        git_commit()
    )
}
