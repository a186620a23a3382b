//! The run stamp: what a number was measured on, written beside every result.

use std::path::Path;

use serde_json::{json, Map, Value};

/// Peak resident set size of this process so far (`VmHWM`), in MB; `0.0` where
/// `/proc` is not available.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|line| line.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The filesystem type `path` lives on: the longest mount point of `/proc/self/mounts`
/// that is a prefix of it.
pub fn filesystem_of(path: &Path) -> String {
    let path = std::fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/self/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|line| {
            let mut fields = line.split_whitespace();
            let (_, mount, kind) = (fields.next()?, fields.next()?, fields.next()?);
            path.starts_with(mount).then_some((mount.len(), kind))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".to_string(), |(_, kind)| kind.to_string())
}

/// The git revision of the checkout at `root`, read from its `.git` directory only
/// (never a parent's); `"unknown"` where there is none, as in the driver's checkouts.
pub fn git_revision(root: &Path) -> String {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).unwrap_or_default();
    let head = head.trim();
    let revision = match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(git.join(reference)).unwrap_or_default(),
        None => head.to_string(),
    };
    let revision = revision.trim();
    if revision.is_empty() {
        "unknown".to_string()
    } else {
        revision.to_string()
    }
}

/// The stamp of this run.
pub fn stamp(seed: u64, seconds: f64, shards: usize, durable_dir: &Path) -> Value {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let mut map = Map::new();
    map.insert("seed".into(), json!(seed));
    map.insert("seconds".into(), json!(seconds));
    map.insert("nproc".into(), json!(nproc));
    map.insert("git_revision".into(), json!(git_revision(Path::new("."))));
    map.insert("rustc".into(), json!(env!("BENCH_RUSTC_VERSION")));
    map.insert("shards".into(), json!(shards));
    map.insert("durable_dir".into(), json!(durable_dir.display().to_string()));
    let existing = durable_dir.ancestors().find(|dir| dir.exists()).unwrap_or(Path::new("."));
    map.insert("durable_fs".into(), json!(filesystem_of(existing)));
    Value::Object(map)
}
