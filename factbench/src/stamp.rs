//! The provenance stamp printed before every result: host, build,
//! source revision, load, seed and the program settings in force.

use act_service::{ClusterConfig, ServeConfig, REPLICATION_FACTOR};

use crate::Ctx;

/// The git revision when the checkout is a git work tree, otherwise
/// `none` (plus a content hash of the sources, which always works).
fn revision() -> String {
    let out = std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output();
    match out {
        Ok(o) if o.status.success() => String::from_utf8_lossy(&o.stdout).trim().to_string(),
        _ => "none".to_string(),
    }
}

/// FNV-1a over every file under `crates/` (sorted paths), so two
/// checkouts of the same sources stamp the same hash.
fn source_hash() -> String {
    fn walk(dir: &std::path::Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(read) = std::fs::read_dir(dir) else {
            return;
        };
        for e in read.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, files);
            } else {
                files.push(p);
            }
        }
    }
    let mut files = Vec::new();
    walk(std::path::Path::new("crates"), &mut files);
    files.push("Cargo.lock".into());
    files.sort();
    let mut text = Vec::new();
    for f in &files {
        text.extend_from_slice(f.to_string_lossy().as_bytes());
        text.extend(std::fs::read(f).unwrap_or_default());
    }
    format!("{:016x}", act_obs::fnv1a64(0xcbf2_9ce4_8422_2325, &text))
}

fn load_average() -> String {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

pub fn provenance(ctx: &Ctx, workload: &str, seconds: f64, trace: bool) -> String {
    let serve = ServeConfig::default();
    let cluster = ClusterConfig::new(vec![String::new(); 2], 0);
    format!(
        "provenance: available_parallelism={} profile={} git_revision={} source_fnv={} \
         load1={} seed={} workload={workload} seconds={seconds} trace={} \
         serve_config=[workers={} queue_capacity={} deadline_ms={:?} max_nodes={} threads={:?} \
         tower_capacity={}] replication_factor={} (default {REPLICATION_FACTOR}) peers=2 \
         wire_rates=[low={}/s high={}/s] latency_limit_ms={} client_attempts=1",
        ctx.nproc,
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        revision(),
        source_hash(),
        load_average(),
        ctx.seed,
        u8::from(trace),
        serve.workers,
        serve.queue_capacity,
        serve.deadline_ms,
        serve.max_nodes,
        serve.threads,
        serve.tower_capacity,
        cluster.replication,
        crate::wire::RATE_LOW,
        crate::wire::RATE_HIGH,
        crate::wire::LATENCY_LIMIT_MS,
    )
}
