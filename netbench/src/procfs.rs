//! What the benchmark reads from `/proc`: process and per-thread CPU time,
//! peak memory, and the host stamp.

use std::collections::BTreeMap;
use std::fs;
use std::path::Path;

/// Linux reports `utime`/`stime` in clock ticks of 1/100 s on every
/// architecture this runs on (`USER_HZ`).
const TICK_US: f64 = 10_000.0;

/// `utime + stime` from a `stat` line, in ticks. The command name may hold
/// spaces or parentheses, so fields are counted from the last `)`.
fn stat_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // `rest` starts at field 3 (state); utime and stime are fields 14, 15.
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some(utime + stime)
}

/// CPU time this process has used so far, user plus system, in µs.
pub fn process_cpu_us() -> f64 {
    let stat = fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    stat_ticks(&stat).expect("parse /proc/self/stat") as f64 * TICK_US
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

/// CPU time of every live thread: tid → (name, µs).
pub fn thread_cpu() -> BTreeMap<u64, (String, f64)> {
    let mut out = BTreeMap::new();
    let Ok(dir) = fs::read_dir("/proc/self/task") else {
        return out;
    };
    for entry in dir.flatten() {
        let Ok(tid) = entry.file_name().to_string_lossy().parse::<u64>() else {
            continue;
        };
        let path = entry.path();
        let comm = fs::read_to_string(path.join("comm")).unwrap_or_default();
        // A thread may exit between listing and reading; skip it.
        let Some(ticks) = fs::read_to_string(path.join("stat"))
            .ok()
            .and_then(|s| stat_ticks(&s))
        else {
            continue;
        };
        out.insert(tid, (comm.trim().to_string(), ticks as f64 * TICK_US));
    }
    out
}

/// The thread groups of the per-layer breakdown, by thread-name prefix.
pub const THREAD_GROUPS: [(&str, &str); 6] = [
    ("caller", "bench-caller"),
    ("reactor", "netobj-reactor"),
    ("worker", "rpc-worker"),
    ("demux", "rpc-demux"),
    ("cleanup", "netobj-cleanup"),
    // The main thread: waits for the callers and, in a traced run,
    // drains the span rings.
    ("harness", "netbench"),
];

/// Busy time between two [`thread_cpu`] readings, grouped by
/// [`THREAD_GROUPS`]; threads that match no group come back by name. A
/// thread that started in between counts from zero.
pub fn busy_by_group(
    before: &BTreeMap<u64, (String, f64)>,
    after: &BTreeMap<u64, (String, f64)>,
) -> (BTreeMap<&'static str, f64>, BTreeMap<String, f64>) {
    let mut groups: BTreeMap<&'static str, f64> =
        THREAD_GROUPS.iter().map(|(g, _)| (*g, 0.0)).collect();
    let mut other: BTreeMap<String, f64> = BTreeMap::new();
    for (tid, (name, us)) in after {
        let busy = us - before.get(tid).map_or(0.0, |(_, b)| *b);
        match THREAD_GROUPS.iter().find(|(_, p)| name.starts_with(p)) {
            Some((g, _)) => *groups.get_mut(g).expect("group listed") += busy,
            None => *other.entry(name.clone()).or_default() += busy,
        }
    }
    (groups, other)
}

/// Where a result was measured. Two results compare only when every field
/// but `git_rev` matches.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HostStamp {
    pub nproc: usize,
    pub cpu: String,
    pub kernel: String,
    pub rustc: String,
    pub git_rev: String,
}

impl HostStamp {
    pub fn read() -> HostStamp {
        let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
        let cpu = fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find_map(|l| l.strip_prefix("model name"))
                    .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        let kernel = fs::read_to_string("/proc/sys/kernel/osrelease")
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".into());
        let rustc = std::process::Command::new(std::env::var("RUSTC").unwrap_or("rustc".into()))
            .arg("-V")
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".into());
        HostStamp {
            nproc,
            cpu,
            kernel,
            rustc,
            git_rev: git_rev(Path::new(".git")).unwrap_or_else(|| "unknown".into()),
        }
    }

    pub fn to_json(&self) -> String {
        format!(
            "{{\"nproc\": {}, \"cpu\": {}, \"kernel\": {}, \"rustc\": {}, \"git_rev\": {}}}",
            self.nproc,
            json_str(&self.cpu),
            json_str(&self.kernel),
            json_str(&self.rustc),
            json_str(&self.git_rev)
        )
    }

    /// The fields in which `other` differs, ignoring the commit.
    pub fn differences(&self, other: &HostStamp) -> Vec<&'static str> {
        let mut d = Vec::new();
        if self.nproc != other.nproc {
            d.push("nproc");
        }
        if self.cpu != other.cpu {
            d.push("cpu");
        }
        if self.kernel != other.kernel {
            d.push("kernel");
        }
        if self.rustc != other.rustc {
            d.push("rustc");
        }
        d
    }
}

/// The commit checked out in the working directory, read from `.git`
/// directly; `None` outside a git checkout.
fn git_rev(git: &Path) -> Option<String> {
    let head = fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(name) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(rev) = fs::read_to_string(git.join(name)) {
        return Some(rev.trim().to_string());
    }
    let packed = fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|l| {
        let (rev, r) = l.split_once(' ')?;
        (r == name).then(|| rev.to_string())
    })
}

pub fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_after_a_name_with_spaces() {
        let line = "42 (a (b) c) S 1 2 3 4 5 6 7 8 9 10 123 45 0 0 20 0 1 0";
        assert_eq!(stat_ticks(line), Some(168));
    }
}
