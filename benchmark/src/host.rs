//! The host block of the output JSON, and the process's peak memory.

use std::process::Command;

use partstm_analysis::json::Json;

/// Worker threads of every workload: `min(nproc, 4)`.
pub fn worker_threads() -> usize {
    nproc().min(4)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set size of this process in MB (`VmHWM`); 0 where
/// `/proc` does not say.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn cpu_model() -> String {
    let info = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    info.lines()
        .find_map(|l| l.strip_prefix("model name"))
        .and_then(|rest| rest.split_once(':'))
        .map_or_else(|| "unknown".into(), |(_, m)| m.trim().to_string())
}

/// First line of a command's standard output, or "unknown".
fn first_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

/// Comparisons are like-for-like `threads` only.
pub fn host_block(seed: u64) -> Json {
    let s = |x: String| Json::Str(x);
    Json::Obj(vec![
        ("nproc".into(), Json::Num(nproc() as f64)),
        ("threads".into(), Json::Num(worker_threads() as f64)),
        ("cpu".into(), s(cpu_model())),
        ("rustc".into(), s(first_line("rustc", &["--version"]))),
        (
            "git_sha".into(),
            s(first_line("git", &["rev-parse", "HEAD"])),
        ),
        ("seed".into(), Json::Num(seed as f64)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_block_names_the_machine() {
        assert!((1..=4).contains(&worker_threads()));
        let h = host_block(7);
        for key in ["nproc", "threads", "cpu", "rustc", "git_sha", "seed"] {
            assert!(h.get(key).is_some(), "{key}");
        }
        assert!(peak_rss_mb() >= 0.0);
        assert_eq!(first_line("no-such-program-anywhere", &[]), "unknown");
    }
}
