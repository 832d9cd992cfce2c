//! The host fingerprint every result carries, and process memory.

use std::path::Path;
use std::process::Command;

use crate::json::Json;

/// Caps `HS_NUM_THREADS` at the core count before the tensor pool reads
/// it, so no run oversubscribes the host. Call before any kernel runs.
pub fn cap_pool_threads() {
    let nproc = nproc();
    let requested = std::env::var("HS_NUM_THREADS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok());
    if requested.is_some_and(|n| n > nproc) {
        std::env::set_var("HS_NUM_THREADS", nproc.to_string());
    }
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn avx2_fma() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::is_x86_feature_detected!("avx2") && std::is_x86_feature_detected!("fma")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The checkout's commit; `unknown` outside a git work tree. Git may not
/// search above the current directory.
fn git_commit() -> String {
    let cwd = std::env::current_dir().unwrap_or_default();
    let ceiling = cwd.parent().unwrap_or(Path::new("/")).to_path_buf();
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .env("GIT_CEILING_DIRECTORIES", ceiling)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The fingerprint: core count, tensor-pool width, the thread override,
/// AVX2+FMA, CPU model, compiler and commit.
pub fn fingerprint() -> Json {
    Json::obj([
        ("nproc", Json::Num(nproc() as f64)),
        (
            "effective_threads",
            Json::Num(hs_tensor::pool::effective_threads() as f64),
        ),
        (
            "hs_num_threads",
            Json::Str(std::env::var("HS_NUM_THREADS").unwrap_or_else(|_| "unset".into())),
        ),
        ("avx2_fma", Json::Bool(avx2_fma())),
        ("cpu_model", Json::Str(cpu_model())),
        (
            "rustc",
            Json::Str(env!("HSBENCH_RUSTC_VERSION").to_string()),
        ),
        ("git_commit", Json::Str(git_commit())),
    ])
}

/// The process's peak resident memory in MB (`VmHWM`); `0` where the
/// kernel does not report it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
