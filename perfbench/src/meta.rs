//! Hardware and build metadata stamped on every result, and the process
//! memory readings behind `peak_rss_mib`.

use grasp_core::json::Json;
use std::path::Path;
use std::process::Command;

/// Describes the machine and build a result was measured on.
pub fn metadata(seed: u64, workers: usize) -> Json {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let cpu = cpuinfo
        .lines()
        .find(|line| line.starts_with("model name"))
        .and_then(|line| line.split_once(':'))
        .map_or("unknown", |(_, model)| model.trim());
    let meminfo = std::fs::read_to_string("/proc/meminfo").unwrap_or_default();
    let mem_kib = kib_field(&meminfo, "MemTotal:").unwrap_or(0);
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".to_owned(), |s| s.trim().to_owned());
    Json::object([
        ("seed", Json::integer(seed)),
        ("nproc", Json::integer(nproc as u64)),
        ("workers", Json::integer(workers as u64)),
        ("cpu_model", Json::string(cpu)),
        ("mem_total_mib", Json::integer(mem_kib / 1024)),
        ("kernel", Json::string(kernel)),
        ("rustc", Json::string(command_line("rustc", &["-V"]))),
        (
            "git_commit",
            Json::string(command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("source_fnv", Json::string(format!("{:016x}", source_fnv()))),
    ])
}

/// First line of a command's standard output, or `unavailable`.
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| {
            String::from_utf8(out.stdout)
                .ok()
                .and_then(|s| s.lines().next().map(str::to_owned))
        })
        .unwrap_or_else(|| "unavailable".to_owned())
}

/// FNV-1a over the paths and bytes of every file under `crates/` and the
/// benchmark's `src/`, in sorted order: identifies the measured source even
/// in a checkout that is not a git repository.
fn source_fnv() -> u64 {
    let mut files = Vec::new();
    for root in ["crates", "perfbench/src"] {
        collect_files(Path::new(root), &mut files);
    }
    files.sort();
    let mut hash = crate::FNV_OFFSET;
    for file in files {
        hash = crate::fnv1a(hash, file.to_string_lossy().as_bytes());
        hash = crate::fnv1a(hash, &std::fs::read(&file).unwrap_or_default());
    }
    hash
}

fn collect_files(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        match entry.file_type() {
            Ok(kind) if kind.is_dir() => collect_files(&path, out),
            Ok(kind) if kind.is_file() => out.push(path),
            _ => {}
        }
    }
}

fn kib_field(text: &str, key: &str) -> Option<u64> {
    text.lines()
        .find(|line| line.starts_with(key))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()
}

/// Peak resident set (`VmHWM`) of process `pid` (`self` for this one), MiB.
pub fn peak_rss_mib(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    kib_field(&status, "VmHWM:").map(|kib| kib as f64 / 1024.0)
}

/// Resets this process's peak-resident-set mark to its current resident
/// set, so `peak_rss_mib("self")` afterwards covers only what follows (set-up
/// allocations and earlier repetitions are not charged to the next timed
/// campaign). Free heap memory is first handed back to the kernel, so the
/// mark starts from what is live rather than from whatever the allocator
/// happened to retain. A kernel that refuses the reset leaves the mark
/// covering the whole process life.
pub fn reset_peak_rss() {
    release_free_heap();
    std::fs::write("/proc/self/clear_refs", "5").ok();
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn release_free_heap() {
    extern "C" {
        fn malloc_trim(pad: usize) -> std::os::raw::c_int;
    }
    // SAFETY: glibc's `malloc_trim` only returns free pages of the malloc
    // arenas to the kernel; it takes no pointers and is thread-safe.
    unsafe {
        malloc_trim(0);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn release_free_heap() {}

/// Total bytes of the trace-store entries directly under `dir`: the store
/// is flat, and its advisory `index.tsv` (last-used timestamps) and hidden
/// temporary files are left out, so equal contents give equal sizes.
pub fn store_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter(|e| {
                    let name = e.file_name();
                    let name = name.to_string_lossy();
                    name != "index.tsv" && !name.starts_with('.')
                })
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}
