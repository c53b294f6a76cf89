//! The run's file root, the wall-clock cap, and the provenance header.

use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Directory, relative to the working directory, under which each run
/// keeps every file it writes (warm logs, spill pages, temp files).
pub const RUN_DIR: &str = ".solvebench-run";

/// One run's private directory. Removed on drop, so also when the run
/// unwinds from a panic.
pub struct RunRoot {
    path: PathBuf,
}

impl RunRoot {
    /// Creates `<cwd>/.solvebench-run/<pid>` and points `TMPDIR` into it,
    /// so every temp file the program makes stays inside the run root.
    pub fn create() -> std::io::Result<Self> {
        let path = std::env::current_dir()?
            .join(RUN_DIR)
            .join(std::process::id().to_string());
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(path.join("tmp"))?;
        std::env::set_var("TMPDIR", path.join("tmp"));
        Ok(Self { path })
    }

    /// The root directory.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// A fresh, empty subdirectory of the root.
    pub fn subdir(&self, name: &str) -> PathBuf {
        let dir = self.path.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }
}

impl Drop for RunRoot {
    fn drop(&mut self) {
        remove_run_dir(&self.path);
    }
}

/// Removes a run directory, and the shared parent once it is empty.
fn remove_run_dir(path: &Path) {
    let _ = std::fs::remove_dir_all(path);
    if let Some(parent) = path.parent() {
        let _ = std::fs::remove_dir(parent);
    }
}

/// A hard wall-clock cap: if the run is not finished when it expires,
/// the watchdog prints why, removes the run root and exits with code 3
/// instead of letting the run hang.
pub struct Watchdog {
    done: Option<mpsc::Sender<()>>,
    thread: Option<JoinHandle<()>>,
}

impl Watchdog {
    /// Arms the cap for `what`.
    pub fn arm(what: String, cap: Duration, root: PathBuf) -> Self {
        let (done, rx) = mpsc::channel::<()>();
        let thread = std::thread::Builder::new()
            .name("solvebench-watchdog".into())
            .spawn(move || {
                if let Err(mpsc::RecvTimeoutError::Timeout) = rx.recv_timeout(cap) {
                    eprintln!(
                        "solvebench: {what} did not finish within its {} s wall-clock cap; aborting",
                        cap.as_secs()
                    );
                    remove_run_dir(&root);
                    std::process::exit(3);
                }
            })
            .expect("spawn watchdog");
        Self {
            done: Some(done),
            thread: Some(thread),
        }
    }
}

impl Drop for Watchdog {
    fn drop(&mut self) {
        drop(self.done.take());
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    status_kib("VmHWM:") as f64 / 1024.0
}

fn status_kib(field: &str) -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(field))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0)
}

/// The CPU model name from `/proc/cpuinfo`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Filesystem type of the mount holding `path` (longest mount-point
/// prefix in `/proc/self/mountinfo`).
pub fn fs_type(path: &Path) -> String {
    let Ok(info) = std::fs::read_to_string("/proc/self/mountinfo") else {
        return "unknown".into();
    };
    let mut best: Option<(usize, String)> = None;
    for line in info.lines() {
        let fields: Vec<&str> = line.split(' ').collect();
        let Some(sep) = fields.iter().position(|f| *f == "-") else {
            continue;
        };
        let (Some(mount), Some(fstype)) = (fields.get(4), fields.get(sep + 1)) else {
            continue;
        };
        if path.starts_with(mount) && best.as_ref().is_none_or(|(len, _)| mount.len() >= *len) {
            best = Some((mount.len(), fstype.to_string()));
        }
    }
    best.map_or_else(|| "unknown".into(), |(_, t)| t)
}

/// The checked-out git commit if the working directory is a git
/// repository, else `none`.
pub fn git_commit() -> String {
    let Ok(head) = std::fs::read_to_string(".git/HEAD") else {
        return "none".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(id) = std::fs::read_to_string(Path::new(".git").join(reference)) {
        return id.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|refs| {
            refs.lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "none".into())
}

/// FNV-1a digest of every file under `crates/` and `shims/` (paths and
/// contents, in sorted order): identifies the measured source when the
/// checkout carries no git metadata.
pub fn source_digest() -> String {
    let mut files = Vec::new();
    for dir in ["crates", "shims"] {
        collect_files(Path::new(dir), &mut files);
    }
    files.sort();
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for file in &files {
        eat(file.to_string_lossy().as_bytes());
        eat(&std::fs::read(file).unwrap_or_default());
    }
    format!("{hash:016x}")
}

fn collect_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        match entry.file_type() {
            Ok(t) if t.is_dir() && path.file_name().is_some_and(|n| n != "target") => {
                collect_files(&path, out);
            }
            Ok(t) if t.is_file() => out.push(path),
            _ => {}
        }
    }
}
