//! What the numbers were measured on: a result without its host block
//! cannot be compared with another.

use std::path::{Path, PathBuf};

use crate::json::Json;

/// Busy threads a workload may use: never more than the host has, and at
/// most four so results from larger hosts stay comparable.
pub fn p_par() -> usize {
    nproc().min(4)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn read_trimmed(path: &str) -> Option<String> {
    std::fs::read_to_string(path)
        .ok()
        .map(|s| s.trim().to_string())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The commit the benchmark was built from; "unknown" in a checkout that
/// is not a git repository (the driver's is not — and git is not asked,
/// so it does not go looking for one above the checkout).
fn git_sha() -> String {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    if !root.join(".git").exists() {
        return "unknown".into();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .current_dir(root)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// Filesystem type of the mount holding `dir`, from the longest matching
/// mount point in `/proc/self/mountinfo` (msync on tmpfs is not msync on
/// a disk).
fn fs_type(dir: &Path) -> String {
    let dir = dir.canonicalize().unwrap_or_else(|_| dir.to_path_buf());
    let Ok(text) = std::fs::read_to_string("/proc/self/mountinfo") else {
        return "unknown".into();
    };
    text.lines()
        .filter_map(|line| {
            let (left, right) = line.split_once(" - ")?;
            let mount = left.split(' ').nth(4)?;
            let fs = right.split(' ').next()?;
            dir.starts_with(mount)
                .then(|| (mount.len(), fs.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".into(), |(_, fs)| fs)
}

/// Where files the benchmark makes on a filesystem go: `$PPM_TMPDIR` when
/// the caller set it, else a directory under the benchmark's own `out/`,
/// so the benchmark writes nowhere outside its checkout.
pub fn machine_dir() -> PathBuf {
    match std::env::var_os("PPM_TMPDIR") {
        Some(dir) => PathBuf::from(dir),
        None => out_dir().join("tmp"),
    }
}

/// Set for the children of a run whose caller chose `$PPM_TMPDIR`: the
/// workloads' machine files then go there, onto that filesystem.
pub const ON_DISK_ENV: &str = "PPM_E2E_ON_DISK";

extern "C" {
    fn memfd_create(name: *const std::ffi::c_char, flags: std::ffi::c_uint) -> std::ffi::c_int;
}

/// The durable file of one workload trial.
///
/// By default it is an anonymous memory file (`memfd_create`) reached as
/// `/proc/self/fd/<n>`: the program maps, stores, dirty-tracks, `msync`s
/// and reopens it exactly as it would a file on a disk, but no device
/// sits under the page cache. That is the paper's fault model (a process
/// dies, memory stays), and it keeps a shared guest's disk out of the
/// numbers: on the reference host the same trial on ext4 drifted between
/// 0.76 s and 1.37 s within three minutes. The descriptor is inherited
/// by the service workers, so the path means the same file there.
///
/// A caller who wants the device in — `PPM_TMPDIR=/some/disk` — gets a
/// `TempMachineFile` in that directory instead (also the fallback where
/// `memfd_create` or `/proc` is missing).
pub struct MachineFile {
    path: PathBuf,
    /// Closes the descriptor, or removes the file, when the trial ends.
    _backing: Backing,
}

/// Held for their `Drop` only.
#[allow(dead_code)]
enum Backing {
    Memory(std::fs::File),
    Disk(ppm::pm::TempMachineFile),
}

impl MachineFile {
    pub fn new(tag: &str) -> Self {
        if std::env::var_os(ON_DISK_ENV).is_none() {
            if let Some((file, path)) = Self::anonymous(tag) {
                return MachineFile {
                    path,
                    _backing: Backing::Memory(file),
                };
            }
        }
        let disk = ppm::pm::TempMachineFile::new(tag);
        MachineFile {
            path: disk.path().to_path_buf(),
            _backing: Backing::Disk(disk),
        }
    }

    fn anonymous(tag: &str) -> Option<(std::fs::File, PathBuf)> {
        use std::os::fd::{AsRawFd, FromRawFd};
        let name = std::ffi::CString::new(tag).ok()?;
        // SAFETY: `name` is a live NUL-terminated string; flags 0 asks for
        // a descriptor that children inherit.
        let fd = unsafe { memfd_create(name.as_ptr(), 0) };
        if fd < 0 {
            return None;
        }
        // SAFETY: `fd` was just returned to us and nothing else owns it.
        let file = unsafe { std::fs::File::from_raw_fd(fd) };
        let path = PathBuf::from(format!("/proc/self/fd/{}", file.as_raw_fd()));
        path.exists().then_some((file, path))
    }

    pub fn path(&self) -> &Path {
        &self.path
    }

    /// "memfd" or the filesystem type the file is on.
    pub fn kind() -> String {
        if std::env::var_os(ON_DISK_ENV).is_none() && Self::anonymous("probe").is_some() {
            "memfd".into()
        } else {
            fs_type(&machine_dir())
        }
    }
}

pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

pub fn block() -> Json {
    Json::obj([
        ("nproc", Json::Num(nproc() as f64)),
        ("p_par", Json::Num(p_par() as f64)),
        ("cpu_model", Json::Str(cpu_model())),
        (
            "kernel",
            Json::Str(
                read_trimmed("/proc/sys/kernel/osrelease").unwrap_or_else(|| "unknown".into()),
            ),
        ),
        ("git_sha", Json::Str(git_sha())),
        ("machine_file", Json::Str(MachineFile::kind())),
        ("machine_dir_fs", Json::Str(fs_type(&machine_dir()))),
    ])
}

/// Peak resident set of this process so far, in KiB (`VmHWM`).
pub fn vm_hwm_kib() -> f64 {
    status_kib("VmHWM")
}

/// Resident set of this process now, in KiB (`VmRSS`).
pub fn vm_rss_kib() -> f64 {
    status_kib("VmRSS")
}

fn status_kib(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with(field))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0.0)
}
