//! The `mvrobust serve` child process the service phase drives.

use mvservice::{Client, CodecKind};
use std::io::{BufRead, BufReader};
use std::os::unix::process::CommandExt;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::OnceLock;
use std::time::Duration;

/// How long any one request may take before it counts as failed.
pub const REQUEST_TIMEOUT: Duration = Duration::from_secs(30);
/// Records between the server's snapshots (`serve --snapshot-every`).
pub const SNAPSHOT_EVERY: u64 = 1024;

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    fn sysconf(name: i32) -> i64;
    fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
}

/// `PR_SET_PDEATHSIG` and `SIGKILL` on Linux.
const PR_SET_PDEATHSIG: i32 = 1;
const SIGKILL: u64 = 9;

/// `_SC_CLK_TCK` on Linux.
const SC_CLK_TCK: i32 = 2;

/// A CPU affinity mask of up to 1024 CPUs (a `cpu_set_t`).
type CpuMask = [u64; 16];

fn current_mask() -> CpuMask {
    let mut mask = [0u64; 16];
    // SAFETY: `mask` is a cpu_set_t of the size passed.
    unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    mask
}

/// Applies `mask` to the calling thread and the threads it spawns later.
fn set_mask(mask: &CpuMask) {
    // SAFETY: `mask` is a cpu_set_t of the size passed.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(mask), mask.as_ptr()) };
}

/// The one CPU the server and the client thread share while the
/// service is driven: the lowest CPU this process may use. Left to the
/// scheduler, the two land on one CPU in some runs and on two in
/// others; a cross-CPU wake-up costs about 20 µs on a 2-CPU VM, so
/// request latency came out bimodal between runs.
fn svc_mask() -> CpuMask {
    static MASK: OnceLock<CpuMask> = OnceLock::new();
    *MASK.get_or_init(|| {
        let all = current_mask();
        let mut one = [0u64; 16];
        if let Some(w) = all.iter().position(|&w| w != 0) {
            one[w] = 1 << all[w].trailing_zeros();
        }
        one
    })
}

/// Keeps the calling thread on the service CPU until dropped, then
/// restores its previous affinity.
pub struct Pinned(CpuMask);

impl Pinned {
    pub fn to_service_cpu() -> Pinned {
        let saved = current_mask();
        set_mask(&svc_mask());
        Pinned(saved)
    }
}

impl Drop for Pinned {
    fn drop(&mut self) {
        set_mask(&self.0);
    }
}

/// A running durable server; killed and reaped on drop.
pub struct ServerProc {
    child: Child,
    pub addr: String,
}

impl ServerProc {
    /// Starts `serve --data-dir dir --durability batch --codec binary
    /// --snapshot-every SNAPSHOT_EVERY`
    /// on an ephemeral port and waits for its `listening on` banner.
    pub fn spawn(bin: &Path, dir: &Path) -> Result<ServerProc, String> {
        let mut cmd = Command::new(bin);
        let mask = svc_mask();
        // SAFETY: the hook makes two async-signal-safe syscalls between
        // fork and exec: every server thread inherits the CPU mask, and
        // the server is killed if the benchmark dies without reaping it.
        unsafe {
            cmd.pre_exec(move || {
                set_mask(&mask);
                prctl(PR_SET_PDEATHSIG, SIGKILL, 0, 0, 0);
                Ok(())
            });
        }
        let mut child = cmd
            .args(["serve", "--addr", "127.0.0.1:0", "--durability", "batch"])
            .args(["--codec", "binary", "--snapshot-every"])
            .arg(SNAPSHOT_EVERY.to_string())
            .arg("--data-dir")
            .arg(dir)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("starting {}: {e}", bin.display()))?;
        let mut banner = String::new();
        let read =
            BufReader::new(child.stdout.take().expect("stdout is piped")).read_line(&mut banner);
        let addr = match read {
            Ok(n) if n > 0 => banner
                .strip_prefix("listening on ")
                .and_then(|rest| rest.split_whitespace().next())
                .map(str::to_string),
            _ => None,
        };
        match addr {
            Some(addr) => Ok(ServerProc { child, addr }),
            None => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!("server printed no banner (got {banner:?})"))
            }
        }
    }

    /// One closed-loop binary-codec connection.
    pub fn connect(&self) -> Result<Client, String> {
        let mut client = Client::connect_with(self.addr.as_str(), CodecKind::Frame)
            .map_err(|e| format!("connecting to {}: {e}", self.addr))?;
        client
            .set_timeout(Some(REQUEST_TIMEOUT))
            .map_err(|e| e.to_string())?;
        Ok(client)
    }

    /// Peak resident set size of the server process, in MiB.
    pub fn peak_rss_mb(&self) -> f64 {
        peak_rss_mb(&format!("/proc/{}/status", self.child.id()))
    }

    /// User plus system CPU time the server has used, in seconds.
    pub fn cpu_seconds(&self) -> f64 {
        let stat =
            std::fs::read_to_string(format!("/proc/{}/stat", self.child.id())).unwrap_or_default();
        // Fields after the parenthesised command name; utime and stime
        // are the 14th and 15th fields of the whole line.
        let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
        let ticks: f64 = rest
            .split_whitespace()
            .skip(11)
            .take(2)
            .filter_map(|f| f.parse::<f64>().ok())
            .sum();
        // SAFETY: sysconf only reads a configuration value.
        let hz = unsafe { sysconf(SC_CLK_TCK) }.max(1) as f64;
        ticks / hz
    }

    /// Kills the process (a crash, from the store's point of view) and
    /// reaps it.
    pub fn kill(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        self.stop();
    }
}

/// `VmHWM` of a `/proc/<pid>/status` file, in MiB (0 if unreadable).
pub fn peak_rss_mb(status: &str) -> f64 {
    std::fs::read_to_string(status)
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Total bytes of the regular files directly inside `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// A fresh, empty directory at `path`.
pub fn fresh_dir(path: PathBuf) -> Result<PathBuf, String> {
    let _ = std::fs::remove_dir_all(&path);
    std::fs::create_dir_all(&path).map_err(|e| format!("creating {}: {e}", path.display()))?;
    Ok(path)
}
