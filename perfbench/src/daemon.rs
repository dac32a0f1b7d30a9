//! One `dgsd` child process on a Unix socket: spawn, time to the first
//! answered `PING`, resident memory, and a clean stop.

use dgs_serve::{DgsClient, ServeAddr};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// How long a daemon may take to answer its first `PING`.
const START_TIMEOUT: Duration = Duration::from_secs(60);
/// Start-up poll interval: fine enough not to quantize a few-ms
/// `setup_s`.
const POLL: Duration = Duration::from_micros(100);
/// How long a stopped daemon may take to exit before it is killed.
const STOP_TIMEOUT: Duration = Duration::from_secs(10);

pub struct Daemon {
    child: Option<Child>,
    sock: PathBuf,
    pub addr: ServeAddr,
    /// Spawn to first answered `PING`.
    pub setup: Duration,
}

impl Daemon {
    /// Spawns `dgsd` on `graph` and waits for its first `PING`. The
    /// session matches the in-process replicas of the traced run: hash
    /// partition over the workload's sites with `seed`, the default
    /// cache, two request workers.
    pub fn start(dgsd: &Path, graph: &Path, sock: &Path, seed: u64) -> Result<Daemon, String> {
        let _ = std::fs::remove_file(sock);
        let listen = format!("unix:{}", sock.display());
        let addr = ServeAddr::parse(&listen).ok_or_else(|| format!("bad address {listen}"))?;
        let t0 = Instant::now();
        let child = Command::new(dgsd)
            .args(["--listen", &listen, "--graph"])
            .arg(graph)
            .args(["--sites", &crate::workload::SITES.to_string()])
            .args(["--partition", "hash", "--seed", &seed.to_string()])
            .args(["--cache", &crate::workload::CACHE.to_string()])
            .args(["--workers", "2", "--grace", "2000"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", dgsd.display()))?;
        let mut d = Daemon {
            child: Some(child),
            sock: sock.to_path_buf(),
            addr,
            setup: Duration::ZERO,
        };
        loop {
            if let Ok(mut c) = DgsClient::connect(&d.addr) {
                if c.ping().is_ok() {
                    d.setup = t0.elapsed();
                    return Ok(d);
                }
            }
            let child = d.child.as_mut().expect("running daemon");
            if let Ok(Some(status)) = child.try_wait() {
                return Err(format!("dgsd exited during start-up: {status}"));
            }
            if t0.elapsed() > START_TIMEOUT {
                return Err("dgsd did not answer PING within 60 s".into());
            }
            std::thread::sleep(POLL);
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.as_ref().expect("running daemon").id()
    }

    /// Asks the daemon to shut down and waits for it to exit.
    pub fn stop(mut self) -> Result<(), String> {
        let asked = DgsClient::connect(&self.addr).and_then(|c| c.shutdown());
        let mut child = self.child.take().expect("running daemon");
        let t0 = Instant::now();
        let status = loop {
            match child.try_wait() {
                Ok(Some(status)) => break Some(status),
                Ok(None) if t0.elapsed() < STOP_TIMEOUT => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => {
                    let _ = child.kill();
                    let _ = child.wait();
                    break None;
                }
            }
        };
        let _ = std::fs::remove_file(&self.sock);
        match (asked, status) {
            (Ok(()), Some(s)) if s.success() => Ok(()),
            (asked, status) => Err(format!(
                "dgsd did not stop cleanly (shutdown: {asked:?}, exit: {status:?})"
            )),
        }
    }
}

/// Resident memory of process `pid` in MiB, from `/proc/<pid>/statm`
/// (resident pages times a 4 KiB page).
pub fn rss_mb(pid: u32) -> Result<f64, String> {
    let statm = std::fs::read_to_string(format!("/proc/{pid}/statm"))
        .map_err(|e| format!("cannot read statm of dgsd: {e}"))?;
    let pages: u64 = statm
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or("malformed statm")?;
    Ok(pages as f64 * 4096.0 / (1024.0 * 1024.0))
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
            let _ = std::fs::remove_file(&self.sock);
        }
    }
}
