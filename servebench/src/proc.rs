//! Launching, probing and stopping `anc` processes.
//!
//! Every child is owned by a [`Child`]-holding guard whose `Drop` kills and
//! reaps it, so an early error return never leaves a server behind.

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use anc_server::{Request, Response, WireClient};

/// How long a launched server may take to answer its first request.
const READY_TIMEOUT: Duration = Duration::from_secs(120);
/// Poll interval while waiting for the address file and the first `Pong`.
const READY_POLL: Duration = Duration::from_millis(2);
/// Linux `USER_HZ`: the unit of the CPU times in `/proc/<pid>/stat`.
const CLOCK_TICKS: f64 = 100.0;

/// Runs `anc <args>` to completion, sending its output to `log`.
pub fn run_anc(anc: &Path, args: &[&str], log: &Path) -> Result<(), String> {
    let out = std::fs::File::create(log).map_err(|e| format!("cannot create {log:?}: {e}"))?;
    let err = out.try_clone().map_err(|e| e.to_string())?;
    let status = Command::new(anc)
        .args(args)
        .stdin(Stdio::null())
        .stdout(out)
        .stderr(err)
        .status()
        .map_err(|e| format!("cannot start {anc:?}: {e}"))?;
    if status.success() {
        Ok(())
    } else {
        Err(format!("anc {} failed ({status}); see {log:?}", args.join(" ")))
    }
}

/// A running `anc serve` process.
pub struct Server {
    child: std::process::Child,
    /// The address the server bound.
    pub addr: SocketAddr,
}

impl Server {
    /// Starts `anc serve <args>` on an ephemeral port and returns once it
    /// has answered a `Ping`, together with the seconds that took.
    pub fn launch(anc: &Path, args: &[&str], work: &Path, tag: &str) -> Result<Server, String> {
        let addr_file: PathBuf = work.join(format!("{tag}.addr"));
        let _ = std::fs::remove_file(&addr_file);
        let log = work.join(format!("{tag}.log"));
        let out = std::fs::File::create(&log).map_err(|e| format!("cannot create {log:?}: {e}"))?;
        let err = out.try_clone().map_err(|e| e.to_string())?;
        let addr_arg = addr_file.to_string_lossy().into_owned();
        let child = Command::new(anc)
            .arg("serve")
            .args(args)
            .args(["--bind", "127.0.0.1:0", "--addr-file", &addr_arg])
            .stdin(Stdio::null())
            .stdout(out)
            .stderr(err)
            .spawn()
            .map_err(|e| format!("cannot start {anc:?}: {e}"))?;
        let mut server = Server { child, addr: SocketAddr::from(([127, 0, 0, 1], 0)) };
        let deadline = Instant::now() + READY_TIMEOUT;
        loop {
            if let Some(status) = server.child.try_wait().map_err(|e| e.to_string())? {
                return Err(format!("anc serve exited during start-up ({status}); see {log:?}"));
            }
            if Instant::now() > deadline {
                return Err(format!("anc serve not ready after {READY_TIMEOUT:?}; see {log:?}"));
            }
            // The address file is written after bind, possibly in pieces.
            if let Ok(text) = std::fs::read_to_string(&addr_file) {
                if let Ok(addr) = text.trim().parse::<SocketAddr>() {
                    server.addr = addr;
                    if let Ok(mut c) = WireClient::connect(addr) {
                        if matches!(c.call(&Request::Ping), Ok(Response::Pong)) {
                            return Ok(server);
                        }
                    }
                }
            }
            std::thread::sleep(READY_POLL);
        }
    }

    /// The process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Peak resident set size (`VmHWM`) in MB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/status", self.pid());
        let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        let line = status
            .lines()
            .find(|l| l.starts_with("VmHWM:"))
            .ok_or_else(|| format!("{path}: no VmHWM"))?;
        let kb: f64 = line
            .split_whitespace()
            .nth(1)
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| format!("{path}: bad VmHWM line {line:?}"))?;
        Ok(kb / 1024.0)
    }

    /// User plus system CPU seconds the process has used so far.
    pub fn cpu_s(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/stat", self.pid());
        let stat = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        // Fields after the parenthesised command name; utime and stime are
        // the 14th and 15th fields of the whole line.
        let rest = stat.rsplit_once(')').map(|(_, r)| r).ok_or("bad /proc stat")?;
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let ticks = |i: usize| -> Result<f64, String> {
            fields
                .get(i)
                .and_then(|v| v.parse::<f64>().ok())
                .ok_or_else(|| format!("{path}: field {i}"))
        };
        Ok((ticks(11)? + ticks(12)?) / CLOCK_TICKS)
    }

    /// Asks the server to shut down over the wire and waits for it to exit.
    pub fn shutdown(mut self) -> Result<(), String> {
        let mut c = WireClient::connect(self.addr).map_err(|e| e.to_string())?;
        match c.call(&Request::Shutdown) {
            Ok(Response::ShuttingDown) => {}
            other => return Err(format!("shutdown answered {other:?}")),
        }
        let status = self.child.wait().map_err(|e| e.to_string())?;
        if status.success() {
            Ok(())
        } else {
            Err(format!("anc serve exited with {status}"))
        }
    }

    /// Kills the server with SIGKILL (a crash) and reaps it.
    pub fn kill(mut self) -> Result<(), String> {
        self.child.kill().map_err(|e| e.to_string())?;
        self.child.wait().map_err(|e| e.to_string())?;
        Ok(())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}
