//! Running the `attrition` binary as the system under test: one-shot
//! commands and servers, with each process's peak resident set taken
//! from the kernel when it is reaped.

use std::io::{BufRead, BufReader, Read};
use std::path::Path;
use std::process::{Child, ChildStderr, Command, Stdio};
use std::time::{Duration, Instant};

/// `struct rusage` of Linux on 64-bit targets: two `timeval`s followed by
/// fourteen `long`s, the first of which is `ru_maxrss` in KiB.
#[repr(C)]
struct RUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut RUsage) -> i32;
}

/// Reap `child` and return (exit status word, peak RSS in MiB). The
/// standard library's `wait` does not report resource usage, so this
/// calls `wait4` directly; the `Child` must not be waited on afterwards.
fn reap(child: &Child) -> std::io::Result<(i32, f64)> {
    let pid = child.id() as i32;
    let mut status = 0i32;
    let mut usage = RUsage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    loop {
        // SAFETY: `status` and `usage` are live, writable locals of the
        // types `wait4` expects (`int *` and `struct rusage *`, whose
        // layout `RUsage` mirrors), and `pid` names our own unreaped child.
        let r = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if r == pid {
            return Ok((status, usage.maxrss as f64 / 1024.0));
        }
        let err = std::io::Error::last_os_error();
        if err.kind() != std::io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
}

/// Result of a one-shot command.
pub struct Finished {
    pub wall_s: f64,
    pub stdout: String,
    pub peak_rss_mb: f64,
}

/// Run `attrition <args>` to completion, timing it from spawn to exit.
pub fn run(attrition: &Path, args: &[String]) -> Result<Finished, String> {
    let started = Instant::now();
    let mut child = Command::new(attrition)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("cannot start {}: {e}", attrition.display()))?;
    let mut stdout = String::new();
    let read = child
        .stdout
        .take()
        .expect("stdout is piped")
        .read_to_string(&mut stdout);
    let (status, peak_rss_mb) = reap(&child).map_err(|e| format!("wait4: {e}"))?;
    read.map_err(|e| format!("reading attrition {}: {e}", args[0]))?;
    let wall_s = started.elapsed().as_secs_f64();
    if status != 0 {
        return Err(format!(
            "attrition {} exited with status {status:#x}",
            args[0]
        ));
    }
    Ok(Finished {
        wall_s,
        stdout,
        peak_rss_mb,
    })
}

/// A running `attrition serve`.
pub struct Server {
    /// `None` once reaped.
    child: Option<Child>,
    stderr: ChildStderr,
    pub addr: String,
    pub spawned: Instant,
}

impl Server {
    /// Spawn `attrition serve <args>` and wait for its `listening on` line.
    pub fn start(attrition: &Path, args: &[String]) -> Result<Server, String> {
        let spawned = Instant::now();
        let mut child = Command::new(attrition)
            .arg("serve")
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", attrition.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let stderr = child.stderr.take().expect("stderr is piped");
        let mut line = String::new();
        let read = BufReader::new(stdout).read_line(&mut line);
        let mut server = Server {
            child: Some(child),
            stderr,
            addr: String::new(),
            spawned,
        };
        match (read, line.trim().strip_prefix("listening on ")) {
            (Ok(_), Some(addr)) => {
                server.addr = addr.to_owned();
                Ok(server)
            }
            _ => {
                let log = server.kill().map(|(log, _)| log).unwrap_or_default();
                Err(format!("attrition serve did not start: {log}"))
            }
        }
    }

    /// SIGKILL the server — a crash, so nothing is written on the way
    /// out — reap it, and return its stderr and peak RSS in MiB.
    #[allow(clippy::zombie_processes)] // `reap` waits for it with wait4
    pub fn kill(mut self) -> Result<(String, f64), String> {
        let mut child = self.child.take().expect("a server is reaped once");
        child
            .kill()
            .map_err(|e| format!("cannot kill attrition serve: {e}"))?;
        let (_, peak) = reap(&child).map_err(|e| format!("wait4: {e}"))?;
        let mut log = String::new();
        let _ = self.stderr.read_to_string(&mut log);
        Ok((log, peak))
    }
}

impl Drop for Server {
    /// A run that stops early still leaves no server behind.
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = reap(&child);
        }
    }
}

/// Connect to a server, retrying briefly while it finishes binding.
pub fn connect(addr: &str) -> Result<std::net::TcpStream, String> {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match std::net::TcpStream::connect(addr) {
            Ok(stream) => {
                stream
                    .set_nodelay(true)
                    .map_err(|e| format!("set_nodelay: {e}"))?;
                return Ok(stream);
            }
            Err(e) if Instant::now() > deadline => return Err(format!("connect {addr}: {e}")),
            Err(_) => std::thread::sleep(Duration::from_millis(2)),
        }
    }
}
