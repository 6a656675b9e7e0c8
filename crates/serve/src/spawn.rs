//! Spawning and supervising `cobra-serve` worker processes.
//!
//! The sharded topology is real multi-process: the `cobra-router`
//! binary and the multi-shard test harness both launch genuine
//! `cobra-serve` children (OS-assigned ports, their own data dirs) and
//! wait for the readiness line the daemon prints on stdout. This module
//! is that shared mechanism.

use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, Command, Stdio};

/// A supervised worker child. Dropping it kills (SIGKILL) and reaps the
/// process — use [`quit`](Self::quit) for a graceful draining stop.
pub struct WorkerProcess {
    child: Child,
    stdin: Option<ChildStdin>,
    addr: String,
}

impl WorkerProcess {
    /// The address the worker reported in its readiness line.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// OS process id — handy for out-of-band `kill -9` in tests.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Hard-kills the worker (SIGKILL on unix: no drain, no flush —
    /// exactly the crash the WAL recovery path is built for) and reaps
    /// it so it cannot linger as a zombie.
    pub fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }

    /// Graceful stop: asks the daemon to drain via its stdin `quit`
    /// command and waits for exit.
    pub fn quit(mut self) {
        if let Some(stdin) = &mut self.stdin {
            let _ = stdin.write_all(b"quit\n");
        }
        let _ = self.child.wait();
    }
}

impl Drop for WorkerProcess {
    fn drop(&mut self) {
        self.kill();
    }
}

/// Locates the `cobra-serve` binary next to the current executable —
/// the layout both for installed binaries (`cobra-router` ships beside
/// `cobra-serve`) and for cargo test/bench executables (which live one
/// directory below the binaries, in `target/<profile>/deps`).
pub fn find_worker_binary() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let dir = exe
        .parent()
        .ok_or_else(|| "executable has no parent directory".to_string())?;
    let mut candidates = vec![dir.join("cobra-serve")];
    if let Some(parent) = dir.parent() {
        candidates.push(parent.join("cobra-serve"));
    }
    for candidate in &candidates {
        if candidate.exists() {
            return Ok(candidate.clone());
        }
    }
    Err(format!(
        "cobra-serve binary not found (looked at {})",
        candidates
            .iter()
            .map(|p| p.display().to_string())
            .collect::<Vec<_>>()
            .join(", ")
    ))
}

/// Spawns `binary` with `args` and blocks until it prints its
/// `listening on ADDR` readiness line. The child's stdout keeps being
/// drained by a background thread so the daemon never blocks on a full
/// pipe; stderr is inherited (recovery logs stay visible).
pub fn spawn_worker(binary: &Path, args: &[String]) -> Result<WorkerProcess, String> {
    let mut child = Command::new(binary)
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawning {}: {e}", binary.display()))?;
    let stdin = child.stdin.take();
    let stdout = child
        .stdout
        .take()
        .ok_or_else(|| "spawned worker has no stdout".to_string())?;
    let mut lines = BufReader::new(stdout).lines();
    let addr = loop {
        match lines.next() {
            Some(Ok(line)) => {
                if let Some(addr) = line.strip_prefix("listening on ") {
                    break addr.trim().to_string();
                }
            }
            Some(Err(e)) => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("reading worker stdout: {e}"));
            }
            None => {
                let _ = child.wait();
                return Err("worker exited before printing its readiness line".to_string());
            }
        }
    };
    std::thread::Builder::new()
        .name("worker-stdout-drain".into())
        .spawn(move || for _ in lines {})
        .map_err(|e| format!("stdout drain thread: {e}"))?;
    Ok(WorkerProcess { child, stdin, addr })
}

/// The daemon side of [`WorkerProcess::quit`]: blocks until `quit` or
/// `shutdown` arrives on stdin. Stdin closing without either (a daemon
/// started with `< /dev/null`) blocks for good: the process then serves
/// until it is killed.
pub fn await_quit() {
    let mut lines = std::io::stdin().lock().lines().map_while(Result::ok);
    if !lines.any(|line| matches!(line.trim(), "quit" | "shutdown")) {
        loop {
            std::thread::park();
        }
    }
}
