//! The deployed stack in a process of its own.
//!
//! `serving serve` is the child: it generates the workload's graph, stands up
//! `DurableEngine` on `FsStorage` → `Server::bind_durable` on `127.0.0.1:0`
//! with every option at its default, and reports its address on stdout. The
//! driver talks to it only over loopback TCP and ends it with `SIGKILL`, so
//! client-side work (load generation, verification, the reference engine)
//! never shares an allocator or a heap high-water mark with the server.

use crate::workload::Workload;
use acq_durable::{DurableEngine, DurableOptions};
use acq_graph::AttributedGraph;
use acq_server::{Client, ClientConfig, RetryPolicy, Server, ServerConfig, ServerHandle};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Set-ups timed per run; `setup_s` is their median.
pub const SETUPS: usize = 9;

/// The directory of the running executable: inside the build's target
/// directory, so inside the checkout. Everything the benchmark writes goes
/// under it.
pub fn exe_dir() -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|exe| exe.parent().map(Path::to_path_buf))
        .unwrap_or_else(|| PathBuf::from("."))
}

/// A scratch directory under [`exe_dir`] (so inside the
/// checkout), removed when dropped.
#[derive(Debug)]
pub struct TempDir(PathBuf);

impl TempDir {
    pub fn new(tag: &str) -> std::io::Result<Self> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let unique = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = exe_dir().join(format!("serving-tmp-{}-{unique}-{tag}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(Self(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A client as the benchmark uses it everywhere: no retries and no deadline,
/// so every error and every timeout is seen and counted once.
pub fn connect(addr: SocketAddr) -> Result<Client, String> {
    let config = ClientConfig {
        retry: RetryPolicy { max_retries: 0, ..RetryPolicy::default() },
        deadline_ms: None,
        ..ClientConfig::default()
    };
    Client::connect_with_config(addr, config).map_err(|e| format!("connect to {addr}: {e}"))
}

/// Where the live server keeps its log and snapshot, under the run's scratch
/// directory.
pub fn state_dir(dir: &Path) -> PathBuf {
    dir.join("state")
}

/// One set-up of the deployed stack, timed from "graph in memory" to the
/// first successful ping.
fn stand_up(graph: &Arc<AttributedGraph>, dir: &Path) -> Result<(ServerHandle, f64), String> {
    let started = Instant::now();
    let (durable, _) = DurableEngine::open_dir(dir, Arc::clone(graph), DurableOptions::default())
        .map_err(|e| format!("open {}: {e}", dir.display()))?;
    let server = Server::bind_durable("127.0.0.1:0", Arc::new(durable), ServerConfig::default())
        .map_err(|e| format!("bind: {e}"))?;
    connect(server.local_addr())?.ping().map_err(|e| format!("first ping: {e}"))?;
    Ok((server, started.elapsed().as_secs_f64()))
}

/// The child's main: never returns while the parent lives.
pub fn serve(workload: &Workload, quick: bool, dir: &Path) -> Result<(), String> {
    // The parent holds our stdin open and never writes to it: end-of-file
    // means the parent is gone, however it went, and we must not outlive it.
    std::thread::spawn(|| {
        let mut sink = [0u8; 64];
        while matches!(std::io::stdin().read(&mut sink), Ok(n) if n > 0) {}
        std::process::exit(0);
    });

    // Generating the graph is the load generator's cost, not the stack's:
    // it happens before the first set-up is timed.
    let graph = Arc::new(acq_datagen::generate(&workload.profile(quick)));

    // Every set-up starts from an empty directory and from no server: the
    // previous stack is shut down and its state removed first.
    let state_dir = state_dir(dir);
    let mut setups = Vec::with_capacity(SETUPS);
    let server = loop {
        let (server, seconds) = stand_up(&graph, &state_dir)?;
        setups.push(seconds.to_string());
        if setups.len() == SETUPS {
            break server;
        }
        server.shutdown();
        std::fs::remove_dir_all(&state_dir).map_err(|e| format!("clear state: {e}"))?;
    };

    let mut out = std::io::stdout().lock();
    writeln!(out, "READY {} {}", server.local_addr(), setups.join(","))
        .and_then(|()| out.flush())
        .map_err(|e| format!("report readiness: {e}"))?;
    drop(out);

    loop {
        std::thread::park();
    }
}

/// The driver's handle on the child. Dropping it kills the child and waits
/// for it, so no path out of the driver leaves a server behind.
#[derive(Debug)]
pub struct ServerProcess {
    child: Child,
    /// Held open for the child's parent-death watch; closed by the kill.
    _stdin: ChildStdin,
    pub addr: SocketAddr,
    pub setups_s: Vec<f64>,
}

impl ServerProcess {
    pub fn spawn(workload: &Workload, quick: bool, dir: &Path) -> Result<Self, String> {
        let exe = std::env::current_exe().map_err(|e| format!("locate own executable: {e}"))?;
        let mut command = Command::new(exe);
        command.arg("serve").arg("--workload").arg(workload.name).arg("--dir").arg(dir);
        if quick {
            command.arg("--quick");
        }
        let mut child = command
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn the server process: {e}"))?;
        let stdin = child.stdin.take().expect("stdin was piped");
        let stdout = child.stdout.take().expect("stdout was piped");

        let mut line = String::new();
        let read = BufReader::new(stdout).read_line(&mut line);
        let parsed = read.ok().and_then(|_| parse_ready(&line));
        let Some((addr, setups_s)) = parsed else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!("the server process did not come up (said {line:?})"));
        };
        Ok(Self { child, _stdin: stdin, addr, setups_s })
    }

    /// `VmHWM` of the server process in MB: its peak resident set so far.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/status", self.child.id());
        let status = std::fs::read_to_string(&path).map_err(|e| format!("read {path}: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|rest| rest.trim().strip_suffix("kB"))
            .and_then(|kb| kb.trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| format!("{path} has no VmHWM line"))
    }

    /// `kill -9`, then wait: the server gets no chance to drain or flush.
    pub fn kill(self) {
        drop(self);
    }
}

impl Drop for ServerProcess {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn parse_ready(line: &str) -> Option<(SocketAddr, Vec<f64>)> {
    let (addr, setups) = line.trim_end().strip_prefix("READY ")?.split_once(' ')?;
    let setups_s: Option<Vec<f64>> = setups.split(',').map(|s| s.parse().ok()).collect();
    Some((addr.parse().ok()?, setups_s?))
}
