//! The system under test as a child process: the real
//! `rdfsummary serve` binary, spawned, observed through `/proc`, and
//! SIGKILLed — nothing here links against the server.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// The serve flags every lifetime uses (`nproc` = 2 on the reference
/// host: two build threads, two executor workers).
pub(crate) const SERVE_FLAGS: [&str; 4] = ["--threads", "2", "--workers", "2"];

/// Kernel clock ticks per second for `/proc/<pid>/stat` times. `USER_HZ`
/// is 100 on every Linux ABI; std offers no `sysconf` to ask.
const TICKS_PER_S: f64 = 100.0;

pub(crate) struct ServerProc {
    child: Child,
    pub(crate) addr: SocketAddr,
    /// Spawn to `listening on` handshake.
    pub(crate) spawn_time: Duration,
}

impl ServerProc {
    /// Spawns `rdfsummary serve` on an ephemeral port with `cwd` as its
    /// working directory (graph names are paths relative to it, so the
    /// request lines do not depend on where the checkout lives).
    pub(crate) fn spawn(
        binary: &Path,
        cwd: &Path,
        persist_dir: Option<&str>,
    ) -> Result<ServerProc, String> {
        let t0 = Instant::now();
        let mut cmd = Command::new(binary);
        cmd.arg("serve")
            .args(["--addr", "127.0.0.1:0"])
            .args(SERVE_FLAGS)
            .current_dir(cwd)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        if let Some(dir) = persist_dir {
            cmd.args(["--persist-dir", dir]);
        }
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", binary.display()))?;
        let stdout = child.stdout.take().expect("stdout was piped");
        let mut line = String::new();
        let handshake = BufReader::new(stdout)
            .read_line(&mut line)
            .map_err(|e| e.to_string())
            .and_then(|_| {
                line.strip_prefix("listening on ")
                    .and_then(|rest| rest.split(' ').next())
                    .and_then(|addr| addr.parse::<SocketAddr>().ok())
                    .ok_or_else(|| format!("no `listening on` handshake, got {line:?}"))
            });
        match handshake {
            Ok(addr) => Ok(ServerProc {
                child,
                addr,
                spawn_time: t0.elapsed(),
            }),
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                Err(e)
            }
        }
    }

    fn proc_file(&self, name: &str) -> Option<String> {
        std::fs::read_to_string(format!("/proc/{}/{name}", self.child.id())).ok()
    }

    /// Peak resident set (`VmHWM`) in MB.
    pub(crate) fn peak_rss_mb(&self) -> Option<f64> {
        let status = self.proc_file("status")?;
        let kb: f64 = status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))?
            .trim()
            .trim_end_matches("kB")
            .trim()
            .parse()
            .ok()?;
        Some(kb / 1024.0)
    }

    /// CPU seconds (user + system) the process has consumed so far.
    pub(crate) fn cpu_seconds(&self) -> Option<f64> {
        cpu_seconds_of(&self.proc_file("stat")?)
    }

    /// SIGKILL, then reap — the only way a lifetime ends: the server has
    /// no shutdown verb and a warm restart must survive exactly this.
    pub(crate) fn kill(mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        // Covers early returns on a failed check: never leave a child.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// utime + stime out of a `/proc/<pid>/stat` line (fields 14 and 15; the
/// command name in field 2 may itself contain spaces, so count from the
/// closing parenthesis).
fn cpu_seconds_of(stat: &str) -> Option<f64> {
    let after = &stat[stat.rfind(')')? + 1..];
    let mut fields = after.split_ascii_whitespace();
    let utime: f64 = fields.nth(11)?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) / TICKS_PER_S)
}

/// CPU seconds of the benchmark process itself (the load generator).
pub(crate) fn own_cpu_seconds() -> Option<f64> {
    cpu_seconds_of(&std::fs::read_to_string("/proc/self/stat").ok()?)
}

/// The root of the checkout: the nearest ancestor of the current
/// directory that holds the `rdfsummary` binary's source.
pub(crate) fn repo_root() -> Result<PathBuf, String> {
    let cwd = std::env::current_dir().map_err(|e| e.to_string())?;
    cwd.ancestors()
        .find(|d| d.join("src/bin/rdfsummary.rs").is_file() && d.join("Cargo.toml").is_file())
        .map(Path::to_path_buf)
        .ok_or_else(|| {
            format!(
                "{} is not inside a checkout of the repository (no src/bin/rdfsummary.rs above it)",
                cwd.display()
            )
        })
}

/// Where cargo puts build products for `root`: `CARGO_TARGET_DIR` (taken
/// relative to the current directory, as cargo does) or `root/target`.
pub(crate) fn target_dir(root: &Path) -> PathBuf {
    match std::env::var_os("CARGO_TARGET_DIR") {
        Some(dir) => std::path::absolute(PathBuf::from(dir)).expect("current directory exists"),
        None => root.join("target"),
    }
}

/// Builds the release `rdfsummary` binary from the checkout's sources
/// (a no-op when fresh) and returns its path.
pub(crate) fn build_server_binary(root: &Path) -> Result<PathBuf, String> {
    let status = Command::new("cargo")
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--bin",
            "rdfsummary",
        ])
        .current_dir(root)
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("running cargo: {e}"))?;
    if !status.success() {
        return Err(format!(
            "cargo build --release --bin rdfsummary failed ({status})"
        ));
    }
    let binary = target_dir(root).join("release/rdfsummary");
    if binary.is_file() {
        Ok(binary)
    } else {
        Err(format!("built binary not found at {}", binary.display()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_line_survives_spaces_in_the_command_name() {
        let stat = "1234 (rdf summary) x) S 1 1234 1234 0 -1 4194304 500 0 0 0 150 25 0 0 20 0 3 0 100 1000000 200 18446744073709551615";
        assert_eq!(cpu_seconds_of(stat), Some(1.75));
        assert_eq!(cpu_seconds_of("garbage"), None);
    }

    #[test]
    fn own_cpu_time_is_readable() {
        assert!(own_cpu_seconds().is_some());
    }
}
