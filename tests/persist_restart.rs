//! Warm-restart integration suite: a `serve --persist-dir DIR` process is
//! killed and restarted on the same directory, and the restarted server
//! must answer its first `SUMMARIZE` from the persisted artifact —
//! byte-identical to the single-shot CLI's `--out` bytes, with `builds`
//! still at 0 — while any on-disk damage degrades to a plain rebuild
//! with no error surfaced to the client.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_rdfsummary"))
}

fn workdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rdfsummary_restart_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Spawns `serve --persist-dir` on an ephemeral port and parses the
/// resolved address from the startup handshake line.
fn spawn_server(persist_dir: &Path) -> (Child, String) {
    let mut serve = bin()
        .args(["serve", "--addr", "127.0.0.1:0", "--threads", "1"])
        .args(["--persist-dir", persist_dir.to_str().unwrap()])
        .stdout(Stdio::piped())
        .spawn()
        .unwrap();
    let mut first_line = String::new();
    BufReader::new(serve.stdout.as_mut().unwrap())
        .read_line(&mut first_line)
        .unwrap();
    assert!(first_line.starts_with("listening on "), "{first_line}");
    let addr = first_line.split_whitespace().nth(2).unwrap().to_string();
    (serve, addr)
}

fn run_client(addr: &str, args: &[&str]) -> (bool, Vec<u8>, String) {
    let out = bin().arg("client").arg(addr).args(args).output().unwrap();
    (
        out.status.success(),
        out.stdout,
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// Pulls `key=value` out of an `OK …` status line.
fn stat(status: &str, key: &str) -> u64 {
    status
        .split_whitespace()
        .find_map(|w| w.strip_prefix(&format!("{key}=")))
        .unwrap_or_else(|| panic!("no {key}= in {status}"))
        .parse()
        .unwrap()
}

/// Kill → restart → first SUMMARIZE is byte-identical to the cold CLI
/// output and costs zero builds.
#[test]
fn restarted_server_comes_back_warm_and_byte_identical() {
    let dir = workdir("warm");
    let persist = dir.join("artifacts");
    let g = rdfsummary::rdfsum_core::fixtures::book_graph();
    let path = dir.join("book.nt");
    rdf_io::save_path(&g, &path).unwrap();
    let path_str = path.to_str().unwrap();

    // Reference bytes from the single-shot CLI.
    let out_file = dir.join("weak.nt");
    let cli = bin()
        .args(["summarize", path_str, "--kind", "w"])
        .args(["--out", out_file.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(cli.status.success());
    let cli_bytes = std::fs::read(&out_file).unwrap();

    // Cold run: LOAD + SUMMARIZE builds and persists one artifact.
    let (mut serve, addr) = spawn_server(&persist);
    let (ok, _, stderr) = run_client(&addr, &["LOAD", path_str]);
    assert!(ok, "{stderr}");
    let (ok, body, stderr) = run_client(&addr, &["SUMMARIZE", "w", path_str]);
    assert!(ok, "{stderr}");
    assert!(stderr.contains("cached=0"), "{stderr}");
    assert_eq!(body, cli_bytes);
    let (_, _, stats) = run_client(&addr, &["STATS"]);
    assert_eq!(stat(&stats, "builds"), 1);
    assert_eq!(stat(&stats, "persist_writes"), 1);
    assert_eq!(stat(&stats, "persist_hits"), 0);
    serve.kill().unwrap();
    serve.wait().unwrap();
    assert_eq!(
        std::fs::read_dir(&persist)
            .unwrap()
            .flatten()
            .filter(|e| e.path().extension().is_some_and(|x| x == "sum"))
            .count(),
        1,
        "exactly one artifact on disk after the cold run"
    );

    // Warm run: same dir, fresh process. The first SUMMARIZE must be a
    // hit served from disk — no build — and byte-identical.
    let (mut serve, addr) = spawn_server(&persist);
    let (ok, _, stderr) = run_client(&addr, &["LOAD", path_str]);
    assert!(ok, "{stderr}");
    let (ok, body, stderr) = run_client(&addr, &["SUMMARIZE", "w", path_str]);
    assert!(ok, "{stderr}");
    assert!(
        stderr.contains("cached=1"),
        "warm first hit must report cached=1: {stderr}"
    );
    assert_eq!(body, cli_bytes, "warm body differs from cold CLI output");
    let (_, _, stats) = run_client(&addr, &["STATS"]);
    assert_eq!(stat(&stats, "builds"), 0, "warm path must not rebuild");
    assert_eq!(stat(&stats, "persist_hits"), 1);
    assert_eq!(stat(&stats, "misses"), 0);
    assert_eq!(
        stat(&stats, "builds"),
        stat(&stats, "patch_fallbacks") + stat(&stats, "misses")
    );
    serve.kill().unwrap();
    serve.wait().unwrap();
}

/// On-disk damage is invisible to clients: the restarted server rebuilds
/// (no ERR, correct bytes) and heals the artifact for the next restart.
#[test]
fn corrupt_artifact_degrades_to_a_clean_rebuild() {
    let dir = workdir("corrupt");
    let persist = dir.join("artifacts");
    let g = rdfsummary::rdfsum_core::fixtures::book_graph();
    let path = dir.join("book.nt");
    rdf_io::save_path(&g, &path).unwrap();
    let path_str = path.to_str().unwrap();

    let (mut serve, addr) = spawn_server(&persist);
    run_client(&addr, &["LOAD", path_str]);
    let (ok, cold_body, _) = run_client(&addr, &["SUMMARIZE", "w", path_str]);
    assert!(ok);
    serve.kill().unwrap();
    serve.wait().unwrap();

    // Flip a byte in the middle of the persisted artifact.
    let sum = std::fs::read_dir(&persist)
        .unwrap()
        .flatten()
        .map(|e| e.path())
        .find(|p| p.extension().is_some_and(|x| x == "sum"))
        .unwrap();
    let mut raw = std::fs::read(&sum).unwrap();
    let mid = raw.len() / 2;
    raw[mid] ^= 0x40;
    std::fs::write(&sum, raw).unwrap();

    let (mut serve, addr) = spawn_server(&persist);
    run_client(&addr, &["LOAD", path_str]);
    let (ok, body, stderr) = run_client(&addr, &["SUMMARIZE", "w", path_str]);
    assert!(ok, "corruption must not surface as an ERR: {stderr}");
    assert!(
        stderr.contains("cached=0"),
        "corrupt artifact must read as a plain miss: {stderr}"
    );
    assert_eq!(body, cold_body);
    let (_, _, stats) = run_client(&addr, &["STATS"]);
    assert_eq!(stat(&stats, "builds"), 1);
    assert_eq!(stat(&stats, "persist_hits"), 0);
    assert_eq!(
        stat(&stats, "persist_writes"),
        1,
        "rebuild must re-persist over the damage"
    );
    serve.kill().unwrap();
    serve.wait().unwrap();
}
