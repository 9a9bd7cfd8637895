//! Integration tests driving the `rdfsummary` CLI binary end to end.

use std::path::PathBuf;
use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_rdfsummary"))
}

fn workdir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rdfsummary_cli_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn sample_file(dir: &std::path::Path) -> PathBuf {
    let path = dir.join("sample.nt");
    let g = rdfsummary::rdfsum_core::fixtures::sample_graph();
    rdfsummary::rdf_io::save_path(&g, &path).unwrap();
    path
}

#[test]
fn help_and_unknown_command() {
    let out = bin().arg("help").output().unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("USAGE"));

    let out = bin().arg("frobnicate").output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));
}

#[test]
fn stats_on_sample() {
    let dir = workdir();
    let file = sample_file(&dir);
    let out = bin().arg("stats").arg(&file).output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("triples"));
    assert!(text.contains("well-behaved: yes"));
}

#[test]
fn summarize_with_outputs() {
    let dir = workdir();
    let file = sample_file(&dir);
    let out_nt = dir.join("weak.nt");
    let out_dot = dir.join("weak.dot");
    let out = bin()
        .args(["summarize", file.to_str().unwrap()])
        .args(["--kind", "w"])
        .args(["--out", out_nt.to_str().unwrap()])
        .args(["--dot", out_dot.to_str().unwrap()])
        .arg("--report")
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("W summary"));
    assert!(text.contains("nodes (by extent)"));
    // The N-Triples output reparses to the same number of triples (10).
    let reparsed = rdfsummary::rdf_io::load_path(&out_nt).unwrap();
    assert_eq!(reparsed.len(), 10);
    assert!(std::fs::read_to_string(&out_dot)
        .unwrap()
        .starts_with("digraph"));
}

#[test]
fn summarize_all_shares_one_context() {
    let dir = workdir();
    let file = sample_file(&dir);
    let out = bin()
        .args(["summarize", file.to_str().unwrap(), "--all"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("shared context"), "got: {text}");
    for kind in ["W:", "S:", "TW:", "TS:"] {
        assert!(text.contains(kind), "missing {kind} in:\n{text}");
    }

    // --all rejects single-summary output flags instead of silently
    // ignoring them.
    let out = bin()
        .args(["summarize", file.to_str().unwrap(), "--all"])
        .args(["--out", "/tmp/ignored.nt"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--all cannot be combined"));
}

/// A reader that goes away (`rdfsummary stats g.nt --profile | head -1`)
/// ends the run quietly: the profile lines are written after the reader
/// is gone, and the failed write is a clean exit, not a panic.
#[test]
fn closed_stdout_reader_is_a_clean_exit() {
    use std::io::BufRead;
    use std::process::Stdio;
    let file = workdir().join("pipe.nt");
    let g = rdfsummary::rdfsum_workloads::generate_bsbm(
        &rdfsummary::rdfsum_workloads::BsbmConfig::with_products(100),
    );
    rdfsummary::rdf_io::save_path(&g, &file).unwrap();
    let mut child = bin()
        .args(["stats", file.to_str().unwrap(), "--profile"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let mut reader = std::io::BufReader::new(child.stdout.take().unwrap());
    let mut first = String::new();
    reader.read_line(&mut first).unwrap();
    assert!(first.starts_with("graph:"), "{first}");
    drop(reader);
    let out = child.wait_with_output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert_ne!(out.status.code(), Some(101), "{stderr}");
}

#[test]
fn generate_snapshot_stats_pipeline() {
    let dir = workdir();
    let snap = dir.join("bsbm.snap");
    let out = bin()
        .args(["generate", "bsbm", "--scale", "20"])
        .args(["--out", snap.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let out = bin().arg("stats").arg(&snap).output().unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("class nodes"));

    let out = bin()
        .args(["summarize", snap.to_str().unwrap(), "--kind", "ts"])
        .output()
        .unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("TS summary"));
}

#[test]
fn query_with_saturation() {
    let dir = workdir();
    // The §2.1 book graph: the query needs saturation to answer.
    let path = dir.join("book.nt");
    let g = rdfsummary::rdfsum_core::fixtures::book_graph();
    rdfsummary::rdf_io::save_path(&g, &path).unwrap();
    let query =
        "q(?name) :- ?b <http://example.org/hasAuthor> ?a, ?a <http://example.org/hasName> ?name";

    let out = bin()
        .args(["query", path.to_str().unwrap(), query])
        .output()
        .unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("no answers"));

    let out = bin()
        .args(["query", path.to_str().unwrap(), query, "--saturate"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("G. Simenon"));
}

#[test]
fn query_with_reformulation() {
    let dir = workdir();
    let path = dir.join("book2.nt");
    let g = rdfsummary::rdfsum_core::fixtures::book_graph();
    rdfsummary::rdf_io::save_path(&g, &path).unwrap();
    // Complete answers over explicit triples only.
    let query =
        "q(?name) :- ?b <http://example.org/hasAuthor> ?a, ?a <http://example.org/hasName> ?name";
    let out = bin()
        .args(["query", path.to_str().unwrap(), query, "--reformulate"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("G. Simenon"), "got: {text}");
    assert!(text.contains("union of"));
}

#[test]
fn check_reports_properties() {
    let dir = workdir();
    let file = sample_file(&dir);
    let out = bin().arg("check").arg(&file).output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    for kind in ["W", "S", "TW", "TS"] {
        assert!(
            text.contains(&format!("{kind}:")),
            "missing {kind} in:\n{text}"
        );
    }
    assert!(text.contains("quotient OK"));
}

#[test]
fn saturate_writes_closure() {
    let dir = workdir();
    let path = dir.join("book.nt");
    let g = rdfsummary::rdfsum_core::fixtures::book_graph();
    rdfsummary::rdf_io::save_path(&g, &path).unwrap();
    let out_path = dir.join("book_inf.nt");
    let out = bin()
        .args(["saturate", path.to_str().unwrap()])
        .args(["--out", out_path.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    let sat = rdfsummary::rdf_io::load_path(&out_path).unwrap();
    assert!(sat.len() > g.len());
}

/// `serve` refuses arguments it does not know — the removed `--engine`
/// flag, a typo, a flag without its value — by name, and a thread count
/// that is no integer ≥ 1 by value, with a non-zero exit instead of
/// starting a server on defaults. (A regression would leave the child
/// serving, so the wait is bounded.)
#[test]
fn serve_rejects_unknown_arguments() {
    for (args, named) in [
        (&["--engine", "threaded"][..], "`--engine`"),
        (&["--adr", "127.0.0.1:0"][..], "`--adr`"),
        (&["--addr", "127.0.0.1:0", "--workers"][..], "`--workers`"),
        (&["--threads", "0"][..], "bad --threads value `0`"),
        (&["--threads", "lots"][..], "bad --threads value `lots`"),
    ] {
        let mut child = bin()
            .arg("serve")
            .args(args)
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::piped())
            .spawn()
            .unwrap();
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(20);
        let status = loop {
            if let Some(status) = child.try_wait().unwrap() {
                break status;
            }
            if std::time::Instant::now() > deadline {
                child.kill().unwrap();
                panic!("`serve {}` started a server", args.join(" "));
            }
            std::thread::sleep(std::time::Duration::from_millis(20));
        };
        assert!(!status.success(), "serve {}", args.join(" "));
        let mut stderr = String::new();
        std::io::Read::read_to_string(child.stderr.as_mut().unwrap(), &mut stderr).unwrap();
        assert!(stderr.contains(named), "{stderr}");
    }
}

/// A literal holding TAB, `"` and `\` renders in a CLI `query` row as the
/// served `QUERY` renders it — escaped N-Triples, so the TAB never splits
/// the row into an extra cell — with and without `--reformulate`.
#[test]
fn query_rows_render_as_served_query() {
    use std::io::BufRead;
    let dir = workdir();
    let path = dir.join("escaped.nt");
    std::fs::write(
        &path,
        "<http://x/a> <http://x/label> \"tab\\there \\\"q\\\" back\\\\slash\" .\n",
    )
    .unwrap();
    let path = path.to_str().unwrap();
    let query = "q(?x, ?y) :- ?x <http://x/label> ?y";
    let expected = "<http://x/a>\t\"tab\\there \\\"q\\\" back\\\\slash\"";

    let mut serve = bin()
        .args(["serve", "--addr", "127.0.0.1:0", "--threads", "1"])
        .stdout(std::process::Stdio::piped())
        .spawn()
        .unwrap();
    let mut first_line = String::new();
    std::io::BufReader::new(serve.stdout.as_mut().unwrap())
        .read_line(&mut first_line)
        .unwrap();
    let addr = first_line.split_whitespace().nth(2).unwrap().to_string();
    let client = |args: &[&str]| bin().arg("client").arg(&addr).args(args).output().unwrap();
    assert!(client(&["LOAD", path]).status.success());
    let served = client(&["QUERY", path, query]);
    serve.kill().unwrap();
    serve.wait().unwrap();
    assert!(served.status.success());
    let served = String::from_utf8(served.stdout).unwrap();
    assert_eq!(served, format!("x\ty\n{expected}\n"));

    for extra in [&[][..], &["--reformulate"][..]] {
        let out = bin()
            .args(["query", path, query])
            .args(extra)
            .output()
            .unwrap();
        assert!(out.status.success(), "{extra:?}");
        let text = String::from_utf8(out.stdout).unwrap();
        let row = text.lines().nth(1).unwrap();
        assert_eq!(row, expected, "{extra:?}: {text}");
        assert_eq!(Some(row), served.lines().nth(1), "{extra:?}");
    }
}
