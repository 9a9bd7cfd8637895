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

    // The bisimulation is no summary kind of the CLI: refused, nothing
    // written.
    let out_fb = dir.join("fb.nt");
    let out = bin()
        .args(["summarize", file.to_str().unwrap()])
        .args(["--kind", "fb"])
        .args(["--out", out_fb.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown summary kind `fb`"), "{err}");
    assert!(!out_fb.exists());
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

/// A `serve` child on a free port, killed when dropped.
struct Server {
    child: std::process::Child,
    addr: String,
}

impl Server {
    fn spawn() -> Server {
        use std::io::BufRead;
        let mut child = bin()
            .args(["serve", "--addr", "127.0.0.1:0", "--threads", "1"])
            .stdout(std::process::Stdio::piped())
            .spawn()
            .unwrap();
        let mut first_line = String::new();
        std::io::BufReader::new(child.stdout.as_mut().unwrap())
            .read_line(&mut first_line)
            .unwrap();
        let addr = first_line.split_whitespace().nth(2).unwrap().to_string();
        Server { child, addr }
    }

    /// One `client` request: its status line (stderr) and body (stdout).
    fn request(&self, words: &[&str]) -> (String, String) {
        let out = bin()
            .arg("client")
            .arg(&self.addr)
            .args(words)
            .output()
            .unwrap();
        let status = String::from_utf8(out.stderr).unwrap();
        assert!(out.status.success(), "{words:?}: {status}");
        (status, String::from_utf8(out.stdout).unwrap())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// `rdfsummary query <path> <text> <extra…>`'s stdout; the run must succeed.
fn cli_query(path: &str, text: &str, extra: &[&str]) -> String {
    let out = bin()
        .args(["query", path, text])
        .args(extra)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{text} {extra:?}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).unwrap()
}

/// A BSBM graph on disk as `name` (one per test: tests run in parallel),
/// and the graph itself.
fn bsbm_file(dir: &std::path::Path, name: &str) -> (PathBuf, rdfsummary::rdf_model::Graph) {
    let path = dir.join(name);
    let g = rdfsummary::rdfsum_workloads::generate_bsbm(
        &rdfsummary::rdfsum_workloads::BsbmConfig::with_products(50),
    );
    rdfsummary::rdf_io::save_path(&g, &path).unwrap();
    (path, g)
}

/// The CLI `query` is the served `QUERY`: over a real `serve` child, a
/// literal holding TAB, `"` and `\` renders in a CLI row as the served row
/// does (escaped N-Triples, so the TAB never splits the row, with and
/// without `--reformulate`); and on a BSBM graph, for sampled non-empty
/// queries, an ASK query and queries the weak summary prunes, the CLI
/// prints the served body byte for byte, then its trailer; under
/// `--limit k` it prints the first `k` served rows.
#[test]
fn query_rows_render_as_served_query() {
    use rdfsummary::rdf_query::{sample_rbgp_queries, WorkloadConfig};
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
    let (bsbm, g) = bsbm_file(&dir, "differential.nt");
    let bsbm = bsbm.to_str().unwrap();

    let server = Server::spawn();
    server.request(&["LOAD", path]);
    server.request(&["LOAD", bsbm]);
    let (_, served) = server.request(&["QUERY", path, query]);
    assert_eq!(served, format!("x\ty\n{expected}\n"));
    for extra in [&[][..], &["--reformulate"][..]] {
        let text = cli_query(path, query, extra);
        let row = text.lines().nth(1).unwrap();
        assert_eq!(row, expected, "{extra:?}: {text}");
        assert_eq!(Some(row), served.lines().nth(1), "{extra:?}");
    }

    let store = rdfsummary::rdf_store::TripleStore::new(g);
    let sampled = sample_rbgp_queries(
        &store,
        &WorkloadConfig {
            queries: 12,
            seed: 36,
            ..WorkloadConfig::default()
        },
    );
    let label = "<http://www.w3.org/2000/01/rdf-schema#label>";
    let ask = format!("q() :- ?x {label} ?y");
    let pruned = [
        "q() :- ?x <http://nowhere.invalid/nope> ?y".to_string(),
        format!("q(?x, ?z) :- ?x {label} ?y, ?y {label} ?z"),
    ];
    let queries = sampled
        .iter()
        .map(|spec| (spec.to_string(), false))
        .chain([(ask, false)])
        .chain(pruned.map(|text| (text, true)));
    let limit = rdfsummary::rdfsum_server::QUERY_ROW_LIMIT.to_string();
    for (text, prunes) in queries {
        let (status, served) = server.request(&["QUERY", bsbm, &text]);
        assert_eq!(status.contains("pruned=1"), prunes, "{text}: {status}");
        assert!(status.contains("truncated=0"), "{text}: {status}");
        let rows = served.lines().count().saturating_sub(1);
        let trailer = match (text.starts_with("q()"), rows) {
            (true, _) => String::new(),
            (false, 0) => "no answers\n".to_string(),
            (false, n) => format!("({n} answers, limit {limit})\n"),
        };
        let cli = cli_query(bsbm, &text, &["--limit", &limit]);
        assert_eq!(cli, served + &trailer, "{text}");
    }

    let cut = format!("q(?x, ?y) :- ?x {label} ?y");
    let (_, served) = server.request(&["QUERY", bsbm, &cut]);
    assert!(served.lines().count() > 6, "{served}");
    let first: String = served.lines().take(6).map(|l| format!("{l}\n")).collect();
    let cli = cli_query(bsbm, &cut, &["--limit", "5"]);
    assert_eq!(cli, first + "(5 answers, limit 5)\n");
}

/// `query --explain` prints the summary the served path consulted, then
/// either the served plan — the one `SummaryService::query` reports — or,
/// for a query that summary prunes, the prune and no plan.
#[test]
fn query_explain_prints_the_served_plan() {
    let dir = workdir();
    let (path, g) = bsbm_file(&dir, "explain.nt");
    let path = path.to_str().unwrap();
    let planned = "q(?p, ?l) :- ?p a <http://bsbm.example.org/instances/ProductType1>, \
                   ?p <http://www.w3.org/2000/01/rdf-schema#label> ?l";
    let service = rdfsummary::rdfsum_core::SummaryService::new(1);
    service.load_graph(path, g);
    let served = service.query(path, planned, None, 20).unwrap();
    let plan = served.plan.expect("a query that is not pruned has a plan");
    assert_eq!(plan.steps.len(), 2);
    let text = cli_query(path, planned, &["--explain"]);
    let expected = format!("consulted summary: W\npruned: no\n{plan}{}", served.body);
    assert!(text.starts_with(&expected), "{text}");

    let pruned = "q(?x) :- ?x <http://nowhere.invalid/nope> ?y";
    let text = cli_query(path, pruned, &["--explain"]);
    assert_eq!(
        text,
        "consulted summary: W\n\
         pruned: yes (empty on the summary, so empty on the graph; no plan)\n\
         x\nno answers\n"
    );
}

/// `query` refuses what it would otherwise drop without a word — an
/// unknown flag, a flag without its value, a second query text, and the
/// flags `--reformulate` has no use for — by name, with a non-zero exit
/// and nothing on stdout.
#[test]
fn query_rejects_bad_arguments() {
    let dir = workdir();
    let file = sample_file(&dir);
    let query = "q(?x) :- ?x ?p ?y";
    for (args, named) in [
        (&["--limt", "3"][..], "unknown argument `--limt`"),
        (&["--limit"][..], "missing value for `--limit`"),
        (
            &["--limit", "3", "extra"][..],
            "unexpected argument `extra`",
        ),
        (
            &["--reformulate", "--limit", "3", "--explain"][..],
            "cannot be combined with --limit",
        ),
        (
            &["--reformulate", "--explain"][..],
            "cannot be combined with --explain",
        ),
    ] {
        let out = bin()
            .arg("query")
            .arg(&file)
            .arg(query)
            .args(args)
            .output()
            .unwrap();
        assert!(!out.status.success(), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(named), "{args:?}: {stderr}");
    }
}
