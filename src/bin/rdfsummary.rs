//! `rdfsummary` — command-line interface to the summarization library.
//!
//! ```text
//! rdfsummary stats      <graph>
//! rdfsummary summarize  <graph> [--kind w|s|tw|ts|t|fb] [--all] [--out FILE] [--dot FILE] [--report]
//! rdfsummary saturate   <graph> [--out FILE]
//! rdfsummary check      <graph>
//! rdfsummary query      <graph> QUERY [--saturate] [--limit N]
//! rdfsummary generate   bsbm|lubm --scale N [--out FILE]
//! rdfsummary snapshot   <graph.nt> --out FILE.snap
//! rdfsummary serve      [--addr HOST:PORT] [--threads N] [--workers N]
//!                       [--cache-bytes N] [--persist-dir DIR]
//! rdfsummary client     ADDR REQUEST…
//! ```
//!
//! `<graph>` is an N-Triples file, or a `.snap` binary snapshot (see
//! `rdf-store::snapshot`).

use rdfsummary::prelude::*;
use rdfsummary::rdf_store::snapshot;
use rdfsummary::rdfsum_core::{self, render_report, ReportOptions};
use rdfsummary::rdfsum_experiments::{completeness_check, fixpoint_holds};
use rdfsummary::rdfsum_workloads as workloads;
use std::io::Write;
use std::process::ExitCode;

/// Why a command stopped early: a message for the user, or a failed write
/// to stdout (a reader that went away, as in `rdfsummary stats g.nt |
/// head -3`, is not an error of ours).
enum Failure {
    Message(String),
    Stdout(std::io::Error),
}

impl From<String> for Failure {
    fn from(msg: String) -> Self {
        Failure::Message(msg)
    }
}

impl From<&str> for Failure {
    fn from(msg: &str) -> Self {
        Failure::Message(msg.into())
    }
}

impl From<std::io::Error> for Failure {
    fn from(e: std::io::Error) -> Self {
        Failure::Stdout(e)
    }
}

/// The one handle every command prints through, locked for the whole run.
type Stdout = std::io::StdoutLock<'static>;

fn fail(msg: &str) -> ExitCode {
    eprintln!("error: {msg}");
    eprintln!("run `rdfsummary help` for usage");
    ExitCode::FAILURE
}

fn usage(stdout: &mut Stdout) -> Result<(), Failure> {
    writeln!(
        stdout,
        "rdfsummary — query-oriented RDF graph summarization

USAGE:
  rdfsummary stats      <graph> [--profile]             graph statistics
  rdfsummary summarize  <graph> [--kind w|s|tw|ts|t|fb]    build a summary
                         [--out FILE] [--dot FILE] [--turtle FILE] [--report]
                         [--all]  build W+S+TW+TS via one shared context
  rdfsummary saturate   <graph> [--out FILE]            compute G∞
  rdfsummary check      <graph>                         verify formal properties
  rdfsummary query      <graph> QUERY [--saturate]      evaluate a BGP query
                         [--reformulate] [--limit N] [--explain]
  rdfsummary generate   bsbm|lubm --scale N [--out FILE] synthesize a dataset
  rdfsummary snapshot   <graph> --out FILE.snap         binary snapshot
  rdfsummary serve      [--addr HOST:PORT] [--threads N] [--workers N]
                         [--cache-bytes N] [--persist-dir DIR]
                         long-running warm-store summary server (default
                         addr 127.0.0.1:7878; caches summaries by graph
                         content fingerprint, LRU-bounded by --cache-bytes;
                         one event loop multiplexes all clients and
                         answers cheap verbs inline;
                         --workers sizes the executor for LOAD/cold
                         SUMMARIZE; --persist-dir keeps built summaries
                         on disk so a restart comes back warm;
                         see `src/lib.rs` Serving)
  rdfsummary client     ADDR REQUEST…                   send one protocol
                         request (PING | LOAD <path> | SUMMARIZE <kind>
                         <graph> | QUERY <graph> <query> | UPDATE <graph>
                         <+|-> <triples…> | STATS | EVICT <graph>|* |
                         QUIT); body goes to stdout, status to stderr.
                         QUERY evaluates a BGP on the warm store with
                         summary-based emptiness pruning; UPDATE applies
                         an N-Triples batch and rebuilds warm summaries

<graph> is an N-Triples file (.nt) or a binary snapshot (.snap).
QUERY uses the paper notation, e.g. \"q(?x) :- ?x a <http://…/Book>, ?x <http://…/author> ?y\""
    )?;
    Ok(())
}

/// Graph loading and kind parsing are shared with the server crate, so
/// `rdfsummary serve` and the single-shot commands can never drift on the
/// load dispatch or the kind vocabulary (the server's byte-identity
/// contract depends on both agreeing).
use rdfsummary::rdfsum_server::{load_graph_file as load, parse_kind};

fn flag_value(args: &[String], name: &str) -> Option<String> {
    args.windows(2).find(|w| w[0] == name).map(|w| w[1].clone())
}

fn has_flag(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

/// `serve`'s worker count for the index sorts of every load: `--threads
/// N`, else all available cores. It is passed down as a value.
fn thread_count(rest: &[String]) -> Result<usize, String> {
    match flag_value(rest, "--threads") {
        Some(v) => match v.parse::<usize>() {
            Ok(n) if n >= 1 => Ok(n),
            _ => Err(format!("bad --threads value `{v}` (want an integer >= 1)")),
        },
        None => Ok(std::thread::available_parallelism().map_or(1, usize::from)),
    }
}

fn cmd_stats(path: &str, rest: &[String], stdout: &mut Stdout) -> Result<(), Failure> {
    let g = load(path)?;
    let st = GraphStats::of(&g);
    writeln!(stdout, "graph: {path}")?;
    writeln!(
        stdout,
        "  triples        {:>10} (data {}, type {}, schema {})",
        st.edges, st.data_edges, st.type_edges, st.schema_edges
    )?;
    writeln!(stdout, "  nodes          {:>10}", st.nodes)?;
    writeln!(stdout, "  data nodes     {:>10}", st.data_nodes)?;
    writeln!(stdout, "  class nodes    {:>10}", st.class_nodes)?;
    writeln!(stdout, "  property nodes {:>10}", st.property_nodes)?;
    writeln!(
        stdout,
        "  distinct data properties {:>6}",
        st.data_distinct.properties
    )?;
    writeln!(
        stdout,
        "  distinct subjects        {:>6}",
        st.data_distinct.subjects
    )?;
    writeln!(
        stdout,
        "  distinct objects         {:>6}",
        st.data_distinct.objects
    )?;
    let violations = g.well_behaved_violations();
    if violations.is_empty() {
        writeln!(stdout, "  well-behaved: yes")?;
    } else {
        writeln!(
            stdout,
            "  well-behaved: NO ({} offending terms)",
            violations.len()
        )?;
    }
    if has_flag(rest, "--profile") {
        let prof = rdfsummary::rdf_model::Profile::of(&g);
        let prefixes = PrefixMap::with_defaults();
        let name = |id: rdfsummary::rdf_model::TermId| -> String {
            match g.dict().decode(id) {
                TermRef::Iri(iri) => prefixes.compact(iri),
                other => other.to_string(),
            }
        };
        writeln!(
            stdout,
            "\n  heterogeneity: {} distinct property sets, {} distinct class sets",
            prof.distinct_property_sets, prof.distinct_class_sets
        )?;
        writeln!(stdout, "  top properties:")?;
        for (p, u) in prof.top_properties().into_iter().take(10) {
            writeln!(
                stdout,
                "    {:<60} {:>8} triples ({} subjects, {} objects)",
                name(p),
                u.triples,
                u.subjects,
                u.objects
            )?;
        }
        writeln!(stdout, "  top classes:")?;
        for (c, n) in prof.top_classes().into_iter().take(10) {
            writeln!(stdout, "    {:<60} {:>8} instances", name(c), n)?;
        }
    }
    Ok(())
}

/// `summarize --all`: builds W, S, TW and TS through one shared
/// [`rdfsum_core::SummaryContext`], so the graph is scanned, and the
/// property cliques (both scopes) derived, once, not four times.
fn cmd_summarize_all(path: &str, g: &Graph, stdout: &mut Stdout) -> Result<(), Failure> {
    let t0 = std::time::Instant::now();
    let ctx = rdfsum_core::SummaryContext::new(g);
    let t_ctx = t0.elapsed().as_secs_f64();
    writeln!(
        stdout,
        "all summaries of {path} (input {} triples; shared context built in {t_ctx:.3}s):",
        g.len()
    )?;
    for kind in SummaryKind::ALL {
        let t0 = std::time::Instant::now();
        let s = ctx.summarize(kind);
        let dt = t0.elapsed().as_secs_f64();
        let st = s.stats();
        writeln!(
            stdout,
            "  {kind:>3}: {:>8} nodes  {:>8} edges  in {dt:.3}s",
            st.all_nodes, st.all_edges
        )?;
    }
    Ok(())
}

fn cmd_summarize(path: &str, rest: &[String], stdout: &mut Stdout) -> Result<(), Failure> {
    if has_flag(rest, "--all") {
        // --all prints a comparison table; the single-summary output flags
        // have no meaning for it, so reject them instead of silently
        // ignoring a requested file.
        for flag in ["--kind", "--out", "--dot", "--turtle", "--report"] {
            if has_flag(rest, flag) {
                return Err(format!("summarize --all cannot be combined with {flag}").into());
            }
        }
        let g = load(path)?;
        return cmd_summarize_all(path, &g, stdout);
    }
    let g = load(path)?;
    let kind = match flag_value(rest, "--kind") {
        Some(k) => parse_kind(&k).ok_or(format!("unknown summary kind `{k}`"))?,
        None => SummaryKind::Weak,
    };
    let t0 = std::time::Instant::now();
    let s = rdfsum_core::SummaryContext::new(&g).summarize(kind);
    let dt = t0.elapsed().as_secs_f64();
    let st = s.stats();
    writeln!(
        stdout,
        "{kind} summary of {path}: {} nodes / {} edges (input {} triples) in {dt:.3}s",
        st.all_nodes,
        st.all_edges,
        g.len()
    )?;
    if let Some(out) = flag_value(rest, "--out") {
        save_path(&s.graph, &out).map_err(|e| format!("writing {out}: {e}"))?;
        writeln!(stdout, "wrote {out}")?;
    }
    if let Some(ttl_path) = flag_value(rest, "--turtle") {
        let ttl = rdfsummary::rdf_io::write_turtle(&s.graph, &PrefixMap::with_defaults());
        std::fs::write(&ttl_path, ttl).map_err(|e| format!("writing {ttl_path}: {e}"))?;
        writeln!(stdout, "wrote {ttl_path}")?;
    }
    if let Some(dot_path) = flag_value(rest, "--dot") {
        let dot = to_dot(&s.graph, &DotOptions::default());
        std::fs::write(&dot_path, dot).map_err(|e| format!("writing {dot_path}: {e}"))?;
        writeln!(stdout, "wrote {dot_path}")?;
    }
    if has_flag(rest, "--report") {
        write!(
            stdout,
            "\n{}",
            render_report(
                &s,
                &g,
                &ReportOptions {
                    prefixes: PrefixMap::with_defaults(),
                    examples_per_node: 3,
                }
            )
        )?;
    }
    Ok(())
}

fn cmd_saturate(path: &str, rest: &[String], stdout: &mut Stdout) -> Result<(), Failure> {
    let g = load(path)?;
    let sat = saturate(&g);
    writeln!(
        stdout,
        "saturated: {} -> {} triples (+{} implicit)",
        g.len(),
        sat.len(),
        sat.len() - g.len()
    )?;
    if let Some(out) = flag_value(rest, "--out") {
        save_path(&sat, &out).map_err(|e| format!("writing {out}: {e}"))?;
        writeln!(stdout, "wrote {out}")?;
    }
    Ok(())
}

fn cmd_check(path: &str, stdout: &mut Stdout) -> Result<(), Failure> {
    let g = load(path)?;
    writeln!(
        stdout,
        "checking formal properties on {path} ({} triples)…",
        g.len()
    )?;
    for kind in SummaryKind::ALL {
        let s = summarize(&g, kind);
        let quotient_ok = rdfsum_core::quotient::verify_quotient(&g, &s);
        let fixpoint = fixpoint_holds(&g, kind);
        let completeness = completeness_check(&g, kind).holds;
        writeln!(
            stdout,
            "  {kind:>3}: quotient {}  fixpoint {}  completeness {}",
            if quotient_ok { "OK " } else { "BAD" },
            if fixpoint { "OK " } else { "BAD" },
            if completeness {
                "holds"
            } else {
                "fails (expected for typed kinds under ←↩d/↪→r)"
            },
        )?;
    }
    Ok(())
}

fn cmd_query(path: &str, rest: &[String], stdout: &mut Stdout) -> Result<(), Failure> {
    let query_text = rest
        .iter()
        .find(|a| !a.starts_with("--") && a.contains(":-"))
        .ok_or("missing query (expected `q(?x) :- …`)")?;
    let limit: usize = flag_value(rest, "--limit")
        .map(|v| v.parse().map_err(|_| "bad --limit"))
        .transpose()?
        .unwrap_or(20);
    let mut g = load(path)?;
    if has_flag(rest, "--saturate") {
        g = saturate(&g);
    }
    let spec = parse_query(query_text, &PrefixMap::with_defaults())
        .map_err(|e| format!("query syntax: {e}"))?;
    let store = TripleStore::new(g);
    if has_flag(rest, "--reformulate") {
        // Complete answers over the explicit triples, via query rewriting.
        let union = rdfsummary::rdf_query::reformulate(
            &spec,
            store.graph(),
            &rdfsummary::rdf_query::ReformulateConfig::default(),
        )
        .map_err(|e| format!("reformulation: {e}"))?;
        writeln!(
            stdout,
            "reformulated into a union of {} queries",
            union.len()
        )?;
        let ev = Evaluator::new(&store);
        let mut seen = std::collections::BTreeSet::new();
        for q in &union {
            let cq = compile(q, store.graph()).map_err(|e| format!("compile: {e}"))?;
            for row in ev.select(&cq).decode(&store) {
                seen.insert(render_row(&row));
            }
        }
        if seen.is_empty() {
            writeln!(stdout, "no answers")?;
        } else {
            for row in &seen {
                writeln!(stdout, "{row}")?;
            }
            writeln!(stdout, "({} answers)", seen.len())?;
        }
        return Ok(());
    }
    let compiled = compile(&spec, store.graph()).map_err(|e| format!("compile: {e}"))?;
    if has_flag(rest, "--explain") {
        write!(
            stdout,
            "{}",
            rdfsummary::rdf_query::explain(&store, &compiled)
        )?;
    }
    let rs = Evaluator::new(&store).select_limit(&compiled, limit);
    if rs.is_empty() {
        writeln!(stdout, "no answers")?;
        return Ok(());
    }
    writeln!(stdout, "{}", rs.columns.join("\t"))?;
    for row in rs.decode(&store) {
        writeln!(stdout, "{}", render_row(&row))?;
    }
    writeln!(stdout, "({} answers, limit {limit})", rs.len())?;
    Ok(())
}

/// One answer row as the served `QUERY` body renders it.
fn render_row(row: &[TermRef<'_>]) -> String {
    let mut line = String::new();
    rdfsummary::rdf_io::writer::push_row(&mut line, row.iter().copied());
    line
}

fn cmd_generate(rest: &[String], stdout: &mut Stdout) -> Result<(), Failure> {
    let family = rest.first().ok_or("expected `bsbm` or `lubm`")?;
    let scale: usize = flag_value(rest, "--scale")
        .ok_or("missing --scale N")?
        .parse()
        .map_err(|_| "bad --scale")?;
    let g = match family.as_str() {
        "bsbm" => workloads::generate_bsbm(&BsbmConfig::with_products(scale)),
        "lubm" => workloads::generate_lubm(&LubmConfig::with_universities(scale)),
        other => return Err(format!("unknown generator `{other}`").into()),
    };
    writeln!(
        stdout,
        "generated {family} scale {scale}: {} triples",
        g.len()
    )?;
    if let Some(out) = flag_value(rest, "--out") {
        if out.ends_with(".snap") {
            snapshot::save(&g, &out).map_err(|e| format!("writing {out}: {e}"))?;
        } else {
            save_path(&g, &out).map_err(|e| format!("writing {out}: {e}"))?;
        }
        writeln!(stdout, "wrote {out}")?;
    }
    Ok(())
}

/// `serve`: the long-running warm-store summary server. `--threads`
/// sizes the index sorts of every load (summaries build on the thread
/// that runs the request); `--workers` sizes the executor for the
/// seconds-scale verbs (`LOAD`, cold `SUMMARIZE`, `UPDATE`) — cheap verbs
/// answer inline on the event thread — and never caps how many clients may
/// stay connected (default `max(threads, 4)`). `--cache-bytes N` puts an LRU byte budget on the
/// summary cache (default: unbounded). `--persist-dir DIR` writes every
/// built summary to DIR and probes it on cache misses, so a restarted
/// server answers its first `SUMMARIZE` without rebuilding. Runs until the
/// process is killed.
fn cmd_serve(rest: &[String], stdout: &mut Stdout) -> Result<(), Failure> {
    // Every `serve` flag takes a value, so the arguments come in pairs; a
    // flag outside this list would otherwise start a server on defaults
    // without a word.
    const FLAGS: [&str; 5] = [
        "--addr",
        "--threads",
        "--workers",
        "--cache-bytes",
        "--persist-dir",
    ];
    for pair in rest.chunks(2) {
        if !FLAGS.contains(&pair[0].as_str()) {
            return Err(format!("serve: unknown argument `{}`", pair[0]).into());
        }
        if pair.len() < 2 {
            return Err(format!("serve: missing value for `{}`", pair[0]).into());
        }
    }
    let addr = flag_value(rest, "--addr").unwrap_or_else(|| "127.0.0.1:7878".into());
    let threads = thread_count(rest)?;
    let workers = match flag_value(rest, "--workers") {
        Some(v) => match v.parse::<usize>() {
            Ok(n) if n >= 1 => n,
            _ => return Err(format!("bad --workers value `{v}` (want an integer >= 1)").into()),
        },
        None => threads.max(4),
    };
    let cache_bytes = match flag_value(rest, "--cache-bytes") {
        Some(v) => match v.parse::<usize>() {
            Ok(n) => Some(n),
            Err(_) => {
                return Err(format!("bad --cache-bytes value `{v}` (want a byte count)").into());
            }
        },
        None => None,
    };
    let mut service = rdfsum_core::SummaryService::with_cache_bytes(threads, cache_bytes);
    if let Some(dir) = flag_value(rest, "--persist-dir") {
        // Fail startup loudly on an unusable directory: once serving, all
        // persistence errors degrade silently, so this is the one chance
        // to tell the operator their artifacts aren't going anywhere.
        std::fs::create_dir_all(&dir).map_err(|e| format!("bad --persist-dir `{dir}`: {e}"))?;
        service = service.with_persist_dir(dir);
    }
    let service = std::sync::Arc::new(service);
    let handle = rdfsummary::rdfsum_server::spawn(addr.as_str(), service, workers)
        .map_err(|e| format!("binding {addr}: {e}"))?;
    // The resolved address line is the machine-readable startup handshake
    // (tests bind port 0 and read the real port from here).
    writeln!(
        stdout,
        "listening on {} ({workers} workers, {threads} index thread(s), event engine)",
        handle.addr()
    )?;
    stdout.flush()?;
    loop {
        std::thread::park();
    }
}

/// `client`: one request against a running server; the body (summary
/// N-Triples, STATS listing, QUERY answer rows) goes to stdout so it can
/// be piped, the status line to stderr.
fn cmd_client(rest: &[String], stdout: &mut Stdout) -> Result<(), Failure> {
    let (addr, words) = rest.split_first().ok_or("client: missing server address")?;
    if words.is_empty() {
        return Err("client: missing request (e.g. `client 127.0.0.1:7878 PING`)".into());
    }
    let request = words.join(" ");
    let mut client = rdfsummary::rdfsum_server::Client::connect(addr.as_str())
        .map_err(|e| format!("connecting to {addr}: {e}"))?;
    let response = client
        .request(&request)
        .map_err(|e| format!("talking to {addr}: {e}"))?;
    eprintln!("{}", response.status);
    if let Some(body) = &response.body {
        stdout.write_all(body)?;
    }
    if response.is_ok() {
        Ok(())
    } else {
        Err(format!("server answered: {}", response.status).into())
    }
}

fn cmd_snapshot(path: &str, rest: &[String], stdout: &mut Stdout) -> Result<(), Failure> {
    let out = flag_value(rest, "--out").ok_or("missing --out FILE.snap")?;
    let g = load(path)?;
    snapshot::save(&g, &out).map_err(|e| format!("writing {out}: {e}"))?;
    writeln!(stdout, "wrote {out} ({} triples)", g.len())?;
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        let _ = usage(&mut std::io::stdout().lock());
        return ExitCode::FAILURE;
    };
    let rest = &args[1..];
    let stdout = &mut std::io::stdout().lock();
    let result = match cmd.as_str() {
        "help" | "--help" | "-h" => usage(stdout),
        "stats" => match rest.first() {
            Some(p) => cmd_stats(p, &rest[1..], stdout),
            None => Err("stats: missing graph file".into()),
        },
        "summarize" => match rest.first() {
            Some(p) => cmd_summarize(p, &rest[1..], stdout),
            None => Err("summarize: missing graph file".into()),
        },
        "saturate" => match rest.first() {
            Some(p) => cmd_saturate(p, &rest[1..], stdout),
            None => Err("saturate: missing graph file".into()),
        },
        "check" => match rest.first() {
            Some(p) => cmd_check(p, stdout),
            None => Err("check: missing graph file".into()),
        },
        "query" => match rest.first() {
            Some(p) => cmd_query(p, &rest[1..], stdout),
            None => Err("query: missing graph file".into()),
        },
        "generate" => cmd_generate(rest, stdout),
        "serve" => cmd_serve(rest, stdout),
        "client" => cmd_client(rest, stdout),
        "snapshot" => match rest.first() {
            Some(p) => cmd_snapshot(p, &rest[1..], stdout),
            None => Err("snapshot: missing graph file".into()),
        },
        other => Err(format!("unknown command `{other}`").into()),
    };
    match result.and_then(|()| Ok(stdout.flush()?)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(Failure::Stdout(e)) if e.kind() == std::io::ErrorKind::BrokenPipe => ExitCode::SUCCESS,
        Err(Failure::Stdout(e)) => fail(&format!("writing to stdout: {e}")),
        Err(Failure::Message(msg)) => fail(&msg),
    }
}
