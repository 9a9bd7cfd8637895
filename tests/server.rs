//! Integration suite for the warm-store summary server: an in-process
//! server driven over real TCP.
//!
//! The two contracts this suite pins:
//!
//! 1. **byte-identity** — `SUMMARIZE` responses (cache misses *and* hits)
//!    are byte-identical to the single-shot CLI's `summarize --kind K
//!    --out FILE` output for the same graph, on the book graph, BSBM and
//!    LUBM, for all five summary kinds;
//! 2. **single-flight** — under ≥8 concurrent clients, each distinct
//!    `(fingerprint, kind)` pair is built exactly once (the
//!    `SummaryService::builds` counter seam), with no deadlocks and
//!    every response well-formed.

use rdfsummary::prelude::*;
use rdfsummary::rdfsum_core::{SummaryKind, SummaryService};
use rdfsummary::rdfsum_server::{Client, ServerHandle};
use rdfsummary::rdfsum_workloads as workloads;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::Arc;

/// All five summary kinds the server must answer (the four principal
/// ones plus the type-based summary).
const FIVE_KINDS: [(SummaryKind, &str); 5] = [
    (SummaryKind::Weak, "w"),
    (SummaryKind::Strong, "s"),
    (SummaryKind::TypedWeak, "tw"),
    (SummaryKind::TypedStrong, "ts"),
    (SummaryKind::TypeBased, "t"),
];

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_rdfsummary"))
}

fn workdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rdfsummary_server_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The three fixture graphs of the byte-identity contract, written as
/// N-Triples files: the paper's §2.1 book example, BSBM and LUBM.
fn fixture_files(dir: &Path) -> Vec<(&'static str, PathBuf)> {
    let fixtures = [
        ("book", rdfsummary::rdfsum_core::fixtures::book_graph()),
        (
            "bsbm",
            workloads::generate_bsbm(&BsbmConfig::with_products(30)),
        ),
        (
            "lubm",
            workloads::generate_lubm(&LubmConfig::with_universities(1)),
        ),
    ];
    fixtures
        .into_iter()
        .map(|(name, g)| {
            let path = dir.join(format!("{name}.nt"));
            save_path(&g, &path).unwrap();
            (name, path)
        })
        .collect()
}

fn start(threads: usize, workers: usize) -> (ServerHandle, Arc<SummaryService>) {
    let service = Arc::new(SummaryService::new(threads));
    let handle =
        rdfsummary::rdfsum_server::spawn("127.0.0.1:0", Arc::clone(&service), workers).unwrap();
    (handle, service)
}

/// An N-Triples file may state a triple more than once, and means its
/// first occurrence. A BSBM file with repeats of every shape — adjacent,
/// ten thousand lines apart, in the data, type and schema tables, the
/// file's first triple again as its last line — reads as the file without
/// them through every way in: `LOAD` over the wire (fingerprint, all six
/// summary bodies), the CLI (`snapshot` bytes, `summarize --out` bytes)
/// and `parse_graph` (tables, dictionary, fingerprint).
#[test]
fn repeated_lines_load_as_their_first_occurrences() {
    let dir = workdir("repeats");
    let clean_text = write_graph(&workloads::generate_bsbm(&BsbmConfig::with_products(150)));
    let clean: Vec<&str> = clean_text.lines().collect();
    let parsed = parse_graph(&clean_text).unwrap();
    let (n_data, n_type) = (parsed.data().len(), parsed.types().len());
    assert!(n_data > 10_200 && n_type > 10 && !parsed.schema().is_empty());
    assert_eq!(
        clean.len(),
        parsed.len(),
        "the writer lists data, types, schema"
    );
    let mut lines = clean.clone();
    // Back to front, so the earlier positions stay what they were.
    lines.push(clean[0]);
    lines.insert(clean.len() - 1, clean[n_data + n_type]); // schema, apart
    lines.insert(n_data + 8, clean[n_data + 7]); // type, adjacent
    lines.insert(n_data + 3, clean[40]); // data, among the types
    lines.insert(10_100, clean[100]); // data, 10⁴ lines apart
    lines.insert(11, clean[10]); // data, adjacent
    lines.insert(11, clean[10]); // …and once more
    assert_eq!(lines.len(), clean.len() + 7);
    let repeated_text = lines.join("\n") + "\n";
    let (clean_nt, repeated_nt) = (dir.join("clean.nt"), dir.join("repeated.nt"));
    std::fs::write(&clean_nt, &clean_text).unwrap();
    std::fs::write(&repeated_nt, &repeated_text).unwrap();

    // parse_graph: the same tables over the same dictionary.
    let reparsed = parse_graph(&repeated_text).unwrap();
    assert_eq!(reparsed.components(), parsed.components());
    assert_eq!(
        rdfsummary::rdf_store::snapshot::encode(&reparsed),
        rdfsummary::rdf_store::snapshot::encode(&parsed)
    );
    let fingerprint = rdfsummary::rdf_store::graph_fingerprint(&parsed);
    assert_eq!(
        rdfsummary::rdf_store::graph_fingerprint(&reparsed),
        fingerprint
    );

    // The CLI: snapshot bytes, and every summary from the file and from
    // its snapshot.
    let cli = |args: &[&str], out: &Path| {
        let run = bin().args(args).arg("--out").arg(out).output().unwrap();
        assert!(
            run.status.success(),
            "{}",
            String::from_utf8_lossy(&run.stderr)
        );
        std::fs::read(out).unwrap()
    };
    let snap_of = |nt: &Path, name: &str| {
        let out = dir.join(name);
        (cli(&["snapshot", nt.to_str().unwrap()], &out), out)
    };
    let (clean_snap, _) = snap_of(&clean_nt, "clean.snap");
    let (repeated_snap, repeated_snap_path) = snap_of(&repeated_nt, "repeated.snap");
    assert_eq!(repeated_snap, clean_snap);
    let six = FIVE_KINDS
        .into_iter()
        .chain([(SummaryKind::Bisimulation, "fb")]);

    // The wire: LOAD of each file, then all six kinds.
    let (handle, _service) = start(2, 2);
    let mut client = Client::connect(handle.addr()).unwrap();
    for nt in [&clean_nt, &repeated_nt] {
        let loaded = client.load(nt.to_str().unwrap()).unwrap();
        assert!(loaded.is_ok(), "{}", loaded.status);
        assert_eq!(loaded.field("fp"), Some(fingerprint.to_string().as_str()));
        assert_eq!(
            loaded.field("triples"),
            Some(clean.len().to_string().as_str())
        );
    }
    for (kind, tok) in six {
        let out = dir.join(format!("{tok}.nt"));
        let want = cli(
            &["summarize", clean_nt.to_str().unwrap(), "--kind", tok],
            &out,
        );
        for input in [&repeated_nt, &repeated_snap_path] {
            let got = cli(&["summarize", input.to_str().unwrap(), "--kind", tok], &out);
            assert_eq!(got, want, "{tok} from {}", input.display());
        }
        let served = client
            .summarize(kind, repeated_nt.to_str().unwrap())
            .unwrap();
        assert_eq!(
            served.body.as_deref(),
            Some(want.as_slice()),
            "{tok} served"
        );
    }
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The headline contract: for every fixture × kind, the server's
/// `SUMMARIZE` body — on the cold miss and on the warm cache hit — is
/// byte-identical to what the single-shot CLI writes with `--out`.
#[test]
fn summarize_responses_match_cli_output_byte_for_byte() {
    let dir = workdir("bytes");
    let (handle, service) = start(1, 4);
    let mut client = Client::connect(handle.addr()).unwrap();
    for (name, path) in fixture_files(&dir) {
        let path_str = path.to_str().unwrap();
        let loaded = client.load(path_str).unwrap();
        assert!(loaded.is_ok(), "{}", loaded.status);
        let fp = loaded.field("fp").unwrap().to_string();
        for (kind, tok) in FIVE_KINDS {
            // Single-shot CLI, same graph, same kind.
            let out = dir.join(format!("{name}_{tok}.nt"));
            let cli = bin()
                .args(["summarize", path_str, "--kind", tok])
                .args(["--out", out.to_str().unwrap()])
                .output()
                .unwrap();
            assert!(
                cli.status.success(),
                "{}",
                String::from_utf8_lossy(&cli.stderr)
            );
            let cli_bytes = std::fs::read(&out).unwrap();

            // Cold miss, then warm hit; both byte-identical to the CLI.
            let miss = client.summarize(kind, path_str).unwrap();
            assert!(miss.is_ok(), "{}", miss.status);
            assert_eq!(miss.field("cached"), Some("0"), "{name}/{tok}");
            assert_eq!(miss.field("fp"), Some(fp.as_str()));
            let hit = client.summarize(kind, path_str).unwrap();
            assert_eq!(hit.field("cached"), Some("1"), "{name}/{tok}");
            assert_eq!(
                miss.body.as_deref(),
                Some(cli_bytes.as_slice()),
                "{name}/{tok}: miss body differs from CLI output"
            );
            assert_eq!(
                hit.body.as_deref(),
                Some(cli_bytes.as_slice()),
                "{name}/{tok}: cached body differs from CLI output"
            );
        }
    }
    // 3 fixtures × 5 kinds, each built exactly once.
    assert_eq!(service.builds(), 15);
    handle.shutdown();
}

/// A multi-threaded service yields the same bytes as the sequential one
/// (its index sorts are bit-identical; the cache key is content).
#[test]
fn threaded_service_answers_are_identical() {
    let dir = workdir("threads");
    let g = workloads::generate_bsbm(&BsbmConfig::with_products(40));
    let path = dir.join("bsbm40.nt");
    save_path(&g, &path).unwrap();
    let path_str = path.to_str().unwrap();

    let (h1, _s1) = start(1, 2);
    let (h4, _s4) = start(4, 2);
    let mut c1 = Client::connect(h1.addr()).unwrap();
    let mut c4 = Client::connect(h4.addr()).unwrap();
    c1.load(path_str).unwrap();
    c4.load(path_str).unwrap();
    for (kind, tok) in FIVE_KINDS {
        let a = c1.summarize(kind, path_str).unwrap();
        let b = c4.summarize(kind, path_str).unwrap();
        assert!(a.is_ok() && b.is_ok());
        assert_eq!(a.field("fp"), b.field("fp"), "{tok}: fingerprints differ");
        assert_eq!(a.body, b.body, "{tok}: bodies differ across thread counts");
    }
    h1.shutdown();
    h4.shutdown();
}

/// Loading the same content under two paths shares one cache line, and
/// snapshots fingerprint identically to their N-Triples source.
#[test]
fn cache_is_keyed_by_content_not_by_name() {
    let dir = workdir("content");
    let g = rdfsummary::rdfsum_core::fixtures::book_graph();
    let a = dir.join("a.nt");
    let b = dir.join("copy of a.nt"); // path with a space, loaded verbatim
    let snap = dir.join("a.snap");
    save_path(&g, &a).unwrap();
    save_path(&g, &b).unwrap();
    rdfsummary::rdf_store::snapshot::save(&g, &snap).unwrap();

    let (handle, service) = start(1, 2);
    let mut client = Client::connect(handle.addr()).unwrap();
    let fp_a = client.load(a.to_str().unwrap()).unwrap();
    let fp_b = client.load(b.to_str().unwrap()).unwrap();
    let fp_s = client.load(snap.to_str().unwrap()).unwrap();
    assert_eq!(fp_a.field("fp"), fp_b.field("fp"));
    assert_eq!(
        fp_a.field("fp"),
        fp_s.field("fp"),
        "snapshot load must fingerprint like its N-Triples source"
    );
    let miss = client
        .summarize(SummaryKind::Weak, a.to_str().unwrap())
        .unwrap();
    assert_eq!(miss.field("cached"), Some("0"));
    for other in [b.to_str().unwrap(), snap.to_str().unwrap()] {
        let hit = client.summarize(SummaryKind::Weak, other).unwrap();
        assert_eq!(hit.field("cached"), Some("1"), "{other}");
        assert_eq!(hit.body, miss.body);
    }
    assert_eq!(service.builds(), 1);
    handle.shutdown();
}

/// STATS and EVICT round out the protocol: counters move as expected and
/// eviction invalidates exactly the evicted graph's cache lines.
#[test]
fn stats_and_evict_lifecycle() {
    let dir = workdir("lifecycle");
    let files = fixture_files(&dir);
    let (handle, _service) = start(1, 2);
    let mut client = Client::connect(handle.addr()).unwrap();
    for (_, path) in &files {
        client.load(path.to_str().unwrap()).unwrap();
    }
    let book = files[0].1.to_str().unwrap();
    client.summarize(SummaryKind::Weak, book).unwrap();
    client.summarize(SummaryKind::Strong, book).unwrap();

    let stats = client.stats().unwrap();
    assert_eq!(stats.field("graphs"), Some("3"));
    assert_eq!(stats.field("cached"), Some("2"));
    assert_eq!(stats.field("builds"), Some("2"));
    let listing = stats.body_str().unwrap();
    assert_eq!(listing.lines().count(), 3);
    assert!(listing.contains("book.nt"), "{listing}");

    // Evicting the book drops its two cache lines…
    let evicted = client.evict(Some(book)).unwrap();
    assert_eq!(evicted.status, "OK evicted graphs=1 entries=2");
    let stats = client.stats().unwrap();
    assert_eq!(stats.field("graphs"), Some("2"));
    assert_eq!(stats.field("cached"), Some("0"));
    // …and summarizing it again is an unknown-graph error until reloaded.
    let err = client.summarize(SummaryKind::Weak, book).unwrap();
    assert!(err.status.starts_with("ERR summarize:"), "{}", err.status);
    client.load(book).unwrap();
    let miss = client.summarize(SummaryKind::Weak, book).unwrap();
    assert_eq!(miss.field("cached"), Some("0"));

    // EVICT * clears the world.
    let all = client.evict(None).unwrap();
    assert!(all.is_ok(), "{}", all.status);
    let stats = client.stats().unwrap();
    assert_eq!(stats.field("graphs"), Some("0"));
    assert_eq!(stats.field("cached"), Some("0"));
    handle.shutdown();
}

/// The single-flight proof over real TCP: 10 concurrent clients race all
/// five kinds on two distinct graphs; every response is well-formed and
/// each of the 10 distinct (fingerprint, kind) pairs is built exactly
/// once — the rest are cache hits or condvar waiters sharing the build.
#[test]
fn stress_exactly_one_build_per_fingerprint_kind() {
    let dir = workdir("stress1");
    let g1 = workloads::generate_bsbm(&BsbmConfig::with_products(25));
    let g2 = workloads::generate_lubm(&LubmConfig::with_universities(1));
    let p1 = dir.join("g1.nt");
    let p2 = dir.join("g2.nt");
    save_path(&g1, &p1).unwrap();
    save_path(&g2, &p2).unwrap();

    let (handle, service) = start(1, 16);
    let addr = handle.addr();
    let clients = 10;
    std::thread::scope(|scope| {
        for c in 0..clients {
            let (p1, p2) = (p1.clone(), p2.clone());
            scope.spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                // Every client loads both graphs (interleaved LOADs are
                // content-identical, so the cache stays valid) and then
                // hammers every kind on both, in a per-client order.
                for p in [&p1, &p2] {
                    let r = client.load(p.to_str().unwrap()).unwrap();
                    assert!(r.is_ok(), "{}", r.status);
                }
                for round in 0..3 {
                    for (i, (kind, _)) in FIVE_KINDS.iter().enumerate() {
                        let p = if (c + i + round) % 2 == 0 { &p1 } else { &p2 };
                        let r = client.summarize(*kind, p.to_str().unwrap()).unwrap();
                        assert!(r.is_ok(), "{}", r.status);
                        let bytes: usize = r.field("bytes").unwrap().parse().unwrap();
                        assert_eq!(r.body.as_ref().unwrap().len(), bytes);
                        assert!(!r.body.as_ref().unwrap().is_empty());
                    }
                    let stats = client.stats().unwrap();
                    assert!(stats.is_ok(), "{}", stats.status);
                }
            });
        }
    });
    assert_eq!(
        service.builds(),
        10,
        "2 fingerprints x 5 kinds must build exactly once each"
    );
    let st = service.stats();
    assert_eq!(st.hits + st.misses, (clients * 3 * 5) as u64);
    handle.shutdown();
}

/// Chaos phase: interleaved LOAD / SUMMARIZE / EVICT / STATS from 8
/// clients. Evictions force legitimate rebuilds, so the build count is
/// no longer pinned — the assertions are liveness (no deadlock: the test
/// finishes) and well-formedness (every response is OK or a clean
/// expected ERR; summary bodies always match their advertised length and
/// exact expected bytes).
#[test]
fn stress_interleaved_load_summarize_evict() {
    let dir = workdir("stress2");
    let g1 = workloads::generate_bsbm(&BsbmConfig::with_products(15));
    let g2 = rdfsummary::rdfsum_core::fixtures::book_graph();
    let p1 = dir.join("g1.nt");
    let p2 = dir.join("g2.nt");
    save_path(&g1, &p1).unwrap();
    save_path(&g2, &p2).unwrap();
    // Expected bodies, computed through the same single-shot path the
    // service mirrors (threads = 1).
    let expect: Vec<Vec<(SummaryKind, String)>> = [&g1, &g2]
        .iter()
        .map(|g| {
            FIVE_KINDS
                .iter()
                .map(|(k, _)| (*k, write_graph(&summarize(g, *k).graph)))
                .collect()
        })
        .collect();

    let (handle, service) = start(1, 16);
    let addr = handle.addr();
    let expect = &expect;
    std::thread::scope(|scope| {
        for c in 0..8 {
            let (p1, p2) = (p1.clone(), p2.clone());
            scope.spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                for round in 0..4 {
                    let which = (c + round) % 2;
                    let p = if which == 0 { &p1 } else { &p2 };
                    let path = p.to_str().unwrap();
                    let r = client.load(path).unwrap();
                    assert!(r.is_ok(), "{}", r.status);
                    for (kind, body) in &expect[which] {
                        let r = client.summarize(*kind, path).unwrap();
                        if r.is_ok() {
                            assert_eq!(
                                r.body_str(),
                                Some(body.as_str()),
                                "wrong summary bytes for {kind}"
                            );
                        } else {
                            // A racing EVICT may have unloaded the graph
                            // between our LOAD and this request; that is
                            // the only legitimate failure.
                            assert!(
                                r.status.starts_with("ERR summarize: no graph loaded"),
                                "{}",
                                r.status
                            );
                        }
                    }
                    if c % 4 == 3 {
                        let r = client.evict(Some(path)).unwrap();
                        assert!(
                            r.is_ok() || r.status.starts_with("ERR evict: no graph loaded"),
                            "{}",
                            r.status
                        );
                    }
                    let stats = client.stats().unwrap();
                    assert!(stats.is_ok(), "{}", stats.status);
                }
                client.quit().unwrap();
            });
        }
    });
    // Single-flight still bounds rebuild storms: never more builds than
    // requests, and the service is consistent afterwards.
    let st = service.stats();
    assert_eq!(st.builds, st.misses);
    assert!(service.builds() >= 10);
    handle.shutdown();
}

/// The delta-serving contract over real TCP: a single-triple `UPDATE`
/// carries the warm weak summary to the new fingerprint (one rebuild, no
/// miss: the triple's property is new, which no quotient map absorbs), the
/// carried body is byte-identical to a cold build of the updated graph, a
/// delete carries it back the same way, and the STATS line accounts for
/// both in its `updates`/`patches`/`patch_fallbacks` tokens.
#[test]
fn update_carries_warm_weak_summary_over_the_wire() {
    let dir = workdir("update");
    let g = rdfsummary::rdfsum_core::fixtures::book_graph();
    let path = dir.join("book.nt");
    save_path(&g, &path).unwrap();
    let path_str = path.to_str().unwrap();

    let (handle, service) = start(1, 2);
    let mut client = Client::connect(handle.addr()).unwrap();
    client.load(path_str).unwrap();
    let cold = client.summarize(SummaryKind::Weak, path_str).unwrap();
    assert_eq!(cold.field("cached"), Some("0"));
    let builds_before = service.builds();

    // Insert one data triple: the warm weak summary must be carried
    // across the fingerprint transition by the update itself.
    let payload = "<http://pr8/s> <http://pr8/p> <http://pr8/o> .";
    let r = client.update(path_str, true, payload).unwrap();
    assert!(r.is_ok(), "{}", r.status);
    assert_eq!(r.field("applied"), Some("1"));
    assert_eq!(r.field("patched"), Some("0"));
    assert_eq!(r.field("rebuilt"), Some("1"));
    assert_eq!(service.builds(), builds_before + 1, "one carry, one build");
    assert_ne!(r.field("fp"), cold.field("fp"), "fingerprint must move");

    // The carried artifact serves as a warm hit under the new fingerprint…
    let hit = client.summarize(SummaryKind::Weak, path_str).unwrap();
    assert_eq!(hit.field("cached"), Some("1"));
    assert_eq!(hit.field("fp"), r.field("fp"));
    // …byte-identical to a cold build over the same updated content.
    let mut updated = g.clone();
    updated
        .insert(
            Term::iri("http://pr8/s"),
            Term::iri("http://pr8/p"),
            Term::iri("http://pr8/o"),
        )
        .unwrap();
    let expect = write_graph(&summarize(&updated, SummaryKind::Weak).graph);
    assert_eq!(hit.body_str(), Some(expect.as_str()));

    // Deleting the triple carries the same way and restores the original
    // fingerprint + bytes.
    let del = client.update(path_str, false, payload).unwrap();
    assert!(del.is_ok(), "{}", del.status);
    assert_eq!(del.field("applied"), Some("1"));
    assert_eq!(del.field("patched"), Some("0"));
    assert_eq!(del.field("rebuilt"), Some("1"));
    assert_eq!(del.field("fp"), cold.field("fp"));
    let back = client.summarize(SummaryKind::Weak, path_str).unwrap();
    assert_eq!(back.field("cached"), Some("1"));
    assert_eq!(back.body, cold.body);

    // STATS reports the counters and the CI invariant holds: every
    // build is either a carried kind or a plain cache miss.
    let stats = client.stats().unwrap();
    assert_eq!(stats.field("updates"), Some("2"));
    assert_eq!(stats.field("patches"), Some("0"));
    assert_eq!(stats.field("patch_fallbacks"), Some("2"));
    let field = |k: &str| stats.field(k).unwrap().parse::<u64>().unwrap();
    assert_eq!(field("builds"), field("patch_fallbacks") + field("misses"));

    // Error paths: malformed payload, bad triple, unknown graph — all
    // clean ERRs that keep the connection serving.
    let bad = client.update(path_str, true, "not ntriples").unwrap();
    assert!(bad.status.starts_with("ERR update:"), "{}", bad.status);
    let missing = client.update("/nope.nt", true, payload).unwrap();
    assert!(
        missing.status.starts_with("ERR update:"),
        "{}",
        missing.status
    );
    assert!(client.ping().unwrap().is_ok());
    handle.shutdown();
}

/// Several *concurrent writers* on one server over TCP: eight clients each
/// interleave `UPDATE +` / `UPDATE -` of their own triples with `QUERY`
/// (pruned and not), `SUMMARIZE` and `STATS`, so the fingerprint keeps
/// moving under every other verb. Every response must be `OK`, the
/// accounting must balance (`builds == patch_fallbacks + misses`: every
/// build is a plain miss or a kind carried by an update), and the
/// weak summary served for the final content must equal a cold CLI build
/// of that content byte for byte.
#[test]
fn update_mix_from_concurrent_writers_stays_consistent() {
    const CLIENTS: usize = 8;
    const REQUESTS: usize = 42;
    let dir = workdir("update_mix");
    let g = workloads::generate_bsbm(&BsbmConfig::with_products(30));
    let path = dir.join("bsbm.nt");
    save_path(&g, &path).unwrap();
    let path_str = path.to_str().unwrap().to_string();

    let (handle, service) = start(2, CLIENTS);
    let addr = handle.addr();
    let mut main = Client::connect(addr).unwrap();
    assert!(main.load(&path_str).unwrap().is_ok());
    assert!(main
        .summarize(SummaryKind::Weak, &path_str)
        .unwrap()
        .is_ok());

    let writers: Vec<_> = (0..CLIENTS)
        .map(|cid| {
            let graph = path_str.clone();
            std::thread::spawn(move || -> usize {
                let mut client = Client::connect(addr).unwrap();
                let mut pending: Option<String> = None;
                let mut updates = 0;
                for i in 0..REQUESTS {
                    // Per 7-cycle: STATS, SUMMARIZE, an insert of a fresh
                    // triple of this client's own, its delete one step
                    // later, and QUERYs (pruned and not) in between.
                    let slot = (i + cid) % 7;
                    let r = if slot == 0 {
                        client.stats()
                    } else if slot == 1 {
                        client.summarize(SummaryKind::Weak, &graph)
                    } else if let Some(triple) = pending.take() {
                        updates += 1;
                        client.update(&graph, false, &triple)
                    } else if slot == 2 {
                        let triple =
                            format!("<http://upd/c{cid}> <http://upd/p> <http://upd/r{i}> .");
                        updates += 1;
                        let r = client.update(&graph, true, &triple);
                        pending = Some(triple);
                        r
                    } else if slot % 2 == 0 {
                        client.query(&graph, "q() :- ?x <http://nowhere.invalid/nope> ?y")
                    } else {
                        client.query(
                            &graph,
                            "q(?x,?y) :- ?x <http://www.w3.org/2000/01/rdf-schema#label> ?y",
                        )
                    }
                    .unwrap();
                    assert!(r.is_ok(), "client {cid} request {i}: {}", r.status);
                }
                if let Some(triple) = pending {
                    updates += 1;
                    let r = client.update(&graph, false, &triple).unwrap();
                    assert!(r.is_ok(), "client {cid} final delete: {}", r.status);
                }
                updates
            })
        })
        .collect();
    let mut updates: usize = writers.into_iter().map(|w| w.join().unwrap()).sum();
    assert!(updates >= 2 * CLIENTS, "the mix must issue UPDATEs");

    // Every writer deleted what it inserted; one last batch makes the final
    // content differ from the loaded file in a known way.
    let batch = [
        ("http://upd/final/a", "http://upd/p", "http://upd/final/b"),
        ("http://upd/final/b", "http://upd/q", "http://upd/final/c"),
        (
            "http://upd/final/a",
            rdfsummary::rdf_model::vocab::RDF_TYPE,
            "http://upd/final/C",
        ),
    ];
    let mut final_graph = g.clone();
    let mut payload = String::new();
    for (s, p, o) in batch {
        final_graph.add_iri_triple(s, p, o);
        payload.push_str(&format!("<{s}> <{p}> <{o}> . "));
    }
    let r = main.update(&path_str, true, &payload).unwrap();
    assert!(r.is_ok(), "{}", r.status);
    assert_eq!(r.field("applied"), Some("3"));
    updates += 1;

    let final_path = dir.join("final.nt");
    save_path(&final_graph, &final_path).unwrap();
    let out = dir.join("final_w.nt");
    let cli = bin()
        .args(["summarize", final_path.to_str().unwrap(), "--kind", "w"])
        .args(["--out", out.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        cli.status.success(),
        "{}",
        String::from_utf8_lossy(&cli.stderr)
    );
    let served = main.summarize(SummaryKind::Weak, &path_str).unwrap();
    assert!(served.is_ok(), "{}", served.status);
    assert_eq!(served.field("fp"), r.field("fp"));
    assert_eq!(
        served.body.as_deref(),
        Some(std::fs::read(&out).unwrap().as_slice()),
        "served weak summary differs from a cold CLI build of the final content"
    );

    let stats = main.stats().unwrap();
    assert!(stats.is_ok(), "{}", stats.status);
    let field = |k: &str| stats.field(k).unwrap().parse::<u64>().unwrap();
    assert_eq!(field("updates"), updates as u64);
    assert_eq!(field("builds"), field("patch_fallbacks") + field("misses"));
    assert_eq!(service.builds(), field("builds"));
    handle.shutdown();
}

/// The CLI front-end end to end: `rdfsummary serve` prints its resolved
/// address, `rdfsummary client` scripts LOAD / SUMMARIZE / STATS against
/// it, and the piped SUMMARIZE body equals the CLI's --out bytes.
#[test]
fn cli_serve_and_client_roundtrip() {
    use std::io::{BufRead, BufReader};
    let dir = workdir("cli");
    let g = rdfsummary::rdfsum_core::fixtures::book_graph();
    let path = dir.join("book.nt");
    save_path(&g, &path).unwrap();
    let path_str = path.to_str().unwrap();

    let mut serve = bin()
        .args(["serve", "--addr", "127.0.0.1:0", "--threads", "1"])
        .stdout(std::process::Stdio::piped())
        .spawn()
        .unwrap();
    let mut first_line = String::new();
    BufReader::new(serve.stdout.as_mut().unwrap())
        .read_line(&mut first_line)
        .unwrap();
    assert!(first_line.starts_with("listening on "), "{first_line}");
    let addr = first_line.split_whitespace().nth(2).unwrap().to_string();

    let run_client = |args: &[&str]| {
        let out = bin().arg("client").arg(&addr).args(args).output().unwrap();
        (out.status.success(), out.stdout, out.stderr)
    };

    let (ok, _, stderr) = run_client(&["PING"]);
    assert!(ok, "{}", String::from_utf8_lossy(&stderr));
    let (ok, _, stderr) = run_client(&["LOAD", path_str]);
    assert!(ok);
    assert!(String::from_utf8_lossy(&stderr).starts_with("OK loaded"));
    // SUMMARIZE body goes to stdout: compare against the single-shot CLI.
    let out_file = dir.join("weak.nt");
    let cli = bin()
        .args(["summarize", path_str, "--kind", "w"])
        .args(["--out", out_file.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(cli.status.success());
    let (ok, stdout, _) = run_client(&["SUMMARIZE", "w", path_str]);
    assert!(ok);
    assert_eq!(stdout, std::fs::read(&out_file).unwrap());
    // Errors surface as nonzero exit + the ERR status.
    let (ok, _, stderr) = run_client(&["SUMMARIZE", "w", "/not/loaded.nt"]);
    assert!(!ok);
    assert!(String::from_utf8_lossy(&stderr).contains("ERR summarize:"));
    let (ok, _, _) = run_client(&["QUIT"]);
    assert!(ok);

    serve.kill().unwrap();
    serve.wait().unwrap();
}
