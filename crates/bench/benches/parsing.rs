//! N-Triples load path throughput (the paper's §6 `COPY` + encode + split
//! pipeline equivalent).
//!
//! Three inputs: BSBM-100 (the historical `_10k` rows), BSBM-2000 (≈ 200 k
//! triples — half the size the repo benchmark's `build_restart` loads, where
//! the dictionary no longer fits in cache and ~90 % of term occurrences are
//! already interned), and an escape-heavy graph in which every literal and
//! every IRI needs unescaping on the way in and escaping on the way out, so
//! the codec's scratch-buffer slow path has a number of its own.
//!
//! Beside them, one row per layer a (re)load is made of, at BSBM-300
//! (≈ 30 k triples) and BSBM-2000 (≈ 200 k): `dictionary_intern_*` replays a
//! document's term stream — every occurrence, in file order — into a fresh
//! dictionary; `snapshot_decode_*` decodes the graph's `.snap` image;
//! `index_build_{spo,pos,osp}` builds one permutation index over the larger
//! graph's triples.
//!
//! `load_path/bsbm_30k` is the file loader end to end — read, parse, encode,
//! and the one sort that proves the rows a set — on the BSBM-300 file, and
//! `load_path/bsbm_30k_repeats_10pct` the same file with a tenth more lines,
//! each a copy of an earlier one: the loader's rare path (the sort comes out
//! short, the tables are compacted to their first occurrences), so its cost
//! is on record beside the common one.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use rdf_model::{Dictionary, Graph, Term, Triple};
use rdf_store::{snapshot, Order, SortedIndex};
use rdfsum_workloads::BsbmConfig;
use std::hint::black_box;
use std::time::Duration;

/// `triples` triples whose literals carry `\t \n \" \\` and a non-ASCII
/// character, and whose IRIs contain a space and a `>` (written as `\u0020`
/// / `\u003E`): no term takes the parser's borrowed-slice fast path or the
/// writer's single-copy one.
fn escape_heavy(triples: usize) -> Graph {
    let mut g = Graph::new();
    for i in 0..triples {
        g.insert(
            Term::iri(format!("http://x/subject {}>", i / 4)),
            Term::iri(format!("http://x/property {}", i % 7)),
            Term::typed_literal(
                format!("line {i}\n\t\"quoted\" back\\slash é"),
                format!("http://x/data type {}", i % 3),
            ),
        )
        .expect("well-formed triple");
    }
    g
}

fn bench_codec(c: &mut Criterion, g: &Graph, suffix: &str) {
    let text = rdf_io::write_graph(g);
    let mut group = c.benchmark_group("ntriples");
    group.throughput(Throughput::Elements(g.len() as u64));
    group.bench_function(format!("parse_graph_{suffix}"), |b| {
        b.iter(|| black_box(rdf_io::parse_graph(&text).unwrap()))
    });
    group.bench_function(format!("write_graph_{suffix}"), |b| {
        b.iter(|| black_box(rdf_io::write_graph(g)))
    });
    group.finish();
}

/// The layers under `parse_graph`, and the ones a restart runs instead of it.
fn bench_load_layers(c: &mut Criterion, g: &Graph, suffix: &str) {
    let stream = rdf_io::parse_str(&rdf_io::write_graph(g)).unwrap();
    let snap = snapshot::encode(g);
    let mut group = c.benchmark_group("ntriples");
    group.throughput(Throughput::Elements(g.len() as u64));
    group.bench_function(format!("dictionary_intern_{suffix}"), |b| {
        b.iter(|| {
            let mut dict = Dictionary::new();
            for (s, p, o) in &stream {
                for term in [s, p, o] {
                    black_box(dict.encode_ref(term.as_term_ref()));
                }
            }
            black_box(dict)
        })
    });
    group.bench_function(format!("snapshot_decode_{suffix}"), |b| {
        b.iter(|| black_box(snapshot::decode(&snap).unwrap()))
    });
    group.finish();
}

fn bench_index_build(c: &mut Criterion, g: &Graph) {
    let all: Vec<Triple> = g.iter().collect();
    let mut group = c.benchmark_group("ntriples");
    group.throughput(Throughput::Elements(all.len() as u64));
    for (order, name) in [
        (Order::Spo, "spo"),
        (Order::Pos, "pos"),
        (Order::Osp, "osp"),
    ] {
        group.bench_function(format!("index_build_{name}"), |b| {
            b.iter(|| black_box(SortedIndex::build(order, &all)))
        });
    }
    group.finish();
}

/// `load_path` over the graph's N-Triples file, and over the same file with
/// every tenth line followed by a copy of a line from its first half.
fn bench_load_path(c: &mut Criterion, g: &Graph, suffix: &str) {
    let text = rdf_io::write_graph(g);
    let mut repeated = String::with_capacity(text.len() * 11 / 10);
    let lines: Vec<&str> = text.lines().collect();
    for (i, line) in lines.iter().enumerate() {
        repeated.extend([line, "\n"]);
        if i % 10 == 9 {
            repeated.extend([lines[i / 2], "\n"]);
        }
    }
    let dir = std::env::temp_dir();
    let mut group = c.benchmark_group("load_path");
    group.throughput(Throughput::Elements(g.len() as u64));
    for (name, text) in [
        (suffix.to_string(), &text),
        (format!("{suffix}_repeats_10pct"), &repeated),
    ] {
        let file = dir.join(format!("rdfsum-bench-{}-{name}.nt", std::process::id()));
        std::fs::write(&file, text).expect("scratch file");
        assert_eq!(rdf_io::load_path(&file).unwrap().len(), g.len());
        group.bench_function(name, |b| {
            b.iter(|| black_box(rdf_io::load_path(&file).unwrap()))
        });
        std::fs::remove_file(&file).expect("scratch file");
    }
    group.finish();
}

fn bench_parse(c: &mut Criterion) {
    let bsbm = |products| rdfsum_workloads::generate_bsbm(&BsbmConfig::with_products(products));
    bench_codec(c, &bsbm(100), "10k");
    let bsbm2000 = bsbm(2000);
    bench_codec(c, &bsbm2000, "bsbm2000");
    bench_codec(c, &escape_heavy(50_000), "escaped_50k");
    let bsbm300 = bsbm(300);
    bench_load_layers(c, &bsbm300, "30k");
    bench_load_layers(c, &bsbm2000, "200k");
    bench_load_path(c, &bsbm300, "bsbm_30k");
    bench_index_build(c, &bsbm2000);
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));
    targets = bench_parse
}
criterion_main!(benches);
