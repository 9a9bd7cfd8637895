//! The binary decoders under structured mutation (ROADMAP 5e).
//!
//! `snapshot::decode` and `persist::decode_artifact` read bytes a
//! disk can damage. Both verify a checksum first, which hides the decoder
//! proper from plain corruption — so every mutated image here is
//! **re-stamped**: the trailer is recomputed over the damaged body, and the
//! damage reaches the body decoder the way a bug in a writer, or a
//! collision, would deliver it. The contract: an error (`Err` / `None`),
//! or a value that encodes again — never a panic, never an allocation sized
//! by a number the image merely claims, and never a bag: an image that
//! lists a triple twice is refused with the position of the second listing
//! whichever sort — a bare graph's own, a store's index build — is the one
//! that notices.

use proptest::prelude::*;
use rdf_model::{Graph, Triple};
use rdf_store::codec::{put_signed_varint, put_varint, stamp, Reader};
use rdf_store::snapshot::{SnapshotError, Table};
use rdf_store::{snapshot, Fingerprint, TripleStore};
use rdfsum_core::persist::{artifact_file_name, decode_artifact, encode_artifact};
use rdfsum_core::{fixtures, SummaryContext, SummaryKind, SummaryService};
use rdfsum_workloads::BsbmConfig;
use std::sync::OnceLock;

/// A valid artifact image beside what it has to be decoded against.
struct Artifact {
    raw: Vec<u8>,
    store: TripleStore,
    fingerprint: Fingerprint,
    kind: SummaryKind,
    /// Where the embedded snapshot's length varint sits in `raw`.
    snap_len_at: usize,
    /// Where the embedded snapshot itself starts.
    snap_at: usize,
}

impl Artifact {
    fn build(g: Graph, kind: SummaryKind) -> Artifact {
        let svc = SummaryService::new(1);
        svc.load_graph("g", g.clone());
        let (artifact, _) = svc.summarize("g", kind).unwrap();
        let store = TripleStore::new(g);
        let raw = encode_artifact(&artifact, store.graph()).unwrap();
        // Walk the documented layout up to the embedded snapshot.
        let body = &raw[..raw.len() - 8];
        let mut r = Reader::new(body, 27);
        for _ in 0..4 {
            r.varint().unwrap();
        }
        for counts_per_entry in [3, 1] {
            for _ in 0..r.varint().unwrap() {
                r.str().unwrap();
                for _ in 0..counts_per_entry {
                    r.varint().unwrap();
                }
            }
        }
        let snap_len_at = body.len() - r.remaining();
        let snap_len = r.varint().unwrap() as usize;
        assert_eq!(r.remaining(), snap_len, "the snapshot is the last field");
        Artifact {
            snap_at: body.len() - snap_len,
            fingerprint: artifact.fingerprint,
            raw,
            store,
            kind,
            snap_len_at,
        }
    }

    fn decode(&self, raw: &[u8]) -> Option<rdfsum_core::SummaryArtifact> {
        decode_artifact(raw, self.store.graph(), self.fingerprint, self.kind)
    }

    /// The image with its embedded snapshot replaced by `snap`, the length
    /// field and both checksums made consistent again.
    fn with_snapshot(&self, snap: &[u8]) -> Vec<u8> {
        let mut raw = self.raw[..self.snap_len_at].to_vec();
        put_varint(&mut raw, snap.len() as u64);
        raw.extend_from_slice(snap);
        stamp(&mut raw);
        raw
    }

    fn snapshot(&self) -> &[u8] {
        &self.raw[self.snap_at..self.raw.len() - 8]
    }
}

/// The book graph's `tw` artifact (a minted-heavy summary) and a BSBM-200
/// `t` artifact (thousands of plain IRIs).
fn artifacts() -> &'static [Artifact; 2] {
    static IMAGES: OnceLock<[Artifact; 2]> = OnceLock::new();
    IMAGES.get_or_init(|| {
        let bsbm = rdfsum_workloads::generate_bsbm(&BsbmConfig::with_products(200));
        [
            Artifact::build(fixtures::book_graph(), SummaryKind::TypedWeak),
            Artifact::build(bsbm, SummaryKind::TypeBased),
        ]
    })
}

/// Snapshot images: the book graph, its `tw` summary, and the two
/// summaries the artifacts embed.
fn snapshots() -> &'static [Vec<u8>] {
    static IMAGES: OnceLock<Vec<Vec<u8>>> = OnceLock::new();
    IMAGES.get_or_init(|| {
        let book = fixtures::book_graph();
        let tw = SummaryContext::sharded(&book, 1).summarize(SummaryKind::TypedWeak);
        let mut images = vec![snapshot::encode(&book), snapshot::encode(&tw.graph)];
        images.extend(artifacts().iter().map(|a| a.snapshot().to_vec()));
        images
    })
}

/// One structured mutation of a checksummed image's body, steered by
/// `(op, a, b)` — truncate, splice a fragment, duplicate a range, or flip a
/// bit — with the trailer re-stamped over the result. Half the mutations
/// land in the last 192 bytes: an image is mostly term text, and the triple
/// table, whose deltas and ids have the most to get wrong, is its tail.
fn mutate(image: &[u8], (op, a, b): (u8, usize, usize)) -> Vec<u8> {
    const FRAGMENTS: [&[u8]; 13] = [
        &[0],
        &[0x7f],
        &[0x80],
        &[0xff; 10],                     // a varint that never ends
        &[0xff, 0xff, 0xff, 0xff, 0x0f], // u32::MAX
        &[0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01], // u64::MAX
        &[5],                            // the bare Nτ tag
        &[6, 0, 0],                      // N(∅, ∅) spelled the long way
        &[7, 0],                         // C(∅)
        &[0, 2, 0xc3, 0x28],             // an IRI that is not UTF-8
        &[1, 1],                         // zigzag −1, twice
        &[0xfe, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01], // zigzag i64::MAX
        b"RDFSNAP2",
    ];
    let mut body = image[..image.len() - 8].to_vec();
    let window = if a % 2 == 0 {
        body.len().min(192)
    } else {
        body.len()
    };
    let at = body.len() - (a / 2) % (window + 1);
    match op % 4 {
        0 => body.truncate(at),
        1 => {
            body.splice(at..at, FRAGMENTS[b % FRAGMENTS.len()].iter().copied());
        }
        2 => {
            let end = (at + 1 + b % 64).min(body.len());
            let range = body[at..end].to_vec();
            body.splice(end..end, range);
        }
        _ => {
            if let Some(byte) = body.get_mut(at) {
                *byte ^= 1 << (b % 8);
            }
        }
    }
    stamp(&mut body);
    body
}

/// `Err`, or a graph that round-trips.
fn check_snapshot(image: &[u8]) -> Result<(), proptest::TestCaseError> {
    if let Ok(g) = snapshot::decode(image) {
        let again = snapshot::decode(&snapshot::encode(&g)).unwrap();
        prop_assert_eq!(rdf_io::write_graph(&again), rdf_io::write_graph(&g));
        prop_assert_eq!(again.dict().len(), g.dict().len());
    }
    Ok(())
}

/// `None`, or an artifact that encodes again.
fn check_artifact(artifact: &Artifact, image: &[u8]) -> Result<(), proptest::TestCaseError> {
    if let Some(decoded) = artifact.decode(image) {
        prop_assert!(encode_artifact(&decoded, artifact.store.graph()).is_some());
    }
    Ok(())
}

fn arb_ops() -> impl Strategy<Value = Vec<(u8, usize, usize)>> {
    proptest::collection::vec((0u8..4, 0usize..1 << 20, 0usize..1 << 20), 1..4)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn mutated_snapshots_never_panic(which in 0usize..4, ops in arb_ops()) {
        let valid = &snapshots()[which];
        prop_assert!(snapshot::decode(valid).is_ok());
        let image = ops.iter().fold(valid.clone(), |image, &op| mutate(&image, op));
        check_snapshot(&image)?;
    }

    /// Damage anywhere in the artifact, and damage inside the snapshot it
    /// embeds with *both* layers re-stamped, so the embedded body decoder
    /// runs on it too.
    #[test]
    fn mutated_artifacts_never_panic(which in 0usize..2, ops in arb_ops()) {
        let artifact = &artifacts()[which];
        prop_assert!(artifact.decode(&artifact.raw).is_some());
        let outer = ops.iter().fold(artifact.raw.clone(), |image, &op| mutate(&image, op));
        check_artifact(artifact, &outer)?;
        let inner = ops
            .iter()
            .fold(artifact.snapshot().to_vec(), |image, &op| mutate(&image, op));
        check_snapshot(&inner)?;
        check_artifact(artifact, &artifact.with_snapshot(&inner))?;
    }
}

/// `image` with the `nth` varint after `from` replaced by `value`, and the
/// trailer re-stamped.
fn with_count(image: &[u8], from: usize, nth: usize, value: u64) -> Vec<u8> {
    let body = &image[..image.len() - 8];
    let mut r = Reader::new(body, from);
    for _ in 0..nth {
        r.varint().unwrap();
    }
    let at = body.len() - r.remaining();
    r.varint().unwrap();
    let mut out = body[..at].to_vec();
    put_varint(&mut out, value);
    out.extend_from_slice(&body[body.len() - r.remaining()..]);
    stamp(&mut out);
    out
}

/// Every count a header declares, inflated past what the image can hold:
/// by one, to sizes a reservation would die of, to `u64::MAX`. Each must be
/// refused *as a count* — a decoder that reserved by it first would abort
/// the test process on the allocation, not return.
#[test]
fn inflated_counts_fail_without_reserving() {
    let too_many = |len: usize| [len as u64, 1 << 33, u32::MAX as u64, u64::MAX - 1, u64::MAX];
    for image in snapshots() {
        // n_terms, n_data, n_type, n_schema, n_pool.
        for nth in 0..5 {
            for count in too_many(image.len()) {
                let inflated = with_count(image, 10, nth, count);
                assert!(
                    snapshot::decode(&inflated).is_err(),
                    "count {nth} = {count} accepted"
                );
            }
        }
    }
    for artifact in artifacts() {
        for count in too_many(artifact.raw.len()) {
            // n_props, and — through the embedded image — the snapshot's
            // own header; then the snapshot's length field itself.
            let image = with_count(&artifact.raw, 27, 4, count);
            assert!(artifact.decode(&image).is_none(), "n_props = {count}");
            for nth in 0..5 {
                let inner = with_count(artifact.snapshot(), 10, nth, count);
                let image = artifact.with_snapshot(&inner);
                assert!(artifact.decode(&image).is_none(), "inner count {nth}");
            }
            let image = with_count(&artifact.raw, artifact.snap_len_at, 0, count);
            assert!(artifact.decode(&image).is_none(), "snap_len = {count}");
        }
    }
}

/// The triple table of an image: every row's three zigzag deltas.
fn triple_table(rows: &[Triple]) -> Vec<u8> {
    let mut out = Vec::new();
    let mut prev = [0i64; 3];
    for t in rows {
        for (id, prev) in [t.s, t.p, t.o].into_iter().zip(&mut prev) {
            put_signed_varint(&mut out, id.0 as i64 - *prev);
            *prev = id.0 as i64;
        }
    }
    out
}

/// `image` with one row of its triple table listed a second time, further
/// down the same component table (rows are delta-coded, so the table is
/// written again around the copy), the component's count raised and the
/// trailer re-stamped. Returns the image and the position of the copy;
/// `None` for an image without triples.
fn with_repeated_row(image: &[u8], (a, b): (usize, usize)) -> Option<(Vec<u8>, usize)> {
    let g = snapshot::decode(image).unwrap();
    let mut rows: Vec<Triple> = g.iter().collect();
    let counts = g.components().map(<[Triple]>::len);
    let from = a % rows.len().max(1);
    let mut end = 0;
    let component = counts.iter().position(|n| {
        end += n;
        from < end
    })?;
    let at = from + 1 + b % (end - from);
    let table = triple_table(&rows);
    let body = &image[..image.len() - 8];
    assert!(
        body.ends_with(&table),
        "the triple table is the image's tail"
    );
    rows.insert(at, rows[from]);
    let mut out = with_count(image, 10, 1 + component, counts[component] as u64 + 1);
    out.truncate(out.len() - 8 - table.len());
    out.extend_from_slice(&triple_table(&rows));
    stamp(&mut out);
    Some((out, at))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Any row listed again anywhere below itself: the bare decoder names
    /// the second listing, a store built from the same rows names it too
    /// and holds a set regardless, and an artifact embedding the image is a
    /// plain miss.
    #[test]
    fn repeated_rows_are_located_never_served(
        which in 0usize..4,
        pick in (0usize..1 << 20, 0usize..1 << 20),
    ) {
        let Some((image, at)) = with_repeated_row(&snapshots()[which], pick) else {
            return Ok(());
        };
        let refused = snapshot::decode(&image);
        prop_assert!(
            matches!(refused, Err(SnapshotError::Duplicate(Table::Triples, i)) if i == at),
            "{:?} at {}", refused.map(|g| g.len()), at
        );
        let rows = snapshot::decode_rows(&image).unwrap();
        let listed = rows.len();
        let repeated = TripleStore::from_rows(rows, 1).expect_err("a row is listed twice");
        prop_assert_eq!(repeated.at, at);
        let store = *repeated.compacted;
        prop_assert_eq!((store.len(), store.graph().len()), (listed - 1, listed - 1));
        prop_assert!(store.graph().iter().all(|t| store.contains(t)));
        if let Some(artifact) = which.checked_sub(2).map(|i| &artifacts()[i]) {
            prop_assert!(artifact.decode(&artifact.with_snapshot(&image)).is_none());
        }
    }
}

/// A persisted artifact whose embedded snapshot lists a triple twice is
/// found, refused and rebuilt: the request is a plain miss (`builds`
/// incremented, no persist hit) and its body the cold build's.
#[test]
fn a_repeating_persisted_artifact_is_rebuilt() {
    let artifact = &artifacts()[0];
    let (image, _) = with_repeated_row(artifact.snapshot(), (3, 5)).unwrap();
    let dir =
        std::env::temp_dir().join(format!("rdfsum-repeating-artifact-{}", std::process::id()));
    let file = dir.join(artifact_file_name(artifact.fingerprint, artifact.kind));
    let graph = || artifact.store.graph().clone();
    for (damaged, builds, persist_hits) in [(false, 0, 1), (true, 1, 0)] {
        std::fs::create_dir_all(&dir).unwrap();
        let raw = if damaged {
            artifact.with_snapshot(&image)
        } else {
            artifact.raw.clone()
        };
        std::fs::write(&file, raw).unwrap();
        let svc = SummaryService::new(1).with_persist_dir(&dir);
        svc.load_graph("g", graph());
        let (served, _) = svc.summarize("g", artifact.kind).unwrap();
        let stats = svc.stats();
        assert_eq!((stats.builds, stats.persist_hits), (builds, persist_hits));
        let cold = SummaryService::new(1);
        cold.load_graph("g", graph());
        assert_eq!(
            served.ntriples,
            cold.summarize("g", artifact.kind).unwrap().0.ntriples
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// An embedded snapshot that lists a triple or a term twice is a corrupt
/// artifact, and a corrupt artifact is a plain miss.
#[test]
fn a_repeating_embedded_snapshot_is_a_miss() {
    let artifact = &artifacts()[0];
    let snap = artifact.snapshot();
    let summary = snapshot::decode(snap).unwrap();
    let counts = [
        summary.dict().len(),
        summary.data().len(),
        summary.types().len(),
        summary.schema().len(),
    ];
    // Repeat the image's last triple (three zero deltas) and count it in
    // the last component that has any.
    let last = counts.iter().rposition(|&n| n > 0).unwrap();
    assert!(last > 0, "the summary has triples");
    let mut repeated = with_count(snap, 10, last, counts[last] as u64 + 1);
    repeated.truncate(repeated.len() - 8);
    repeated.extend_from_slice(&[0, 0, 0]);
    stamp(&mut repeated);
    assert!(matches!(
        snapshot::decode(&repeated),
        Err(snapshot::SnapshotError::Duplicate(snapshot::Table::Triples, i)) if i == summary.len()
    ));
    assert!(artifact
        .decode(&artifact.with_snapshot(&repeated))
        .is_none());
    // Repeat a term: `rdf:type`, spelled once more in front of the
    // dictionary (which follows the header and the member pool).
    let mut r = Reader::new(&snap[..snap.len() - 8], 10);
    for _ in 0..4 {
        r.varint().unwrap();
    }
    for _ in 0..r.varint().unwrap() {
        r.str().unwrap();
    }
    let mut repeated = with_count(snap, 10, 0, counts[0] as u64 + 1);
    repeated.truncate(repeated.len() - 8);
    let terms_at = repeated.len() - r.remaining();
    let mut first = vec![0];
    rdf_store::codec::put_str(&mut first, rdf_model::vocab::RDF_TYPE);
    repeated.splice(terms_at..terms_at, first.iter().copied());
    stamp(&mut repeated);
    // The extra spelling takes id 0; the original, at index 1, repeats it.
    assert!(matches!(
        snapshot::decode(&repeated),
        Err(snapshot::SnapshotError::Duplicate(
            snapshot::Table::Terms,
            1
        ))
    ));
    assert!(artifact
        .decode(&artifact.with_snapshot(&repeated))
        .is_none());
    // The untouched embedded image still decodes through the same seam.
    assert!(artifact.decode(&artifact.with_snapshot(snap)).is_some());
}
