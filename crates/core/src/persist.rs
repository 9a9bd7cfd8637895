//! On-disk summary artifacts: the warm-restart persistence codec.
//!
//! A [`SummaryArtifact`](crate::service::SummaryArtifact) is exactly the
//! paper's *build once, serve many times* product, so the service can
//! write each one to `<persist-dir>/<fingerprint>-<kind>.sum` and a
//! restarted server can serve its first `SUMMARIZE` without rebuilding.
//! The codec must round-trip the artifact **byte-identically** (the
//! served body is pinned to the CLI's `--out` file) and degrade to a
//! normal cache miss on *any* damage — a corrupt artifact must never
//! panic, error out to a client, or resurrect a stale body.
//!
//! Layout (integers little-endian, varints LEB128):
//!
//! ```text
//! magic  "RDFSUMA1"                        8 bytes
//! version        u16  (= 1)
//! kind           u8   (SummaryKind code)
//! fingerprint    2 × u64 (hi, lo)
//! input_triples / summary_nodes / summary_edges / n_data_nodes  varints
//! props:   n varint × { IRI (len varint + UTF-8), triples, subjects,
//!                       objects varints }          (sorted by IRI)
//! classes: n varint × { IRI, instances varint }    (sorted by IRI)
//! summary snapshot: len varint + rdf-store v2 snapshot bytes
//! checksum       u64 (FNV-1a over every preceding byte)
//! ```
//!
//! The summary graph itself rides as an embedded
//! [`rdf_store::snapshot`] v2 blob — which preserves term ids, component
//! insertion order, and minted-term keys, so re-serializing the decoded
//! graph with [`rdf_io::write_graph`] reproduces the original N-Triples
//! bytes exactly. Cardinality figures are keyed by the *input graph's*
//! term ids, which are not stable across restarts by themselves — so
//! they persist as IRI strings and are re-keyed against the live
//! dictionary on load (sound: the probe only fires for the entry whose
//! content fingerprint matches, i.e. for identical content).
//!
//! Everything here is `Option`-shaped on the read side: `None` means
//! "treat as a miss", never an error. [`PersistDir`] names the files.

use crate::cache::Key;
use crate::cardinality::{PropertyCard, SummaryCardinality};
use crate::service::SummaryArtifact;
use crate::summary::SummaryKind;
use rdf_model::{FxHashMap, Graph, TermId, TermRef};
use rdf_store::codec::{put_str, put_varint, stamp, stamped_body, Reader};
use rdf_store::{snapshot, Fingerprint, TripleStore};
use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// Magic header bytes of a persisted summary artifact.
pub const MAGIC: &[u8; 8] = b"RDFSUMA1";

/// Artifact format version.
pub const VERSION: u16 = 1;

/// The extension of an artifact file.
const EXTENSION: &str = "sum";

/// Stable one-byte code for a summary kind.
fn kind_code(kind: SummaryKind) -> u8 {
    match kind {
        SummaryKind::Weak => 0,
        SummaryKind::Strong => 1,
        SummaryKind::TypedWeak => 2,
        SummaryKind::TypedStrong => 3,
        SummaryKind::TypeBased => 4,
    }
}

/// The artifact's file name inside a persist dir:
/// `<fingerprint-hex>-<kind token>.sum`.
pub fn artifact_file_name(fingerprint: Fingerprint, kind: SummaryKind) -> String {
    format!("{fingerprint}-{}.{EXTENSION}", kind.token())
}

/// A warm-restart persist dir: the service writes every artifact it
/// builds here and probes it on a cache miss. Every failure is silent —
/// persistence is an optimization, never a request error.
pub(crate) struct PersistDir {
    pub(crate) dir: PathBuf,
    /// Uniquifies temp-file names for the write-then-rename protocol.
    seq: AtomicU64,
}

impl PersistDir {
    /// Opens `dir`, creating it if absent.
    pub(crate) fn new(dir: PathBuf) -> Self {
        let _ = fs::create_dir_all(&dir);
        PersistDir {
            dir,
            seq: AtomicU64::new(0),
        }
    }

    /// The persisted artifact of slot `(fingerprint, kind)` of `g`. `None`
    /// — missing file, damage of any kind, a slot mismatch — means "plain
    /// miss".
    pub(crate) fn probe(&self, g: &Graph, (fingerprint, kind): Key) -> Option<SummaryArtifact> {
        let raw = fs::read(self.dir.join(artifact_file_name(fingerprint, kind))).ok()?;
        decode_artifact(&raw, g, fingerprint, kind)
    }

    /// Writes `artifact` via write-to-temp + atomic rename, so a
    /// concurrent probe (or a crash mid-write) never sees a half-written
    /// file. Returns whether the file landed.
    pub(crate) fn write(&self, artifact: &SummaryArtifact, g: &Graph) -> bool {
        let Some(bytes) = encode_artifact(artifact, g) else {
            return false;
        };
        let name = artifact_file_name(artifact.fingerprint, artifact.kind);
        let (pid, seq) = (std::process::id(), self.seq.fetch_add(1, Ordering::Relaxed));
        let tmp = self.dir.join(format!(".{name}.{pid}.{seq}.tmp"));
        let landed =
            fs::write(&tmp, &bytes).is_ok() && fs::rename(&tmp, self.dir.join(name)).is_ok();
        if !landed {
            let _ = fs::remove_file(&tmp);
        }
        landed
    }

    /// Unlinks every slot of `fingerprint`.
    pub(crate) fn unlink(&self, fingerprint: Fingerprint) {
        for kind in SummaryKind::EVERY {
            let _ = fs::remove_file(self.dir.join(artifact_file_name(fingerprint, kind)));
        }
    }

    /// Unlinks every artifact in the directory.
    pub(crate) fn sweep(&self) {
        for entry in fs::read_dir(&self.dir).into_iter().flatten().flatten() {
            let path = entry.path();
            if path.extension().is_some_and(|e| e == EXTENSION) {
                let _ = fs::remove_file(path);
            }
        }
    }
}

/// Serializes an artifact for `g` — the graph whose dictionary the
/// cardinality figures are keyed by. Returns `None` when a cardinality
/// key does not render as an IRI (cannot happen for artifacts the
/// service builds; checked rather than trusted).
pub fn encode_artifact(artifact: &SummaryArtifact, g: &Graph) -> Option<Vec<u8>> {
    let snap = snapshot::encode(artifact.summary_store.graph());
    let iri_of = |id: TermId| -> Option<&str> { g.dict().decode(id).as_iri() };
    let mut props: Vec<(&str, PropertyCard)> = artifact
        .cardinality
        .iter_properties()
        .map(|(p, card)| iri_of(p).map(|iri| (iri, card)))
        .collect::<Option<_>>()?;
    props.sort_unstable_by_key(|&(iri, _)| iri);
    let mut classes: Vec<(&str, usize)> = artifact
        .cardinality
        .iter_classes()
        .map(|(c, n)| iri_of(c).map(|iri| (iri, n)))
        .collect::<Option<_>>()?;
    classes.sort_unstable_by_key(|&(iri, _)| iri);

    let mut out = Vec::with_capacity(64 + snap.len());
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.push(kind_code(artifact.kind));
    out.extend_from_slice(&artifact.fingerprint.hi.to_le_bytes());
    out.extend_from_slice(&artifact.fingerprint.lo.to_le_bytes());
    put_varint(&mut out, artifact.input_triples as u64);
    put_varint(&mut out, artifact.summary_nodes as u64);
    put_varint(&mut out, artifact.summary_edges as u64);
    put_varint(&mut out, artifact.cardinality.n_data_nodes() as u64);
    put_varint(&mut out, props.len() as u64);
    for (iri, card) in props {
        put_str(&mut out, iri);
        put_varint(&mut out, card.triples as u64);
        put_varint(&mut out, card.subjects as u64);
        put_varint(&mut out, card.objects as u64);
    }
    put_varint(&mut out, classes.len() as u64);
    for (iri, n) in classes {
        put_str(&mut out, iri);
        put_varint(&mut out, n as u64);
    }
    put_varint(&mut out, snap.len() as u64);
    out.extend_from_slice(&snap);
    stamp(&mut out);
    Some(out)
}

/// Decodes a persisted artifact against the live graph `g`, verifying it
/// matches the expected `(fingerprint, kind)` slot. Any damage — bad
/// magic/version/checksum, truncation, a fingerprint or kind mismatch, a
/// cardinality IRI absent from `g`'s dictionary, a snapshot that fails to
/// decode or lists a triple twice — returns `None`: the caller treats it as
/// a plain cache miss.
pub fn decode_artifact(
    raw: &[u8],
    g: &Graph,
    fingerprint: Fingerprint,
    kind: SummaryKind,
) -> Option<SummaryArtifact> {
    // Header fits + magic + version + checksum before anything else.
    if raw.len() < 8 + 2 + 1 + 16 + 8 || &raw[..8] != MAGIC {
        return None;
    }
    if u16::from_le_bytes([raw[8], raw[9]]) != VERSION {
        return None;
    }
    let body = stamped_body(raw).ok()?;
    if raw[10] != kind_code(kind) {
        return None;
    }
    let hi = u64::from_le_bytes(raw[11..19].try_into().ok()?);
    let lo = u64::from_le_bytes(raw[19..27].try_into().ok()?);
    if (Fingerprint { hi, lo }) != fingerprint {
        return None;
    }
    let mut r = Reader::new(body, 27);
    let input_triples = r.varint().ok()? as usize;
    if input_triples != g.len() {
        return None;
    }
    let summary_nodes = r.varint().ok()? as usize;
    let summary_edges = r.varint().ok()? as usize;
    let n_data_nodes = r.varint().ok()? as usize;
    // Cardinality figures, re-keyed from IRIs to the live dictionary. An
    // entry is an IRI and at least one count: two bytes or more.
    let lookup = |iri: &str| g.dict().lookup_ref(TermRef::Iri(iri));
    let n_props = r.count(2).ok()?;
    let mut props: FxHashMap<TermId, PropertyCard> = FxHashMap::default();
    for _ in 0..n_props {
        let iri = r.str().ok()?;
        let card = PropertyCard {
            triples: r.varint().ok()? as usize,
            subjects: r.varint().ok()? as usize,
            objects: r.varint().ok()? as usize,
        };
        props.insert(lookup(iri)?, card);
    }
    let n_classes = r.count(2).ok()?;
    let mut classes: FxHashMap<TermId, usize> = FxHashMap::default();
    for _ in 0..n_classes {
        let iri = r.str().ok()?;
        let n = r.varint().ok()? as usize;
        classes.insert(lookup(iri)?, n);
    }
    let snap_len = r.count(1).ok()?;
    let snap = r.take(snap_len).ok()?;
    if r.remaining() != 0 {
        return None;
    }
    // The summary's index build is the proof that the image lists no
    // triple twice; one that does is damage like any other.
    let summary_store = TripleStore::from_rows(snapshot::decode_rows(snap).ok()?, 1).ok()?;
    // Snapshots preserve ids and per-component insertion order, so this
    // re-serialization is byte-identical to the original build's.
    let ntriples = rdf_io::write_graph(summary_store.graph());
    Some(SummaryArtifact {
        kind,
        fingerprint,
        ntriples,
        summary_nodes,
        summary_edges,
        input_triples,
        summary_store,
        cardinality: SummaryCardinality::from_parts(props, classes, n_data_nodes),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures;
    use crate::service::SummaryService;

    fn built(kind: SummaryKind) -> (SummaryService, std::sync::Arc<SummaryArtifact>) {
        let svc = SummaryService::new(1);
        svc.load_graph("g", fixtures::book_graph());
        let (artifact, _) = svc.summarize("g", kind).unwrap();
        (svc, artifact)
    }

    /// Round-trips an artifact through the codec against its own graph.
    fn roundtrip(kind: SummaryKind) -> (std::sync::Arc<SummaryArtifact>, SummaryArtifact) {
        let svc = SummaryService::new(1);
        let g = fixtures::book_graph();
        svc.load_graph("g", g);
        let (artifact, _) = svc.summarize("g", kind).unwrap();
        // Re-materialize the graph the service holds for decode keying.
        let g = fixtures::book_graph();
        let store = TripleStore::new(g);
        let raw = encode_artifact(&artifact, store.graph()).unwrap();
        let back = decode_artifact(&raw, store.graph(), artifact.fingerprint, kind).unwrap();
        (artifact, back)
    }

    #[test]
    fn artifact_roundtrips_byte_identically() {
        for kind in SummaryKind::EVERY {
            let (original, back) = roundtrip(kind);
            assert_eq!(original.ntriples, back.ntriples, "{kind:?} bytes differ");
            assert_eq!(original.summary_nodes, back.summary_nodes);
            assert_eq!(original.summary_edges, back.summary_edges);
            assert_eq!(original.input_triples, back.input_triples);
            assert_eq!(original.fingerprint, back.fingerprint);
        }
    }

    #[test]
    fn cardinality_figures_survive() {
        let (original, back) = roundtrip(SummaryKind::TypedWeak);
        assert_eq!(
            original.cardinality.n_data_nodes(),
            back.cardinality.n_data_nodes()
        );
        assert_eq!(
            original.cardinality.n_properties(),
            back.cardinality.n_properties()
        );
        let mut seen = 0;
        for (p, card) in original.cardinality.iter_properties() {
            assert_eq!(back.cardinality.property(p), Some(card));
            seen += 1;
        }
        assert!(seen > 0);
        for (c, n) in original.cardinality.iter_classes() {
            assert_eq!(back.cardinality.class_instances(c), Some(n));
        }
    }

    #[test]
    fn mismatched_slot_reads_as_none() {
        let (_svc, artifact) = built(SummaryKind::Weak);
        let store = TripleStore::new(fixtures::book_graph());
        let raw = encode_artifact(&artifact, store.graph()).unwrap();
        // Wrong kind.
        assert!(decode_artifact(
            &raw,
            store.graph(),
            artifact.fingerprint,
            SummaryKind::Strong
        )
        .is_none());
        // Wrong fingerprint.
        let other = Fingerprint {
            hi: artifact.fingerprint.hi ^ 1,
            lo: artifact.fingerprint.lo,
        };
        assert!(decode_artifact(&raw, store.graph(), other, SummaryKind::Weak).is_none());
        // Wrong input graph (different content, different dictionary).
        let other_store = TripleStore::new(fixtures::sample_graph());
        assert!(decode_artifact(
            &raw,
            other_store.graph(),
            artifact.fingerprint,
            SummaryKind::Weak
        )
        .is_none());
    }

    #[test]
    fn damage_reads_as_none_never_panics() {
        let (_svc, artifact) = built(SummaryKind::Weak);
        let store = TripleStore::new(fixtures::book_graph());
        let g = store.graph();
        let raw = encode_artifact(&artifact, g).unwrap();
        let fp = artifact.fingerprint;
        // Empty and truncated files.
        assert!(decode_artifact(&[], g, fp, SummaryKind::Weak).is_none());
        for cut in [1, 8, 11, 27, raw.len() / 2, raw.len() - 1] {
            assert!(
                decode_artifact(&raw[..cut], g, fp, SummaryKind::Weak).is_none(),
                "cut at {cut} accepted"
            );
        }
        // Bit flips anywhere in the body are caught by the checksum.
        for pos in (0..raw.len()).step_by(13) {
            let mut bad = raw.clone();
            bad[pos] ^= 0x40;
            assert!(
                decode_artifact(&bad, g, fp, SummaryKind::Weak).is_none(),
                "flip at {pos} accepted"
            );
        }
        // Wrong version, checksum re-stamped so only the gate fires.
        let mut wrong_ver = raw.clone();
        wrong_ver[8] = 0x7f;
        wrong_ver.truncate(wrong_ver.len() - 8);
        stamp(&mut wrong_ver);
        assert!(decode_artifact(&wrong_ver, g, fp, SummaryKind::Weak).is_none());
    }

    #[test]
    fn file_names_are_slot_unique() {
        let fp = Fingerprint { hi: 7, lo: 9 };
        let names: Vec<String> = SummaryKind::EVERY
            .iter()
            .map(|&k| artifact_file_name(fp, k))
            .collect();
        let mut dedup = names.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len());
        assert!(names.iter().all(|n| n.ends_with(".sum")));
        assert_eq!(names[0], format!("{fp}-w.sum"));
    }

    /// The directory's entries, sorted.
    fn listing(dir: &std::path::Path) -> Vec<String> {
        let entries = fs::read_dir(dir).unwrap().map(|e| e.unwrap().file_name());
        let mut names: Vec<String> = entries.map(|n| n.into_string().unwrap()).collect();
        names.sort();
        names
    }

    /// Writes leave exactly their slot files (no temp file behind), and a
    /// sweep unlinks every artifact in the directory — a stray one of
    /// content no graph holds included — and nothing else.
    #[test]
    fn sweep_leaves_no_artifact() {
        let dir = std::env::temp_dir().join(format!("rdfsum_sweep_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let persist = PersistDir::new(dir.clone());
        let (svc, w) = built(SummaryKind::Weak);
        let (tw, _) = svc.summarize("g", SummaryKind::TypedWeak).unwrap();
        let g = fixtures::book_graph();
        assert!(persist.write(&w, &g) && persist.write(&tw, &g));
        let stray = artifact_file_name(Fingerprint { hi: 1, lo: 2 }, SummaryKind::Weak);
        fs::write(dir.join(&stray), b"left by an earlier lifetime").unwrap();
        fs::write(dir.join("notes.txt"), b"not an artifact").unwrap();
        let mut expect = vec![
            artifact_file_name(w.fingerprint, SummaryKind::Weak),
            artifact_file_name(w.fingerprint, SummaryKind::TypedWeak),
            stray,
            "notes.txt".to_string(),
        ];
        expect.sort();
        assert_eq!(listing(&dir), expect);
        persist.sweep();
        assert_eq!(listing(&dir), ["notes.txt"]);
        let _ = fs::remove_dir_all(&dir);
    }
}
