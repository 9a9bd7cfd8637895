//! A compact binary snapshot format for encoded graphs.
//!
//! Re-parsing N-Triples on every run is the dominant cost of experiment
//! sweeps, so the store can persist a graph in its *encoded* form: the
//! dictionary (terms in id order) followed by the three component tables
//! as id triples. Loading is a single sequential read with no string
//! parsing beyond the dictionary.
//!
//! The format (**v2**, `RDFSNAP2`) is
//!
//! ```text
//! magic  "RDFSNAP2"                        8 bytes
//! version        u16  (= 2)
//! n_terms / n_data / n_type / n_schema     4 × varint
//! pool:  n_pool varint, then n_pool × { len varint + UTF-8 bytes }
//!        — the deduplicated member IRIs of every minted key
//! terms: n_terms × { tag u8, fields… }     tag 0=IRI 1=blank 2=literal
//!                                          3=lang 4=typed 5=Nτ
//!                                          6=N(TC,SC) 7=C(X)
//!   string fields: len varint + UTF-8 bytes
//!   minted member sets: count varint + count × pool-index varint
//! triples: (n_data+n_type+n_schema) × 3 zigzag-varint deltas
//!          (each of s/p/o is delta-coded against the previous triple)
//! checksum       u64 (FNV-1a over every preceding byte)
//! ```
//!
//! Minted summary terms are preserved *symbolically*: tags 5–7 store the
//! [`MintedKey`](rdf_model::MintedKey) member sets as pool indices, so a
//! decoded summary graph holds real [`rdf_model::Term::Minted`] terms (identical key
//! members, identical rendered URI). The retired v1 layout (`RDFSNAP1`,
//! not written since PR 10) is recognised by its magic and refused with
//! [`SnapshotError::BadVersion`].
//!
//! Term ids are preserved, so snapshots round-trip graphs
//! *bit-identically* (insertion order of each component included).
//!
//! # Decoding
//!
//! The checksum is verified before anything is read. After that, decoding a
//! plain term allocates nothing: each string field is UTF-8 validated where
//! it lies in the image and appended to the dictionary's arena as a view
//! ([`rdf_model::Dictionary::encode_ref`]). The dictionary and the component
//! tables are sized once, up front, from the header —
//! but only from counts the rest of the image can still spell out: a term
//! takes at least one byte (`Nτ` is a bare tag), a pool string one, a triple
//! three, and a count beyond that is [`SnapshotError::Truncated`] before a
//! byte is reserved for it ([`Reader::count`]). No header, however damaged,
//! reserves more than the image is long.
//!
//! A graph is a *set* of triples over a dictionary of *distinct* terms, so
//! an image that lists either twice would decode to fewer entries than it
//! declares; it is refused with [`SnapshotError::Duplicate`] naming the
//! table and the index of the repeat. A repeated term is caught as it is
//! interned. A repeated triple is not looked for row by row — a snapshot is
//! written *from* a set, so every probe would be a wasted proof: the body
//! decoder ([`decode_rows`]) appends the rows as [`UnprovedRows`], and the
//! SPO sort their consumer runs proves them distinct — the index build of
//! the store they are headed for (a server's `LOAD`, a persisted summary
//! artifact), or one sort of their own when a bare [`Graph`] is asked for
//! ([`decode`], [`load`]). Only when that sort comes out short is the
//! repeat located, and reported with the index of its second occurrence.

use crate::codec::{put_signed_varint, put_str, put_varint, stamp, stamped_body, Reader};
use rdf_model::{
    Component, Dictionary, Graph, LiteralKindRef, MemberSet, MintedKey, MintedTerm, Repeated,
    TermId, TermRef, Triple, UnprovedRows,
};
use std::fmt;
use std::sync::Arc;

/// Magic header bytes of the retired v1 format, kept only to tell a v1
/// image from garbage.
const MAGIC_V1: &[u8; 8] = b"RDFSNAP1";

/// Magic header bytes of the format.
pub const MAGIC_V2: &[u8; 8] = b"RDFSNAP2";

/// Format version written after [`MAGIC_V2`].
pub const VERSION: u16 = 2;

/// Which table of an image an entry belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Table {
    /// The dictionary: terms in id order.
    Terms,
    /// The three component tables, end to end.
    Triples,
}

/// Errors from snapshot encoding/decoding.
#[derive(Debug)]
pub enum SnapshotError {
    /// Missing or wrong magic header.
    BadMagic,
    /// A header with an unsupported format version (a v1 image reads as
    /// version 1).
    BadVersion(u16),
    /// The checksum trailer does not match the body.
    BadChecksum,
    /// The buffer ended prematurely or lengths are inconsistent.
    Truncated,
    /// A string field was not valid UTF-8.
    BadUtf8,
    /// An unknown term tag byte.
    BadTag(u8),
    /// A triple referenced a term id outside the dictionary.
    DanglingId(u32),
    /// A triple was routed to the wrong component table.
    WrongComponent,
    /// The entry at this index of a table repeats an earlier one. A graph
    /// is a set over a dictionary of distinct terms, so a writer never
    /// produces this: the image would decode to fewer entries than its
    /// header declares.
    Duplicate(Table, usize),
    /// Underlying I/O failure.
    Io(std::io::Error),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::BadMagic => write!(f, "not a graph snapshot (bad magic)"),
            SnapshotError::BadVersion(v) => write!(f, "unsupported snapshot version {v}"),
            SnapshotError::BadChecksum => write!(f, "snapshot checksum mismatch"),
            SnapshotError::Truncated => write!(f, "snapshot truncated"),
            SnapshotError::BadUtf8 => write!(f, "snapshot contains invalid UTF-8"),
            SnapshotError::BadTag(t) => write!(f, "unknown term tag {t}"),
            SnapshotError::DanglingId(id) => write!(f, "triple references unknown term id {id}"),
            SnapshotError::WrongComponent => {
                write!(f, "triple stored in the wrong component table")
            }
            SnapshotError::Duplicate(Table::Terms, i) => {
                write!(f, "term {i} repeats an earlier term")
            }
            SnapshotError::Duplicate(Table::Triples, i) => {
                write!(f, "triple {i} repeats an earlier triple")
            }
            SnapshotError::Io(e) => write!(f, "I/O error: {e}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// A triple listed twice, found by whichever sort proved the rows: in an
/// image that is damage.
impl<T> From<Repeated<T>> for SnapshotError {
    fn from(repeated: Repeated<T>) -> Self {
        SnapshotError::Duplicate(Table::Triples, repeated.at)
    }
}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

// ---------------------------------------------------------------------------
// writer
// ---------------------------------------------------------------------------

/// The deduplicated minted-member string pool, built in one dictionary
/// pass before the term records are written.
struct Pool<'a> {
    strings: Vec<&'a str>,
    index: std::collections::HashMap<&'a str, u64>,
}

impl<'a> Pool<'a> {
    fn build(g: &'a Graph) -> Self {
        let mut pool = Pool {
            strings: Vec::new(),
            index: std::collections::HashMap::new(),
        };
        for (_, term) in g.dict().iter() {
            if let TermRef::Minted(m) = term {
                let (first, second) = m.key().members();
                for iri in first.iter().chain(second) {
                    if !pool.index.contains_key(&**iri) {
                        pool.index.insert(iri, pool.strings.len() as u64);
                        pool.strings.push(iri);
                    }
                }
            }
        }
        pool
    }
}

fn put_members(out: &mut Vec<u8>, pool: &Pool<'_>, members: &[Arc<str>]) {
    put_varint(out, members.len() as u64);
    for m in members {
        put_varint(out, pool.index[&**m]);
    }
}

fn put_term_v2(out: &mut Vec<u8>, pool: &Pool<'_>, t: TermRef<'_>) {
    match t {
        TermRef::Iri(iri) => {
            out.push(0);
            put_str(out, iri);
        }
        TermRef::Blank(label) => {
            out.push(1);
            put_str(out, label);
        }
        TermRef::Literal { lexical, kind } => match kind {
            LiteralKindRef::Simple => {
                out.push(2);
                put_str(out, lexical);
            }
            LiteralKindRef::Lang(tag) => {
                out.push(3);
                put_str(out, lexical);
                put_str(out, tag);
            }
            LiteralKindRef::Typed(dt) => {
                out.push(4);
                put_str(out, lexical);
                put_str(out, dt);
            }
        },
        TermRef::Minted(m) => match m.key() {
            MintedKey::NTau => out.push(5),
            MintedKey::PropertySets { tc, sc } => {
                out.push(6);
                put_members(out, pool, tc);
                put_members(out, pool, sc);
            }
            MintedKey::ClassSet(classes) => {
                out.push(7);
                put_members(out, pool, classes);
            }
        },
    }
}

/// Serializes a graph into a v2 snapshot buffer: symbolic minted keys,
/// varint/delta-compressed triple ids, FNV-1a checksum trailer.
pub fn encode(g: &Graph) -> Vec<u8> {
    let mut out = Vec::with_capacity(64 + g.dict().len() * 16 + g.len() * 4);
    out.extend_from_slice(MAGIC_V2);
    out.extend_from_slice(&VERSION.to_le_bytes());
    put_varint(&mut out, g.dict().len() as u64);
    put_varint(&mut out, g.data().len() as u64);
    put_varint(&mut out, g.types().len() as u64);
    put_varint(&mut out, g.schema().len() as u64);
    let pool = Pool::build(g);
    put_varint(&mut out, pool.strings.len() as u64);
    for s in &pool.strings {
        put_str(&mut out, s);
    }
    for (_, term) in g.dict().iter() {
        put_term_v2(&mut out, &pool, term);
    }
    let (mut ps, mut pp, mut po) = (0i64, 0i64, 0i64);
    for t in g.iter() {
        let (s, p, o) = (t.s.0 as i64, t.p.0 as i64, t.o.0 as i64);
        put_signed_varint(&mut out, s - ps);
        put_signed_varint(&mut out, p - pp);
        put_signed_varint(&mut out, o - po);
        (ps, pp, po) = (s, p, o);
    }
    stamp(&mut out);
    out
}

// ---------------------------------------------------------------------------
// reader
// ---------------------------------------------------------------------------

/// One minted member set: a count, then that many pool indices.
fn members(r: &mut Reader<'_>, pool: &[Arc<str>]) -> Result<MemberSet, SnapshotError> {
    // Keys may repeat members, so the count can exceed the deduplicated
    // pool — but each index takes at least one byte.
    (0..r.count(1)?)
        .map(|_| {
            let idx = r.varint()?;
            let member = usize::try_from(idx).ok().and_then(|i| pool.get(i));
            member.cloned().ok_or(SnapshotError::Truncated)
        })
        .collect()
}

/// Reads one term record and interns it: string fields are validated where
/// they lie in the image and appended to the dictionary's arena, so a plain
/// term costs no allocation.
fn term(
    r: &mut Reader<'_>,
    pool: &[Arc<str>],
    dict: &mut Dictionary,
) -> Result<TermId, SnapshotError> {
    let minted = match r.u8()? {
        0 => return Ok(dict.encode_ref(TermRef::Iri(r.str()?))),
        1 => return Ok(dict.encode_ref(TermRef::Blank(r.str()?))),
        tag @ 2..=4 => {
            let lexical = r.str()?;
            let kind = match tag {
                2 => LiteralKindRef::Simple,
                3 => LiteralKindRef::Lang(r.str()?),
                _ => LiteralKindRef::Typed(r.str()?),
            };
            return Ok(dict.encode_ref(TermRef::Literal { lexical, kind }));
        }
        5 => MintedTerm::n_tau(),
        6 => {
            let tc = members(r, pool)?;
            MintedTerm::node(tc, members(r, pool)?)
        }
        7 => {
            let classes = members(r, pool)?;
            if classes.is_empty() {
                // `C(∅)` is never minted; an empty set here is corruption.
                return Err(SnapshotError::Truncated);
            }
            MintedTerm::class_set(classes)
        }
        t => return Err(SnapshotError::BadTag(t)),
    };
    Ok(dict.encode_ref(TermRef::Minted(&minted)))
}

fn decode_v2(raw: &[u8]) -> Result<UnprovedRows, SnapshotError> {
    // Header (magic already matched): version, then the checksum trailer
    // over everything before it.
    if raw.len() < 8 + 2 + 8 {
        return Err(SnapshotError::Truncated);
    }
    let version = u16::from_le_bytes([raw[8], raw[9]]);
    if version != VERSION {
        return Err(SnapshotError::BadVersion(version));
    }
    let body = stamped_body(raw)?;
    // Every count is checked against the bytes left to spell it out — at
    // least one a pool string or a term (`Nτ` is a bare tag), three a
    // triple — before anything is sized by it, so no header can reserve
    // more than the image is long.
    let mut r = Reader::new(body, 10);
    let n_terms = r.count(1)?;
    let [n_data, n_type, n_schema] = [r.count(3)?, r.count(3)?, r.count(3)?];
    // Each pool string becomes one shared string; every minted key that
    // references it shares the same allocation, as in a live build.
    let pool: Vec<Arc<str>> = (0..r.count(1)?)
        .map(|_| r.str().map(Arc::from))
        .collect::<Result<_, _>>()?;
    let mut g = UnprovedRows::new();
    // The same bounds again where they are tightest — the pool, and below
    // the terms, are behind the cursor — right before each reservation.
    if n_terms > r.remaining() {
        return Err(SnapshotError::Truncated);
    }
    g.dict_mut().reserve(n_terms, r.remaining());
    for i in 0..n_terms {
        if term(&mut r, &pool, g.dict_mut())?.index() != i {
            return Err(SnapshotError::Duplicate(Table::Terms, i));
        }
    }
    let n_triples = n_data + n_type + n_schema;
    if n_triples > r.remaining() / 3 {
        return Err(SnapshotError::Truncated);
    }
    g.reserve(n_data, n_type, n_schema);
    let wk = g.well_known();
    let (mut ps, mut pp, mut po) = (0i64, 0i64, 0i64);
    for i in 0..n_triples {
        // A running id is below 2^32 here; wrapped past either end of
        // `i64` it lands outside the dictionary like any other bad delta.
        ps = ps.wrapping_add(r.signed_varint()?);
        pp = pp.wrapping_add(r.signed_varint()?);
        po = po.wrapping_add(r.signed_varint()?);
        for v in [ps, pp, po] {
            if v < 0 || v as usize >= n_terms {
                return Err(SnapshotError::DanglingId(v as u32));
            }
        }
        let t = Triple::new(TermId(ps as u32), TermId(pp as u32), TermId(po as u32));
        let expected = if i < n_data {
            Component::Data
        } else if i < n_data + n_type {
            Component::Type
        } else {
            Component::Schema
        };
        if wk.component_of(t.p) != expected {
            return Err(SnapshotError::WrongComponent);
        }
        g.push(t);
    }
    if r.remaining() != 0 {
        // Trailing garbage inside the checksummed body.
        return Err(SnapshotError::Truncated);
    }
    Ok(g)
}

/// Decodes a snapshot buffer back into a graph.
///
/// Term ids are preserved: the decoded graph's dictionary assigns the
/// same id to the same term as the encoded one did.
pub fn decode(raw: &[u8]) -> Result<Graph, SnapshotError> {
    Ok(decode_rows(raw)?.into_graph()?)
}

/// The body decoder: everything [`decode`] checks except that no triple is
/// listed twice, which whoever takes the rows proves with the sort it runs
/// anyway (see the module docs).
pub fn decode_rows(raw: &[u8]) -> Result<UnprovedRows, SnapshotError> {
    match raw.get(..8) {
        Some(magic) if magic == MAGIC_V2 => decode_v2(raw),
        Some(magic) if magic == MAGIC_V1 => Err(SnapshotError::BadVersion(1)),
        _ => Err(SnapshotError::BadMagic),
    }
}

/// Writes a snapshot to a file.
pub fn save(g: &Graph, path: impl AsRef<std::path::Path>) -> Result<(), SnapshotError> {
    std::fs::write(path, encode(g)).map_err(SnapshotError::from)
}

/// Reads a snapshot from a file.
pub fn load(path: impl AsRef<std::path::Path>) -> Result<Graph, SnapshotError> {
    decode(&std::fs::read(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdf_model::Term;

    fn sample() -> Graph {
        let mut g = Graph::new();
        g.add_iri_triple("http://x/a", "http://x/p", "http://x/b");
        g.add_iri_triple("http://x/a", rdf_model::vocab::RDF_TYPE, "http://x/C");
        g.add_iri_triple(
            "http://x/C",
            rdf_model::vocab::RDFS_SUBCLASSOF,
            "http://x/D",
        );
        g.insert(
            Term::iri("http://x/a"),
            Term::iri("http://x/q"),
            Term::lang_literal("héllo", "fr"),
        )
        .unwrap();
        g.insert(
            Term::blank("b1"),
            Term::iri("http://x/q"),
            Term::typed_literal("1", "http://dt/int"),
        )
        .unwrap();
        g
    }

    fn shared(uris: &[&str]) -> MemberSet {
        uris.iter().map(|u| Arc::from(*u)).collect()
    }

    /// A graph whose dictionary holds every minted variant, as a summary
    /// graph's would.
    fn minted_sample() -> Graph {
        let mut g = Graph::new();
        let tc = shared(&["http://x/p", "http://x/q"]);
        let sc = shared(&["http://x/q"]);
        let node: Term = MintedTerm::node(tc, sc).into();
        let classes: Term = MintedTerm::class_set(shared(&["http://x/C", "http://x/B"])).into();
        let ntau: Term = MintedTerm::n_tau().into();
        g.insert(node.clone(), Term::iri("http://x/q"), ntau.clone())
            .unwrap();
        g.insert(
            node,
            Term::iri(rdf_model::vocab::RDF_TYPE),
            Term::iri("http://x/C"),
        )
        .unwrap();
        g.insert(ntau, Term::iri("http://x/p"), classes).unwrap();
        g
    }

    fn assert_same_shape(g: &Graph, g2: &Graph) {
        assert_eq!(g.len(), g2.len());
        assert_eq!(g.data().len(), g2.data().len());
        assert_eq!(g.types().len(), g2.types().len());
        assert_eq!(g.schema().len(), g2.schema().len());
        assert_eq!(g.dict().len(), g2.dict().len());
        for t in g.iter() {
            assert!(g2.contains(t));
        }
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let g = sample();
        let snap = encode(&g);
        let g2 = decode(&snap).unwrap();
        assert_same_shape(&g, &g2);
        // Ids preserved bit-for-bit.
        for (id, term) in g.dict().iter() {
            assert_eq!(g2.dict().decode(id), term);
        }
    }

    #[test]
    fn v2_roundtrip_preserves_mintedness() {
        let g = minted_sample();
        let g2 = decode(&encode(&g)).unwrap();
        assert_same_shape(&g, &g2);
        let mut minted = 0;
        for (id, term) in g.dict().iter() {
            let restored = g2.dict().decode(id);
            let TermRef::Minted(m) = term else {
                assert_eq!(restored, term);
                continue;
            };
            minted += 1;
            // Decoded counterpart is a real minted term again…
            let TermRef::Minted(m2) = restored else {
                panic!("minted term {id:?} decoded as {restored:?}");
            };
            // …with the identical symbolic key (variant + member IRIs,
            // order included) and the identical rendered URI.
            match (m.key(), m2.key()) {
                (MintedKey::NTau, MintedKey::NTau) => {}
                (
                    MintedKey::PropertySets { tc, sc },
                    MintedKey::PropertySets { tc: tc2, sc: sc2 },
                ) => {
                    assert_eq!(tc, tc2);
                    assert_eq!(sc, sc2);
                }
                (MintedKey::ClassSet(a), MintedKey::ClassSet(b)) => {
                    assert_eq!(a, b);
                }
                _ => panic!("key variant changed for {}", m.uri()),
            }
            assert_eq!(m.uri(), m2.uri());
        }
        assert_eq!(minted, 3);
    }

    /// A v1 image is refused with the typed version error — through both
    /// entry points, whatever follows the magic.
    #[test]
    fn v1_images_are_rejected_with_a_typed_error() {
        let mut v1 = b"RDFSNAP1".to_vec();
        for extra in [0usize, 3, 32, 200] {
            v1.resize(8 + extra, 0);
            assert!(matches!(decode(&v1), Err(SnapshotError::BadVersion(1))));
            assert!(matches!(
                decode_rows(&v1),
                Err(SnapshotError::BadVersion(1))
            ));
        }
    }

    #[test]
    fn rejects_bad_magic() {
        let mut raw = encode(&sample());
        raw[0] = b'X';
        assert!(matches!(decode(&raw), Err(SnapshotError::BadMagic)));
    }

    #[test]
    fn rejects_unknown_version() {
        let mut raw = encode(&sample());
        raw[8] = 9;
        assert!(matches!(decode(&raw), Err(SnapshotError::BadVersion(9))));
    }

    #[test]
    fn rejects_corrupt_body_via_checksum() {
        let raw = encode(&minted_sample());
        // Flip one bit in every body byte position in turn (sampled) — the
        // checksum must catch each.
        for pos in (10..raw.len() - 8).step_by(7) {
            let mut bad = raw.clone();
            bad[pos] ^= 0x10;
            assert!(
                matches!(decode(&bad), Err(SnapshotError::BadChecksum)),
                "bit flip at {pos} not caught"
            );
        }
        // Flipping the trailer itself is also a checksum mismatch.
        let mut bad = raw.clone();
        let n = bad.len();
        bad[n - 1] ^= 1;
        assert!(matches!(decode(&bad), Err(SnapshotError::BadChecksum)));
    }

    #[test]
    fn rejects_truncation() {
        let raw = encode(&sample());
        for cut in [0, 5, 9, 20, raw.len() - 5] {
            assert!(decode(&raw[..cut]).is_err(), "cut at {cut} accepted");
        }
    }

    /// A hand-assembled image with a valid checksum: the dictionary of an
    /// empty graph plus `iris` (ids 5, 6, …), and `data` triples given as
    /// absolute ids.
    fn crafted(iris: &[&str], data: &[[i64; 3]]) -> Vec<u8> {
        let g = Graph::new();
        let mut out = MAGIC_V2.to_vec();
        out.extend_from_slice(&VERSION.to_le_bytes());
        // n_terms, n_data, n_type, n_schema, n_pool
        for n in [g.dict().len() + iris.len(), data.len(), 0, 0, 0] {
            put_varint(&mut out, n as u64);
        }
        for (_, term) in g.dict().iter() {
            put_term_v2(&mut out, &Pool::build(&g), term);
        }
        for iri in iris {
            out.push(0);
            put_str(&mut out, iri);
        }
        let mut prev = [0; 3];
        for t in data {
            for (id, prev) in t.iter().zip(&mut prev) {
                put_signed_varint(&mut out, id.wrapping_sub(*prev));
                *prev = *id;
            }
        }
        stamp(&mut out);
        out
    }

    #[test]
    fn v2_rejects_dangling_ids() {
        // A well-formed image decodes; one whose data triple points past
        // the dictionary, checksum intact, trips the id check — not a
        // panic or an out-of-bounds read.
        let g = decode(&crafted(&["s:a", "p:b"], &[[5, 6, 5]])).unwrap();
        assert_eq!((g.len(), g.dict().len()), (1, 7));
        let err = decode(&crafted(&["s:a", "p:b"], &[[5, 6, 9]])).unwrap_err();
        assert!(matches!(err, SnapshotError::DanglingId(9)), "{err:?}");
    }

    #[test]
    fn v2_rejects_negative_delta_underflow() {
        // A delta running the id below zero is dangling, not a wrap-around
        // — nor is one that overflows the running sum.
        for bad in [-3, i64::MIN, i64::MAX] {
            assert!(matches!(
                decode(&crafted(&["s:a", "p:b"], &[[5, 6, 5], [bad, 6, 5]])),
                Err(SnapshotError::DanglingId(_))
            ));
        }
    }

    /// An image that lists a triple or a term twice would decode to a
    /// graph smaller than its header declares: refused, with the index of
    /// the repeat.
    #[test]
    fn v2_rejects_repeated_entries() {
        let err = decode(&crafted(
            &["s:a", "p:b"],
            &[[5, 6, 5], [6, 6, 5], [5, 6, 5]],
        ));
        let err = err.unwrap_err();
        assert!(
            matches!(err, SnapshotError::Duplicate(Table::Triples, 2)),
            "{err:?}"
        );
        let err = decode(&crafted(&["s:a", "p:b", "s:a"], &[[5, 6, 5]])).unwrap_err();
        assert!(
            matches!(err, SnapshotError::Duplicate(Table::Terms, 7)),
            "{err:?}"
        );
        // A well-known term listed again is a repeat like any other.
        let err = decode(&crafted(&[rdf_model::vocab::RDF_TYPE], &[])).unwrap_err();
        assert!(
            matches!(err, SnapshotError::Duplicate(Table::Terms, 5)),
            "{err:?}"
        );
    }

    /// Encoding reads minted keys symbolically: it never renders a URI.
    #[test]
    fn encoding_leaves_minted_terms_unrendered() {
        let g = minted_sample();
        let restored = decode(&encode(&g)).unwrap();
        for g in [&g, &restored] {
            let minted: Vec<_> = g
                .dict()
                .iter()
                .filter_map(|(_, t)| match t {
                    TermRef::Minted(m) => Some(m),
                    _ => None,
                })
                .collect();
            assert_eq!(minted.len(), 3);
            assert!(minted.iter().all(|m| !m.is_rendered()));
        }
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("rdfstore_snapshot_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.snap");
        let g = sample();
        save(&g, &path).unwrap();
        let g2 = load(&path).unwrap();
        assert_eq!(g.len(), g2.len());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_graph_roundtrips() {
        let g = Graph::new();
        let g2 = decode(&encode(&g)).unwrap();
        assert!(g2.is_empty());
        // Well-known terms still interned.
        assert_eq!(g2.dict().len(), 5);
    }
}
