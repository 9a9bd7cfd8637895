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
//! decoded summary graph holds real [`Term::Minted`] terms (identical key
//! members, identical rendered URI). The retired v1 layout (`RDFSNAP1`,
//! not written since PR 10) is recognised by its magic and refused with
//! [`SnapshotError::BadVersion`].
//!
//! Term ids are preserved, so snapshots round-trip graphs
//! *bit-identically* (insertion order of each component included).

use bytes::{BufMut, Bytes, BytesMut};
use rdf_model::{Graph, LiteralKind, MintedKey, MintedTerm, SharedTerm, Term, Triple};
use std::fmt;
use std::sync::Arc;

/// Magic header bytes of the retired v1 format, kept only to tell a v1
/// image from garbage.
const MAGIC_V1: &[u8; 8] = b"RDFSNAP1";

/// Magic header bytes of the format.
pub const MAGIC_V2: &[u8; 8] = b"RDFSNAP2";

/// Format version written after [`MAGIC_V2`].
pub const VERSION: u16 = 2;

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
            SnapshotError::Io(e) => write!(f, "I/O error: {e}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

/// FNV-1a over a byte slice — the checksum trailer's hash.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// LEB128 unsigned varint.
fn put_varint(buf: &mut BytesMut, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.put_u8(byte);
            return;
        }
        buf.put_u8(byte | 0x80);
    }
}

/// Zigzag-mapped signed varint (deltas can be negative).
fn put_signed_varint(buf: &mut BytesMut, v: i64) {
    put_varint(buf, ((v << 1) ^ (v >> 63)) as u64);
}

fn put_varint_str(buf: &mut BytesMut, s: &str) {
    put_varint(buf, s.len() as u64);
    buf.put_slice(s.as_bytes());
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
            if let Term::Minted(m) = term {
                let (first, second) = m.key().members();
                for member in first.iter().chain(second) {
                    pool.intern(member);
                }
            }
        }
        pool
    }

    fn intern(&mut self, member: &'a SharedTerm) {
        let iri = member.as_iri().expect("minted keys hold IRI terms");
        if !self.index.contains_key(iri) {
            self.index.insert(iri, self.strings.len() as u64);
            self.strings.push(iri);
        }
    }

    fn id(&self, member: &SharedTerm) -> u64 {
        let iri = member.as_iri().expect("minted keys hold IRI terms");
        self.index[iri]
    }
}

fn put_members(buf: &mut BytesMut, pool: &Pool<'_>, members: &[SharedTerm]) {
    put_varint(buf, members.len() as u64);
    for m in members {
        put_varint(buf, pool.id(m));
    }
}

fn put_term_v2(buf: &mut BytesMut, pool: &Pool<'_>, t: &Term) {
    match t {
        Term::Iri(iri) => {
            buf.put_u8(0);
            put_varint_str(buf, iri);
        }
        Term::Blank(label) => {
            buf.put_u8(1);
            put_varint_str(buf, label);
        }
        Term::Literal { lexical, kind } => match kind {
            LiteralKind::Simple => {
                buf.put_u8(2);
                put_varint_str(buf, lexical);
            }
            LiteralKind::Lang(tag) => {
                buf.put_u8(3);
                put_varint_str(buf, lexical);
                put_varint_str(buf, tag);
            }
            LiteralKind::Typed(dt) => {
                buf.put_u8(4);
                put_varint_str(buf, lexical);
                put_varint_str(buf, dt);
            }
        },
        Term::Minted(m) => match m.key() {
            MintedKey::NTau => buf.put_u8(5),
            MintedKey::PropertySets { tc, sc } => {
                buf.put_u8(6);
                put_members(buf, pool, tc);
                put_members(buf, pool, sc);
            }
            MintedKey::ClassSet(classes) => {
                buf.put_u8(7);
                put_members(buf, pool, classes);
            }
        },
    }
}

/// Serializes a graph into a v2 snapshot buffer: symbolic minted keys,
/// varint/delta-compressed triple ids, FNV-1a checksum trailer.
pub fn encode(g: &Graph) -> Bytes {
    let mut buf = BytesMut::with_capacity(64 + g.dict().len() * 16 + g.len() * 4);
    buf.put_slice(MAGIC_V2);
    buf.put_u16_le(VERSION);
    put_varint(&mut buf, g.dict().len() as u64);
    put_varint(&mut buf, g.data().len() as u64);
    put_varint(&mut buf, g.types().len() as u64);
    put_varint(&mut buf, g.schema().len() as u64);
    let pool = Pool::build(g);
    put_varint(&mut buf, pool.strings.len() as u64);
    for s in &pool.strings {
        put_varint_str(&mut buf, s);
    }
    for (_, term) in g.dict().iter() {
        put_term_v2(&mut buf, &pool, term);
    }
    let (mut ps, mut pp, mut po) = (0i64, 0i64, 0i64);
    for t in g
        .data()
        .iter()
        .chain(g.types().iter())
        .chain(g.schema().iter())
    {
        let (s, p, o) = (t.s.0 as i64, t.p.0 as i64, t.o.0 as i64);
        put_signed_varint(&mut buf, s - ps);
        put_signed_varint(&mut buf, p - pp);
        put_signed_varint(&mut buf, o - po);
        (ps, pp, po) = (s, p, o);
    }
    let checksum = fnv1a64(&buf);
    buf.put_u64_le(checksum);
    buf.freeze()
}

// ---------------------------------------------------------------------------
// reader
// ---------------------------------------------------------------------------

/// Bounds-checked cursor over the v2 body.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        if self.buf.len() - self.pos < n {
            return Err(SnapshotError::Truncated);
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    fn varint(&mut self) -> Result<u64, SnapshotError> {
        let mut v = 0u64;
        for shift in (0..64).step_by(7) {
            let byte = self.u8()?;
            v |= ((byte & 0x7f) as u64) << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err(SnapshotError::Truncated)
    }

    fn signed_varint(&mut self) -> Result<i64, SnapshotError> {
        let z = self.varint()?;
        Ok(((z >> 1) as i64) ^ -((z & 1) as i64))
    }

    fn str(&mut self) -> Result<String, SnapshotError> {
        let len = self.varint()? as usize;
        let raw = self.take(len)?;
        String::from_utf8(raw.to_vec()).map_err(|_| SnapshotError::BadUtf8)
    }

    fn members(&mut self, pool: &[SharedTerm]) -> Result<Arc<[SharedTerm]>, SnapshotError> {
        let n = self.varint()? as usize;
        // Keys may repeat members, so `n` can exceed the deduplicated
        // pool — but each index costs at least one byte, which bounds the
        // allocation soundly.
        if n > self.buf.len() - self.pos {
            return Err(SnapshotError::Truncated);
        }
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            let idx = self.varint()? as usize;
            let member = pool.get(idx).ok_or(SnapshotError::Truncated)?;
            out.push(Arc::clone(member));
        }
        Ok(out.into())
    }

    fn term(&mut self, pool: &[SharedTerm]) -> Result<Term, SnapshotError> {
        match self.u8()? {
            0 => Ok(Term::Iri(self.str()?)),
            1 => Ok(Term::Blank(self.str()?)),
            2 => Ok(Term::literal(self.str()?)),
            3 => {
                let lexical = self.str()?;
                let tag = self.str()?;
                Ok(Term::lang_literal(lexical, tag))
            }
            4 => {
                let lexical = self.str()?;
                let dt = self.str()?;
                Ok(Term::typed_literal(lexical, dt))
            }
            5 => Ok(Term::Minted(MintedTerm::n_tau())),
            6 => {
                let tc = self.members(pool)?;
                let sc = self.members(pool)?;
                Ok(Term::Minted(MintedTerm::node(tc, sc)))
            }
            7 => {
                let classes = self.members(pool)?;
                if classes.is_empty() {
                    // `C(∅)` is never minted; an empty set here is corruption.
                    return Err(SnapshotError::Truncated);
                }
                Ok(Term::Minted(MintedTerm::class_set(classes)))
            }
            t => Err(SnapshotError::BadTag(t)),
        }
    }
}

fn decode_v2(raw: &[u8]) -> Result<Graph, SnapshotError> {
    // Header (magic already matched): version, then the checksum trailer
    // over everything before it.
    if raw.len() < 8 + 2 + 8 {
        return Err(SnapshotError::Truncated);
    }
    let version = u16::from_le_bytes([raw[8], raw[9]]);
    if version != VERSION {
        return Err(SnapshotError::BadVersion(version));
    }
    let body = &raw[..raw.len() - 8];
    let stored = u64::from_le_bytes(raw[raw.len() - 8..].try_into().unwrap());
    if fnv1a64(body) != stored {
        return Err(SnapshotError::BadChecksum);
    }
    let mut r = Reader { buf: body, pos: 10 };
    let n_terms = r.varint()? as usize;
    let n_data = r.varint()? as usize;
    let n_type = r.varint()? as usize;
    let n_schema = r.varint()? as usize;
    let n_pool = r.varint()? as usize;
    if n_pool > body.len() {
        return Err(SnapshotError::Truncated);
    }
    // Each pool string becomes one shared `Term::Iri`; every minted key
    // that references it shares the same allocation, as in a live build.
    let mut pool: Vec<SharedTerm> = Vec::with_capacity(n_pool);
    for _ in 0..n_pool {
        pool.push(Arc::new(Term::iri(r.str()?)));
    }
    let mut g = Graph::new();
    if n_terms > body.len() {
        return Err(SnapshotError::Truncated);
    }
    for i in 0..n_terms {
        let term = r.term(&pool)?;
        let id = g.dict_mut().encode(term);
        if id.index() != i {
            // Duplicate term in snapshot dictionary — corrupt.
            return Err(SnapshotError::Truncated);
        }
    }
    let n_triples = n_data + n_type + n_schema;
    if n_triples > body.len() {
        return Err(SnapshotError::Truncated);
    }
    let wk = g.well_known();
    let (mut ps, mut pp, mut po) = (0i64, 0i64, 0i64);
    for i in 0..n_triples {
        ps += r.signed_varint()?;
        pp += r.signed_varint()?;
        po += r.signed_varint()?;
        for v in [ps, pp, po] {
            if v < 0 || v as usize >= n_terms {
                return Err(SnapshotError::DanglingId(v as u32));
            }
        }
        let t = Triple::new(
            rdf_model::TermId(ps as u32),
            rdf_model::TermId(pp as u32),
            rdf_model::TermId(po as u32),
        );
        let expected = if i < n_data {
            rdf_model::Component::Data
        } else if i < n_data + n_type {
            rdf_model::Component::Type
        } else {
            rdf_model::Component::Schema
        };
        if wk.component_of(t.p) != expected {
            return Err(SnapshotError::WrongComponent);
        }
        g.insert_encoded(t);
    }
    if r.pos != body.len() {
        // Trailing garbage inside the checksummed body.
        return Err(SnapshotError::Truncated);
    }
    Ok(g)
}

/// Decodes a snapshot buffer back into a graph.
///
/// Term ids are preserved: the decoded graph's dictionary assigns the
/// same id to the same term as the encoded one did.
pub fn decode(buf: Bytes) -> Result<Graph, SnapshotError> {
    decode_slice(&buf)
}

/// [`decode`] over a borrowed byte slice.
pub fn decode_slice(raw: &[u8]) -> Result<Graph, SnapshotError> {
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
    let raw = std::fs::read(path)?;
    decode(Bytes::from(raw))
}

#[cfg(test)]
mod tests {
    use super::*;

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

    fn shared(uris: &[&str]) -> Arc<[SharedTerm]> {
        uris.iter()
            .map(|u| Arc::new(Term::iri(*u)))
            .collect::<Vec<_>>()
            .into()
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
        let g2 = decode(snap).unwrap();
        assert_same_shape(&g, &g2);
        // Ids preserved bit-for-bit.
        for (id, term) in g.dict().iter() {
            assert_eq!(g2.dict().decode(id), term);
        }
    }

    /// Member IRIs of a key slice, in stored order.
    fn iris(v: &[SharedTerm]) -> Vec<String> {
        v.iter().map(|t| t.as_iri().unwrap().to_owned()).collect()
    }

    #[test]
    fn v2_roundtrip_preserves_mintedness() {
        let g = minted_sample();
        let g2 = decode(encode(&g)).unwrap();
        assert_same_shape(&g, &g2);
        let mut minted = 0;
        for (id, term) in g.dict().iter() {
            let restored = g2.dict().decode(id);
            let Term::Minted(m) = term else {
                assert_eq!(restored, term);
                continue;
            };
            minted += 1;
            // Decoded counterpart is a real minted term again…
            let Term::Minted(m2) = restored else {
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
                    assert_eq!(iris(tc), iris(tc2));
                    assert_eq!(iris(sc), iris(sc2));
                }
                (MintedKey::ClassSet(a), MintedKey::ClassSet(b)) => {
                    assert_eq!(iris(a), iris(b));
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
            assert!(matches!(
                decode(Bytes::from(v1.clone())),
                Err(SnapshotError::BadVersion(1))
            ));
            assert!(matches!(
                decode_slice(&v1),
                Err(SnapshotError::BadVersion(1))
            ));
        }
    }

    #[test]
    fn rejects_bad_magic() {
        let mut raw = encode(&sample()).to_vec();
        raw[0] = b'X';
        assert!(matches!(
            decode(Bytes::from(raw)),
            Err(SnapshotError::BadMagic)
        ));
    }

    #[test]
    fn rejects_unknown_version() {
        let mut raw = encode(&sample()).to_vec();
        raw[8] = 9;
        assert!(matches!(
            decode(Bytes::from(raw)),
            Err(SnapshotError::BadVersion(9))
        ));
    }

    #[test]
    fn rejects_corrupt_body_via_checksum() {
        let raw = encode(&minted_sample()).to_vec();
        // Flip one bit in every body byte position in turn (sampled) — the
        // checksum must catch each.
        for pos in (10..raw.len() - 8).step_by(7) {
            let mut bad = raw.clone();
            bad[pos] ^= 0x10;
            assert!(
                matches!(decode(Bytes::from(bad)), Err(SnapshotError::BadChecksum)),
                "bit flip at {pos} not caught"
            );
        }
        // Flipping the trailer itself is also a checksum mismatch.
        let mut bad = raw.clone();
        let n = bad.len();
        bad[n - 1] ^= 1;
        assert!(matches!(
            decode(Bytes::from(bad)),
            Err(SnapshotError::BadChecksum)
        ));
    }

    #[test]
    fn rejects_truncation() {
        let raw = encode(&sample());
        for cut in [0, 5, 9, 20, raw.len() - 5] {
            let sliced = raw.slice(0..cut);
            assert!(decode(sliced).is_err(), "cut at {cut} accepted");
        }
    }

    #[test]
    fn v2_rejects_dangling_ids() {
        // Hand-craft a v2 image with an empty dictionary but one data
        // triple whose ids point past it, checksum intact — the id check
        // must fire, not a panic or an out-of-bounds read.
        let mut buf = BytesMut::new();
        buf.put_slice(MAGIC_V2);
        buf.put_u16_le(VERSION);
        put_varint(&mut buf, 0); // n_terms
        put_varint(&mut buf, 1); // n_data
        put_varint(&mut buf, 0); // n_type
        put_varint(&mut buf, 0); // n_schema
        put_varint(&mut buf, 0); // pool
        put_signed_varint(&mut buf, 9);
        put_signed_varint(&mut buf, 9);
        put_signed_varint(&mut buf, 9);
        let sum = fnv1a64(&buf);
        buf.put_u64_le(sum);
        let err = decode(buf.freeze()).unwrap_err();
        assert!(matches!(err, SnapshotError::DanglingId(9)), "{err:?}");
    }

    #[test]
    fn v2_rejects_negative_delta_underflow() {
        // A delta running the id below zero is dangling, not a wrap-around.
        let mut buf = BytesMut::new();
        buf.put_slice(MAGIC_V2);
        buf.put_u16_le(VERSION);
        put_varint(&mut buf, 0);
        put_varint(&mut buf, 1);
        put_varint(&mut buf, 0);
        put_varint(&mut buf, 0);
        put_varint(&mut buf, 0);
        put_signed_varint(&mut buf, -3);
        put_signed_varint(&mut buf, 0);
        put_signed_varint(&mut buf, 0);
        let sum = fnv1a64(&buf);
        buf.put_u64_le(sum);
        assert!(matches!(
            decode(buf.freeze()),
            Err(SnapshotError::DanglingId(_))
        ));
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
        let g2 = decode(encode(&g)).unwrap();
        assert!(g2.is_empty());
        // Well-known terms still interned.
        assert_eq!(g2.dict().len(), 5);
    }
}
