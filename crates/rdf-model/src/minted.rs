//! Symbolic minted summary terms.
//!
//! The paper's representation functions `N(TC, SC)` (§4.1) and `C(X)`
//! (§4.2) only need to be *injective* — nothing forces them to eagerly
//! materialize a URI string. A [`MintedTerm`] therefore stores the minted
//! node's identity **symbolically**: a shared slice of the member
//! property/class IRIs, each a shared string the naming layer copies out
//! of the summarized graph's dictionary once per build (the dictionary is
//! one string arena and has no per-term allocation to share).
//! The URI string the old eager functions produced is rendered lazily, on
//! first [`MintedTerm::uri`] / `Display` / serialization, and cached — so
//! the summary construction hot path never allocates or hashes a URI
//! string, while all rendered output stays byte-identical.
//!
//! **Identity.** Equality and hashing compare the *set allocations* — the
//! address and length of each key slice — not the member strings: two
//! minted terms are equal iff they were built from the same slices (or are
//! both `Nτ`). Within one summary build every partition class mints its
//! key exactly once, so allocation identity coincides with set identity —
//! this is the interned-key injectivity argument that replaces the old
//! "`|` cannot occur inside an IRI" string argument. Minted terms from
//! *different* builds compare unequal even when they render identically;
//! comparisons across builds must go through the rendered form (as the
//! golden-equivalence tests do).
//!
//! A corollary: a minted term is never structurally equal to a plain
//! [`Term::Iri`], so a summary node cannot be resolved by probing the
//! summary's dictionary with its rendered URI
//! (`dict.lookup(&Term::iri("urn:rdfsummary:…")) == None`). Code that
//! addresses summary nodes by name should compare rendered strings
//! ([`Term::as_iri`]) — or operate on a serialization round-trip of the
//! summary, where every node is re-materialized as a plain IRI.

use crate::term::Term;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, OnceLock};

/// Namespace prefix of all minted summary URIs.
pub const SUMMARY_NS: &str = "urn:rdfsummary:";

/// The rendered URI of `Nτ`, the node representing all typed-only
/// resources (TC = SC = ∅) in weak and strong summaries.
pub const N_TAU_URI: &str = "urn:rdfsummary:ntau";

/// The members of one key set: property or class IRIs.
pub type MemberSet = Arc<[Arc<str>]>;

/// An interned, sorted IRI-set key identifying a minted summary node.
///
/// The members are shared strings, so minting a key clones pointers and
/// copies no string data.
#[derive(Clone)]
pub enum MintedKey {
    /// `N(∅, ∅)` — the `Nτ` node.
    NTau,
    /// `N(TC, SC)` — a node identified by its incoming (`tc`) and
    /// outgoing (`sc`) data-property sets.
    PropertySets {
        /// Target-clique properties (the `in=` side of the rendered URI).
        tc: MemberSet,
        /// Source-clique properties (the `out=` side).
        sc: MemberSet,
    },
    /// `C(X)` — a node identified by a non-empty class set.
    ClassSet(MemberSet),
}

impl MintedKey {
    /// The key's member slices, for serialization: `(tc, sc)` for a
    /// property-set node, `(classes, ∅)` for a class set, `(∅, ∅)` for
    /// `Nτ`. Together with the variant this is the full symbolic key; a
    /// codec rebuilds an equivalent term via [`MintedTerm::node`] /
    /// [`MintedTerm::class_set`] / [`MintedTerm::n_tau`] over freshly
    /// interned member sets.
    pub fn members(&self) -> (&[Arc<str>], &[Arc<str>]) {
        match self {
            MintedKey::NTau => (&[], &[]),
            MintedKey::PropertySets { tc, sc } => (tc, sc),
            MintedKey::ClassSet(classes) => (classes, &[]),
        }
    }
}

/// The address/length fingerprint of an interned set, the unit of minted
/// identity.
#[inline]
fn set_id(a: &MemberSet) -> (usize, usize) {
    (a.as_ptr() as usize, a.len())
}

/// A symbolically minted summary term: a [`MintedKey`] plus a lazily
/// rendered, cached URI string.
#[derive(Clone)]
pub struct MintedTerm {
    key: MintedKey,
    rendered: OnceLock<String>,
}

impl MintedTerm {
    /// Mints `N(TC, SC)`. Both-empty inputs normalize to the `Nτ` key, so
    /// every `N(∅, ∅)` call yields the *same* (structurally equal) term,
    /// matching the eager function's single `ntau` URI.
    pub fn node(tc: MemberSet, sc: MemberSet) -> Self {
        let key = if tc.is_empty() && sc.is_empty() {
            MintedKey::NTau
        } else {
            MintedKey::PropertySets { tc, sc }
        };
        MintedTerm {
            key,
            rendered: OnceLock::new(),
        }
    }

    /// Mints `C(X)` for a non-empty class set.
    ///
    /// # Panics
    /// Panics on an empty set: the paper's `C(∅)` must return a *fresh*
    /// URI per call, which a deterministic key cannot provide.
    pub fn class_set(classes: MemberSet) -> Self {
        assert!(
            !classes.is_empty(),
            "C(∅) must use fresh URIs, not a minted class-set key"
        );
        MintedTerm {
            key: MintedKey::ClassSet(classes),
            rendered: OnceLock::new(),
        }
    }

    /// The `Nτ` term.
    pub fn n_tau() -> Self {
        MintedTerm {
            key: MintedKey::NTau,
            rendered: OnceLock::new(),
        }
    }

    /// The symbolic key.
    pub fn key(&self) -> &MintedKey {
        &self.key
    }

    /// Has the URI been rendered yet? Test seam: hot-path operations
    /// (equality, hashing, dictionary interning) must leave this `false`.
    pub fn is_rendered(&self) -> bool {
        self.rendered.get().is_some()
    }

    /// The minted URI, rendered on first use and cached.
    ///
    /// Rendering reproduces the historical eager form byte-for-byte:
    /// member IRIs sorted lexicographically, deduplicated, joined with
    /// `|`, wrapped in the `urn:rdfsummary:` query shapes.
    pub fn uri(&self) -> &str {
        self.rendered.get_or_init(|| match &self.key {
            MintedKey::NTau => N_TAU_URI.to_string(),
            MintedKey::PropertySets { tc, sc } => {
                format!("{SUMMARY_NS}n?in={}&out={}", join_iris(tc), join_iris(sc))
            }
            MintedKey::ClassSet(classes) => {
                format!("{SUMMARY_NS}c?types={}", join_iris(classes))
            }
        })
    }
}

/// Sorted/deduplicated `|`-join of the member IRIs (the eager functions'
/// `join_sorted`).
fn join_iris(members: &[Arc<str>]) -> String {
    let mut uris: Vec<&str> = members.iter().map(|m| &**m).collect();
    uris.sort_unstable();
    uris.dedup();
    uris.join("|")
}

impl From<MintedTerm> for Term {
    fn from(m: MintedTerm) -> Self {
        Term::Minted(m)
    }
}

impl PartialEq for MintedTerm {
    fn eq(&self, other: &Self) -> bool {
        match (&self.key, &other.key) {
            (MintedKey::NTau, MintedKey::NTau) => true,
            (
                MintedKey::PropertySets { tc: a_tc, sc: a_sc },
                MintedKey::PropertySets { tc: b_tc, sc: b_sc },
            ) => set_id(a_tc) == set_id(b_tc) && set_id(a_sc) == set_id(b_sc),
            (MintedKey::ClassSet(a), MintedKey::ClassSet(b)) => set_id(a) == set_id(b),
            _ => false,
        }
    }
}

impl Eq for MintedTerm {}

impl Hash for MintedTerm {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match &self.key {
            MintedKey::NTau => 0u8.hash(state),
            MintedKey::PropertySets { tc, sc } => {
                1u8.hash(state);
                set_id(tc).hash(state);
                set_id(sc).hash(state);
            }
            MintedKey::ClassSet(classes) => {
                2u8.hash(state);
                set_id(classes).hash(state);
            }
        }
    }
}

/// A total order consistent with the pointer-based equality: rendered URI
/// first (stable, human-meaningful), key pointers as a tiebreak so that
/// distinct-but-identically-rendered terms never compare `Equal`.
impl Ord for MintedTerm {
    fn cmp(&self, other: &Self) -> Ordering {
        if self == other {
            return Ordering::Equal;
        }
        let fingerprint = |k: &MintedKey| match k {
            MintedKey::NTau => (0u8, (0, 0), (0, 0)),
            MintedKey::PropertySets { tc, sc } => (1u8, set_id(tc), set_id(sc)),
            MintedKey::ClassSet(classes) => (2u8, set_id(classes), (0, 0)),
        };
        self.uri()
            .cmp(other.uri())
            .then_with(|| fingerprint(&self.key).cmp(&fingerprint(&other.key)))
    }
}

impl PartialOrd for MintedTerm {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl fmt::Debug for MintedTerm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Show the cached form when present; never force a render from a
        // debug print (that would invalidate the `is_rendered` test seam).
        match self.rendered.get() {
            Some(uri) => write!(f, "Minted({uri})"),
            None => match &self.key {
                MintedKey::NTau => write!(f, "Minted(ntau)"),
                MintedKey::PropertySets { tc, sc } => {
                    write!(f, "Minted(n: {} in, {} out)", tc.len(), sc.len())
                }
                MintedKey::ClassSet(classes) => write!(f, "Minted(c: {} types)", classes.len()),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shared(uris: &[&str]) -> MemberSet {
        uris.iter().map(|u| Arc::from(*u)).collect()
    }

    #[test]
    fn renders_match_eager_forms() {
        let tc = shared(&["http://x/b", "http://x/a"]);
        let sc = shared(&["http://x/c"]);
        let m = MintedTerm::node(tc, sc);
        assert!(!m.is_rendered());
        assert_eq!(
            m.uri(),
            "urn:rdfsummary:n?in=http://x/a|http://x/b&out=http://x/c"
        );
        assert!(m.is_rendered());
        let c = MintedTerm::class_set(shared(&["http://x/B", "http://x/A"]));
        assert_eq!(c.uri(), "urn:rdfsummary:c?types=http://x/A|http://x/B");
        assert_eq!(MintedTerm::n_tau().uri(), N_TAU_URI);
    }

    #[test]
    fn empty_node_normalizes_to_ntau() {
        let a = MintedTerm::node(shared(&[]), shared(&[]));
        let b = MintedTerm::n_tau();
        assert_eq!(a, b);
        assert_eq!(a.uri(), N_TAU_URI);
    }

    #[test]
    fn identity_is_pointer_based() {
        let tc = shared(&["http://x/p"]);
        let sc = shared(&["http://x/q"]);
        let a = MintedTerm::node(tc.clone(), sc.clone());
        let b = MintedTerm::node(tc.clone(), sc.clone());
        // Same interned sets ⇒ equal.
        assert_eq!(a, b);
        // Different allocations with identical content ⇒ NOT equal (minted
        // identity is the interned key, not the rendered string)…
        let c = MintedTerm::node(shared(&["http://x/p"]), shared(&["http://x/q"]));
        assert_ne!(a, c);
        // …but they render identically, and Ord stays consistent with Eq:
        // equal renderings of unequal keys do not compare Equal.
        assert_eq!(a.uri(), c.uri());
        assert_ne!(a.cmp(&c), Ordering::Equal);
        // Different sides are distinct.
        let d = MintedTerm::node(sc, tc);
        assert_ne!(a, d);
    }

    #[test]
    fn hash_matches_equality_without_rendering() {
        use std::hash::BuildHasher;
        let tc = shared(&["http://x/p"]);
        let sc: MemberSet = shared(&[]);
        let a = MintedTerm::node(tc.clone(), sc.clone());
        let b = MintedTerm::node(tc, sc);
        let h = crate::FxBuildHasher::default();
        assert_eq!(h.hash_one(&a), h.hash_one(&b));
        // The hot-path identity operations never render.
        assert!(!a.is_rendered() && !b.is_rendered());
    }

    #[test]
    #[should_panic(expected = "C(∅)")]
    fn class_set_rejects_empty() {
        MintedTerm::class_set(shared(&[]));
    }

    #[test]
    fn duplicate_members_collapse_in_rendering() {
        let m = MintedTerm::node(shared(&["http://x/a", "http://x/a"]), shared(&[]));
        assert_eq!(m.uri(), "urn:rdfsummary:n?in=http://x/a&out=");
    }

    #[test]
    fn members_exposes_the_symbolic_key() {
        let tc = shared(&["http://x/a"]);
        let sc = shared(&["http://x/b", "http://x/c"]);
        let n = MintedTerm::node(tc.clone(), sc.clone());
        let (first, second) = n.key().members();
        assert_eq!(first.len(), 1);
        assert_eq!(second.len(), 2);
        assert_eq!(&*first[0], "http://x/a");
        let c = MintedTerm::class_set(shared(&["http://x/C"]));
        let (classes, rest) = c.key().members();
        assert_eq!(classes.len(), 1);
        assert!(rest.is_empty());
        assert_eq!(MintedTerm::n_tau().key().members(), (&[][..], &[][..]));
    }

    #[test]
    fn term_integration() {
        let t: Term = MintedTerm::n_tau().into();
        assert!(t.is_iri());
        assert_eq!(t.as_iri(), Some(N_TAU_URI));
        assert_eq!(t.to_string(), format!("<{N_TAU_URI}>"));
        assert!(t.valid_subject());
        // Minted terms are never structurally equal to plain IRIs, even
        // with the same rendering (different builds must compare via the
        // rendered form).
        assert_ne!(t, Term::iri(N_TAU_URI));
    }
}
