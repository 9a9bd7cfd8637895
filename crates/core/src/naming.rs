//! Representation functions: minting the terms that name summary nodes.
//!
//! §4.1 of the paper introduces `N`, "any injective function taking as
//! input two sets of URIs (a set of target data properties and a set of
//! source data properties) and returning a new URI", and §4.2 introduces
//! `C`, which maps a non-empty class set to a URI and returns a fresh URI
//! on every call for the empty set.
//!
//! Since the symbolic-minting refactor, the builders' `N` and `C` are
//! [`Namer::n_term`] / [`Namer::c_term`]: they return a
//! [`rdf_model::Term::Minted`] holding the *interned set key itself* — a
//! shared slice of the member IRIs — instead of an eagerly formatted string.
//! The summarized graph's dictionary is one string arena with no per-term
//! allocation to point into, so a [`Namer`] copies each member IRI out of it
//! once per build, into a shared string every key of that build reuses.
//! **Injectivity now lives in the interned-key ordering:** within one
//! summary build every equivalence class mints its key exactly once from
//! canonical (sorted, deduplicated) id sets, and minted identity is the
//! key allocation, so distinct property/class sets yield distinct summary
//! nodes by construction — no string comparison involved. The URI string
//! is rendered only on `Display`/serialization, byte-identical to the
//! historical eager form: member IRIs sorted lexicographically, joined
//! with `|` (which the IRIREF production forbids inside an IRI, so the
//! rendered form also parses back unambiguously, preserving the old
//! string-level injectivity argument for everything downstream of
//! serialization).
//!
//! The eager string functions [`n_uri`] / [`c_uri`] are retained for the
//! pre-refactor reference oracle (`rdfsum_experiments::reference`) and for tests
//! pinning the rendered form — every live builder, batch and streaming
//! alike, now mints symbolically; determinism of
//! both paths is what lets the completeness tests compare `W_{G∞}` and
//! `W_{(W_G)∞}` by plain graph equality.

use rdf_model::{Dictionary, FxHashMap, MemberSet, MintedTerm, Term, TermId};
use std::sync::Arc;

pub use rdf_model::{N_TAU_URI, SUMMARY_NS};

/// The URI of `Nτ`, the node representing all typed-only resources
/// (TC = SC = ∅) in weak and strong summaries.
pub fn n_tau_uri() -> &'static str {
    N_TAU_URI
}

/// The representation functions of one summary build over `dict`, the
/// summarized graph's dictionary.
pub struct Namer<'a> {
    dict: &'a Dictionary,
    /// The shared string of every member IRI minted into a key so far.
    members: FxHashMap<TermId, Arc<str>>,
}

impl<'a> Namer<'a> {
    /// A namer that has not minted anything yet.
    pub fn new(dict: &'a Dictionary) -> Self {
        Namer {
            dict,
            members: FxHashMap::default(),
        }
    }

    /// The interned set key of `ids`: each member's shared string, copied
    /// out of the dictionary the first time the build names it. The slice
    /// iterator's exact length lets `collect` build the shared slice
    /// directly (one allocation, no intermediate `Vec`).
    fn member_set(&mut self, ids: &[TermId]) -> MemberSet {
        let dict = self.dict;
        ids.iter()
            .map(|&id| {
                let member = self.members.entry(id).or_insert_with(|| {
                    let iri = dict.decode(id).as_iri();
                    Arc::from(iri.expect("property/class ids decode to IRIs"))
                });
                Arc::clone(member)
            })
            .collect()
    }

    /// Symbolic `N(TC, SC)` — the minted term representing nodes with
    /// incoming property set `tc` and outgoing property set `sc` (either may
    /// be empty; both empty yields the `Nτ` term). Renders identically to
    /// [`n_uri`].
    pub fn n_term(&mut self, tc: &[TermId], sc: &[TermId]) -> Term {
        Term::Minted(MintedTerm::node(self.member_set(tc), self.member_set(sc)))
    }

    /// Symbolic `C(X)` for a non-empty class set `X`. Renders identically to
    /// [`c_uri`].
    ///
    /// The paper's `C` returns a fresh URI for `C(∅)`; in our builders the
    /// empty case never reaches `C` (untyped nodes are handled by the untyped
    /// summarizers), so we require non-emptiness.
    pub fn c_term(&mut self, classes: &[TermId]) -> Term {
        assert!(!classes.is_empty(), "C(∅) must use fresh URIs, not c_term");
        Term::Minted(MintedTerm::class_set(self.member_set(classes)))
    }
}

fn join_sorted(dict: &Dictionary, ids: &[TermId]) -> String {
    let mut uris: Vec<&str> = ids
        .iter()
        .map(|&id| {
            dict.decode(id)
                .as_iri()
                .expect("property/class ids decode to IRIs")
        })
        .collect();
    uris.sort_unstable();
    uris.dedup();
    uris.join("|")
}

/// Eager-string `N(TC, SC)` — the rendered URI of [`Namer::n_term`]'s result.
/// Used only by the pre-refactor reference oracle and by tests pinning
/// the rendered form; every live builder mints symbolically.
pub fn n_uri(dict: &Dictionary, tc: &[TermId], sc: &[TermId]) -> String {
    if tc.is_empty() && sc.is_empty() {
        return n_tau_uri().to_string();
    }
    format!(
        "{SUMMARY_NS}n?in={}&out={}",
        join_sorted(dict, tc),
        join_sorted(dict, sc)
    )
}

/// Eager-string `C(X)` for a non-empty class set `X` — the rendered URI of
/// [`Namer::c_term`]'s result.
pub fn c_uri(dict: &Dictionary, classes: &[TermId]) -> String {
    assert!(!classes.is_empty(), "C(∅) must use fresh URIs, not c_uri");
    format!("{SUMMARY_NS}c?types={}", join_sorted(dict, classes))
}

/// A short human-readable label for a minted summary URI, for DOT export
/// and reports: keeps only the local names of the embedded URIs.
///
/// `urn:rdfsummary:n?in=…/reviewed|…/published&out=…/author` becomes
/// `N[in=published,reviewed][out=author]`; class-set nodes become
/// `C{Book}`; other URIs pass through unchanged.
pub fn display_label(uri: &str) -> String {
    fn locals(part: &str) -> String {
        let mut names: Vec<&str> = part
            .split('|')
            .filter(|s| !s.is_empty())
            .map(|u| {
                u.rsplit(['/', '#', ':'])
                    .next()
                    .filter(|s| !s.is_empty())
                    .unwrap_or(u)
            })
            .collect();
        names.sort_unstable();
        names.join(",")
    }
    if uri == n_tau_uri() {
        return "Nτ".to_string();
    }
    if let Some(rest) = uri.strip_prefix(&format!("{SUMMARY_NS}n?in=")) {
        if let Some((inp, outp)) = rest.split_once("&out=") {
            let mut s = String::from("N");
            if !inp.is_empty() {
                s.push_str(&format!("[in={}]", locals(inp)));
            }
            if !outp.is_empty() {
                s.push_str(&format!("[out={}]", locals(outp)));
            }
            return s;
        }
    }
    if let Some(rest) = uri.strip_prefix(&format!("{SUMMARY_NS}c?types=")) {
        return format!("C{{{}}}", locals(rest));
    }
    uri.to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdf_model::TermRef;

    fn dict_with(uris: &[&str]) -> (Dictionary, Vec<TermId>) {
        let mut d = Dictionary::new();
        let ids = uris.iter().map(|u| d.encode(Term::iri(*u))).collect();
        (d, ids)
    }

    #[test]
    fn n_is_order_insensitive() {
        let (d, ids) = dict_with(&["http://x/a", "http://x/b"]);
        let u1 = n_uri(&d, &[], &[ids[0], ids[1]]);
        let u2 = n_uri(&d, &[], &[ids[1], ids[0]]);
        assert_eq!(u1, u2);
    }

    #[test]
    fn n_distinguishes_sides() {
        let (d, ids) = dict_with(&["http://x/a"]);
        assert_ne!(n_uri(&d, &[ids[0]], &[]), n_uri(&d, &[], &[ids[0]]));
    }

    #[test]
    fn n_empty_is_ntau() {
        let (d, _) = dict_with(&[]);
        assert_eq!(n_uri(&d, &[], &[]), n_tau_uri());
    }

    #[test]
    fn n_injective_on_distinct_sets() {
        let (d, ids) = dict_with(&["http://x/a", "http://x/b", "http://x/c"]);
        let u1 = n_uri(&d, &[ids[0]], &[ids[1]]);
        let u2 = n_uri(&d, &[ids[0]], &[ids[2]]);
        let u3 = n_uri(&d, &[ids[0]], &[ids[1], ids[2]]);
        assert_ne!(u1, u2);
        assert_ne!(u1, u3);
        assert_ne!(u2, u3);
    }

    #[test]
    fn c_uri_deterministic() {
        let (d, ids) = dict_with(&["http://x/Book", "http://x/Spec"]);
        assert_eq!(c_uri(&d, &[ids[0], ids[1]]), c_uri(&d, &[ids[1], ids[0]]));
    }

    #[test]
    #[should_panic(expected = "C(∅)")]
    fn c_uri_rejects_empty() {
        let (d, _) = dict_with(&[]);
        c_uri(&d, &[]);
    }

    /// The symbolic terms render byte-identically to the eager strings, on
    /// every input shape (the seam the golden-equivalence suite relies on).
    #[test]
    fn symbolic_rendering_matches_eager_strings() {
        let (d, ids) = dict_with(&["http://x/b", "http://x/a", "http://x/c"]);
        let cases: &[(&[TermId], &[TermId])] = &[
            (&[], &[]),
            (&[ids[0]], &[]),
            (&[], &[ids[1]]),
            (&[ids[0], ids[1]], &[ids[2]]),
            (&[ids[2], ids[0], ids[1]], &[ids[1], ids[0]]),
        ];
        let mut namer = Namer::new(&d);
        for (tc, sc) in cases {
            let term = namer.n_term(tc, sc);
            assert_eq!(term.as_iri().unwrap(), n_uri(&d, tc, sc));
        }
        let term = namer.c_term(&[ids[1], ids[0]]);
        assert_eq!(term.as_iri().unwrap(), c_uri(&d, &[ids[0], ids[1]]));
    }

    /// The minted-key hot-path seam: constructing, hashing, and interning
    /// a symbolic term must not render (= allocate) its URI string.
    #[test]
    fn minting_does_not_render() {
        let (d, ids) = dict_with(&["http://x/a", "http://x/b"]);
        let mut namer = Namer::new(&d);
        let term = namer.n_term(&[ids[0]], &[ids[1]]);
        // A member names one shared string however many keys hold it.
        let again = namer.n_term(&[ids[1]], &[ids[0]]);
        let members = |t: &Term| match t {
            Term::Minted(m) => m.key().members().0[0].clone(),
            _ => panic!("minted term expected"),
        };
        assert!(Arc::ptr_eq(
            &members(&term),
            &members(&namer.c_term(&[ids[0]]))
        ));
        assert_ne!(term, again);
        let mut h = Dictionary::new();
        let id = h.encode(term.clone());
        assert_eq!(h.lookup(&term), Some(id));
        let TermRef::Minted(m) = h.decode(id) else {
            panic!("minted term expected");
        };
        assert!(
            !m.is_rendered(),
            "dictionary interning must not render the minted URI"
        );
        // Serialization renders on demand…
        assert_eq!(
            h.decode(id).as_iri().unwrap(),
            n_uri(&d, &[ids[0]], &[ids[1]])
        );
        // …and the cache sticks.
        let TermRef::Minted(m) = h.decode(id) else {
            panic!("minted term expected");
        };
        assert!(m.is_rendered());
    }

    #[test]
    fn labels_are_compact() {
        let (d, ids) = dict_with(&["http://x/reviewed", "http://x/published", "http://x/author"]);
        let uri = n_uri(&d, &[ids[0], ids[1]], &[ids[2]]);
        assert_eq!(display_label(&uri), "N[in=published,reviewed][out=author]");
        assert_eq!(display_label(n_tau_uri()), "Nτ");
        let c = c_uri(&d, &[ids[2]]);
        assert_eq!(display_label(&c), "C{author}");
        assert_eq!(display_label("http://plain/uri"), "http://plain/uri");
    }

    #[test]
    fn duplicate_inputs_collapse() {
        let (d, ids) = dict_with(&["http://x/a"]);
        let u1 = n_uri(&d, &[], &[ids[0], ids[0]]);
        let u2 = n_uri(&d, &[], &[ids[0]]);
        assert_eq!(u1, u2);
    }
}
