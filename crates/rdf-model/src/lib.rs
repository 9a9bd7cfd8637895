//! # rdf-model
//!
//! The core RDF data model underlying the `rdfsummary` workspace, a Rust
//! reproduction of *“Query-Oriented Summarization of RDF Graphs”* (Čebirić,
//! Goasdoué, Manolescu).
//!
//! Provides:
//!
//! * [`Term`] — IRIs, literals, blank nodes (RDF 1.1 abstract syntax) — and
//!   [`TermRef`], its borrowed view with the same identity;
//! * [`Dictionary`] — dense integer encoding of terms ([`TermId`]), mirroring
//!   the paper's Postgres dictionary table;
//! * [`Triple`] — a 12-byte encoded triple — and [`sorted_dedup`], the
//!   counting sort every index build and every proof of distinctness runs;
//! * [`Graph`] — a triple set partitioned into `⟨D_G, S_G, T_G⟩` (data /
//!   schema / type components, §2.1 of the paper) — and [`UnprovedRows`],
//!   what a bulk reader fills before a sort has proved it a set;
//! * [`MintedTerm`] — symbolic summary-node URIs (interned property/class
//!   set keys, lazily rendered) backing the representation functions `N`
//!   and `C`;
//! * [`GraphStats`] — the paper's size/cardinality notations;
//! * [`PrefixMap`] — namespace handling for display;
//! * fast hash maps ([`FxHashMap`]/[`FxHashSet`]) tuned for integer keys.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dictionary;
pub mod error;
pub mod graph;
pub mod hash;
pub mod ids;
pub mod minted;
pub mod namespaces;
pub mod profile;
pub mod rng;
pub mod stats;
pub mod term;
pub mod triple;
pub mod vocab;

pub use dictionary::Dictionary;
pub use error::ModelError;
pub use graph::{
    check_triple, check_triple_ref, Component, Graph, Repeated, UnprovedRows, WellKnown,
};
pub use hash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use ids::{DenseIdMap, TermId, NO_DENSE_ID};
pub use minted::{MemberSet, MintedKey, MintedTerm, N_TAU_URI, SUMMARY_NS};
pub use namespaces::PrefixMap;
pub use profile::{Profile, PropertyUsage};
pub use rng::SplitMix64;
pub use stats::{distinct_counts, distinct_counts_dense, DistinctCounts, GraphStats};
pub use term::{LiteralKind, LiteralKindRef, Term, TermRef};
pub use triple::{sorted_dedup, Order, Triple, SPARSE_IDS};

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_term() -> impl Strategy<Value = Term> {
        prop_oneof![
            "[a-z]{1,8}".prop_map(|s| Term::iri(format!("http://x/{s}"))),
            "[a-z]{1,8}".prop_map(Term::blank),
            "[a-zA-Z0-9 ]{0,12}".prop_map(Term::literal),
            ("[a-zA-Z0-9 ]{0,12}", "[a-z]{2}").prop_map(|(l, t)| Term::lang_literal(l, t)),
        ]
    }

    proptest! {
        /// Dictionary encode/decode is a bijection on the interned set.
        #[test]
        fn dictionary_roundtrip(terms in proptest::collection::vec(arb_term(), 0..64)) {
            let mut d = Dictionary::new();
            let ids: Vec<_> = terms.iter().cloned().map(|t| d.encode(t)).collect();
            for (t, id) in terms.iter().zip(&ids) {
                prop_assert_eq!(d.decode(*id), t.as_term_ref());
                prop_assert_eq!(d.lookup(t), Some(*id));
            }
            // Distinct terms get distinct ids.
            let distinct: std::collections::BTreeSet<_> = terms.iter().collect();
            let distinct_ids: std::collections::BTreeSet<_> = ids.iter().collect();
            prop_assert_eq!(distinct.len(), distinct_ids.len());
            prop_assert_eq!(d.len(), distinct.len());
        }

        /// Graph insertion is idempotent and component counts always sum to len.
        #[test]
        fn graph_set_semantics(
            triples in proptest::collection::vec(
                ("[a-d]", "[p-r]", "[a-d]"), 0..64
            )
        ) {
            let mut g = Graph::new();
            let mut reference = std::collections::BTreeSet::new();
            for (s, p, o) in &triples {
                g.add_iri_triple(s, p, o);
                reference.insert((s.clone(), p.clone(), o.clone()));
            }
            prop_assert_eq!(g.len(), reference.len());
            prop_assert_eq!(
                g.data().len() + g.types().len() + g.schema().len(),
                g.len()
            );
            // Re-inserting everything changes nothing.
            for (s, p, o) in &triples {
                g.add_iri_triple(s, p, o);
            }
            prop_assert_eq!(g.len(), reference.len());
        }
    }
}
