//! Incremental weak summarization: maintaining `W_G` under triple
//! insertions without rebuilding.
//!
//! Everything the weak summary is assembled from — first-seen numberings
//! of properties and nodes, each node's first property, the two clique
//! union–finds — is insertion-order-stable: appended triples land at the
//! end of their component tables. That makes it a natural *online*
//! maintenance structure. [`WeakDelta`] is the serving layer's patch
//! state: it keeps those products for a graph owned elsewhere (a
//! [`rdf_store::TripleStore`]), advances them in O(1) per inserted triple,
//! and materializes summaries **byte-identical** to a from-scratch
//! rebuild — so a cached summary can be patched in place of rebuilding
//! without disturbing content-addressed caching.
//!
//! Deletions are *not* supported: quotient summaries are not decremental
//! (removing a triple can split cliques, which union–find cannot undo).
//! Deletions invalidate the state (drop it and rebuild — still cheap, as
//! summarization is linear).

use crate::cliques::Cliques;
use crate::summary::Summary;
use crate::unionfind::UnionFind;
use rdf_model::{Component, DenseIdMap, Graph, Triple, NO_DENSE_ID};

/// Patchable weak-summary state: the products a
/// [`crate::context::SummaryContext`] hands its weak build, kept alive so
/// that an insert batch advances them in O(batch) instead of O(graph).
///
/// Byte-identity argument: `weak_summary` derives everything from (a) the
/// data properties in first-seen D_G order, (b) the data nodes in first-seen
/// D_G order plus typed subjects in T_G order, (c) per-node representative
/// properties (the first entry of the node's CSR row is the property of
/// its first triple in D_G order), and (d) the two clique union–finds.
/// Appended triples land at the *end* of their component tables, so
/// arrival order equals scan order for all four; and
/// [`UnionFind::dense_components`] numbers cliques by first member, which
/// is insensitive to the union sequence. Running the per-triple step below
/// on each applied insert therefore reproduces, exactly, what a fresh
/// context of the mutated graph would compute — and [`WeakDelta::summary`]
/// feeds it through the same [`Cliques::from_parts`] → `build_weak`
/// assembly as the batch path.
#[derive(Clone, Debug)]
pub struct WeakDelta {
    /// Data properties, first-seen over D_G.
    prop_map: DenseIdMap,
    /// Data nodes (subjects and objects of D_G), first-seen.
    data_nodes: DenseIdMap,
    /// Subjects of type triples, in T_G order.
    typed_subjects: DenseIdMap,
    /// Source/target clique union–finds over dense property ids.
    src_uf: UnionFind,
    tgt_uf: UnionFind,
    /// Term-indexed representative property (first dense prop id seen).
    subj_repr: Vec<u32>,
    obj_repr: Vec<u32>,
}

impl WeakDelta {
    /// Builds the state from an existing graph — one O(|G|) scan.
    pub fn from_graph(g: &Graph) -> Self {
        let n_terms = g.dict().len();
        let mut delta = WeakDelta {
            prop_map: DenseIdMap::with_capacity(n_terms),
            data_nodes: DenseIdMap::with_capacity(n_terms),
            typed_subjects: DenseIdMap::with_capacity(n_terms),
            src_uf: UnionFind::new(0),
            tgt_uf: UnionFind::new(0),
            subj_repr: vec![NO_DENSE_ID; n_terms],
            obj_repr: vec![NO_DENSE_ID; n_terms],
        };
        for &t in g.data() {
            delta.apply_data(t);
        }
        for &t in g.types() {
            delta.typed_subjects.intern(t.s);
        }
        delta
    }

    /// Advances the state over a batch of triples that were *genuinely
    /// inserted* into `g` (duplicates already excluded — feed it
    /// `BatchOutcome::applied`). O(batch) amortized. `g` must already hold
    /// the batch.
    pub fn apply_inserts(&mut self, g: &Graph, applied: &[Triple]) {
        self.grow(g.dict().len());
        for &t in applied {
            match g.component_of(t) {
                Component::Data => self.apply_data(t),
                Component::Type => {
                    self.typed_subjects.intern(t.s);
                }
                // Schema triples are copied verbatim from `g` at
                // materialization; no scan state to maintain.
                Component::Schema => {}
            }
        }
    }

    fn grow(&mut self, n_terms: usize) {
        self.prop_map.grow(n_terms);
        self.data_nodes.grow(n_terms);
        self.typed_subjects.grow(n_terms);
        if n_terms > self.subj_repr.len() {
            self.subj_repr.resize(n_terms, NO_DENSE_ID);
            self.obj_repr.resize(n_terms, NO_DENSE_ID);
        }
    }

    /// One data-triple scan step (first-seen order over D_G is preserved
    /// because inserts append to D_G).
    fn apply_data(&mut self, t: Triple) {
        let pi = self.prop_map.intern(t.p);
        if pi as usize == self.src_uf.len() {
            self.src_uf.push();
            self.tgt_uf.push();
        }
        self.data_nodes.intern(t.s);
        self.data_nodes.intern(t.o);
        let slot = &mut self.subj_repr[t.s.index()];
        if *slot == NO_DENSE_ID {
            *slot = pi;
        } else {
            self.src_uf.union(pi as usize, *slot as usize);
        }
        let slot = &mut self.obj_repr[t.o.index()];
        if *slot == NO_DENSE_ID {
            *slot = pi;
        } else {
            self.tgt_uf.union(pi as usize, *slot as usize);
        }
    }

    /// Materializes the weak summary of `g` from the maintained state —
    /// byte-identical to `weak_summary(g)` (asserted by the patched-vs-
    /// rebuilt test suite). `g` must be the graph the state has tracked.
    pub fn summary(&self, g: &Graph) -> Summary {
        let mut state = self.clone();
        state.grow(g.dict().len());
        let WeakDelta {
            prop_map,
            mut data_nodes,
            typed_subjects,
            src_uf,
            tgt_uf,
            subj_repr,
            obj_repr,
        } = state;
        let (_, props) = prop_map.into_parts();
        // Node numbering: data nodes first, then typed-only subjects — the
        // order a context's node map accumulates them.
        for &s in typed_subjects.items() {
            data_nodes.intern(s);
        }
        let cliques = Cliques::from_parts(&props, src_uf, tgt_uf, subj_repr, obj_repr);
        crate::weak::build_weak(g, &cliques, data_nodes.items(), &props, false, 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::sample_graph;
    use crate::weak::weak_summary;
    use rdf_io::write_graph;
    use rdf_model::Term;

    /// [`WeakDelta`] materializations are byte-identical (not merely
    /// isomorphic) to a fresh `weak_summary` of the same graph, at every
    /// prefix of the insert stream — the property the serving layer's
    /// summary-patching rests on.
    #[test]
    fn weak_delta_is_byte_identical_at_every_prefix() {
        let g = sample_graph();
        let triples: Vec<(Term, Term, Term)> = g
            .iter()
            .map(|t| {
                (
                    g.dict().decode(t.s).to_term(),
                    g.dict().decode(t.p).to_term(),
                    g.dict().decode(t.o).to_term(),
                )
            })
            .collect();
        let mut live = Graph::new();
        let mut delta = WeakDelta::from_graph(&live);
        for (s, p, o) in triples {
            let before = live.len();
            let (t, _) = live.insert(s, p, o).unwrap();
            if live.len() > before {
                delta.apply_inserts(&live, &[t]);
            }
            let patched = delta.summary(&live);
            let fresh = weak_summary(&live);
            assert_eq!(
                write_graph(&patched.graph),
                write_graph(&fresh.graph),
                "diverged at {} triples",
                live.len()
            );
        }
    }

    /// Batch application (several triples per `apply_inserts` call, mixed
    /// components, duplicates pre-filtered) also stays byte-identical, and
    /// `from_graph` on the final graph agrees with the maintained state.
    #[test]
    fn weak_delta_batched_matches_from_graph() {
        let g = crate::fixtures::figure5_graph();
        let triples: Vec<(Term, Term, Term)> = g
            .iter()
            .map(|t| {
                (
                    g.dict().decode(t.s).to_term(),
                    g.dict().decode(t.p).to_term(),
                    g.dict().decode(t.o).to_term(),
                )
            })
            .collect();
        let mut live = Graph::new();
        let mut delta = WeakDelta::from_graph(&live);
        for chunk in triples.chunks(3) {
            let mut applied = Vec::new();
            for (s, p, o) in chunk {
                let before = live.len();
                let (t, _) = live.insert(s.clone(), p.clone(), o.clone()).unwrap();
                if live.len() > before {
                    applied.push(t);
                }
            }
            delta.apply_inserts(&live, &applied);
        }
        let patched = delta.summary(&live);
        let fresh = weak_summary(&live);
        let rebuilt = WeakDelta::from_graph(&live).summary(&live);
        assert_eq!(write_graph(&patched.graph), write_graph(&fresh.graph));
        assert_eq!(write_graph(&rebuilt.graph), write_graph(&fresh.graph));
    }

    /// Typed-only subjects that later gain data properties keep the patched
    /// output byte-identical (the node-numbering tail is order-sensitive).
    #[test]
    fn weak_delta_typed_then_data_stays_identical() {
        let tau = Term::iri(rdf_model::vocab::RDF_TYPE);
        let mut live = Graph::new();
        let mut delta = WeakDelta::from_graph(&live);
        let steps: Vec<(Term, Term, Term)> = vec![
            (Term::iri("x"), tau.clone(), Term::iri("C")),
            (Term::iri("y"), tau.clone(), Term::iri("D")),
            (Term::iri("x"), Term::iri("p"), Term::iri("v")),
            (Term::iri("z"), Term::iri("p"), Term::iri("x")),
            (
                Term::iri("A"),
                Term::iri(rdf_model::vocab::RDFS_SUBCLASSOF),
                Term::iri("B"),
            ),
        ];
        for (s, p, o) in steps {
            let (t, _) = live.insert(s, p, o).unwrap();
            delta.apply_inserts(&live, &[t]);
            assert_eq!(
                write_graph(&delta.summary(&live).graph),
                write_graph(&weak_summary(&live).graph),
            );
        }
    }
}
