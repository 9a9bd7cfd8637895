//! Source and target property cliques — Definition 5 of the paper.
//!
//! Two data properties are *source-related* iff a resource has both, or
//! transitively through a third property; *target-related* symmetrically on
//! property values. The maximal sets of pairwise source-related
//! (target-related) properties are the **source (target) cliques**, which
//! partition the data properties of G. Every resource's data properties all
//! lie in one source clique `SC(r)`; all properties it is a value of lie in
//! one target clique `TC(r)`.
//!
//! Computation is a union–find over the dense property numbering, fed by
//! the one sweep of a [`crate::context::Substrate`]: every data triple
//! unions its property with the first one seen leaving its subject
//! (entering its object). This is exactly the effect the paper's
//! streaming `MERGEDATANODES` achieves ("merging data nodes that are
//! attached to common properties gradually builds property cliques"), and
//! like it, resumable. All per-node and per-property assignments are
//! stored in `Vec`-indexed arrays keyed by the dictionary id — dictionary
//! ids are dense, so a lookup is one array read, never a hash.
//!
//! The [`CliqueScope`] selects which co-occurrences *generate* relatedness:
//!
//! * [`CliqueScope::AllNodes`] — Definition 5 verbatim (weak/strong
//!   summaries);
//! * [`CliqueScope::UntypedOnly`] — only untyped resources generate
//!   relatedness; used by the typed summaries, where "only untyped data
//!   nodes may be merged" (§6.1, footnote 3). Of the readings of
//!   Definition 13, it is the only one that reproduces Figure 7 (see
//!   [`crate::typed`]).

use crate::unionfind::UnionFind;
use rdf_model::{Graph, TermId, NO_DENSE_ID};

/// Which resources generate property relatedness.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum CliqueScope {
    /// All data nodes (Definition 5; weak and strong summaries).
    #[default]
    AllNodes,
    /// Only untyped data nodes (typed-weak / typed-strong summaries).
    UntypedOnly,
}

/// A clique id: an index into [`Cliques::source_cliques`] or
/// [`Cliques::target_cliques`].
pub type CliqueId = usize;

/// The source/target clique structure of a graph.
///
/// Node and property assignments are flat `Vec<u32>` tables indexed by the
/// (dense) dictionary id, with [`NO_DENSE_ID`] for "no clique" — the
/// dense-pipeline replacement for the hash maps the original implementation
/// carried.
#[derive(Clone, Debug)]
pub struct Cliques {
    /// Members of each source clique, sorted.
    pub source_cliques: Vec<Vec<TermId>>,
    /// Members of each target clique, sorted.
    pub target_cliques: Vec<Vec<TermId>>,
    /// Term-indexed: property → its source clique.
    source_of_property: Vec<u32>,
    /// Term-indexed: property → its target clique.
    target_of_property: Vec<u32>,
    /// Term-indexed: `SC(r)` for nodes with ≥1 outgoing data property
    /// counted by the scope (the paper's `sToSc`).
    subject_clique: Vec<u32>,
    /// Term-indexed: `TC(r)` (the paper's `oToTc`).
    object_clique: Vec<u32>,
}

impl Cliques {
    /// Computes the cliques of `g` under the given scope.
    ///
    /// This is a convenience wrapper that scans a throwaway
    /// [`crate::context::Substrate`]; callers that need cliques for
    /// several scopes — or cliques *and* summaries — should build one
    /// context and use [`crate::context::SummaryContext::cliques`].
    ///
    /// # Examples
    ///
    /// ```
    /// use rdfsum_core::{CliqueScope, Cliques};
    ///
    /// let g = rdfsum_core::fixtures::sample_graph();
    /// let cq = Cliques::compute(&g, CliqueScope::AllNodes);
    /// // Table 1 of the paper: three source cliques, five target cliques.
    /// assert_eq!(cq.source_cliques.len(), 3);
    /// assert_eq!(cq.target_cliques.len(), 5);
    /// ```
    pub fn compute(g: &Graph, scope: CliqueScope) -> Self {
        crate::context::Substrate::scan(g).cliques(scope)
    }

    /// Assembles a `Cliques` from the scan products: the dense property
    /// numbering, the two union–finds, and term-indexed arrays holding each
    /// node's *representative property* (the first dense property id seen
    /// for it), which this function resolves to clique ids.
    pub(crate) fn from_parts(
        props: &[TermId],
        mut src_uf: UnionFind,
        mut tgt_uf: UnionFind,
        mut subject_repr: Vec<u32>,
        mut object_repr: Vec<u32>,
    ) -> Self {
        let (src_assign, n_src) = src_uf.dense_components();
        let (tgt_assign, n_tgt) = tgt_uf.dense_components();
        let n_terms = subject_repr.len();
        let mut source_cliques: Vec<Vec<TermId>> = vec![Vec::new(); n_src];
        let mut target_cliques: Vec<Vec<TermId>> = vec![Vec::new(); n_tgt];
        let mut source_of_property = vec![NO_DENSE_ID; n_terms];
        let mut target_of_property = vec![NO_DENSE_ID; n_terms];
        for (i, &p) in props.iter().enumerate() {
            source_cliques[src_assign[i]].push(p);
            target_cliques[tgt_assign[i]].push(p);
            source_of_property[p.index()] = src_assign[i] as u32;
            target_of_property[p.index()] = tgt_assign[i] as u32;
        }
        for c in source_cliques.iter_mut().chain(target_cliques.iter_mut()) {
            c.sort_unstable();
        }
        // Resolve representative properties to clique ids in place.
        for slot in subject_repr.iter_mut() {
            if *slot != NO_DENSE_ID {
                *slot = src_assign[*slot as usize] as u32;
            }
        }
        for slot in object_repr.iter_mut() {
            if *slot != NO_DENSE_ID {
                *slot = tgt_assign[*slot as usize] as u32;
            }
        }
        Cliques {
            source_cliques,
            target_cliques,
            source_of_property,
            target_of_property,
            subject_clique: subject_repr,
            object_clique: object_repr,
        }
    }

    #[inline]
    fn slot(table: &[u32], id: TermId) -> Option<CliqueId> {
        match table.get(id.index()) {
            Some(&c) if c != NO_DENSE_ID => Some(c as CliqueId),
            _ => None,
        }
    }

    /// `SC(r)` — the source clique of node `r`, `None` for ∅.
    #[inline]
    pub fn sc(&self, node: TermId) -> Option<CliqueId> {
        Self::slot(&self.subject_clique, node)
    }

    /// `TC(r)` — the target clique of node `r`, `None` for ∅.
    #[inline]
    pub fn tc(&self, node: TermId) -> Option<CliqueId> {
        Self::slot(&self.object_clique, node)
    }

    /// The source clique of data property `p`, `None` if `p` is not a data
    /// property of the graph.
    #[inline]
    pub fn source_clique_of(&self, p: TermId) -> Option<CliqueId> {
        Self::slot(&self.source_of_property, p)
    }

    /// The target clique of data property `p`.
    #[inline]
    pub fn target_clique_of(&self, p: TermId) -> Option<CliqueId> {
        Self::slot(&self.target_of_property, p)
    }

    /// The members of source clique `id`, sorted by term id.
    pub fn source_members(&self, id: CliqueId) -> &[TermId] {
        &self.source_cliques[id]
    }

    /// The members of target clique `id`, sorted by term id.
    pub fn target_members(&self, id: CliqueId) -> &[TermId] {
        &self.target_cliques[id]
    }

    /// Verifies that the cliques partition the data properties (a theorem
    /// in the paper; an invariant check here). Used by tests.
    pub fn check_partition_invariant(&self, g: &Graph) -> bool {
        let props = g.data_properties();
        let covered_src: usize = self.source_cliques.iter().map(Vec::len).sum();
        let covered_tgt: usize = self.target_cliques.iter().map(Vec::len).sum();
        covered_src == props.len()
            && covered_tgt == props.len()
            && props
                .iter()
                .all(|&p| self.source_clique_of(p).is_some() && self.target_clique_of(p).is_some())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{exid, sample_graph};

    /// Decodes a clique into a sorted list of property local names.
    fn names(g: &Graph, members: &[TermId]) -> Vec<String> {
        let mut v: Vec<String> = members
            .iter()
            .map(|&p| {
                let iri = g.dict().decode(p).as_iri().unwrap();
                iri.rsplit('/').next().unwrap().to_string()
            })
            .collect();
        v.sort();
        v
    }

    /// Table 1 of the paper: the cliques of the Figure 2 graph.
    #[test]
    fn table1_source_cliques() {
        let g = sample_graph();
        let cq = Cliques::compute(&g, CliqueScope::AllNodes);
        assert_eq!(cq.source_cliques.len(), 3);
        let mut all: Vec<Vec<String>> = cq.source_cliques.iter().map(|c| names(&g, c)).collect();
        all.sort();
        assert_eq!(
            all,
            vec![
                vec!["author", "comment", "editor", "title"], // SC1
                vec!["published"],                            // SC3
                vec!["reviewed"],                             // SC2
            ]
        );
    }

    #[test]
    fn table1_target_cliques() {
        let g = sample_graph();
        let cq = Cliques::compute(&g, CliqueScope::AllNodes);
        assert_eq!(cq.target_cliques.len(), 5);
        let mut all: Vec<Vec<String>> = cq.target_cliques.iter().map(|c| names(&g, c)).collect();
        all.sort();
        assert_eq!(
            all,
            vec![
                vec!["author"],
                vec!["comment"],
                vec!["editor"],
                vec!["published", "reviewed"], // TC5
                vec!["title"],
            ]
        );
    }

    /// Table 1's per-resource rows.
    #[test]
    fn table1_per_resource_cliques() {
        let g = sample_graph();
        let cq = Cliques::compute(&g, CliqueScope::AllNodes);
        // r1..r5 share SC1; r6 has none.
        let sc_r1 = cq.sc(exid(&g, "r1")).unwrap();
        for r in ["r2", "r3", "r4", "r5"] {
            assert_eq!(cq.sc(exid(&g, r)), Some(sc_r1), "{r}");
        }
        assert_eq!(cq.sc(exid(&g, "r6")), None);
        // TC(r4) = TC5 = {reviewed, published}; other r's have ∅.
        let tc_r4 = cq.tc(exid(&g, "r4")).unwrap();
        assert_eq!(
            names(&g, cq.target_members(tc_r4)),
            vec!["published", "reviewed"]
        );
        for r in ["r1", "r2", "r3", "r5", "r6"] {
            assert_eq!(cq.tc(exid(&g, r)), None, "{r}");
        }
        // a1: SC2 = {reviewed}, TC1 = {author}.
        let a1 = exid(&g, "a1");
        assert_eq!(
            names(&g, cq.source_members(cq.sc(a1).unwrap())),
            vec!["reviewed"]
        );
        assert_eq!(
            names(&g, cq.target_members(cq.tc(a1).unwrap())),
            vec!["author"]
        );
        // e1: SC3 = {published}, TC3 = {editor}.
        let e1 = exid(&g, "e1");
        assert_eq!(
            names(&g, cq.source_members(cq.sc(e1).unwrap())),
            vec!["published"]
        );
        assert_eq!(
            names(&g, cq.target_members(cq.tc(e1).unwrap())),
            vec!["editor"]
        );
        // t1, t2 share TC2 = {title} and have no source clique.
        let t1 = exid(&g, "t1");
        let t2 = exid(&g, "t2");
        assert_eq!(cq.tc(t1), cq.tc(t2));
        assert_eq!(cq.sc(t1), None);
        // a1 and a2 share TC1.
        assert_eq!(cq.tc(a1), cq.tc(exid(&g, "a2")));
        // e1 and e2 share TC3.
        assert_eq!(cq.tc(e1), cq.tc(exid(&g, "e2")));
        // c1: TC4 = {comment}, no source.
        let c1 = exid(&g, "c1");
        assert_eq!(
            names(&g, cq.target_members(cq.tc(c1).unwrap())),
            vec!["comment"]
        );
        assert_eq!(cq.sc(c1), None);
    }

    #[test]
    fn cliques_partition_properties() {
        let g = sample_graph();
        let cq = Cliques::compute(&g, CliqueScope::AllNodes);
        assert!(cq.check_partition_invariant(&g));
    }

    /// Property → clique lookups are consistent with the member lists.
    #[test]
    fn property_lookup_matches_membership() {
        let g = sample_graph();
        let cq = Cliques::compute(&g, CliqueScope::AllNodes);
        for &p in &g.data_properties() {
            let sc = cq.source_clique_of(p).unwrap();
            assert!(cq.source_members(sc).contains(&p));
            let tc = cq.target_clique_of(p).unwrap();
            assert!(cq.target_members(tc).contains(&p));
        }
        // A non-property term has no clique; so does an out-of-range id.
        assert_eq!(cq.source_clique_of(exid(&g, "r1")), None);
        assert_eq!(cq.source_clique_of(TermId(u32::MAX - 1)), None);
    }

    /// Under the untyped-only scope of the sample graph, typed resources
    /// (r1, r2, r5) no longer fuse {author,title} with {editor} — the
    /// untyped co-occurrences give cliques {author,title} (r4),
    /// {editor,comment} (r3), {reviewed} (a1), {published} (e1).
    #[test]
    fn untyped_scope_splits_sc1() {
        let g = sample_graph();
        let cq = Cliques::compute(&g, CliqueScope::UntypedOnly);
        let mut all: Vec<Vec<String>> = cq
            .source_cliques
            .iter()
            .filter(|c| {
                // Keep only cliques actually anchored by some node.
                !c.is_empty()
            })
            .map(|c| names(&g, c))
            .collect();
        all.sort();
        assert_eq!(
            all,
            vec![
                vec!["author", "title"],
                vec!["comment", "editor"],
                vec!["published"],
                vec!["reviewed"],
            ]
        );
        // Typed nodes have no clique assignment in this scope.
        assert_eq!(cq.sc(exid(&g, "r1")), None);
        assert!(cq.sc(exid(&g, "r3")).is_some());
    }

    #[test]
    fn empty_graph_has_no_cliques() {
        let g = Graph::new();
        let cq = Cliques::compute(&g, CliqueScope::AllNodes);
        assert!(cq.source_cliques.is_empty());
        assert!(cq.target_cliques.is_empty());
        assert!(cq.check_partition_invariant(&g));
    }

    #[test]
    fn single_triple() {
        let mut g = Graph::new();
        g.add_iri_triple("s", "p", "o");
        let cq = Cliques::compute(&g, CliqueScope::AllNodes);
        assert_eq!(cq.source_cliques.len(), 1);
        assert_eq!(cq.target_cliques.len(), 1);
        let s = g.dict().lookup(&rdf_model::Term::iri("s")).unwrap();
        let o = g.dict().lookup(&rdf_model::Term::iri("o")).unwrap();
        assert_eq!(cq.sc(s), Some(0));
        assert_eq!(cq.tc(o), Some(0));
        assert_eq!(cq.sc(o), None);
        assert_eq!(cq.tc(s), None);
    }
}
