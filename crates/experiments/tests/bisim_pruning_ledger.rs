//! The pruning ledger of the bisimulation baseline (§8) against the five
//! served quotient kinds, by the query work a summary saves: sampled RBGP
//! walks, each turned into one-constant mutants that have no answer on
//! G, go through `empty_on_summary` on every kind's H.
//!
//! * On BSBM and LUBM, every empty mutant the depth-2 bisimulation (`FB`)
//!   prunes, one of W, S, TW, TS or T prunes too.
//! * On random graphs `FB` prunes mutants the five miss — but there its H
//!   has exactly as many triples as G: pruning on it is answering the
//!   query on a copy of G.
//! * No kind prunes a mutant that has an answer on G.

use rdf_model::{vocab, FxHashSet, Graph, SplitMix64, Term, TermId};
use rdf_query::{
    compile, empty_on_summary, sample_rbgp_queries, Evaluator, QuerySpec, SpecTerm, WorkloadConfig,
};
use rdf_store::TripleStore;
use rdfsum_core::{SummaryContext, SummaryKind};
use rdfsum_experiments::{bisim_summary, BisimDepth};
use rdfsum_workloads::{BsbmConfig, LubmConfig, RandomConfig};

/// Walks sampled per pattern count (2, 3 and 4 patterns).
const WALKS: usize = 34;
/// One-constant mutants drawn per walk.
const MUTANTS: usize = 3;

/// What the mutants of one graph's walks came to.
struct Ledger {
    /// |G| in triples.
    g_triples: usize,
    /// |H| of the depth-2 bisimulation, in triples.
    fb_triples: usize,
    /// Mutants with no answer on G.
    empty: usize,
    /// Empty mutants pruned, per kind of [`SummaryKind::EVERY`].
    pruned: [usize; 5],
    /// Empty mutants `FB` pruned.
    fb_pruned: usize,
    /// Empty mutants `FB` pruned and none of the five did.
    fb_only: usize,
}

/// The sorted distinct ids `of` picks from `rows`, as terms.
fn vocabulary(
    g: &Graph,
    rows: &[rdf_model::Triple],
    of: fn(&rdf_model::Triple) -> TermId,
) -> Vec<Term> {
    let ids: FxHashSet<TermId> = rows.iter().map(of).collect();
    let mut ids: Vec<TermId> = ids.into_iter().collect();
    ids.sort_unstable();
    ids.into_iter()
        .map(|id| g.dict().decode(id).to_term())
        .collect()
}

/// `walk` with one constant swapped for another from G's vocabulary: the
/// class of a τ pattern, or the property of any other pattern.
fn mutant(
    walk: &QuerySpec,
    rng: &mut SplitMix64,
    properties: &[Term],
    classes: &[Term],
) -> Option<QuerySpec> {
    let mut out = walk.clone();
    let pattern = &mut out.body[rng.index(walk.body.len())];
    let tau = Term::iri(vocab::RDF_TYPE);
    let (slot, from) = match &pattern.p {
        SpecTerm::Const(p) if *p == tau => (&mut pattern.o, classes),
        SpecTerm::Const(_) => (&mut pattern.p, properties),
        SpecTerm::Var(_) => return None,
    };
    let SpecTerm::Const(old) = slot else {
        return None;
    };
    let others: Vec<&Term> = from.iter().filter(|t| *t != old).collect();
    if others.is_empty() {
        return None;
    }
    *slot = SpecTerm::Const(others[rng.index(others.len())].clone());
    Some(out)
}

fn ledger(g: Graph) -> Ledger {
    let properties = vocabulary(&g, g.data(), |t| t.p);
    let classes = vocabulary(&g, g.types(), |t| t.o);
    let ctx = SummaryContext::new(&g);
    let served: Vec<TripleStore> = SummaryKind::EVERY
        .iter()
        .map(|&kind| TripleStore::new(ctx.summarize(kind).graph))
        .collect();
    let fb = TripleStore::new(bisim_summary(&g, BisimDepth::Bounded(2)).graph);
    drop(ctx);
    let store = TripleStore::new(g);
    let mut ledger = Ledger {
        g_triples: store.graph().len(),
        fb_triples: fb.graph().len(),
        empty: 0,
        pruned: [0; 5],
        fb_pruned: 0,
        fb_only: 0,
    };
    let mut rng = SplitMix64::new(46);
    for patterns in [2, 3, 4] {
        let config = WorkloadConfig {
            queries: WALKS,
            patterns_per_query: patterns,
            seed: 1,
            ..WorkloadConfig::default()
        };
        for walk in sample_rbgp_queries(&store, &config) {
            for _ in 0..MUTANTS {
                let Some(spec) = mutant(&walk, &mut rng, &properties, &classes) else {
                    continue;
                };
                let q = compile(&spec, store.graph()).unwrap();
                let answered = Evaluator::new(&store).ask(&q);
                let pruned: Vec<bool> = served.iter().map(|h| empty_on_summary(h, &spec)).collect();
                let fb_pruned = empty_on_summary(&fb, &spec);
                if answered {
                    assert!(!fb_pruned, "FB pruned `{spec}`, which has answers");
                    for (kind, pruned) in SummaryKind::EVERY.iter().zip(&pruned) {
                        assert!(!pruned, "{kind} pruned `{spec}`, which has answers");
                    }
                    continue;
                }
                ledger.empty += 1;
                for (count, &pruned) in ledger.pruned.iter_mut().zip(&pruned) {
                    *count += usize::from(pruned);
                }
                if fb_pruned {
                    ledger.fb_pruned += 1;
                    ledger.fb_only += usize::from(!pruned.contains(&true));
                }
            }
        }
    }
    ledger
}

/// The ledger on each family (run with `--nocapture` to see it); `FB`
/// prunes what the five miss exactly on the random graphs, where its H
/// is as large as G.
#[test]
fn bisimulation_prunes_nothing_the_served_kinds_miss_but_on_graphs_it_copies() {
    let families: [(&str, bool, Graph); 4] = [
        (
            "BSBM 200",
            false,
            rdfsum_workloads::generate_bsbm(&BsbmConfig::with_products(200)),
        ),
        (
            "LUBM 1",
            false,
            rdfsum_workloads::generate_lubm(&LubmConfig::with_universities(1)),
        ),
        (
            "random 400/7",
            true,
            rdfsum_workloads::random(&RandomConfig {
                nodes: 400,
                triples: 1_600,
                seed: 7,
                ..RandomConfig::default()
            }),
        ),
        (
            "random 1000/9",
            true,
            rdfsum_workloads::random(&RandomConfig {
                nodes: 1_000,
                triples: 3_500,
                seed: 9,
                ..RandomConfig::default()
            }),
        ),
    ];
    for (name, copied, g) in families {
        let l = ledger(g);
        println!(
            "{name}: |G| {}, |H_fb| {}, empty mutants {}, pruned by w/tw/s/ts/t {:?}, by fb {}, by fb only {}",
            l.g_triples, l.fb_triples, l.empty, l.pruned, l.fb_pruned, l.fb_only
        );
        assert!(l.empty > 0 && l.fb_pruned > 0, "{name}: nothing to compare");
        if copied {
            assert!(l.fb_only > 0, "{name}: FB prunes nothing the five miss");
            assert_eq!(l.fb_triples, l.g_triples, "{name}: |H_fb| is not |G|");
        } else {
            assert_eq!(l.fb_only, 0, "{name}: FB prunes what the five miss");
        }
    }
}
