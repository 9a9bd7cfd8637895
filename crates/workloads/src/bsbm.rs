//! A deterministic BSBM-like dataset generator.
//!
//! The paper's evaluation (§7) summarizes Berlin SPARQL Benchmark (BSBM)
//! datasets of 10–100 M triples. The official BSBM generator is a Java
//! tool that is not part of this repository; in its place this module
//! reproduces the *schema structure* that drives summary sizes:
//!
//! * an e-commerce universe of products, producers, product features,
//!   vendors, offers, reviews and reviewers;
//! * a **product-type hierarchy** (`rdfs:subClassOf` tree) whose size grows
//!   with scale — the reason the paper's class-node counts grow from ~100
//!   to ~1300 across scales — with products typed by a leaf type *and all
//!   its ancestors* (resources "may have one or several types", §1);
//! * **heterogeneity**: optional textual/numeric product properties and
//!   optional review ratings, so resources of the same kind differ in
//!   their property sets — exactly what clique-based summaries tolerate;
//! * literal-heavy data (labels, comments, dates, prices), so the
//!   literal-dropping compactness of summaries shows.
//!
//! Determinism: everything derives from [`BsbmConfig::seed`] through
//! SplitMix64, so every run of a given config emits the identical graph.

use crate::words;
use rdf_model::{vocab, Graph, SplitMix64, Term};

/// BSBM-like namespaces.
pub const BSBM_NS: &str = "http://bsbm.example.org/vocabulary/";
/// Instance namespace.
pub const INST_NS: &str = "http://bsbm.example.org/instances/";
/// Purl `dc:` subset used by BSBM reviews.
pub const DC_NS: &str = "http://purl.org/dc/elements/1.1/";
/// `rev:` namespace used by BSBM reviews.
pub const REV_NS: &str = "http://purl.org/stuff/rev#";

/// How much RDFS schema to emit.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum SchemaRichness {
    /// Only the product-type `rdfs:subClassOf` hierarchy (matches the data
    /// BSBM ships; default).
    #[default]
    TypeHierarchy,
    /// Additionally: `≺sp` generalizations (ratings → rating, textual
    /// properties → textual) and domain/range constraints — exercising the
    /// saturation-related experiments.
    Full,
}

/// Generator configuration. The scale unit is the number of products,
/// as in BSBM; ~100 triples are emitted per product.
#[derive(Clone, Debug)]
pub struct BsbmConfig {
    /// Number of products (the BSBM scale factor).
    pub products: usize,
    /// RNG seed.
    pub seed: u64,
    /// Offers per product (BSBM default ratio scaled down).
    pub offers_per_product: usize,
    /// Reviews per product.
    pub reviews_per_product: usize,
    /// Schema richness.
    pub schema: SchemaRichness,
}

impl Default for BsbmConfig {
    fn default() -> Self {
        BsbmConfig {
            products: 100,
            seed: 0xB5B1,
            offers_per_product: 6,
            reviews_per_product: 4,
            schema: SchemaRichness::default(),
        }
    }
}

impl BsbmConfig {
    /// A config producing `products` products.
    pub fn with_products(products: usize) -> Self {
        BsbmConfig {
            products,
            ..Default::default()
        }
    }

    /// A config sized to roughly `triples` total triples.
    pub fn scaled_to_triples(triples: usize) -> Self {
        Self::with_products((triples / 100).max(1))
    }

    /// Number of product types in the hierarchy for this scale.
    ///
    /// The paper's BSBM runs show class-node counts growing roughly an
    /// order of magnitude (≈100 → ≈1300) across one order of magnitude of
    /// data growth; this power law reproduces that shape in our (smaller)
    /// sweep range: ≈13 types at 100 products up to ≈560 at 20 000.
    pub fn n_product_types(&self) -> usize {
        let n = self.products as f64;
        (n.powf(0.72) * 0.45).ceil().max(8.0) as usize
    }
}

/// The product-type tree: parent of each type (None for the root).
///
/// A uniform random recursive tree: expected depth is O(log n), matching
/// BSBM's shallow (few-level) hierarchies, so per-product ancestor chains
/// stay short even at large scales.
fn type_tree(n_types: usize, rng: &mut SplitMix64) -> Vec<Option<usize>> {
    let mut parent = vec![None];
    for i in 1..n_types {
        parent.push(Some(rng.index(i)));
    }
    parent
}

fn ancestors(parent: &[Option<usize>], mut t: usize) -> Vec<usize> {
    let mut out = vec![t];
    while let Some(p) = parent[t] {
        out.push(p);
        t = p;
    }
    out
}

struct Emit<'a> {
    g: &'a mut Graph,
}

impl<'a> Emit<'a> {
    fn iri3(&mut self, s: &str, p: &str, o: &str) {
        self.g.add_iri_triple(s, p, o);
    }

    fn lit(&mut self, s: &str, p: &str, lit: &str) {
        self.g.add_literal_triple(s, p, lit);
    }

    fn typed_lit(&mut self, s: &str, p: &str, lex: &str, dt: &str) {
        self.g
            .insert(Term::iri(s), Term::iri(p), Term::typed_literal(lex, dt))
            .expect("well-formed typed literal triple");
    }
}

/// Generates the dataset for `cfg`.
pub fn generate(cfg: &BsbmConfig) -> Graph {
    let mut g = Graph::with_capacity(cfg.products * 100);
    let mut rng = SplitMix64::new(cfg.seed);
    let v = |local: &str| format!("{BSBM_NS}{local}");
    let inst = |kind: &str, i: usize| format!("{INST_NS}{kind}{i}");
    let dc = |local: &str| format!("{DC_NS}{local}");
    let rev = |local: &str| format!("{REV_NS}{local}");

    let n_types = cfg.n_product_types();
    let parent = type_tree(n_types, &mut rng);
    let producers = cfg.products / 35 + 1;
    let features = cfg.products / 4 + 20;
    let vendors = cfg.products / 50 + 1;
    let n_reviews = cfg.products * cfg.reviews_per_product;
    let persons = n_reviews / 20 + 1;

    let mut e = Emit { g: &mut g };

    // ---- Schema: the product-type hierarchy ----
    for (i, p) in parent.iter().enumerate() {
        if let Some(p) = *p {
            e.iri3(
                &inst("ProductType", i),
                vocab::RDFS_SUBCLASSOF,
                &inst("ProductType", p),
            );
        }
    }
    if cfg.schema == SchemaRichness::Full {
        for i in 1..=4 {
            e.iri3(
                &v(&format!("rating{i}")),
                vocab::RDFS_SUBPROPERTYOF,
                &v("rating"),
            );
        }
        for i in 1..=3 {
            e.iri3(
                &v(&format!("productPropertyTextual{i}")),
                vocab::RDFS_SUBPROPERTYOF,
                &v("productPropertyTextual"),
            );
        }
        e.iri3(&v("producer"), vocab::RDFS_RANGE, &v("Producer"));
        e.iri3(&v("reviewFor"), vocab::RDFS_DOMAIN, &v("Review"));
        e.iri3(&v("vendor"), vocab::RDFS_RANGE, &v("Vendor"));
    }

    // ---- Producers ----
    for i in 0..producers {
        let s = inst("Producer", i);
        e.iri3(&s, vocab::RDF_TYPE, &v("Producer"));
        let lbl = words::label(&mut rng);
        e.lit(&s, vocab::RDFS_LABEL, &lbl);
        e.lit(&s, vocab::RDFS_COMMENT, &words::sentence(&mut rng, 8));
        e.lit(&s, &v("country"), words::WORDS[rng.index(20)]);
        e.lit(
            &s,
            &v("homepage"),
            &format!("http://producer{i}.example.org/"),
        );
    }

    // ---- Product features ----
    for i in 0..features {
        let s = inst("ProductFeature", i);
        e.iri3(&s, vocab::RDF_TYPE, &v("ProductFeature"));
        e.lit(&s, vocab::RDFS_LABEL, &words::label(&mut rng));
    }

    // ---- Products ----
    for i in 0..cfg.products {
        let s = inst("Product", i);
        // Leaf type + all ancestors.
        let leaf = rng.index(n_types);
        for t in ancestors(&parent, leaf) {
            e.iri3(&s, vocab::RDF_TYPE, &inst("ProductType", t));
        }
        e.lit(&s, vocab::RDFS_LABEL, &words::label(&mut rng));
        e.lit(&s, vocab::RDFS_COMMENT, &words::sentence(&mut rng, 10));
        e.iri3(&s, &v("producer"), &inst("Producer", rng.index(producers)));
        let nf = 3 + rng.index(5);
        for _ in 0..nf {
            e.iri3(
                &s,
                &v("productFeature"),
                &inst("ProductFeature", rng.index(features)),
            );
        }
        // Heterogeneous optional properties.
        for k in 1..=3usize {
            if rng.chance(2, 3) {
                e.lit(
                    &s,
                    &v(&format!("productPropertyTextual{k}")),
                    &words::sentence(&mut rng, 4),
                );
            }
        }
        for k in 1..=3usize {
            if rng.chance(1, 2) {
                let val = rng.range(1, 2000).to_string();
                e.typed_lit(
                    &s,
                    &v(&format!("productPropertyNumeric{k}")),
                    &val,
                    vocab::XSD_INTEGER,
                );
            }
        }
    }

    // ---- Vendors ----
    for i in 0..vendors {
        let s = inst("Vendor", i);
        e.iri3(&s, vocab::RDF_TYPE, &v("Vendor"));
        e.lit(&s, vocab::RDFS_LABEL, &words::label(&mut rng));
        e.lit(&s, vocab::RDFS_COMMENT, &words::sentence(&mut rng, 6));
        e.lit(&s, &v("country"), words::WORDS[rng.index(20)]);
        e.lit(
            &s,
            &v("homepage"),
            &format!("http://vendor{i}.example.org/"),
        );
    }

    // ---- Offers ----
    let n_offers = cfg.products * cfg.offers_per_product;
    for i in 0..n_offers {
        let s = inst("Offer", i);
        e.iri3(&s, vocab::RDF_TYPE, &v("Offer"));
        e.iri3(&s, &v("product"), &inst("Product", rng.index(cfg.products)));
        e.iri3(&s, &v("vendor"), &inst("Vendor", rng.index(vendors)));
        let price = format!("{}.{:02}", rng.range(5, 9000), rng.range(0, 99));
        e.typed_lit(&s, &v("price"), &price, vocab::XSD_DECIMAL);
        let day = rng.range(1, 28);
        e.typed_lit(
            &s,
            &v("validFrom"),
            &format!("2015-01-{day:02}"),
            vocab::XSD_DATE,
        );
        e.typed_lit(
            &s,
            &v("validTo"),
            &format!("2015-06-{day:02}"),
            vocab::XSD_DATE,
        );
        e.typed_lit(
            &s,
            &v("deliveryDays"),
            &rng.range(1, 14).to_string(),
            vocab::XSD_INTEGER,
        );
        e.lit(
            &s,
            &v("offerWebpage"),
            &format!("http://vendor.example.org/offers/{i}"),
        );
    }

    // ---- Reviewers ----
    for i in 0..persons {
        let s = inst("Person", i);
        e.iri3(&s, vocab::RDF_TYPE, &v("Person"));
        e.lit(&s, &v("name"), &words::label(&mut rng));
        e.lit(&s, &v("mbox_sha1sum"), &format!("{:040x}", rng.next_u64()));
        e.lit(&s, &v("country"), words::WORDS[rng.index(20)]);
    }

    // ---- Reviews ----
    for i in 0..n_reviews {
        let s = inst("Review", i);
        e.iri3(&s, vocab::RDF_TYPE, &v("Review"));
        e.iri3(
            &s,
            &v("reviewFor"),
            &inst("Product", rng.index(cfg.products)),
        );
        e.iri3(&s, &rev("reviewer"), &inst("Person", rng.index(persons)));
        e.lit(&s, &dc("title"), &words::label(&mut rng));
        e.lit(&s, &rev("text"), &words::sentence(&mut rng, 15));
        let day = rng.range(1, 28);
        e.typed_lit(
            &s,
            &v("reviewDate"),
            &format!("2014-11-{day:02}"),
            vocab::XSD_DATE,
        );
        // Ratings are optionally present — BSBM's signature heterogeneity.
        for k in 1..=4usize {
            if rng.chance(3, 5) {
                e.typed_lit(
                    &s,
                    &v(&format!("rating{k}")),
                    &rng.range(1, 10).to_string(),
                    vocab::XSD_INTEGER,
                );
            }
        }
    }

    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdf_model::GraphStats;

    #[test]
    fn deterministic_for_seed() {
        let cfg = BsbmConfig::with_products(30);
        let a = generate(&cfg);
        let b = generate(&cfg);
        assert_eq!(a.len(), b.len());
        let sa = rdf_io::write_graph(&a);
        let sb = rdf_io::write_graph(&b);
        assert_eq!(sa, sb);
    }

    #[test]
    fn different_seeds_differ() {
        let a = generate(&BsbmConfig {
            seed: 1,
            ..BsbmConfig::with_products(30)
        });
        let b = generate(&BsbmConfig {
            seed: 2,
            ..BsbmConfig::with_products(30)
        });
        assert_ne!(rdf_io::write_graph(&a), rdf_io::write_graph(&b));
    }

    #[test]
    fn triples_scale_roughly_100_per_product() {
        let g = generate(&BsbmConfig::with_products(200));
        let per_product = g.len() as f64 / 200.0;
        assert!(
            (60.0..160.0).contains(&per_product),
            "unexpected density: {per_product}"
        );
    }

    #[test]
    fn scaled_to_triples_hits_target() {
        let cfg = BsbmConfig::scaled_to_triples(30_000);
        let g = generate(&cfg);
        let ratio = g.len() as f64 / 30_000.0;
        assert!((0.5..2.0).contains(&ratio), "off target: {}", g.len());
    }

    #[test]
    fn has_type_hierarchy_schema() {
        let g = generate(&BsbmConfig::with_products(100));
        assert!(!g.schema().is_empty());
        // All schema triples are subClassOf under the default richness.
        let wk = g.well_known();
        assert!(g.schema().iter().all(|t| t.p == wk.sub_class_of));
    }

    #[test]
    fn full_schema_adds_subproperties() {
        let g = generate(&BsbmConfig {
            schema: SchemaRichness::Full,
            ..BsbmConfig::with_products(50)
        });
        let wk = g.well_known();
        assert!(g.schema().iter().any(|t| t.p == wk.sub_property_of));
        assert!(g.schema().iter().any(|t| t.p == wk.domain));
        assert!(g.schema().iter().any(|t| t.p == wk.range));
    }

    #[test]
    fn products_have_multiple_types() {
        let g = generate(&BsbmConfig::with_products(100));
        let st = GraphStats::of(&g);
        // Type triples well exceed the number of typed entities would give
        // with one type each; products carry ancestor chains.
        let entities = 100 + 100 / 35 + 1 + 100 / 4 + 20 + 100 / 50 + 1;
        assert!(st.type_edges > entities, "no ancestor types? {st:?}");
        // Class nodes include the product types plus the 6 entity classes.
        assert!(st.class_nodes >= BsbmConfig::with_products(100).n_product_types());
    }

    #[test]
    fn type_count_grows_with_scale() {
        let small = BsbmConfig::with_products(100).n_product_types();
        let big = BsbmConfig::with_products(10_000).n_product_types();
        assert!(big > small * 5, "{small} vs {big}");
    }

    #[test]
    fn well_behaved() {
        let g = generate(&BsbmConfig::with_products(60));
        assert!(g.well_behaved_violations().is_empty());
    }

    #[test]
    fn heterogeneity_present() {
        // Some products have rating1, some don't — check both exist.
        let g = generate(&BsbmConfig::with_products(80));
        let rating1 = g
            .dict()
            .lookup(&Term::iri(format!("{BSBM_NS}rating1")))
            .expect("some review has rating1");
        let reviews_with: rdf_model::FxHashSet<_> = g
            .data()
            .iter()
            .filter(|t| t.p == rating1)
            .map(|t| t.s)
            .collect();
        let review_class = g
            .dict()
            .lookup(&Term::iri(format!("{BSBM_NS}Review")))
            .unwrap();
        let all_reviews: rdf_model::FxHashSet<_> = g
            .types()
            .iter()
            .filter(|t| t.o == review_class)
            .map(|t| t.s)
            .collect();
        assert!(!reviews_with.is_empty());
        assert!(reviews_with.len() < all_reviews.len());
    }
}
