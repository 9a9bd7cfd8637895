//! Seeded inputs: the BSBM graph each workload serves, and the request
//! mixes drawn over it. The same `--seed` gives the same graph and the
//! same parameter draws; the program under test only ever sees the
//! generated files and request lines.

use crate::wire::{Class, Request};
use rdf_model::{vocab, Graph, SplitMix64, Term};
use rdfsum_workloads::bsbm::{BSBM_NS, DC_NS, INST_NS, REV_NS};
use rdfsum_workloads::BsbmConfig;
use std::collections::VecDeque;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// The pinned default seed (the generator's own default); goldens in
/// `expected.json` hold for it only.
pub(crate) const DEFAULT_SEED: u64 = 0xB5B1;

/// Graph names as the server sees them: paths relative to its working
/// directory, so every request line is the same wherever the checkout is.
pub(crate) const GRAPH_NT: &str = "g.nt";
pub(crate) const GRAPH_SNAP: &str = "g.snap";

pub(crate) struct Dataset {
    pub(crate) products: usize,
    pub(crate) graph: Graph,
    /// IRIs of the product features at least one product carries.
    pub(crate) features: Arc<Vec<String>>,
    pub(crate) offers: usize,
    pub(crate) vendors: usize,
    pub(crate) generate_s: f64,
}

impl Dataset {
    pub(crate) fn generate(products: usize, seed: u64) -> Dataset {
        let t0 = Instant::now();
        let cfg = BsbmConfig {
            products,
            seed,
            ..BsbmConfig::default()
        };
        let graph = rdfsum_workloads::generate_bsbm(&cfg);
        let generate_s = t0.elapsed().as_secs_f64();
        let feature_p = graph
            .dict()
            .lookup(&Term::iri(format!("{BSBM_NS}productFeature")));
        let mut features: Vec<String> = graph
            .data()
            .iter()
            .filter(|t| Some(t.p) == feature_p)
            .filter_map(|t| graph.dict().decode(t.o).as_iri().map(str::to_string))
            .collect();
        features.sort_unstable();
        features.dedup();
        Dataset {
            products,
            graph,
            features: Arc::new(features),
            offers: products * cfg.offers_per_product,
            vendors: products / 50 + 1,
            generate_s,
        }
    }

    /// The dataset's name in `expected.json`.
    pub(crate) fn name(&self) -> String {
        format!("bsbm-{}", self.products)
    }

    pub(crate) fn write_nt(&self, dir: &Path) -> Result<(), String> {
        rdf_io::save_path(&self.graph, dir.join(GRAPH_NT))
            .map_err(|e| format!("writing {GRAPH_NT}: {e}"))
    }
}

fn product(k: usize) -> String {
    format!("<{INST_NS}Product{k}>")
}

/// The four structurally empty joins: every property occurs in the
/// graph, but never on the node the join needs, so the answer is empty on
/// any quotient summary and the server prunes without touching the graph.
const EMPTY_JOINS: [(&str, &str, &str, &str); 4] = [
    (BSBM_NS, "producer", BSBM_NS, "vendor"),
    (REV_NS, "reviewer", BSBM_NS, "price"),
    (BSBM_NS, "product", REV_NS, "text"),
    (BSBM_NS, "vendor", BSBM_NS, "reviewFor"),
];

/// Properties every one of the 6 × products offers carries once: a
/// single-pattern scan over any of them overflows the server's 10 000-row
/// limit from 1 667 products up.
const OFFER_PROPERTIES: [&str; 6] = [
    "price",
    "validFrom",
    "validTo",
    "deliveryDays",
    "offerWebpage",
    "vendor",
];

/// How many distinct never-seen properties the unknown-vocabulary
/// queries rotate over.
const UNKNOWN_PROPERTIES: usize = 8;

/// The query texts, shared by the served mixes and the in-process replay.
pub(crate) mod text {
    use super::*;

    pub(crate) fn point(k: usize) -> String {
        format!("q(?p,?o) :- {} ?p ?o", product(k))
    }

    pub(crate) fn offers_of(k: usize) -> String {
        format!(
            "q(?o,?v,?c) :- ?o <{BSBM_NS}product> {}, ?o <{BSBM_NS}vendor> ?v, ?o <{BSBM_NS}price> ?c",
            product(k)
        )
    }

    pub(crate) fn reviews_of(k: usize) -> String {
        format!(
            "q(?r,?u,?t) :- ?r <{BSBM_NS}reviewFor> {}, ?r <{REV_NS}reviewer> ?u, ?r <{DC_NS}title> ?t",
            product(k)
        )
    }

    pub(crate) fn with_feature(iri: &str) -> String {
        format!("q(?x) :- ?x <{BSBM_NS}productFeature> <{iri}>")
    }

    pub(crate) fn empty_join(i: usize) -> String {
        let (ns1, p1, ns2, p2) = EMPTY_JOINS[i % EMPTY_JOINS.len()];
        format!("q(?x) :- ?x <{ns1}{p1}> ?y, ?y <{ns2}{p2}> ?z")
    }

    pub(crate) fn unknown(j: usize) -> String {
        format!("q(?x) :- ?x <http://nowhere.invalid/p{j}> ?y")
    }

    pub(crate) fn scan(i: usize) -> String {
        let p = OFFER_PROPERTIES[i % OFFER_PROPERTIES.len()];
        format!("q(?x,?y) :- ?x <{BSBM_NS}{p}> ?y")
    }

    pub(crate) fn scan_join(i: usize) -> String {
        let p = OFFER_PROPERTIES[i % OFFER_PROPERTIES.len()];
        format!("q(?o,?p,?y) :- ?o <{BSBM_NS}product> ?p, ?o <{BSBM_NS}{p}> ?y")
    }
}

fn query(class: Class, key: u64, text: String) -> Request {
    Request {
        class,
        key,
        line: format!("QUERY {GRAPH_NT} {text}"),
    }
}

pub(crate) fn summarize(kind: &str, graph: &str) -> Request {
    Request {
        class: Class::Summarize,
        key: 0,
        line: format!("SUMMARIZE {kind} {graph}"),
    }
}

/// One connection's seeded draw over a workload's request mix.
pub(crate) struct Mix {
    rng: SplitMix64,
    products: usize,
    features: Arc<Vec<String>>,
}

impl Mix {
    /// `stream` separates the connections of one run.
    pub(crate) fn new(ds: &Dataset, seed: u64, stream: u64) -> Mix {
        Mix {
            rng: SplitMix64::new(seed ^ (stream + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            products: ds.products,
            features: Arc::clone(&ds.features),
        }
    }

    /// The BSBM *explore* shape. By count: 30 % product point lookup,
    /// 20 % offers-of-product join, 15 % reviews-of-product join, 10 %
    /// products-with-feature, 20 % structurally empty joins, 3 % unknown
    /// vocabulary, 1 % warm `SUMMARIZE w`, 1 % `STATS`.
    pub(crate) fn explore(&mut self) -> Request {
        let k = self.rng.index(self.products);
        match self.rng.index(100) {
            0..=29 => query(Class::Point, k as u64, text::point(k)),
            30..=49 => query(Class::Join, k as u64, text::offers_of(k)),
            50..=64 => query(Class::Join, 1 << 32 | k as u64, text::reviews_of(k)),
            65..=74 => {
                let f = self.rng.index(self.features.len());
                query(
                    Class::Feature,
                    f as u64,
                    text::with_feature(&self.features[f]),
                )
            }
            75..=94 => {
                let i = self.rng.index(EMPTY_JOINS.len());
                query(Class::EmptyJoin, i as u64, text::empty_join(i))
            }
            95..=97 => {
                let j = self.rng.index(UNKNOWN_PROPERTIES);
                query(Class::Unknown, j as u64, text::unknown(j))
            }
            98 => summarize("w", GRAPH_NT),
            _ => Request {
                class: Class::Stats,
                key: 0,
                line: "STATS".into(),
            },
        }
    }

    /// Large results: 40 % single-pattern scan and 40 % two-pattern join,
    /// both overflowing the 10 000-row limit, 20 % warm `SUMMARIZE tw`.
    pub(crate) fn scan(&mut self) -> Request {
        let i = self.rng.index(OFFER_PROPERTIES.len());
        match self.rng.index(5) {
            0 | 1 => query(Class::Scan, i as u64, text::scan(i)),
            2 | 3 => query(Class::ScanJoin, i as u64, text::scan_join(i)),
            _ => summarize("tw", GRAPH_NT),
        }
    }
}

/// The writer side of `explore_update`: 3 of 4 batches insert a fresh
/// 8-triple offer, 1 of 4 deletes the oldest offer still live.
pub(crate) struct OfferWriter {
    seed: u64,
    products: usize,
    vendors: usize,
    /// First offer id the generator did not use.
    base: usize,
    inserted: usize,
    live: VecDeque<usize>,
}

impl OfferWriter {
    pub(crate) fn new(ds: &Dataset, seed: u64) -> OfferWriter {
        OfferWriter {
            seed,
            products: ds.products,
            vendors: ds.vendors,
            base: ds.offers,
            inserted: 0,
            live: VecDeque::new(),
        }
    }

    /// IRI prefix shared by every inserted offer and by no generated one
    /// with a smaller id; the oracle check filters answer rows on it.
    pub(crate) fn is_inserted_offer(&self, term: &str) -> bool {
        term.strip_prefix(&format!("<{INST_NS}Offer"))
            .and_then(|rest| rest.strip_suffix('>'))
            .and_then(|id| id.parse::<usize>().ok())
            .is_some_and(|id| id >= self.base)
    }

    /// The offer's eight statements; a pure function of the seed and the
    /// id, so the delete batch names exactly what the insert batch added.
    fn statements(&self, id: usize) -> String {
        let mut rng = SplitMix64::new(self.seed ^ (id as u64).wrapping_mul(0xD6E8_FEB8_6659_FD93));
        let s = format!("<{INST_NS}Offer{id}>");
        let v = |local: &str| format!("<{BSBM_NS}{local}>");
        let day = rng.range(1, 28);
        [
            format!("{s} <{}> {} .", vocab::RDF_TYPE, v("Offer")),
            format!(
                "{s} {} {} .",
                v("product"),
                product(rng.index(self.products))
            ),
            format!(
                "{s} {} <{INST_NS}Vendor{}> .",
                v("vendor"),
                rng.index(self.vendors)
            ),
            format!(
                "{s} {} \"{}.{:02}\"^^<{}> .",
                v("price"),
                rng.range(5, 9000),
                rng.range(0, 99),
                vocab::XSD_DECIMAL
            ),
            format!(
                "{s} {} \"2015-01-{day:02}\"^^<{}> .",
                v("validFrom"),
                vocab::XSD_DATE
            ),
            format!(
                "{s} {} \"2015-06-{day:02}\"^^<{}> .",
                v("validTo"),
                vocab::XSD_DATE
            ),
            format!(
                "{s} {} \"{}\"^^<{}> .",
                v("deliveryDays"),
                rng.range(1, 14),
                vocab::XSD_INTEGER
            ),
            format!(
                "{s} {} \"http://vendor.example.org/offers/{id}\" .",
                v("offerWebpage")
            ),
        ]
        .join(" ")
    }

    /// Batch `i` of the schedule.
    pub(crate) fn batch(&mut self, i: u64) -> Request {
        if i % 4 == 3 {
            if let Some(id) = self.live.pop_front() {
                return Request {
                    class: Class::Delete,
                    key: id as u64,
                    line: format!("UPDATE {GRAPH_NT} - {}", self.statements(id)),
                };
            }
        }
        let id = self.base + self.inserted;
        self.inserted += 1;
        self.live.push_back(id);
        Request {
            class: Class::Insert,
            key: id as u64,
            line: format!("UPDATE {GRAPH_NT} + {}", self.statements(id)),
        }
    }

    /// Delete batches removing every offer still live, several per line
    /// (the request-line cap bounds a batch; these stay far below it).
    pub(crate) fn drain(&mut self) -> Vec<Request> {
        let live: Vec<usize> = self.live.drain(..).collect();
        live.chunks(8)
            .map(|ids| Request {
                class: Class::Delete,
                key: ids[0] as u64,
                line: format!(
                    "UPDATE {GRAPH_NT} - {}",
                    ids.iter()
                        .map(|&id| self.statements(id))
                        .collect::<Vec<_>>()
                        .join(" ")
                ),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mixes_are_reproducible_and_follow_their_shares() {
        let ds = Dataset::generate(40, DEFAULT_SEED);
        assert!(!ds.features.is_empty());
        let draw = |stream| {
            let mut m = Mix::new(&ds, 7, stream);
            (0..4000).map(|_| m.explore()).collect::<Vec<_>>()
        };
        let (a, b, other) = (draw(0), draw(0), draw(1));
        assert!(a.iter().zip(&b).all(|(x, y)| x.line == y.line));
        assert!(a.iter().zip(&other).any(|(x, y)| x.line != y.line));
        let share = |c: Class| a.iter().filter(|r| r.class == c).count() as f64 / 4000.0;
        assert!((share(Class::Point) - 0.30).abs() < 0.03);
        assert!((share(Class::Join) - 0.35).abs() < 0.03);
        assert!((share(Class::EmptyJoin) - 0.20).abs() < 0.03);
        assert!(share(Class::Summarize) > 0.0 && share(Class::Stats) > 0.0);
        // Every line is a well-formed request of the protocol.
        for r in a.iter().chain(&{
            let mut m = Mix::new(&ds, 7, 0);
            (0..50).map(|_| m.scan()).collect::<Vec<_>>()
        }) {
            assert!(
                rdfsum_server::parse_request(r.line.as_bytes()).is_ok(),
                "{}",
                r.line
            );
        }
    }

    #[test]
    fn writer_deletes_exactly_what_it_inserted() {
        let ds = Dataset::generate(40, DEFAULT_SEED);
        let mut w = OfferWriter::new(&ds, 3);
        let batches: Vec<Request> = (0..8).map(|i| w.batch(i)).collect();
        let classes: Vec<Class> = batches.iter().map(|b| b.class).collect();
        use Class::{Delete, Insert};
        assert_eq!(
            classes,
            [Insert, Insert, Insert, Delete, Insert, Insert, Insert, Delete]
        );
        // Batch 3 deletes batch 0's offer, statement for statement.
        let payload = |r: &Request| r.line.splitn(4, ' ').nth(3).unwrap().to_string();
        assert_eq!(payload(&batches[3]), payload(&batches[0]));
        assert_eq!(
            rdf_io::parse_statements(&payload(&batches[0]))
                .unwrap()
                .len(),
            8
        );
        assert!(w.is_inserted_offer(&format!("<{INST_NS}Offer{}>", ds.offers)));
        assert!(!w.is_inserted_offer(&format!("<{INST_NS}Offer{}>", ds.offers - 1)));
        // The drain names the four offers still live, and only those.
        let drain = w.drain();
        assert_eq!(drain.len(), 1);
        assert_eq!(
            rdf_io::parse_statements(&payload(&drain[0])).unwrap().len(),
            32
        );
        assert!(w.drain().is_empty());
    }
}
