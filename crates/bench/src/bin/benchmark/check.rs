//! Answer checking: the failure tally the run's exit status hangs on,
//! the pinned goldens of `expected.json`, the cross-path identity of
//! `SUMMARIZE` bodies, and the un-pruned query oracle.

use crate::json::{self, Json};
use crate::wire::Response;
use rdf_model::PrefixMap;
use rdf_query::{compile, parse_query, Evaluator};
use rdf_store::TripleStore;
use std::collections::{BTreeSet, HashMap};

/// Goldens for the default seed, captured from `main` when the benchmark
/// was defined. Compiled in, so the check cannot depend on where the
/// benchmark is run from.
const EXPECTED: &str = include_str!("expected.json");

/// Requests attempted and failed, with the first few reasons. A failure
/// is an `ERR`, a transport error, or an answer that is wrong.
#[derive(Default)]
pub(crate) struct Tally {
    pub(crate) attempted: u64,
    pub(crate) failed: u64,
    pub(crate) reasons: Vec<String>,
}

impl Tally {
    pub(crate) fn attempt(&mut self) {
        self.attempted += 1;
    }

    pub(crate) fn fail(&mut self, reason: impl Into<String>) {
        self.failed += 1;
        if self.reasons.len() < 20 {
            self.reasons.push(reason.into());
        }
    }

    pub(crate) fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        let room = 20usize.saturating_sub(self.reasons.len());
        self.reasons.extend(other.reasons.into_iter().take(room));
    }

    /// Counts one request; `Some(response)` when it was answered `OK`.
    pub(crate) fn ok<'r>(
        &mut self,
        what: &str,
        response: &'r Result<Response, String>,
    ) -> Option<&'r Response> {
        self.attempt();
        match response {
            Ok(r) if r.is_ok() => Some(r),
            Ok(r) => {
                self.fail(format!("{what}: {}", r.status));
                None
            }
            Err(e) => {
                self.fail(format!("{what}: {e}"));
                None
            }
        }
    }
}

/// FNV-1a, as hex: the body digest recorded in `expected.json`.
pub(crate) fn digest(bytes: &[u8]) -> String {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// The golden record of one dataset, present only under the default seed.
pub(crate) struct Goldens {
    dataset: String,
    entry: Option<Json>,
    active: bool,
}

impl Goldens {
    pub(crate) fn new(dataset: String, seed: u64) -> Goldens {
        let doc = json::parse(EXPECTED).expect("expected.json is valid JSON");
        let pinned_seed = doc.get("seed").and_then(Json::as_f64).map(|s| s as u64);
        Goldens {
            entry: doc.get("datasets").and_then(|d| d.get(&dataset)).cloned(),
            dataset,
            active: pinned_seed == Some(seed),
        }
    }

    /// Compares one pinned field; a mismatch (or a missing golden) is a
    /// hard failure naming the field and both values.
    fn field(&self, tally: &mut Tally, path: &[&str], actual: &Json) {
        if !self.active {
            return;
        }
        let mut at = self.entry.as_ref();
        for key in path {
            at = at.and_then(|j| j.get(key));
        }
        let name = format!("{}.{}", self.dataset, path.join("."));
        match at {
            Some(want) if want == actual => {}
            Some(want) => tally.fail(format!(
                "golden mismatch at {name}: expected.json has {want:?}, this run produced {actual:?}"
            )),
            None => tally.fail(format!(
                "no golden for {name} in expected.json; this run produced {actual:?}"
            )),
        }
    }

    pub(crate) fn text(&self, tally: &mut Tally, path: &[&str], actual: &str) {
        self.field(tally, path, &Json::Str(actual.to_string()));
    }

    pub(crate) fn number(&self, tally: &mut Tally, path: &[&str], actual: u64) {
        self.field(tally, path, &Json::Num(actual as f64));
    }
}

/// Check (a): every `SUMMARIZE` body for a kind is byte-identical across
/// paths and lifetimes, re-parses as N-Triples, and holds as many triples
/// as the status line's `edges`.
#[derive(Default)]
pub(crate) struct SummaryBodies {
    first: HashMap<String, Vec<u8>>,
}

impl SummaryBodies {
    /// The full check, for the first body of a kind and any body off the
    /// timed path. `kind` is the protocol token (`w`, `tw`, …).
    pub(crate) fn check(&mut self, tally: &mut Tally, goldens: &Goldens, kind: &str, r: &Response) {
        if let Some(first) = self.first.get(kind) {
            if *first != r.body {
                tally.fail(format!(
                    "SUMMARIZE {kind}: body differs from the first one seen ({} vs {} bytes)",
                    r.body.len(),
                    first.len()
                ));
            }
            return;
        }
        let edges = r.num("edges");
        match std::str::from_utf8(&r.body).map(rdf_io::parse_str) {
            Ok(Ok(triples)) if Some(triples.len() as u64) == edges => {}
            Ok(Ok(triples)) => tally.fail(format!(
                "SUMMARIZE {kind}: body holds {} triples, status line says edges={edges:?}",
                triples.len()
            )),
            Ok(Err(e)) => tally.fail(format!("SUMMARIZE {kind}: body does not re-parse: {e}")),
            Err(e) => tally.fail(format!("SUMMARIZE {kind}: body is not UTF-8: {e}")),
        }
        for field in ["nodes", "edges"] {
            if let Some(n) = r.num(field) {
                goldens.number(tally, &["summaries", kind, field], n);
            }
        }
        goldens.text(tally, &["summaries", kind, "digest"], &digest(&r.body));
        self.first.insert(kind.to_string(), r.body.clone());
    }

    /// The reference body of a kind, for the cheap in-window comparison.
    pub(crate) fn reference(&self, kind: &str) -> Option<&[u8]> {
        self.first.get(kind).map(Vec::as_slice)
    }
}

/// Check (b): the un-pruned evaluator on a store built in the benchmark
/// process from the same generated graph.
pub(crate) struct Oracle {
    store: TripleStore,
}

pub(crate) type Rows = BTreeSet<Vec<String>>;

impl Oracle {
    pub(crate) fn new(graph: rdf_model::Graph) -> Oracle {
        Oracle {
            store: TripleStore::new(graph),
        }
    }

    pub(crate) fn store(&self) -> &TripleStore {
        &self.store
    }

    /// The full answer set of `text`, each term in N-Triples syntax.
    pub(crate) fn answer(&self, text: &str) -> Result<Rows, String> {
        let spec = parse_query(text, &PrefixMap::with_defaults()).map_err(|e| e.to_string())?;
        let q = compile(&spec, self.store.graph()).map_err(|e| e.to_string())?;
        let rs = Evaluator::new(&self.store).select(&q);
        Ok(rs
            .decode(&self.store)
            .into_iter()
            .map(|row| row.into_iter().map(ToString::to_string).collect())
            .collect())
    }

    /// Compares one `QUERY` response set-wise with the oracle. Rows for
    /// which `ignore` holds are dropped from the response first (offers a
    /// concurrent writer inserted). A limit-truncated response is checked
    /// for `rows=<limit>` only: which rows make the cut is not specified.
    pub(crate) fn verify(
        &self,
        text: &str,
        r: &Response,
        ignore: impl Fn(&[String]) -> bool,
    ) -> Result<(), String> {
        let limit = rdfsum_server::QUERY_ROW_LIMIT as u64;
        if r.num("truncated") == Some(1) {
            return if r.num("rows") == Some(limit) {
                Ok(())
            } else {
                Err(format!("truncated=1 with {}", r.status))
            };
        }
        let want = self.answer(text)?;
        if r.num("pruned") == Some(1) && !want.is_empty() {
            return Err(format!("pruned=1 but the graph has {} answers", want.len()));
        }
        let body = std::str::from_utf8(&r.body).map_err(|e| e.to_string())?;
        let got: Rows = body
            .lines()
            .skip(1)
            .map(|l| l.split('\t').map(str::to_string).collect::<Vec<_>>())
            .filter(|row| !ignore(row))
            .collect();
        if got == want {
            Ok(())
        } else {
            Err(format!(
                "{} rows served, {} expected (first difference: {:?})",
                got.len(),
                want.len(),
                got.symmetric_difference(&want).next()
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn response(status: &str, body: &str) -> Response {
        Response {
            status: status.into(),
            body: body.as_bytes().to_vec(),
        }
    }

    #[test]
    fn oracle_compares_set_wise_and_honours_pruning_and_truncation() {
        let mut g = rdf_model::Graph::new();
        g.add_iri_triple("s:a", "p:x", "o:1");
        g.add_iri_triple("s:b", "p:x", "o:2");
        let oracle = Oracle::new(g);
        let q = "q(?s,?o) :- ?s <p:x> ?o";
        let never = |_: &[String]| false;
        // Row order is free; an extra row is not.
        let ok = response(
            "OK query rows=2 pruned=0 cached=1 kind=w truncated=0 bytes=0",
            "s\to\n<s:b>\t<o:2>\n<s:a>\t<o:1>\n",
        );
        assert_eq!(oracle.verify(q, &ok, never), Ok(()));
        let extra = response(
            &ok.status,
            "s\to\n<s:b>\t<o:2>\n<s:a>\t<o:1>\n<s:c>\t<o:3>\n",
        );
        assert!(oracle.verify(q, &extra, never).is_err());
        assert_eq!(oracle.verify(q, &extra, |row| row[0] == "<s:c>"), Ok(()));
        // pruned=1 on a query that has answers is unsound pruning.
        let pruned = response(
            "OK query rows=0 pruned=1 cached=1 kind=w truncated=0 bytes=0",
            "s\to\n",
        );
        assert!(oracle
            .verify(q, &pruned, never)
            .unwrap_err()
            .contains("pruned=1"));
        // A truncated answer is held to the row limit only.
        let cut = response(
            "OK query rows=10000 pruned=0 cached=1 kind=w truncated=1 bytes=0",
            "",
        );
        assert_eq!(oracle.verify(q, &cut, never), Ok(()));
        let short = response(
            "OK query rows=9 pruned=0 cached=1 kind=w truncated=1 bytes=0",
            "",
        );
        assert!(oracle.verify(q, &short, never).is_err());
    }

    #[test]
    fn summary_bodies_must_reparse_match_edges_and_repeat_exactly() {
        let goldens = Goldens::new("no-such-dataset".into(), 1);
        let mut bodies = SummaryBodies::default();
        let mut tally = Tally::default();
        let body = "<s:a> <p:x> <o:1> .\n<s:b> <p:x> <o:2> .\n";
        let first = response(
            "OK summary kind=W fp=ab cached=0 nodes=4 edges=2 input=9 bytes=40",
            body,
        );
        bodies.check(&mut tally, &goldens, "w", &first);
        bodies.check(&mut tally, &goldens, "w", &first);
        assert_eq!(tally.failed, 0, "{:?}", tally.reasons);
        assert_eq!(bodies.reference("w"), Some(body.as_bytes()));
        let drifted = response(&first.status, "<s:a> <p:x> <o:1> .\n");
        bodies.check(&mut tally, &goldens, "w", &drifted);
        assert_eq!(tally.failed, 1);
        let wrong_edges = response(
            "OK summary kind=S fp=ab cached=0 nodes=4 edges=3 input=9 bytes=40",
            body,
        );
        bodies.check(&mut tally, &goldens, "s", &wrong_edges);
        assert_eq!(tally.failed, 2);
    }

    #[test]
    fn goldens_bind_only_under_the_pinned_seed() {
        let doc = json::parse(EXPECTED).unwrap();
        let seed = doc.get("seed").and_then(Json::as_f64).unwrap() as u64;
        assert_eq!(seed, crate::data::DEFAULT_SEED);
        let mut tally = Tally::default();
        Goldens::new("no-such-dataset".into(), seed + 1).number(&mut tally, &["triples"], 1);
        assert_eq!(tally.failed, 0);
        Goldens::new("no-such-dataset".into(), seed).number(&mut tally, &["triples"], 1);
        assert_eq!(tally.failed, 1);
        assert!(tally.reasons[0].contains("no-such-dataset.triples"));
    }
}
