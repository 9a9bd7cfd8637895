//! `QUERY`: a BGP evaluated on a warm store, pruned and planned by a
//! summary of it.

use crate::cardinality::SummaryEstimator;
use crate::service::{bump, ServiceError, SummaryService};
use crate::summary::SummaryKind;
use rdf_io::writer::push_row;
use rdf_model::PrefixMap;
use rdf_query::{explain_with, parse_query, ControlFlow, Evaluator, Plan};

/// Outcome of [`SummaryService::query`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QueryOutcome {
    /// Head variable names, in projection order (empty for ASK queries).
    pub columns: Vec<String>,
    /// The answer in the `QUERY` wire format, every line LF-terminated.
    /// A query with a head: the TAB-joined column names, then one line
    /// per distinct answer row in join order, its cells TAB-separated
    /// terms in N-Triples syntax (rendered by [`rdf_io::writer::push_row`],
    /// so no cell holds a raw TAB or LF). An ASK query: `true` or `false`.
    pub body: String,
    /// Answer rows in `body` (0 for ASK queries — see [`QueryOutcome::ask`]).
    pub row_count: usize,
    /// Did the query have at least one embedding?
    pub ask: bool,
    /// True when the summary proved emptiness and graph evaluation was
    /// skipped entirely (empty-on-summary ⇒ empty-on-graph).
    pub pruned: bool,
    /// True when the summary consulted for pruning came from the cache.
    pub cache_hit: bool,
    /// The summary kind consulted for pruning and join planning.
    pub kind: SummaryKind,
    /// True when the row limit cut off the enumeration.
    pub truncated: bool,
    /// The join plan the graph was evaluated in, its estimates read off
    /// the `kind` summary; `None` when the query was pruned.
    pub plan: Option<Plan>,
}

impl QueryOutcome {
    /// The answer rows of `body`, each split into its cells (still in
    /// N-Triples syntax). Empty for ASK queries.
    pub fn rows(&self) -> impl Iterator<Item = Vec<&str>> {
        self.body.lines().skip(1).map(|l| l.split('\t').collect())
    }
}

impl SummaryService {
    /// Evaluates a BGP query (paper notation, e.g. `q(?x) :- ?x <p> ?y`)
    /// against the warm store loaded as `name`, with **summary-based
    /// pruning**: the query is first checked against a summary of the
    /// graph ([`rdf_query::empty_on_summary`] — sound for every quotient
    /// kind), and when the summary proves emptiness the graph join is
    /// skipped entirely. Otherwise the join runs in the order of a static
    /// plan whose cardinality estimates come from the same summary
    /// ([`SummaryEstimator`]).
    ///
    /// `kind` picks the summary to consult; `None` prefers whatever is
    /// already cached for the graph's fingerprint (so pruning never costs
    /// a rebuild when *any* kind is warm), falling back to
    /// [`SummaryKind::Weak`] — the smallest summary — on a cold cache.
    /// `limit` caps the number of distinct rows enumerated.
    ///
    /// The pruning verdict is memoized per `(fingerprint, kind, relaxed
    /// shape)`: a repeated provably-empty pattern short-circuits before
    /// the summary lookup, and a repeated don't-know pattern skips the
    /// summary ASK and goes straight to the graph join.
    pub fn query(
        &self,
        name: &str,
        text: &str,
        kind: Option<SummaryKind>,
        limit: usize,
    ) -> Result<QueryOutcome, ServiceError> {
        let graph = self.resident(name)?;
        // Hold the read lock for the whole evaluation: the summary pruned
        // with and the store joined against stay one content snapshot,
        // even under concurrent UPDATEs.
        let entry = graph.entry.read().unwrap();
        let spec = parse_query(text, &PrefixMap::with_defaults())
            .map_err(|e| ServiceError::BadQuery(e.to_string()))?;
        bump(&self.counters.queries);
        let kind = kind.unwrap_or_else(|| self.cache.preferred_kind(entry.fingerprint));
        let store = &entry.store;
        let q = rdf_query::compile(&spec, store.graph())
            .map_err(|e| ServiceError::BadQuery(e.to_string()))?;
        // Starts out as what a query without answers reports: the header
        // line alone, or the ASK verdict.
        let mut out = QueryOutcome {
            columns: spec.head.clone(),
            body: if spec.is_boolean() {
                String::from("false\n")
            } else {
                spec.head.join("\t") + "\n"
            },
            row_count: 0,
            ask: false,
            pruned: false,
            cache_hit: true,
            kind,
            truncated: false,
            plan: None,
        };
        // Consult the prune-verdict memo before the summary cache: a
        // known-empty shape answers without materializing any artifact.
        let prune_key = (entry.fingerprint, kind, rdf_query::prune_shape_key(&spec));
        let memoized = self.cache.prune_verdict(&prune_key);
        if memoized.is_some() {
            bump(&self.counters.prune_hits);
        }
        if memoized == Some(true) {
            bump(&self.counters.pruned);
            out.pruned = true;
            return Ok(out);
        }
        let (artifact, cache_hit) = self.summarize_entry(&entry, kind);
        (out.cache_hit, out.kind) = (cache_hit, artifact.kind);
        let empty = memoized.unwrap_or_else(|| {
            let verdict = rdf_query::empty_on_summary(&artifact.summary_store, &spec);
            // An empty body never prunes and its shape key is the
            // degenerate empty string — not worth a memo slot.
            if !spec.body.is_empty() {
                self.cache.remember_verdict(prune_key, verdict);
            }
            verdict
        });
        if empty {
            bump(&self.counters.pruned);
            out.pruned = true;
            return Ok(out);
        }
        let estimator = SummaryEstimator::new(store, &artifact.cardinality);
        let plan = explain_with(&q, &estimator);
        let order = plan.order();
        out.plan = Some(plan);
        let ev = Evaluator::new(store);
        if spec.is_boolean() {
            out.ask = ev.ask_ordered(&q, &order);
            out.body = format!("{}\n", out.ask);
            return Ok(out);
        }
        // Each accepted row goes straight from the index to the wire
        // body. A row arriving past the limit proves the cut and is not
        // rendered: an answer set of *exactly* `limit` rows is complete,
        // not truncated. (`usize::MAX` is never reached; never cut.)
        let dict = store.graph().dict();
        ev.for_each_row(&q, &order, |row| {
            if out.row_count == limit {
                out.truncated = true;
                return ControlFlow::Stop;
            }
            push_row(&mut out.body, row.iter().map(|&id| dict.decode(id)));
            out.body.push('\n');
            out.row_count += 1;
            ControlFlow::Continue
        });
        out.ask = out.row_count > 0;
        Ok(out)
    }
}
