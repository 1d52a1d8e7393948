//! The unified query surface: one [`Request`] type for every ACQ problem
//! kind, one [`Response`] type carrying communities plus execution metadata,
//! and one [`Executor`] trait implemented by every engine.
//!
//! The paper defines a single problem family — the ACQ (Problem 1) plus its
//! two Appendix G variants — and this module gives it a single door. A
//! request is built fluently:
//!
//! ```
//! use acq_core::{AcqAlgorithm, Request};
//! use acq_graph::{paper_figure3_graph, KeywordId};
//!
//! let graph = paper_figure3_graph();
//! let q = graph.vertex_by_label("A").unwrap();
//! let x = graph.dictionary().get("x").unwrap();
//!
//! // Problem 1: maximise the number of shared keywords (algorithm knob).
//! let acq = Request::community(q).k(2).algorithm(AcqAlgorithm::IncT);
//! // Variant 1 ("SW"): every member must carry the whole set S.
//! let v1 = Request::community(q).k(2).exact_keywords([x]);
//! // Variant 2 ("SWT"): every member must carry >= θ·|S| keywords of S.
//! let v2 = Request::community(q).k(2).keywords([x]).threshold(0.5);
//! # let _ = (acq, v1, v2);
//! ```
//!
//! and any [`Executor`] — the owning [`Engine`](crate::Engine), the
//! [`ShardedEngine`](crate::ShardedEngine), a durable decorator over either,
//! or the remote `acq_server::Client` — answers it through
//! [`Executor::execute`] / [`Executor::execute_batch`]. Validation lives in
//! one place ([`Request::validate`]) and is shared by every implementation.

use crate::algorithms::basic::{basic_g, basic_w};
use crate::algorithms::dec::dec;
use crate::algorithms::incremental::{inc_s, inc_t};
use crate::engine::AcqAlgorithm;
use crate::query::{AcqQuery, AcqResult, AttributedCommunity, QueryError};
use crate::variants::{sw, swt, Variant1Query, Variant2Query};
use acq_cltree::ClTree;
use acq_graph::{AttributedGraph, KeywordId, VertexId};
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Which keyword-cohesiveness rule the query applies: Problem 1 or one of
/// the two Appendix G variants.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum QuerySpec {
    /// Problem 1: maximise the number of keywords of `S` shared by **every**
    /// member. `keywords: None` means the paper's default `S = W(q)`.
    Community {
        /// The keyword set `S`; `None` selects `W(q)`.
        keywords: Option<Vec<KeywordId>>,
    },
    /// Variant 1: every member must carry the **entire** set `S` (no
    /// maximality search). Answered by the index-based `SW` algorithm.
    ExactKeywords {
        /// The required keyword set `S`.
        keywords: Vec<KeywordId>,
    },
    /// Variant 2: every member must carry at least `⌈θ·|S|⌉` keywords of `S`.
    /// Answered by the index-based `SWT` algorithm.
    Threshold {
        /// The reference keyword set `S`.
        keywords: Vec<KeywordId>,
        /// The fraction `θ ∈ [0, 1]` of `S` each member must carry.
        theta: f64,
    },
}

impl QuerySpec {
    /// The explicitly supplied keyword ids, if any (`None` for the
    /// `Community` default `S = W(q)`).
    pub fn keywords(&self) -> Option<&[KeywordId]> {
        match self {
            QuerySpec::Community { keywords } => keywords.as_deref(),
            QuerySpec::ExactKeywords { keywords } | QuerySpec::Threshold { keywords, .. } => {
                Some(keywords)
            }
        }
    }
}

/// One attributed community query of any kind, ready to hand to an
/// [`Executor`]. Owned, `Send + Sync`, cloneable and JSON-serialisable — the
/// wire shape a serving front-end queues and a sharding router forwards.
///
/// Construct with [`Request::community`] and the builder-style knobs; see
/// [`QuerySpec`] for the three spec kinds.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Request {
    /// The query vertex `q`.
    pub vertex: VertexId,
    /// Minimum in-community degree `k` (structure cohesiveness).
    pub k: usize,
    /// The keyword-cohesiveness rule.
    pub spec: QuerySpec,
    /// Which algorithm answers a [`QuerySpec::Community`] request. The
    /// variant specs are always answered by their index-based algorithm
    /// (`SW` / `SWT`), so they ignore this knob.
    pub algorithm: AcqAlgorithm,
}

impl Request {
    /// Starts a request for the community of `vertex` with the defaults of
    /// the paper: `k = 1`, `S = W(q)`, the `Dec` algorithm.
    pub fn community(vertex: VertexId) -> Self {
        Self {
            vertex,
            k: 1,
            spec: QuerySpec::Community { keywords: None },
            algorithm: AcqAlgorithm::default(),
        }
    }

    /// Sets the minimum in-community degree `k`.
    #[must_use]
    pub fn k(mut self, k: usize) -> Self {
        self.k = k;
        self
    }

    /// Sets the query keyword set `S`, keeping the current spec kind.
    #[must_use]
    pub fn keywords<I: IntoIterator<Item = KeywordId>>(mut self, keywords: I) -> Self {
        let keywords: Vec<KeywordId> = keywords.into_iter().collect();
        self.spec = match self.spec {
            QuerySpec::Community { .. } => QuerySpec::Community { keywords: Some(keywords) },
            QuerySpec::ExactKeywords { .. } => QuerySpec::ExactKeywords { keywords },
            QuerySpec::Threshold { theta, .. } => QuerySpec::Threshold { keywords, theta },
        };
        self
    }

    /// Sets the keyword set from dictionary terms, dropping unknown terms
    /// (they cannot be carried by anybody). Keeps the current spec kind.
    #[must_use]
    pub fn keyword_terms(self, graph: &AttributedGraph, terms: &[&str]) -> Self {
        self.keywords(terms.iter().filter_map(|t| graph.dictionary().get(t)))
    }

    /// Switches to the Variant 1 rule: every member must carry the entire
    /// set. Answered by the `SW` algorithm.
    #[must_use]
    pub fn exact_keywords<I: IntoIterator<Item = KeywordId>>(mut self, keywords: I) -> Self {
        self.spec = QuerySpec::ExactKeywords { keywords: keywords.into_iter().collect() };
        self
    }

    /// Switches to the Variant 2 rule with the given threshold `θ`, keeping
    /// the current keyword set (empty if none was set). Answered by the
    /// `SWT` algorithm.
    #[must_use]
    pub fn threshold(mut self, theta: f64) -> Self {
        let keywords = self.spec.keywords().map(<[KeywordId]>::to_vec).unwrap_or_default();
        self.spec = QuerySpec::Threshold { keywords, theta };
        self
    }

    /// Picks the algorithm for a [`QuerySpec::Community`] request.
    #[must_use]
    pub fn algorithm(mut self, algorithm: AcqAlgorithm) -> Self {
        self.algorithm = algorithm;
        self
    }

    /// Validates the request against a graph — the **single** validation path
    /// shared by every [`Executor`]: the query vertex must exist, `k` must be
    /// at least 1, every explicitly supplied keyword id must be present in
    /// the graph's dictionary, and a threshold must lie in `[0, 1]`.
    pub fn validate(&self, graph: &AttributedGraph) -> Result<(), QueryError> {
        if !graph.contains_vertex(self.vertex) {
            return Err(QueryError::UnknownVertex(self.vertex));
        }
        if self.k == 0 {
            return Err(QueryError::InvalidK);
        }
        if let Some(keywords) = self.spec.keywords() {
            for &kw in keywords {
                if graph.dictionary().term(kw).is_none() {
                    return Err(QueryError::UnknownKeyword(kw));
                }
            }
        }
        if let QuerySpec::Threshold { theta, .. } = self.spec {
            if !(0.0..=1.0).contains(&theta) {
                return Err(QueryError::InvalidTheta);
            }
        }
        Ok(())
    }
}

/// Execution metadata accompanying every [`Response`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExecutionMeta {
    /// The paper name of the algorithm that ran (`"Dec"`, `"SW"`, `"SWT"`, …).
    pub algorithm: String,
    /// The generation the query ran against (see
    /// [`Engine::apply_updates`](crate::Engine::apply_updates)).
    pub generation: u64,
    /// Wire-v1 field: reserved, always 0, removed with the protocol-version
    /// bump.
    pub cache_hits: u64,
    /// Wire-v1 field: reserved, always 0, removed with the protocol-version
    /// bump.
    pub cache_misses: u64,
    /// Wire-v1 field: reserved, always 0, removed with the protocol-version
    /// bump.
    pub cache_carried: u64,
    /// Wall-clock execution time in microseconds.
    pub wall_time_us: u64,
}

/// The answer to a [`Request`]: the communities (and work counters) of the
/// underlying [`AcqResult`] plus [`ExecutionMeta`] describing how the query
/// was served.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Response {
    /// The communities, label size and work counters.
    pub result: AcqResult,
    /// How the query was served.
    pub meta: ExecutionMeta,
}

impl Response {
    /// The returned communities.
    pub fn communities(&self) -> &[AttributedCommunity] {
        &self.result.communities
    }

    /// Canonical (sorted, deduplicated) community list — the comparison form
    /// used to check that different executors agree.
    pub fn canonical(&self) -> Vec<(Vec<KeywordId>, Vec<VertexId>)> {
        self.result.canonical()
    }
}

/// Anything that can answer ACQ [`Request`]s — the narrow waist between
/// query construction and query execution.
///
/// Implemented by the owning [`Engine`](crate::Engine) (sequential or
/// pooled, generation-swappable index) and by the
/// [`ShardedEngine`](crate::ShardedEngine); both return identical
/// communities for the same request (enforced by property tests), so callers
/// can swap executors freely.
pub trait Executor: Send + Sync {
    /// Executes one request.
    fn execute(&self, request: &Request) -> Result<Response, QueryError>;

    /// Executes a slice of requests, returning answers **in input order**.
    /// The default implementation is a sequential loop; engines with worker
    /// pools override it.
    fn execute_batch(&self, requests: &[Request]) -> Vec<Result<Response, QueryError>> {
        requests.iter().map(|request| self.execute(request)).collect()
    }
}

/// The one dispatch point every executor funnels through: validate, run the
/// spec's algorithm against the given index, and wrap the result with
/// execution metadata.
pub(crate) fn execute_on(
    graph: &AttributedGraph,
    index: &ClTree,
    generation: u64,
    request: &Request,
) -> Result<Response, QueryError> {
    request.validate(graph)?;
    let start = Instant::now();
    let (algorithm, result) = match &request.spec {
        QuerySpec::Community { keywords } => {
            let query =
                AcqQuery { vertex: request.vertex, k: request.k, keywords: keywords.clone() };
            let result = match request.algorithm {
                AcqAlgorithm::BasicG => basic_g(graph, &query),
                AcqAlgorithm::BasicW => basic_w(graph, &query),
                AcqAlgorithm::IncS => inc_s(graph, index, &query, true),
                AcqAlgorithm::IncSStar => inc_s(graph, index, &query, false),
                AcqAlgorithm::IncT => inc_t(graph, index, &query, true),
                AcqAlgorithm::IncTStar => inc_t(graph, index, &query, false),
                AcqAlgorithm::Dec => dec(graph, index, &query),
            };
            (request.algorithm.name(), result)
        }
        QuerySpec::ExactKeywords { keywords } => {
            let query =
                Variant1Query { vertex: request.vertex, k: request.k, keywords: keywords.clone() };
            ("SW", sw(graph, index, &query))
        }
        QuerySpec::Threshold { keywords, theta } => {
            let query = Variant2Query {
                vertex: request.vertex,
                k: request.k,
                keywords: keywords.clone(),
                theta: *theta,
            };
            ("SWT", swt(graph, index, &query))
        }
    };
    let wall_time_us = u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX);
    Ok(Response {
        result,
        meta: ExecutionMeta {
            algorithm: algorithm.to_string(),
            generation,
            cache_hits: 0,
            cache_misses: 0,
            cache_carried: 0,
            wall_time_us,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use acq_graph::paper_figure3_graph;

    #[test]
    fn builder_produces_the_three_spec_kinds() {
        let g = paper_figure3_graph();
        let a = g.vertex_by_label("A").unwrap();
        let x = g.dictionary().get("x").unwrap();
        let y = g.dictionary().get("y").unwrap();

        let acq = Request::community(a).k(2).algorithm(AcqAlgorithm::IncT);
        assert_eq!(acq.k, 2);
        assert_eq!(acq.spec, QuerySpec::Community { keywords: None });
        assert_eq!(acq.algorithm, AcqAlgorithm::IncT);

        let with_s = Request::community(a).k(2).keywords([x, y]);
        assert_eq!(with_s.spec, QuerySpec::Community { keywords: Some(vec![x, y]) });

        let v1 = Request::community(a).k(2).exact_keywords([x]);
        assert_eq!(v1.spec, QuerySpec::ExactKeywords { keywords: vec![x] });

        let v2 = Request::community(a).k(2).keywords([x, y]).threshold(0.5);
        assert_eq!(v2.spec, QuerySpec::Threshold { keywords: vec![x, y], theta: 0.5 });

        // `threshold` on a keyword-less request starts from the empty set.
        let bare = Request::community(a).threshold(1.0);
        assert_eq!(bare.spec, QuerySpec::Threshold { keywords: vec![], theta: 1.0 });
    }

    #[test]
    fn keyword_terms_resolve_through_the_dictionary() {
        let g = paper_figure3_graph();
        let a = g.vertex_by_label("A").unwrap();
        let x = g.dictionary().get("x").unwrap();
        let request = Request::community(a).keyword_terms(&g, &["x", "no-such-term"]);
        assert_eq!(request.spec, QuerySpec::Community { keywords: Some(vec![x]) });
    }

    #[test]
    fn validate_rejects_bad_requests() {
        let g = paper_figure3_graph();
        let a = g.vertex_by_label("A").unwrap();
        let missing = VertexId(999);
        assert_eq!(
            Request::community(missing).k(2).validate(&g),
            Err(QueryError::UnknownVertex(missing))
        );
        assert_eq!(Request::community(a).k(0).validate(&g), Err(QueryError::InvalidK));

        // Unknown keyword ids no longer pass silently — for any spec kind.
        let bogus = KeywordId(9_999);
        assert_eq!(
            Request::community(a).k(2).keywords([bogus]).validate(&g),
            Err(QueryError::UnknownKeyword(bogus))
        );
        assert_eq!(
            Request::community(a).k(2).exact_keywords([bogus]).validate(&g),
            Err(QueryError::UnknownKeyword(bogus))
        );
        assert_eq!(
            Request::community(a).k(2).keywords([bogus]).threshold(0.5).validate(&g),
            Err(QueryError::UnknownKeyword(bogus))
        );

        // Thresholds outside [0, 1] (and NaN) are rejected.
        for theta in [-0.1, 1.1, f64::NAN] {
            assert_eq!(
                Request::community(a).k(2).threshold(theta).validate(&g),
                Err(QueryError::InvalidTheta),
                "theta = {theta}"
            );
        }

        assert!(Request::community(a).k(2).validate(&g).is_ok());
    }
}
