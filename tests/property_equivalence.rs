//! Property-based integration tests on *generated* datasets (as opposed to
//! the purely random graphs used by the per-crate property tests), built
//! around the unified `Request`/`Executor` surface:
//!
//! * **executor equivalence** — any request (all three spec kinds, every
//!   algorithm) produces identical results from the algorithms' free
//!   functions and from pooled `Engine`s across thread counts, run after run;
//! * the monotonicity properties of the problem variants.

use attributed_community_search::acq::{basic_g, basic_w, dec, inc_s, inc_t, sw, swt};
use attributed_community_search::datagen;
use attributed_community_search::prelude::*;
use proptest::prelude::*;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::sync::{Arc, OnceLock};

/// One generated graph is shared by all cases (generation dominates runtime);
/// proptest varies the query vertex, k, the spec kind and the keyword subset.
fn shared_graph() -> &'static Arc<AttributedGraph> {
    static GRAPH: OnceLock<Arc<AttributedGraph>> = OnceLock::new();
    GRAPH.get_or_init(|| Arc::new(datagen::generate(&datagen::tiny())))
}

/// The sequential engine the single-executor properties run on.
fn reference_engine() -> &'static Engine {
    static ENGINE: OnceLock<Engine> = OnceLock::new();
    ENGINE.get_or_init(|| Engine::builder(Arc::clone(shared_graph())).threads(1).build())
}

/// Pooled engines sharing the reference index: 1, 2 and 4 workers.
fn batch_engines() -> &'static Vec<Engine> {
    static ENGINES: OnceLock<Vec<Engine>> = OnceLock::new();
    ENGINES.get_or_init(|| {
        let index = reference_engine().index();
        [1usize, 2, 4]
            .into_iter()
            .map(|threads| {
                Engine::builder(Arc::clone(shared_graph()))
                    .index(Arc::clone(&index))
                    .threads(threads)
                    .build()
            })
            .collect()
    })
}

/// The expected answer, straight from the algorithm's free function — the
/// one entry point the engines dispatch to.
fn free_function_answer(request: &Request) -> Result<AcqResult, QueryError> {
    let graph = shared_graph();
    request.validate(graph)?;
    let index = reference_engine().index();
    let (vertex, k) = (request.vertex, request.k);
    Ok(match &request.spec {
        QuerySpec::Community { keywords } => {
            let query = AcqQuery { vertex, k, keywords: keywords.clone() };
            match request.algorithm {
                AcqAlgorithm::BasicG => basic_g(graph, &query),
                AcqAlgorithm::BasicW => basic_w(graph, &query),
                AcqAlgorithm::IncS => inc_s(graph, &index, &query, true),
                AcqAlgorithm::IncSStar => inc_s(graph, &index, &query, false),
                AcqAlgorithm::IncT => inc_t(graph, &index, &query, true),
                AcqAlgorithm::IncTStar => inc_t(graph, &index, &query, false),
                AcqAlgorithm::Dec => dec(graph, &index, &query),
            }
        }
        QuerySpec::ExactKeywords { keywords } => {
            sw(graph, &index, &Variant1Query { vertex, k, keywords: keywords.clone() })
        }
        QuerySpec::Threshold { keywords, theta } => swt(
            graph,
            &index,
            &Variant2Query { vertex, k, keywords: keywords.clone(), theta: *theta },
        ),
    })
}

/// An arbitrary request against the shared graph: any vertex, any small `k`,
/// any of the three spec kinds, any algorithm, keywords drawn from `W(q)`.
fn arb_request() -> impl Strategy<Value = Request> {
    (
        0usize..1000,                    // vertex pick
        1usize..6,                       // k
        0usize..AcqAlgorithm::ALL.len(), // algorithm pick
        0usize..3,                       // spec kind
        0u64..1000,                      // keyword subset seed
        0.0f64..1.0,                     // theta
    )
        .prop_map(|(vertex_pick, k, alg, kind, kw_seed, theta)| {
            let graph = shared_graph();
            let q = VertexId::from_index(vertex_pick % graph.num_vertices());
            let wq: Vec<KeywordId> = graph.keyword_set(q).iter().collect();
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(kw_seed);
            let take = if wq.is_empty() { 0 } else { kw_seed as usize % (wq.len() + 1) };
            let s: Vec<KeywordId> = wq.choose_multiple(&mut rng, take).copied().collect();
            let request = Request::community(q).k(k).algorithm(AcqAlgorithm::ALL[alg]);
            match kind {
                0 if s.is_empty() => request,
                0 => request.keywords(s),
                1 => request.exact_keywords(s),
                _ => request.keywords(s).threshold(theta),
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Executor equivalence: for any batch of requests, every pooled engine
    /// (1, 2 and 4 workers) returns the same results — communities, label
    /// size and work counters — as the algorithm's free function, on a first
    /// run and again on a second. All three spec kinds and all seven
    /// algorithms flow through this single property.
    #[test]
    fn executors_agree_for_any_request(requests in proptest::collection::vec(arb_request(), 1..10)) {
        let expected: Vec<_> = requests.iter().map(free_function_answer).collect();
        for engine in batch_engines() {
            for run in ["first", "second"] {
                let batched = engine.execute_batch(&requests);
                prop_assert_eq!(batched.len(), expected.len());
                for ((request, got), want) in requests.iter().zip(&batched).zip(&expected) {
                    let got = got.clone().map(|r| r.result);
                    prop_assert_eq!(
                        &got, want,
                        "{} run: request {:?} must agree across executors", run, request
                    );
                }
            }
        }
    }

    /// The sequential engine agrees with itself across algorithm picks for
    /// the `Community` spec (canonical form), pinning that the algorithm knob
    /// changes the work, never the answer.
    #[test]
    fn algorithms_agree_on_generated_graph(
        vertex_pick in 0usize..1000,
        k in 1usize..6,
        keyword_subset_seed in 0u64..1000,
    ) {
        let graph = shared_graph();
        let engine = reference_engine();
        let q = VertexId::from_index(vertex_pick % graph.num_vertices());
        let wq: Vec<KeywordId> = graph.keyword_set(q).iter().collect();
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(keyword_subset_seed);
        let take = if wq.is_empty() { 0 } else { keyword_subset_seed as usize % (wq.len() + 1) };
        let s: Vec<KeywordId> = wq.choose_multiple(&mut rng, take).copied().collect();
        let base = if s.is_empty() {
            Request::community(q).k(k)
        } else {
            Request::community(q).k(k).keywords(s)
        };
        let reference = engine
            .execute(&base.clone().algorithm(AcqAlgorithm::BasicG))
            .unwrap()
            .canonical();
        for algorithm in AcqAlgorithm::ALL {
            let response = engine.execute(&base.clone().algorithm(algorithm)).unwrap();
            prop_assert_eq!(response.canonical(), reference.clone(), "{}", algorithm.name());
        }
    }

    /// Variant 2 monotonicity: raising θ never enlarges the community, and
    /// θ = 1.0 coincides with Variant 1 on the same keyword set.
    #[test]
    fn variant2_is_monotone_in_theta(
        vertex_pick in 0usize..1000,
        k in 1usize..5,
    ) {
        let graph = shared_graph();
        let engine = reference_engine();
        let q = VertexId::from_index(vertex_pick % graph.num_vertices());
        let keywords: Vec<KeywordId> = graph.keyword_set(q).iter().take(4).collect();
        if keywords.is_empty() {
            return Ok(());
        }
        let mut previous_size: Option<usize> = None;
        for theta in [0.0, 0.25, 0.5, 0.75, 1.0] {
            let request =
                Request::community(q).k(k).keywords(keywords.iter().copied()).threshold(theta);
            let result = engine.execute(&request).unwrap().result;
            let size = result.communities.first().map(AttributedCommunity::len);
            if let (Some(prev), Some(now)) = (previous_size, size) {
                prop_assert!(now <= prev, "θ increased but the community grew: {prev} -> {now}");
            }
            if size.is_some() {
                previous_size = size;
            } else {
                // Once the community disappears it must stay gone for larger θ.
                previous_size = Some(0);
            }
        }
        // θ = 1.0 equals Variant 1.
        let v2 = engine
            .execute(&Request::community(q).k(k).keywords(keywords.iter().copied()).threshold(1.0))
            .unwrap();
        let v1 = engine
            .execute(&Request::community(q).k(k).exact_keywords(keywords))
            .unwrap();
        prop_assert_eq!(
            v2.communities().first().map(|c| c.vertices.clone()),
            v1.communities().first().map(|c| c.vertices.clone())
        );
    }

    /// The k-monotonicity of the AC: for the same query, increasing k can only
    /// shrink (or eliminate) each returned community's vertex pool, because a
    /// (k+1)-core is contained in a k-core. We check the weaker, well-defined
    /// consequence: the size of the largest returned community is
    /// non-increasing in k whenever the AC-label stays the same.
    #[test]
    fn community_size_shrinks_with_k_for_fixed_label(vertex_pick in 0usize..1000) {
        let graph = shared_graph();
        let engine = reference_engine();
        let q = VertexId::from_index(vertex_pick % graph.num_vertices());
        let mut previous: Option<(usize, Vec<KeywordId>)> = None;
        for k in 1..=5usize {
            let result = engine.execute(&Request::community(q).k(k)).unwrap().result;
            let Some(largest) = result.communities.iter().map(AttributedCommunity::len).max()
            else {
                break;
            };
            let label = result.communities[0].label.clone();
            if let Some((prev_size, prev_label)) = &previous {
                if *prev_label == label {
                    prop_assert!(largest <= *prev_size,
                        "k went up but the community grew: {prev_size} -> {largest}");
                }
            }
            previous = Some((largest, label));
        }
    }
}
