//! The ACQ problem variants of the paper's Appendix G.
//!
//! * **Variant 1** — the returned community must be a connected k-core
//!   containing `q` in which *every* member contains the entire user-supplied
//!   keyword set `S` (no maximality search). Algorithms: `basic-g-v1`
//!   (Algorithm 10), `basic-w-v1` (Algorithm 11) and the index-based `SW`
//!   (Algorithm 12).
//! * **Variant 2** — keyword cohesiveness is relaxed: every member must
//!   contain at least `⌈θ·|S|⌉` keywords of `S`, for a threshold
//!   `θ ∈ [0, 1]`. Algorithms: `basic-g-v2`, `basic-w-v2` and the index-based
//!   `SWT`.

use crate::common::{filter_by_keywords, keyword_pool, verify_candidate};
use crate::query::{AcqResult, AttributedCommunity, QueryStats};
use acq_cltree::ClTree;
use acq_graph::{AttributedGraph, KeywordId, VertexId, VertexSubset};
use acq_kcore::peel_to_kcore_containing;

/// A Variant 1 query: the community must contain the full keyword set `S`.
#[derive(Debug, Clone)]
pub struct Variant1Query {
    /// The query vertex.
    pub vertex: VertexId,
    /// Minimum in-community degree.
    pub k: usize,
    /// The required keyword set (every member must contain all of it).
    pub keywords: Vec<KeywordId>,
}

/// A Variant 2 query: every member must contain at least `θ·|S|` keywords of `S`.
#[derive(Debug, Clone)]
pub struct Variant2Query {
    /// The query vertex.
    pub vertex: VertexId,
    /// Minimum in-community degree.
    pub k: usize,
    /// The reference keyword set.
    pub keywords: Vec<KeywordId>,
    /// Fraction of `keywords` each member must carry, in `[0, 1]`.
    pub theta: f64,
}

impl Variant2Query {
    /// The minimum number of keywords of `S` a member must carry:
    /// `⌈θ·|S|⌉`, clamped to at least 0 and at most `|S|`.
    pub fn required_matches(&self) -> usize {
        let raw = (self.theta * self.keywords.len() as f64).ceil();
        (raw.max(0.0) as usize).min(self.keywords.len())
    }
}

fn sorted(keywords: &[KeywordId]) -> Vec<KeywordId> {
    let mut v = keywords.to_vec();
    v.sort_unstable();
    v.dedup();
    v
}

fn single_community(
    label: Vec<KeywordId>,
    community: Option<VertexSubset>,
    stats: QueryStats,
) -> AcqResult {
    match community {
        Some(c) => AcqResult {
            label_size: label.len(),
            communities: vec![AttributedCommunity::new(label, c.sorted_members())],
            stats,
        },
        None => AcqResult::empty(stats),
    }
}

// ---------------------------------------------------------------------------
// Variant 1
// ---------------------------------------------------------------------------

/// `basic-g-v1` (Algorithm 10): find the k-ĉore containing `q` by peeling,
/// keep only the vertices containing `S`, then peel again.
pub fn basic_g_v1(graph: &AttributedGraph, query: &Variant1Query) -> AcqResult {
    let mut stats = QueryStats::default();
    let s = sorted(&query.keywords);
    let full = VertexSubset::full(graph.num_vertices());
    let Some(kcore) = peel_to_kcore_containing(graph, &full, query.vertex, query.k) else {
        return AcqResult::empty(stats);
    };
    let pool = filter_by_keywords(graph, kcore.iter(), &s);
    let community = verify_candidate(graph, query.vertex, query.k, &pool, &mut stats);
    single_community(s, community, stats)
}

/// `basic-w-v1` (Algorithm 11): keyword filtering over the whole graph first.
pub fn basic_w_v1(graph: &AttributedGraph, query: &Variant1Query) -> AcqResult {
    let mut stats = QueryStats::default();
    let s = sorted(&query.keywords);
    let pool = filter_by_keywords(graph, graph.vertices(), &s);
    let community = verify_candidate(graph, query.vertex, query.k, &pool, &mut stats);
    single_community(s, community, stats)
}

/// `SW` (Algorithm 12): locate the k-ĉore through the CL-tree, collect the
/// vertices containing `S` by intersecting inverted lists, then peel.
pub fn sw(graph: &AttributedGraph, index: &ClTree, query: &Variant1Query) -> AcqResult {
    let mut stats = QueryStats::default();
    let s = sorted(&query.keywords);
    let Some(node) = index.locate_core(query.vertex, query.k as u32) else {
        return AcqResult::empty(stats);
    };
    let pool = keyword_pool(graph, index, node, &s, true);
    let community = verify_candidate(graph, query.vertex, query.k, &pool, &mut stats);
    single_community(s, community, stats)
}

// ---------------------------------------------------------------------------
// Variant 2
// ---------------------------------------------------------------------------

fn matches_threshold(
    graph: &AttributedGraph,
    v: VertexId,
    s: &[KeywordId],
    required: usize,
) -> bool {
    graph.keyword_set(v).intersection_size(s) >= required
}

/// `basic-g-v2`: structure first, then the relaxed keyword constraint.
pub fn basic_g_v2(graph: &AttributedGraph, query: &Variant2Query) -> AcqResult {
    let mut stats = QueryStats::default();
    let s = sorted(&query.keywords);
    let required = query.required_matches();
    let full = VertexSubset::full(graph.num_vertices());
    let Some(kcore) = peel_to_kcore_containing(graph, &full, query.vertex, query.k) else {
        return AcqResult::empty(stats);
    };
    let pool = VertexSubset::from_iter(
        graph.num_vertices(),
        kcore.iter().filter(|&v| matches_threshold(graph, v, &s, required)),
    );
    let community = verify_candidate(graph, query.vertex, query.k, &pool, &mut stats);
    single_community(Vec::new(), community, stats)
}

/// `basic-w-v2`: relaxed keyword filtering over the whole graph first.
pub fn basic_w_v2(graph: &AttributedGraph, query: &Variant2Query) -> AcqResult {
    let mut stats = QueryStats::default();
    let s = sorted(&query.keywords);
    let required = query.required_matches();
    let pool = VertexSubset::from_iter(
        graph.num_vertices(),
        graph.vertices().filter(|&v| matches_threshold(graph, v, &s, required)),
    );
    let community = verify_candidate(graph, query.vertex, query.k, &pool, &mut stats);
    single_community(Vec::new(), community, stats)
}

/// `SWT` (search by keywords with threshold): the index-based Variant 2 solver.
pub fn swt(graph: &AttributedGraph, index: &ClTree, query: &Variant2Query) -> AcqResult {
    let mut stats = QueryStats::default();
    let s = sorted(&query.keywords);
    let required = query.required_matches();
    let Some(node) = index.locate_core(query.vertex, query.k as u32) else {
        return AcqResult::empty(stats);
    };
    let pool = VertexSubset::from_iter(
        graph.num_vertices(),
        index.subtree_vertex_iter(node).filter(|&v| matches_threshold(graph, v, &s, required)),
    );
    let community = verify_candidate(graph, query.vertex, query.k, &pool, &mut stats);
    single_community(Vec::new(), community, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use acq_cltree::build_advanced;
    use acq_graph::paper_figure3_graph;

    fn kw(graph: &AttributedGraph, terms: &[&str]) -> Vec<KeywordId> {
        terms.iter().map(|t| graph.dictionary().get(t).unwrap()).collect()
    }

    #[test]
    fn example7_variant1() {
        // Example 7: q=A, k=2, S={x} -> community {A,B,C,D}.
        let g = paper_figure3_graph();
        let index = build_advanced(&g, true);
        let query = Variant1Query {
            vertex: g.vertex_by_label("A").unwrap(),
            k: 2,
            keywords: kw(&g, &["x"]),
        };
        for result in [basic_g_v1(&g, &query), basic_w_v1(&g, &query), sw(&g, &index, &query)] {
            assert_eq!(result.communities.len(), 1);
            assert_eq!(result.communities[0].member_names(&g), vec!["A", "B", "C", "D"]);
            assert_eq!(result.label_size, 1);
        }
    }

    #[test]
    fn example7_variant2() {
        // Example 7: q=A, k=2, S={x,y}, θ=0.5 -> community {A,B,C,D,E}
        // (every member carries at least one of x, y).
        let g = paper_figure3_graph();
        let index = build_advanced(&g, true);
        let query = Variant2Query {
            vertex: g.vertex_by_label("A").unwrap(),
            k: 2,
            keywords: kw(&g, &["x", "y"]),
            theta: 0.5,
        };
        assert_eq!(query.required_matches(), 1);
        for result in [basic_g_v2(&g, &query), basic_w_v2(&g, &query), swt(&g, &index, &query)] {
            assert_eq!(result.communities.len(), 1);
            assert_eq!(result.communities[0].member_names(&g), vec!["A", "B", "C", "D", "E"]);
        }
    }

    #[test]
    fn variant1_with_unsatisfiable_keywords_is_empty() {
        let g = paper_figure3_graph();
        let index = build_advanced(&g, true);
        // No 2-core whose members all contain z.
        let query = Variant1Query {
            vertex: g.vertex_by_label("D").unwrap(),
            k: 2,
            keywords: kw(&g, &["z"]),
        };
        assert!(basic_g_v1(&g, &query).is_empty());
        assert!(basic_w_v1(&g, &query).is_empty());
        assert!(sw(&g, &index, &query).is_empty());
    }

    #[test]
    fn variant1_with_k_above_core_is_empty() {
        let g = paper_figure3_graph();
        let index = build_advanced(&g, true);
        let query = Variant1Query {
            vertex: g.vertex_by_label("A").unwrap(),
            k: 4,
            keywords: kw(&g, &["x"]),
        };
        assert!(sw(&g, &index, &query).is_empty());
        assert!(basic_g_v1(&g, &query).is_empty());
    }

    #[test]
    fn variant2_theta_extremes() {
        let g = paper_figure3_graph();
        let index = build_advanced(&g, true);
        let a = g.vertex_by_label("A").unwrap();
        // θ=0: no keyword constraint at all -> the full 2-ĉore {A,B,C,D,E}.
        let loose = Variant2Query { vertex: a, k: 2, keywords: kw(&g, &["x", "y"]), theta: 0.0 };
        assert_eq!(loose.required_matches(), 0);
        assert_eq!(swt(&g, &index, &loose).communities[0].len(), 5);
        // θ=1: equivalent to Variant 1 -> {A, C, D}.
        let strict = Variant2Query { vertex: a, k: 2, keywords: kw(&g, &["x", "y"]), theta: 1.0 };
        assert_eq!(strict.required_matches(), 2);
        let result = swt(&g, &index, &strict);
        assert_eq!(result.communities[0].member_names(&g), vec!["A", "C", "D"]);
        let v1 = Variant1Query { vertex: a, k: 2, keywords: kw(&g, &["x", "y"]) };
        assert_eq!(result.communities[0].vertices, sw(&g, &index, &v1).communities[0].vertices);
    }

    #[test]
    fn variant_algorithms_agree_across_the_graph() {
        let g = paper_figure3_graph();
        let index = build_advanced(&g, true);
        let all_kw: Vec<Vec<KeywordId>> =
            vec![kw(&g, &["x"]), kw(&g, &["y"]), kw(&g, &["x", "y"]), kw(&g, &["y", "z"])];
        for label in ["A", "C", "D", "E", "H"] {
            let v = g.vertex_by_label(label).unwrap();
            for k in 1..=3usize {
                for keywords in &all_kw {
                    let q1 = Variant1Query { vertex: v, k, keywords: keywords.clone() };
                    let r_basic = basic_g_v1(&g, &q1).canonical();
                    assert_eq!(basic_w_v1(&g, &q1).canonical(), r_basic);
                    assert_eq!(sw(&g, &index, &q1).canonical(), r_basic);
                    for theta in [0.3, 0.6, 1.0] {
                        let q2 = Variant2Query { vertex: v, k, keywords: keywords.clone(), theta };
                        let r2 = basic_g_v2(&g, &q2).canonical();
                        assert_eq!(basic_w_v2(&g, &q2).canonical(), r2);
                        assert_eq!(swt(&g, &index, &q2).canonical(), r2);
                    }
                }
            }
        }
    }
}
