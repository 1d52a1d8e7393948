//! A CODICIL-style community-*detection* baseline (Ruan et al., WWW 2013).
//!
//! CODICIL augments the original graph with *content edges* between vertices
//! whose keyword sets are similar, and then partitions the augmented graph
//! into a user-chosen number of clusters. It is an **offline** method: all
//! clusters are computed once; answering a community-search query amounts to
//! looking up the cluster that contains the query vertex.
//!
//! Substitution note: the original system uses kNN content
//! edges over TF-IDF vectors plus a spectral / multi-level partitioner. Here
//! the content edges come from Jaccard similarity over the interned keyword
//! sets (candidates restricted to the 2-hop neighbourhood, as CODICIL's
//! sampling also does in spirit), and the partitioner is a seeded multi-source
//! BFS (Voronoi-style) on the augmented graph, which lets the experiment
//! control the number of clusters exactly — the property the paper's Figure 8
//! varies (`Cod1K` … `Cod100K`). The qualitative behaviour the paper
//! demonstrates is preserved: no minimum-degree guarantee, and keyword
//! cohesion that degrades when the cluster count is badly chosen.

use acq_graph::{AttributedGraph, VertexId, VertexSubset};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::{HashSet, VecDeque};

/// Configuration of the CODICIL-style baseline.
#[derive(Debug, Clone)]
pub struct CodicilConfig {
    /// Number of clusters to produce (the paper sweeps 1K … 100K).
    pub num_clusters: usize,
    /// How many content edges to add per vertex (top-`c` most similar
    /// 2-hop neighbours). The original paper uses k=50 nearest neighbours;
    /// a smaller default keeps the synthetic experiments fast.
    pub content_edges_per_vertex: usize,
    /// RNG seed for the cluster seeds (the partitioner is seeded BFS).
    pub seed: u64,
}

impl Default for CodicilConfig {
    fn default() -> Self {
        Self { num_clusters: 64, content_edges_per_vertex: 5, seed: 0x0D1C1 }
    }
}

/// The offline clustering produced by the CODICIL-style baseline.
#[derive(Debug, Clone)]
pub struct Codicil {
    /// Cluster id of every vertex.
    assignment: Vec<usize>,
    /// Members of every cluster.
    clusters: Vec<Vec<VertexId>>,
}

impl Codicil {
    /// Runs the offline pipeline: content-edge augmentation followed by
    /// seeded multi-source BFS partitioning into `config.num_clusters` parts.
    pub fn detect(graph: &AttributedGraph, config: &CodicilConfig) -> Self {
        let n = graph.num_vertices();
        if n == 0 {
            return Self { assignment: Vec::new(), clusters: Vec::new() };
        }
        let augmented = augment_with_content_edges(graph, config.content_edges_per_vertex);

        // Seeded multi-source BFS over the augmented adjacency.
        let k = config.num_clusters.clamp(1, n);
        let mut rng = ChaCha8Rng::seed_from_u64(config.seed);
        let mut order: Vec<usize> = (0..n).collect();
        order.shuffle(&mut rng);
        let seeds: Vec<usize> = order.into_iter().take(k).collect();

        let mut assignment = vec![usize::MAX; n];
        let mut queue: VecDeque<usize> = VecDeque::new();
        for (cluster, &seed) in seeds.iter().enumerate() {
            assignment[seed] = cluster;
            queue.push_back(seed);
        }
        while let Some(v) = queue.pop_front() {
            let cluster = assignment[v];
            for &u in &augmented[v] {
                if assignment[u.index()] == usize::MAX {
                    assignment[u.index()] = cluster;
                    queue.push_back(u.index());
                }
            }
        }
        // Components unreachable from any seed become one extra cluster each,
        // mirroring how a real partitioner handles disconnected pieces.
        let mut next_cluster = k;
        for start in 0..n {
            if assignment[start] != usize::MAX {
                continue;
            }
            assignment[start] = next_cluster;
            let mut flood = VecDeque::from([start]);
            while let Some(v) = flood.pop_front() {
                for &u in &augmented[v] {
                    if assignment[u.index()] == usize::MAX {
                        assignment[u.index()] = next_cluster;
                        flood.push_back(u.index());
                    }
                }
            }
            next_cluster += 1;
        }

        let mut clusters: Vec<Vec<VertexId>> = vec![Vec::new(); next_cluster];
        for (i, &c) in assignment.iter().enumerate() {
            clusters[c].push(VertexId::from_index(i));
        }
        Self { assignment, clusters }
    }

    /// Number of clusters actually produced.
    pub fn num_clusters(&self) -> usize {
        self.clusters.len()
    }

    /// Cluster id of a vertex.
    pub fn cluster_of(&self, v: VertexId) -> usize {
        self.assignment[v.index()]
    }

    /// Members of the cluster with the given id.
    pub fn cluster_members(&self, cluster: usize) -> &[VertexId] {
        &self.clusters[cluster]
    }

    /// "Community search" with an offline detection method: simply the cluster
    /// containing the query vertex.
    pub fn community_of(&self, graph: &AttributedGraph, q: VertexId) -> VertexSubset {
        VertexSubset::from_iter(
            graph.num_vertices(),
            self.cluster_members(self.cluster_of(q)).iter().copied(),
        )
    }
}

/// Adds up to `per_vertex` content edges per vertex towards its most
/// keyword-similar 2-hop neighbours, returning the augmented adjacency lists.
fn augment_with_content_edges(graph: &AttributedGraph, per_vertex: usize) -> Vec<Vec<VertexId>> {
    let n = graph.num_vertices();
    let mut adjacency: Vec<Vec<VertexId>> =
        (0..n).map(|i| graph.neighbors(VertexId::from_index(i)).to_vec()).collect();
    if per_vertex == 0 {
        return adjacency;
    }
    for v in graph.vertices() {
        if graph.keyword_set(v).is_empty() {
            continue;
        }
        // Candidate pool: 2-hop neighbourhood (capped for very dense hubs).
        let mut candidates: HashSet<VertexId> = HashSet::new();
        for &u in graph.neighbors(v) {
            for &w in graph.neighbors(u) {
                if w != v && !graph.has_edge(v, w) {
                    candidates.insert(w);
                    if candidates.len() >= 64 {
                        break;
                    }
                }
            }
            if candidates.len() >= 64 {
                break;
            }
        }
        let mut scored: Vec<(f64, VertexId)> = candidates
            .into_iter()
            .map(|w| (graph.keyword_set(v).jaccard(graph.keyword_set(w)), w))
            .filter(|&(s, _)| s > 0.0)
            .collect();
        scored.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap().then_with(|| a.1.cmp(&b.1)));
        for &(_, w) in scored.iter().take(per_vertex) {
            adjacency[v.index()].push(w);
            adjacency[w.index()].push(v);
        }
    }
    for list in &mut adjacency {
        list.sort_unstable();
        list.dedup();
    }
    adjacency
}

#[cfg(test)]
mod tests {
    use super::*;
    use acq_graph::paper_figure3_graph;

    #[test]
    fn clustering_covers_every_vertex_exactly_once() {
        let g = paper_figure3_graph();
        let cod = Codicil::detect(&g, &CodicilConfig { num_clusters: 3, ..Default::default() });
        let total: usize = (0..cod.num_clusters()).map(|c| cod.cluster_members(c).len()).sum();
        assert_eq!(total, g.num_vertices());
        for v in g.vertices() {
            assert!(cod.cluster_members(cod.cluster_of(v)).contains(&v));
        }
    }

    #[test]
    fn cluster_count_tracks_configuration() {
        let g = paper_figure3_graph();
        let few = Codicil::detect(&g, &CodicilConfig { num_clusters: 2, ..Default::default() });
        let many = Codicil::detect(&g, &CodicilConfig { num_clusters: 8, ..Default::default() });
        assert!(few.num_clusters() <= many.num_clusters());
        assert!(few.num_clusters() >= 2, "disconnected pieces may add singletons");
        // Asking for more clusters than vertices degenerates gracefully.
        let extreme =
            Codicil::detect(&g, &CodicilConfig { num_clusters: 1000, ..Default::default() });
        assert!(extreme.num_clusters() <= g.num_vertices());
    }

    #[test]
    fn query_returns_the_cluster_containing_q() {
        let g = paper_figure3_graph();
        let cod = Codicil::detect(&g, &CodicilConfig { num_clusters: 3, ..Default::default() });
        let a = g.vertex_by_label("A").unwrap();
        let community = cod.community_of(&g, a);
        assert!(community.contains(a));
        assert!(!community.is_empty());
    }

    #[test]
    fn detection_is_deterministic_for_a_fixed_seed() {
        let g = paper_figure3_graph();
        let cfg = CodicilConfig { num_clusters: 4, content_edges_per_vertex: 3, seed: 7 };
        let c1 = Codicil::detect(&g, &cfg);
        let c2 = Codicil::detect(&g, &cfg);
        for v in g.vertices() {
            assert_eq!(c1.cluster_of(v), c2.cluster_of(v));
        }
    }

    #[test]
    fn empty_graph_is_handled() {
        let g = acq_graph::unlabeled_graph(0, &[]);
        let cod = Codicil::detect(&g, &CodicilConfig::default());
        assert_eq!(cod.num_clusters(), 0);
    }
}
