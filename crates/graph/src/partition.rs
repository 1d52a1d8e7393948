//! Partitioning an attributed graph into balanced component shards.
//!
//! Communities never span connected components (every ACQ result is
//! connected), so components are the free unit of sharding: a query routed to
//! the shard owning its query vertex sees exactly the subgraph any algorithm
//! could ever touch. [`GraphPartition`] packs the components into
//! `num_shards` buckets balanced by vertex count (greedy largest-first into
//! the lightest bucket, with deterministic tie-breaks) and maintains the
//! global↔local vertex-id maps the scatter-gather router needs.
//!
//! # Local-id discipline
//!
//! Within each shard, local ids are assigned in **ascending global-id
//! order**. Because each component lands in exactly one shard, the local ids
//! of any one component are a monotone remap of its global ids — so every
//! id-ordered tie-break inside the query algorithms decides identically on
//! the shard graph and on the full graph, which is what makes sharded
//! execution byte-identical to single-engine execution.

use crate::components::connected_components;
use crate::graph::{AttributedGraph, GraphBuilder};
use crate::ids::VertexId;

/// A mapping of every vertex of a graph to one of `num_shards` shards, with
/// local-id maps for building and addressing per-shard subgraphs.
#[derive(Debug, Clone)]
pub struct GraphPartition {
    /// Shard index per global vertex.
    shard_of: Vec<u32>,
    /// Local (in-shard) index per global vertex.
    local_of: Vec<u32>,
    /// Per shard: the owned global ids, ascending.
    globals: Vec<Vec<VertexId>>,
}

impl GraphPartition {
    /// Partitions `graph` by connected components into `num_shards` balanced
    /// buckets (largest component first into the lightest bucket; ties break
    /// towards the lowest shard index, then the component with the smallest
    /// member — fully deterministic).
    ///
    /// Shards may be empty when the graph has fewer components than shards.
    ///
    /// # Panics
    ///
    /// Panics if `num_shards == 0`.
    pub fn by_components(graph: &AttributedGraph, num_shards: usize) -> Self {
        assert!(num_shards >= 1, "a partition needs at least one shard");
        let comps = connected_components(graph);
        // Largest first; equal sizes keep component order (ordered by
        // smallest member), so the packing is deterministic.
        let mut order: Vec<usize> = (0..comps.len()).collect();
        order.sort_by_key(|&i| std::cmp::Reverse(comps[i].len()));
        let n = graph.num_vertices();
        let mut shard_of = vec![0u32; n];
        let mut loads = vec![0usize; num_shards];
        for &ci in &order {
            let lightest = (0..num_shards).min_by_key(|&s| (loads[s], s)).expect(">= 1 shard");
            loads[lightest] += comps[ci].len();
            for v in comps[ci].iter() {
                shard_of[v.index()] = lightest as u32;
            }
        }
        Self::from_shard_of(shard_of, num_shards)
    }

    /// Rebuilds the local-id maps from a per-vertex shard assignment,
    /// numbering each shard's vertices in ascending global order.
    fn from_shard_of(shard_of: Vec<u32>, num_shards: usize) -> Self {
        let mut globals: Vec<Vec<VertexId>> = vec![Vec::new(); num_shards];
        let mut local_of = vec![0u32; shard_of.len()];
        for (i, &s) in shard_of.iter().enumerate() {
            local_of[i] = globals[s as usize].len() as u32;
            globals[s as usize].push(VertexId::from_index(i));
        }
        Self { shard_of, local_of, globals }
    }

    /// Number of shards (fixed at construction).
    pub fn num_shards(&self) -> usize {
        self.globals.len()
    }

    /// Number of vertices across all shards.
    pub fn num_vertices(&self) -> usize {
        self.shard_of.len()
    }

    /// The shard owning global vertex `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of bounds.
    pub fn shard_of(&self, v: VertexId) -> usize {
        self.shard_of[v.index()] as usize
    }

    /// The local id of global vertex `v` inside its owning shard.
    pub fn local_id(&self, v: VertexId) -> VertexId {
        VertexId(self.local_of[v.index()])
    }

    /// The global ids owned by `shard`, ascending; the inverse of
    /// [`local_id`](Self::local_id) (`globals(s)[local.index()]`).
    pub fn global_ids(&self, shard: usize) -> &[VertexId] {
        &self.globals[shard]
    }

    /// Number of vertices owned by `shard`.
    pub fn shard_len(&self, shard: usize) -> usize {
        self.globals[shard].len()
    }

    /// The shard with the fewest vertices (lowest index on ties) — the
    /// round-robin target for vertex inserts.
    pub fn lightest_shard(&self) -> usize {
        (0..self.num_shards()).min_by_key(|&s| (self.globals[s].len(), s)).expect(">= 1 shard")
    }

    /// Registers a new global vertex (id = current vertex count) on `shard`,
    /// appending it as that shard's next local id. Returns the new global id.
    pub fn push_vertex(&mut self, shard: usize) -> VertexId {
        let global = VertexId::from_index(self.shard_of.len());
        self.shard_of.push(shard as u32);
        self.local_of.push(self.globals[shard].len() as u32);
        self.globals[shard].push(global);
        global
    }

    /// Materialises the induced subgraph of `shard` from the full graph:
    /// the shard's vertices in ascending global order (so local ids follow
    /// the monotone-remap discipline), their labels and keyword sets, and
    /// every edge with both endpoints in the shard.
    ///
    /// The shard graph is seeded with the **entire** keyword dictionary of
    /// `graph`, interned in global id order, so `KeywordId`s mean the same
    /// thing on every shard as on the full graph.
    pub fn extract_shard(&self, graph: &AttributedGraph, shard: usize) -> AttributedGraph {
        let mut b = GraphBuilder::new();
        for (_, term) in graph.dictionary().iter() {
            b.intern_keyword(term);
        }
        for &g in &self.globals[shard] {
            b.add_vertex_with_ids(graph.label(g).map(str::to_owned), graph.keyword_set(g).clone());
        }
        for &g in &self.globals[shard] {
            for &u in graph.neighbors(g) {
                if g < u {
                    debug_assert_eq!(
                        self.shard_of(u),
                        shard,
                        "edge {g:?}-{u:?} crosses shards: components must not be split"
                    );
                    b.add_edge(self.local_id(g), self.local_id(u))
                        .expect("remapped endpoints are in range");
                }
            }
        }
        b.build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{paper_figure3_graph, unlabeled_graph};

    #[test]
    fn partition_covers_every_vertex_exactly_once() {
        let g = paper_figure3_graph();
        for shards in 1..=4 {
            let p = GraphPartition::by_components(&g, shards);
            assert_eq!(p.num_shards(), shards);
            let total: usize = (0..shards).map(|s| p.shard_len(s)).sum();
            assert_eq!(total, g.num_vertices());
            for v in g.vertices() {
                let s = p.shard_of(v);
                assert_eq!(p.global_ids(s)[p.local_id(v).index()], v);
            }
        }
    }

    #[test]
    fn components_stay_whole_and_buckets_balance() {
        // Figure 3: components {A..G} (7), {H, I} (2), {J} (1).
        let g = paper_figure3_graph();
        let p = GraphPartition::by_components(&g, 2);
        let a = g.vertex_by_label("A").unwrap();
        let e = g.vertex_by_label("E").unwrap();
        let h = g.vertex_by_label("H").unwrap();
        let i = g.vertex_by_label("I").unwrap();
        let j = g.vertex_by_label("J").unwrap();
        assert_eq!(p.shard_of(a), p.shard_of(e), "component stays whole");
        assert_eq!(p.shard_of(h), p.shard_of(i), "component stays whole");
        // Largest-first packing: {A..G} -> shard 0; {H,I} and {J} -> shard 1.
        assert_eq!(p.shard_len(0), 7);
        assert_eq!(p.shard_len(1), 3);
        assert_ne!(p.shard_of(a), p.shard_of(h));
        assert_eq!(p.shard_of(h), p.shard_of(j));
    }

    #[test]
    fn extracted_shard_preserves_structure_and_dictionary() {
        let g = paper_figure3_graph();
        let p = GraphPartition::by_components(&g, 2);
        for s in 0..2 {
            let sub = p.extract_shard(&g, s);
            assert_eq!(sub.num_vertices(), p.shard_len(s));
            assert_eq!(sub.dictionary().len(), g.dictionary().len(), "full dictionary seeded");
            for &gv in p.global_ids(s) {
                let lv = p.local_id(gv);
                assert_eq!(sub.label(lv), g.label(gv));
                assert_eq!(sub.keyword_set(lv), g.keyword_set(gv), "ids survive the remap");
                assert_eq!(sub.degree(lv), g.degree(gv), "in-component degrees unchanged");
            }
        }
        // Dictionary ids agree term-for-term.
        let sub = p.extract_shard(&g, 0);
        for (id, term) in g.dictionary().iter() {
            assert_eq!(sub.dictionary().get(term), Some(id));
        }
    }

    #[test]
    fn push_vertex_appends_to_the_chosen_shard() {
        let g = unlabeled_graph(3, &[]);
        let mut p = GraphPartition::by_components(&g, 2);
        let lightest = p.lightest_shard();
        let v = p.push_vertex(lightest);
        assert_eq!(v, VertexId(3));
        assert_eq!(p.shard_of(v), lightest);
        assert_eq!(p.local_id(v).index(), p.shard_len(lightest) - 1);
        assert_eq!(p.num_vertices(), 4);
    }
}
