//! Whole-graph connectivity helpers.

use crate::graph::AttributedGraph;
use crate::subgraph::VertexSubset;

/// Computes all connected components of the whole graph.
pub fn connected_components(graph: &AttributedGraph) -> Vec<VertexSubset> {
    VertexSubset::full(graph.num_vertices()).components(graph)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::paper_figure3_graph;

    #[test]
    fn figure3_graph_has_three_components() {
        let g = paper_figure3_graph();
        let comps = connected_components(&g);
        let mut sizes: Vec<usize> = comps.iter().map(VertexSubset::len).collect();
        sizes.sort_unstable();
        assert_eq!(sizes, vec![1, 2, 7]);
    }
}
