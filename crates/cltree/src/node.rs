//! CL-tree nodes.

use acq_graph::{KeywordId, VertexId};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Index of a node inside a [`ClTree`](crate::ClTree)'s arena.
pub type NodeId = usize;

/// One node of the CL-tree (Section 5.1 of the paper).
///
/// A node represents one k-ĉore; after compression it *owns* only the vertices
/// whose core number equals the node's `core_num` (every graph vertex appears
/// in exactly one node). The four fields mirror the paper's description:
/// `coreNum`, `vertexSet`, `invertedList` and `childList`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ClTreeNode {
    /// Core number of the k-ĉore this node represents.
    pub core_num: u32,
    /// The vertices owned by this node (core number == `core_num`).
    pub vertices: Vec<VertexId>,
    /// Inverted keyword index over `vertices`: keyword → sorted owner list.
    /// A `BTreeMap` keeps iteration deterministic, which the tests rely on.
    pub inverted: BTreeMap<KeywordId, Vec<VertexId>>,
    /// Child nodes (k-ĉores of larger core number nested inside this one).
    pub children: Vec<NodeId>,
    /// Parent node; `None` only for the root (core number 0).
    pub parent: Option<NodeId>,
}

impl ClTreeNode {
    /// Creates a node owning `vertices` with the given core number.
    pub fn new(core_num: u32, mut vertices: Vec<VertexId>) -> Self {
        vertices.sort_unstable();
        Self { core_num, vertices, inverted: BTreeMap::new(), children: Vec::new(), parent: None }
    }

    /// Number of vertices owned by this node (not counting descendants).
    pub fn len(&self) -> usize {
        self.vertices.len()
    }

    /// Whether the node owns no vertex (possible for internal nodes whose
    /// vertices all belong to deeper ĉores).
    pub fn is_empty(&self) -> bool {
        self.vertices.is_empty()
    }

    /// The owned vertices whose keyword set contains `keyword`, according to
    /// the inverted list.
    pub fn vertices_with_keyword(&self, keyword: KeywordId) -> &[VertexId] {
        self.inverted.get(&keyword).map(Vec::as_slice).unwrap_or(&[])
    }

    /// The owned vertices containing **all** keywords of `keywords`
    /// (intersection of the inverted lists; `keywords` need not be sorted).
    pub fn vertices_with_all_keywords(&self, keywords: &[KeywordId]) -> Vec<VertexId> {
        match keywords.split_first() {
            None => self.vertices.clone(),
            Some((&first, rest)) => {
                let mut acc: Vec<VertexId> = self.vertices_with_keyword(first).to_vec();
                for &kw in rest {
                    if acc.is_empty() {
                        break;
                    }
                    let list = self.vertices_with_keyword(kw);
                    acc = intersect_sorted(&acc, list);
                }
                acc
            }
        }
    }

    /// Registers `vertex` under `keyword` in the inverted list.
    // The index build calls this once per (vertex, keyword) pair; left to the
    // inliner it is out of line in some builds and `setup_s` moves by 5–7 %.
    #[inline]
    pub fn add_keyword_entry(&mut self, keyword: KeywordId, vertex: VertexId) {
        let list = self.inverted.entry(keyword).or_default();
        if let Err(pos) = list.binary_search(&vertex) {
            list.insert(pos, vertex);
        }
    }

    /// Removes `vertex` from `keyword`'s inverted list (no-op if absent).
    pub fn remove_keyword_entry(&mut self, keyword: KeywordId, vertex: VertexId) {
        if let Some(list) = self.inverted.get_mut(&keyword) {
            if let Ok(pos) = list.binary_search(&vertex) {
                list.remove(pos);
            }
            if list.is_empty() {
                self.inverted.remove(&keyword);
            }
        }
    }
}

/// Intersects two sorted vertex lists.
fn intersect_sorted(a: &[VertexId], b: &[VertexId]) -> Vec<VertexId> {
    let mut out = Vec::new();
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(ids: &[u32]) -> Vec<VertexId> {
        ids.iter().map(|&i| VertexId(i)).collect()
    }

    #[test]
    fn node_sorts_owned_vertices() {
        let node = ClTreeNode::new(2, v(&[5, 1, 3]));
        assert_eq!(node.vertices, v(&[1, 3, 5]));
        assert_eq!(node.len(), 3);
        assert!(!node.is_empty());
        assert!(ClTreeNode::new(0, vec![]).is_empty());
    }

    #[test]
    fn inverted_list_add_and_remove() {
        let mut node = ClTreeNode::new(1, v(&[1, 2, 3]));
        node.add_keyword_entry(KeywordId(7), VertexId(2));
        node.add_keyword_entry(KeywordId(7), VertexId(1));
        node.add_keyword_entry(KeywordId(7), VertexId(2)); // duplicate ignored
        assert_eq!(node.vertices_with_keyword(KeywordId(7)), v(&[1, 2]).as_slice());
        node.remove_keyword_entry(KeywordId(7), VertexId(1));
        assert_eq!(node.vertices_with_keyword(KeywordId(7)), v(&[2]).as_slice());
        node.remove_keyword_entry(KeywordId(7), VertexId(2));
        assert!(node.vertices_with_keyword(KeywordId(7)).is_empty());
        assert!(node.inverted.is_empty(), "empty lists are dropped");
    }

    #[test]
    fn keyword_intersection_over_node() {
        let mut node = ClTreeNode::new(3, v(&[0, 1, 2, 3]));
        for &vx in &[0, 1, 2] {
            node.add_keyword_entry(KeywordId(1), VertexId(vx));
        }
        for &vx in &[1, 2, 3] {
            node.add_keyword_entry(KeywordId(2), VertexId(vx));
        }
        assert_eq!(node.vertices_with_all_keywords(&[KeywordId(1), KeywordId(2)]), v(&[1, 2]));
        assert_eq!(node.vertices_with_all_keywords(&[]), v(&[0, 1, 2, 3]));
        assert!(node.vertices_with_all_keywords(&[KeywordId(1), KeywordId(9)]).is_empty());
    }
}
