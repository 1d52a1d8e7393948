//! Graph deltas — the unit of change of the live-update pipeline.
//!
//! A [`GraphDelta`] describes one mutation of an attributed graph: an edge
//! insert/remove, a keyword add/remove on a vertex, or a brand-new vertex.
//! Deltas are plain serialisable data, so a serving front-end can queue them
//! over the wire exactly like query requests, and
//! [`AttributedGraph::apply_deltas`](crate::AttributedGraph::apply_deltas)
//! applies a whole batch with **one** structure clone plus per-delta
//! incremental CSR edits — instead of the historical
//! rebuild-everything-per-update clone helpers (which are now thin shims over
//! this path).
//!
//! Applying a delta that is already true of the graph (inserting an existing
//! edge, removing an absent keyword) is a *no-op*, not an error; the
//! [`AppliedDelta`] log tells the caller which deltas actually changed the
//! graph, which is what index-maintenance drivers key their incremental
//! kernels on.

use crate::ids::{KeywordId, VertexId};
use serde::{Deserialize, Serialize};

/// One requested mutation of an [`AttributedGraph`](crate::AttributedGraph).
///
/// Keywords are addressed by *term* (string), not [`KeywordId`]: a delta may
/// legitimately introduce a keyword the graph has never seen, and the
/// dictionary interns it on apply.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum GraphDelta {
    /// Insert the undirected edge `{u, v}`. No-op if the edge exists.
    InsertEdge {
        /// One endpoint.
        u: VertexId,
        /// The other endpoint.
        v: VertexId,
    },
    /// Remove the undirected edge `{u, v}`. No-op if the edge is absent.
    RemoveEdge {
        /// One endpoint.
        u: VertexId,
        /// The other endpoint.
        v: VertexId,
    },
    /// Add keyword `term` to `W(vertex)`. No-op if already carried.
    AddKeyword {
        /// The vertex whose keyword set grows.
        vertex: VertexId,
        /// The keyword term (interned on apply).
        term: String,
    },
    /// Remove keyword `term` from `W(vertex)`. No-op if not carried.
    RemoveKeyword {
        /// The vertex whose keyword set shrinks.
        vertex: VertexId,
        /// The keyword term.
        term: String,
    },
    /// Append a new (initially isolated) vertex with the given label and
    /// keyword terms. Its [`VertexId`] is the graph's vertex count at the
    /// moment the delta applies; follow-up deltas in the same batch may
    /// reference it.
    InsertVertex {
        /// Optional display label.
        label: Option<String>,
        /// Keyword terms of the new vertex.
        keywords: Vec<String>,
    },
}

impl GraphDelta {
    /// Convenience constructor for an edge insertion.
    pub fn insert_edge(u: VertexId, v: VertexId) -> Self {
        GraphDelta::InsertEdge { u, v }
    }

    /// Convenience constructor for an edge removal.
    pub fn remove_edge(u: VertexId, v: VertexId) -> Self {
        GraphDelta::RemoveEdge { u, v }
    }

    /// Convenience constructor for a keyword addition.
    pub fn add_keyword(vertex: VertexId, term: &str) -> Self {
        GraphDelta::AddKeyword { vertex, term: term.to_owned() }
    }

    /// Convenience constructor for a keyword removal.
    pub fn remove_keyword(vertex: VertexId, term: &str) -> Self {
        GraphDelta::RemoveKeyword { vertex, term: term.to_owned() }
    }

    /// Convenience constructor for a vertex insertion.
    pub fn insert_vertex(label: Option<&str>, keywords: &[&str]) -> Self {
        GraphDelta::InsertVertex {
            label: label.map(str::to_owned),
            keywords: keywords.iter().map(|s| (*s).to_owned()).collect(),
        }
    }
}

/// The record of one delta that **actually changed** the graph, with every
/// name resolved (keyword terms to interned ids, new vertices to their
/// assigned ids). No-op deltas produce no record.
///
/// This is the contract between
/// [`AttributedGraph::apply_deltas_in_place`](crate::AttributedGraph::apply_deltas_in_place)
/// and index maintenance: an `EdgeInserted(u, v)` means the edge is now
/// present and was not before, which is exactly the precondition of the
/// subcore maintenance kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AppliedDelta {
    /// The edge `{u, v}` was inserted (it was previously absent).
    EdgeInserted(VertexId, VertexId),
    /// The edge `{u, v}` was removed (it was previously present).
    EdgeRemoved(VertexId, VertexId),
    /// `keyword` was added to the vertex's keyword set.
    KeywordAdded(VertexId, KeywordId),
    /// `keyword` was removed from the vertex's keyword set.
    KeywordRemoved(VertexId, KeywordId),
    /// A new isolated vertex was appended with this id.
    VertexInserted(VertexId),
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_build_the_expected_variants() {
        assert_eq!(
            GraphDelta::insert_edge(VertexId(1), VertexId(2)),
            GraphDelta::InsertEdge { u: VertexId(1), v: VertexId(2) }
        );
        assert_eq!(
            GraphDelta::add_keyword(VertexId(3), "music"),
            GraphDelta::AddKeyword { vertex: VertexId(3), term: "music".into() }
        );
        assert_eq!(
            GraphDelta::insert_vertex(Some("K"), &["x", "y"]),
            GraphDelta::InsertVertex {
                label: Some("K".into()),
                keywords: vec!["x".into(), "y".into()]
            }
        );
    }

    #[test]
    fn applied_deltas_round_trip_through_json() {
        let applied = vec![
            AppliedDelta::EdgeInserted(VertexId(0), VertexId(1)),
            AppliedDelta::EdgeRemoved(VertexId(2), VertexId(3)),
            AppliedDelta::KeywordAdded(VertexId(4), KeywordId(7)),
            AppliedDelta::KeywordRemoved(VertexId(5), KeywordId(8)),
            AppliedDelta::VertexInserted(VertexId(6)),
        ];
        for delta in applied {
            let json = serde_json::to_string(&delta).unwrap();
            let restored: AppliedDelta = serde_json::from_str(&json).unwrap();
            assert_eq!(restored, delta, "{json}");
        }
        // The externally tagged tuple encoding is part of the wire contract.
        let json =
            serde_json::to_string(&AppliedDelta::EdgeInserted(VertexId(1), VertexId(2))).unwrap();
        assert_eq!(json, r#"{"EdgeInserted":[1,2]}"#);
        let json = serde_json::to_string(&AppliedDelta::VertexInserted(VertexId(9))).unwrap();
        assert_eq!(json, r#"{"VertexInserted":9}"#);
    }

    #[test]
    fn deltas_round_trip_through_json() {
        let deltas = vec![
            GraphDelta::insert_edge(VertexId(0), VertexId(1)),
            GraphDelta::remove_edge(VertexId(2), VertexId(3)),
            GraphDelta::add_keyword(VertexId(4), "a"),
            GraphDelta::remove_keyword(VertexId(5), "b"),
            GraphDelta::insert_vertex(None, &["c"]),
        ];
        for delta in deltas {
            let json = serde_json::to_string(&delta).unwrap();
            let restored: GraphDelta = serde_json::from_str(&json).unwrap();
            assert_eq!(restored, delta, "{json}");
        }
    }
}
