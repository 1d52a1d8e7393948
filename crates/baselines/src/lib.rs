//! # acq-baselines
//!
//! The comparison systems the paper evaluates ACQ against (Section 7.2):
//!
//! * [`global`] — `Global`, the community-search algorithm of Sozio &
//!   Gionis (KDD 2010): the k-ĉore containing the query vertex, obtained by
//!   peeling the entire graph. No keywords are considered.
//! * [`local`] — `Local`, the local-expansion community search of Cui et al.
//!   (SIGMOD 2014): expands a candidate neighbourhood around the query vertex
//!   until it contains a k-core with the query vertex, avoiding whole-graph
//!   work for easy queries.
//! * [`codicil`] — a CODICIL-style offline community-*detection* baseline
//!   (Ruan et al., WWW 2013): content edges are added between keyword-similar
//!   vertices, then the augmented graph is partitioned into a user-chosen
//!   number of clusters. The cluster containing the query vertex is returned
//!   at query time. This is a substitution (see the [`codicil`] module
//!   docs): same interface and same qualitative behaviour (no minimum-degree
//!   guarantee, cluster-count sensitivity), not the authors' exact code.
//! * [`gpm`] — star-pattern graph-pattern-matching queries (`Star-a`), used by
//!   the paper's Table 7 to show that GPM is a poor fit for community search.

#![deny(missing_docs)]

pub mod codicil;
pub mod global;
pub mod gpm;
pub mod local;

pub use codicil::{Codicil, CodicilConfig};
pub use global::global_community;
pub use gpm::{star_pattern_has_match, StarPatternQuery};
pub use local::local_community;

#[cfg(test)]
mod tests {
    use super::*;
    use acq_graph::paper_figure3_graph;

    /// The two community-search baselines agree on the toy graph: both return
    /// minimum-degree-k communities containing the query vertex, with Local's
    /// answer contained in Global's.
    #[test]
    fn local_is_contained_in_global() {
        let g = paper_figure3_graph();
        for label in ["A", "B", "C", "D", "E"] {
            let q = g.vertex_by_label(label).unwrap();
            for k in 1..=3usize {
                let global = global_community(&g, q, k);
                let local = local_community(&g, q, k);
                match (&global, &local) {
                    (Some(gc), Some(lc)) => {
                        for &v in lc.members() {
                            assert!(gc.contains(v), "Local ⊆ Global for q={label}, k={k}");
                        }
                    }
                    (None, None) => {}
                    _ => panic!("Global and Local disagree on existence for q={label}, k={k}"),
                }
            }
        }
    }
}
