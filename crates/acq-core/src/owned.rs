//! The owning query engine: a versioned **graph generation** handle (graph +
//! CL-tree published atomically), the unified [`Request`]/[`Response`]
//! surface, and the live-update pipeline [`Engine::apply_updates`].
//!
//! An [`Engine`] is `'static + Send + Sync`: it can be stored in a server,
//! cloned-by-`Arc` and queried from many sessions at once, one
//! [`Request`] at a time or as a batch fanned out over its worker pool
//! (`exec::pool`). Everything a query depends on — the graph and the index
//! built for it — lives in **one** [`GraphGeneration`] behind a
//! `RwLock<Arc<_>>` handle, so every query (and every batch) runs against a
//! mutually consistent snapshot while updates publish the next generation off
//! to the side:
//!
//! [`Engine::apply_updates`] — the only writer — takes a batch of
//! [`GraphDelta`]s, applies them to a staged copy of the graph with
//! incremental CSR edits, runs each edge delta through the subcore
//! maintenance kernel (`acq_kcore::maintenance` via
//! `acq_cltree::maintenance`) and each keyword or vertex delta through its
//! local index edit, and then decides **once**, after the last delta, what
//! the batch owes the index: nothing, one skeleton rebuild, or one
//! from-scratch build. In-flight queries always finish on the snapshot they
//! started with.

use crate::exec::pool;
use crate::query::QueryError;
use crate::request::{execute_on, Executor, Request, Response};
use acq_cltree::{build_advanced, maintenance, ClTree, MaintenanceReport};
use acq_graph::{AppliedDelta, AttributedGraph, GraphDelta, GraphError};
use acq_metrics::serving::{UpdateReport, UpdateStrategy};
use acq_sync::sync::{Arc, Mutex, RwLock};

/// One published generation: the graph, the index built for exactly that
/// graph, and the generation number stamped into every [`Response`] served
/// from it. Readers snapshot the whole triple at once, so a query can never
/// observe a graph from one generation and an index from another.
#[derive(Debug)]
struct GraphGeneration {
    graph: Arc<AttributedGraph>,
    index: Arc<ClTree>,
    number: u64,
}

/// The owning ACQ engine: one generation handle, every query kind through one
/// [`Executor`] door, and live graph updates through
/// [`apply_updates`](Self::apply_updates).
///
/// ```
/// use acq_core::{Engine, Executor, Request};
/// use acq_graph::paper_figure3_graph;
/// use std::sync::Arc;
///
/// let graph = Arc::new(paper_figure3_graph());
/// let engine = Engine::builder(Arc::clone(&graph)).threads(2).build();
/// let q = graph.vertex_by_label("A").unwrap();
///
/// let response = engine.execute(&Request::community(q).k(2)).unwrap();
/// let ac = &response.communities()[0];
/// assert_eq!(ac.member_names(&graph), vec!["A", "C", "D"]);
/// assert_eq!(ac.label_terms(&graph), vec!["x", "y"]);
/// assert_eq!(response.meta.algorithm, "Dec");
/// ```
#[derive(Debug)]
pub struct Engine {
    current: RwLock<Arc<GraphGeneration>>,
    /// Serialises [`apply_updates`](Self::apply_updates) calls so concurrent
    /// updates cannot stage against the same base generation and silently
    /// lose each other's deltas. Readers never take it.
    update_lock: Mutex<()>,
    threads: usize,
    /// The host's core count, resolved once at build: asking the OS re-reads
    /// the cgroup files, which a batch of one query would pay every time.
    cores: usize,
}

/// Configures and builds an [`Engine`].
#[derive(Debug)]
pub struct EngineBuilder {
    graph: Arc<AttributedGraph>,
    index: Option<Arc<ClTree>>,
    threads: usize,
}

impl EngineBuilder {
    /// Uses an existing shared index instead of building one (e.g. one that
    /// was incrementally maintained or deserialised from disk).
    #[must_use]
    pub fn index(mut self, index: Arc<ClTree>) -> Self {
        self.index = Some(index);
        self
    }

    /// Sets the worker count for [`Executor::execute_batch`]. `0` (the
    /// default) means one worker per available core; `1` forces sequential
    /// execution on the calling thread.
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Builds the engine, constructing the CL-tree (`advanced` builder,
    /// inverted lists enabled) if no index was supplied.
    pub fn build(self) -> Engine {
        let index = self.index.unwrap_or_else(|| Arc::new(build_advanced(&self.graph, true)));
        let generation = GraphGeneration { graph: self.graph, index, number: 1 };
        Engine {
            current: RwLock::new(Arc::new(generation)),
            update_lock: Mutex::new(()),
            threads: self.threads,
            cores: pool::available_cores(),
        }
    }
}

impl Engine {
    /// Starts configuring an engine for `graph`.
    pub fn builder(graph: Arc<AttributedGraph>) -> EngineBuilder {
        EngineBuilder { graph, index: None, threads: 0 }
    }

    /// An engine with all defaults: freshly built index, one batch worker
    /// per core.
    pub fn new(graph: Arc<AttributedGraph>) -> Self {
        Self::builder(graph).build()
    }

    /// A snapshot of the currently published graph. Like the index, the
    /// graph is **per generation**: [`apply_updates`](Self::apply_updates)
    /// publishes a new one while in-flight queries finish on theirs.
    pub fn graph(&self) -> Arc<AttributedGraph> {
        Arc::clone(&self.snapshot().graph)
    }

    /// A snapshot of the currently published index. Queries already running
    /// keep the snapshot they started with even if an update publishes next.
    pub fn index(&self) -> Arc<ClTree> {
        Arc::clone(&self.snapshot().index)
    }

    /// The generation number of the currently published generation (starts
    /// at 1, incremented by every [`apply_updates`](Self::apply_updates)).
    pub fn generation(&self) -> u64 {
        self.snapshot().number
    }

    /// Applies a batch of [`GraphDelta`]s and publishes the updated
    /// generation: graph and maintained index, in one atomic swap. Queries
    /// running concurrently finish on their old snapshot; queries arriving
    /// after the swap see the new graph. The write lock is held only for the
    /// pointer swap — never across a query.
    ///
    /// Per applied delta, in batch order:
    ///
    /// * **edge insert/remove** — the traversal subcore kernel updates the
    ///   staged core decomposition in place and reports whether the CL-tree
    ///   skeleton still describes the graph;
    /// * **keyword add/remove** — one inverted-list edit on the owning node;
    /// * **vertex insert** — the isolated vertex joins the root node in
    ///   place (stable node ids).
    ///
    /// Then, **once**, the plan for the whole batch ([`UpdateStrategy`]):
    /// nothing if every edge kept the skeleton; one skeleton rebuild from the
    /// maintained decomposition if any did not; or one from-scratch
    /// `build_advanced` if the kernels had already examined as many vertices
    /// as a from-scratch decomposition would (`subcore_touched ≥ n`) with
    /// edge deltas still to go — those then skip their kernels. Either
    /// rebuild reads the final staged graph, so deltas that follow a
    /// skeleton-changing edge reach the published index too.
    ///
    /// On an `Err` (invalid delta) nothing is published and the engine is
    /// unchanged. Errors are detected per delta *before* that delta mutates
    /// the staged graph, and the staged copies are discarded wholesale.
    pub fn apply_updates(&self, deltas: &[GraphDelta]) -> Result<UpdateReport, GraphError> {
        self.apply_updates_interning(&[], deltas)
    }

    /// Like [`apply_updates`](Self::apply_updates), but first interns `terms`
    /// into the staged graph's keyword dictionary, in order.
    ///
    /// This is the dictionary-alignment hook for sharded execution
    /// ([`ShardedEngine`](crate::ShardedEngine)): a shard only receives the
    /// deltas it owns, but keyword ids are assigned by interning order, so
    /// every shard must intern **all** terms of the batch — in batch scan
    /// order — before applying its own slice. Interning an already-known
    /// term is a no-op, so passing extra terms never changes ids.
    pub(crate) fn apply_updates_interning(
        &self,
        terms: &[&str],
        deltas: &[GraphDelta],
    ) -> Result<UpdateReport, GraphError> {
        let _writer = self.update_lock.lock().expect("engine update lock poisoned");
        let base = self.snapshot();
        let mut graph = (*base.graph).clone();
        for term in terms {
            graph.intern_keyword(term);
        }
        let n0 = base.graph.num_vertices().max(1);
        // `None` once the kernels have examined `n0` vertices: the staged
        // tree is dropped and the remaining deltas only reach the graph.
        let mut staged = Some((*base.index).clone());
        let mut steps = MaintenanceReport::default();
        let mut deltas_applied = 0usize;

        for delta in deltas {
            let applied = graph.apply_deltas_in_place(std::slice::from_ref(delta))?;
            deltas_applied += applied.len();
            for record in applied {
                let Some(tree) = staged.as_mut() else { continue };
                match record {
                    AppliedDelta::EdgeInserted(..) | AppliedDelta::EdgeRemoved(..)
                        if steps.subcore_size >= n0 =>
                    {
                        staged = None;
                    }
                    AppliedDelta::EdgeInserted(u, v) => {
                        maintenance::step_edge_insertion(tree, &graph, u, v, &mut steps);
                    }
                    AppliedDelta::EdgeRemoved(u, v) => {
                        maintenance::step_edge_removal(tree, &graph, u, v, &mut steps);
                    }
                    AppliedDelta::KeywordAdded(v, kw) => {
                        maintenance::apply_keyword_insertion(tree, v, kw);
                    }
                    AppliedDelta::KeywordRemoved(v, kw) => {
                        maintenance::apply_keyword_removal(tree, v, kw);
                    }
                    AppliedDelta::VertexInserted(v) => {
                        maintenance::apply_vertex_insertion(tree, &graph, v);
                    }
                }
            }
        }

        let (tree, strategy) = match staged {
            // Preserve the engine's inverted-list configuration: an ablation
            // engine built without lists must not gain them on a rebuild.
            None => (
                build_advanced(&graph, base.index.has_inverted_lists()),
                UpdateStrategy::FullRebuild,
            ),
            Some(mut tree) if steps.skeleton_changed => {
                maintenance::rebuild_skeleton(&mut tree, &graph);
                (tree, UpdateStrategy::IncrementalRebuiltSkeleton)
            }
            Some(tree) => (tree, UpdateStrategy::IncrementalStableSkeleton),
        };

        let generation = self.publish(Arc::new(graph), Arc::new(tree));
        Ok(UpdateReport {
            generation,
            deltas_applied,
            strategy,
            subcore_touched: steps.subcore_size,
            touched_fraction: steps.subcore_size as f64 / n0 as f64,
            cache_carried: 0,
            cache_dropped: 0,
        })
    }

    /// Installs a fully staged generation under the write lock (held only for
    /// the pointer swap) and returns its number.
    fn publish(&self, graph: Arc<AttributedGraph>, index: Arc<ClTree>) -> u64 {
        let mut current = self.current.write().expect("engine generation lock poisoned");
        let number = current.number + 1;
        *current = Arc::new(GraphGeneration { graph, index, number });
        number
    }

    fn snapshot(&self) -> Arc<GraphGeneration> {
        Arc::clone(&self.current.read().expect("engine generation lock poisoned"))
    }
}

impl Executor for Engine {
    fn execute(&self, request: &Request) -> Result<Response, QueryError> {
        let generation = self.snapshot();
        execute_on(&generation.graph, &generation.index, generation.number, request)
    }

    /// Fans the batch out over the configured worker pool, answering **in
    /// input order**. The whole batch runs against one generation snapshot,
    /// so a concurrent [`apply_updates`](Engine::apply_updates) never splits
    /// a batch across generations (or across graphs).
    fn execute_batch(&self, requests: &[Request]) -> Vec<Result<Response, QueryError>> {
        let generation = self.snapshot();
        let workers = pool::effective_threads(self.threads, self.cores, requests.len());
        pool::map_ordered(requests, workers, |_, request| {
            execute_on(&generation.graph, &generation.index, generation.number, request)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::AcqAlgorithm;
    use acq_graph::{paper_figure3_graph, VertexId};

    fn figure3_engine() -> (Arc<AttributedGraph>, Engine) {
        let graph = Arc::new(paper_figure3_graph());
        let engine = Engine::new(Arc::clone(&graph));
        (graph, engine)
    }

    #[test]
    fn executes_every_spec_kind() {
        let (graph, engine) = figure3_engine();
        let a = graph.vertex_by_label("A").unwrap();
        let x = graph.dictionary().get("x").unwrap();
        let y = graph.dictionary().get("y").unwrap();

        let acq = engine.execute(&Request::community(a).k(2)).unwrap();
        assert_eq!(acq.communities()[0].member_names(&graph), vec!["A", "C", "D"]);
        assert_eq!(acq.meta.algorithm, "Dec");
        assert_eq!(acq.meta.generation, 1);

        let v1 = engine.execute(&Request::community(a).k(2).exact_keywords([x])).unwrap();
        assert_eq!(v1.communities()[0].member_names(&graph), vec!["A", "B", "C", "D"]);
        assert_eq!(v1.meta.algorithm, "SW");

        let v2 =
            engine.execute(&Request::community(a).k(2).keywords([x, y]).threshold(0.5)).unwrap();
        assert_eq!(v2.communities()[0].member_names(&graph), vec!["A", "B", "C", "D", "E"]);
        assert_eq!(v2.meta.algorithm, "SWT");
    }

    #[test]
    fn all_algorithms_agree_through_the_unified_door() {
        let (graph, engine) = figure3_engine();
        let a = graph.vertex_by_label("A").unwrap();
        let reference = engine
            .execute(&Request::community(a).k(2).algorithm(AcqAlgorithm::BasicG))
            .unwrap()
            .canonical();
        for algorithm in AcqAlgorithm::ALL {
            let response =
                engine.execute(&Request::community(a).k(2).algorithm(algorithm)).unwrap();
            assert_eq!(response.canonical(), reference, "{}", algorithm.name());
            assert_eq!(response.meta.algorithm, algorithm.name());
        }
    }

    #[test]
    fn execute_batch_preserves_input_order_and_matches_execute() {
        let (graph, engine) = figure3_engine();
        let requests: Vec<Request> = ["A", "B", "C", "D", "E", "F", "G", "H", "I", "J"]
            .iter()
            .flat_map(|label| {
                let v = graph.vertex_by_label(label).unwrap();
                AcqAlgorithm::ALL.iter().map(move |&alg| Request::community(v).k(2).algorithm(alg))
            })
            .collect();
        for threads in [1usize, 4] {
            let pooled = Engine::builder(Arc::clone(&graph)).threads(threads).build();
            let results = pooled.execute_batch(&requests);
            assert_eq!(results.len(), requests.len());
            for (request, result) in requests.iter().zip(&results) {
                let expected = engine.execute(request).map(|r| r.result);
                let got = result.clone().map(|r| r.result);
                assert_eq!(got, expected);
            }
        }
    }

    #[test]
    fn invalid_requests_error_without_poisoning_the_batch() {
        let (graph, engine) = figure3_engine();
        let a = graph.vertex_by_label("A").unwrap();
        let requests = vec![
            Request::community(a).k(2),
            Request::community(VertexId(999)).k(2),
            Request::community(a).k(0),
        ];
        let results = engine.execute_batch(&requests);
        assert!(results[0].is_ok());
        assert_eq!(results[1], Err(QueryError::UnknownVertex(VertexId(999))));
        assert_eq!(results[2], Err(QueryError::InvalidK));
    }

    #[test]
    fn an_empty_batch_still_publishes_a_generation() {
        let (graph, engine) = figure3_engine();
        let a = graph.vertex_by_label("A").unwrap();
        let request = Request::community(a).k(2);

        let before = engine.execute(&request).unwrap();
        assert_eq!(before.meta.generation, 1);

        let report = engine.apply_updates(&[]).unwrap();
        assert_eq!(report.generation, 2);
        assert_eq!(report.strategy, UpdateStrategy::IncrementalStableSkeleton);
        assert_eq!(engine.generation(), 2);

        let after = engine.execute(&request).unwrap();
        assert_eq!(after.meta.generation, 2);
        assert_eq!(after.result, before.result, "same graph, same answer across generations");
    }

    #[test]
    fn apply_updates_publishes_an_updated_generation() {
        let (graph, engine) = figure3_engine();
        let h = graph.vertex_by_label("H").unwrap();
        let f = graph.vertex_by_label("F").unwrap();

        let report = engine.apply_updates(&[GraphDelta::insert_edge(h, f)]).unwrap();
        assert_eq!(report.generation, 2);
        assert_eq!(report.deltas_applied, 1);
        assert_eq!(engine.generation(), 2);
        assert!(engine.graph().has_edge(h, f), "published graph carries the delta");

        // The published engine answers like a from-scratch engine on the
        // updated graph.
        let request = Request::community(h).k(1);
        let fresh = Engine::new(engine.graph()).execute(&request).unwrap();
        let live = engine.execute(&request).unwrap();
        assert_eq!(live.result, fresh.result);
        assert_eq!(live.meta.generation, 2);
    }

    #[test]
    fn vertex_insert_across_the_word_boundary_keeps_answers() {
        // 64 vertices: a vertex insert grows the universe from one 64-bit
        // word to two, so every subset built for the n = 65 graph must be
        // sized for it. This pins the answers across the boundary.
        let mut b = acq_graph::GraphBuilder::new();
        let mut ids = Vec::new();
        for i in 0..64 {
            ids.push(b.add_unlabeled_vertex(if i < 3 { &["x"] } else { &[] }));
        }
        for &(i, j) in &[(0usize, 1usize), (1, 2), (2, 0)] {
            b.add_edge(ids[i], ids[j]).unwrap();
        }
        let graph = Arc::new(b.build());
        let engine = Engine::new(Arc::clone(&graph));
        let x = graph.dictionary().get("x").unwrap();
        let request = Request::community(ids[0]).k(2).exact_keywords([x]);

        let before = engine.execute(&request).unwrap();

        let report = engine.apply_updates(&[GraphDelta::insert_vertex(None, &["x"])]).unwrap();
        assert_eq!(report.strategy, UpdateStrategy::IncrementalStableSkeleton);

        // Must not panic, and the (isolated) newcomer changes no community.
        let after = engine.execute(&request).unwrap();
        assert_eq!(after.result, before.result);
        let fresh = Engine::new(engine.graph()).execute(&request).unwrap();
        assert_eq!(after.result, fresh.result);
    }

    /// Every (vertex, k) ACQ answer plus one query per vertex restricted to
    /// `keyword`, compared against a from-scratch engine on the live graph.
    fn assert_equals_fresh_engine(engine: &Engine, keyword: Option<&str>) {
        let graph = engine.graph();
        let fresh = Engine::new(Arc::clone(&graph));
        let keyword = keyword.map(|term| graph.dictionary().get(term).expect("known keyword"));
        for v in graph.vertices() {
            for k in 1..=3 {
                let mut requests = vec![Request::community(v).k(k)];
                requests.extend(keyword.map(|kw| Request::community(v).k(k).keywords([kw])));
                for request in requests {
                    assert_eq!(
                        engine.execute(&request).map(|r| r.result),
                        fresh.execute(&request).map(|r| r.result),
                        "{request:?}"
                    );
                }
            }
        }
        assert_eq!(engine.index().canonical_form(), fresh.index().canonical_form());
        engine.index().validate(&graph).unwrap();
    }

    #[test]
    fn deltas_after_a_skeleton_changing_edge_reach_the_published_index() {
        let (graph, engine) = figure3_engine();
        let f = graph.vertex_by_label("F").unwrap();
        let h = graph.vertex_by_label("H").unwrap();
        let k = VertexId(10);
        let report = engine
            .apply_updates(&[
                GraphDelta::insert_edge(f, h), // merges two 1-ĉores: skeleton changes
                GraphDelta::add_keyword(h, "music"),
                GraphDelta::insert_vertex(Some("K"), &["music"]),
                GraphDelta::insert_edge(k, h),
            ])
            .unwrap();
        assert_eq!(report.deltas_applied, 4);
        assert_eq!(report.strategy, UpdateStrategy::IncrementalRebuiltSkeleton);
        assert_equals_fresh_engine(&engine, Some("music"));

        // K and H share `music` in a connected 1-core, through the index.
        let updated = engine.graph();
        let music = updated.dictionary().get("music").unwrap();
        let response = engine.execute(&Request::community(k).k(1).keywords([music])).unwrap();
        assert_eq!(response.communities()[0].member_names(&updated), vec!["H", "K"]);
    }

    #[test]
    fn a_batch_whose_kernels_examine_n_vertices_finishes_with_one_full_build() {
        // Toggling A–B moves the whole 3-ĉore {A, B, C, D} down to core 2 and
        // back: 4–5 vertices examined per delta, so the 10-vertex budget is
        // spent before the batch is.
        let (graph, engine) = figure3_engine();
        let n = graph.num_vertices();
        let a = graph.vertex_by_label("A").unwrap();
        let b = graph.vertex_by_label("B").unwrap();
        let f = graph.vertex_by_label("F").unwrap();
        let h = graph.vertex_by_label("H").unwrap();
        let mut deltas = Vec::new();
        for _ in 0..3 {
            deltas.push(GraphDelta::remove_edge(a, b));
            deltas.push(GraphDelta::insert_edge(a, b));
        }
        deltas.push(GraphDelta::insert_edge(f, h));
        deltas.push(GraphDelta::add_keyword(h, "music"));
        let report = engine.apply_updates(&deltas).unwrap();
        assert_eq!(report.strategy, UpdateStrategy::FullRebuild);
        assert!(report.subcore_touched >= n, "{} < {n}", report.subcore_touched);
        assert_eq!(report.deltas_applied, deltas.len());
        assert!(engine.graph().has_edge(f, h), "deltas past the budget still reach the graph");
        assert_equals_fresh_engine(&engine, Some("music"));

        // The same toggles cut short of the budget stay incremental.
        let (_, short) = figure3_engine();
        let report = short.apply_updates(&deltas[..2]).unwrap();
        assert_eq!(report.strategy, UpdateStrategy::IncrementalRebuiltSkeleton);
        assert!(report.subcore_touched < n);
        assert_equals_fresh_engine(&short, None);
    }

    #[test]
    fn apply_updates_rejects_invalid_deltas_without_publishing() {
        let (graph, engine) = figure3_engine();
        let a = graph.vertex_by_label("A").unwrap();
        let h = graph.vertex_by_label("H").unwrap();
        let f = graph.vertex_by_label("F").unwrap();
        let err = engine
            .apply_updates(&[
                GraphDelta::insert_edge(h, f),
                GraphDelta::insert_edge(a, VertexId(999)),
            ])
            .unwrap_err();
        assert_eq!(err, GraphError::UnknownVertex(VertexId(999)));
        assert_eq!(engine.generation(), 1, "nothing was published");
        assert!(!engine.graph().has_edge(h, f), "staged changes were discarded");
    }

    #[test]
    fn apply_updates_handles_vertex_inserts_and_keywords() {
        let (graph, engine) = figure3_engine();
        let b = graph.vertex_by_label("B").unwrap();
        let report = engine
            .apply_updates(&[
                GraphDelta::add_keyword(b, "music"),
                GraphDelta::insert_vertex(Some("K"), &["x", "music"]),
                GraphDelta::insert_edge(VertexId(10), b),
            ])
            .unwrap();
        assert_eq!(report.deltas_applied, 3);
        let updated = engine.graph();
        assert_eq!(updated.num_vertices(), 11);
        let k = updated.vertex_by_label("K").unwrap();
        let request = Request::community(k).k(1);
        let live = engine.execute(&request).unwrap();
        let fresh = Engine::new(Arc::clone(&updated)).execute(&request).unwrap();
        assert_eq!(live.result, fresh.result);
    }

    #[test]
    fn engine_is_send_sync_and_static() {
        fn assert_send_sync<T: Send + Sync + 'static>() {}
        assert_send_sync::<Engine>();
        assert_send_sync::<Request>();
        assert_send_sync::<Response>();
    }
}
