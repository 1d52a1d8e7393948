//! The four workloads and the seeded streams that drive them.
//!
//! The graph of a workload is fixed by its dataset profile; everything the
//! server is sent — which anchors are queried in which order, which deltas
//! are written — is derived from `--seed` through `ChaCha8Rng`, so one seed
//! is one input and ten seeds are ten comparable inputs on the same graph.

use acq_core::Request;
use acq_datagen::DatasetProfile;
use acq_graph::{AttributedGraph, GraphDelta, KeywordId, VertexId};
use rand::distributions::{Distribution, WeightedIndex};
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::HashSet;

/// What one operation of a workload is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Closed loop, one `Client::query` at a time per connection.
    ReadSingle,
    /// Closed loop, one pipelined `Client::query_batch` of [`BURST`] queries.
    ReadBurst,
    /// Closed loop, one single-delta `Client::update` at a time.
    WriteStream,
    /// One closed-loop reader beside one writer paced at [`PACED_UPDATES_PER_S`].
    Mixed,
}

/// Queries per pipelined burst of [`Kind::ReadBurst`].
pub const BURST: usize = 16;

/// Open-loop rate of the [`Kind::Mixed`] writer. A single-delta update on the
/// 100k graph costs ≈ 155 ms on average (≈ 50 ms when the CL-tree skeleton
/// survives, ≈ 300 ms when it is rebuilt), so 2/s keeps the transactor at
/// about a third of its capacity: the writer's queue does not grow, and what
/// the reader sees is interference, not a saturated server.
pub const PACED_UPDATES_PER_S: u64 = 2;

/// How the anchors of a read stream are drawn from the pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Draw {
    Uniform,
    /// Zipf with exponent 1 over the pool's (seeded) rank order.
    Zipf,
}

/// One workload: its graph and its operation. Why each exists is recorded in
/// `BENCHMARK.json` and, at length, in this crate's `README.md`.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
    /// `dblp()` scaled by this factor (n = 4 000 × scale).
    pub scale: f64,
    /// Distinct query anchors the read stream draws from.
    pub pool: usize,
    pub draw: Draw,
    /// Read connections (each its own client thread).
    pub readers: usize,
    /// Unmeasured operations per connection before timing starts.
    pub warmup: usize,
    /// Read operations per connection, and updates, of a traced run, which is
    /// sized by count so that its counters repeat exactly. (The reader of a
    /// mixed workload runs for as long as its writer does.)
    pub traced_reads: usize,
    pub traced_updates: usize,
}

/// The query pool of `read_uniform_100k`: twice the 1 024 entries the LRU
/// holds, and few enough that the expected answer of every anchor can be
/// computed before every run (≈ 2.5 s), so every response is checked.
const UNIFORM_POOL: usize = 2048;

pub const WORKLOADS: [Workload; 4] = [
    // Engine-bound: every query pays the full Dec cost on 100k vertices.
    Workload {
        name: "read_uniform_100k",
        kind: Kind::ReadSingle,
        scale: 25.0,
        pool: UNIFORM_POOL,
        draw: Draw::Uniform,
        readers: 2,
        warmup: 200,
        traced_reads: 600,
        traced_updates: 0,
    },
    // Serving-bound: pipelined bursts on a small graph and a hot set that
    // fits the cache, so framing, JSON, TCP and the batch path dominate.
    Workload {
        name: "read_burst_hot_4k",
        kind: Kind::ReadBurst,
        scale: 1.0,
        pool: 64,
        draw: Draw::Zipf,
        readers: 2,
        warmup: 20,
        traced_reads: 100,
        traced_updates: 0,
    },
    // Write-path-bound. 25k vertices rather than 100k: an update there costs
    // ≈ 30 ms instead of ≈ 155 ms, so a run collects ≈ 700 samples instead of
    // ≈ 130 and the bimodal update latency has a median that repeats.
    Workload {
        name: "write_stream_25k",
        kind: Kind::WriteStream,
        scale: 6.25,
        pool: 50,
        draw: Draw::Uniform,
        readers: 0,
        warmup: 5,
        traced_reads: 0,
        traced_updates: 60,
    },
    // The read path beside a live write stream, on the two cores they share.
    Workload {
        name: "mixed_hot_100k",
        kind: Kind::Mixed,
        scale: 25.0,
        pool: 256,
        draw: Draw::Zipf,
        readers: 1,
        warmup: 200,
        traced_reads: 0,
        traced_updates: 16,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// Queries one read operation carries.
    pub fn queries_per_op(&self) -> usize {
        if self.kind == Kind::ReadBurst {
            BURST
        } else {
            1
        }
    }

    /// The dataset profile; `--quick` swaps in the tiny test profile.
    pub fn profile(&self, quick: bool) -> DatasetProfile {
        if quick {
            acq_datagen::tiny()
        } else {
            acq_datagen::dblp().scaled(self.scale)
        }
    }
}

/// The degree bound of every query: the paper's default `k = 6`, lowered on
/// the tiny `--quick` graph whose cores do not go that deep.
pub fn degree_bound(quick: bool) -> usize {
    if quick {
        4
    } else {
        6
    }
}

/// Streams of one run are seeded apart so that changing how many values one
/// consumes never shifts another.
fn stream_rng(seed: u64, stream: u64) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(stream))
}

/// The anchors a read stream draws from, and the request for each.
#[derive(Debug, Clone)]
pub struct QueryPool {
    pub requests: Vec<Request>,
    draw: Option<WeightedIndex>,
}

impl QueryPool {
    /// Samples `size` distinct anchors among the vertices of core number at
    /// least `k` (all of them if there are fewer), in seeded order.
    pub fn new(workload: &Workload, core_numbers: &[u32], k: usize, seed: u64) -> Self {
        let mut eligible: Vec<VertexId> = core_numbers
            .iter()
            .enumerate()
            .filter(|&(_, &core)| core as usize >= k)
            .map(|(v, _)| VertexId::from_index(v))
            .collect();
        assert!(!eligible.is_empty(), "no vertex has core number >= {k}");
        eligible.shuffle(&mut stream_rng(seed, 1));
        eligible.truncate(workload.pool);
        let draw = (workload.draw == Draw::Zipf).then(|| {
            WeightedIndex::new((1..=eligible.len()).map(|rank| 1.0 / rank as f64))
                .expect("harmonic weights are positive")
        });
        let requests = eligible.into_iter().map(|q| Request::community(q).k(k)).collect();
        Self { requests, draw }
    }

    /// The pool indices one connection queries, as an endless seeded stream.
    pub fn stream(&self, seed: u64, connection: u64) -> impl Iterator<Item = usize> + '_ {
        let mut rng = stream_rng(seed, 16 + connection);
        std::iter::repeat_with(move || match &self.draw {
            Some(zipf) => zipf.sample(&mut rng),
            None => rng.gen_range(0..self.requests.len()),
        })
    }
}

/// The seeded update stream: 40 % edge insertions (half random pairs, half
/// two-hop pairs), 20 % removals of a live edge, 10 % keyword additions,
/// 10 % keyword removals, 20 % vertex insertions.
///
/// Deltas are generated against the base graph and never touch the same edge
/// or (vertex, keyword) pair twice, so each is valid and a real change
/// whatever was applied before it — no update can fail or be a no-op.
pub struct DeltaStream<'g> {
    graph: &'g AttributedGraph,
    rng: ChaCha8Rng,
    edges: HashSet<(u32, u32)>,
    keywords: HashSet<(u32, u32)>,
    produced: usize,
}

impl<'g> DeltaStream<'g> {
    pub fn new(graph: &'g AttributedGraph, seed: u64) -> Self {
        Self {
            graph,
            rng: stream_rng(seed, 2),
            edges: HashSet::new(),
            keywords: HashSet::new(),
            produced: 0,
        }
    }

    fn vertex(&mut self) -> VertexId {
        VertexId::from_index(self.rng.gen_range(0..self.graph.num_vertices()))
    }

    fn term(&self, keyword: KeywordId) -> String {
        self.graph.dictionary().term(keyword).expect("keyword of the base graph").to_owned()
    }

    fn random_keyword(&mut self) -> KeywordId {
        KeywordId(self.rng.gen_range(0..self.graph.dictionary().len() as u32))
    }

    /// Claims the edge for this stream; false if a delta already used it.
    fn claim_edge(&mut self, u: VertexId, v: VertexId) -> bool {
        self.edges.insert((u.0.min(v.0), u.0.max(v.0)))
    }

    fn insert_edge(&mut self, two_hop: bool) -> Option<GraphDelta> {
        let u = self.vertex();
        let v = if two_hop {
            let &w = self.graph.neighbors(u).choose(&mut self.rng)?;
            *self.graph.neighbors(w).choose(&mut self.rng)?
        } else {
            self.vertex()
        };
        (u != v && !self.graph.has_edge(u, v) && self.claim_edge(u, v))
            .then(|| GraphDelta::insert_edge(u, v))
    }

    fn remove_edge(&mut self) -> Option<GraphDelta> {
        let u = self.vertex();
        let &v = self.graph.neighbors(u).choose(&mut self.rng)?;
        self.claim_edge(u, v).then(|| GraphDelta::remove_edge(u, v))
    }

    fn add_keyword(&mut self) -> Option<GraphDelta> {
        let (v, keyword) = (self.vertex(), self.random_keyword());
        (!self.graph.keyword_set(v).contains(keyword) && self.keywords.insert((v.0, keyword.0)))
            .then(|| GraphDelta::add_keyword(v, &self.term(keyword)))
    }

    fn remove_keyword(&mut self) -> Option<GraphDelta> {
        let v = self.vertex();
        let &keyword = self.graph.keyword_set(v).as_slice().choose(&mut self.rng)?;
        self.keywords
            .insert((v.0, keyword.0))
            .then(|| GraphDelta::remove_keyword(v, &self.term(keyword)))
    }

    fn insert_vertex(&mut self) -> GraphDelta {
        let keywords = (0..3)
            .map(|_| {
                let keyword = self.random_keyword();
                self.term(keyword)
            })
            .collect();
        GraphDelta::InsertVertex { label: None, keywords }
    }
}

/// The kinds of ten consecutive deltas. The mix is a fixed cycle, not a
/// draw, so that every run of every seed writes exactly the stated shares
/// and only the targets vary.
const CYCLE: [DeltaKind; 10] = [
    DeltaKind::InsertRandomEdge,
    DeltaKind::RemoveEdge,
    DeltaKind::InsertVertex,
    DeltaKind::InsertTwoHopEdge,
    DeltaKind::AddKeyword,
    DeltaKind::InsertRandomEdge,
    DeltaKind::RemoveEdge,
    DeltaKind::InsertVertex,
    DeltaKind::InsertTwoHopEdge,
    DeltaKind::RemoveKeyword,
];

#[derive(Debug, Clone, Copy)]
enum DeltaKind {
    InsertRandomEdge,
    InsertTwoHopEdge,
    RemoveEdge,
    AddKeyword,
    RemoveKeyword,
    InsertVertex,
}

impl Iterator for DeltaStream<'_> {
    type Item = GraphDelta;

    fn next(&mut self) -> Option<GraphDelta> {
        let kind = CYCLE[self.produced % CYCLE.len()];
        self.produced += 1;
        loop {
            // A draw that lands on a used or unsuitable target is redrawn.
            let delta = match kind {
                DeltaKind::InsertRandomEdge => self.insert_edge(false),
                DeltaKind::InsertTwoHopEdge => self.insert_edge(true),
                DeltaKind::RemoveEdge => self.remove_edge(),
                DeltaKind::AddKeyword => self.add_keyword(),
                DeltaKind::RemoveKeyword => self.remove_keyword(),
                DeltaKind::InsertVertex => Some(self.insert_vertex()),
            };
            if delta.is_some() {
                return delta;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn streams_repeat_for_a_seed_and_differ_across_seeds() {
        let graph = acq_datagen::generate(&acq_datagen::tiny());
        let take = |seed| DeltaStream::new(&graph, seed).take(200).collect::<Vec<_>>();
        assert_eq!(take(7), take(7));
        assert_ne!(take(7), take(8));

        let cores = acq_kcore::CoreDecomposition::compute(&graph);
        let pool = |seed| QueryPool::new(&WORKLOADS[3], cores.core_numbers(), 4, seed);
        assert_eq!(pool(7).requests, pool(7).requests);
        assert_ne!(pool(7).requests, pool(8).requests);
        let draws = |seed| pool(7).stream(seed, 0).take(50).collect::<Vec<_>>();
        assert_eq!(draws(1), draws(1));
        assert_ne!(draws(1), draws(2));
    }

    #[test]
    fn every_generated_delta_applies_and_changes_the_graph() {
        let graph = Arc::new(acq_datagen::generate(&acq_datagen::tiny()));
        let engine = acq_core::Engine::new(Arc::clone(&graph));
        for delta in DeltaStream::new(&graph, 3).take(300) {
            let report = engine.apply_updates(std::slice::from_ref(&delta)).expect("valid delta");
            assert_eq!(report.deltas_applied, 1, "{delta:?} was a no-op");
        }
    }
}
