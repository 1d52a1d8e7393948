//! Model check for the durable engine's wedge protocol (invariant (d) of
//! `docs/CONCURRENCY.md`): a log that panicked mid-write never acknowledges
//! another write.
//!
//! Under the `acq-sync` shims std mutex poisoning does not exist (model runs
//! abort on panic instead of poisoning), so the durable engine carries its
//! own poison bit — the `wedged` flag armed before the log-then-apply
//! critical section and cleared only on orderly exit. This test drives a
//! storage backend that panics mid-append and then checks, from racing
//! threads, that every later write is refused while reads stay alive.

use acq_core::{Engine, Executor, Request, ServingEngine, WriteError};
use acq_durable::{DurableEngine, DurableOptions, MemStorage, Storage};
use acq_graph::{unlabeled_graph, GraphDelta, VertexId};
use acq_sync::model::model;
use acq_sync::sync::atomic::{AtomicBool, Ordering};
use acq_sync::sync::Arc;
use acq_sync::thread;
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// [`Storage`] that panics on the first append after [`arm`] is set —
/// simulating a bug (not an I/O error) striking inside the critical
/// section, the one failure mode `Result` plumbing cannot express.
struct PanickingStorage {
    inner: MemStorage,
    arm: Arc<AtomicBool>,
}

impl Storage for PanickingStorage {
    fn read(&self, name: &str) -> io::Result<Option<Vec<u8>>> {
        self.inner.read(name)
    }

    fn append(&mut self, name: &str, bytes: &[u8]) -> io::Result<()> {
        if self.arm.load(Ordering::SeqCst) {
            self.arm.store(false, Ordering::SeqCst);
            panic!("storage bug struck mid-append");
        }
        self.inner.append(name, bytes)
    }

    fn sync(&mut self, name: &str) -> io::Result<()> {
        self.inner.sync(name)
    }

    fn truncate(&mut self, name: &str, len: u64) -> io::Result<()> {
        self.inner.truncate(name, len)
    }

    fn write_atomic(&mut self, name: &str, bytes: &[u8]) -> io::Result<()> {
        self.inner.write_atomic(name, bytes)
    }

    fn remove(&mut self, name: &str) -> io::Result<()> {
        self.inner.remove(name)
    }
}

/// A panic inside log-then-apply wedges the log: the in-flight write is
/// never acknowledged, and every subsequent write — from any thread, under
/// any interleaving — is refused with an I/O error, while queries and stats
/// keep working. Without the wedge flag the next writer would lock the
/// (unpoisoned, under the shims) inner state and happily ack on top of a
/// half-written log record.
#[test]
fn a_wedged_log_never_acks_another_write() {
    model(|| {
        let arm = Arc::new(AtomicBool::new(false));
        let storage = PanickingStorage { inner: MemStorage::new(), arm: Arc::clone(&arm) };
        let graph = Arc::new(unlabeled_graph(3, &[(0, 1)]));
        let options = DurableOptions { compact_every: 0 };
        let (durable, _report) = DurableEngine::open_with(Box::new(storage), graph, options, |g| {
            Arc::new(Engine::builder(g).threads(1).build())
        })
        .expect("open durable engine");
        let durable = Arc::new(durable);

        // Recovery is done; the next append is the one that dies.
        arm.store(true, Ordering::SeqCst);
        let crashing = {
            let durable = Arc::clone(&durable);
            thread::spawn(move || {
                let died = catch_unwind(AssertUnwindSafe(|| {
                    durable.write(None, &[GraphDelta::insert_edge(VertexId(1), VertexId(2))])
                }));
                assert!(died.is_err(), "the armed append must panic");
            })
        };
        crashing.join().unwrap();

        // Two racing writers: both must be refused, in every interleaving.
        let racer = {
            let durable = Arc::clone(&durable);
            thread::spawn(move || {
                durable
                    .write(None, &[GraphDelta::insert_edge(VertexId(0), VertexId(2))])
                    .expect_err("a wedged log must never ack")
            })
        };
        let refusal = durable
            .write(None, &[GraphDelta::insert_edge(VertexId(1), VertexId(2))])
            .expect_err("a wedged log must never ack");
        match &refusal {
            WriteError::NotPersisted(e) => {
                assert!(e.to_string().contains("wedged"), "unexpected refusal: {e}")
            }
            WriteError::Rejected(e) => panic!("refusal must be an I/O error, got: {e}"),
        }
        racer.join().unwrap();

        // The read path survives: queries and stats still answer.
        let response = durable.execute(&Request::community(VertexId(0))).unwrap();
        assert!(!response.communities().is_empty());
        let stats = durable.durability().expect("a durable engine reports its counters");
        assert_eq!(stats.log_records_appended, 0, "the dying write was never acknowledged");
    });
}
