//! Fault-injection recovery suite for the crash-safe delta log.
//!
//! The acceptance property (see `docs/DURABILITY.md`): for an arbitrary
//! sequence of logged delta batches and an arbitrary crash or corruption
//! point, reopening the log **never panics**, recovers exactly the longest
//! valid record prefix, and a [`DurableEngine`] rebuilt from the surviving
//! bytes is byte-identical to an engine that applied exactly the
//! acknowledged prefix. Corruption is injected two ways:
//!
//! * directly on the stored bytes — truncation at an arbitrary offset, a
//!   single flipped bit, appended garbage ([`MemStorage::corrupt`]);
//! * through the storage layer — a scripted crash budget tears the write
//!   that crosses it ([`FaultyStorage`]), modelling `kill -9` mid-append.

use attributed_community_search::durable::{
    DeltaLog, DurableEngine, DurableOptions, FaultyStorage, MemStorage, ReadFault, LOG_FILE,
    LOG_MAGIC,
};
use attributed_community_search::prelude::*;
use proptest::prelude::*;
use std::sync::Arc;

/// Builds a small attributed graph from raw edge pairs and keyword picks.
fn build_graph(n: usize, edges: &[(u32, u32)], keywords: &[Vec<u32>]) -> AttributedGraph {
    let mut b = GraphBuilder::new();
    for kws in keywords.iter().take(n) {
        let terms: Vec<String> = kws.iter().map(|k| format!("kw{k}")).collect();
        let refs: Vec<&str> = terms.iter().map(String::as_str).collect();
        b.add_unlabeled_vertex(&refs);
    }
    for _ in keywords.len()..n {
        b.add_unlabeled_vertex(&[]);
    }
    for &(u, v) in edges {
        let (u, v) = (u % n as u32, v % n as u32);
        if u != v {
            b.add_edge(VertexId(u), VertexId(v)).unwrap();
        }
    }
    b.build()
}

/// Decodes raw proptest tuples into delta *batches* that stay valid against
/// a graph that starts with `n0` vertices (vertex inserts grow the id space
/// across batch boundaries, exactly as the engine would see them).
fn decode_batches(n0: usize, raw: &[Vec<(u32, u32, u32, u32)>]) -> Vec<Vec<GraphDelta>> {
    let mut n = n0;
    let mut batches = Vec::new();
    for raw_batch in raw {
        let mut deltas = Vec::new();
        for &(kind, a, b, kw) in raw_batch {
            let (a, b) = ((a as usize % n) as u32, (b as usize % n) as u32);
            let term = format!("kw{kw}");
            match kind {
                0 if a != b => deltas.push(GraphDelta::insert_edge(VertexId(a), VertexId(b))),
                1 if a != b => deltas.push(GraphDelta::remove_edge(VertexId(a), VertexId(b))),
                2 => deltas.push(GraphDelta::AddKeyword { vertex: VertexId(a), term }),
                3 => deltas.push(GraphDelta::RemoveKeyword { vertex: VertexId(a), term }),
                4 => {
                    deltas.push(GraphDelta::InsertVertex { label: None, keywords: vec![term] });
                    n += 1;
                }
                _ => {}
            }
        }
        batches.push(deltas);
    }
    batches
}

/// End offsets of each record in a log holding `batches`: `ends[j]` is the
/// file length after the first `j + 1` records (the 8-byte header included).
fn record_ends(batches: &[Vec<GraphDelta>]) -> Vec<u64> {
    let mut pos = LOG_MAGIC.len() as u64;
    batches
        .iter()
        .enumerate()
        .map(|(i, batch)| {
            let record = attributed_community_search::durable::encode_record(i as u64 + 1, batch)
                .expect("decoded batches encode");
            pos += record.len() as u64;
            pos
        })
        .collect()
}

/// Asserts a [`DurableEngine`] opened over `disk` is byte-identical to a
/// fresh engine that applied exactly `expected` — same graph JSON, same
/// generation, same answer to a probe query.
fn assert_engine_matches_prefix(
    disk: MemStorage,
    base: &Arc<AttributedGraph>,
    expected: &[Vec<GraphDelta>],
) {
    let (durable, report) =
        DurableEngine::open(Box::new(disk), Arc::clone(base), DurableOptions::default())
            .expect("recovery over corrupt bytes must not error");
    assert_eq!(report.records_replayed, expected.len() as u64);
    assert_eq!(report.batches_skipped, 0, "decoded prefix batches all apply");

    let reference = Engine::new(Arc::clone(base));
    for batch in expected {
        reference.apply_updates(batch).expect("acknowledged batches apply");
    }
    let (live, fresh) = (durable, reference);
    assert_eq!(live.generation(), fresh.generation());
    assert_eq!(
        serde_json::to_string(&*live.graph()).unwrap(),
        serde_json::to_string(&*fresh.graph()).unwrap(),
        "recovered graph diverged from the acknowledged prefix"
    );
    let probe = Request::community(VertexId(0)).k(2);
    let a = live.execute(&probe).expect("probe runs");
    let b = fresh.execute(&probe).expect("probe runs");
    assert_eq!(
        serde_json::to_string(&a.result).unwrap(),
        serde_json::to_string(&b.result).unwrap(),
        "recovered engine answers diverged"
    );
}

/// Opens a log over a clone of `disk` and returns the recovered batches,
/// also asserting that a second open is a no-op (recovery is idempotent:
/// the first open already truncated the garbage).
fn reopen_twice(disk: &MemStorage) -> Vec<Vec<GraphDelta>> {
    let (_, first) = DeltaLog::open(Box::new(disk.clone())).expect("recovery must not error");
    let (_, second) = DeltaLog::open(Box::new(disk.clone())).expect("reopen must not error");
    assert_eq!(second.truncated_bytes, 0, "second open found garbage the first left behind");
    assert_eq!(second.batches, first.batches, "reopen changed the recovered prefix");
    first.batches
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Corruption anywhere in the stored log — truncation, a flipped bit, or
    /// appended garbage at an arbitrary byte — recovers exactly the records
    /// untouched by the defect, and the rebuilt engine matches an engine fed
    /// that prefix.
    #[test]
    fn recovery_survives_arbitrary_log_corruption(
        raw in (
            6usize..12,
            proptest::collection::vec((0u32..16, 0u32..16), 6..30),
            proptest::collection::vec(proptest::collection::vec(0u32..5, 0..3), 12),
            proptest::collection::vec(
                proptest::collection::vec((0u32..5, 0u32..24, 0u32..24, 0u32..5), 1..5),
                1..6,
            ),
            0u32..3,     // corruption mode: truncate / flip a bit / append garbage
            0.0f64..1.0, // corruption position as a fraction of the file
        )
    ) {
        let (n, edges, keywords, raw_batches, mode, frac) = raw;
        let base = Arc::new(build_graph(n, &edges, &keywords));
        let batches = decode_batches(n, &raw_batches);

        // Log every batch over a pristine in-memory disk.
        let disk = MemStorage::new();
        let (mut log, _) = DeltaLog::open(Box::new(disk.clone())).unwrap();
        for batch in &batches {
            log.append(batch).expect("fault-free appends succeed");
        }
        drop(log);
        let ends = record_ends(&batches);
        let file_len = disk.len(LOG_FILE);
        prop_assert_eq!(*ends.last().unwrap(), file_len);

        // Inject the defect and work out which records it leaves intact.
        let c = ((file_len as f64 * frac) as u64).min(file_len.saturating_sub(1));
        let expected_records = match mode {
            0 => {
                disk.corrupt(LOG_FILE, |bytes| bytes.truncate(c as usize));
                ends.iter().take_while(|&&end| end <= c).count()
            }
            1 => {
                disk.corrupt(LOG_FILE, |bytes| bytes[c as usize] ^= 0x10);
                // The record containing byte `c` fails its checksum (or the
                // header fails its magic), killing it and everything after.
                ends.iter().take_while(|&&end| end <= c).count()
            }
            _ => {
                disk.corrupt(LOG_FILE, |bytes| bytes.extend_from_slice(&[0xFF; 13]));
                batches.len()
            }
        };

        let recovered = reopen_twice(&disk);
        prop_assert_eq!(&recovered, &batches[..expected_records],
            "recovered prefix is not the longest valid one (mode {}, byte {})", mode, c);
        assert_engine_matches_prefix(disk, &base, &recovered);
    }

    /// A scripted crash at an arbitrary byte budget — the storage-layer view
    /// of `kill -9` — tears the in-flight append. Every *acknowledged*
    /// append survives the reboot; the torn tail is truncated away.
    #[test]
    fn every_acknowledged_append_survives_a_torn_write_crash(
        raw in (
            6usize..12,
            proptest::collection::vec((0u32..16, 0u32..16), 6..30),
            proptest::collection::vec(proptest::collection::vec(0u32..5, 0..3), 12),
            proptest::collection::vec(
                proptest::collection::vec((0u32..5, 0u32..24, 0u32..24, 0u32..5), 1..5),
                1..6,
            ),
            0.0f64..1.05, // crash budget as a fraction of the total bytes written
        )
    ) {
        let (n, edges, keywords, raw_batches, frac) = raw;
        let base = Arc::new(build_graph(n, &edges, &keywords));
        let batches = decode_batches(n, &raw_batches);
        let ends = record_ends(&batches);
        let total = *ends.last().unwrap();

        // Crash once `budget` bytes are on the platters. The 8-byte log
        // header written by `open` counts toward the budget too.
        let budget = ((total as f64 * frac) as u64).min(total);
        let faulty = FaultyStorage::new();
        faulty.crash_after_bytes(budget);

        let mut acked = 0usize;
        match DeltaLog::open(Box::new(faulty.clone())) {
            Err(_) => {
                // The header write itself tore; nothing was ever logged.
                prop_assert!(budget < LOG_MAGIC.len() as u64);
            }
            Ok((mut log, _)) => {
                for batch in &batches {
                    match log.append(batch) {
                        Ok(_) => acked += 1,
                        Err(_) => break,
                    }
                }
            }
        }
        let expected = ends.iter().take_while(|&&end| end <= budget).count();
        prop_assert_eq!(acked, expected, "ack count vs durable prefix (budget {})", budget);
        prop_assert!(acked == batches.len() || faulty.crashed());

        // Reboot: reopen over the surviving bytes only.
        let recovered = reopen_twice(&faulty.disk());
        prop_assert_eq!(&recovered, &batches[..acked],
            "an acknowledged batch was lost, or an unacknowledged one survived");
        assert_engine_matches_prefix(faulty.disk(), &base, &recovered);
    }
}

#[test]
fn compaction_snapshot_recovers_without_replaying_folded_records() {
    let base = Arc::new(paper_figure3_graph());
    let disk = MemStorage::new();
    let options = DurableOptions { compact_every: 2 };
    let (durable, _) =
        DurableEngine::open(Box::new(disk.clone()), Arc::clone(&base), options).unwrap();
    for i in 0..5u32 {
        durable.write(None, &[GraphDelta::insert_vertex(None, &[&format!("snap{i}")])]).unwrap();
    }
    let stats = durable.durability().expect("a durable engine reports its counters");
    assert!(stats.compactions >= 2, "compact_every=2 over 5 batches: {stats:?}");
    assert!(stats.snapshot_bytes > 0);
    assert_eq!(stats.compaction_failures, 0);
    assert!(stats.last_compaction_micros > 0);
    let expected_graph = serde_json::to_string(&*durable.graph()).unwrap();
    drop(durable);

    let (reopened, report) =
        DurableEngine::open(Box::new(disk), base, DurableOptions::default()).unwrap();
    assert!(report.snapshot_loaded, "compaction must have installed a snapshot");
    assert!(
        report.records_replayed < 5,
        "snapshot-covered records replayed: {}",
        report.records_replayed
    );
    assert_eq!(serde_json::to_string(&*reopened.graph()).unwrap(), expected_graph);
}

#[test]
fn a_rejected_batch_is_rolled_out_of_the_log() {
    let base = Arc::new(paper_figure3_graph());
    let disk = MemStorage::new();
    let (durable, _) =
        DurableEngine::open(Box::new(disk.clone()), Arc::clone(&base), DurableOptions::default())
            .unwrap();
    durable.write(None, &[GraphDelta::insert_edge(VertexId(0), VertexId(5))]).unwrap();
    // Vertex 999 does not exist: the engine refuses the batch, so the log
    // entry written ahead of it must be rolled back, not replayed later.
    let err =
        durable.write(None, &[GraphDelta::insert_edge(VertexId(0), VertexId(999))]).unwrap_err();
    assert!(err.to_string().contains("999"), "unexpected error: {err}");
    assert_eq!(durable.generation(), 2, "rejected batch must not apply");
    durable.write(None, &[GraphDelta::remove_edge(VertexId(0), VertexId(5))]).unwrap();
    drop(durable);

    let (_, recovered) = DeltaLog::open(Box::new(disk)).unwrap();
    assert_eq!(
        recovered.batches,
        vec![
            vec![GraphDelta::insert_edge(VertexId(0), VertexId(5))],
            vec![GraphDelta::remove_edge(VertexId(0), VertexId(5))],
        ],
        "the rejected batch leaked into the replay set"
    );
}

#[test]
fn an_unpersisted_batch_is_neither_acknowledged_nor_applied() {
    let base = Arc::new(paper_figure3_graph());
    let faulty = FaultyStorage::new();
    let (durable, _) =
        DurableEngine::open(Box::new(faulty.clone()), Arc::clone(&base), DurableOptions::default())
            .unwrap();
    // Allow no bytes beyond the 8 already written for the header: the next
    // append tears immediately.
    faulty.crash_after_bytes(8);
    let err =
        durable.write(None, &[GraphDelta::insert_edge(VertexId(0), VertexId(5))]).unwrap_err();
    assert!(err.to_string().contains("not persisted"), "unexpected error: {err}");
    assert_eq!(durable.generation(), 1, "unlogged batch must not apply");
    assert!(!durable.graph().has_edge(VertexId(0), VertexId(5)));
}

#[test]
fn a_failed_sync_refuses_the_ack_and_the_log_keeps_working_after_repair() {
    let faulty = FaultyStorage::new();
    let (mut log, _) = DeltaLog::open(Box::new(faulty.clone())).unwrap();
    faulty.fail_syncs(true);
    // The bytes hit the disk but the fsync failed: no ack, and the repair
    // truncation restores the old length so the log is still usable.
    log.append(&[GraphDelta::insert_edge(VertexId(0), VertexId(1))]).unwrap_err();
    assert_eq!(faulty.disk().len(LOG_FILE), 8, "unsynced record repaired away");
    faulty.fail_syncs(false);
    let seq = log.append(&[GraphDelta::insert_edge(VertexId(0), VertexId(2))]).unwrap();
    assert_eq!(seq, 1, "the failed append must not burn a sequence number");
    let (_, recovered) = DeltaLog::open(Box::new(faulty.disk())).unwrap();
    assert_eq!(recovered.batches, vec![vec![GraphDelta::insert_edge(VertexId(0), VertexId(2))]]);
}

#[test]
fn unreadable_storage_surfaces_an_error_instead_of_panicking() {
    let faulty = FaultyStorage::new();
    {
        let (mut log, _) = DeltaLog::open(Box::new(faulty.clone())).unwrap();
        log.append(&[GraphDelta::insert_edge(VertexId(0), VertexId(1))]).unwrap();
    }
    faulty.set_read_fault(LOG_FILE, ReadFault::Error);
    let base = Arc::new(paper_figure3_graph());
    let result = DurableEngine::open(Box::new(faulty.clone()), base, DurableOptions::default());
    assert!(result.is_err(), "an unreadable log is an infrastructure failure, not corruption");
    faulty.heal();
}

#[test]
fn a_short_read_recovers_like_a_torn_tail() {
    let faulty = FaultyStorage::new();
    let first = vec![GraphDelta::insert_edge(VertexId(0), VertexId(1))];
    let second = vec![GraphDelta::insert_edge(VertexId(2), VertexId(3))];
    let cut = {
        let (mut log, _) = DeltaLog::open(Box::new(faulty.clone())).unwrap();
        log.append(&first).unwrap();
        let cut = log.log_len() + 5; // mid-way through the second record
        log.append(&second).unwrap();
        cut
    };
    // Reads see only a prefix — the lost-tail view a dying disk gives.
    faulty.set_read_fault(LOG_FILE, ReadFault::Short(cut as usize));
    let (log, recovered) = DeltaLog::open(Box::new(faulty.clone())).unwrap();
    assert_eq!(recovered.batches, vec![first], "the half-visible record must be dropped");
    assert!(recovered.truncated_bytes > 0);
    drop(log);
    faulty.heal();
    // Recovery truncated the real file down to what it could verify, so a
    // healed reopen agrees with the degraded one.
    assert_eq!(faulty.disk().len(LOG_FILE), cut - 5);
}

/// The dedup window is bounded: at capacity the oldest token is evicted, and
/// a retry of an evicted token is no longer recognised — it re-applies. That
/// is the documented trade-off (`docs/DURABILITY.md`): the window turns
/// "retry may double-apply" into "retry within the window never does".
#[test]
fn dedup_window_evicts_at_capacity_and_an_evicted_token_reapplies() {
    use attributed_community_search::durable::{DedupWindow, WriteToken};
    let disk = MemStorage::new();
    let base = Arc::new(paper_figure3_graph());
    let (durable, _) =
        DurableEngine::open(Box::new(disk), Arc::clone(&base), DurableOptions::default()).unwrap();

    let mut window = DedupWindow::new(2);
    for seq in 1..=3u64 {
        let token = WriteToken::new(1, seq);
        let batch = vec![GraphDelta::InsertVertex { label: None, keywords: vec![] }];
        let report = durable.write(Some(&token), &batch).unwrap();
        window.record(token, report);
    }
    assert_eq!(window.len(), 2, "the window is bounded at its capacity");
    assert!(window.get(&WriteToken::new(1, 1)).is_none(), "oldest token evicted");
    assert!(window.get(&WriteToken::new(1, 2)).is_some());
    assert!(window.get(&WriteToken::new(1, 3)).is_some());

    // A retry of the evicted token is not recognised: it applies again, as a
    // fresh write would. generation 4 (base 1 + three batches) becomes 5.
    let generation_before = durable.generation();
    let token = WriteToken::new(1, 1);
    let batch = vec![GraphDelta::InsertVertex { label: None, keywords: vec![] }];
    let report = durable.write(Some(&token), &batch).unwrap();
    assert_eq!(report.generation, generation_before + 1, "an evicted token re-applies");
}

/// Tokens ride inside logged records, so the dedup guarantee survives a
/// crash: a `DurableEngine::open_dir` recovery returns every tokened
/// record's (token, report) pair, in order, and a window reseeded from them
/// replays a pre-crash retry instead of re-applying it.
#[test]
fn dedup_tokens_survive_crash_recovery_through_open_dir() {
    use attributed_community_search::durable::{DedupWindow, WriteToken};
    let dir = std::env::temp_dir().join(format!("acq-dedup-recovery-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let base = Arc::new(paper_figure3_graph());

    // First life: two tokened writes and one tokenless one, then "crash".
    let tokens = [WriteToken::new(9, 1), WriteToken::new(9, 2)];
    let first_reports = {
        let (durable, _) =
            DurableEngine::open_dir(&dir, Arc::clone(&base), DurableOptions::default()).unwrap();
        let reports: Vec<_> = tokens
            .iter()
            .map(|token| {
                let batch = vec![GraphDelta::InsertVertex { label: None, keywords: vec![] }];
                durable.write(Some(token), &batch).unwrap()
            })
            .collect();
        durable.write(None, &[GraphDelta::insert_edge(VertexId(7), VertexId(5))]).unwrap();
        reports
        // drop = crash: nothing about the window itself was persisted.
    };

    // Second life: recovery hands back exactly the tokened pairs, in order.
    let (durable, report) =
        DurableEngine::open_dir(&dir, Arc::clone(&base), DurableOptions::default()).unwrap();
    assert_eq!(report.records_replayed, 3);
    let recovered = durable.recovered_tokens();
    assert_eq!(recovered.len(), 2, "only tokened records carry tokens");
    assert_eq!(recovered[0].0, tokens[0]);
    assert_eq!(recovered[1].0, tokens[1]);
    assert_eq!(recovered[0].1, first_reports[0], "replayed report matches the acknowledged one");
    assert_eq!(recovered[1].1, first_reports[1]);

    // A window reseeded from recovery replays the pre-crash retry.
    let mut window = DedupWindow::new(16);
    for (token, report) in recovered {
        window.record(*token, report.clone());
    }
    assert_eq!(window.get(&tokens[0]), Some(&first_reports[0]));
    assert_eq!(window.get(&WriteToken::new(9, 3)), None, "an unseen token still applies normally");
    let _ = std::fs::remove_dir_all(&dir);
}
