//! A request's life replayed stage by stage, in-process, one span per call
//! the benchmark makes into a layer.
//!
//! A read goes `client.encode` → `server.decode` → `core.execute` →
//! `server.encode` → `client.decode`; a write goes `client.encode` →
//! `server.decode` → `durable.encode_record` → `durable.append_sync` →
//! `core.apply` → (`durable.compact` at the compaction cadence) →
//! `server.encode` → `client.decode`. Each stage calls the same public
//! function the deployed client, server or durable engine calls at that
//! point, on the bytes the previous stage produced. What `execute` and
//! `apply_updates` do inside is not visible from here; the kernel probes
//! report that separately.

use crate::spans::Recorder;
use acq_core::{Engine, Executor, Request, Response, UpdateReport, UpdateStrategy};
use acq_durable::{encode_record_tokened, DeltaLog, DurableOptions, FsStorage, WriteToken};
use acq_graph::GraphDelta;
use acq_server::{encode, read_frame, Frame, FrameKind, UpdateEnvelope, DEFAULT_MAX_FRAME_LEN};
use std::path::Path;

fn frame_of(bytes: &[u8]) -> Result<Frame, String> {
    read_frame(&mut &bytes[..], DEFAULT_MAX_FRAME_LEN)
        .map_err(|e| format!("staged frame does not decode: {e}"))?
        .ok_or_else(|| "staged frame is empty".to_owned())
}

fn text_of(frame: &Frame) -> Result<&str, String> {
    std::str::from_utf8(&frame.payload).map_err(|e| format!("staged payload is not UTF-8: {e}"))
}

fn to_json<T: serde::Serialize>(value: &T) -> Result<Vec<u8>, String> {
    serde_json::to_string(value).map(String::into_bytes).map_err(|e| format!("encode: {e}"))
}

fn from_json<T: serde::Deserialize>(frame: &Frame) -> Result<T, String> {
    serde_json::from_str(text_of(frame)?).map_err(|e| format!("decode: {e}"))
}

/// A stage that serializes `value` and frames it, counting the frame's bytes.
fn encode_stage<T: serde::Serialize>(
    recorder: &mut Recorder,
    (id, root): (u64, Option<usize>),
    name: &'static str,
    kind: FrameKind,
    value: &T,
) -> Result<Vec<u8>, String> {
    recorder.stage(id, root, name, |_, _| {
        let bytes = to_json(value).map(|payload| encode(&Frame::new(kind, id, payload)));
        let len = bytes.as_ref().map_or(0, |b| b.len() as u64);
        (bytes, vec![("bytes", len)])
    })
}

/// A stage that reads one frame off `wire` and deserializes its payload.
fn decode_stage<T: serde::Deserialize>(
    recorder: &mut Recorder,
    (id, root): (u64, Option<usize>),
    name: &'static str,
    wire: &[u8],
) -> Result<T, String> {
    recorder.stage(id, root, name, |_, _| {
        (frame_of(wire).and_then(|frame| from_json(&frame)), Vec::new())
    })
}

/// Replays one query through the five read stages under one root span.
pub fn read(
    recorder: &mut Recorder,
    engine: &Engine,
    id: u64,
    request: &Request,
) -> Result<Response, String> {
    recorder.stage(id, None, "read", |recorder, root| {
        let outcome = (|| {
            let at = (id, root);
            let wire = encode_stage(recorder, at, "client.encode", FrameKind::Query, request)?;
            let decoded: Request = decode_stage(recorder, at, "server.decode", &wire)?;
            let response = recorder.stage(id, root, "core.execute", |_, _| {
                let answer = engine.execute(&decoded).map_err(|e| format!("execute: {e}"));
                let counts = answer.as_ref().map_or(Vec::new(), |r| {
                    let members: usize =
                        r.result.communities.iter().map(|c| c.vertices.len()).sum();
                    vec![
                        ("candidates", r.result.stats.candidates_verified as u64),
                        ("members", members as u64),
                    ]
                });
                (answer, counts)
            })?;
            let wire = encode_stage(recorder, at, "server.encode", FrameKind::QueryOk, &response)?;
            decode_stage::<Response>(recorder, at, "client.decode", &wire)
        })();
        (outcome, Vec::new())
    })
}

/// The write path of the deployed stack, taken apart: the log the durable
/// engine would own and the engine it would wrap, driven in its order.
pub struct StagedWriter {
    log: DeltaLog,
    engine: Engine,
    compact_every: u64,
    since_compaction: u64,
    /// Record bytes appended plus snapshot bytes written by compactions.
    pub bytes_written: u64,
    pub reports: Vec<UpdateReport>,
}

impl StagedWriter {
    /// Opens an empty log under `dir` in front of `engine`.
    pub fn open(dir: &Path, engine: Engine) -> Result<Self, String> {
        let storage = FsStorage::open(dir).map_err(|e| format!("open {}: {e}", dir.display()))?;
        let (log, _) = DeltaLog::open(Box::new(storage)).map_err(|e| format!("open log: {e}"))?;
        Ok(Self {
            log,
            engine,
            compact_every: DurableOptions::default().compact_every,
            since_compaction: 0,
            bytes_written: 0,
            reports: Vec::new(),
        })
    }

    pub fn snapshot_bytes(&self) -> u64 {
        self.log.snapshot_bytes()
    }

    /// Replays one single-delta update through the write stages.
    pub fn write(
        &mut self,
        recorder: &mut Recorder,
        id: u64,
        delta: &GraphDelta,
    ) -> Result<(), String> {
        let token = WriteToken::new(1, id);
        recorder.stage(id, None, "write", |recorder, root| {
            let outcome = (|| {
                let at = (id, root);
                let envelope = UpdateEnvelope {
                    client_id: token.client_id,
                    write_seq: token.write_seq,
                    deadline_ms: None,
                    deltas: vec![delta.clone()],
                };
                let wire =
                    encode_stage(recorder, at, "client.encode", FrameKind::Update, &envelope)?;
                let deltas = recorder.stage(id, root, "server.decode", |_, _| {
                    // As the server does it: the bare-array form is tried
                    // first and fails on a tokened envelope.
                    let decoded = frame_of(&wire).and_then(|frame| {
                        from_json::<Vec<GraphDelta>>(&frame)
                            .or_else(|_| from_json::<UpdateEnvelope>(&frame).map(|e| e.deltas))
                    });
                    (decoded, Vec::new())
                })?;
                recorder.stage(id, root, "durable.encode_record", |_, _| {
                    let record =
                        encode_record_tokened(self.log.last_seq() + 1, Some(&token), &deltas);
                    let len = record.as_ref().map_or(0, |r| r.len() as u64);
                    (
                        record.map(drop).map_err(|e| format!("encode record: {e}")),
                        vec![("bytes", len)],
                    )
                })?;
                let seq = recorder.stage(id, root, "durable.append_sync", |_, _| {
                    let before = self.log.bytes_appended();
                    let seq = self.log.append_tokened(Some(&token), &deltas);
                    self.bytes_written += self.log.bytes_appended() - before;
                    (seq.map_err(|e| format!("append: {e}")), Vec::new())
                })?;
                let report = recorder.stage(id, root, "core.apply", |_, _| {
                    let report =
                        self.engine.apply_updates(&deltas).map_err(|e| format!("apply: {e}"));
                    let counts = report.as_ref().map_or(Vec::new(), |r| {
                        vec![
                            ("subcore_touched", r.subcore_touched as u64),
                            (
                                "rebuilt",
                                u64::from(r.strategy != UpdateStrategy::IncrementalStableSkeleton),
                            ),
                        ]
                    });
                    (report, counts)
                })?;
                self.since_compaction += 1;
                if self.since_compaction >= self.compact_every {
                    recorder.stage(id, root, "durable.compact", |_, _| {
                        let installed = self.log.install_snapshot(&self.engine.graph(), seq);
                        let bytes = self.log.snapshot_bytes();
                        (installed.map_err(|e| format!("compact: {e}")), vec![("bytes", bytes)])
                    })?;
                    self.since_compaction = 0;
                    self.bytes_written += self.log.snapshot_bytes();
                }
                let wire =
                    encode_stage(recorder, at, "server.encode", FrameKind::UpdateOk, &report)?;
                decode_stage::<UpdateReport>(recorder, at, "client.decode", &wire)?;
                self.reports.push(report);
                Ok(())
            })();
            (outcome, Vec::new())
        })
    }
}
