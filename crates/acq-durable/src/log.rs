//! The append-only, checksummed delta log and its snapshot sibling.
//!
//! # On-disk layout
//!
//! Two files live under one [`Storage`]:
//!
//! * **`deltas.log`** — an 8-byte magic header (`ACQLOG\0\x01`) followed by
//!   records. Each record is
//!
//!   ```text
//!   [u32 BE len] [u32 BE crc] [u64 BE seq] [payload: JSON]
//!   ```
//!
//!   where `len` counts the `seq` field plus the payload (`8 + payload`), and
//!   `crc` is the CRC-32 (see [`crc32`](crate::crc32)) of those same `len`
//!   bytes. Sequence numbers start at 1 and increase strictly, one per
//!   appended batch, and never reset — a compaction folds a prefix of them
//!   into the snapshot.
//!
//!   The payload is either a bare JSON `Vec<GraphDelta>` (a tokenless batch,
//!   byte-identical to format version 1 as first shipped) or, for a batch
//!   carrying an idempotency token, the envelope object
//!   `{"token":{"client_id":…,"write_seq":…},"deltas":[…]}`. The two shapes
//!   are self-describing (array vs object), so no version bump is needed:
//!   old logs replay unchanged, and a token is recovered with its batch so
//!   the transactor's dedup window survives a crash (see
//!   [`WriteToken`](crate::WriteToken)).
//!
//! * **`snapshot.bin`** — an 8-byte magic header (`ACQSNP\0\x01`) followed by
//!   exactly one record in the same layout, whose payload is the full JSON
//!   graph and whose `seq` is the last log sequence number folded in.
//!
//! # Recovery
//!
//! [`DeltaLog::open`] never panics on stored bytes. It reads the snapshot
//! (discarding it wholesale if anything — magic, length, checksum, JSON —
//! fails to verify), then scans the log from the start, keeping the longest
//! prefix of records that decode cleanly with strictly increasing sequence
//! numbers, and truncates everything after it. Records whose `seq` is
//! already covered by the snapshot are dropped from the replay set, which is
//! what makes a crash *between* snapshot rename and log truncation safe:
//! replaying those records twice would double-apply non-idempotent deltas
//! (`InsertVertex`), so they are filtered by sequence number instead.

use crate::crc::crc32;
use crate::storage::Storage;
use acq_core::WriteToken;
use acq_graph::{AttributedGraph, GraphDelta};
use std::io;

/// The log file name under a [`Storage`].
pub const LOG_FILE: &str = "deltas.log";
/// The snapshot file name under a [`Storage`].
pub const SNAPSHOT_FILE: &str = "snapshot.bin";
/// First 8 bytes of a delta log: magic + format version.
pub const LOG_MAGIC: [u8; 8] = *b"ACQLOG\x00\x01";
/// First 8 bytes of a snapshot: magic + format version.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"ACQSNP\x00\x01";
/// Bytes of framing per record before the payload: `len` + `crc` + `seq`.
pub const RECORD_HEADER_LEN: usize = 16;

/// Upper bound on a record's `len` field. Anything larger is treated as
/// corruption: a single delta batch is bounded by the server's 1 MiB frame
/// cap, and a snapshot of a graph this workspace can hold in memory stays
/// far below this.
const MAX_RECORD_LEN: u32 = 1 << 26;

/// Encodes one tokenless record: framing per the module docs, payload =
/// bare JSON `deltas`. Byte-identical to the format as first shipped.
pub fn encode_record(seq: u64, deltas: &[GraphDelta]) -> io::Result<Vec<u8>> {
    encode_record_tokened(seq, None, deltas)
}

/// Encodes one record; with a token the payload is the
/// `{"token":…,"deltas":…}` envelope, without one it is the bare array.
pub fn encode_record_tokened(
    seq: u64,
    token: Option<&WriteToken>,
    deltas: &[GraphDelta],
) -> io::Result<Vec<u8>> {
    let json = match token {
        None => serde_json::to_string(&deltas.to_vec()),
        Some(token) => {
            serde_json::to_string(&TokenedPayload { token: *token, deltas: deltas.to_vec() })
        }
    };
    let payload = json
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("unencodable batch: {e}")))?
        .into_bytes();
    Ok(frame_record(seq, &payload))
}

/// The envelope payload of a tokened record.
#[derive(serde::Serialize, serde::Deserialize)]
struct TokenedPayload {
    token: WriteToken,
    deltas: Vec<GraphDelta>,
}

/// Wraps `payload` in the `[len][crc][seq]` framing.
fn frame_record(seq: u64, payload: &[u8]) -> Vec<u8> {
    let len = (8 + payload.len()) as u32;
    let mut record = Vec::with_capacity(RECORD_HEADER_LEN + payload.len());
    record.extend_from_slice(&len.to_be_bytes());
    record.extend_from_slice(&[0; 4]); // crc placeholder
    record.extend_from_slice(&seq.to_be_bytes());
    record.extend_from_slice(payload);
    let crc = crc32(&record[8..]);
    record[4..8].copy_from_slice(&crc.to_be_bytes());
    record
}

/// Decodes the framed record starting at `pos`, returning
/// `(seq, payload, next_pos)`. `None` on any defect: short header, absurd or
/// past-EOF length, checksum mismatch.
fn decode_frame_at(bytes: &[u8], pos: usize) -> Option<(u64, &[u8], usize)> {
    let header = bytes.get(pos..pos + 8)?;
    let len = u32::from_be_bytes(read_array::<4>(header, 0)?);
    if !(8..=MAX_RECORD_LEN).contains(&len) {
        return None;
    }
    let stored_crc = u32::from_be_bytes(read_array::<4>(header, 4)?);
    let body = bytes.get(pos + 8..pos + 8 + len as usize)?;
    if crc32(body) != stored_crc {
        return None;
    }
    let seq = u64::from_be_bytes(read_array::<8>(body, 0)?);
    Some((seq, &body[8..], pos + 8 + len as usize))
}

/// Checked fixed-size read: `None` instead of a panic when `bytes` is too
/// short, keeping every decode defect on the single "torn tail" path.
fn read_array<const N: usize>(bytes: &[u8], at: usize) -> Option<[u8; N]> {
    bytes.get(at..at + N)?.try_into().ok()
}

/// Decodes a payload as a delta batch — the bare array or the tokened
/// envelope; `None` on any decode failure. The shapes are unambiguous: an
/// array never decodes as the envelope struct and vice versa.
fn decode_batch(payload: &[u8]) -> Option<(Vec<GraphDelta>, Option<WriteToken>)> {
    let text = std::str::from_utf8(payload).ok()?;
    if let Ok(batch) = serde_json::from_str::<Vec<GraphDelta>>(text) {
        return Some((batch, None));
    }
    let tokened: TokenedPayload = serde_json::from_str(text).ok()?;
    Some((tokened.deltas, Some(tokened.token)))
}

/// One scanned log record: its sequence number, the decoded batch, and the
/// idempotency token if the record carried one.
type ScannedRecord = (u64, Vec<GraphDelta>, Option<WriteToken>);

/// Scans log `bytes` (header already verified) and returns the byte offset
/// just past the last valid record plus the decoded `(seq, batch)` prefix.
fn scan_records(bytes: &[u8]) -> (u64, Vec<ScannedRecord>) {
    let mut pos = LOG_MAGIC.len();
    let mut records = Vec::new();
    let mut prev_seq = 0u64;
    while pos < bytes.len() {
        let Some((seq, payload, next)) = decode_frame_at(bytes, pos) else { break };
        if seq <= prev_seq {
            break;
        }
        let Some((batch, token)) = decode_batch(payload) else { break };
        records.push((seq, batch, token));
        prev_seq = seq;
        pos = next;
    }
    (pos as u64, records)
}

/// Parses snapshot `bytes`: magic, then exactly one record whose payload is
/// the JSON graph. `None` (discard the snapshot) on any defect.
fn parse_snapshot(bytes: &[u8]) -> Option<(u64, AttributedGraph)> {
    if bytes.len() < SNAPSHOT_MAGIC.len() || bytes[..SNAPSHOT_MAGIC.len()] != SNAPSHOT_MAGIC {
        return None;
    }
    let (seq, payload, end) = decode_frame_at(bytes, SNAPSHOT_MAGIC.len())?;
    if end != bytes.len() {
        return None;
    }
    let text = std::str::from_utf8(payload).ok()?;
    let graph: AttributedGraph = serde_json::from_str(text).ok()?;
    Some((seq, graph))
}

/// What [`DeltaLog::open`] salvaged from storage.
#[derive(Debug)]
pub struct RecoveredLog {
    /// The compaction snapshot, if one was present and verified.
    pub snapshot: Option<AttributedGraph>,
    /// The sequence number folded into the snapshot (0 without one).
    pub snapshot_seq: u64,
    /// A snapshot was present but failed verification and was discarded.
    pub snapshot_discarded: bool,
    /// The replay set: decoded batches with `seq > snapshot_seq`, in order.
    pub batches: Vec<Vec<GraphDelta>>,
    /// The idempotency token of each replay batch, parallel to `batches`
    /// (`None` for tokenless records). Seeds the transactor's dedup window
    /// so a retry that straddles a crash still replays instead of
    /// re-applying.
    pub tokens: Vec<Option<WriteToken>>,
    /// Trailing bytes dropped from the log (torn/corrupt records).
    pub truncated_bytes: u64,
}

/// The append-only delta log over a [`Storage`]. See the module docs for the
/// record format and recovery semantics.
pub struct DeltaLog {
    storage: Box<dyn Storage>,
    /// Sequence number the next append will carry.
    next_seq: u64,
    /// Current log file length (header + valid records).
    log_len: u64,
    /// `(offset_before, seq_before)` of the latest append, for rollback.
    last_append: Option<(u64, u64)>,
    /// Set when the on-disk length could not be restored after a failed
    /// append; all further appends are refused rather than interleaving new
    /// records with stranded garbage.
    poisoned: bool,
    bytes_appended: u64,
    records_appended: u64,
    snapshot_bytes: u64,
}

impl std::fmt::Debug for DeltaLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DeltaLog")
            .field("next_seq", &self.next_seq)
            .field("log_len", &self.log_len)
            .field("poisoned", &self.poisoned)
            .finish_non_exhaustive()
    }
}

impl DeltaLog {
    /// Opens (creating if empty) the log under `storage`, running recovery:
    /// verify the snapshot, keep the longest valid record prefix of the log,
    /// truncate the rest. Only infrastructure failures (storage reads or the
    /// truncation itself) error; stored corruption never does.
    pub fn open(mut storage: Box<dyn Storage>) -> io::Result<(Self, RecoveredLog)> {
        // A crashed compaction may leave a temp sibling; it was never part
        // of the durable state, so drop it.
        let _ = storage.remove(&format!("{SNAPSHOT_FILE}.tmp"));

        let mut recovered = RecoveredLog {
            snapshot: None,
            snapshot_seq: 0,
            snapshot_discarded: false,
            batches: Vec::new(),
            tokens: Vec::new(),
            truncated_bytes: 0,
        };
        let mut snapshot_bytes = 0u64;
        if let Some(bytes) = storage.read(SNAPSHOT_FILE)? {
            match parse_snapshot(&bytes) {
                Some((seq, graph)) => {
                    recovered.snapshot = Some(graph);
                    recovered.snapshot_seq = seq;
                    snapshot_bytes = bytes.len() as u64;
                }
                None => {
                    recovered.snapshot_discarded = true;
                    let _ = storage.remove(SNAPSHOT_FILE);
                }
            }
        }

        let (log_len, records) = match storage.read(LOG_FILE)? {
            None => {
                storage.append(LOG_FILE, &LOG_MAGIC)?;
                storage.sync(LOG_FILE)?;
                (LOG_MAGIC.len() as u64, Vec::new())
            }
            Some(bytes) => {
                if bytes.len() < LOG_MAGIC.len() || bytes[..LOG_MAGIC.len()] != LOG_MAGIC {
                    // The header itself is gone; nothing after it can be
                    // trusted. Start the log over.
                    recovered.truncated_bytes += bytes.len() as u64;
                    storage.truncate(LOG_FILE, 0)?;
                    storage.append(LOG_FILE, &LOG_MAGIC)?;
                    storage.sync(LOG_FILE)?;
                    (LOG_MAGIC.len() as u64, Vec::new())
                } else {
                    let (valid_end, records) = scan_records(&bytes);
                    if valid_end < bytes.len() as u64 {
                        recovered.truncated_bytes += bytes.len() as u64 - valid_end;
                        storage.truncate(LOG_FILE, valid_end)?;
                    }
                    (valid_end, records)
                }
            }
        };

        let last_seq = records.last().map_or(0, |(seq, _, _)| *seq).max(recovered.snapshot_seq);
        for (seq, batch, token) in records {
            if seq > recovered.snapshot_seq {
                recovered.batches.push(batch);
                recovered.tokens.push(token);
            }
        }

        let log = DeltaLog {
            storage,
            next_seq: last_seq + 1,
            log_len,
            last_append: None,
            poisoned: false,
            bytes_appended: 0,
            records_appended: 0,
            snapshot_bytes,
        };
        Ok((log, recovered))
    }

    /// Appends one tokenless batch as a record and syncs it to stable
    /// storage. On success the batch is durable and its sequence number is
    /// returned; on failure nothing is acknowledged, and the log restores
    /// (or, failing that, poisons) its on-disk state.
    pub fn append(&mut self, deltas: &[GraphDelta]) -> io::Result<u64> {
        self.append_tokened(None, deltas)
    }

    /// [`append`](Self::append), but the record carries the batch's
    /// idempotency token so recovery can reseed the dedup window.
    pub fn append_tokened(
        &mut self,
        token: Option<&WriteToken>,
        deltas: &[GraphDelta],
    ) -> io::Result<u64> {
        if self.poisoned {
            return Err(io::Error::other("delta log poisoned by an earlier append failure"));
        }
        let seq = self.next_seq;
        let record = encode_record_tokened(seq, token, deltas)?;
        if let Err(e) =
            self.storage.append(LOG_FILE, &record).and_then(|()| self.storage.sync(LOG_FILE))
        {
            // The tail may hold a torn record; cut back to the last good
            // length so a still-working disk can keep going.
            if self.storage.truncate(LOG_FILE, self.log_len).is_err() {
                self.poisoned = true;
            }
            return Err(e);
        }
        self.last_append = Some((self.log_len, seq));
        self.log_len += record.len() as u64;
        self.bytes_appended += record.len() as u64;
        self.records_appended += 1;
        self.next_seq = seq + 1;
        Ok(seq)
    }

    /// Removes the most recent append — the undo path for a batch the engine
    /// then refused to apply, so the log never replays a batch that was not
    /// acknowledged.
    pub fn rollback_last(&mut self) -> io::Result<()> {
        if let Some((offset, seq)) = self.last_append.take() {
            if let Err(e) = self.storage.truncate(LOG_FILE, offset) {
                self.poisoned = true;
                return Err(e);
            }
            self.log_len = offset;
            self.next_seq = seq;
        }
        Ok(())
    }

    /// Atomically replaces the snapshot with `graph` (covering every record
    /// up to and including `seq`) and truncates the log back to its header.
    /// A crash between the two steps is safe: leftover records with
    /// `seq <= snapshot_seq` are filtered on the next open.
    pub fn install_snapshot(&mut self, graph: &AttributedGraph, seq: u64) -> io::Result<()> {
        let payload = serde_json::to_string(graph)
            .map_err(|e| {
                io::Error::new(io::ErrorKind::InvalidData, format!("unencodable graph: {e}"))
            })?
            .into_bytes();
        let mut bytes = SNAPSHOT_MAGIC.to_vec();
        bytes.extend_from_slice(&frame_record(seq, &payload));
        self.storage.write_atomic(SNAPSHOT_FILE, &bytes)?;
        self.snapshot_bytes = bytes.len() as u64;
        self.storage.truncate(LOG_FILE, LOG_MAGIC.len() as u64)?;
        self.log_len = LOG_MAGIC.len() as u64;
        self.last_append = None;
        Ok(())
    }

    /// The sequence number of the most recently appended record (0 if the
    /// log has only ever been compacted or is fresh).
    pub fn last_seq(&self) -> u64 {
        self.next_seq - 1
    }

    /// Current length of the log file in bytes, header included.
    pub fn log_len(&self) -> u64 {
        self.log_len
    }

    /// Bytes appended (records only, before any rollback) since open.
    pub fn bytes_appended(&self) -> u64 {
        self.bytes_appended
    }

    /// Records appended since open.
    pub fn records_appended(&self) -> u64 {
        self.records_appended
    }

    /// Size in bytes of the current snapshot file (0 if none).
    pub fn snapshot_bytes(&self) -> u64 {
        self.snapshot_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::MemStorage;
    use acq_graph::VertexId;

    /// The record layout is an on-disk contract: these exact bytes are
    /// documented (hex-annotated) in `docs/DURABILITY.md`, in the style of
    /// the pinned-frame test in `acq-server::frame`. If this test breaks,
    /// you changed the format — bump the version byte in [`LOG_MAGIC`] and
    /// update the doc.
    #[test]
    fn record_bytes_are_pinned() {
        let record =
            encode_record(1, &[GraphDelta::insert_edge(VertexId(0), VertexId(1))]).unwrap();
        #[rustfmt::skip]
        let expected: [u8; 46] = [
            0x00, 0x00, 0x00, 0x26, // len   = 38 (seq + payload), u32 BE
            0x15, 0x43, 0x5C, 0x2C, // crc32 over the 38 bytes below
            0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, // seq = 1, u64 BE
            // payload: [{"InsertEdge":{"u":0,"v":1}}]
            0x5B, 0x7B, 0x22, 0x49, 0x6E, 0x73, 0x65, 0x72,
            0x74, 0x45, 0x64, 0x67, 0x65, 0x22, 0x3A, 0x7B,
            0x22, 0x75, 0x22, 0x3A, 0x30, 0x2C, 0x22, 0x76,
            0x22, 0x3A, 0x31, 0x7D, 0x7D, 0x5D,
        ];
        assert_eq!(record, expected);
        let (seq, payload, end) = decode_frame_at(&record, 0).expect("pinned record decodes");
        assert_eq!((seq, end), (1, record.len()));
        assert_eq!(
            decode_batch(payload).unwrap(),
            (vec![GraphDelta::insert_edge(VertexId(0), VertexId(1))], None)
        );
    }

    /// A tokened record wraps the same batch in the `{"token":…,"deltas":…}`
    /// envelope — the payload JSON is pinned here (and quoted in
    /// `docs/DURABILITY.md`), and the framing around it is the unchanged v1
    /// record format, which is why [`LOG_MAGIC`] keeps its version byte:
    /// bumping it would make every pre-token log fail the magic check and be
    /// restarted from scratch on upgrade.
    #[test]
    fn tokened_record_payload_is_pinned() {
        let token = WriteToken::new(7, 1);
        let deltas = [GraphDelta::insert_edge(VertexId(0), VertexId(1))];
        let record = encode_record_tokened(1, Some(&token), &deltas).unwrap();
        let (seq, payload, end) = decode_frame_at(&record, 0).expect("tokened record decodes");
        assert_eq!((seq, end), (1, record.len()));
        assert_eq!(
            std::str::from_utf8(payload).unwrap(),
            r#"{"token":{"client_id":7,"write_seq":1},"deltas":[{"InsertEdge":{"u":0,"v":1}}]}"#
        );
        assert_eq!(decode_batch(payload).unwrap(), (deltas.to_vec(), Some(token)));
        // And the tokenless encoding of the same batch is byte-identical to
        // the pinned v1 record.
        assert_eq!(
            encode_record_tokened(1, None, &deltas).unwrap(),
            encode_record(1, &deltas).unwrap()
        );
    }

    #[test]
    fn magic_headers_are_pinned() {
        assert_eq!(&LOG_MAGIC, b"ACQLOG\x00\x01");
        assert_eq!(&SNAPSHOT_MAGIC, b"ACQSNP\x00\x01");
    }

    fn batch(i: u32) -> Vec<GraphDelta> {
        vec![GraphDelta::insert_edge(VertexId(i), VertexId(i + 1))]
    }

    #[test]
    fn append_then_open_replays_in_order() {
        let disk = MemStorage::new();
        let (mut log, _) = DeltaLog::open(Box::new(disk.clone())).unwrap();
        for i in 0..5 {
            assert_eq!(log.append(&batch(i)).unwrap(), u64::from(i) + 1);
        }
        assert_eq!(log.records_appended(), 5);
        assert_eq!(log.log_len(), disk.len(LOG_FILE));

        let (log, recovered) = DeltaLog::open(Box::new(disk)).unwrap();
        assert_eq!(recovered.batches, (0..5).map(batch).collect::<Vec<_>>());
        assert_eq!(recovered.tokens, vec![None; 5], "tokenless records recover without tokens");
        assert_eq!(recovered.truncated_bytes, 0);
        assert_eq!(log.last_seq(), 5);
    }

    #[test]
    fn tokened_appends_recover_their_tokens_in_order() {
        let disk = MemStorage::new();
        let (mut log, _) = DeltaLog::open(Box::new(disk.clone())).unwrap();
        let token_a = WriteToken::new(3, 1);
        let token_b = WriteToken::new(3, 2);
        log.append_tokened(Some(&token_a), &batch(0)).unwrap();
        log.append(&batch(1)).unwrap();
        log.append_tokened(Some(&token_b), &batch(2)).unwrap();

        let (_, recovered) = DeltaLog::open(Box::new(disk)).unwrap();
        assert_eq!(recovered.batches, vec![batch(0), batch(1), batch(2)]);
        assert_eq!(recovered.tokens, vec![Some(token_a), None, Some(token_b)]);
    }

    #[test]
    fn trailing_garbage_is_truncated_on_open() {
        let disk = MemStorage::new();
        let (mut log, _) = DeltaLog::open(Box::new(disk.clone())).unwrap();
        log.append(&batch(0)).unwrap();
        let good_len = disk.len(LOG_FILE);
        disk.corrupt(LOG_FILE, |bytes| bytes.extend_from_slice(&[0xFF; 13]));

        let (_, recovered) = DeltaLog::open(Box::new(disk.clone())).unwrap();
        assert_eq!(recovered.batches, vec![batch(0)]);
        assert_eq!(recovered.truncated_bytes, 13);
        assert_eq!(disk.len(LOG_FILE), good_len, "the file was repaired in place");

        // A second open finds nothing left to repair.
        let (_, recovered) = DeltaLog::open(Box::new(disk)).unwrap();
        assert_eq!(recovered.truncated_bytes, 0);
    }

    #[test]
    fn a_non_monotonic_sequence_ends_the_valid_prefix() {
        let disk = MemStorage::new();
        let (mut log, _) = DeltaLog::open(Box::new(disk.clone())).unwrap();
        log.append(&batch(0)).unwrap();
        let replay = encode_record(1, &batch(9)).unwrap(); // duplicate seq 1
        disk.corrupt(LOG_FILE, |bytes| bytes.extend_from_slice(&replay));

        let (_, recovered) = DeltaLog::open(Box::new(disk)).unwrap();
        assert_eq!(recovered.batches, vec![batch(0)]);
        assert_eq!(recovered.truncated_bytes, replay.len() as u64);
    }

    #[test]
    fn rollback_removes_exactly_the_last_record() {
        let disk = MemStorage::new();
        let (mut log, _) = DeltaLog::open(Box::new(disk.clone())).unwrap();
        log.append(&batch(0)).unwrap();
        log.append(&batch(1)).unwrap();
        log.rollback_last().unwrap();
        // The freed sequence number is reused by the next append.
        assert_eq!(log.append(&batch(2)).unwrap(), 2);

        let (_, recovered) = DeltaLog::open(Box::new(disk)).unwrap();
        assert_eq!(recovered.batches, vec![batch(0), batch(2)]);
    }

    #[test]
    fn compaction_resets_the_log_and_filters_covered_records() {
        let disk = MemStorage::new();
        let (mut log, _) = DeltaLog::open(Box::new(disk.clone())).unwrap();
        log.append(&batch(0)).unwrap();
        log.append(&batch(1)).unwrap();
        let graph = acq_graph::paper_figure3_graph();
        log.install_snapshot(&graph, 2).unwrap();
        assert_eq!(log.log_len(), LOG_MAGIC.len() as u64);
        log.append(&batch(2)).unwrap();

        let (_, recovered) = DeltaLog::open(Box::new(disk.clone())).unwrap();
        assert_eq!(recovered.snapshot_seq, 2);
        assert!(recovered.snapshot.is_some());
        assert_eq!(recovered.batches, vec![batch(2)], "covered records are not replayed");

        // Crash *between* snapshot rename and log truncation: resurrect the
        // pre-compaction log next to the snapshot. The stale records carry
        // seq <= snapshot_seq and must be filtered, not replayed twice.
        let mut stale = LOG_MAGIC.to_vec();
        stale.extend_from_slice(&encode_record(1, &batch(0)).unwrap());
        stale.extend_from_slice(&encode_record(2, &batch(1)).unwrap());
        disk.insert(LOG_FILE, stale);
        let (log, recovered) = DeltaLog::open(Box::new(disk)).unwrap();
        assert_eq!(recovered.snapshot_seq, 2);
        assert!(recovered.batches.is_empty());
        assert_eq!(log.last_seq(), 2, "appends continue after the snapshot's sequence");
    }

    #[test]
    fn a_corrupt_snapshot_is_discarded_not_fatal() {
        let disk = MemStorage::new();
        let (mut log, _) = DeltaLog::open(Box::new(disk.clone())).unwrap();
        log.append(&batch(0)).unwrap();
        log.install_snapshot(&acq_graph::paper_figure3_graph(), 1).unwrap();
        disk.corrupt(SNAPSHOT_FILE, |bytes| {
            let mid = bytes.len() / 2;
            bytes[mid] ^= 0x40;
        });

        let (_, recovered) = DeltaLog::open(Box::new(disk.clone())).unwrap();
        assert!(recovered.snapshot.is_none());
        assert!(recovered.snapshot_discarded);
        assert_eq!(disk.contents(SNAPSHOT_FILE), None, "the corrupt snapshot was dropped");
    }

    #[test]
    fn a_leftover_compaction_temp_file_is_cleaned_up() {
        let disk = MemStorage::new();
        disk.insert("snapshot.bin.tmp", vec![0xAB; 32]);
        let (_, recovered) = DeltaLog::open(Box::new(disk.clone())).unwrap();
        assert!(!recovered.snapshot_discarded);
        assert_eq!(disk.contents("snapshot.bin.tmp"), None);
    }

    #[test]
    fn a_lost_header_restarts_the_log() {
        let disk = MemStorage::new();
        let (mut log, _) = DeltaLog::open(Box::new(disk.clone())).unwrap();
        log.append(&batch(0)).unwrap();
        let total = disk.len(LOG_FILE);
        disk.corrupt(LOG_FILE, |bytes| bytes[2] = b'!');

        let (mut log, recovered) = DeltaLog::open(Box::new(disk.clone())).unwrap();
        assert!(recovered.batches.is_empty());
        assert_eq!(recovered.truncated_bytes, total);
        assert_eq!(disk.len(LOG_FILE), LOG_MAGIC.len() as u64);
        log.append(&batch(1)).unwrap();
        let (_, recovered) = DeltaLog::open(Box::new(disk)).unwrap();
        assert_eq!(recovered.batches, vec![batch(1)]);
    }
}
