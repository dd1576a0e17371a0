//! Deterministic session journaling — the recovery layer's source of truth.
//!
//! Fragments are deterministic, so a session's hidden state is fully
//! reconstructible by re-executing its *committed* hidden calls in order
//! (DESIGN.md §12). Each session therefore keeps an append-only journal of
//! the sequenced units (and releases) it has committed:
//!
//! * **In-memory ring** ([`SessionJournal`]) — always on, bounded by a
//!   per-session op limit. Each shard keeps its sessions' rings beside
//!   their live state, and a shard's death drops only the live state, so
//!   the sessions of a dead shard are rebuilt by replay. A ring that overflowed its
//!   limit is no longer a complete history; recovery then poisons the
//!   session instead of silently rebuilding wrong state. The ring is a
//!   byte log: each op is kept as its encoded payload (below), back to
//!   back in one buffer, with a ring of payload lengths beside it. A
//!   commit encodes the unit once, straight from the request's calls, and
//!   [`SessionJournal::ops`] decodes only when a session is replayed.
//! * **Disk persistence** (`hps serve --journal-dir`) — optional
//!   checksummed frames appended synchronously at commit time, from which a
//!   *restarted* server process rebuilds hidden state. The reader stops at
//!   the first corrupt or torn frame, so a crash mid-append (or an injected
//!   journal-truncation fault) loses at most the tail — which the client's
//!   session-resume window re-drives on reconnect.
//!
//! Journal payloads reuse the [`crate::wire`] request encoding (`0x06`
//! seq-call, `0x07` seq-batch, `0x02` release): one battle-tested codec,
//! one format doc. The ring and the disk hold the same payload bytes; the
//! disk frame adds a CRC32 over the payload:
//!
//! ```text
//! journal-frame := u32 payload_len ++ u32 crc32(payload) ++ payload
//! ```
//!
//! The commit point of the protocol is the journal append: a shard
//! journals a unit *after* executing it and *before* replying, so a
//! rebuilt session's [`crate::server::ReplayCache`] sequence numbers are
//! always at or one behind the client's — exactly the window the resume
//! handshake and retransmit path already cover.

use crate::channel::PendingCall;
use crate::wire::{push_seq_unit, Request};
use hps_ir::ComponentId;
use std::collections::VecDeque;
use std::io::Write;
use std::path::{Path, PathBuf};

/// Default per-session cap on journaled ops. Generous — a session beyond
/// this has outlived crash-recoverability by replay (the ring drops its
/// head and the session is poisoned if recovery is ever needed), which is
/// still strictly better than the pre-recovery behaviour of losing it.
pub const DEFAULT_JOURNAL_LIMIT: usize = 65_536;

/// One committed operation of a session, in commit order: the decoded
/// form of a journal payload.
#[derive(Clone, PartialEq, Debug)]
pub enum JournalOp {
    /// A committed sequenced unit (one call or one atomic batch).
    Seq {
        /// The unit's sequence number (contiguous from 1).
        seq: u64,
        /// The logical calls of the unit.
        calls: Vec<PendingCall>,
        /// Whether the unit was a batch frame (`0x07`) or a single call.
        batch: bool,
    },
    /// A committed release of one activation/instance's hidden state.
    /// Journaled so replay frees exactly what the live session freed —
    /// otherwise a rebuilt session would resurrect released state and a
    /// later reuse of the key would observe stale values.
    Release {
        /// Addressed component.
        component: ComponentId,
        /// Activation / instance key.
        key: u64,
    },
}

impl JournalOp {
    /// Decodes a journal payload; `None` for any frame that is not a
    /// journalable request (treated as corruption by the reader).
    fn decode(payload: &[u8]) -> Option<JournalOp> {
        match Request::decode(payload).ok()? {
            Request::SeqCall { seq, call } => Some(JournalOp::Seq {
                seq,
                calls: vec![call],
                batch: false,
            }),
            Request::SeqBatch { seq, calls } => Some(JournalOp::Seq {
                seq,
                calls,
                batch: true,
            }),
            Request::Release { component, key } => Some(JournalOp::Release { component, key }),
            _ => None,
        }
    }
}

/// The in-memory journal of one session: an append-only ring of committed
/// ops, kept as their encoded payloads, plus enough bookkeeping to know
/// whether the ring still holds the *complete* history (a prerequisite for
/// rebuilding by replay).
#[derive(Clone, Debug)]
pub struct SessionJournal {
    /// The held ops' payloads, oldest first, starting at byte `head`.
    bytes: Vec<u8>,
    /// Where the oldest held payload starts. Evicted bytes before it are
    /// compacted away once they outweigh the held ones.
    head: usize,
    /// Each held op's payload length, oldest first.
    lens: VecDeque<u32>,
    dropped: u64,
    limit: usize,
    last_seq: u64,
}

impl SessionJournal {
    /// An empty journal keeping at most `limit` ops (min 1).
    pub fn new(limit: usize) -> SessionJournal {
        SessionJournal {
            bytes: Vec::new(),
            head: 0,
            lens: VecDeque::new(),
            dropped: 0,
            limit: limit.max(1),
            last_seq: 0,
        }
    }

    /// Appends a committed op, evicting the oldest when the ring is full
    /// (after which [`SessionJournal::is_complete`] is false forever).
    /// Returns the op's payload, the bytes a disk frame carries.
    pub fn append(&mut self, op: &JournalOp) -> &[u8] {
        match op {
            JournalOp::Seq { seq, calls, batch } => self.append_seq(*seq, calls, *batch),
            JournalOp::Release { component, key } => {
                let start = self.bytes.len();
                Request::Release {
                    component: *component,
                    key: *key,
                }
                .append_to(&mut self.bytes);
                self.commit(start)
            }
        }
    }

    /// [`SessionJournal::append`] of a committed sequenced unit, encoded
    /// straight from the calls that were served.
    pub fn append_seq(&mut self, seq: u64, calls: &[PendingCall], batch: bool) -> &[u8] {
        let start = self.bytes.len();
        push_seq_unit(&mut self.bytes, seq, calls, batch);
        self.last_seq = seq;
        self.commit(start)
    }

    /// Makes the payload written at `start..` one held op.
    fn commit(&mut self, start: usize) -> &[u8] {
        let len = self.bytes.len() - start;
        // A payload is at most one wire frame (16 MiB).
        self.lens
            .push_back(u32::try_from(len).expect("journal payload fits a frame"));
        if self.lens.len() > self.limit {
            let evicted = self.lens.pop_front().expect("ring is over its limit");
            self.head += evicted as usize;
            self.dropped += 1;
            if self.head > self.bytes.len() / 2 {
                self.bytes.drain(..self.head);
                self.head = 0;
            }
        }
        &self.bytes[self.bytes.len() - len..]
    }

    /// True while the ring still holds every committed op since the
    /// session opened — the precondition for rebuilding state by replay.
    pub fn is_complete(&self) -> bool {
        self.dropped == 0
    }

    /// Ops evicted by the ring bound.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The committed ops, oldest first, decoded from their payloads.
    pub fn ops(&self) -> impl Iterator<Item = JournalOp> + '_ {
        let mut pos = self.head;
        self.lens.iter().map(move |&len| {
            let payload = &self.bytes[pos..pos + len as usize];
            pos += len as usize;
            // Every held payload was encoded here or passed the disk
            // reader's decode check.
            JournalOp::decode(payload).expect("journal payloads decode")
        })
    }

    /// Number of ops currently held.
    pub fn len(&self) -> usize {
        self.lens.len()
    }

    /// True when nothing has been journaled yet.
    pub fn is_empty(&self) -> bool {
        self.lens.is_empty() && self.dropped == 0
    }

    /// Highest committed sequence number (0 before the first commit). A
    /// rebuilt session expects `last_seq + 1` next.
    pub fn last_seq(&self) -> u64 {
        self.last_seq
    }
}

/// CRC-32 (IEEE 802.3, reflected, poly `0xEDB88320`) — the checksum of a
/// disk journal frame. Bitwise implementation: journal frames are small
/// and appends are already dominated by the write syscall.
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in data {
        crc ^= u32::from(b);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

/// The on-disk journal file of one session inside a `--journal-dir`.
pub fn journal_path(dir: &Path, session: u64) -> PathBuf {
    dir.join(format!("session-{session:016x}.hpsj"))
}

/// Append handle to one session's disk journal. Frames are flushed per
/// append — the commit point must hit the file before the response hits
/// the wire, or a crash could lose a unit the client saw acknowledged.
#[derive(Debug)]
pub struct DiskJournal {
    file: std::fs::File,
}

impl DiskJournal {
    /// Opens (creating if needed) the session's journal file for append.
    /// Any torn tail left by a crash mid-append is truncated away first —
    /// appends must always extend a valid frame prefix, or everything
    /// written after the tear would be unreadable forever.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation, repair and open failures.
    pub fn open(dir: &Path, session: u64) -> std::io::Result<DiskJournal> {
        std::fs::create_dir_all(dir)?;
        let path = journal_path(dir, session);
        if let Ok(bytes) = std::fs::read(&path) {
            let (valid, _) = scan_frames(&bytes);
            if valid < bytes.len() {
                let file = std::fs::OpenOptions::new().write(true).open(&path)?;
                file.set_len(valid as u64)?;
            }
        }
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        Ok(DiskJournal { file })
    }

    /// Appends one checksummed frame carrying `payload` (as returned by
    /// [`SessionJournal::append`]) and flushes it.
    ///
    /// # Errors
    ///
    /// Propagates write failures (the caller treats disk journaling as
    /// best-effort beyond the returned error).
    pub fn append(&mut self, payload: &[u8]) -> std::io::Result<()> {
        let mut frame = Vec::with_capacity(payload.len() + 8);
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&crc32(payload).to_le_bytes());
        frame.extend_from_slice(payload);
        self.file.write_all(&frame)?;
        self.file.flush()
    }
}

/// Scans raw journal bytes, returning the byte length of the longest
/// prefix of intact frames plus each of their payloads with the op it
/// decodes to. Scanning stops silently at the first torn, truncated or
/// checksum-failing frame.
fn scan_frames(bytes: &[u8]) -> (usize, Vec<(&[u8], JournalOp)>) {
    let mut ops = Vec::new();
    let mut pos = 0usize;
    while let Some(header) = bytes.get(pos..pos + 8) {
        let len = u32::from_le_bytes(header[0..4].try_into().expect("4 bytes")) as usize;
        let sum = u32::from_le_bytes(header[4..8].try_into().expect("4 bytes"));
        let Some(payload) = bytes.get(pos + 8..pos + 8 + len) else {
            break;
        };
        if crc32(payload) != sum {
            break;
        }
        let Some(op) = JournalOp::decode(payload) else {
            break;
        };
        ops.push((payload, op));
        pos += 8 + len;
    }
    (pos, ops)
}

/// Loads a session's journal from disk, rebuilding the in-memory form.
/// Returns `None` when no journal file exists. Reading stops at the first
/// torn, truncated or checksum-failing frame: everything before it is the
/// recovered history (crash-consistent by the per-append flush),
/// everything after it is lost tail the client's resume window re-drives.
pub fn load_disk_journal(dir: &Path, session: u64, limit: usize) -> Option<SessionJournal> {
    let bytes = std::fs::read(journal_path(dir, session)).ok()?;
    let (_valid, ops) = scan_frames(&bytes);
    let mut journal = SessionJournal::new(limit);
    for (payload, op) in ops {
        // The file's own bytes, so the ring matches the disk exactly.
        let start = journal.bytes.len();
        journal.bytes.extend_from_slice(payload);
        if let JournalOp::Seq { seq, .. } = op {
            journal.last_seq = seq;
        }
        journal.commit(start);
    }
    Some(journal)
}

/// Journal-truncation fault: chops the final byte off a session's journal
/// file, simulating a torn last append. The reader then drops the whole
/// last frame, so recovery comes up one committed unit short — exactly the
/// window the client-side session resume must cover.
///
/// # Errors
///
/// Propagates metadata/truncate failures; truncating a missing or empty
/// journal is an error (the fault must actually remove something).
pub fn truncate_tail(dir: &Path, session: u64) -> std::io::Result<()> {
    let path = journal_path(dir, session);
    let len = std::fs::metadata(&path)?.len();
    if len == 0 {
        return Err(std::io::Error::other("journal is empty; nothing to tear"));
    }
    let file = std::fs::OpenOptions::new().write(true).open(&path)?;
    file.set_len(len - 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hps_ir::{FragLabel, Value};

    fn call(n: i64) -> PendingCall {
        PendingCall {
            component: ComponentId::new(0),
            key: 1,
            label: FragLabel::new(0),
            args: vec![Value::Int(n)],
        }
    }

    fn seq_op(seq: u64, n: i64) -> JournalOp {
        JournalOp::Seq {
            seq,
            calls: vec![call(n)],
            batch: false,
        }
    }

    /// Writes `ops` to the session's disk journal the way a shard does:
    /// each payload comes from the in-memory ring.
    fn write_disk(dir: &Path, session: u64, ops: &[JournalOp]) {
        let mut disk = DiskJournal::open(dir, session).expect("open");
        let mut ring = SessionJournal::new(DEFAULT_JOURNAL_LIMIT);
        for op in ops {
            disk.append(ring.append(op)).expect("append");
        }
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE test vectors.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"hello"), 0x3610_A686);
    }

    #[test]
    fn ring_tracks_completeness() {
        let mut j = SessionJournal::new(3);
        assert!(j.is_empty());
        for seq in 1..=3 {
            j.append(&seq_op(seq, seq as i64));
        }
        assert!(j.is_complete());
        assert_eq!(j.last_seq(), 3);
        // Overflow drops the head and the history is no longer complete.
        j.append(&seq_op(4, 4));
        assert!(!j.is_complete());
        assert_eq!(j.dropped(), 1);
        assert_eq!(j.len(), 3);
        assert_eq!(j.last_seq(), 4);
        let held: Vec<_> = j.ops().collect();
        assert_eq!(held, [seq_op(2, 2), seq_op(3, 3), seq_op(4, 4)]);
    }

    #[test]
    fn ring_payloads_are_wire_requests_and_survive_compaction() {
        let batch = JournalOp::Seq {
            seq: 9,
            calls: vec![call(1), call(-2)],
            batch: true,
        };
        let release = JournalOp::Release {
            component: ComponentId::new(3),
            key: 5,
        };
        let mut j = SessionJournal::new(2);
        assert_eq!(
            j.append(&batch),
            Request::SeqBatch {
                seq: 9,
                calls: vec![call(1), call(-2)],
            }
            .encode()
        );
        assert_eq!(
            j.append_seq(10, &[call(4)], false),
            Request::SeqCall {
                seq: 10,
                call: call(4),
            }
            .encode()
        );
        // Evict past the compaction point many times over; the held ops
        // and the buffer both stay bounded by the limit.
        for round in 0..100 {
            j.append(&release);
            j.append(&seq_op(11 + round, round as i64));
            assert_eq!(
                j.ops().collect::<Vec<_>>(),
                [release.clone(), seq_op(11 + round, round as i64)]
            );
            // Evicted bytes never outweigh the held ones.
            let held: usize = j.lens.iter().map(|&n| n as usize).sum();
            assert_eq!(j.bytes.len() - j.head, held);
            assert!(j.bytes.len() <= 2 * held, "{} bytes", j.bytes.len());
        }
        assert_eq!(j.dropped(), 200);
        assert_eq!(j.last_seq(), 110);
    }

    #[test]
    fn disk_round_trip_and_truncation_tolerance() {
        let dir = std::env::temp_dir().join(format!("hpsj-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let session = 7u64;
        let ops = [
            seq_op(1, 10),
            JournalOp::Release {
                component: ComponentId::new(0),
                key: 1,
            },
            JournalOp::Seq {
                seq: 2,
                calls: vec![call(1), call(2)],
                batch: true,
            },
        ];
        write_disk(&dir, session, &ops);
        let loaded = load_disk_journal(&dir, session, DEFAULT_JOURNAL_LIMIT).expect("journal");
        assert!(loaded.is_complete());
        assert_eq!(loaded.ops().collect::<Vec<_>>(), ops);
        assert_eq!(loaded.last_seq(), 2);

        // A torn tail costs exactly the last frame, never the file.
        truncate_tail(&dir, session).expect("truncate");
        let torn = load_disk_journal(&dir, session, DEFAULT_JOURNAL_LIMIT).expect("journal");
        assert_eq!(torn.ops().collect::<Vec<_>>(), ops[..2]);
        assert_eq!(torn.last_seq(), 1);

        // A flipped payload byte is caught by the checksum the same way.
        // Drop the torn tail first so the flip lands in the last *valid*
        // frame (the Release), not in the already-dead frame.
        let path = journal_path(&dir, session);
        let mut bytes = std::fs::read(&path).expect("read");
        let (valid, _) = scan_frames(&bytes);
        bytes.truncate(valid);
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        std::fs::write(&path, &bytes).expect("write");
        let corrupt = load_disk_journal(&dir, session, DEFAULT_JOURNAL_LIMIT).expect("journal");
        assert_eq!(corrupt.ops().collect::<Vec<_>>(), ops[..1]);

        // Missing journals are `None`, distinct from empty ones.
        assert!(load_disk_journal(&dir, 999, DEFAULT_JOURNAL_LIMIT).is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Property tests of the disk journal reader, in the style of
/// `tests/wire_proptest.rs`: a session file is untrusted input after a
/// crash, so loading must never panic and must recover exactly the longest
/// prefix of intact frames — and the repaired file must stay appendable.
#[cfg(test)]
mod props {
    use super::*;
    use hps_ir::{FragLabel, Value};
    use proptest::prelude::*;

    const SESSION: u64 = 42;

    fn call_strategy() -> impl Strategy<Value = PendingCall> {
        (
            any::<u32>(),
            any::<u64>(),
            any::<u32>(),
            prop::collection::vec(any::<i64>().prop_map(Value::Int), 0..4),
        )
            .prop_map(|(c, key, l, args)| PendingCall {
                component: ComponentId(c),
                key,
                label: FragLabel(l),
                args,
            })
    }

    fn op_strategy() -> impl Strategy<Value = JournalOp> {
        prop_oneof![
            (any::<u64>(), call_strategy()).prop_map(|(seq, call)| JournalOp::Seq {
                seq,
                calls: vec![call],
                batch: false,
            }),
            (any::<u64>(), prop::collection::vec(call_strategy(), 0..4)).prop_map(
                |(seq, calls)| JournalOp::Seq {
                    seq,
                    calls,
                    batch: true,
                }
            ),
            (any::<u32>(), any::<u64>()).prop_map(|(c, key)| JournalOp::Release {
                component: ComponentId(c),
                key,
            }),
        ]
    }

    fn ops_strategy() -> impl Strategy<Value = Vec<JournalOp>> {
        prop::collection::vec(op_strategy(), 0..6)
    }

    /// A scratch journal directory per property, so parallel tests never
    /// share a session file.
    fn scratch_dir(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("hpsj-prop-{}-{name}", std::process::id()))
    }

    /// Writes `ops` through [`DiskJournal::append`] and returns the file's
    /// bytes plus the end offset of every frame.
    fn write_valid(dir: &Path, ops: &[JournalOp]) -> (Vec<u8>, Vec<usize>) {
        let _ = std::fs::remove_dir_all(dir);
        let path = journal_path(dir, SESSION);
        let mut disk = DiskJournal::open(dir, SESSION).expect("open");
        let mut ring = SessionJournal::new(DEFAULT_JOURNAL_LIMIT);
        let mut ends = Vec::with_capacity(ops.len());
        for op in ops {
            disk.append(ring.append(op)).expect("append");
            ends.push(std::fs::metadata(&path).expect("metadata").len() as usize);
        }
        (std::fs::read(&path).expect("read"), ends)
    }

    fn ops_of(journal: &SessionJournal) -> Vec<JournalOp> {
        journal.ops().collect()
    }

    /// Installs `bytes` as the session file, checks the loader recovers
    /// exactly `expected`, then checks that after [`DiskJournal::open`]
    /// repairs the file one append reads back as `expected` plus that op.
    fn check_recovery(dir: &Path, bytes: &[u8], expected: &[JournalOp]) {
        std::fs::create_dir_all(dir).expect("mkdir");
        std::fs::write(journal_path(dir, SESSION), bytes).expect("write");
        let loaded = load_disk_journal(dir, SESSION, DEFAULT_JOURNAL_LIMIT).expect("file exists");
        assert_eq!(ops_of(&loaded), expected);

        let extra = JournalOp::Release {
            component: ComponentId::new(1),
            key: 7,
        };
        DiskJournal::open(dir, SESSION)
            .expect("repair")
            .append(SessionJournal::new(1).append(&extra))
            .expect("append");
        let reread = load_disk_journal(dir, SESSION, DEFAULT_JOURNAL_LIMIT).expect("file exists");
        let mut want = expected.to_vec();
        want.push(extra);
        assert_eq!(ops_of(&reread), want);
        let _ = std::fs::remove_dir_all(dir);
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

        #[test]
        fn arbitrary_tails_load_the_valid_prefix(
            ops in ops_strategy(),
            junk in prop::collection::vec(any::<u8>(), 0..128),
        ) {
            // Random bytes after (or instead of) a valid journal never form
            // a frame whose CRC and payload both check out.
            let dir = scratch_dir("junk");
            let (mut bytes, _) = write_valid(&dir, &ops);
            bytes.extend_from_slice(&junk);
            check_recovery(&dir, &bytes, &ops);
        }

        #[test]
        fn truncated_journals_keep_whole_frames(ops in ops_strategy(), cut in any::<u32>()) {
            let dir = scratch_dir("cut");
            let (bytes, ends) = write_valid(&dir, &ops);
            let cut = cut as usize % (bytes.len() + 1);
            let whole = ends.iter().take_while(|&&end| end <= cut).count();
            check_recovery(&dir, &bytes[..cut], &ops[..whole]);
        }

        #[test]
        fn bit_flips_drop_the_damaged_frame_and_the_rest(
            ops in ops_strategy(),
            at in any::<u32>(),
            bit in 0u8..8,
        ) {
            let dir = scratch_dir("flip");
            let (mut bytes, ends) = write_valid(&dir, &ops);
            if bytes.is_empty() {
                check_recovery(&dir, &bytes, &[]);
            } else {
                let at = at as usize % bytes.len();
                bytes[at] ^= 1 << bit;
                // The flip lands in the first frame ending past `at`.
                let intact = ends.iter().take_while(|&&end| end <= at).count();
                check_recovery(&dir, &bytes, &ops[..intact]);
            }
        }
    }
}
