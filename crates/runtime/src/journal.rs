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
//!   back in one buffer. A commit encodes the unit once, straight from the
//!   request's calls, and [`SessionJournal::ops`] decodes only when a
//!   session is replayed.
//! * **Disk persistence** (`hps serve --journal-dir`) — optional
//!   checksummed frames appended synchronously at commit time, from which a
//!   *restarted* server process rebuilds hidden state. The reader stops at
//!   the first corrupt or torn frame, so a crash mid-append (or an injected
//!   journal-truncation fault) loses at most the tail — which the client's
//!   session-resume window re-drives on reconnect.
//!
//! The ring and the disk hold the same payload bytes; the disk frame adds
//! a CRC32 over the payload:
//!
//! ```text
//! journal-frame := u32 payload_len ++ u32 crc32(payload) ++ payload
//! ```
//!
//! A ring's memory grows with the calls its session has served, so a
//! payload is not a [`crate::wire`] request but a compact form of one,
//! with LEB128 varints for every integer and zigzag for signed ones (a
//! one-call unit with two small ints takes 14 bytes instead of 45):
//!
//! ```text
//! payload := 0x00 seq call | 0x01 seq n call{n} | 0x02 component key
//! call    := component key label n value{n}
//! value   := 0x00 zigzag(int) | 0x01 f64-le | 0x02 bool-byte
//! ```
//!
//! The commit point of the protocol is the journal append: a shard
//! journals a unit *after* executing it and *before* replying, so a
//! rebuilt session's [`crate::server::ReplayCache`] sequence numbers are
//! always at or one behind the client's — exactly the window the resume
//! handshake and retransmit path already cover.

use crate::channel::PendingCall;
use hps_ir::{ComponentId, FragLabel, Value};
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
    /// Decodes one whole journal payload; `None` for anything else
    /// (treated as corruption by the reader).
    fn decode(payload: &[u8]) -> Option<JournalOp> {
        let mut pos = 0;
        let op = decode_op(payload, &mut pos)?;
        (pos == payload.len()).then_some(op)
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
    /// Number of held ops.
    held: usize,
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
            held: 0,
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
                self.bytes.push(RELEASE);
                put_varint(&mut self.bytes, u64::from(component.0));
                put_varint(&mut self.bytes, *key);
                self.commit(start)
            }
        }
    }

    /// [`SessionJournal::append`] of a committed sequenced unit, encoded
    /// straight from the calls that were served (a single call when not
    /// `batch`, as on the wire).
    pub fn append_seq(&mut self, seq: u64, calls: &[PendingCall], batch: bool) -> &[u8] {
        let start = self.bytes.len();
        let calls = if batch { calls } else { &calls[..1] };
        self.bytes.push(if batch { SEQ_BATCH } else { SEQ_CALL });
        put_varint(&mut self.bytes, seq);
        if batch {
            put_varint(&mut self.bytes, calls.len() as u64);
        }
        for c in calls {
            put_call(&mut self.bytes, c);
        }
        self.last_seq = seq;
        self.commit(start)
    }

    /// Makes the payload written at `start..` one held op, evicting the
    /// oldest past the limit.
    fn commit(&mut self, start: usize) -> &[u8] {
        let len = self.bytes.len() - start;
        self.held += 1;
        if self.held > self.limit {
            // Every held payload was encoded here, so it decodes.
            decode_op(&self.bytes, &mut self.head).expect("journal payloads decode");
            self.held -= 1;
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
        // Every held payload was encoded here.
        (0..self.held)
            .map(move |_| decode_op(&self.bytes, &mut pos).expect("journal payloads decode"))
    }

    /// Number of ops currently held.
    pub fn len(&self) -> usize {
        self.held
    }

    /// True when nothing has been journaled yet.
    pub fn is_empty(&self) -> bool {
        self.held == 0 && self.dropped == 0
    }

    /// Highest committed sequence number (0 before the first commit). A
    /// rebuilt session expects `last_seq + 1` next.
    pub fn last_seq(&self) -> u64 {
        self.last_seq
    }
}

/// Payload tags.
const SEQ_CALL: u8 = 0x00;
const SEQ_BATCH: u8 = 0x01;
const RELEASE: u8 = 0x02;

/// Appends `v` as a LEB128 varint.
fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        buf.push((v & 0x7f) as u8 | 0x80);
        v >>= 7;
    }
    buf.push(v as u8);
}

fn get_varint(bytes: &[u8], pos: &mut usize) -> Option<u64> {
    let mut v = 0u64;
    for shift in (0..64).step_by(7) {
        let b = *bytes.get(*pos)?;
        *pos += 1;
        v |= u64::from(b & 0x7f) << shift;
        if b < 0x80 {
            return Some(v);
        }
    }
    None
}

fn get_u32(bytes: &[u8], pos: &mut usize) -> Option<u32> {
    u32::try_from(get_varint(bytes, pos)?).ok()
}

fn put_call(buf: &mut Vec<u8>, c: &PendingCall) {
    put_varint(buf, u64::from(c.component.0));
    put_varint(buf, c.key);
    put_varint(buf, u64::from(c.label.0));
    put_varint(buf, c.args.len() as u64);
    for &a in &c.args {
        match a {
            Value::Int(i) => {
                buf.push(0x00);
                // Zigzag: small magnitudes of either sign stay short.
                put_varint(buf, ((i << 1) ^ (i >> 63)) as u64);
            }
            Value::Float(f) => {
                buf.push(0x01);
                buf.extend_from_slice(&f.to_bits().to_le_bytes());
            }
            Value::Bool(b) => {
                buf.push(0x02);
                buf.push(u8::from(b));
            }
        }
    }
}

fn get_call(bytes: &[u8], pos: &mut usize) -> Option<PendingCall> {
    let component = ComponentId(get_u32(bytes, pos)?);
    let key = get_varint(bytes, pos)?;
    let label = FragLabel(get_u32(bytes, pos)?);
    let n = get_varint(bytes, pos)?;
    let mut args = Vec::new();
    for _ in 0..n {
        let tag = *bytes.get(*pos)?;
        *pos += 1;
        args.push(match tag {
            0x00 => {
                let z = get_varint(bytes, pos)?;
                Value::Int((z >> 1) as i64 ^ -((z & 1) as i64))
            }
            0x01 => {
                let raw = bytes.get(*pos..*pos + 8)?;
                *pos += 8;
                Value::Float(f64::from_bits(u64::from_le_bytes(raw.try_into().ok()?)))
            }
            0x02 => {
                let b = *bytes.get(*pos)?;
                *pos += 1;
                Value::Bool(b != 0)
            }
            _ => return None,
        });
    }
    Some(PendingCall {
        component,
        key,
        label,
        args,
    })
}

/// Decodes the payload at `pos`, advancing past it.
fn decode_op(bytes: &[u8], pos: &mut usize) -> Option<JournalOp> {
    let tag = *bytes.get(*pos)?;
    *pos += 1;
    match tag {
        SEQ_CALL | SEQ_BATCH => {
            let seq = get_varint(bytes, pos)?;
            let n = if tag == SEQ_BATCH {
                get_varint(bytes, pos)?
            } else {
                1
            };
            let calls = (0..n)
                .map(|_| get_call(bytes, pos))
                .collect::<Option<Vec<_>>>()?;
            Some(JournalOp::Seq {
                seq,
                calls,
                batch: tag == SEQ_BATCH,
            })
        }
        RELEASE => Some(JournalOp::Release {
            component: ComponentId(get_u32(bytes, pos)?),
            key: get_varint(bytes, pos)?,
        }),
        _ => None,
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
    for (_, op) in ops {
        journal.append(&op);
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
    fn ring_round_trips_every_value_and_survives_compaction() {
        let wide = PendingCall {
            component: ComponentId(u32::MAX),
            key: u64::MAX,
            label: FragLabel(u32::MAX),
            args: vec![
                Value::Int(i64::MIN),
                Value::Int(i64::MAX),
                Value::Int(-1),
                Value::Float(-0.5),
                Value::Float(f64::INFINITY),
                Value::Bool(true),
                Value::Bool(false),
            ],
        };
        let batch = JournalOp::Seq {
            seq: 9,
            calls: vec![call(1), wide.clone()],
            batch: true,
        };
        let release = JournalOp::Release {
            component: ComponentId::new(3),
            key: 5,
        };
        let single = JournalOp::Seq {
            seq: 10,
            calls: vec![wide.clone()],
            batch: false,
        };
        let mut j = SessionJournal::new(2);
        // Each append returns exactly its op's payload.
        assert_eq!(JournalOp::decode(j.append(&batch)), Some(batch.clone()));
        assert_eq!(
            JournalOp::decode(j.append_seq(10, &[wide, call(7)], false)),
            Some(single.clone())
        );
        assert_eq!(j.ops().collect::<Vec<_>>(), [batch, single]);
        // Evict past the compaction point many times over; the held ops
        // and the buffer both stay bounded by the limit.
        let mut held_max = 0;
        for round in 0..100 {
            j.append(&release);
            j.append(&seq_op(11 + round, round as i64 - 50));
            assert_eq!(
                j.ops().collect::<Vec<_>>(),
                [release.clone(), seq_op(11 + round, round as i64 - 50)]
            );
            held_max = held_max.max(j.bytes.len() - j.head);
            // Evicted bytes never outweigh the held ones.
            assert!(j.bytes.len() <= 2 * held_max, "{} bytes", j.bytes.len());
        }
        assert_eq!(j.dropped(), 200);
        assert_eq!(j.len(), 2);
        assert_eq!(j.last_seq(), 110);
    }

    #[test]
    fn payloads_are_a_third_of_the_wire_requests() {
        // A typical unit: one call with two small int arguments.
        let unit = [PendingCall {
            component: ComponentId::new(2),
            key: 9_000,
            label: FragLabel::new(3),
            args: vec![Value::Int(417), Value::Int(-12)],
        }];
        let mut wire = Vec::new();
        crate::wire::push_seq_unit(&mut wire, 40_000, &unit, false);
        assert_eq!(wire.len(), 45);
        let mut j = SessionJournal::new(DEFAULT_JOURNAL_LIMIT);
        assert_eq!(j.append_seq(40_000, &unit, false).len(), 14);
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
