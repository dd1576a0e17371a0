//! Binary wire protocol for the TCP transport.
//!
//! Hand-rolled, length-prefixed frames. Inside a payload every integer
//! is an unsigned LEB128 varint (low seven bits first, high bit set on
//! every byte but the last), so small ids, keys, sequence numbers and
//! costs take one or two bytes:
//!
//! ```text
//! frame     := u32-le payload_len ++ payload
//! request   := 0x02 release(component key)
//!            | 0x03 shutdown
//!            | 0x05 hello(version:u8 session)
//!            | 0x06 seq-call(seq call-body)
//!            | 0x07 seq-batch(seq count call-body{count})
//! call-body := component key label argc arg{argc}
//! response  := 0x10 reply(value:arg server_cost)
//!            | 0x11 error(len utf8-bytes{len})
//!            | 0x12 batch(count reply-body{count})    ; reply-body as in 0x10
//!            | 0x13 hello-ack(version:u8 session next_seq)
//! arg       := 0x00 zigzag(i64) | 0x01 f64-le-bits:8 | 0x02 bool:1
//! ```
//!
//! Each unmarked field is a varint: `component` and `label` must fit a
//! `u32`, every other field a `u64`. An `i64` argument is zigzag-mapped
//! first (`0, -1, 1, -2, …` → `0, 1, 2, 3, …`), so small magnitudes of
//! either sign stay short. Tags, the version byte and bools are single
//! bytes, and a float is its eight IEEE-754 bits, little-endian; only the
//! frame length is a fixed-width integer. A typical call — one unit with
//! two small int arguments — is 14 bytes. The decoder refuses, as a
//! [`RuntimeError::Channel`], a varint longer than 64 bits, a `u32` field
//! out of range, a truncated payload and trailing bytes.
//!
//! Request tags `0x01` and `0x04` are retired: they carried unsequenced
//! calls and batches, and are never reused. Decoding them fails like any
//! unknown tag.
//!
//! A `0x07` seq-batch carries a run of coalesced logical calls in one round
//! trip and is answered by one `0x12` batch with a reply per call, in
//! order. A failing call inside a batch turns the whole response into
//! `0x11 error`.
//!
//! The request payloads a server commits are also what its session
//! journal keeps, byte for byte ([`crate::journal`]): this module holds
//! the one encoding of a call.
//!
//! ## Sessions and exactly-once replay
//!
//! Every connection opens with the `0x05`/`0x13` handshake, which opens
//! (or resumes) a *session*: the client names a 64-bit session id and the
//! protocol version it speaks ([`WIRE_VERSION`]); the server acknowledges
//! with the next sequence number it expects, so a reconnecting client can
//! detect what the server already saw. Within a session, call traffic uses
//! the sequenced frames `0x06`/`0x07`: the per-session monotonic `seq` lets
//! the server deduplicate a retransmitted call whose response was lost (it
//! replays the cached response instead of re-executing) and reject
//! sequence gaps.

use crate::channel::{CallReply, PendingCall};
use crate::error::RuntimeError;
use hps_ir::{ComponentId, FragLabel, Value};
use std::io::{Read, Write};

/// Version byte exchanged in the `Hello` handshake. Bump on any
/// incompatible framing change; the server rejects mismatches as terminal.
pub const WIRE_VERSION: u8 = 3;

/// A request from the open side.
#[derive(Clone, PartialEq, Debug)]
pub enum Request {
    /// Free one activation/instance's hidden state.
    Release {
        /// Addressed component.
        component: ComponentId,
        /// Activation / instance key.
        key: u64,
    },
    /// Stop serving this connection.
    Shutdown,
    /// Open or resume a session (the first frame on every connection).
    Hello {
        /// Protocol version the client speaks ([`WIRE_VERSION`]).
        version: u8,
        /// Client-chosen session id; reconnects reuse it to resume.
        session: u64,
    },
    /// A sequenced call within a session (supports exactly-once replay).
    SeqCall {
        /// Per-session monotonic sequence number (starts at 1).
        seq: u64,
        /// The logical call.
        call: PendingCall,
    },
    /// A sequenced batch within a session; the whole batch is one
    /// sequence-numbered unit (it is retransmitted atomically).
    SeqBatch {
        /// Per-session monotonic sequence number (starts at 1).
        seq: u64,
        /// The logical calls, in order.
        calls: Vec<PendingCall>,
    },
}

/// A response from the secure side.
#[derive(Clone, PartialEq, Debug)]
pub enum Response {
    /// Successful fragment execution.
    Reply {
        /// Returned scalar.
        value: Value,
        /// Virtual cost the secure device spent.
        server_cost: u64,
    },
    /// Secure-side failure, as display text.
    Error(String),
    /// One reply per call of a [`Request::SeqBatch`], in order.
    Batch(Vec<CallReply>),
    /// Acknowledges a [`Request::Hello`], completing the handshake.
    HelloAck {
        /// Protocol version the server speaks.
        version: u8,
        /// The session id echoed back.
        session: u64,
        /// Next sequence number the server expects (1 for a new session).
        next_seq: u64,
    },
}

/// Appends `v` as a LEB128 varint.
fn put_int(buf: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        buf.push((v & 0x7f) as u8 | 0x80);
        v >>= 7;
    }
    buf.push(v as u8);
}

fn push_value(buf: &mut Vec<u8>, v: Value) {
    match v {
        Value::Int(i) => {
            buf.push(0x00);
            put_int(buf, ((i << 1) ^ (i >> 63)) as u64);
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

struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], RuntimeError> {
        if n > self.data.len() - self.pos {
            return Err(RuntimeError::Channel("truncated frame".into()));
        }
        let s = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, RuntimeError> {
        Ok(self.take(1)?[0])
    }

    /// One varint field, checked against the field's type (`u32` for
    /// component and label ids, `usize` for counts, `u64` otherwise).
    fn int<T: TryFrom<u64>>(&mut self) -> Result<T, RuntimeError> {
        let mut v = 0u64;
        let mut shift = 0;
        loop {
            let b = self.u8()?;
            // The tenth byte holds bit 63 alone.
            if shift == 63 && b > 1 {
                return Err(RuntimeError::Channel("varint longer than 64 bits".into()));
            }
            v |= u64::from(b & 0x7f) << shift;
            if b < 0x80 {
                return T::try_from(v).map_err(|_| {
                    RuntimeError::Channel(format!("integer field out of range: {v}"))
                });
            }
            shift += 7;
        }
    }

    fn value(&mut self) -> Result<Value, RuntimeError> {
        match self.u8()? {
            0x00 => {
                let z: u64 = self.int()?;
                Ok(Value::Int((z >> 1) as i64 ^ -((z & 1) as i64)))
            }
            0x01 => Ok(Value::Float(f64::from_bits(u64::from_le_bytes(
                self.take(8)?.try_into().expect("8 bytes"),
            )))),
            0x02 => Ok(Value::Bool(self.u8()? != 0)),
            t => Err(RuntimeError::Channel(format!("bad value tag 0x{t:02x}"))),
        }
    }

    fn request(&mut self) -> Result<Request, RuntimeError> {
        Ok(match self.u8()? {
            0x02 => Request::Release {
                component: ComponentId(self.int()?),
                key: self.int()?,
            },
            0x03 => Request::Shutdown,
            0x05 => Request::Hello {
                version: self.u8()?,
                session: self.int()?,
            },
            0x06 => Request::SeqCall {
                seq: self.int()?,
                call: self.call_body()?,
            },
            0x07 => {
                let seq = self.int()?;
                let count: usize = self.int()?;
                let mut calls = Vec::with_capacity(count.min(1024));
                for _ in 0..count {
                    calls.push(self.call_body()?);
                }
                Request::SeqBatch { seq, calls }
            }
            t => return Err(RuntimeError::Channel(format!("bad request tag 0x{t:02x}"))),
        })
    }

    fn call_body(&mut self) -> Result<PendingCall, RuntimeError> {
        let component = ComponentId(self.int()?);
        let key = self.int()?;
        let label = FragLabel(self.int()?);
        let argc: usize = self.int()?;
        let mut args = Vec::with_capacity(argc.min(1024));
        for _ in 0..argc {
            args.push(self.value()?);
        }
        Ok(PendingCall {
            component,
            key,
            label,
            args,
        })
    }

    fn done(&self) -> Result<(), RuntimeError> {
        if self.pos == self.data.len() {
            Ok(())
        } else {
            Err(RuntimeError::Channel("trailing bytes in frame".into()))
        }
    }
}

fn push_call_body(buf: &mut Vec<u8>, c: &PendingCall) {
    put_int(buf, u64::from(c.component.0));
    put_int(buf, c.key);
    put_int(buf, u64::from(c.label.0));
    put_int(buf, c.args.len() as u64);
    for &a in &c.args {
        push_value(buf, a);
    }
}

/// Appends a sequenced unit's request payload — `0x07` seq-batch when
/// `batch`, else `0x06` seq-call of `calls[0]` — from borrowed calls.
pub(crate) fn push_seq_unit(buf: &mut Vec<u8>, seq: u64, calls: &[PendingCall], batch: bool) {
    if batch {
        buf.push(0x07);
        put_int(buf, seq);
        put_int(buf, calls.len() as u64);
        for c in calls {
            push_call_body(buf, c);
        }
    } else {
        buf.push(0x06);
        put_int(buf, seq);
        push_call_body(buf, &calls[0]);
    }
}

impl Request {
    /// Serializes the request payload (without the frame length prefix).
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        self.encode_into(&mut buf);
        buf
    }

    /// Serializes into a caller-provided buffer (cleared first), so a
    /// long-lived connection can reuse one allocation per direction.
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        buf.clear();
        match self {
            Request::Release { component, key } => {
                buf.push(0x02);
                put_int(buf, u64::from(component.0));
                put_int(buf, *key);
            }
            Request::Shutdown => buf.push(0x03),
            Request::Hello { version, session } => {
                buf.push(0x05);
                buf.push(*version);
                put_int(buf, *session);
            }
            Request::SeqCall { seq, call } => {
                push_seq_unit(buf, *seq, std::slice::from_ref(call), false);
            }
            Request::SeqBatch { seq, calls } => push_seq_unit(buf, *seq, calls, true),
        }
    }

    /// Parses a request payload.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::Channel`] for malformed frames.
    pub fn decode(data: &[u8]) -> Result<Request, RuntimeError> {
        let mut r = Reader { data, pos: 0 };
        let req = r.request()?;
        r.done()?;
        Ok(req)
    }

    /// Parses the request payload that starts at `*pos` and moves `*pos`
    /// past it — how the journal walks payloads kept back to back.
    pub(crate) fn decode_at(data: &[u8], pos: &mut usize) -> Result<Request, RuntimeError> {
        let mut r = Reader { data, pos: *pos };
        let req = r.request()?;
        *pos = r.pos;
        Ok(req)
    }
}

impl Response {
    /// Serializes the response payload (without the frame length prefix).
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        self.encode_into(&mut buf);
        buf
    }

    /// Serializes into a caller-provided buffer (cleared first), so a
    /// long-lived connection can reuse one allocation per direction.
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        buf.clear();
        match self {
            Response::Reply { value, server_cost } => {
                buf.push(0x10);
                push_value(buf, *value);
                put_int(buf, *server_cost);
            }
            Response::Error(msg) => {
                buf.push(0x11);
                put_int(buf, msg.len() as u64);
                buf.extend_from_slice(msg.as_bytes());
            }
            Response::Batch(replies) => {
                buf.push(0x12);
                put_int(buf, replies.len() as u64);
                for reply in replies {
                    push_value(buf, reply.value);
                    put_int(buf, reply.server_cost);
                }
            }
            Response::HelloAck {
                version,
                session,
                next_seq,
            } => {
                buf.push(0x13);
                buf.push(*version);
                put_int(buf, *session);
                put_int(buf, *next_seq);
            }
        }
    }

    /// Parses a response payload.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::Channel`] for malformed frames.
    pub fn decode(data: &[u8]) -> Result<Response, RuntimeError> {
        let mut r = Reader { data, pos: 0 };
        let resp = match r.u8()? {
            0x10 => Response::Reply {
                value: r.value()?,
                server_cost: r.int()?,
            },
            0x11 => {
                let len = r.int()?;
                let bytes = r.take(len)?;
                Response::Error(
                    String::from_utf8(bytes.to_vec())
                        .map_err(|_| RuntimeError::Channel("bad utf8 in error".into()))?,
                )
            }
            0x12 => {
                let count: usize = r.int()?;
                let mut replies = Vec::with_capacity(count.min(1024));
                for _ in 0..count {
                    replies.push(CallReply {
                        value: r.value()?,
                        server_cost: r.int()?,
                    });
                }
                Response::Batch(replies)
            }
            0x13 => Response::HelloAck {
                version: r.u8()?,
                session: r.int()?,
                next_seq: r.int()?,
            },
            t => return Err(RuntimeError::Channel(format!("bad response tag 0x{t:02x}"))),
        };
        r.done()?;
        Ok(resp)
    }
}

/// Writes one length-prefixed frame.
///
/// # Errors
///
/// Returns [`RuntimeError::Transport`] on I/O failure (classified via
/// [`crate::error::FaultClass::of_io`]).
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> Result<(), RuntimeError> {
    let len = (payload.len() as u32).to_le_bytes();
    w.write_all(&len)
        .and_then(|()| w.write_all(payload))
        .and_then(|()| w.flush())
        .map_err(|e| RuntimeError::transport("write", &e))
}

/// Writes `payload`'s length prefix and only its first half: the frame a
/// connection that dies mid-write leaves behind (chaos injection).
pub(crate) fn write_torn_frame(w: &mut impl Write, payload: &[u8]) -> std::io::Result<()> {
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(&payload[..payload.len() / 2])?;
    w.flush()
}

/// Reads one length-prefixed frame; `Ok(None)` on clean EOF at a frame
/// boundary.
///
/// # Errors
///
/// Returns [`RuntimeError::Transport`] on I/O failure or mid-frame EOF
/// (both retryable — a dying peer can cut a frame anywhere), and
/// [`RuntimeError::Channel`] on oversized frames (> 16 MiB), which no
/// retry can fix.
pub fn read_frame(r: &mut impl Read) -> Result<Option<Vec<u8>>, RuntimeError> {
    let mut len_buf = [0u8; 4];
    match r.read_exact(&mut len_buf) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(RuntimeError::transport("read", &e)),
    }
    let len = u32::from_le_bytes(len_buf) as usize;
    if len > 16 * 1024 * 1024 {
        return Err(RuntimeError::Channel(format!("oversized frame: {len}")));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)
        .map_err(|e| RuntimeError::transport("read", &e))?;
    Ok(Some(payload))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_round_trip() {
        let reqs = [
            Request::Release {
                component: ComponentId::new(0),
                key: u64::MAX,
            },
            Request::Shutdown,
        ];
        for req in reqs {
            let bytes = req.encode();
            assert_eq!(Request::decode(&bytes).unwrap(), req);
        }
    }

    #[test]
    fn response_round_trip() {
        let resps = [
            Response::Reply {
                value: Value::Float(f64::NAN),
                server_cost: 9,
            },
            Response::Error("boom — unicode ok".into()),
        ];
        for resp in resps {
            let bytes = resp.encode();
            let decoded = Response::decode(&bytes).unwrap();
            // NaN != NaN, compare via encoding.
            assert_eq!(decoded.encode(), bytes);
        }
    }

    #[test]
    fn batch_round_trip() {
        let req = Request::SeqBatch {
            seq: 3,
            calls: vec![
                PendingCall {
                    component: ComponentId::new(1),
                    key: 7,
                    label: FragLabel::new(2),
                    args: vec![Value::Int(3), Value::Bool(false)],
                },
                PendingCall {
                    component: ComponentId::new(0),
                    key: 0,
                    label: FragLabel::new(0),
                    args: vec![],
                },
            ],
        };
        assert_eq!(Request::decode(&req.encode()).unwrap(), req);
        let resp = Response::Batch(vec![
            CallReply {
                value: Value::Bool(true),
                server_cost: 4,
            },
            CallReply {
                value: Value::Int(-1),
                server_cost: 0,
            },
        ]);
        assert_eq!(Response::decode(&resp.encode()).unwrap(), resp);
        // An empty batch is legal on the wire even if the interpreter
        // never sends one.
        let empty = Request::SeqBatch {
            seq: 1,
            calls: Vec::new(),
        };
        assert_eq!(Request::decode(&empty.encode()).unwrap(), empty);
    }

    #[test]
    fn retired_tags_do_not_decode() {
        // 0x01 call and 0x04 batch carried unsequenced calls; their old
        // bodies (one argument-free call, a one-call batch) are refused.
        let body = [0u8; 18];
        for frame in [
            [&[0x01][..], &body].concat(),
            [&[0x04, 1, 0][..], &body].concat(),
        ] {
            let err = Request::decode(&frame).expect_err("retired tag");
            assert!(
                matches!(&err, RuntimeError::Channel(msg) if msg.starts_with("bad request tag")),
                "got {err:?}"
            );
        }
    }

    #[test]
    fn encode_into_reuses_buffer() {
        let mut buf = Vec::with_capacity(64);
        Request::Shutdown.encode_into(&mut buf);
        assert_eq!(Request::decode(&buf).unwrap(), Request::Shutdown);
        let req = Request::Release {
            component: ComponentId::new(1),
            key: 2,
        };
        req.encode_into(&mut buf);
        assert_eq!(Request::decode(&buf).unwrap(), req);
    }

    #[test]
    fn session_frames_round_trip() {
        let reqs = [
            Request::Hello {
                version: WIRE_VERSION,
                session: 0xdead_beef_cafe_f00d,
            },
            Request::SeqCall {
                seq: 17,
                call: PendingCall {
                    component: ComponentId::new(2),
                    key: 9,
                    label: FragLabel::new(4),
                    args: vec![Value::Int(11), Value::Bool(false)],
                },
            },
            Request::SeqBatch {
                seq: u64::MAX,
                calls: vec![PendingCall {
                    component: ComponentId::new(0),
                    key: 0,
                    label: FragLabel::new(0),
                    args: vec![],
                }],
            },
        ];
        for req in reqs {
            assert_eq!(Request::decode(&req.encode()).unwrap(), req);
        }
        let ack = Response::HelloAck {
            version: WIRE_VERSION,
            session: 42,
            next_seq: 7,
        };
        assert_eq!(Response::decode(&ack.encode()).unwrap(), ack);
    }

    #[test]
    fn rejects_malformed() {
        assert!(Request::decode(&[]).is_err());
        assert!(Request::decode(&[0xff]).is_err());
        assert!(Response::decode(&[0x10, 0x07]).is_err());
        // Trailing junk.
        let mut good = Request::Shutdown.encode();
        good.push(0);
        assert!(Request::decode(&good).is_err());
        // Truncated session frames fail cleanly too.
        let hello = Request::Hello {
            version: WIRE_VERSION,
            session: 1,
        }
        .encode();
        for cut in 0..hello.len() {
            assert!(Request::decode(&hello[..cut]).is_err(), "cut at {cut}");
        }
        assert!(Response::decode(&[0x13, 0x02]).is_err());

        let channel_error = |bytes: &[u8], want: &str| match Request::decode(bytes) {
            Err(RuntimeError::Channel(msg)) => assert!(msg.contains(want), "got {msg:?}"),
            other => panic!("expected {want:?}, got {other:?}"),
        };
        // A release of component 0 with the key varint `key`: u64::MAX takes
        // ten bytes, the last holding bit 63 alone.
        let release = |key: &[u8]| [&[0x02, 0x00][..], key].concat();
        let max = [&[0xff; 9][..], &[0x01]].concat();
        assert_eq!(
            Request::decode(&release(&max)).unwrap(),
            Request::Release {
                component: ComponentId::new(0),
                key: u64::MAX,
            }
        );
        // Bit 64 and up, or an eleventh byte, is longer than 64 bits.
        let wide = [&[0xff; 9][..], &[0x02]].concat();
        channel_error(&release(&wide), "varint longer than 64 bits");
        let long = [&[0x80; 10][..], &[0x00]].concat();
        channel_error(&release(&long), "varint longer than 64 bits");
        // Component and label ids must fit a u32.
        let mut too_big = vec![0x02];
        put_int(&mut too_big, 1 << 32);
        too_big.push(0x00);
        channel_error(&too_big, "integer field out of range");
        let mut label = vec![0x06, 0x01, 0x00, 0x00];
        put_int(&mut label, u64::from(u32::MAX) + 1);
        label.push(0x00);
        channel_error(&label, "integer field out of range");
        // A count far beyond the payload is a truncation, not an
        // allocation.
        let mut batch = vec![0x07, 0x01];
        put_int(&mut batch, u64::MAX);
        channel_error(&batch, "truncated frame");
        let mut error = vec![0x11];
        put_int(&mut error, u64::MAX);
        assert!(matches!(
            Response::decode(&error),
            Err(RuntimeError::Channel(msg)) if msg == "truncated frame"
        ));
    }

    #[test]
    fn small_fields_take_one_byte() {
        // A typical unit: one call with two small int arguments.
        let unit = Request::SeqCall {
            seq: 40_000,
            call: PendingCall {
                component: ComponentId::new(2),
                key: 9_000,
                label: FragLabel::new(3),
                args: vec![Value::Int(417), Value::Int(-12)],
            },
        };
        // tag, seq:3, component, key:2, label, argc, 2×(tag + zigzag:2|1)
        assert_eq!(unit.encode().len(), 14);
        let mut neg = Vec::new();
        push_value(&mut neg, Value::Int(-1));
        assert_eq!(neg, [0x00, 0x01]);
    }

    #[test]
    fn frames_over_a_buffer() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut cursor = std::io::Cursor::new(buf);
        assert_eq!(read_frame(&mut cursor).unwrap().unwrap(), b"hello");
        assert_eq!(read_frame(&mut cursor).unwrap().unwrap(), b"");
        assert_eq!(read_frame(&mut cursor).unwrap(), None);
    }

    #[test]
    fn mid_frame_eof_is_error() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        buf.truncate(6);
        let mut cursor = std::io::Cursor::new(buf);
        assert!(read_frame(&mut cursor).is_err());
    }
}
