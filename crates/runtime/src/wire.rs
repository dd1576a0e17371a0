//! Binary wire protocol for the TCP transport.
//!
//! Hand-rolled, little-endian, length-prefixed frames:
//!
//! ```text
//! frame     := u32 payload_len ++ payload
//! request   := 0x02 release(component:u32 key:u64)
//!            | 0x03 shutdown
//!            | 0x05 hello(version:u8 session:u64)
//!            | 0x06 seq-call(seq:u64 call-body)
//!            | 0x07 seq-batch(seq:u64 count:u16 call-body*)
//! call-body := component:u32 key:u64 label:u32 argc:u16 arg*
//! response  := 0x10 reply(value:arg server_cost:u64)
//!            | 0x11 error(len:u32 utf8-bytes)
//!            | 0x12 batch(count:u16 reply-body*)    ; reply-body as in 0x10
//!            | 0x13 hello-ack(version:u8 session:u64 next_seq:u64)
//! arg       := 0x00 i64 | 0x01 f64-bits | 0x02 u8-bool
//! ```
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
pub const WIRE_VERSION: u8 = 2;

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

fn push_value(buf: &mut Vec<u8>, v: Value) {
    match v {
        Value::Int(i) => {
            buf.push(0x00);
            buf.extend_from_slice(&i.to_le_bytes());
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
        if self.pos + n > self.data.len() {
            return Err(RuntimeError::Channel("truncated frame".into()));
        }
        let s = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, RuntimeError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, RuntimeError> {
        Ok(u16::from_le_bytes(
            self.take(2)?.try_into().expect("2 bytes"),
        ))
    }

    fn u32(&mut self) -> Result<u32, RuntimeError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    fn u64(&mut self) -> Result<u64, RuntimeError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    fn i64(&mut self) -> Result<i64, RuntimeError> {
        Ok(i64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    fn value(&mut self) -> Result<Value, RuntimeError> {
        match self.u8()? {
            0x00 => Ok(Value::Int(self.i64()?)),
            0x01 => Ok(Value::Float(f64::from_bits(self.u64()?))),
            0x02 => Ok(Value::Bool(self.u8()? != 0)),
            t => Err(RuntimeError::Channel(format!("bad value tag 0x{t:02x}"))),
        }
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
    buf.extend_from_slice(&c.component.0.to_le_bytes());
    buf.extend_from_slice(&c.key.to_le_bytes());
    buf.extend_from_slice(&c.label.0.to_le_bytes());
    buf.extend_from_slice(&(c.args.len() as u16).to_le_bytes());
    for &a in &c.args {
        push_value(buf, a);
    }
}

/// Appends a sequenced unit's request payload — `0x07` seq-batch when
/// `batch`, else `0x06` seq-call of `calls[0]` — from borrowed calls.
pub(crate) fn push_seq_unit(buf: &mut Vec<u8>, seq: u64, calls: &[PendingCall], batch: bool) {
    if batch {
        buf.push(0x07);
        buf.extend_from_slice(&seq.to_le_bytes());
        buf.extend_from_slice(&(calls.len() as u16).to_le_bytes());
        for c in calls {
            push_call_body(buf, c);
        }
    } else {
        buf.push(0x06);
        buf.extend_from_slice(&seq.to_le_bytes());
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
        self.append_to(buf);
    }

    /// Appends the serialized payload to `buf`.
    pub(crate) fn append_to(&self, buf: &mut Vec<u8>) {
        match self {
            Request::Release { component, key } => {
                buf.push(0x02);
                buf.extend_from_slice(&component.0.to_le_bytes());
                buf.extend_from_slice(&key.to_le_bytes());
            }
            Request::Shutdown => buf.push(0x03),
            Request::Hello { version, session } => {
                buf.push(0x05);
                buf.push(*version);
                buf.extend_from_slice(&session.to_le_bytes());
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
        let req = match r.u8()? {
            0x02 => Request::Release {
                component: ComponentId(r.u32()?),
                key: r.u64()?,
            },
            0x03 => Request::Shutdown,
            0x05 => Request::Hello {
                version: r.u8()?,
                session: r.u64()?,
            },
            0x06 => Request::SeqCall {
                seq: r.u64()?,
                call: read_call_body(&mut r)?,
            },
            0x07 => {
                let seq = r.u64()?;
                let count = r.u16()? as usize;
                let mut calls = Vec::with_capacity(count.min(1024));
                for _ in 0..count {
                    calls.push(read_call_body(&mut r)?);
                }
                Request::SeqBatch { seq, calls }
            }
            t => return Err(RuntimeError::Channel(format!("bad request tag 0x{t:02x}"))),
        };
        r.done()?;
        Ok(req)
    }
}

fn read_call_body(r: &mut Reader<'_>) -> Result<PendingCall, RuntimeError> {
    let component = ComponentId(r.u32()?);
    let key = r.u64()?;
    let label = FragLabel(r.u32()?);
    let argc = r.u16()? as usize;
    let mut args = Vec::with_capacity(argc.min(1024));
    for _ in 0..argc {
        args.push(r.value()?);
    }
    Ok(PendingCall {
        component,
        key,
        label,
        args,
    })
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
                buf.extend_from_slice(&server_cost.to_le_bytes());
            }
            Response::Error(msg) => {
                buf.push(0x11);
                let bytes = msg.as_bytes();
                buf.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
                buf.extend_from_slice(bytes);
            }
            Response::Batch(replies) => {
                buf.push(0x12);
                buf.extend_from_slice(&(replies.len() as u16).to_le_bytes());
                for reply in replies {
                    push_value(buf, reply.value);
                    buf.extend_from_slice(&reply.server_cost.to_le_bytes());
                }
            }
            Response::HelloAck {
                version,
                session,
                next_seq,
            } => {
                buf.push(0x13);
                buf.push(*version);
                buf.extend_from_slice(&session.to_le_bytes());
                buf.extend_from_slice(&next_seq.to_le_bytes());
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
            0x10 => {
                let value = r.value()?;
                let server_cost = r.u64()?;
                Response::Reply { value, server_cost }
            }
            0x11 => {
                let len = r.u32()? as usize;
                let bytes = r.take(len)?;
                Response::Error(
                    String::from_utf8(bytes.to_vec())
                        .map_err(|_| RuntimeError::Channel("bad utf8 in error".into()))?,
                )
            }
            0x12 => {
                let count = r.u16()? as usize;
                let mut replies = Vec::with_capacity(count.min(1024));
                for _ in 0..count {
                    let value = r.value()?;
                    let server_cost = r.u64()?;
                    replies.push(CallReply { value, server_cost });
                }
                Response::Batch(replies)
            }
            0x13 => Response::HelloAck {
                version: r.u8()?,
                session: r.u64()?,
                next_seq: r.u64()?,
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
