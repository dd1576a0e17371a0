//! Property-based tests of the wire protocol: arbitrary requests/responses
//! survive encode→frame→unframe→decode, and the decoder never panics on
//! arbitrary bytes.

use hps_ir::{ComponentId, FragLabel, Value};
use hps_runtime::wire::{read_frame, write_frame, Request, Response};
use hps_runtime::PendingCall;
use proptest::prelude::*;

fn value_strategy() -> impl Strategy<Value = Value> {
    prop_oneof![
        any::<i64>().prop_map(Value::Int),
        any::<f64>().prop_map(Value::Float),
        any::<bool>().prop_map(Value::Bool),
    ]
}

fn pending_call_strategy(max_args: usize) -> impl Strategy<Value = PendingCall> {
    (
        any::<u32>(),
        any::<u64>(),
        any::<u32>(),
        prop::collection::vec(value_strategy(), 0..max_args),
    )
        .prop_map(|(c, key, l, args)| PendingCall {
            component: ComponentId(c),
            key,
            label: FragLabel(l),
            args,
        })
}

fn request_strategy() -> impl Strategy<Value = Request> {
    prop_oneof![
        (any::<u32>(), any::<u64>()).prop_map(|(c, key)| Request::Release {
            component: ComponentId(c),
            key,
        }),
        (any::<u8>(), any::<u64>())
            .prop_map(|(version, session)| Request::Hello { version, session }),
        (any::<u64>(), pending_call_strategy(20))
            .prop_map(|(seq, call)| Request::SeqCall { seq, call }),
        (
            any::<u64>(),
            prop::collection::vec(pending_call_strategy(8), 0..6)
        )
            .prop_map(|(seq, calls)| Request::SeqBatch { seq, calls }),
        Just(Request::Shutdown),
    ]
}

fn response_strategy() -> impl Strategy<Value = Response> {
    prop_oneof![
        (value_strategy(), any::<u64>())
            .prop_map(|(value, server_cost)| Response::Reply { value, server_cost }),
        prop::collection::vec(
            (value_strategy(), any::<u64>())
                .prop_map(|(value, server_cost)| { hps_runtime::CallReply { value, server_cost } }),
            0..6
        )
        .prop_map(Response::Batch),
        (any::<u8>(), any::<u64>(), any::<u64>()).prop_map(|(version, session, next_seq)| {
            Response::HelloAck {
                version,
                session,
                next_seq,
            }
        }),
        ".{0,120}".prop_map(Response::Error),
    ]
}

/// Bit-level equality for values (NaN-safe).
fn value_bits(v: &Value) -> (u8, u64) {
    match v {
        Value::Int(i) => (0, *i as u64),
        Value::Float(f) => (1, f.to_bits()),
        Value::Bool(b) => (2, u64::from(*b)),
    }
}

proptest! {
    #[test]
    fn request_round_trips(req in request_strategy()) {
        let bytes = req.encode();
        let decoded = Request::decode(&bytes).expect("valid encoding decodes");
        // Re-encoding must reproduce the bytes exactly (bit-level, so
        // NaN-carrying floats round-trip too).
        prop_assert_eq!(decoded.encode(), bytes);
        // And for the common case, structural equality must hold as well.
        if let (
            Request::SeqCall { seq: s1, call: c1 },
            Request::SeqCall { seq: s2, call: c2 },
        ) = (&req, &decoded) {
            prop_assert_eq!(s1, s2);
            prop_assert_eq!(c1.component, c2.component);
            prop_assert_eq!(c1.key, c2.key);
            prop_assert_eq!(c1.label, c2.label);
            prop_assert_eq!(c1.args.len(), c2.args.len());
            for (x, y) in c1.args.iter().zip(&c2.args) {
                prop_assert_eq!(value_bits(x), value_bits(y));
            }
        }
    }

    #[test]
    fn response_round_trips(resp in response_strategy()) {
        let bytes = resp.encode();
        let decoded = Response::decode(&bytes).expect("valid encoding decodes");
        prop_assert_eq!(decoded.encode(), bytes);
    }

    #[test]
    fn decoder_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        let _ = Request::decode(&bytes);
        let _ = Response::decode(&bytes);
    }

    #[test]
    fn frames_round_trip(payloads in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..64), 0..8)) {
        let mut buf = Vec::new();
        for p in &payloads {
            write_frame(&mut buf, p).expect("write");
        }
        let mut cursor = std::io::Cursor::new(buf);
        for p in &payloads {
            let got = read_frame(&mut cursor).expect("read").expect("frame present");
            prop_assert_eq!(&got, p);
        }
        prop_assert_eq!(read_frame(&mut cursor).expect("read"), None);
    }

    #[test]
    fn truncated_frames_error_not_panic(req in request_strategy(), cut in 0usize..64) {
        let mut buf = Vec::new();
        write_frame(&mut buf, &req.encode()).expect("write");
        if cut < buf.len() && cut > 0 {
            buf.truncate(cut);
            let mut cursor = std::io::Cursor::new(buf);
            // Either a clean None (cut before the length prefix finished the
            // frame boundary check) or an error; never a panic or a bogus Ok.
            if let Ok(Some(payload)) = read_frame(&mut cursor) {
                // Only acceptable if the cut kept the whole frame.
                prop_assert_eq!(payload, req.encode());
            }
        }
    }

    #[test]
    fn truncated_payloads_error_not_panic(req in request_strategy(), cut in 0usize..48) {
        // Cut the *decoded payload* (not the frame): every proper prefix of
        // a valid encoding must decode to a clean error, never panic.
        let bytes = req.encode();
        if cut < bytes.len() {
            prop_assert!(Request::decode(&bytes[..cut]).is_err());
        }
    }

    #[test]
    fn bad_tags_error_not_panic(
        tag in prop_oneof![Just(0x00u8), Just(0x01), Just(0x04), 8u8..=255],
        rest in prop::collection::vec(any::<u8>(), 0..64),
    ) {
        // Request tags stop at 0x07, and 0x01/0x04 are retired; all of
        // these must be rejected.
        let mut bytes = vec![tag];
        bytes.extend(rest);
        prop_assert!(Request::decode(&bytes).is_err());
    }

    #[test]
    fn overlong_payloads_error_not_panic(req in request_strategy(), junk in prop::collection::vec(any::<u8>(), 1..32)) {
        // Trailing bytes after a complete body are a framing bug upstream;
        // the decoder must flag them rather than silently ignore them.
        let mut bytes = req.encode();
        bytes.extend(junk);
        prop_assert!(Request::decode(&bytes).is_err());
    }

    #[test]
    fn oversized_frame_lengths_error_not_allocate(len in 16_777_217u32..u32::MAX) {
        // A hostile length prefix beyond the 16 MiB cap must error cleanly
        // (and in particular must not attempt the allocation).
        let mut buf = len.to_le_bytes().to_vec();
        buf.extend_from_slice(&[0u8; 16]);
        let mut cursor = std::io::Cursor::new(buf);
        prop_assert!(read_frame(&mut cursor).is_err());
    }

    #[test]
    fn random_prefix_frames_never_panic(junk in prop::collection::vec(any::<u8>(), 0..96)) {
        // Arbitrary bytes fed to the framing layer: any of error, clean
        // EOF, or a (garbage) frame is fine — panicking or looping is not.
        let mut cursor = std::io::Cursor::new(junk);
        while let Ok(Some(payload)) = read_frame(&mut cursor) {
            let _ = Request::decode(&payload);
            let _ = Response::decode(&payload);
        }
    }
}
