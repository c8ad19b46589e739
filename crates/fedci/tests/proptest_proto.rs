//! Property-based tests for the `fedci::proto` wire codec: arbitrary
//! frames round-trip losslessly, and adversarial inputs — truncations,
//! hostile length headers, random garbage — come back as clean errors,
//! never a panic and never an allocation bigger than the input justifies.

use fedci::proto::{
    encode_dispatch_into, encode_transfer_into, Frame, FrameReader, ProtoError, TelemetryEvent,
    IO_BUF, MAX_FRAME, PROTO_VERSION, TEL_MAX_EVENTS,
};
use proptest::collection::vec;
use proptest::prelude::*;

/// Any string a u16-length field can carry (kept short for speed).
fn arb_name() -> BoxedStrategy<String> {
    vec(0u8..128, 0..24)
        .prop_map(|bytes| {
            bytes
                .into_iter()
                .map(|b| (b'a' + (b % 26)) as char)
                .collect()
        })
        .boxed()
}

/// A full-range byte (the shim's strategies are exclusive ranges only).
fn arb_byte() -> BoxedStrategy<u8> {
    (0u16..256).prop_map(|b| b as u8).boxed()
}

fn arb_payload() -> BoxedStrategy<Vec<u8>> {
    vec(arb_byte(), 0..200).boxed()
}

fn arb_frame() -> BoxedStrategy<Frame> {
    prop_oneof![
        (0u16..4, arb_name(), 0u32..256, 0u64..10).prop_map(
            |(proto, name, workers, generation)| {
                Frame::Hello {
                    proto,
                    name,
                    workers,
                    generation,
                }
            }
        ),
        (
            0u64..1_000_000,
            0u32..20,
            0u64..10,
            arb_name(),
            vec(0u64..1_000_000, 0..8),
            arb_payload()
        )
            .prop_map(|(task, attempt, generation, function, deps, payload)| {
                Frame::Dispatch {
                    task,
                    attempt,
                    generation,
                    function,
                    deps,
                    payload,
                }
            }),
        (0u64..1_000_000, 0u32..20, 0u64..10, 0u8..2, arb_payload()).prop_map(
            |(task, attempt, generation, ok, payload)| Frame::Result {
                task,
                attempt,
                generation,
                ok: ok == 1,
                payload,
            }
        ),
        Just(Frame::Poll),
        (0u32..64, 0u32..4096, 0u64..1_000_000).prop_map(|(busy, queued, completed)| {
            Frame::PollAck {
                busy,
                queued,
                completed,
            }
        }),
        (0u64..1_000_000, arb_payload())
            .prop_map(|(key, payload)| Frame::Transfer { key, payload }),
        (0u64..1_000_000, 0u64..1_000_000)
            .prop_map(|(key, stored)| Frame::TransferAck { key, stored }),
        (0u64..1_000_000, 0u64..1_000_000_000)
            .prop_map(|(seq, t_client_us)| Frame::Heartbeat { seq, t_client_us }),
        (
            0u64..1_000_000,
            0u32..64,
            0u64..1_000_000_000,
            0u64..1_000_000_000
        )
            .prop_map(
                |(seq, busy, t_client_us, t_daemon_us)| Frame::HeartbeatAck {
                    seq,
                    busy,
                    t_client_us,
                    t_daemon_us,
                }
            ),
        Just(Frame::Drain),
        (0u32..4096).prop_map(|remaining| Frame::DrainAck { remaining }),
        (0u16..4).prop_map(|level| Frame::TelemetrySub { level: level as u8 }),
        (
            0u64..10,
            0u64..1_000_000,
            vec(arb_tel_event(), 0..12),
            vec((0u16..8, 0u64..1_000_000), 0..4),
            vec((-64i64..64, 0u64..1_000_000), 0..6),
        )
            .prop_map(|(generation, seq, events, counters, exec_buckets)| {
                Frame::Telemetry {
                    generation,
                    seq,
                    events,
                    counters,
                    exec_buckets: exec_buckets
                        .into_iter()
                        .map(|(b, c)| (b as i32, c))
                        .collect(),
                }
            }),
    ]
    .boxed()
}

fn arb_tel_event() -> BoxedStrategy<TelemetryEvent> {
    (
        0u16..8,
        0u64..1_000_000_000,
        0u64..1_000_000,
        0u32..20,
        0u64..1_000,
    )
        .prop_map(|(stage, t_us, task, attempt, arg)| TelemetryEvent {
            stage: stage as u8,
            t_us,
            task,
            attempt,
            arg,
        })
        .boxed()
}

/// A stream that hands out its bytes in the given chunk sizes (cycled),
/// the way a socket returns whatever has arrived so far.
struct Chunked {
    data: Vec<u8>,
    pos: usize,
    chunks: Vec<usize>,
    reads: usize,
}

impl Chunked {
    fn new(data: Vec<u8>, chunks: Vec<usize>) -> Self {
        Chunked {
            data,
            pos: 0,
            chunks,
            reads: 0,
        }
    }
}

impl std::io::Read for Chunked {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let chunk = self.chunks[self.reads % self.chunks.len()];
        self.reads += 1;
        let n = chunk.min(buf.len()).min(self.data.len() - self.pos);
        buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

fn arb_chunks() -> BoxedStrategy<Vec<usize>> {
    vec(1usize..400, 1..8).boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `encode_into` appends: onto a buffer that already holds bytes it
    /// produces exactly the concatenation of the frames' `encode()`s, and
    /// the borrowing encoders agree with the owned frames byte for byte.
    #[test]
    fn encode_into_appends_the_concatenation(
        prefix in vec(arb_byte(), 0..40),
        frames in vec(arb_frame(), 1..6),
    ) {
        let mut out = prefix.clone();
        let mut borrowed = prefix.clone();
        let mut want = prefix;
        for f in &frames {
            f.encode_into(&mut out);
            want.extend_from_slice(&f.encode());
            match f {
                Frame::Dispatch { task, attempt, generation, function, deps, payload } => {
                    encode_dispatch_into(
                        &mut borrowed, *task, *attempt, *generation, function, deps, payload,
                    );
                }
                Frame::Transfer { key, payload } => {
                    encode_transfer_into(&mut borrowed, *key, payload);
                }
                other => other.encode_into(&mut borrowed),
            }
        }
        prop_assert_eq!(&out, &want);
        prop_assert_eq!(&borrowed, &want);
    }

    /// Frames decoded through the buffered reader, with the stream split
    /// at arbitrary chunk boundaries, equal `read_from` frame by frame —
    /// whether taken one at a time or a batch per read.
    #[test]
    fn buffered_reader_matches_read_from(
        frames in vec(arb_frame(), 1..12),
        chunks in arb_chunks(),
        batched in 0u8..2,
    ) {
        let mut stream = Vec::new();
        for f in &frames {
            f.encode_into(&mut stream);
        }
        let mut plain = std::io::Cursor::new(stream.clone());
        let mut reader = FrameReader::new(Chunked::new(stream, chunks));
        let mut got = Vec::new();
        let end = loop {
            let r = if batched == 1 {
                reader.read_batch(&mut got)
            } else {
                reader.read_frame().map(|f| got.push(f))
            };
            if let Err(e) = r {
                break e;
            }
        };
        prop_assert!(matches!(end, ProtoError::Truncated), "clean EOF, got {end}");
        prop_assert_eq!(got.len(), frames.len());
        for f in &got {
            prop_assert_eq!(f, &Frame::read_from(&mut plain).unwrap());
        }
    }

    /// A stream cut anywhere, or corrupted in one byte, comes back from
    /// the buffered reader as the intact frames followed by an error —
    /// never a panic, never a frame the bytes do not spell.
    #[test]
    fn buffered_reader_survives_truncation_and_corruption(
        frames in vec(arb_frame(), 1..6),
        chunks in arb_chunks(),
        cut_frac in 0.0f64..1.0,
        xor in 0u16..256,
    ) {
        let mut stream = Vec::new();
        let mut ends = Vec::new();
        for f in &frames {
            f.encode_into(&mut stream);
            ends.push(stream.len());
        }
        let cut = ((stream.len() as f64) * cut_frac) as usize;
        stream.truncate(cut.max(1));
        let last = stream.len() - 1;
        stream[last] ^= xor as u8;
        let intact = ends.iter().filter(|&&e| e <= last).count();
        let mut reader = FrameReader::new(Chunked::new(stream, chunks));
        let mut got = Vec::new();
        while reader.read_batch(&mut got).is_ok() {}
        prop_assert!(got.len() >= intact);
        prop_assert_eq!(&got[..intact], &frames[..intact]);
    }

    /// A hostile header through the buffered reader is refused before
    /// anything is sized by it.
    #[test]
    fn buffered_reader_rejects_hostile_length(
        len in (MAX_FRAME + 1)..u32::MAX,
        tail in vec(arb_byte(), 0..32),
        chunks in arb_chunks(),
    ) {
        let mut stream = len.to_le_bytes().to_vec();
        stream.extend_from_slice(&tail);
        let mut reader = FrameReader::new(Chunked::new(stream, chunks));
        prop_assert!(matches!(reader.read_frame(), Err(ProtoError::Oversized(_))));
    }

    /// decode(encode(f)) == f, for both the slice and the reader paths.
    #[test]
    fn round_trip_is_lossless(frame in arb_frame()) {
        let bytes = frame.encode();
        prop_assert_eq!(&Frame::decode(&bytes).unwrap(), &frame);
        let mut r = std::io::Cursor::new(bytes);
        prop_assert_eq!(&Frame::read_from(&mut r).unwrap(), &frame);
    }

    /// Concatenated frames stream back in order through `read_from`.
    #[test]
    fn streams_preserve_frame_order(frames in vec(arb_frame(), 1..6)) {
        let mut stream = Vec::new();
        for f in &frames {
            stream.extend_from_slice(&f.encode());
        }
        let mut r = std::io::Cursor::new(stream);
        for f in &frames {
            prop_assert_eq!(&Frame::read_from(&mut r).unwrap(), f);
        }
        prop_assert!(matches!(Frame::read_from(&mut r), Err(ProtoError::Truncated)));
    }

    /// Cutting a valid frame anywhere yields an error, not a panic and
    /// not a bogus decode.
    #[test]
    fn truncation_never_panics(frame in arb_frame(), cut_frac in 0.0f64..1.0) {
        let bytes = frame.encode();
        let cut = ((bytes.len() as f64) * cut_frac) as usize;
        prop_assume!(cut < bytes.len());
        prop_assert!(Frame::decode(&bytes[..cut]).is_err());
        let mut r = std::io::Cursor::new(bytes[..cut].to_vec());
        prop_assert!(Frame::read_from(&mut r).is_err());
    }

    /// A hostile length header is rejected as Oversized before any
    /// body-sized allocation happens — from a 4-byte input.
    #[test]
    fn hostile_length_header_rejected(len in (MAX_FRAME + 1)..u32::MAX) {
        let header = len.to_le_bytes();
        prop_assert!(matches!(
            Frame::decode(&header),
            Err(ProtoError::Oversized(_))
        ));
        let mut r = std::io::Cursor::new(header.to_vec());
        prop_assert!(matches!(
            Frame::read_from(&mut r),
            Err(ProtoError::Oversized(_))
        ));
    }

    /// Arbitrary garbage either fails cleanly or decodes to something
    /// that re-encodes to the same bytes (i.e. it happened to be valid).
    #[test]
    fn garbage_decodes_cleanly_or_not_at_all(bytes in vec(arb_byte(), 0..64)) {
        match Frame::decode(&bytes) {
            Err(_) => {}
            Ok(frame) => prop_assert_eq!(frame.encode(), bytes),
        }
    }

    /// Corrupting one byte of a valid frame never panics; if it still
    /// decodes, re-encoding reproduces the corrupted bytes (the codec is
    /// a bijection on its valid set).
    #[test]
    fn single_byte_corruption_never_panics(
        frame in arb_frame(),
        pos_frac in 0.0f64..1.0,
        xor in 1u16..256,
    ) {
        let mut bytes = frame.encode();
        let pos = ((bytes.len() as f64) * pos_frac) as usize;
        prop_assume!(pos < bytes.len());
        bytes[pos] ^= xor as u8;
        match Frame::decode(&bytes) {
            Err(_) => {}
            Ok(decoded) => prop_assert_eq!(decoded.encode(), bytes),
        }
    }
}

/// Frames larger than the read buffer take the reader's own-allocation
/// path; frames around them still decode from the buffer, and a length
/// the stream cannot back is `Truncated`, not a hang or a panic.
#[test]
fn buffered_reader_handles_frames_larger_than_its_buffer() {
    let big = Frame::Transfer {
        key: 9,
        payload: (0..3 * IO_BUF).map(|i| i as u8).collect(),
    };
    let small = Frame::TransferAck { key: 9, stored: 1 };
    let mut stream = Vec::new();
    for f in [&small, &big, &small, &big] {
        f.encode_into(&mut stream);
    }
    for chunk in [1 << 20, 1000, IO_BUF] {
        let mut reader = FrameReader::new(Chunked::new(stream.clone(), vec![chunk]));
        for want in [&small, &big, &small, &big] {
            assert_eq!(&reader.read_frame().unwrap(), want);
        }
        assert!(matches!(reader.read_frame(), Err(ProtoError::Truncated)));
    }
    // A header that claims MAX_FRAME with almost nothing behind it.
    let mut hostile = MAX_FRAME.to_le_bytes().to_vec();
    hostile.extend_from_slice(&[6, 0, 1, 2, 3]);
    let mut reader = FrameReader::new(Chunked::new(hostile, vec![3]));
    assert!(matches!(reader.read_frame(), Err(ProtoError::Truncated)));
}

/// Non-property regression anchors: the exact constants matter on the
/// wire, so pin them.
#[test]
fn wire_constants_are_pinned() {
    // Revision 2: clock-sync timestamps on the heartbeat exchange, span
    // context on DISPATCH/RESULT, TELEMETRY_SUB/TELEMETRY frames.
    assert_eq!(PROTO_VERSION, 2);
    assert_eq!(MAX_FRAME, 16 * 1024 * 1024);
    const { assert!(TEL_MAX_EVENTS >= 1024) };
    // Kind tags are part of the wire contract; renumbering breaks
    // rolling upgrades between daemon and client builds.
    assert_eq!(Frame::Poll.kind(), 4);
    assert_eq!(Frame::Drain.kind(), 10);
    assert_eq!(
        Frame::Heartbeat {
            seq: 0,
            t_client_us: 0
        }
        .kind(),
        8
    );
    assert_eq!(Frame::TelemetrySub { level: 0 }.kind(), 12);
    assert_eq!(
        Frame::Telemetry {
            generation: 0,
            seq: 0,
            events: vec![],
            counters: vec![],
            exec_buckets: vec![],
        }
        .kind(),
        13
    );
}
