//! Property-based tests for the `fedci::proto` wire codec: arbitrary
//! frames round-trip losslessly, and adversarial inputs — truncations,
//! hostile length headers, random garbage — come back as clean errors,
//! never a panic and never an allocation bigger than the input justifies.

use fedci::fabric::{Payload, INLINE_PAYLOAD};
use fedci::proto::{
    encode_dispatch_head, encode_result_head, encode_transfer_head, Frame, FrameReader, Incoming,
    Outbox, ProtoError, TelemetryEvent, IO_BUF, MAX_FRAME, PROTO_VERSION, TEL_MAX_EVENTS,
};
use proptest::collection::vec;
use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The system allocator, remembering the largest single request: how the
/// hostile-length tests see that no length claim sized an allocation.
struct Watched;

static LARGEST_ALLOCATION: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter touches no memory of the
// allocation.
unsafe impl GlobalAlloc for Watched {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST_ALLOCATION.fetch_max(layout.size(), Ordering::Relaxed);
        // SAFETY: the caller's obligations are `System.alloc`'s own.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LARGEST_ALLOCATION.fetch_max(layout.size(), Ordering::Relaxed);
        // SAFETY: the caller's obligations are `System.alloc_zeroed`'s own.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST_ALLOCATION.fetch_max(new_size, Ordering::Relaxed);
        // SAFETY: the caller's obligations are `System.realloc`'s own.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's obligations are `System.dealloc`'s own.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Watched = Watched;

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
        (0u64..1_000_000, 0u32..20).prop_map(|(task, attempt)| Frame::Keep { task, attempt }),
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

/// What the daemon's reader handed out, as the frame it spells, and
/// whether its payload came out stored in place.
fn to_frame(incoming: Incoming<'_>) -> (Frame, bool) {
    match incoming {
        Incoming::Dispatch(d) => {
            let inline = matches!(d.payload, Payload::Inline(..));
            let frame = Frame::Dispatch {
                task: d.task,
                attempt: d.attempt,
                generation: d.generation,
                function: d.function.into_owned(),
                deps: d.deps,
                payload: d.payload.to_vec(),
            };
            (frame, inline)
        }
        Incoming::Other(frame) => (frame, false),
    }
}

/// Reads `reader` to its end the daemon's way, one batch per read; returns
/// the frames with their in-place flags, and the error that ended it.
fn read_incoming<R: std::io::Read>(
    reader: &mut FrameReader<R>,
) -> (Vec<(Frame, bool)>, ProtoError) {
    let mut got = Vec::new();
    loop {
        if let Err(e) = reader.read_batch_with(|incoming| got.push(to_frame(incoming))) {
            return (got, e);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `encode_into` appends: onto a buffer that already holds bytes it
    /// produces exactly the concatenation of the frames' `encode()`s, and
    /// a head encoded from borrowed parts, then the payload, agrees with
    /// the owned frame byte for byte.
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
                    let n = payload.len();
                    encode_dispatch_head(
                        &mut borrowed, *task, *attempt, *generation, function, deps, n,
                    );
                    borrowed.extend_from_slice(payload);
                }
                Frame::Result { task, attempt, generation, ok, payload } => {
                    let n = payload.len();
                    encode_result_head(&mut borrowed, *task, *attempt, *generation, *ok, n);
                    borrowed.extend_from_slice(payload);
                }
                Frame::Transfer { key, payload } => {
                    encode_transfer_head(&mut borrowed, *key, payload.len());
                    borrowed.extend_from_slice(payload);
                }
                other => other.encode_into(&mut borrowed),
            }
        }
        prop_assert_eq!(&out, &want);
        prop_assert_eq!(&borrowed, &want);
    }

    /// Frames decoded through the buffered reader, with the stream split
    /// at arbitrary chunk boundaries, equal `read_from` frame by frame —
    /// whether taken one at a time, a batch per read, or a batch per read
    /// the daemon's way.
    #[test]
    fn buffered_reader_matches_read_from(
        frames in vec(arb_frame(), 1..12),
        chunks in arb_chunks(),
        batched in 0u8..3,
    ) {
        let mut stream = Vec::new();
        for f in &frames {
            f.encode_into(&mut stream);
        }
        let mut plain = std::io::Cursor::new(stream.clone());
        let mut reader = FrameReader::new(Chunked::new(stream, chunks));
        let mut got = Vec::new();
        let end = loop {
            let r = match batched {
                0 => reader.read_frame().map(|f| got.push(f)),
                1 => reader.read_batch(&mut got),
                _ => {
                    let (frames, end) = read_incoming(&mut reader);
                    got.extend(frames.into_iter().map(|(f, _)| f));
                    Err(end)
                }
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
    /// the buffered reader — either way of batching — as the intact frames
    /// followed by an error: never a panic, never a frame the bytes do not
    /// spell.
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
        let mut reader = FrameReader::new(Chunked::new(stream.clone(), chunks.clone()));
        let mut got = Vec::new();
        while reader.read_batch(&mut got).is_ok() {}
        prop_assert!(got.len() >= intact);
        prop_assert_eq!(&got[..intact], &frames[..intact]);
        // The daemon's reader hands out the same frames up to the damage.
        let (incoming, _) = read_incoming(&mut FrameReader::new(Chunked::new(stream, chunks)));
        let incoming: Vec<Frame> = incoming.into_iter().map(|(f, _)| f).collect();
        prop_assert_eq!(incoming, got);
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

/// One of the three kinds that end in a payload, around a payload of
/// `len` seeded bytes.
fn payload_frame(kind: u8, len: usize, seed: u8) -> Frame {
    let payload: Vec<u8> = (0..len)
        .map(|i| (i as u8).wrapping_mul(31) ^ seed)
        .collect();
    match kind % 3 {
        0 => Frame::Dispatch {
            task: 7,
            attempt: 2,
            generation: 1,
            function: "sum64".to_string(),
            deps: vec![(7 << 32) | 1, (8 << 32) | 3],
            payload,
        },
        1 => Frame::Result {
            task: 7,
            attempt: 2,
            generation: 1,
            ok: true,
            payload,
        },
        _ => Frame::Transfer { key: 9, payload },
    }
}

/// Offset of the `u32` payload-length field inside `frame`'s encoding
/// (the payload is the last field, its length the four bytes before it).
fn payload_len_at(frame: &Frame, encoded: &[u8]) -> usize {
    let (Frame::Dispatch { payload, .. }
    | Frame::Result { payload, .. }
    | Frame::Transfer { payload, .. }) = frame
    else {
        panic!("{frame:?} does not end in a payload");
    };
    encoded.len() - payload.len() - 4
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// DISPATCH, RESULT and TRANSFER with payloads on both sides of the
    /// reader's buffer, fed in arbitrary chunkings: what the reader returns
    /// is what the slice decoder makes of the same bytes.
    #[test]
    fn large_payload_frames_match_the_slice_decoder(
        shapes in vec((0u8..3, 0usize..4 * IO_BUF, arb_byte()), 1..4),
        chunks in vec(1usize..3 * IO_BUF, 1..6),
    ) {
        let frames: Vec<Frame> = shapes
            .iter()
            .map(|&(kind, len, seed)| payload_frame(kind, len, seed))
            .collect();
        let mut stream = Vec::new();
        let mut want = Vec::new();
        for f in &frames {
            let at = stream.len();
            f.encode_into(&mut stream);
            want.push(Frame::decode(&stream[at..]).unwrap());
        }
        let mut reader = FrameReader::new(Chunked::new(stream.clone(), chunks.clone()));
        for w in &want {
            prop_assert_eq!(&reader.read_frame().unwrap(), w);
        }
        prop_assert!(matches!(reader.read_frame(), Err(ProtoError::Truncated)));
        let (got, end) = read_incoming(&mut FrameReader::new(Chunked::new(stream, chunks)));
        prop_assert!(matches!(end, ProtoError::Truncated));
        let got: Vec<Frame> = got.into_iter().map(|(f, _)| f).collect();
        prop_assert_eq!(got, want);
    }

    /// A payload-length field that disagrees with the frame length is the
    /// slice decoder's error, found before the payload is sized or read.
    #[test]
    fn inner_length_claim_is_held_to_the_frame_length(
        kind in 0u8..3,
        len in IO_BUF..3 * IO_BUF,
        off in 1u32..100_000,
        over in 0u8..2,
        chunks in vec(1usize..3 * IO_BUF, 1..6),
    ) {
        let frame = payload_frame(kind, len, 5);
        let mut bytes = frame.encode();
        let at = payload_len_at(&frame, &bytes);
        let claim = if over == 1 { len as u32 + off } else { (len as u32).saturating_sub(off) };
        prop_assume!(claim != len as u32);
        bytes[at..at + 4].copy_from_slice(&claim.to_le_bytes());
        let want = Frame::decode(&bytes).unwrap_err().to_string();
        let mut reader = FrameReader::new(Chunked::new(bytes, chunks));
        prop_assert_eq!(reader.read_frame().unwrap_err().to_string(), want);
    }

    /// The same for a frame that fits the buffer, through both readers: a
    /// payload-length field that disagrees with the frame length is the
    /// slice decoder's error, whichever way the reader batches.
    #[test]
    fn inner_length_claim_of_a_buffered_frame_is_held_to_the_frame_length(
        kind in 0u8..3,
        len in 0usize..64,
        off in 1u32..64,
        over in 0u8..2,
        chunks in arb_chunks(),
    ) {
        let frame = payload_frame(kind, len, 5);
        let mut bytes = frame.encode();
        let at = payload_len_at(&frame, &bytes);
        let claim = if over == 1 { len as u32 + off } else { (len as u32).saturating_sub(off) };
        prop_assume!(claim != len as u32);
        bytes[at..at + 4].copy_from_slice(&claim.to_le_bytes());
        let want = Frame::decode(&bytes).unwrap_err().to_string();
        let mut reader = FrameReader::new(Chunked::new(bytes.clone(), chunks.clone()));
        prop_assert_eq!(&reader.read_frame().unwrap_err().to_string(), &want);
        let (got, end) = read_incoming(&mut FrameReader::new(Chunked::new(bytes, chunks)));
        prop_assert!(got.is_empty());
        prop_assert_eq!(end.to_string(), want);
    }

    /// Frames pushed through the coalescing [`Outbox`] and written out
    /// whenever it is due — a payload of `IO_BUF` or more written behind
    /// its head, not copied into the buffer — put on the stream exactly
    /// the bytes `encode_into` produces, and the buffer stays under two
    /// buffers' length.
    #[test]
    fn queued_frames_are_byte_identical_to_encode_into(
        shapes in vec((0u8..3, 0usize..2 * IO_BUF + 100, arb_byte()), 1..8),
    ) {
        let frames: Vec<Frame> = shapes
            .iter()
            .map(|&(kind, len, seed)| payload_frame(kind, len, seed))
            .collect();
        let (mut wire, mut out, mut want) = (Vec::new(), Outbox::default(), Vec::new());
        for frame in &frames {
            frame.encode_into(&mut want);
            match frame {
                Frame::Dispatch { task, attempt, generation, function, deps, payload } => {
                    let n = payload.len();
                    let head = |b: &mut Vec<u8>| {
                        encode_dispatch_head(b, *task, *attempt, *generation, function, deps, n);
                    };
                    out.push(head, &payload[..]);
                }
                Frame::Result { task, attempt, generation, ok, payload } => {
                    let n = payload.len();
                    let head = |b: &mut Vec<u8>| {
                        encode_result_head(b, *task, *attempt, *generation, *ok, n);
                    };
                    out.push(head, &payload[..]);
                }
                Frame::Transfer { key, payload } => {
                    let head = |b: &mut Vec<u8>| encode_transfer_head(b, *key, payload.len());
                    out.push(head, &payload[..]);
                }
                other => out.push(|b| other.encode_into(b), &[][..]),
            }
            prop_assert!(out.bytes.len() < 2 * IO_BUF, "buffer grew to {}", out.bytes.len());
            if out.due() {
                out.write_out(&mut wire).unwrap();
            }
        }
        out.write_out(&mut wire).unwrap();
        prop_assert_eq!(&wire, &want);
    }

    /// A DISPATCH whose payload travels inline puts on the wire exactly
    /// the bytes of the same DISPATCH with the payload owned; one byte
    /// more does not fit inline.
    #[test]
    fn an_inline_dispatch_is_byte_identical_to_an_owned_one(
        payload in vec(arb_byte(), 0..INLINE_PAYLOAD + 1),
        task in 0u64..1 << 40,
        deps in vec(0u64..1 << 40, 0..3),
    ) {
        let encode = |p: Payload| {
            let (n, mut out, mut wire) = (p.len(), Outbox::default(), Vec::new());
            out.push(|b| encode_dispatch_head(b, task, 2, 1, "fnv", &deps, n), p);
            out.write_out(&mut wire).unwrap();
            wire
        };
        let inline = Payload::inline(&payload).expect("fits inline");
        prop_assert!(matches!(inline, Payload::Inline(..)));
        prop_assert_eq!(encode(inline), encode(Payload::Owned(payload.clone())));
        let mut longer = payload;
        longer.resize(INLINE_PAYLOAD + 1, 0);
        prop_assert!(Payload::inline(&longer).is_none());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// DISPATCH, RESULT and TRANSFER with payloads of 0 to 16 bytes — both
    /// sides of the inline limit — round-trip through `Frame::decode`, the
    /// buffered reader and the daemon's reader, fed in arbitrary chunkings;
    /// the daemon's reader stores a DISPATCH payload in place exactly when
    /// it fits.
    #[test]
    fn payloads_around_the_inline_limit_round_trip_on_every_decode_path(
        shapes in vec((0u8..3, 0usize..INLINE_PAYLOAD + 2, arb_byte()), 1..8),
        chunks in arb_chunks(),
    ) {
        let frames: Vec<Frame> = shapes
            .iter()
            .map(|&(kind, len, seed)| payload_frame(kind, len, seed))
            .collect();
        let mut stream = Vec::new();
        for f in &frames {
            let at = stream.len();
            f.encode_into(&mut stream);
            prop_assert_eq!(&Frame::decode(&stream[at..]).unwrap(), f);
        }
        let mut reader = FrameReader::new(Chunked::new(stream.clone(), chunks.clone()));
        let mut got = Vec::new();
        while reader.read_batch(&mut got).is_ok() {}
        prop_assert_eq!(&got, &frames);
        let (got, end) = read_incoming(&mut FrameReader::new(Chunked::new(stream, chunks)));
        prop_assert!(matches!(end, ProtoError::Truncated));
        prop_assert_eq!(got.len(), frames.len());
        for ((frame, inline), (want, &(kind, len, _))) in got.iter().zip(frames.iter().zip(&shapes)) {
            prop_assert_eq!(frame, want);
            prop_assert_eq!(*inline, kind % 3 == 0 && len <= INLINE_PAYLOAD);
        }
    }
}

/// A stream that ends anywhere inside a frame larger than the buffer —
/// header, head or any byte of the payload — is `Truncated`.
#[test]
fn truncation_at_every_byte_of_a_large_frame_is_truncated() {
    for kind in 0..3 {
        let bytes = payload_frame(kind, IO_BUF + 1000, 3).encode();
        for cut in 0..bytes.len() {
            let mut reader = FrameReader::new(&bytes[..cut]);
            let got = reader.read_frame();
            assert!(
                matches!(got, Err(ProtoError::Truncated)),
                "kind {kind} cut at {cut}/{}: {got:?}",
                bytes.len()
            );
        }
    }
}

/// No length a peer can claim — in the 4-byte frame header or in the
/// payload-length field of an honest-looking head — sizes an allocation
/// past `MAX_FRAME`: every case below is refused, and the largest request
/// the allocator saw in this whole test binary stays under the cap.
#[test]
fn hostile_length_claims_never_size_an_allocation() {
    for claim in [MAX_FRAME + 1, u32::MAX / 2, u32::MAX] {
        let header = claim.to_le_bytes();
        let refused = FrameReader::new(&header[..]).read_frame();
        assert!(matches!(refused, Err(ProtoError::Oversized(_))), "{claim}");
    }
    // The largest frame a header may claim, nothing behind its head.
    for kind in 0..3 {
        let frame = payload_frame(kind, 0, 0);
        let mut bytes = frame.encode();
        bytes[..4].copy_from_slice(&MAX_FRAME.to_le_bytes());
        let at = payload_len_at(&frame, &bytes);
        // ... whose payload-length field claims 4 GiB, or just too much.
        for claim in [u32::MAX, MAX_FRAME] {
            bytes[at..at + 4].copy_from_slice(&claim.to_le_bytes());
            let mut reader = FrameReader::new(&bytes[..]);
            let refused = reader.read_frame();
            assert!(matches!(refused, Err(ProtoError::Truncated)), "{kind}");
        }
    }
    let largest = LARGEST_ALLOCATION.load(Ordering::Relaxed);
    assert!(largest <= MAX_FRAME as usize, "an allocation of {largest}");
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
    // Revision 3: KEEP, and blob keys that name one attempt's output.
    // Revision 4: POLL/POLL_ACK removed; kinds 4 and 5 stay unassigned.
    assert_eq!(PROTO_VERSION, 4);
    assert_eq!(MAX_FRAME, 16 * 1024 * 1024);
    const { assert!(TEL_MAX_EVENTS >= 1024) };
    // Kind tags are part of the wire contract; renumbering breaks
    // rolling upgrades between daemon and client builds.
    assert_eq!(Frame::Drain.kind(), 10);
    for unassigned in [4u16, 5] {
        let mut bytes = Frame::Drain.encode();
        bytes[4..6].copy_from_slice(&unassigned.to_le_bytes());
        let got = Frame::decode(&bytes);
        assert!(matches!(got, Err(ProtoError::UnknownKind(k)) if k == unassigned));
    }
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
    assert_eq!(
        Frame::Keep {
            task: 0,
            attempt: 0
        }
        .kind(),
        14
    );
}
