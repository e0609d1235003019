//! Property tests of the socket wire codec: message frames must round-trip
//! bit-exactly through arbitrarily chunked reads and writes (a UNIX socket
//! never promises to move a frame in one syscall), through a reader that
//! would block between chunks (the mesh's streams are nonblocking), and
//! with the bytes of a whole [`Frame`] whose body is the elements'
//! encoding; every malformed header must come back as a typed
//! [`XmpiError::Truncated`] — never a panic, never a silent mis-parse. The result codec's bulk path for `f64`
//! and `u64` vectors must write exactly the bytes a per-element encoder
//! writes, and reject a short or impossible length before allocating.

use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::{self, Read, Write};
use xmpi::wire::{
    decode_all, encode_vec, read_frame, write_frame, write_message, Frame, FrameKind, FrameReader,
    Incoming, Step, HEADER_LEN, MAX_BODY_LEN,
};
use xmpi::{Payload, XmpiError};

/// Writer that accepts at most `chunk` bytes per call — forces
/// `write_frame` through partial-write boundaries.
struct ChunkWriter {
    out: Vec<u8>,
    chunk: usize,
}

impl Write for ChunkWriter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = buf.len().min(self.chunk);
        self.out.extend_from_slice(&buf[..n]);
        Ok(n)
    }
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Reader that yields at most `chunk` bytes per call — forces `read_frame`
/// through split-read boundaries (header and body straddling reads). With
/// `blocks`, every other call would block, as a nonblocking socket whose
/// peer has not written the rest yet.
struct ChunkReader<'a> {
    data: &'a [u8],
    pos: usize,
    chunk: usize,
    blocks: bool,
    blocked: bool,
}

impl<'a> ChunkReader<'a> {
    fn new(data: &'a [u8], chunk: usize) -> Self {
        ChunkReader {
            data,
            pos: 0,
            chunk,
            blocks: false,
            blocked: false,
        }
    }
}

impl Read for ChunkReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if self.blocks {
            self.blocked = !self.blocked;
            if self.blocked {
                return Err(io::ErrorKind::WouldBlock.into());
            }
        }
        let n = buf.len().min(self.chunk).min(self.data.len() - self.pos);
        buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

fn chunked_roundtrip(frame: &Frame, write_chunk: usize, read_chunk: usize) -> Frame {
    let mut w = ChunkWriter {
        out: Vec::new(),
        chunk: write_chunk,
    };
    write_frame(&mut w, frame).expect("chunked write");
    let mut r = ChunkReader::new(&w.out, read_chunk);
    let got = read_frame(&mut r)
        .expect("well-formed frame")
        .expect("not EOF");
    assert_eq!(r.pos, w.out.len(), "frame must consume its bytes exactly");
    got
}

/// Write `payload` as a message frame through `write_chunk`-byte writes,
/// and read it back with a [`FrameReader`] from `read_chunk`-byte reads
/// that would block between chunks. The bytes must be those of the whole
/// [`Frame`] whose body is the elements' encoding, and `read_frame` must
/// read them as that frame.
fn message_roundtrip(
    key: (usize, u64, u64),
    delay_ns: u64,
    payload: &Payload,
    write_chunk: usize,
    read_chunk: usize,
) -> Payload {
    let mut w = ChunkWriter {
        out: Vec::new(),
        chunk: write_chunk,
    };
    write_message(&mut w, key.0, key.1, key.2, delay_ns, payload).expect("chunked write");
    let (kind, elements) = match payload {
        Payload::F64(b) => (FrameKind::MsgF64, encode_vec(&b.to_vec())),
        Payload::U64(b) => (FrameKind::MsgU64, encode_vec(&b.to_vec())),
    };
    let whole = Frame {
        kind,
        src: key.0 as u32,
        ctx: key.1,
        tag: key.2,
        delay_ns,
        body: elements[8..].to_vec(),
    };
    let mut bytes = Vec::new();
    write_frame(&mut bytes, &whole).expect("vec write");
    assert_eq!(
        w.out, bytes,
        "a message frame's bytes are its whole frame's"
    );
    assert_eq!(chunked_roundtrip(&whole, write_chunk, read_chunk), whole);

    let mut r = ChunkReader::new(&w.out, read_chunk);
    r.blocks = true;
    let mut reader = FrameReader::default();
    let got = loop {
        match reader.read_from(&mut r).expect("well-formed frame") {
            Step::Pending => continue,
            Step::Frame(Incoming::Message {
                key: k,
                delay_ns: d,
                payload,
            }) => {
                assert_eq!((k, d), (key, delay_ns));
                break payload;
            }
            other => panic!("expected a message, got {other:?}"),
        }
    };
    assert_eq!(r.pos, w.out.len(), "frame must consume its bytes exactly");
    got
}

/// Every way a [`FrameReader`] can end on `bytes`, read whole: the first
/// thing that is not a frame.
fn read_past_frames(bytes: &[u8]) -> Result<Step, XmpiError> {
    let mut r = bytes;
    let mut reader = FrameReader::default();
    loop {
        match reader.read_from(&mut r) {
            Ok(Step::Frame(_)) => {}
            end => return end,
        }
    }
}

/// Deterministic f64 bit patterns (includes NaNs, infinities, subnormals —
/// whatever the splitmix stream lands on) so round-trips are checked on the
/// raw bit level, not through float equality.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The encoding of a `Vec` of 8-byte words, one element at a time: the
/// length as a little-endian `u64`, then each element's little-endian bits.
fn per_element<T>(items: &[T], bits: impl Fn(&T) -> u64) -> Vec<u8> {
    let mut out = (items.len() as u64).to_le_bytes().to_vec();
    for x in items {
        out.extend_from_slice(&bits(x).to_le_bytes());
    }
    out
}

/// Counts this thread's bytes allocated, so a test can show a decode
/// allocated nothing for an impossible length.
struct CountingAlloc;

thread_local! {
    static ALLOCATED: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: every call forwards to the system allocator unchanged; the
// counter is a const-initialised thread-local that itself never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATED.try_with(|a| a.set(a.get() + layout.size()));
        // SAFETY: the caller's contract is passed on as is.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's contract is passed on as is.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Bytes this thread allocates while running `f`.
fn allocated_by<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCATED.with(Cell::get);
    let out = f();
    (out, ALLOCATED.with(Cell::get) - before)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn f64_frames_roundtrip_through_chunked_io(
        len in 0usize..600,
        seed in 0u64..10_000,
        write_chunk in 1usize..97,
        read_chunk in 1usize..97,
        ctx in 0u64..1_000_000,
        tag in 0u64..1_000_000,
        delay_ns in 0u64..1_000_000_000,
    ) {
        let vals: Vec<f64> = (0..len as u64).map(|i| f64::from_bits(mix(seed ^ i))).collect();
        let bits: Vec<u64> = vals.iter().map(|x| x.to_bits()).collect();
        let g = message_roundtrip((7, ctx, tag), delay_ns, &Payload::from(vals), write_chunk, read_chunk);
        let Payload::F64(buf) = g else {
            panic!("wrong payload kind");
        };
        let got_bits: Vec<u64> = buf.iter().map(|x| x.to_bits()).collect();
        prop_assert_eq!(got_bits, bits);
    }

    #[test]
    fn u64_frames_roundtrip_through_chunked_io(
        len in 0usize..600,
        seed in 0u64..10_000,
        write_chunk in 1usize..97,
        read_chunk in 1usize..97,
    ) {
        let vals: Vec<u64> = (0..len as u64).map(|i| mix(seed ^ i)).collect();
        let expect = vals.clone();
        let g = message_roundtrip((3, 11, 22), 0, &Payload::from(vals), write_chunk, read_chunk);
        let Payload::U64(buf) = g else {
            panic!("wrong payload kind");
        };
        prop_assert_eq!(buf.to_vec(), expect);
    }

    #[test]
    fn bulk_vec_codec_matches_the_per_element_encoding(
        len in 0usize..600,
        seed in 0u64..10_000,
    ) {
        // Every fourth value is a quiet or signalling NaN with a payload, or
        // a signed zero; the rest are whatever bit pattern the stream gives.
        let special = |i: u64| match mix(seed ^ i) % 8 {
            0 => f64::from_bits(0x7ff0_0000_0000_0001 | (mix(i) & 0x000f_ffff_ffff_fff0)),
            1 => -0.0,
            _ => f64::from_bits(mix(seed ^ i ^ 0x55)),
        };
        let floats: Vec<f64> = (0..len as u64).map(special).collect();
        let bytes = encode_vec(&floats);
        prop_assert_eq!(&bytes, &per_element(&floats, |x: &f64| x.to_bits()));
        let back: Vec<f64> = decode_all(&bytes).expect("decodes");
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(&back), bits(&floats));

        let words: Vec<u64> = (0..len as u64).map(|i| mix(seed ^ i)).collect();
        let bytes = encode_vec(&words);
        prop_assert_eq!(&bytes, &per_element(&words, |&x: &u64| x));
        prop_assert_eq!(decode_all::<Vec<u64>>(&bytes).expect("decodes"), words);
    }

    #[test]
    fn truncated_streams_are_typed_errors(
        len in 0usize..40,
        cut_pick in 1usize..4096,
    ) {
        // A stream that ends mid-frame — at any byte of the header or the
        // body — must surface as `XmpiError::Truncated`, not hang or panic.
        let vals: Vec<f64> = (0..len).map(|i| i as f64).collect();
        let mut bytes = Vec::new();
        write_message(&mut bytes, 1, 2, 3, 0, &Payload::from(vals)).expect("vec write");
        let cut = 1 + cut_pick % (bytes.len() - 1);
        let mut r = ChunkReader::new(&bytes[..cut], 13);
        prop_assert!(matches!(read_frame(&mut r), Err(XmpiError::Truncated { .. })));
        prop_assert!(matches!(read_past_frames(&bytes[..cut]), Err(XmpiError::Truncated { .. })));
    }

    #[test]
    fn corrupt_headers_are_rejected(
        magic_byte in 0usize..4,
        flip in 1u8..=255,
        bad_kind_pick in 0u8..250,
    ) {
        let mut bytes = Vec::new();
        write_message(&mut bytes, 0, 0, 0, 0, &Payload::from(vec![1.0, 2.0])).expect("vec write");

        // Any corrupted magic byte.
        let mut corrupt = bytes.clone();
        corrupt[magic_byte] ^= flip;
        let mut r: &[u8] = &corrupt;
        prop_assert!(matches!(read_frame(&mut r), Err(XmpiError::Truncated { .. })));
        prop_assert!(matches!(read_past_frames(&corrupt), Err(XmpiError::Truncated { .. })));

        // Any kind byte outside the protocol (1..=7 are kinds, 5 retired).
        let bad_kind = if bad_kind_pick < 8 { 0 } else { bad_kind_pick };
        let mut corrupt = bytes.clone();
        corrupt[4] = bad_kind;
        let mut r: &[u8] = &corrupt;
        prop_assert!(matches!(read_frame(&mut r), Err(XmpiError::Truncated { .. })));
        prop_assert!(matches!(read_past_frames(&corrupt), Err(XmpiError::Truncated { .. })));
    }
}

#[test]
fn empty_payload_frames_roundtrip() {
    for payload in [
        Payload::from(Vec::<f64>::new()),
        Payload::from(Vec::<u64>::new()),
    ] {
        let g = message_roundtrip((0, 5, 6), 0, &payload, 1, 1);
        assert_eq!(g.bytes(), 0);
    }
}

#[test]
fn huge_payload_frames_roundtrip() {
    // A panel-sized payload (4 MiB) through deliberately misaligned chunks.
    let n = 1 << 19;
    let vals: Vec<f64> = (0..n).map(|i| i as f64 * 0.5).collect();
    let g = message_roundtrip((2, 9, 9), 0, &Payload::from(vals), 4093, 8191);
    let Payload::F64(buf) = g else {
        panic!("wrong payload kind");
    };
    assert_eq!(buf.len(), n);
    assert_eq!(buf[n - 1], (n - 1) as f64 * 0.5);
}

#[test]
fn oversized_length_is_rejected_before_allocating() {
    let mut bytes = Vec::new();
    write_frame(&mut bytes, &Frame::control(FrameKind::Fin, 0)).expect("vec write");
    // Patch the length field to an absurd value; the reader must reject the
    // header instead of trying to allocate the body.
    bytes[33..41].copy_from_slice(&(MAX_BODY_LEN + 1).to_le_bytes());
    let mut r: &[u8] = &bytes;
    assert!(matches!(
        read_frame(&mut r),
        Err(XmpiError::Truncated { .. })
    ));
    assert!(matches!(
        read_past_frames(&bytes),
        Err(XmpiError::Truncated { .. })
    ));
}

#[test]
fn retired_kind_5_is_malformed() {
    // Kind 5 is not a kind any more: the mesh sends no handshake.
    let mut bytes = Vec::new();
    write_frame(&mut bytes, &Frame::control(FrameKind::Fin, 0)).expect("vec write");
    bytes[4] = 5;
    let mut r: &[u8] = &bytes;
    assert!(matches!(
        read_frame(&mut r),
        Err(XmpiError::Truncated { .. })
    ));
}

#[test]
fn ragged_message_length_is_rejected() {
    // Message bodies are 8-byte elements; a length of 12 is corruption.
    let mut bytes = Vec::new();
    let mut f = Frame::control(FrameKind::MsgF64, 1);
    f.body = vec![0u8; 16];
    write_frame(&mut bytes, &f).expect("vec write");
    bytes[33..41].copy_from_slice(&12u64.to_le_bytes());
    let mut r: &[u8] = &bytes;
    assert!(matches!(
        read_frame(&mut r),
        Err(XmpiError::Truncated { .. })
    ));
    assert!(matches!(
        read_past_frames(&bytes),
        Err(XmpiError::Truncated { .. })
    ));
}

#[test]
fn truncated_bulk_vectors_are_typed_errors() {
    let bytes = encode_vec(&vec![1.5f64, -0.0, f64::NAN]);
    for cut in [0, 7, 8, 9, 16, bytes.len() - 1] {
        assert!(
            matches!(
                decode_all::<Vec<f64>>(&bytes[..cut]),
                Err(XmpiError::Truncated { .. })
            ),
            "f64 cut at {cut}"
        );
        assert!(
            matches!(
                decode_all::<Vec<u64>>(&bytes[..cut]),
                Err(XmpiError::Truncated { .. })
            ),
            "u64 cut at {cut}"
        );
    }
}

#[test]
fn overflowing_bulk_lengths_fail_before_allocating() {
    // Counts whose byte size overflows `usize` (2^61 · 8 = 2^64) and one
    // that fits but is absurd (2^60 · 8 = 2^63): each must be `Truncated`
    // off the length check alone, allocating nothing.
    for count in [u64::MAX, 1 << 61, (1 << 61) + 1, 1 << 60] {
        let mut bytes = count.to_le_bytes().to_vec();
        bytes.extend_from_slice(&[0u8; 24]);
        let (f, spent_f) = allocated_by(|| decode_all::<Vec<f64>>(&bytes));
        let (u, spent_u) = allocated_by(|| decode_all::<Vec<u64>>(&bytes));
        assert!(matches!(f, Err(XmpiError::Truncated { .. })), "{count}");
        assert!(matches!(u, Err(XmpiError::Truncated { .. })), "{count}");
        assert_eq!((spent_f, spent_u), (0, 0), "count {count} allocated");
    }
}

#[test]
fn header_len_matches_layout() {
    // The fixed header is magic + kind + src + ctx + tag + delay + len.
    assert_eq!(HEADER_LEN, 41);
}

#[test]
fn decoded_payload_reclaims_without_copy() {
    // The socket receive path: a frame arrives, the frame reader reads its
    // body into the payload's buffer, the consumer calls `into_vec`. The
    // `Buf` must be unique (refcount 1) so the reclaim is allocation
    // hand-back, not a copy — the same zero-copy completion the in-process
    // transport gives a sole consumer.
    let Payload::F64(buf) =
        message_roundtrip((0, 1, 2), 0, &Payload::from(vec![2.5f64; 512]), 97, 89)
    else {
        panic!("wrong payload kind");
    };
    let ptr = buf.as_ptr();
    let owned = buf.into_vec();
    assert_eq!(
        owned.as_ptr(),
        ptr,
        "decoded Buf must be unique so into_vec reclaims the allocation"
    );

    let Payload::U64(buf) =
        message_roundtrip((0, 1, 2), 0, &Payload::from(vec![7u64; 512]), 97, 89)
    else {
        panic!("wrong payload kind");
    };
    let ptr = buf.as_ptr();
    let owned = buf.into_vec();
    assert_eq!(owned.as_ptr(), ptr);
}

#[test]
fn ping_frames_roundtrip() {
    let f = Frame::control(FrameKind::Ping, 5);
    let g = chunked_roundtrip(&f, 7, 3);
    assert_eq!(g.kind, FrameKind::Ping);
    assert_eq!(g.src, 5);
    assert!(g.body.is_empty());
    // The frame reader hands a control frame over whole.
    let mut bytes = Vec::new();
    write_frame(&mut bytes, &f).expect("vec write");
    let mut r: &[u8] = &bytes;
    let Ok(Step::Frame(Incoming::Control(g))) = FrameReader::default().read_from(&mut r) else {
        panic!("a control frame");
    };
    assert_eq!(g, f);
    assert!(matches!(read_past_frames(&bytes), Ok(Step::Eof)));
}

#[test]
fn mid_header_and_mid_body_eofs_are_typed_and_lossless() {
    // The two reset shapes the chaos layer injects: a stream cut inside the
    // fixed header, and one cut inside an f64 body. Both must come back as
    // `XmpiError::Truncated` (mapped to a dead peer by the socket reader),
    // and a complete frame *preceding* the cut must still decode — the torn
    // frame's bytes are dropped, never double-counted into an earlier or
    // later payload.
    let mut bytes = Vec::new();
    write_message(&mut bytes, 1, 0, 9, 0, &Payload::from(vec![4.0f64, 5.0])).expect("vec write");
    let whole_len = bytes.len();
    write_message(
        &mut bytes,
        1,
        0,
        9,
        0,
        &Payload::from(vec![6.0f64, 7.0, 8.0]),
    )
    .expect("vec write");

    for cut in [whole_len + 11, whole_len + HEADER_LEN + 13] {
        let mut r: &[u8] = &bytes[..cut];
        let mut reader = FrameReader::default();
        let Ok(Step::Frame(Incoming::Message {
            payload: Payload::F64(b),
            ..
        })) = reader.read_from(&mut r)
        else {
            panic!("first frame intact");
        };
        assert_eq!(&b[..], &[4.0, 5.0], "preceding frame survives the cut");
        assert!(
            matches!(reader.read_from(&mut r), Err(XmpiError::Truncated { .. })),
            "cut at byte {cut} must be a typed mid-frame EOF"
        );
    }
}
