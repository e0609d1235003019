//! Length-prefixed wire codec for the socket transport.
//!
//! Two layers live here:
//!
//! * **Frames** — the unit of the rank×rank socket mesh. A [`Frame`] is a
//!   fixed 41-byte little-endian header (magic, kind, source rank, context,
//!   tag, injected delay, body length) followed by `len` body bytes.
//!   Message frames carry a [`Payload`]'s raw elements; control frames
//!   (`Fin`, `Crash`, `Ping`, `Result`) carry the mesh and launcher
//!   protocol. Kind 5 is retired and decodes as malformed. Anything malformed — wrong magic, unknown kind, impossible
//!   length, short read — decodes to the typed [`XmpiError::Truncated`]
//!   instead of a panic, so a corrupted stream degrades into the same error
//!   path as a truncated message.
//! * **[`Wire`]** — a minimal structural serializer for rank *results*.
//!   The multi-process launcher ships each child's return value and its
//!   [`crate::RankStats`] back to the parent over the control socket; any
//!   `R` a socket-backed world returns must implement [`Wire`]. `f64`
//!   travels as raw IEEE bits, so values round-trip bit-exactly — the
//!   property the cross-backend conformance suite asserts.

use crate::buf::Buf;
use crate::comm::Payload;
use crate::error::XmpiError;
use crate::stats::{CollCounts, CollKind, RankStats};
use std::collections::HashMap;
use std::hash::Hash;
use std::io::{self, Read, Write};

/// Frame magic: `"XMPI"` as a little-endian u32.
const MAGIC: u32 = 0x4950_4D58;

/// Upper bound on a frame body (1 GiB). A length field above this is a
/// corrupt header, not a huge message — reject before allocating.
pub const MAX_BODY_LEN: u64 = 1 << 30;

/// Size of the fixed frame header in bytes.
pub const HEADER_LEN: usize = 4 + 1 + 4 + 8 + 8 + 8 + 8;

/// What a frame carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum FrameKind {
    /// A [`Payload::F64`] message body (raw little-endian IEEE bits).
    MsgF64 = 1,
    /// A [`Payload::U64`] message body.
    MsgU64 = 2,
    /// Orderly end-of-stream: the sender's rank program finished.
    Fin = 3,
    /// The sender suffered an injected crash; treat it as dead.
    Crash = 4,
    /// A child's shipped outcome on the control socket ([`Wire`]-encoded
    /// body).
    Result = 6,
    /// Heartbeat: "the sender's process is alive and transmitting". Sent
    /// periodically by each rank's mesh monitor thread; a peer that goes
    /// quiet for longer than the suspicion timeout is declared dead (the
    /// failure detector for *hung* — silent but alive — ranks). Pings are
    /// transport-internal: never delivered to a mailbox, never counted as
    /// traffic.
    Ping = 7,
}

impl FrameKind {
    fn from_u8(b: u8) -> Option<FrameKind> {
        match b {
            1 => Some(FrameKind::MsgF64),
            2 => Some(FrameKind::MsgU64),
            3 => Some(FrameKind::Fin),
            4 => Some(FrameKind::Crash),
            6 => Some(FrameKind::Result),
            7 => Some(FrameKind::Ping),
            _ => None,
        }
    }
}

/// One decoded frame of the socket protocol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// What the frame carries.
    pub kind: FrameKind,
    /// Sender's world rank.
    pub src: u32,
    /// Communicator context id (message frames; 0 otherwise).
    pub ctx: u64,
    /// Message tag (message frames; 0 otherwise).
    pub tag: u64,
    /// Injected in-flight visibility delay in nanoseconds (hooks); the
    /// receiver re-bases it on its own clock at arrival.
    pub delay_ns: u64,
    /// Body bytes (`len` on the wire).
    pub body: Vec<u8>,
}

impl Frame {
    /// A body-less control frame.
    pub fn control(kind: FrameKind, src: usize) -> Frame {
        Frame {
            kind,
            src: src as u32,
            ctx: 0,
            tag: 0,
            delay_ns: 0,
            body: Vec::new(),
        }
    }
}

fn truncated(expected: usize, got: usize, src: usize, tag: u64) -> XmpiError {
    XmpiError::Truncated {
        expected,
        got,
        src,
        tag,
    }
}

/// Serialize `frame` onto `w` (header + body, little-endian). The caller
/// flushes; a frame is only "sent" once the stream is flushed.
///
/// # Errors
/// Propagates the underlying I/O error.
pub fn write_frame(w: &mut impl Write, frame: &Frame) -> io::Result<()> {
    let mut header = [0u8; HEADER_LEN];
    header[0..4].copy_from_slice(&MAGIC.to_le_bytes());
    header[4] = frame.kind as u8;
    header[5..9].copy_from_slice(&frame.src.to_le_bytes());
    header[9..17].copy_from_slice(&frame.ctx.to_le_bytes());
    header[17..25].copy_from_slice(&frame.tag.to_le_bytes());
    header[25..33].copy_from_slice(&frame.delay_ns.to_le_bytes());
    header[33..41].copy_from_slice(&(frame.body.len() as u64).to_le_bytes());
    w.write_all(&header)?;
    w.write_all(&frame.body)
}

/// Fill `buf` from `r`, tolerating a clean EOF *before the first byte*:
/// returns `Ok(false)` for immediate EOF, `Ok(true)` for a full read, and
/// `Err` with the byte count read so far for an EOF mid-buffer.
fn read_full(r: &mut impl Read, buf: &mut [u8]) -> Result<bool, usize> {
    let mut got = 0;
    while got < buf.len() {
        match r.read(&mut buf[got..]) {
            Ok(0) => {
                if got == 0 {
                    return Ok(false);
                }
                return Err(got);
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return Err(got),
        }
    }
    Ok(true)
}

/// Read one frame from `r`.
///
/// `Ok(None)` is a clean end-of-stream *at a frame boundary* (the peer
/// closed after its last complete frame). A stream that ends mid-frame, a
/// wrong magic, an unknown kind, an oversized or (for message frames)
/// non-multiple-of-8 length all come back as [`XmpiError::Truncated`].
///
/// # Errors
/// [`XmpiError::Truncated`] on any malformed or short frame.
pub fn read_frame(r: &mut impl Read) -> Result<Option<Frame>, XmpiError> {
    read_frame_into(r, Vec::new())
}

/// [`read_frame`] into `body`'s allocation when it is large enough: a
/// reader of many frames hands each decoded body back for the next.
pub(crate) fn read_frame_into(
    r: &mut impl Read,
    mut body: Vec<u8>,
) -> Result<Option<Frame>, XmpiError> {
    let mut header = [0u8; HEADER_LEN];
    match read_full(r, &mut header) {
        Ok(false) => return Ok(None),
        Ok(true) => {}
        Err(got) => return Err(truncated(HEADER_LEN, got, 0, 0)),
    }
    let fixed = |range: std::ops::Range<usize>| -> [u8; 8] {
        let mut out = [0u8; 8];
        out.copy_from_slice(&header[range]);
        out
    };
    let magic = u32::from_le_bytes([header[0], header[1], header[2], header[3]]);
    if magic != MAGIC {
        return Err(truncated(MAGIC as usize, magic as usize, 0, 0));
    }
    let Some(kind) = FrameKind::from_u8(header[4]) else {
        return Err(truncated(
            FrameKind::MsgF64 as usize,
            header[4] as usize,
            0,
            0,
        ));
    };
    let src = u32::from_le_bytes([header[5], header[6], header[7], header[8]]);
    let ctx = u64::from_le_bytes(fixed(9..17));
    let tag = u64::from_le_bytes(fixed(17..25));
    let delay_ns = u64::from_le_bytes(fixed(25..33));
    let len = u64::from_le_bytes(fixed(33..41));
    if len > MAX_BODY_LEN {
        return Err(truncated(
            MAX_BODY_LEN as usize,
            len as usize,
            src as usize,
            tag,
        ));
    }
    if matches!(kind, FrameKind::MsgF64 | FrameKind::MsgU64) && len % 8 != 0 {
        return Err(truncated(8, (len % 8) as usize, src as usize, tag));
    }
    if body.capacity() < len as usize {
        body = vec![0u8; len as usize];
    } else {
        body.clear();
        body.resize(len as usize, 0);
    }
    match read_full(r, &mut body) {
        Ok(_) if len == 0 => {}
        Ok(true) => {}
        Ok(false) | Err(_) => {
            return Err(truncated(len as usize, 0, src as usize, tag));
        }
    }
    Ok(Some(Frame {
        kind,
        src,
        ctx,
        tag,
        delay_ns,
        body,
    }))
}

/// Encode a payload as a message frame for channel `(src, ctx, tag)`.
pub fn payload_frame(src: usize, ctx: u64, tag: u64, delay_ns: u64, payload: &Payload) -> Frame {
    let (kind, body) = match payload {
        Payload::F64(b) => {
            let mut body = Vec::with_capacity(8 * b.len());
            for x in b.iter() {
                body.extend_from_slice(&x.to_le_bytes());
            }
            (FrameKind::MsgF64, body)
        }
        Payload::U64(b) => {
            let mut body = Vec::with_capacity(8 * b.len());
            for x in b.iter() {
                body.extend_from_slice(&x.to_le_bytes());
            }
            (FrameKind::MsgU64, body)
        }
    };
    Frame {
        kind,
        src: src as u32,
        ctx,
        tag,
        delay_ns,
        body,
    }
}

/// Decode a message frame's body back into a [`Payload`].
///
/// The reconstructed payload owns a **unique** [`Buf`] (refcount 1), so the
/// receiver's [`Buf::into_vec`] reclaims the allocation without a copy —
/// the same zero-copy hand-off the in-process transport gives a sole
/// consumer.
///
/// # Errors
/// [`XmpiError::Truncated`] if the frame is not a message frame or its body
/// is not a whole number of 8-byte elements.
pub fn frame_payload(frame: &Frame) -> Result<Payload, XmpiError> {
    let src = frame.src as usize;
    if !frame.body.len().is_multiple_of(8) {
        return Err(truncated(8, frame.body.len() % 8, src, frame.tag));
    }
    match frame.kind {
        FrameKind::MsgF64 => {
            let v: Vec<f64> = frame
                .body
                .chunks_exact(8)
                .map(|c| {
                    let mut b = [0u8; 8];
                    b.copy_from_slice(c);
                    f64::from_le_bytes(b)
                })
                .collect();
            Ok(Payload::F64(Buf::from(v)))
        }
        FrameKind::MsgU64 => {
            let v: Vec<u64> = frame
                .body
                .chunks_exact(8)
                .map(|c| {
                    let mut b = [0u8; 8];
                    b.copy_from_slice(c);
                    u64::from_le_bytes(b)
                })
                .collect();
            Ok(Payload::U64(Buf::from(v)))
        }
        _ => Err(truncated(
            FrameKind::MsgF64 as usize,
            frame.kind as usize,
            src,
            frame.tag,
        )),
    }
}

// ---------------------------------------------------------------------------
// Wire: structural result serialization
// ---------------------------------------------------------------------------

/// Structural little-endian serialization for values shipped between the
/// rank processes and the launcher (rank results, statistics, errors).
///
/// Implementations must round-trip exactly: `decode(encode(x)) == x`, with
/// `f64` preserved bit-for-bit. Decoding untrusted or truncated bytes must
/// fail with [`XmpiError::Truncated`], never panic.
pub trait Wire: Sized {
    /// Append this value's encoding to `out`.
    fn encode(&self, out: &mut Vec<u8>);

    /// Decode a value from the front of `input`, advancing it past the
    /// consumed bytes.
    ///
    /// # Errors
    /// [`XmpiError::Truncated`] if `input` is exhausted or malformed.
    fn decode(input: &mut &[u8]) -> Result<Self, XmpiError>;

    /// Append the encodings of `items` back to back — the bytes encoding
    /// each in turn appends. Fixed-width types override it with one bulk
    /// copy.
    fn encode_slice(items: &[Self], out: &mut Vec<u8>) {
        for x in items {
            x.encode(out);
        }
    }

    /// Decode `n` values encoded back to back, the inverse of
    /// [`Wire::encode_slice`].
    ///
    /// # Errors
    /// [`XmpiError::Truncated`] if `input` is exhausted or malformed.
    fn decode_n(input: &mut &[u8], n: usize) -> Result<Vec<Self>, XmpiError> {
        // Guard the pre-allocation: a corrupt count must not OOM before the
        // element decodes fail.
        let mut v = Vec::with_capacity(n.min(1 << 16));
        for _ in 0..n {
            v.push(Self::decode(input)?);
        }
        Ok(v)
    }
}

/// [`Wire::encode_slice`] of an 8-byte type: little-endian words written in
/// place, which compiles to a straight copy.
fn encode_words<T: Copy>(items: &[T], out: &mut Vec<u8>, le: impl Fn(T) -> [u8; 8]) {
    let at = out.len();
    out.resize(at + 8 * items.len(), 0);
    for (dst, &x) in out[at..].chunks_exact_mut(8).zip(items) {
        dst.copy_from_slice(&le(x));
    }
}

/// [`Wire::decode_n`] of an 8-byte type. The byte count is checked — its
/// overflow included — before anything is allocated.
fn decode_words<T>(
    input: &mut &[u8],
    n: usize,
    from_le: impl Fn([u8; 8]) -> T,
) -> Result<Vec<T>, XmpiError> {
    let len = n
        .checked_mul(8)
        .ok_or_else(|| truncated(usize::MAX, input.len(), 0, 0))?;
    let bytes = take(input, len)?;
    Ok(bytes
        .chunks_exact(8)
        .map(|c| {
            let mut b = [0u8; 8];
            b.copy_from_slice(c);
            from_le(b)
        })
        .collect())
}

/// Encode a value into a fresh byte vector.
pub fn encode_vec<T: Wire>(value: &T) -> Vec<u8> {
    let mut out = Vec::new();
    value.encode(&mut out);
    out
}

/// Decode a value that must consume the *entire* input.
///
/// # Errors
/// [`XmpiError::Truncated`] on malformed input or trailing bytes.
pub fn decode_all<T: Wire>(mut input: &[u8]) -> Result<T, XmpiError> {
    let v = T::decode(&mut input)?;
    if input.is_empty() {
        Ok(v)
    } else {
        Err(truncated(0, input.len(), 0, 0))
    }
}

fn take<'a>(input: &mut &'a [u8], n: usize) -> Result<&'a [u8], XmpiError> {
    if input.len() < n {
        return Err(truncated(n, input.len(), 0, 0));
    }
    let (head, rest) = input.split_at(n);
    *input = rest;
    Ok(head)
}

fn take8(input: &mut &[u8]) -> Result<[u8; 8], XmpiError> {
    let head = take(input, 8)?;
    let mut b = [0u8; 8];
    b.copy_from_slice(head);
    Ok(b)
}

impl Wire for u64 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
    fn decode(input: &mut &[u8]) -> Result<Self, XmpiError> {
        Ok(u64::from_le_bytes(take8(input)?))
    }
    fn encode_slice(items: &[Self], out: &mut Vec<u8>) {
        encode_words(items, out, u64::to_le_bytes);
    }
    fn decode_n(input: &mut &[u8], n: usize) -> Result<Vec<Self>, XmpiError> {
        decode_words(input, n, u64::from_le_bytes)
    }
}

impl Wire for u32 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
    fn decode(input: &mut &[u8]) -> Result<Self, XmpiError> {
        let head = take(input, 4)?;
        let mut b = [0u8; 4];
        b.copy_from_slice(head);
        Ok(u32::from_le_bytes(b))
    }
}

impl Wire for usize {
    fn encode(&self, out: &mut Vec<u8>) {
        (*self as u64).encode(out);
    }
    fn decode(input: &mut &[u8]) -> Result<Self, XmpiError> {
        Ok(u64::decode(input)? as usize)
    }
}

impl Wire for u8 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(*self);
    }
    fn decode(input: &mut &[u8]) -> Result<Self, XmpiError> {
        Ok(take(input, 1)?[0])
    }
}

impl Wire for bool {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
    fn decode(input: &mut &[u8]) -> Result<Self, XmpiError> {
        Ok(u8::decode(input)? != 0)
    }
}

impl Wire for f64 {
    /// Raw IEEE bits — bit-exact across the wire, including NaN payloads
    /// and signed zeros.
    fn encode(&self, out: &mut Vec<u8>) {
        self.to_bits().encode(out);
    }
    fn decode(input: &mut &[u8]) -> Result<Self, XmpiError> {
        Ok(f64::from_bits(u64::decode(input)?))
    }
    fn encode_slice(items: &[Self], out: &mut Vec<u8>) {
        encode_words(items, out, f64::to_le_bytes);
    }
    fn decode_n(input: &mut &[u8], n: usize) -> Result<Vec<Self>, XmpiError> {
        decode_words(input, n, f64::from_le_bytes)
    }
}

impl Wire for () {
    fn encode(&self, _out: &mut Vec<u8>) {}
    fn decode(_input: &mut &[u8]) -> Result<Self, XmpiError> {
        Ok(())
    }
}

impl Wire for String {
    fn encode(&self, out: &mut Vec<u8>) {
        self.len().encode(out);
        out.extend_from_slice(self.as_bytes());
    }
    fn decode(input: &mut &[u8]) -> Result<Self, XmpiError> {
        let n = usize::decode(input)?;
        let bytes = take(input, n)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|e| truncated(n, e.utf8_error().valid_up_to(), 0, 0))
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.len().encode(out);
        T::encode_slice(self, out);
    }
    fn decode(input: &mut &[u8]) -> Result<Self, XmpiError> {
        let n = usize::decode(input)?;
        T::decode_n(input, n)
    }
}

impl<T: Wire> Wire for Option<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(x) => {
                out.push(1);
                x.encode(out);
            }
        }
    }
    fn decode(input: &mut &[u8]) -> Result<Self, XmpiError> {
        match u8::decode(input)? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(input)?)),
            b => Err(truncated(1, b as usize, 0, 0)),
        }
    }
}

impl<T: Wire, E: Wire> Wire for Result<T, E> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Ok(x) => {
                out.push(0);
                x.encode(out);
            }
            Err(e) => {
                out.push(1);
                e.encode(out);
            }
        }
    }
    fn decode(input: &mut &[u8]) -> Result<Self, XmpiError> {
        match u8::decode(input)? {
            0 => Ok(Ok(T::decode(input)?)),
            1 => Ok(Err(E::decode(input)?)),
            b => Err(truncated(1, b as usize, 0, 0)),
        }
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
        self.1.encode(out);
    }
    fn decode(input: &mut &[u8]) -> Result<Self, XmpiError> {
        Ok((A::decode(input)?, B::decode(input)?))
    }
}

impl<A: Wire, B: Wire, C: Wire> Wire for (A, B, C) {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
        self.1.encode(out);
        self.2.encode(out);
    }
    fn decode(input: &mut &[u8]) -> Result<Self, XmpiError> {
        Ok((A::decode(input)?, B::decode(input)?, C::decode(input)?))
    }
}

impl<K: Wire + Eq + Hash, V: Wire> Wire for HashMap<K, V> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.len().encode(out);
        for (k, v) in self {
            k.encode(out);
            v.encode(out);
        }
    }
    fn decode(input: &mut &[u8]) -> Result<Self, XmpiError> {
        let n = usize::decode(input)?;
        let mut m = HashMap::with_capacity(n.min(1 << 16));
        for _ in 0..n {
            let k = K::decode(input)?;
            let v = V::decode(input)?;
            m.insert(k, v);
        }
        Ok(m)
    }
}

impl Wire for XmpiError {
    fn encode(&self, out: &mut Vec<u8>) {
        match *self {
            XmpiError::RankDead { rank } => {
                out.push(0);
                rank.encode(out);
            }
            XmpiError::Timeout { src, tag, pending } => {
                out.push(1);
                src.encode(out);
                tag.encode(out);
                pending.encode(out);
            }
            XmpiError::Truncated {
                expected,
                got,
                src,
                tag,
            } => {
                out.push(2);
                expected.encode(out);
                got.encode(out);
                src.encode(out);
                tag.encode(out);
            }
            XmpiError::WorldPoisoned => out.push(3),
            XmpiError::LaunchFailed { rank } => {
                out.push(4);
                rank.encode(out);
            }
        }
    }
    fn decode(input: &mut &[u8]) -> Result<Self, XmpiError> {
        match u8::decode(input)? {
            0 => Ok(XmpiError::RankDead {
                rank: usize::decode(input)?,
            }),
            1 => Ok(XmpiError::Timeout {
                src: usize::decode(input)?,
                tag: u64::decode(input)?,
                pending: usize::decode(input)?,
            }),
            2 => Ok(XmpiError::Truncated {
                expected: usize::decode(input)?,
                got: usize::decode(input)?,
                src: usize::decode(input)?,
                tag: u64::decode(input)?,
            }),
            3 => Ok(XmpiError::WorldPoisoned),
            4 => Ok(XmpiError::LaunchFailed {
                rank: usize::decode(input)?,
            }),
            b => Err(truncated(4, b as usize, 0, 0)),
        }
    }
}

impl Wire for CollKind {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(self.index() as u8);
    }
    fn decode(input: &mut &[u8]) -> Result<Self, XmpiError> {
        let i = u8::decode(input)? as usize;
        if i < CollKind::COUNT {
            Ok(CollKind::from_index(i))
        } else {
            Err(truncated(CollKind::COUNT, i, 0, 0))
        }
    }
}

impl Wire for CollCounts {
    fn encode(&self, out: &mut Vec<u8>) {
        self.bytes_sent.encode(out);
        self.bytes_recv.encode(out);
        self.msgs_sent.encode(out);
        self.msgs_recv.encode(out);
    }
    fn decode(input: &mut &[u8]) -> Result<Self, XmpiError> {
        Ok(CollCounts {
            bytes_sent: u64::decode(input)?,
            bytes_recv: u64::decode(input)?,
            msgs_sent: u64::decode(input)?,
            msgs_recv: u64::decode(input)?,
        })
    }
}

impl Wire for RankStats {
    fn encode(&self, out: &mut Vec<u8>) {
        self.bytes_sent.encode(out);
        self.bytes_recv.encode(out);
        self.msgs_sent.encode(out);
        self.msgs_recv.encode(out);
        // Deterministic order keeps the ctl stream reproducible (the map
        // itself reconstructs identically either way).
        let mut phases: Vec<(&String, &(u64, u64))> = self.per_phase.iter().collect();
        phases.sort();
        phases.len().encode(out);
        for (name, (s, r)) in phases {
            name.encode(out);
            s.encode(out);
            r.encode(out);
        }
        self.per_coll.len().encode(out);
        for (k, c) in &self.per_coll {
            k.encode(out);
            c.encode(out);
        }
    }
    fn decode(input: &mut &[u8]) -> Result<Self, XmpiError> {
        let bytes_sent = u64::decode(input)?;
        let bytes_recv = u64::decode(input)?;
        let msgs_sent = u64::decode(input)?;
        let msgs_recv = u64::decode(input)?;
        let np = usize::decode(input)?;
        let mut per_phase = HashMap::with_capacity(np.min(1 << 12));
        for _ in 0..np {
            let name = String::decode(input)?;
            let s = u64::decode(input)?;
            let r = u64::decode(input)?;
            per_phase.insert(name, (s, r));
        }
        let nc = usize::decode(input)?;
        let mut per_coll = Vec::with_capacity(nc.min(CollKind::COUNT));
        for _ in 0..nc {
            per_coll.push(<(CollKind, CollCounts)>::decode(input)?);
        }
        Ok(RankStats {
            bytes_sent,
            bytes_recv,
            msgs_sent,
            msgs_recv,
            per_phase,
            per_coll,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_frame(f: &Frame) -> Frame {
        let mut bytes = Vec::new();
        write_frame(&mut bytes, f).expect("vec write");
        let mut cursor = &bytes[..];
        let got = read_frame(&mut cursor)
            .expect("well-formed frame")
            .expect("not EOF");
        assert!(cursor.is_empty(), "frame must consume itself exactly");
        got
    }

    #[test]
    fn frame_roundtrip_preserves_all_fields() {
        let f = payload_frame(
            3,
            0xdead_beef,
            42,
            1_000_000,
            &Payload::from(vec![1.5, -0.0, f64::NAN]),
        );
        let g = roundtrip_frame(&f);
        assert_eq!(g.kind, FrameKind::MsgF64);
        assert_eq!(
            (g.src, g.ctx, g.tag, g.delay_ns),
            (3, 0xdead_beef, 42, 1_000_000)
        );
        assert_eq!(g.body, f.body);
        let Payload::F64(b) = frame_payload(&g).expect("payload decodes") else {
            panic!("wrong payload kind");
        };
        assert_eq!(b[0].to_bits(), 1.5f64.to_bits());
        assert_eq!(b[1].to_bits(), (-0.0f64).to_bits());
        assert!(b[2].is_nan());
    }

    #[test]
    fn empty_stream_is_clean_eof() {
        let mut empty: &[u8] = &[];
        assert!(matches!(read_frame(&mut empty), Ok(None)));
    }

    #[test]
    fn bad_magic_is_truncated_error() {
        let f = Frame::control(FrameKind::Fin, 0);
        let mut bytes = Vec::new();
        write_frame(&mut bytes, &f).expect("vec write");
        bytes[0] ^= 0xff;
        let mut cursor = &bytes[..];
        assert!(matches!(
            read_frame(&mut cursor),
            Err(XmpiError::Truncated { .. })
        ));
    }

    #[test]
    fn wire_f64_is_bit_exact() {
        for x in [0.0, -0.0, f64::INFINITY, f64::MIN_POSITIVE, 1.0 / 3.0] {
            let enc = encode_vec(&x);
            let dec: f64 = decode_all(&enc).expect("decodes");
            assert_eq!(dec.to_bits(), x.to_bits());
        }
    }

    type Nested = Result<(Vec<(u32, u32, f64)>, Vec<usize>), String>;

    #[test]
    fn wire_nested_containers_roundtrip() {
        let v: Nested = Ok((vec![(1, 2, 3.5), (4, 5, -6.25)], vec![9, 8, 7]));
        let enc = encode_vec(&v);
        let dec: Nested = decode_all(&enc).expect("decodes");
        assert_eq!(dec, v);
    }

    #[test]
    fn wire_rankstats_roundtrip() {
        let mut rs = RankStats {
            bytes_sent: 100,
            bytes_recv: 200,
            msgs_sent: 3,
            msgs_recv: 4,
            ..RankStats::default()
        };
        rs.per_phase.insert("pivoting".into(), (10, 20));
        rs.per_phase.insert("update".into(), (30, 40));
        rs.per_coll.push((
            CollKind::P2p,
            CollCounts {
                bytes_sent: 60,
                bytes_recv: 60,
                msgs_sent: 2,
                msgs_recv: 2,
            },
        ));
        let enc = encode_vec(&rs);
        let dec: RankStats = decode_all(&enc).expect("decodes");
        assert_eq!(dec.bytes_sent, rs.bytes_sent);
        assert_eq!(dec.per_phase, rs.per_phase);
        assert_eq!(dec.per_coll, rs.per_coll);
    }

    #[test]
    fn wire_decode_truncated_input_errors() {
        let enc = encode_vec(&vec![1u64, 2, 3]);
        for cut in 0..enc.len() {
            let r: Result<Vec<u64>, _> = decode_all(&enc[..cut]);
            assert!(r.is_err(), "cut at {cut} must not decode");
        }
    }
}
