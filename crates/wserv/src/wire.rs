//! The `wserv` wire protocol: length-prefixed binary frames.
//!
//! Every message on a remote connection is one frame:
//!
//! ```text
//!  offset  size  field
//!  ------  ----  -----------------------------------------------
//!       0     4  magic  = "WSRV"
//!       4     1  protocol version (= 4)
//!       5     1  frame kind (the table below)
//!       6     1  flags (bit 0 = continuation: more frames follow for
//!                this id; other bits must be zero)
//!       7     1  reserved, must be zero
//!       8     8  request id (client-assigned; client id for Hello)
//!      16     4  payload length N (little-endian, bounded)
//!      20     N  payload (kind-specific encoding)
//!    20+N     8  checksum of bytes [0, 20+N) (below)
//! ```
//!
//! Version 2 added flags, so a response can span frames linked by
//! [`FLAG_CONTINUE`], and `Cancel`; version 3 made delivery pull-driven
//! by `Credit`; version 4 replaced the byte-serial FNV-1a trailer with
//! the checksum below. An older peer is refused typed, at its frames'
//! version byte and at its `Hello`: this build decodes one version.
//!
//! | kind | dir | id | payload |
//! |---|---|---|---|
//! | `Hello` = 0 | C→S | client id | [`Hello`] |
//! | `HelloAck` = 1 | S→C | client id | [`Hello`] (the server's) |
//! | `Request` = 2 | C→S | request id, the dedup key | [`DecomposeRequest`] |
//! | `Response` = 3 | S→C | request id | outcome, progressive header or plane ([`ResponseBody`]) |
//! | `Bye` = 4 | C→S | client id | none: a clean goodbye before FIN |
//! | `Cancel` = 5 | C→S | request id | none: stop sending this id's planes |
//! | `Credit` = 6 | C→S | request id | `u32`: send this id's planes through this one |
//!
//! `Cancel` and `Credit` are idempotent: an unknown or finished id, a
//! repeat, or a lower credit is a no-op. All integers are little-endian;
//! floats are IEEE-754 bit patterns, so encode→decode round-trips
//! *bitwise*. An `f64` plane is its values' little-endian bytes, written
//! in one pass over the slice and read back in bulk from whatever the
//! source holds, `n` coming from fields already parsed — and checked
//! against what the payload can still hold before anything is sized
//! from it. The decoder is incremental and total: any input yields a
//! frame, a typed [`WireError`] or a request for more bytes. A declared
//! payload over the receive window is [`WireError::FrameTooLarge`]
//! *before* any allocation of that size, and a field too wide for its
//! wire width fails typed at *encode* time instead of truncating.
//!
//! One encoder and one decoder per message serve two paths. Each
//! encoder writes to a sink: its length is counted first, so a frame's
//! header states it before a byte of the payload is written; then it
//! fills a `Vec` ([`Payload::frame`], the `encode_*` functions) or a
//! connection's chunk ([`crate::transport::FrameIo::send`]). Each decoder
//! reads from a source: a payload held whole (`decode_*`,
//! [`decode_message`]) or one streaming through the chunk
//! ([`crate::transport::FrameIo::recv`]).
//!
//! ## The checksum
//!
//! [`checksum`] reads whole 32-byte blocks as four little-endian words,
//! word `j` into lane `j`. Lane `j` starts at `0xcbf2_9ce4_8422_2325 +
//! j·0x9e37_79b9_7f4a_7c15` (mod 2⁶⁴), and a word `w` steps it as `x =
//! (l ^ w)·P; l = x ^ (x >> 29)`, with `P = 0x100_0000_01b3`, the FNV-64
//! prime. The lanes fold to `h = l₀ ^ rotl(l₁, 16) ^ rotl(l₂, 32) ^
//! rotl(l₃, 48)`, the 0–31 bytes after the last block go into `h` as
//! FNV-1a (`h = (h ^ b)·P`), and one more step with the byte length as
//! its word gives the sum. A frame's trailer is the sum of its header
//! and payload as one string.
//!
//! Each step is a bijection of its state for a fixed input — xor,
//! multiplying by an odd constant and `x ^ (x >> 29)` all invert — and
//! of its input for a fixed state. So two strings of one length that
//! differ only inside one block word, or only in one tail byte, reach
//! different states at that word or byte, keep them different through
//! every later step, and fold to different sums: every such error, and
//! so every single-bit flip anywhere in a frame, is detected with
//! certainty. Four independent lanes keep four multiplies in flight,
//! where a byte-serial FNV-1a waits on one multiply per byte.

use std::fmt;

use crate::request::{DecomposeRequest, DecomposeResponse, Priority, Rejection, ServeResult};
use dwt::lifting::LiftingKind;
use dwt::{Boundary, FilterBank, Matrix, Pyramid, Subbands};

/// Frame magic: `"WSRV"`.
pub const MAGIC: [u8; 4] = *b"WSRV";
/// Protocol version this build speaks (4: the word-at-a-time checksum).
pub const PROTOCOL_VERSION: u8 = 4;
/// Fixed header bytes before the payload.
pub const HEADER_LEN: usize = 20;
/// Trailing checksum bytes after the payload.
pub const TRAILER_LEN: usize = 8;
/// Default receive window for one frame's payload (16 MiB).
pub const DEFAULT_MAX_PAYLOAD: u32 = 16 << 20;
/// Header flag bit 0: more frames follow for this request id (a
/// progressive response's header and every detail plane but the last).
pub const FLAG_CONTINUE: u8 = 0x01;
/// Every flag bit this build understands; others must be zero.
pub const FLAG_MASK: u8 = FLAG_CONTINUE;

/// What a frame carries: the module docs' table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// Client handshake.
    Hello = 0,
    /// Server handshake reply.
    HelloAck = 1,
    /// A [`DecomposeRequest`].
    Request = 2,
    /// A [`ServeResult`]: one frame, or a progressive sequence.
    Response = 3,
    /// Clean goodbye.
    Bye = 4,
    /// Stop sending this id's planes (the client's tolerance is met).
    Cancel = 5,
    /// Send this id's planes through a sequence number; one past the
    /// last plane reads as the last ([`encode_credit`]).
    Credit = 6,
}

impl FrameKind {
    /// Every kind, in wire-tag order.
    const ALL: [FrameKind; 7] = {
        use FrameKind::*;
        [Hello, HelloAck, Request, Response, Bye, Cancel, Credit]
    };
}

/// One decoded frame.
#[derive(Debug, Clone, PartialEq)]
pub struct Frame {
    /// What the payload encodes.
    pub kind: FrameKind,
    /// Request id (client id for handshake frames).
    pub id: u64,
    /// Header flags ([`FLAG_CONTINUE`] is the only defined bit).
    pub flags: u8,
    /// Kind-specific payload bytes.
    pub payload: Vec<u8>,
}

impl Frame {
    /// A frame with no flags set.
    pub fn new(kind: FrameKind, id: u64, payload: Vec<u8>) -> Frame {
        Frame {
            kind,
            id,
            flags: 0,
            payload,
        }
    }

    /// Set [`FLAG_CONTINUE`] if `more` frames follow for this id.
    pub fn with_continue(mut self, more: bool) -> Frame {
        self.flags |= FLAG_CONTINUE * more as u8;
        self
    }

    /// Whether more frames follow for this id.
    pub fn more_follows(&self) -> bool {
        self.head().more_follows()
    }

    /// What this frame's header says.
    pub fn head(&self) -> Head {
        Head {
            kind: self.kind,
            id: self.id,
            flags: self.flags,
            len: self.payload.len(),
        }
    }
}

/// What a frame's header says: everything but the payload, and the
/// payload's length.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Head {
    /// What the payload encodes.
    pub kind: FrameKind,
    /// Request id (client id for handshake frames).
    pub id: u64,
    /// Header flags ([`FLAG_CONTINUE`] is the only defined bit).
    pub flags: u8,
    /// Payload bytes between the header and the trailer.
    pub len: usize,
}

impl Head {
    /// Whether more frames follow for this id.
    pub fn more_follows(&self) -> bool {
        self.flags & FLAG_CONTINUE != 0
    }

    /// The frame this header opens, carrying `payload`.
    fn frame(self, payload: Vec<u8>) -> Frame {
        Frame {
            kind: self.kind,
            id: self.id,
            flags: self.flags,
            payload,
        }
    }
}

/// Typed decode failure. Every malformed, truncated, or adversarial
/// input maps to exactly one of these — never a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The bytes cannot be a frame: bad magic, unknown version or kind,
    /// nonzero reserved bits, checksum mismatch, truncated input, or a
    /// payload that does not parse as its kind.
    FrameCorrupt {
        /// Human-readable cause.
        detail: String,
    },
    /// The declared payload length exceeds the receive window. Raised
    /// before any payload-sized allocation.
    FrameTooLarge {
        /// Declared payload length.
        len: u64,
        /// The receive window it exceeded.
        max: u64,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::FrameCorrupt { detail } => write!(f, "corrupt frame: {detail}"),
            WireError::FrameTooLarge { len, max } => {
                write!(
                    f,
                    "frame payload {len} B exceeds the {max} B receive window"
                )
            }
        }
    }
}

impl std::error::Error for WireError {}

pub(crate) fn corrupt(detail: impl Into<String>) -> WireError {
    WireError::FrameCorrupt {
        detail: detail.into(),
    }
}

/// The FNV-64 prime, the multiplier of every checksum step.
const PRIME: u64 = 0x0000_0100_0000_01b3;
/// Lane `j` starts at the FNV-64 offset basis plus `j·0x9e37_79b9_7f4a_7c15`.
const SEEDS: [u64; 4] = [
    0xcbf2_9ce4_8422_2325,
    0x6a2a_169e_036c_9f3a,
    0x0861_9057_82b7_1b4f,
    0xa699_0a11_0201_9764,
];
/// Bytes one step of the four lanes takes.
const BLOCK: usize = 32;

/// One checksum step: a bijection of `lane` for a fixed `word`, and of
/// `word` for a fixed `lane`.
fn step(lane: u64, word: u64) -> u64 {
    let x = (lane ^ word).wrapping_mul(PRIME);
    x ^ (x >> 29)
}

/// Step the lanes over every whole block of `bytes`; returns the rest.
fn absorb<'a>(lanes: &mut [u64; 4], bytes: &'a [u8]) -> &'a [u8] {
    let blocks = bytes.chunks_exact(BLOCK);
    let tail = blocks.remainder();
    for block in blocks {
        for (lane, word) in lanes.iter_mut().zip(block.chunks_exact(8)) {
            *lane = step(*lane, u64::from_le_bytes(word.try_into().expect("8 bytes")));
        }
    }
    tail
}

/// Fold the lanes, then take the `tail` bytewise and the length `len`.
fn finish([a, b, c, d]: [u64; 4], tail: &[u8], len: usize) -> u64 {
    let h = a ^ b.rotate_left(16) ^ c.rotate_left(32) ^ d.rotate_left(48);
    let h = tail
        .iter()
        .fold(h, |h, &x| (h ^ x as u64).wrapping_mul(PRIME));
    step(h, len as u64)
}

/// The frame checksum of `bytes`, as the module docs define it.
pub fn checksum(bytes: &[u8]) -> u64 {
    let mut sum = Checksum::default();
    sum.update(bytes);
    sum.finish()
}

/// [`checksum`] taken incrementally: the bytes may arrive in pieces of
/// any size, and the sum is that of their concatenation. Only a block
/// split between two pieces is copied.
#[derive(Clone)]
pub(crate) struct Checksum {
    /// The four lanes, at the even indices (`update` says why).
    lanes: [u64; 8],
    /// The bytes after the last whole block.
    block: [u8; BLOCK],
    held: usize,
    len: usize,
}

impl Default for Checksum {
    fn default() -> Self {
        let [a, b, c, d] = SEEDS;
        Checksum {
            lanes: [a, 0, b, 0, c, 0, d, 0],
            block: [0; BLOCK],
            held: 0,
            len: 0,
        }
    }
}

impl Checksum {
    /// Take in the next `bytes`.
    pub(crate) fn update(&mut self, mut bytes: &[u8]) {
        self.len += bytes.len();
        // Stored apart, the lanes give the compiler no run of adjacent
        // stores from which to pack them into SSE registers, where a
        // 64-bit multiply is emulated: stored side by side they were
        // packed, and the sum ran at half the speed of four scalar
        // chains (6 against 12 GB/s on a 2-vCPU x86-64 host).
        let [a, _, b, _, c, _, d, _] = self.lanes;
        let mut lanes = [a, b, c, d];
        if self.held > 0 {
            let n = (BLOCK - self.held).min(bytes.len());
            self.block[self.held..][..n].copy_from_slice(&bytes[..n]);
            self.held += n;
            bytes = &bytes[n..];
            if self.held < BLOCK {
                return;
            }
            absorb(&mut lanes, &self.block);
        }
        let tail = absorb(&mut lanes, bytes);
        let [a, b, c, d] = lanes;
        self.lanes = [a, 0, b, 0, c, 0, d, 0];
        self.block[..tail.len()].copy_from_slice(tail);
        self.held = tail.len();
    }

    /// The sum of every byte taken in so far.
    pub(crate) fn finish(&self) -> u64 {
        let [a, _, b, _, c, _, d, _] = self.lanes;
        finish([a, b, c, d], &self.block[..self.held], self.len)
    }
}

/// Narrow a `usize` field into its `u32` wire width, or fail typed at
/// encode time. `_what` names the field at the call site only.
fn wire_u32(n: usize, _what: &str) -> Result<u32, WireError> {
    u32::try_from(n).map_err(|_| WireError::FrameTooLarge {
        len: n as u64,
        max: u32::MAX as u64,
    })
}

/// The header bytes a frame goes out under. Fails typed if the payload
/// cannot fit the 32-bit length field (instead of truncating it into a
/// frame the peer must reject as corrupt) or if the frame carries flag
/// bits this protocol version does not define.
pub(crate) fn header(head: &Head) -> Result<[u8; HEADER_LEN], WireError> {
    let len = wire_u32(head.len, "frame payload")?;
    defined(head.flags)?;
    let mut out = [0; HEADER_LEN];
    out[..4].copy_from_slice(&MAGIC);
    out[4..8].copy_from_slice(&[PROTOCOL_VERSION, head.kind as u8, head.flags, 0]);
    out[8..16].copy_from_slice(&head.id.to_le_bytes());
    out[16..].copy_from_slice(&len.to_le_bytes());
    Ok(out)
}

/// `flags`, if this protocol version defines every bit set in it.
fn defined(flags: u8) -> Result<u8, WireError> {
    match flags & !FLAG_MASK {
        0 => Ok(flags),
        bad => Err(corrupt(format!("undefined flag bits {bad:#04x}"))),
    }
}

/// Parse the header at the front of `buf`; `Ok(None)` while `buf` is a
/// valid prefix of a header. Bad magic fails as soon as the bytes
/// disagree, and a payload over the `max` receive window fails as
/// [`WireError::FrameTooLarge`] before anything is sized from it.
pub(crate) fn parse_header(buf: &[u8], max: u32) -> Result<Option<Head>, WireError> {
    let n = buf.len().min(MAGIC.len());
    if buf[..n] != MAGIC[..n] {
        return Err(corrupt("bad magic"));
    }
    if buf.len() < HEADER_LEN {
        return Ok(None);
    }
    if buf[4] != PROTOCOL_VERSION {
        return Err(corrupt(format!(
            "protocol version {} (this build speaks {PROTOCOL_VERSION})",
            buf[4]
        )));
    }
    let kind = tagged(&FrameKind::ALL, buf[5], "frame kind")?;
    let flags = defined(buf[6])?;
    if buf[7] != 0 {
        return Err(corrupt("nonzero reserved bits"));
    }
    let id = u64::from_le_bytes(buf[8..16].try_into().expect("slice is 8 bytes"));
    let len = u32::from_le_bytes(buf[16..20].try_into().expect("slice is 4 bytes"));
    if len > max {
        return Err(WireError::FrameTooLarge {
            len: len as u64,
            max: max as u64,
        });
    }
    Ok(Some(Head {
        kind,
        id,
        flags,
        len: len as usize,
    }))
}

/// Encode one frame to bytes (header, payload, checksum). Fails typed
/// if the payload cannot fit the 32-bit length field or the frame
/// carries flag bits this protocol version does not define.
pub fn encode_frame(frame: &Frame) -> Result<Vec<u8>, WireError> {
    let header = header(&frame.head())?;
    let mut sum = Checksum::default();
    sum.update(&header);
    sum.update(&frame.payload);
    Ok([&header[..], &frame.payload, &sum.finish().to_le_bytes()].concat())
}

/// Incremental decode: `Ok(None)` means the buffer holds a valid prefix
/// of a frame and more bytes are needed; `Ok(Some((frame, consumed)))`
/// yields one frame and how many bytes it spanned. Errors are terminal
/// for the byte stream (framing is lost once bytes are untrustworthy).
pub fn decode_frame(buf: &[u8], max_payload: u32) -> Result<Option<(Frame, usize)>, WireError> {
    let Some(head) = parse_header(buf, max_payload)? else {
        return Ok(None);
    };
    let total = HEADER_LEN + head.len + TRAILER_LEN;
    if buf.len() < total {
        return Ok(None);
    }
    let (framed, declared) = buf[..total].split_at(total - TRAILER_LEN);
    if checksum(framed).to_le_bytes() != declared {
        return Err(corrupt("checksum mismatch"));
    }
    Ok(Some((head.frame(framed[HEADER_LEN..].to_vec()), total)))
}

/// Decode a buffer that must hold exactly one complete frame (the
/// non-streaming entry point the property tests drive): truncated input
/// and trailing garbage are both [`WireError::FrameCorrupt`].
pub fn decode_complete(buf: &[u8], max_payload: u32) -> Result<Frame, WireError> {
    match decode_frame(buf, max_payload)? {
        None => Err(corrupt("truncated frame")),
        Some((frame, consumed)) if consumed == buf.len() => Ok(frame),
        Some(_) => Err(corrupt("trailing bytes after frame")),
    }
}

/// Where an encoder writes a payload: a `Vec` ([`Payload::frame`]), a
/// count of its bytes ([`Payload::head`]), or a connection's chunk
/// ([`crate::transport::FrameIo::send`]). Every encoder runs through the
/// count first, so the bytes it writes are sized before the first one
/// is: a write to a sink cannot fail.
pub(crate) trait Sink {
    /// The next payload bytes.
    fn put(&mut self, bytes: &[u8]);
    /// `data`'s values as little-endian bytes, in one pass over the
    /// slice.
    fn put_f64s(&mut self, data: &[f64]);
}

impl Sink for Vec<u8> {
    fn put(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }

    fn put_f64s(&mut self, data: &[f64]) {
        self.extend(data.iter().flat_map(|v| v.to_le_bytes()));
    }
}

/// A sink that only counts what it is given.
#[derive(Default)]
struct Count(usize);

impl Sink for Count {
    fn put(&mut self, bytes: &[u8]) {
        self.0 += bytes.len();
    }

    fn put_f64s(&mut self, data: &[f64]) {
        self.0 += 8 * data.len();
    }
}

/// Where a payload decoder reads from: a payload held whole (`&[u8]`),
/// or one streaming through a connection's chunk. [`Reader`] checks
/// [`Source::left`] before every read, so a source is never asked for
/// more than its payload still holds.
pub(crate) trait Source {
    /// Payload bytes not yet read.
    fn left(&self) -> usize;
    /// Fill `out` with the next `out.len()` payload bytes.
    fn read(&mut self, out: &mut [u8]) -> Result<(), WireError>;
    /// Append the next `n` little-endian `f64`s of the payload to `out`.
    fn read_f64s(&mut self, n: usize, out: &mut Vec<f64>) -> Result<(), WireError>;
}

impl Source for &[u8] {
    fn left(&self) -> usize {
        self.len()
    }

    fn read(&mut self, out: &mut [u8]) -> Result<(), WireError> {
        let (now, rest) = self.split_at(out.len());
        out.copy_from_slice(now);
        *self = rest;
        Ok(())
    }

    fn read_f64s(&mut self, n: usize, out: &mut Vec<f64>) -> Result<(), WireError> {
        let (now, rest) = self.split_at(8 * n);
        out.extend(f64s(now));
        *self = rest;
        Ok(())
    }
}

/// The little-endian `f64`s `bytes` holds, whole.
pub(crate) fn f64s(bytes: &[u8]) -> impl Iterator<Item = f64> + '_ {
    bytes
        .chunks_exact(8)
        .map(|c| f64::from_le_bytes(c.try_into().expect("8 bytes")))
}

/// The bounds-checked cursor every payload decoder reads through, so a
/// short or oversized payload is `FrameCorrupt`, never a panic — and a
/// field is never sized past what the payload can still hold.
pub(crate) struct Reader<S> {
    src: S,
}

impl<S: Source> Reader<S> {
    pub(crate) fn new(src: S) -> Self {
        Reader { src }
    }

    /// The source, with whatever the decoder left unread.
    pub(crate) fn into_source(self) -> S {
        self.src
    }

    /// The frame `head` opens, its payload — all the source holds —
    /// taken undecoded into one buffer of exactly its length.
    pub(crate) fn frame(&mut self, head: Head) -> Result<Frame, WireError> {
        let mut payload = vec![0; self.src.left()];
        self.src.read(&mut payload)?;
        Ok(head.frame(payload))
    }

    /// Refuse a read of `n` bytes the payload does not hold.
    fn need(&self, n: usize) -> Result<(), WireError> {
        if n <= self.src.left() {
            Ok(())
        } else {
            Err(corrupt("payload shorter than its fields"))
        }
    }

    fn bytes<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        self.need(N)?;
        let mut out = [0; N];
        self.src.read(&mut out)?;
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        self.bytes().map(|[b]| b)
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        self.bytes().map(u32::from_le_bytes)
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        self.bytes().map(u64::from_le_bytes)
    }

    fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Exactly `n` f64 values, `n` taken from fields the caller has
    /// already read (geometry or a tap count); no prefix of its own.
    /// Nothing is allocated for a count the payload cannot hold.
    fn plane(&mut self, n: usize) -> Result<Vec<f64>, WireError> {
        self.need(n.checked_mul(8).ok_or_else(|| corrupt("plane overflow"))?)?;
        let mut out = Vec::with_capacity(n);
        self.src.read_f64s(n, &mut out)?;
        Ok(out)
    }

    /// A `rows x cols` matrix of f64 values. The element count must
    /// agree with what the payload can actually hold, which `plane`
    /// enforces before it allocates — the guard against adversarial
    /// geometry.
    fn matrix(&mut self, rows: usize, cols: usize) -> Result<Matrix, WireError> {
        let n = rows
            .checked_mul(cols)
            .ok_or_else(|| corrupt("matrix dims overflow"))?;
        Matrix::from_vec(rows, cols, self.plane(n)?).map_err(|e| corrupt(e.to_string()))
    }

    fn string(&mut self) -> Result<String, WireError> {
        let len = self.u32()? as usize;
        self.need(len)?;
        let mut bytes = vec![0; len];
        self.src.read(&mut bytes)?;
        String::from_utf8(bytes).map_err(|_| corrupt("string is not UTF-8"))
    }

    fn done(&self) -> Result<(), WireError> {
        if self.src.left() == 0 {
            Ok(())
        } else {
            Err(corrupt("trailing bytes in payload"))
        }
    }
}

/// Decode the whole of `frame`'s payload with `read`.
fn whole<'a, T>(
    frame: &'a Frame,
    read: impl FnOnce(&mut Reader<&'a [u8]>) -> Result<T, WireError>,
) -> Result<T, WireError> {
    let mut r = Reader::new(&frame.payload[..]);
    let value = read(&mut r)?;
    r.done()?;
    Ok(value)
}

/// A `u32` field: `n`, or a typed failure if it does not fit.
fn put_u32(out: &mut impl Sink, n: usize, what: &str) -> Result<(), WireError> {
    out.put(&wire_u32(n, what)?.to_le_bytes());
    Ok(())
}

fn put_string(out: &mut impl Sink, s: &str) -> Result<(), WireError> {
    put_u32(out, s.len(), "string")?;
    out.put(s.as_bytes());
    Ok(())
}

/// A matrix led by its own `rows`, `cols`.
fn matrix(r: &mut Reader<impl Source>) -> Result<Matrix, WireError> {
    let rows = r.u32()? as usize;
    let cols = r.u32()? as usize;
    r.matrix(rows, cols)
}

fn put_matrix(out: &mut impl Sink, m: &Matrix) -> Result<(), WireError> {
    put_u32(out, m.rows(), "matrix rows")?;
    put_u32(out, m.cols(), "matrix cols")?;
    out.put_f64s(m.data());
    Ok(())
}

/// Handshake payload: what each side speaks and the windows it offers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hello {
    /// Protocol version the sender speaks.
    pub protocol: u32,
    /// Largest frame payload the sender will accept.
    pub max_payload: u32,
    /// In-flight request window the sender honors per connection.
    pub window: u32,
}

/// Encode a handshake frame (`Hello` from clients, `HelloAck` from the
/// server). The frame id carries the client id.
pub fn encode_hello(kind: FrameKind, client_id: u64, hello: &Hello) -> Frame {
    let mut payload = Vec::with_capacity(12);
    put_hello(&mut payload, hello);
    Frame::new(kind, client_id, payload)
}

fn put_hello(out: &mut impl Sink, hello: &Hello) {
    for field in [hello.protocol, hello.max_payload, hello.window] {
        out.put(&field.to_le_bytes());
    }
}

fn hello(r: &mut Reader<impl Source>) -> Result<Hello, WireError> {
    Ok(Hello {
        protocol: r.u32()?,
        max_payload: r.u32()?,
        window: r.u32()?,
    })
}

/// Decode a handshake payload.
pub fn decode_hello(frame: &Frame) -> Result<Hello, WireError> {
    whole(frame, hello)
}

/// Encode a [`FrameKind::Credit`]: send request `id`'s detail planes
/// through sequence number `upto`.
pub fn encode_credit(id: u64, upto: u32) -> Frame {
    Frame::new(FrameKind::Credit, id, upto.to_le_bytes().to_vec())
}

/// Decode a [`FrameKind::Credit`] payload: exactly one `u32`.
pub fn decode_credit(frame: &Frame) -> Result<u32, WireError> {
    whole(frame, |r| r.u32())
}

fn encode_bank(out: &mut impl Sink, bank: &FilterBank) -> Result<(), WireError> {
    match bank.lifting_kind() {
        Some(LiftingKind::LeGall53) => out.put(&[1]),
        Some(LiftingKind::Cdf97) => out.put(&[2]),
        None => {
            // Orthonormal banks reconstruct exactly from their low-pass
            // taps (the high-pass is the deterministic alternating
            // flip), so ship name + taps bit-exactly.
            out.put(&[0]);
            put_string(out, bank.name())?;
            put_u32(out, bank.low().len(), "filter taps")?;
            out.put_f64s(bank.low());
        }
    }
    Ok(())
}

fn decode_bank(r: &mut Reader<impl Source>) -> Result<FilterBank, WireError> {
    match r.u8()? {
        1 => Ok(FilterBank::cdf53()),
        2 => Ok(FilterBank::cdf97()),
        0 => {
            let name = r.string()?;
            let taps = r.u32()? as usize;
            let low = r.plane(taps)?;
            FilterBank::from_lowpass(name, low).map_err(|e| corrupt(e.to_string()))
        }
        k => Err(corrupt(format!("unknown filter-bank tag {k}"))),
    }
}

/// A value's wire tag is its position in its type's `ALL` list:
/// [`Boundary::ALL`] (`Periodic` = 0, `Symmetric` = 1, `Zero` = 2),
/// [`Priority::ALL`] (`Batch` = 0, `Standard` = 1, `Interactive` = 2),
/// [`FrameKind`]'s and [`PlaneBand`]'s declaration order.
fn tag_of<T: PartialEq>(all: &[T], value: T) -> u8 {
    all.iter()
        .position(|v| *v == value)
        .expect("every value is listed") as u8
}

/// The value tagged `tag` in `all`, or a typed error naming `what`.
fn tagged<T: Copy>(all: &[T], tag: u8, what: &str) -> Result<T, WireError> {
    let value = all.get(tag as usize).copied();
    value.ok_or_else(|| corrupt(format!("unknown {what} tag {tag}")))
}

/// Encode one request as a [`FrameKind::Request`] frame with id `id`.
/// Fails typed if any geometry field exceeds its 32-bit wire width.
pub fn encode_request(id: u64, req: &DecomposeRequest) -> Result<Frame, WireError> {
    Payload::Request(req).frame(id)
}

/// Tags, levels, deadline, bank, image dims, then the pixels.
fn put_request(out: &mut impl Sink, req: &DecomposeRequest) -> Result<(), WireError> {
    let deadline = req.deadline.is_some();
    out.put(&[
        tag_of(&Priority::ALL, req.priority),
        tag_of(&Boundary::ALL, req.mode),
        deadline as u8,
        0,
    ]);
    put_u32(out, req.levels, "levels")?;
    out.put_f64s(req.deadline.as_slice());
    encode_bank(out, &req.bank)?;
    put_matrix(out, &req.image)
}

fn request(r: &mut Reader<impl Source>) -> Result<DecomposeRequest, WireError> {
    let priority = tagged(&Priority::ALL, r.u8()?, "priority")?;
    let mode = tagged(&Boundary::ALL, r.u8()?, "boundary")?;
    let has_deadline = match r.u8()? {
        0 => false,
        1 => true,
        t => return Err(corrupt(format!("bad deadline flag {t}"))),
    };
    if r.u8()? != 0 {
        return Err(corrupt("nonzero request padding"));
    }
    let levels = r.u32()? as usize;
    let deadline = if has_deadline { Some(r.f64()?) } else { None };
    let bank = decode_bank(r)?;
    let image = matrix(r)?;
    Ok(DecomposeRequest {
        image,
        bank,
        levels,
        mode,
        priority,
        deadline,
    })
}

/// Decode a [`FrameKind::Request`] payload.
pub fn decode_request(frame: &Frame) -> Result<DecomposeRequest, WireError> {
    whole(frame, request)
}

/// Image rows, cols and decomposition depth — how the monolithic
/// pyramid and the progressive header both open their geometry.
fn put_geometry(
    out: &mut impl Sink,
    rows: usize,
    cols: usize,
    levels: usize,
) -> Result<(), WireError> {
    put_u32(out, rows, "pyramid rows")?;
    put_u32(out, cols, "pyramid cols")?;
    put_u32(out, levels, "pyramid levels")
}

/// Read `(rows, cols, levels)` and refuse any geometry that is not a
/// dyadic pyramid, before a plane is sized from it.
fn geometry(r: &mut Reader<impl Source>) -> Result<(usize, usize, usize), WireError> {
    let rows = r.u32()? as usize;
    let cols = r.u32()? as usize;
    let levels = r.u32()? as usize;
    if levels == 0 || levels >= 32 {
        return Err(corrupt(format!("pyramid depth {levels} out of range")));
    }
    if rows >> levels << levels != rows || cols >> levels << levels != cols {
        return Err(corrupt(format!(
            "pyramid dims {rows}x{cols} do not divide by 2^{levels}"
        )));
    }
    Ok((rows, cols, levels))
}

fn encode_pyramid(out: &mut impl Sink, pyr: &Pyramid) -> Result<(), WireError> {
    let (rows, cols) = pyr.image_dims();
    put_geometry(out, rows, cols, pyr.levels())?;
    out.put_f64s(pyr.approx.data());
    for bands in &pyr.detail {
        out.put_f64s(bands.lh.data());
        out.put_f64s(bands.hl.data());
        out.put_f64s(bands.hh.data());
    }
    Ok(())
}

fn decode_pyramid(r: &mut Reader<impl Source>) -> Result<Pyramid, WireError> {
    let (rows, cols, levels) = geometry(r)?;
    let approx = r.matrix(rows >> levels, cols >> levels)?;
    let mut detail = Vec::with_capacity(levels);
    for level in 1..=levels {
        let (h, w) = (rows >> level, cols >> level);
        detail.push(Subbands {
            lh: r.matrix(h, w)?,
            hl: r.matrix(h, w)?,
            hh: r.matrix(h, w)?,
        });
    }
    Ok(Pyramid { approx, detail })
}

fn encode_rejection(out: &mut impl Sink, rej: &Rejection) -> Result<(), WireError> {
    match rej {
        Rejection::QueueFull { depth } => {
            out.put(&[0]);
            out.put(&(*depth as u64).to_le_bytes());
        }
        Rejection::Shed { by } => out.put(&[1, tag_of(&Priority::ALL, *by)]),
        Rejection::DeadlineExpired { deadline, now } => {
            out.put(&[2]);
            out.put_f64s(&[*deadline, *now]);
        }
        Rejection::Invalid { detail } => {
            out.put(&[3]);
            put_string(out, detail)?;
        }
        Rejection::Draining => out.put(&[4]),
        Rejection::ShardFailed { shard, restarts } => {
            out.put(&[5]);
            out.put(&(*shard as u64).to_le_bytes());
            out.put(&restarts.to_le_bytes());
        }
        Rejection::Requeued { attempts } => {
            out.put(&[6]);
            out.put(&attempts.to_le_bytes());
        }
    }
    Ok(())
}

fn decode_rejection(r: &mut Reader<impl Source>) -> Result<Rejection, WireError> {
    Ok(match r.u8()? {
        0 => Rejection::QueueFull {
            depth: r.u64()? as usize,
        },
        1 => Rejection::Shed {
            by: tagged(&Priority::ALL, r.u8()?, "priority")?,
        },
        2 => Rejection::DeadlineExpired {
            deadline: r.f64()?,
            now: r.f64()?,
        },
        3 => Rejection::Invalid {
            detail: r.string()?,
        },
        4 => Rejection::Draining,
        5 => Rejection::ShardFailed {
            shard: r.u64()? as usize,
            restarts: r.u32()?,
        },
        6 => Rejection::Requeued { attempts: r.u32()? },
        t => return Err(corrupt(format!("unknown rejection tag {t}"))),
    })
}

/// The serving metadata every successful response opens with, after its
/// outcome tag: two flags, a zero padding byte, the batch size, queue
/// wait, service time and the server-side error bound (31 bytes).
fn put_meta(
    out: &mut impl Sink,
    cache_hit: bool,
    degraded: bool,
    batch_size: usize,
    wait_s: f64,
    service_s: f64,
    error_bound: f64,
) -> Result<(), WireError> {
    out.put(&[cache_hit as u8, degraded as u8, 0]);
    put_u32(out, batch_size, "batch size")?;
    out.put_f64s(&[wait_s, service_s, error_bound]);
    Ok(())
}

/// What [`put_meta`] wrote, in its order: `(cache_hit, degraded,
/// batch_size, wait_s, service_s, error_bound)`.
fn meta(r: &mut Reader<impl Source>) -> Result<(bool, bool, usize, f64, f64, f64), WireError> {
    let cache_hit = r.u8()? != 0;
    let degraded = r.u8()? != 0;
    if r.u8()? != 0 {
        return Err(corrupt("nonzero response padding"));
    }
    Ok((
        cache_hit,
        degraded,
        r.u32()? as usize,
        r.f64()?,
        r.f64()?,
        r.f64()?,
    ))
}

/// Encode one terminal outcome as a [`FrameKind::Response`] frame.
pub fn encode_response(id: u64, result: &ServeResult) -> Result<Frame, WireError> {
    Payload::Response(result).frame(id)
}

/// Tag, then metadata, geometry and every coefficient, or the
/// rejection.
fn put_response(out: &mut impl Sink, result: &ServeResult) -> Result<(), WireError> {
    match result {
        Ok(resp) => {
            out.put(&[0]);
            put_meta(
                out,
                resp.cache_hit,
                resp.degraded,
                resp.batch_size,
                resp.wait_s,
                resp.service_s,
                resp.error_bound,
            )?;
            encode_pyramid(out, &resp.pyramid)
        }
        Err(rej) => {
            out.put(&[1]);
            encode_rejection(out, rej)
        }
    }
}

/// Decode a [`FrameKind::Response`] payload that must be a *terminal*
/// outcome (tag 0 or 1). Progressive header/plane payloads are a typed
/// error here; use [`decode_response_body`] to accept all three.
pub fn decode_response(frame: &Frame) -> Result<ServeResult, WireError> {
    match decode_response_body(frame)? {
        ResponseBody::Outcome(result) => Ok(result),
        ResponseBody::Header(_) | ResponseBody::Plane(_) => Err(corrupt(
            "progressive response payload where a terminal outcome was expected",
        )),
    }
}

/// First frame of a progressive response (outcome tag 2; a plane is tag
/// 3): all the serving metadata, the geometry, the plane count, and the
/// *exact* LL plane. Carries [`FLAG_CONTINUE`] whenever planes follow.
#[derive(Debug, Clone, PartialEq)]
pub struct ProgressiveHeader {
    /// Whether the plan came from the cache.
    pub cache_hit: bool,
    /// Whether the server served this in degraded mode.
    pub degraded: bool,
    /// Requests sharing the engine dispatch.
    pub batch_size: usize,
    /// Seconds queued before dispatch.
    pub wait_s: f64,
    /// Seconds of service.
    pub service_s: f64,
    /// The server-side error bound of the *complete* pyramid versus the
    /// exact decomposition (degraded-mode quantization; `0.0` if exact).
    pub base_error_bound: f64,
    /// Original image rows.
    pub rows: usize,
    /// Original image cols.
    pub cols: usize,
    /// Decomposition depth.
    pub levels: usize,
    /// Detail-plane frames that follow (3 per level).
    pub planes_total: usize,
    /// Largest absolute error the on-wire codec may add to any detail
    /// coefficient (`threshold + step / 2`; `0.0` for lossless).
    pub codec_tolerance: f64,
    /// Error bound of the reassembly after this frame alone (missing
    /// detail planes read as zero), *relative to the shipped pyramid*.
    pub bound_after: f64,
    /// The LL plane, always exact.
    pub approx: Matrix,
}

/// Which detail band a plane frame carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlaneBand {
    /// Low-high (horizontal detail).
    Lh = 0,
    /// High-low (vertical detail).
    Hl = 1,
    /// High-high (diagonal detail).
    Hh = 2,
}

/// Coefficients of one detail plane, densely or sparsely encoded —
/// whichever is fewer bytes for the plane's post-quantization support.
#[derive(Debug, Clone, PartialEq)]
pub enum PlaneCoeffs {
    /// Every coefficient, row-major.
    Dense(Vec<f64>),
    /// `(row-major index, value)` for the nonzero coefficients, indices
    /// strictly ascending (the canonical order; decode enforces it).
    Sparse(Vec<(u32, f64)>),
}

/// One detail-plane frame of a progressive response.
#[derive(Debug, Clone, PartialEq)]
pub struct ProgressivePlane {
    /// 1-based position in the plane sequence.
    pub seq: usize,
    /// Pyramid level (1 = finest).
    pub level: usize,
    /// Which band of that level.
    pub band: PlaneBand,
    /// Plane rows (`image rows >> level`).
    pub rows: usize,
    /// Plane cols (`image cols >> level`).
    pub cols: usize,
    /// Error bound of the reassembly once this plane is applied,
    /// relative to the shipped pyramid: `max(codec tolerance, largest
    /// original |coeff| over the planes still outstanding)`. Monotone
    /// nonincreasing along the sequence by construction.
    pub bound_after: f64,
    /// The (possibly quantized) coefficients.
    pub coeffs: PlaneCoeffs,
}

/// Encode the header frame of a progressive response.
pub fn encode_progressive_header(id: u64, h: &ProgressiveHeader) -> Result<Frame, WireError> {
    Payload::Header(h).frame(id)
}

/// Tag, metadata, geometry, plane count, two bounds, the LL plane.
fn put_progressive_header(out: &mut impl Sink, h: &ProgressiveHeader) -> Result<(), WireError> {
    out.put(&[2]);
    put_meta(
        out,
        h.cache_hit,
        h.degraded,
        h.batch_size,
        h.wait_s,
        h.service_s,
        h.base_error_bound,
    )?;
    put_geometry(out, h.rows, h.cols, h.levels)?;
    put_u32(out, h.planes_total, "plane count")?;
    out.put_f64s(&[h.codec_tolerance, h.bound_after]);
    put_matrix(out, &h.approx)
}

fn decode_progressive_header(r: &mut Reader<impl Source>) -> Result<ProgressiveHeader, WireError> {
    let (cache_hit, degraded, batch_size, wait_s, service_s, base_error_bound) = meta(r)?;
    let (rows, cols, levels) = geometry(r)?;
    let planes_total = r.u32()? as usize;
    let codec_tolerance = r.f64()?;
    let bound_after = r.f64()?;
    if planes_total != 3 * levels {
        return Err(corrupt(format!(
            "progressive header declares {planes_total} planes for {levels} levels"
        )));
    }
    let approx = matrix(r)?;
    if approx.rows() != rows >> levels || approx.cols() != cols >> levels {
        return Err(corrupt(format!(
            "LL plane is {}x{}, geometry demands {}x{}",
            approx.rows(),
            approx.cols(),
            rows >> levels,
            cols >> levels
        )));
    }
    Ok(ProgressiveHeader {
        cache_hit,
        degraded,
        batch_size,
        wait_s,
        service_s,
        base_error_bound,
        rows,
        cols,
        levels,
        planes_total,
        codec_tolerance,
        bound_after,
        approx,
    })
}

/// Encode one detail-plane frame; `more` sets [`FLAG_CONTINUE`] (clear
/// only on the final plane of the sequence).
pub fn encode_progressive_plane(
    id: u64,
    p: &ProgressivePlane,
    more: bool,
) -> Result<Frame, WireError> {
    Payload::Plane(p, more).frame(id)
}

fn put_progressive_plane(out: &mut impl Sink, p: &ProgressivePlane) -> Result<(), WireError> {
    let encoding = matches!(p.coeffs, PlaneCoeffs::Sparse(_)) as u8;
    out.put(&[3, p.band as u8, encoding, 0]);
    put_u32(out, p.seq, "plane seq")?;
    put_u32(out, p.level, "plane level")?;
    put_u32(out, p.rows, "plane rows")?;
    put_u32(out, p.cols, "plane cols")?;
    out.put_f64s(&[p.bound_after]);
    match &p.coeffs {
        PlaneCoeffs::Dense(data) => {
            if data.len() != p.rows * p.cols {
                return Err(corrupt(format!(
                    "dense plane holds {} values, geometry demands {}",
                    data.len(),
                    p.rows * p.cols
                )));
            }
            out.put_f64s(data);
        }
        PlaneCoeffs::Sparse(entries) => {
            put_u32(out, entries.len(), "sparse count")?;
            for &(ix, v) in entries {
                let mut entry = [0; 12];
                entry[..4].copy_from_slice(&ix.to_le_bytes());
                entry[4..].copy_from_slice(&v.to_le_bytes());
                out.put(&entry);
            }
        }
    }
    Ok(())
}

fn decode_progressive_plane(r: &mut Reader<impl Source>) -> Result<ProgressivePlane, WireError> {
    let band = tagged(
        &[PlaneBand::Lh, PlaneBand::Hl, PlaneBand::Hh],
        r.u8()?,
        "band",
    )?;
    let encoding = r.u8()?;
    if r.u8()? != 0 {
        return Err(corrupt("nonzero plane padding"));
    }
    let seq = r.u32()? as usize;
    let level = r.u32()? as usize;
    let rows = r.u32()? as usize;
    let cols = r.u32()? as usize;
    let bound_after = r.f64()?;
    let n = rows
        .checked_mul(cols)
        .ok_or_else(|| corrupt("plane dims overflow"))?;
    let coeffs = match encoding {
        0 => PlaneCoeffs::Dense(r.plane(n)?),
        1 => {
            let count = r.u32()? as usize;
            if count > n {
                return Err(corrupt(format!(
                    "sparse plane declares {count} entries in {n} slots"
                )));
            }
            r.need(12 * count)?;
            let mut entries = Vec::with_capacity(count);
            let mut prev: Option<u32> = None;
            for _ in 0..count {
                let ix = r.u32()?;
                let v = r.f64()?;
                if ix as usize >= n {
                    return Err(corrupt(format!("sparse index {ix} out of {n} slots")));
                }
                if prev.is_some_and(|p| ix <= p) {
                    return Err(corrupt("sparse indices not strictly ascending"));
                }
                prev = Some(ix);
                entries.push((ix, v));
            }
            PlaneCoeffs::Sparse(entries)
        }
        t => return Err(corrupt(format!("unknown plane encoding {t}"))),
    };
    Ok(ProgressivePlane {
        seq,
        level,
        band,
        rows,
        cols,
        bound_after,
        coeffs,
    })
}

/// Every shape a [`FrameKind::Response`] payload can take.
#[derive(Debug, Clone, PartialEq)]
pub enum ResponseBody {
    /// A terminal outcome (monolithic response or rejection).
    Outcome(ServeResult),
    /// The first frame of a progressive sequence.
    Header(ProgressiveHeader),
    /// One detail plane of a progressive sequence.
    Plane(ProgressivePlane),
}

fn response_body(r: &mut Reader<impl Source>) -> Result<ResponseBody, WireError> {
    Ok(match r.u8()? {
        0 => {
            let (cache_hit, degraded, batch_size, wait_s, service_s, error_bound) = meta(r)?;
            ResponseBody::Outcome(Ok(DecomposeResponse {
                pyramid: decode_pyramid(r)?,
                cache_hit,
                batch_size,
                wait_s,
                service_s,
                degraded,
                error_bound,
            }))
        }
        1 => ResponseBody::Outcome(Err(decode_rejection(r)?)),
        2 => ResponseBody::Header(decode_progressive_header(r)?),
        3 => ResponseBody::Plane(decode_progressive_plane(r)?),
        t => return Err(corrupt(format!("unknown outcome tag {t}"))),
    })
}

/// Decode any [`FrameKind::Response`] payload — monolithic outcome,
/// progressive header, or progressive plane.
pub fn decode_response_body(frame: &Frame) -> Result<ResponseBody, WireError> {
    whole(frame, response_body)
}

/// A frame's payload as its encoder takes it, borrowed from the value it
/// carries. [`Payload::frame`] builds the frame in memory;
/// [`crate::transport::FrameIo::send`] streams the same bytes through a
/// connection's chunk. `Bye` and `Cancel` carry no payload.
#[derive(Debug, Clone, Copy)]
pub enum Payload<'a> {
    /// A client's handshake.
    Hello(Hello),
    /// The server's handshake reply.
    HelloAck(Hello),
    /// A request.
    Request(&'a DecomposeRequest),
    /// A terminal outcome, sent whole.
    Response(&'a ServeResult),
    /// The first frame of a progressive sequence.
    Header(&'a ProgressiveHeader),
    /// One detail plane, and whether more follow.
    Plane(&'a ProgressivePlane, bool),
    /// A clean goodbye.
    Bye,
    /// Stop sending this id's planes.
    Cancel,
    /// Send this id's planes through this sequence number.
    Credit(u32),
}

impl Payload<'_> {
    /// The header a frame of this payload goes out under as `id`: its
    /// length counted by the encoder itself, so every field too wide for
    /// its wire width fails here, before a byte is written.
    pub(crate) fn head(&self, id: u64) -> Result<Head, WireError> {
        let (kind, flags) = match *self {
            Payload::Hello(_) => (FrameKind::Hello, 0),
            Payload::HelloAck(_) => (FrameKind::HelloAck, 0),
            Payload::Request(_) => (FrameKind::Request, 0),
            Payload::Response(_) => (FrameKind::Response, 0),
            Payload::Header(h) => (
                FrameKind::Response,
                FLAG_CONTINUE * (h.planes_total > 0) as u8,
            ),
            Payload::Plane(_, more) => (FrameKind::Response, FLAG_CONTINUE * more as u8),
            Payload::Bye => (FrameKind::Bye, 0),
            Payload::Cancel => (FrameKind::Cancel, 0),
            Payload::Credit(_) => (FrameKind::Credit, 0),
        };
        let mut len = Count::default();
        self.write(&mut len)?;
        Ok(Head {
            kind,
            id,
            flags,
            len: len.0,
        })
    }

    /// Write the payload's bytes to `out`.
    pub(crate) fn write(&self, out: &mut impl Sink) -> Result<(), WireError> {
        match *self {
            Payload::Hello(h) | Payload::HelloAck(h) => put_hello(out, &h),
            Payload::Request(req) => put_request(out, req)?,
            Payload::Response(result) => put_response(out, result)?,
            Payload::Header(h) => put_progressive_header(out, h)?,
            Payload::Plane(p, _) => put_progressive_plane(out, p)?,
            Payload::Bye | Payload::Cancel => {}
            Payload::Credit(upto) => out.put(&upto.to_le_bytes()),
        }
        Ok(())
    }

    /// The frame this payload makes as `id`, its payload allocated once,
    /// at its exact length.
    pub fn frame(&self, id: u64) -> Result<Frame, WireError> {
        let head = self.head(id)?;
        let mut payload = Vec::with_capacity(head.len);
        self.write(&mut payload)?;
        Ok(head.frame(payload))
    }
}

/// A frame's payload decoded by its kind, as
/// [`crate::transport::FrameIo::recv`] delivers it — the owned
/// counterpart of [`Payload`].
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// A client's handshake.
    Hello(Hello),
    /// The server's handshake reply.
    HelloAck(Hello),
    /// A request.
    Request(DecomposeRequest),
    /// A terminal outcome, progressive header or plane.
    Response(ResponseBody),
    /// A clean goodbye.
    Bye,
    /// Stop sending this id's planes.
    Cancel,
    /// Send this id's planes through this sequence number.
    Credit(u32),
}

/// Decode the payload of a frame of `kind`, to its last byte.
pub(crate) fn message(r: &mut Reader<impl Source>, kind: FrameKind) -> Result<Message, WireError> {
    let msg = match kind {
        FrameKind::Hello => Message::Hello(hello(r)?),
        FrameKind::HelloAck => Message::HelloAck(hello(r)?),
        FrameKind::Request => Message::Request(request(r)?),
        FrameKind::Response => Message::Response(response_body(r)?),
        FrameKind::Bye => Message::Bye,
        FrameKind::Cancel => Message::Cancel,
        FrameKind::Credit => Message::Credit(r.u32()?),
    };
    r.done()?;
    Ok(msg)
}

/// Decode any frame's payload by its kind: what
/// [`crate::transport::FrameIo::recv`] makes of the same bytes as they
/// stream.
pub fn decode_message(frame: &Frame) -> Result<Message, WireError> {
    message(&mut Reader::new(&frame.payload[..]), frame.kind)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_request() -> DecomposeRequest {
        let img = Matrix::from_fn(8, 8, |r, c| (r * 8 + c) as f64 - 31.5);
        DecomposeRequest::new(img, FilterBank::haar(), 2)
            .with_priority(Priority::Interactive)
            .with_deadline(0.125)
    }

    #[test]
    fn frames_round_trip_bitwise() {
        let req = sample_request();
        for frame in [
            encode_hello(
                FrameKind::Hello,
                7,
                &Hello {
                    protocol: PROTOCOL_VERSION as u32,
                    max_payload: DEFAULT_MAX_PAYLOAD,
                    window: 4,
                },
            ),
            encode_request(42, &req).unwrap(),
            encode_response(
                42,
                &Err(Rejection::ShardFailed {
                    shard: 2,
                    restarts: 3,
                }),
            )
            .unwrap(),
            Frame::new(FrameKind::Bye, 0, Vec::new()),
            Frame::new(FrameKind::Cancel, 17, Vec::new()),
            encode_credit(17, 4),
            Frame::new(FrameKind::Response, 3, vec![9, 9]).with_continue(true),
        ] {
            let bytes = encode_frame(&frame).unwrap();
            let decoded = decode_complete(&bytes, DEFAULT_MAX_PAYLOAD).expect("valid frame");
            assert_eq!(decoded, frame);
        }
        let back =
            decode_request(&encode_request(9, &req).unwrap()).expect("valid request payload");
        assert_eq!(back.image, req.image);
        assert_eq!(back.bank, req.bank);
        assert_eq!(back.levels, req.levels);
        assert_eq!(back.deadline, req.deadline);
        assert_eq!(back.priority, req.priority);
    }

    /// Every payload-sized encoder allocates its payload once, at its
    /// exact length: a 2 MiB pyramid in a 2 MiB buffer, not a 4 MiB one.
    #[test]
    fn payloads_are_sized_exactly() {
        let (header, planes) = sample_progressive();
        let pyramid = dwt::dwt2d::decompose(
            &sample_request().image,
            &FilterBank::cdf97(),
            2,
            Boundary::Periodic,
        )
        .expect("dyadic geometry");
        let resp = DecomposeResponse {
            pyramid,
            cache_hit: true,
            batch_size: 2,
            wait_s: 0.5,
            service_s: 0.25,
            degraded: false,
            error_bound: 0.0,
        };
        let mut frames = vec![
            encode_request(1, &sample_request()).unwrap(),
            encode_request(
                2,
                &DecomposeRequest::new(resp.pyramid.approx.clone(), FilterBank::cdf53(), 1),
            )
            .unwrap(),
            encode_response(3, &Ok(resp)).unwrap(),
            encode_progressive_header(4, &header).unwrap(),
        ];
        for p in &planes {
            frames.push(encode_progressive_plane(4, p, true).unwrap());
        }
        for f in frames {
            assert_eq!(f.payload.capacity(), f.payload.len(), "{:?} frame", f.kind);
        }
    }

    #[test]
    fn undefined_flag_bits_are_rejected_both_ways() {
        let mut frame = Frame::new(FrameKind::Bye, 0, Vec::new());
        frame.flags = 0x82;
        assert!(matches!(
            encode_frame(&frame),
            Err(WireError::FrameCorrupt { .. })
        ));
        let mut bytes = encode_frame(&Frame::new(FrameKind::Bye, 0, Vec::new())).unwrap();
        bytes[6] = 0x02;
        assert!(matches!(
            decode_frame(&bytes, DEFAULT_MAX_PAYLOAD),
            Err(WireError::FrameCorrupt { .. })
        ));
        // Reserved byte 7 must stay zero too.
        let mut bytes = encode_frame(&Frame::new(FrameKind::Bye, 0, Vec::new())).unwrap();
        bytes[7] = 1;
        assert!(matches!(
            decode_frame(&bytes, DEFAULT_MAX_PAYLOAD),
            Err(WireError::FrameCorrupt { .. })
        ));
    }

    #[test]
    fn continue_flag_round_trips_and_reads_back() {
        let f = Frame::new(FrameKind::Response, 5, vec![1]).with_continue(true);
        assert!(f.more_follows());
        let bytes = encode_frame(&f).unwrap();
        let got = decode_complete(&bytes, DEFAULT_MAX_PAYLOAD).unwrap();
        assert!(got.more_follows());
        assert_eq!(got, f);
        assert!(!Frame::new(FrameKind::Response, 5, vec![1]).more_follows());
    }

    #[test]
    fn oversized_matrix_dims_are_typed_at_encode_time() {
        // A Matrix with > u32::MAX rows cannot be built in a test, so
        // exercise the checked helper directly.
        match wire_u32(u32::MAX as usize + 1, "matrix rows") {
            Err(WireError::FrameTooLarge { len, max }) => {
                assert_eq!(len, u32::MAX as u64 + 1);
                assert_eq!(max, u32::MAX as u64);
            }
            other => panic!("expected FrameTooLarge, got {other:?}"),
        }
        assert_eq!(wire_u32(7, "ok").unwrap(), 7);
    }

    fn sample_progressive() -> (ProgressiveHeader, Vec<ProgressivePlane>) {
        let header = ProgressiveHeader {
            cache_hit: true,
            degraded: false,
            batch_size: 3,
            wait_s: 0.25,
            service_s: 0.5,
            base_error_bound: 0.0,
            rows: 8,
            cols: 8,
            levels: 2,
            planes_total: 6,
            codec_tolerance: 0.05,
            bound_after: 1.5,
            approx: Matrix::from_fn(2, 2, |r, c| (r + c) as f64),
        };
        let planes = vec![
            ProgressivePlane {
                seq: 1,
                level: 2,
                band: PlaneBand::Lh,
                rows: 2,
                cols: 2,
                bound_after: 0.75,
                coeffs: PlaneCoeffs::Dense(vec![1.0, -2.0, 0.0, 0.5]),
            },
            ProgressivePlane {
                seq: 2,
                level: 1,
                band: PlaneBand::Hh,
                rows: 4,
                cols: 4,
                bound_after: 0.05,
                coeffs: PlaneCoeffs::Sparse(vec![(0, 3.0), (5, -1.25), (15, 0.125)]),
            },
        ];
        (header, planes)
    }

    #[test]
    fn progressive_payloads_round_trip() {
        let (header, planes) = sample_progressive();
        let hf = encode_progressive_header(11, &header).unwrap();
        assert!(hf.more_follows(), "planes follow, CONTINUE must be set");
        match decode_response_body(&hf).unwrap() {
            ResponseBody::Header(got) => assert_eq!(got, header),
            other => panic!("expected header, got {other:?}"),
        }
        for (i, p) in planes.iter().enumerate() {
            let more = i + 1 < planes.len();
            let pf = encode_progressive_plane(11, p, more).unwrap();
            assert_eq!(pf.more_follows(), more);
            match decode_response_body(&pf).unwrap() {
                ResponseBody::Plane(got) => assert_eq!(&got, p),
                other => panic!("expected plane, got {other:?}"),
            }
        }
        // decode_response refuses progressive payloads with a typed error.
        assert!(matches!(
            decode_response(&hf),
            Err(WireError::FrameCorrupt { .. })
        ));
        // decode_response_body still passes terminal outcomes through.
        let term = encode_response(11, &Err(Rejection::Draining)).unwrap();
        assert!(matches!(
            decode_response_body(&term).unwrap(),
            ResponseBody::Outcome(Err(Rejection::Draining))
        ));
    }

    #[test]
    fn progressive_decode_rejects_malformed_planes() {
        let (header, planes) = sample_progressive();
        // Sparse indices must be strictly ascending.
        let mut bad = planes[1].clone();
        bad.coeffs = PlaneCoeffs::Sparse(vec![(5, 1.0), (5, 2.0)]);
        let f = encode_progressive_plane(1, &bad, false).unwrap();
        assert!(matches!(
            decode_response_body(&f),
            Err(WireError::FrameCorrupt { .. })
        ));
        // Sparse index out of range.
        let mut bad = planes[1].clone();
        bad.coeffs = PlaneCoeffs::Sparse(vec![(16, 1.0)]);
        let f = encode_progressive_plane(1, &bad, false).unwrap();
        assert!(matches!(
            decode_response_body(&f),
            Err(WireError::FrameCorrupt { .. })
        ));
        // Dense length mismatch is caught at encode time.
        let mut bad = planes[0].clone();
        bad.coeffs = PlaneCoeffs::Dense(vec![1.0]);
        assert!(matches!(
            encode_progressive_plane(1, &bad, false),
            Err(WireError::FrameCorrupt { .. })
        ));
        // Header with inconsistent plane count.
        let mut badh = header.clone();
        badh.planes_total = 5;
        let f = encode_progressive_header(1, &badh).unwrap();
        assert!(matches!(
            decode_response_body(&f),
            Err(WireError::FrameCorrupt { .. })
        ));
    }

    #[test]
    fn banks_round_trip_including_lifting_kinds() {
        for bank in [
            FilterBank::haar(),
            FilterBank::daubechies(4).unwrap(),
            FilterBank::cdf53(),
            FilterBank::cdf97(),
        ] {
            let mut out = Vec::new();
            encode_bank(&mut out, &bank).unwrap();
            let got = decode_bank(&mut Reader::new(&out[..])).expect("valid bank");
            assert_eq!(got, bank);
            assert_eq!(got.lifting_kind(), bank.lifting_kind());
        }
    }

    #[test]
    fn bit_flips_are_caught_by_the_checksum() {
        let bytes = encode_frame(&encode_request(1, &sample_request()).unwrap()).unwrap();
        for pos in [4usize, 9, HEADER_LEN + 3, bytes.len() - 12] {
            let mut bad = bytes.clone();
            bad[pos] ^= 0x10;
            let err = decode_complete(&bad, DEFAULT_MAX_PAYLOAD).expect_err("flip must fail");
            assert!(matches!(err, WireError::FrameCorrupt { .. }), "{err}");
        }
    }

    #[test]
    fn oversized_declared_payload_is_too_large_before_allocation() {
        let mut bytes = encode_frame(&Frame::new(FrameKind::Bye, 0, Vec::new())).unwrap();
        bytes[16..20].copy_from_slice(&u32::MAX.to_le_bytes());
        match decode_frame(&bytes, 1024) {
            Err(WireError::FrameTooLarge { len, max }) => {
                assert_eq!(len, u32::MAX as u64);
                assert_eq!(max, 1024);
            }
            other => panic!("expected FrameTooLarge, got {other:?}"),
        }
    }

    #[test]
    fn truncation_is_typed_not_a_panic() {
        let bytes = encode_frame(&encode_request(1, &sample_request()).unwrap()).unwrap();
        for cut in [
            0usize,
            3,
            7,
            HEADER_LEN - 1,
            HEADER_LEN + 5,
            bytes.len() - 1,
        ] {
            match decode_frame(&bytes[..cut], DEFAULT_MAX_PAYLOAD) {
                Ok(None) | Err(WireError::FrameCorrupt { .. }) => {}
                other => panic!("cut at {cut}: unexpected {other:?}"),
            }
            assert!(matches!(
                decode_complete(&bytes[..cut], DEFAULT_MAX_PAYLOAD),
                Err(WireError::FrameCorrupt { .. })
            ));
        }
    }

    #[test]
    fn streaming_decode_consumes_exactly_one_frame() {
        let a = encode_frame(&encode_request(1, &sample_request()).unwrap()).unwrap();
        let b = encode_frame(&Frame::new(FrameKind::Bye, 9, Vec::new())).unwrap();
        let mut stream = a.clone();
        stream.extend_from_slice(&b);
        let (f1, n1) = decode_frame(&stream, DEFAULT_MAX_PAYLOAD)
            .expect("valid")
            .expect("complete");
        assert_eq!(n1, a.len());
        assert_eq!(f1.kind, FrameKind::Request);
        let (f2, n2) = decode_frame(&stream[n1..], DEFAULT_MAX_PAYLOAD)
            .expect("valid")
            .expect("complete");
        assert_eq!(n2, b.len());
        assert_eq!(f2.kind, FrameKind::Bye);
        assert_eq!(f2.id, 9);
    }
}
