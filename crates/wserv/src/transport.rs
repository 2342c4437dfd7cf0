//! Byte transports and framed I/O for remote `wserv`.
//!
//! Two transports sit behind one [`Transport`] trait:
//!
//! * [`TcpTransport`] — localhost TCP via `std::net`, the real wire;
//! * the in-memory bounded duplex pipe from [`mem_pair`] /
//!   [`MemListener`] — same semantics (backpressure, half-close, EOF,
//!   abortive reset) with no sockets, so the whole remote stack builds
//!   and tests in sandboxes with no network at all.
//!
//! [`FrameIo`] layers the wire protocol ([`crate::wire`]) on top of
//! either: incremental frame decode on the receive side, and — on the
//! send side — deterministic fault injection from a seeded
//! [`WireFaultPlan`]. Fault coordinates are `(connection id, direction,
//! cumulative frame index)`; the cumulative counters live in a shared
//! [`WireClock`] so they survive reconnects and a one-shot fault stays
//! one-shot across the retry that follows it.
//!
//! Every failure surfaces as a typed [`TransportError`]; the taxonomy
//! is part of the API and each variant implements `Display` +
//! `std::error::Error`.

use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::io::ErrorKind::{Interrupted, TimedOut, WouldBlock};
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use crate::faults::{WireDir, WireFault, WireFaultPlan};
use crate::wire::{decode_frame, encode_frame, Frame, WireError, DEFAULT_MAX_PAYLOAD};

/// Typed transport failure. The taxonomy every remote caller matches
/// on; all variants are terminal for the connection they occur on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransportError {
    /// The peer went away abortively (reset mid-frame, broken pipe, or
    /// an injected reset). Idempotent work is safe to resubmit on a
    /// fresh connection.
    ConnReset,
    /// No bytes arrived within the caller's patience window.
    ConnTimeout {
        /// How long the caller waited, in milliseconds (integral so
        /// the error stays `Eq` and hashable).
        waited_ms: u64,
    },
    /// A frame declared a payload larger than the receive window.
    FrameTooLarge {
        /// Declared payload length.
        len: u64,
        /// The receive window it exceeded.
        max: u64,
    },
    /// The byte stream stopped being a frame stream: bad magic or
    /// version, checksum mismatch, truncated frame at EOF, or a payload
    /// that does not parse. Framing is unrecoverable past this point.
    FrameCorrupt {
        /// Human-readable cause.
        detail: String,
    },
    /// The peer speaks a different protocol or violated the handshake
    /// sequence. Retrying will not help.
    HandshakeMismatch {
        /// Human-readable cause.
        detail: String,
    },
    /// The caller's own configuration is unusable (e.g. a retry policy
    /// with zero attempts). Purely local; nothing was sent.
    InvalidConfig {
        /// Human-readable cause.
        detail: String,
    },
}

impl fmt::Display for TransportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransportError::ConnReset => write!(f, "connection reset by peer"),
            TransportError::ConnTimeout { waited_ms } => {
                write!(f, "connection timed out after {waited_ms} ms")
            }
            TransportError::FrameTooLarge { len, max } => {
                write!(
                    f,
                    "frame payload {len} B exceeds the {max} B receive window"
                )
            }
            TransportError::FrameCorrupt { detail } => write!(f, "corrupt frame: {detail}"),
            TransportError::HandshakeMismatch { detail } => {
                write!(f, "handshake mismatch: {detail}")
            }
            TransportError::InvalidConfig { detail } => {
                write!(f, "invalid configuration: {detail}")
            }
        }
    }
}

impl std::error::Error for TransportError {}

impl From<WireError> for TransportError {
    fn from(e: WireError) -> Self {
        match e {
            WireError::FrameCorrupt { detail } => TransportError::FrameCorrupt { detail },
            WireError::FrameTooLarge { len, max } => TransportError::FrameTooLarge { len, max },
        }
    }
}

/// Outcome of one byte-level receive attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Recv {
    /// `n` bytes arrived.
    Data(usize),
    /// The peer half-closed its sending side (clean FIN), or this side
    /// closed its reading side ([`Transport::close_read`]).
    Eof,
    /// The caller's deadline passed with nothing received; the stream
    /// is still open. Never returned to a receive without a deadline.
    Idle,
}

/// A bidirectional byte stream: the minimal surface the frame layer
/// needs, implemented by TCP and by the in-memory pipe.
pub trait Transport: Send {
    /// Write all of `bytes`, blocking on backpressure. A send into a
    /// closed or reset stream is [`TransportError::ConnReset`].
    fn send(&mut self, bytes: &[u8]) -> Result<(), TransportError>;

    /// Read up to `buf.len()` bytes, blocking until some arrive, the
    /// stream ends, or `deadline` (if any) passes.
    fn recv(&mut self, buf: &mut [u8], deadline: Option<Instant>) -> Result<Recv, TransportError>;

    /// Half-close: flush and FIN the sending side; the peer's reads
    /// drain what was sent, then see [`Recv::Eof`].
    fn shutdown_write(&mut self);

    /// Close the receiving side from any handle onto the connection:
    /// reads — a blocked one included — deliver what already arrived,
    /// then [`Recv::Eof`]. The peer's sends are unaffected. Drain uses
    /// it to wake every reader.
    fn close_read(&mut self);

    /// Abortive close of both directions — the peer observes a reset,
    /// not a clean EOF. Used by injected [`WireFault::Reset`], by a
    /// server writer that can no longer deliver, and by drain for a
    /// reader cut off mid-frame.
    fn abort(&mut self);

    /// A second handle onto the same connection, so a reader thread and
    /// a writer thread can share it without a lock. `None` if the
    /// transport cannot be duplicated. There is no single-threaded
    /// fallback: the server reads the connection's `Hello`, then closes
    /// it abortively without an ack, so the client sees a reset and
    /// retries under its own policy.
    fn try_clone(&self) -> Option<Box<dyn Transport>>;
}

// ---------------------------------------------------------------------
// TCP
// ---------------------------------------------------------------------

/// Localhost TCP implementation of [`Transport`].
pub struct TcpTransport {
    stream: TcpStream,
    aborted: bool,
}

impl TcpTransport {
    /// Wrap a connected stream with a generous write timeout (writes
    /// only stall under pathological backpressure; the bound keeps
    /// drain finite). Reads block until data, EOF or their deadline.
    /// `_tick` is ignored: it is kept only so existing callers compile.
    pub fn new(stream: TcpStream, _tick: Duration) -> Result<Self, TransportError> {
        stream
            .set_nodelay(true)
            .map_err(|_| TransportError::ConnReset)?;
        stream
            .set_write_timeout(Some(Duration::from_secs(10)))
            .map_err(|_| TransportError::ConnReset)?;
        Ok(TcpTransport {
            stream,
            aborted: false,
        })
    }

    /// Connect to `addr` and arm it as [`TcpTransport::new`] does;
    /// `_tick` is ignored the same way.
    pub fn connect(addr: SocketAddr, _tick: Duration) -> Result<Self, TransportError> {
        let stream = TcpStream::connect(addr).map_err(|_| TransportError::ConnReset)?;
        TcpTransport::new(stream, Duration::ZERO)
    }
}

impl Transport for TcpTransport {
    fn send(&mut self, bytes: &[u8]) -> Result<(), TransportError> {
        if self.aborted {
            return Err(TransportError::ConnReset);
        }
        self.stream
            .write_all(bytes)
            .map_err(|_| TransportError::ConnReset)
    }

    fn recv(&mut self, buf: &mut [u8], deadline: Option<Instant>) -> Result<Recv, TransportError> {
        loop {
            if self.aborted {
                return Err(TransportError::ConnReset);
            }
            let timeout = match deadline.map(|d| d.saturating_duration_since(Instant::now())) {
                Some(left) if left.is_zero() => return Ok(Recv::Idle),
                left => left,
            };
            self.stream
                .set_read_timeout(timeout)
                .map_err(|_| TransportError::ConnReset)?;
            match self.stream.read(buf) {
                Ok(0) => return Ok(Recv::Eof),
                Ok(n) => return Ok(Recv::Data(n)),
                // The loop re-reads the clock: a timeout that fires a
                // hair early, or a signal, is not yet the deadline.
                Err(e) if matches!(e.kind(), WouldBlock | TimedOut | Interrupted) => {}
                Err(_) => return Err(TransportError::ConnReset),
            }
        }
    }

    fn shutdown_write(&mut self) {
        let _ = self.stream.shutdown(Shutdown::Write);
    }

    fn close_read(&mut self) {
        let _ = self.stream.shutdown(Shutdown::Read);
    }

    fn abort(&mut self) {
        // Dropping with unread inbound bytes makes the kernel RST; a
        // plain both-ways shutdown is the closest portable gesture.
        self.aborted = true;
        let _ = self.stream.shutdown(Shutdown::Both);
    }

    fn try_clone(&self) -> Option<Box<dyn Transport>> {
        self.stream.try_clone().ok().map(|stream| {
            Box::new(TcpTransport {
                stream,
                aborted: self.aborted,
            }) as Box<dyn Transport>
        })
    }
}

// ---------------------------------------------------------------------
// In-memory bounded duplex pipe
// ---------------------------------------------------------------------

struct PipeState {
    buf: VecDeque<u8>,
    write_closed: bool,
    /// The reading end closed its side: reads see EOF once `buf` is
    /// empty, while sends still land, as on a TCP socket after
    /// `shutdown(Read)`.
    read_closed: bool,
    broken: bool,
}

struct Pipe {
    state: Mutex<PipeState>,
    capacity: usize,
    readable: Condvar,
    writable: Condvar,
}

impl Pipe {
    fn new(capacity: usize) -> Arc<Pipe> {
        Arc::new(Pipe {
            state: Mutex::new(PipeState {
                buf: VecDeque::new(),
                write_closed: false,
                read_closed: false,
                broken: false,
            }),
            capacity,
            readable: Condvar::new(),
            writable: Condvar::new(),
        })
    }
}

/// One end of an in-memory duplex byte pipe. Each direction is a
/// bounded ring of `capacity` bytes, so a slow reader backpressures the
/// writer exactly like a full TCP send buffer would.
pub struct MemTransport {
    tx: Arc<Pipe>,
    rx: Arc<Pipe>,
}

/// Build a connected duplex pair: what one end sends the other
/// receives. `capacity` bounds each direction's in-flight bytes (the
/// backpressure window). `_tick` is ignored: every wait on the pipe is
/// woken by the event that ends it.
pub fn mem_pair(capacity: usize, _tick: Duration) -> (MemTransport, MemTransport) {
    let a = Pipe::new(capacity);
    let b = Pipe::new(capacity);
    (
        MemTransport {
            tx: Arc::clone(&a),
            rx: Arc::clone(&b),
        },
        MemTransport { tx: b, rx: a },
    )
}

impl Transport for MemTransport {
    fn send(&mut self, bytes: &[u8]) -> Result<(), TransportError> {
        let mut sent = 0;
        while sent < bytes.len() {
            let mut st = self.tx.state.lock();
            if st.broken || st.write_closed {
                return Err(TransportError::ConnReset);
            }
            let room = self.tx.capacity.saturating_sub(st.buf.len());
            if room == 0 {
                // Backpressured: park until the reader drains bytes or
                // the pipe breaks; both notify `writable`.
                self.tx.writable.wait(&mut st);
                continue;
            }
            let n = room.min(bytes.len() - sent);
            st.buf.extend(&bytes[sent..sent + n]);
            sent += n;
            self.tx.readable.notify_all();
        }
        Ok(())
    }

    fn recv(&mut self, buf: &mut [u8], deadline: Option<Instant>) -> Result<Recv, TransportError> {
        let mut st = self.rx.state.lock();
        // Park until bytes, a close or a break: each notifies `readable`.
        while st.buf.is_empty() && !st.broken && !st.write_closed && !st.read_closed {
            match deadline.map(|d| d.saturating_duration_since(Instant::now())) {
                None => self.rx.readable.wait(&mut st),
                Some(left) if left.is_zero() => break,
                Some(left) => _ = self.rx.readable.wait_for(&mut st, left),
            }
        }
        // Bytes already in the pipe are delivered before the state that
        // follows them.
        if st.buf.is_empty() {
            return if st.broken {
                Err(TransportError::ConnReset)
            } else if st.write_closed || st.read_closed {
                Ok(Recv::Eof)
            } else {
                Ok(Recv::Idle)
            };
        }
        let n = buf.len().min(st.buf.len());
        let (front, back) = st.buf.as_slices();
        let head = n.min(front.len());
        buf[..head].copy_from_slice(&front[..head]);
        buf[head..n].copy_from_slice(&back[..n - head]);
        st.buf.drain(..n);
        self.rx.writable.notify_all();
        Ok(Recv::Data(n))
    }

    fn shutdown_write(&mut self) {
        let mut st = self.tx.state.lock();
        st.write_closed = true;
        self.tx.readable.notify_all();
        self.tx.writable.notify_all();
    }

    fn close_read(&mut self) {
        let mut st = self.rx.state.lock();
        st.read_closed = true;
        self.rx.readable.notify_all();
    }

    fn abort(&mut self) {
        for pipe in [&self.tx, &self.rx] {
            let mut st = pipe.state.lock();
            st.broken = true;
            pipe.readable.notify_all();
            pipe.writable.notify_all();
        }
    }

    fn try_clone(&self) -> Option<Box<dyn Transport>> {
        Some(Box::new(MemTransport {
            tx: Arc::clone(&self.tx),
            rx: Arc::clone(&self.rx),
        }))
    }
}

/// Accept side of the in-memory transport: clients [`MemListener::connect`],
/// the server accepts the other end of each pair.
#[derive(Clone)]
pub struct MemListener {
    inner: Arc<MemListenerState>,
    capacity: usize,
}

struct MemListenerState {
    queue: Mutex<(VecDeque<MemTransport>, bool)>,
    pending: Condvar,
}

impl MemListener {
    /// A listener whose accepted connections use `capacity`-byte
    /// per-direction windows. `_tick` is ignored, as in [`mem_pair`].
    pub fn new(capacity: usize, _tick: Duration) -> Self {
        MemListener {
            inner: Arc::new(MemListenerState {
                queue: Mutex::new((VecDeque::new(), false)),
                pending: Condvar::new(),
            }),
            capacity,
        }
    }

    /// Dial the listener: returns the client end, queues the server end
    /// for `accept`. Fails with [`TransportError::ConnReset`] once the
    /// listener is closed (drain).
    pub fn connect(&self) -> Result<MemTransport, TransportError> {
        let (client, server) = mem_pair(self.capacity, Duration::ZERO);
        let mut q = self.inner.queue.lock();
        if q.1 {
            return Err(TransportError::ConnReset);
        }
        q.0.push_back(server);
        self.inner.pending.notify_all();
        Ok(client)
    }
}

// ---------------------------------------------------------------------
// Accept / dial abstractions
// ---------------------------------------------------------------------

/// Server-side accept surface over either transport.
pub trait Listener: Send + Sync {
    /// Take one connection, blocking until a peer dials; `None` once
    /// the listener is closed.
    fn accept(&self) -> Option<Box<dyn Transport>>;

    /// Stop admitting new connections (drain), waking a blocked
    /// [`Listener::accept`] on another thread.
    fn close(&self);
}

/// Client-side dial surface over either transport.
pub trait Connector: Send {
    /// Open a fresh connection to the server.
    fn dial(&self) -> Result<Box<dyn Transport>, TransportError>;
}

/// Pending pairs are handed out in dial order; once closed, future
/// dials fail and already-queued pairs still accept (they connected
/// before the drain).
impl Listener for MemListener {
    fn accept(&self) -> Option<Box<dyn Transport>> {
        let mut q = self.inner.queue.lock();
        // Both a dial and `close` notify `pending`.
        while q.0.is_empty() && !q.1 {
            self.inner.pending.wait(&mut q);
        }
        q.0.pop_front().map(|t| Box::new(t) as Box<dyn Transport>)
    }

    fn close(&self) {
        self.inner.queue.lock().1 = true;
        self.inner.pending.notify_all();
    }
}

impl Connector for MemListener {
    fn dial(&self) -> Result<Box<dyn Transport>, TransportError> {
        self.connect().map(|t| Box::new(t) as Box<dyn Transport>)
    }
}

/// How long [`TcpAcceptor`] pauses after a failed accept. Only an error
/// sleeps; an idle acceptor blocks in the kernel.
const ACCEPT_ERROR_BACKOFF: Duration = Duration::from_millis(10);

/// TCP accept side: a bound localhost listener with a blocking accept.
pub struct TcpAcceptor {
    listener: std::net::TcpListener,
    closed: AtomicBool,
}

impl TcpAcceptor {
    /// Bind `addr` (use port 0 for an ephemeral port). `_tick` is
    /// ignored: [`Listener::close`] wakes the accept.
    pub fn bind(addr: &str, _tick: Duration) -> Result<Self, TransportError> {
        let listener = std::net::TcpListener::bind(addr).map_err(|_| TransportError::ConnReset)?;
        Ok(TcpAcceptor {
            listener,
            closed: AtomicBool::new(false),
        })
    }

    /// The bound address (what clients dial).
    pub fn local_addr(&self) -> SocketAddr {
        self.listener
            .local_addr()
            .expect("bound listener has an addr")
    }
}

impl Listener for TcpAcceptor {
    fn accept(&self) -> Option<Box<dyn Transport>> {
        while !self.closed.load(Ordering::SeqCst) {
            // An accept error is a peer that reset in the backlog, or the
            // host out of descriptors: take the next dial, but pause
            // first so a lasting condition is not a busy loop.
            let Ok((stream, _)) = self.listener.accept() else {
                std::thread::sleep(ACCEPT_ERROR_BACKOFF);
                continue;
            };
            if self.closed.load(Ordering::SeqCst) {
                break;
            }
            if let Ok(t) = TcpTransport::new(stream, Duration::ZERO) {
                return Some(Box::new(t));
            }
        }
        None
    }

    fn close(&self) {
        // Raise the flag, then dial ourselves so a blocked accept
        // returns and sees it. Later dials queue in the backlog and are
        // reset when the acceptor drops.
        self.closed.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.local_addr());
    }
}

/// TCP dial side.
pub struct TcpConnector {
    /// Server address.
    pub addr: SocketAddr,
    /// Ignored, like the tick of [`TcpTransport::connect`]; kept only
    /// so existing callers compile.
    pub tick: Duration,
}

impl Connector for TcpConnector {
    fn dial(&self) -> Result<Box<dyn Transport>, TransportError> {
        TcpTransport::connect(self.addr, self.tick).map(|t| Box::new(t) as Box<dyn Transport>)
    }
}

// ---------------------------------------------------------------------
// Framed I/O with fault injection
// ---------------------------------------------------------------------

/// Shared cumulative frame counters keyed by `(connection id,
/// direction)`. One clock lives on each side of the protocol and
/// survives reconnects, so fault coordinates are stable across retries
/// and identical between the live drivers and the simulator.
#[derive(Default)]
pub struct WireClock {
    counts: Mutex<HashMap<(u64, u8), u64>>,
}

impl WireClock {
    /// A fresh clock with all counters at zero.
    pub fn new() -> Arc<WireClock> {
        Arc::new(WireClock::default())
    }

    /// The next frame index for `(conn, dir)` (post-incremented).
    pub fn next(&self, conn: u64, dir: WireDir) -> u64 {
        let mut counts = self.counts.lock();
        let slot = counts.entry((conn, dir as u8)).or_insert(0);
        let idx = *slot;
        *slot += 1;
        idx
    }
}

/// Byte/frame counters for one framed connection; folded into
/// [`crate::metrics::TransportMetrics`] when the connection ends.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct WireStats {
    /// Frames fully sent.
    pub frames_out: u64,
    /// Frames fully received and verified.
    pub frames_in: u64,
    /// Bytes put on the wire (including injected-fault partial sends).
    pub bytes_out: u64,
    /// Bytes taken off the wire.
    pub bytes_in: u64,
    /// Seconds spent encoding and decoding frames (serialization cost,
    /// charged to the Communication lane).
    pub ser_s: f64,
    /// Faults this side injected on its send path.
    pub faults_injected: u64,
}

/// Outcome of one framed receive attempt.
#[derive(Debug, Clone, PartialEq)]
pub enum RecvFrame {
    /// One complete, checksum-verified frame.
    Frame(Frame),
    /// Clean EOF between frames (peer finished sending, or this side
    /// closed its reading side).
    Eof,
    /// The deadline of [`FrameIo::recv_frame_until`] passed with the
    /// frame still incomplete.
    Idle,
}

/// A framed connection: incremental decode over any [`Transport`], with
/// seeded wire faults injected on the send path.
pub struct FrameIo {
    io: Box<dyn Transport>,
    conn: u64,
    dir: WireDir,
    rbuf: Vec<u8>,
    max_payload: u32,
    faults: WireFaultPlan,
    clock: Arc<WireClock>,
    /// Live counters for this connection.
    pub stats: WireStats,
}

impl FrameIo {
    /// Frame `io`. `conn` and `dir` are this side's fault coordinates
    /// (`dir` is the direction of *our* sends); `clock` supplies the
    /// cumulative frame indices the `faults` plan keys on.
    pub fn new(
        io: Box<dyn Transport>,
        conn: u64,
        dir: WireDir,
        faults: WireFaultPlan,
        clock: Arc<WireClock>,
    ) -> Self {
        FrameIo {
            io,
            conn,
            dir,
            rbuf: Vec::new(),
            max_payload: DEFAULT_MAX_PAYLOAD,
            faults,
            clock,
            stats: WireStats::default(),
        }
    }

    /// Shrink the payload window (received frames declaring more, and
    /// attempts to *send* more, are [`TransportError::FrameTooLarge`]).
    pub fn with_max_payload(mut self, max_payload: u32) -> Self {
        self.max_payload = max_payload;
        self
    }

    /// Adjust the payload window in place — used after handshake
    /// negotiation settles on `min(client, server)`.
    pub fn set_max_payload(&mut self, max_payload: u32) {
        self.max_payload = max_payload;
    }

    /// Re-key the fault coordinates once the peer's identity is known
    /// (a server learns the connection id from the client's Hello).
    pub fn set_conn(&mut self, conn: u64) {
        self.conn = conn;
    }

    /// Encode and send one frame, injecting whatever the fault plan
    /// schedules at this `(conn, dir, frame index)`. Injected resets
    /// and truncations kill the connection and surface as
    /// [`TransportError::ConnReset`] to this side too, so callers
    /// immediately fail over instead of waiting out a timeout.
    ///
    /// Payloads over the negotiated window are refused *before* any
    /// bytes hit the wire ([`TransportError::FrameTooLarge`]) — the
    /// connection stays usable and no fault index is consumed.
    pub fn send_frame(&mut self, frame: &Frame) -> Result<(), TransportError> {
        if frame.payload.len() as u64 > self.max_payload as u64 {
            return Err(TransportError::FrameTooLarge {
                len: frame.payload.len() as u64,
                max: self.max_payload as u64,
            });
        }
        let idx = self.clock.next(self.conn, self.dir);
        let t0 = Instant::now();
        let mut bytes = encode_frame(frame)?;
        self.stats.ser_s += t0.elapsed().as_secs_f64();
        let fault = self.faults.decide(self.conn, self.dir, idx);
        self.stats.faults_injected += fault.is_some() as u64;
        match fault {
            None => {}
            Some(WireFault::BitFlip { entropy }) => {
                let bit = (entropy % (bytes.len() as u64 * 8)) as usize;
                bytes[bit / 8] ^= 1 << (bit % 8);
            }
            Some(cut @ (WireFault::Truncate | WireFault::Reset)) => {
                // Half the frame, then either a clean FIN (the peer sees
                // EOF mid-frame and types it FrameCorrupt) or an
                // abortive close (the peer sees a reset, not an EOF).
                let half = &bytes[..bytes.len() / 2];
                let _ = self.io.send(half);
                self.stats.bytes_out += half.len() as u64;
                if cut == WireFault::Truncate {
                    self.io.shutdown_write();
                } else {
                    self.io.abort();
                }
                return Err(TransportError::ConnReset);
            }
            Some(WireFault::Stall { seconds }) => {
                std::thread::sleep(Duration::from_secs_f64(seconds));
            }
        }
        self.io.send(&bytes)?;
        self.stats.bytes_out += bytes.len() as u64;
        self.stats.frames_out += 1;
        Ok(())
    }

    /// Receive one frame, blocking until it is complete or the stream
    /// ends; never [`RecvFrame::Idle`]. Corrupt bytes, oversized
    /// declarations, truncation at EOF and resets all surface as their
    /// typed [`TransportError`].
    pub fn recv_frame(&mut self) -> Result<RecvFrame, TransportError> {
        self.recv_frame_by(None)
    }

    /// [`FrameIo::recv_frame`], giving up with [`RecvFrame::Idle`] once
    /// `deadline` passes. Bytes of an incomplete frame stay buffered for
    /// the next call.
    pub fn recv_frame_until(&mut self, deadline: Instant) -> Result<RecvFrame, TransportError> {
        self.recv_frame_by(Some(deadline))
    }

    fn recv_frame_by(&mut self, deadline: Option<Instant>) -> Result<RecvFrame, TransportError> {
        loop {
            if !self.rbuf.is_empty() {
                let t0 = Instant::now();
                let decoded = decode_frame(&self.rbuf, self.max_payload);
                self.stats.ser_s += t0.elapsed().as_secs_f64();
                match decoded {
                    Ok(Some((frame, consumed))) => {
                        self.rbuf.drain(..consumed);
                        self.stats.frames_in += 1;
                        return Ok(RecvFrame::Frame(frame));
                    }
                    Ok(None) => {}
                    Err(e) => return Err(e.into()),
                }
            }
            let mut chunk = [0u8; 16 * 1024];
            match self.io.recv(&mut chunk, deadline)? {
                Recv::Data(n) => {
                    self.rbuf.extend_from_slice(&chunk[..n]);
                    self.stats.bytes_in += n as u64;
                }
                Recv::Eof => {
                    return if self.rbuf.is_empty() {
                        Ok(RecvFrame::Eof)
                    } else {
                        Err(TransportError::FrameCorrupt {
                            detail: "stream ended mid-frame".into(),
                        })
                    };
                }
                Recv::Idle => return Ok(RecvFrame::Idle),
            }
        }
    }

    /// Half-close the sending side (clean goodbye).
    pub fn shutdown_write(&mut self) {
        self.io.shutdown_write();
    }

    /// Abortively close both directions.
    pub fn abort(&mut self) {
        self.io.abort();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::FrameKind;

    fn tick() -> Duration {
        Duration::from_millis(2)
    }

    fn frame(id: u64, n: usize) -> Frame {
        Frame::new(
            FrameKind::Request,
            id,
            (0..n).map(|i| (i % 251) as u8).collect(),
        )
    }

    #[test]
    fn mem_pair_round_trips_frames_both_ways() {
        let (a, b) = mem_pair(1 << 16, tick());
        let clock = WireClock::new();
        let mut a = FrameIo::new(
            Box::new(a),
            1,
            WireDir::ClientToServer,
            WireFaultPlan::none(),
            Arc::clone(&clock),
        );
        let mut b = FrameIo::new(
            Box::new(b),
            1,
            WireDir::ServerToClient,
            WireFaultPlan::none(),
            clock,
        );
        a.send_frame(&frame(7, 100)).unwrap();
        match b.recv_frame().unwrap() {
            RecvFrame::Frame(f) => assert_eq!(f, frame(7, 100)),
            other => panic!("unexpected {other:?}"),
        }
        b.send_frame(&frame(8, 3)).unwrap();
        match a.recv_frame().unwrap() {
            RecvFrame::Frame(f) => assert_eq!(f.id, 8),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn bounded_pipe_backpressures_until_the_reader_drains() {
        // Window far smaller than the frame: the send must interleave
        // with reads instead of ballooning memory.
        let (a, b) = mem_pair(64, tick());
        let clock = WireClock::new();
        let mut tx = FrameIo::new(
            Box::new(a),
            1,
            WireDir::ClientToServer,
            WireFaultPlan::none(),
            Arc::clone(&clock),
        );
        let mut rx = FrameIo::new(
            Box::new(b),
            1,
            WireDir::ServerToClient,
            WireFaultPlan::none(),
            clock,
        );
        let big = frame(9, 4096);
        let big2 = big.clone();
        let h = std::thread::spawn(move || tx.send_frame(&big2));
        assert_eq!(rx.recv_frame().unwrap(), RecvFrame::Frame(big));
        h.join().unwrap().unwrap();
    }

    #[test]
    fn half_close_yields_eof_and_abort_yields_reset() {
        let (mut a, b) = mem_pair(1 << 10, tick());
        let clock = WireClock::new();
        let mut rx = FrameIo::new(
            Box::new(b),
            1,
            WireDir::ServerToClient,
            WireFaultPlan::none(),
            clock,
        );
        a.shutdown_write();
        assert_eq!(rx.recv_frame().unwrap(), RecvFrame::Eof);
        let (mut a, b) = mem_pair(1 << 10, tick());
        let clock = WireClock::new();
        let mut rx = FrameIo::new(
            Box::new(b),
            1,
            WireDir::ServerToClient,
            WireFaultPlan::none(),
            clock,
        );
        a.abort();
        assert_eq!(rx.recv_frame(), Err(TransportError::ConnReset));
    }

    #[test]
    fn injected_bitflip_is_caught_by_the_peer_checksum() {
        let (a, b) = mem_pair(1 << 16, tick());
        let clock = WireClock::new();
        let mut tx = FrameIo::new(
            Box::new(a),
            3,
            WireDir::ClientToServer,
            WireFaultPlan::seeded(11).with_bitflip(3, WireDir::ClientToServer, 0),
            Arc::clone(&clock),
        );
        let mut rx = FrameIo::new(
            Box::new(b),
            3,
            WireDir::ServerToClient,
            WireFaultPlan::none(),
            clock,
        );
        tx.send_frame(&frame(1, 64)).unwrap();
        assert_eq!(tx.stats.faults_injected, 1);
        match rx.recv_frame() {
            Err(TransportError::FrameCorrupt { .. }) => {}
            other => panic!("expected FrameCorrupt, got {other:?}"),
        }
    }

    #[test]
    fn injected_truncation_and_reset_type_correctly_at_the_peer() {
        for (fault_is_reset, want_reset) in [(false, false), (true, true)] {
            let (a, b) = mem_pair(1 << 16, tick());
            let clock = WireClock::new();
            let plan = if fault_is_reset {
                WireFaultPlan::none().with_reset(5, WireDir::ClientToServer, 0)
            } else {
                WireFaultPlan::none().with_truncate(5, WireDir::ClientToServer, 0)
            };
            let mut tx = FrameIo::new(
                Box::new(a),
                5,
                WireDir::ClientToServer,
                plan,
                Arc::clone(&clock),
            );
            let mut rx = FrameIo::new(
                Box::new(b),
                5,
                WireDir::ServerToClient,
                WireFaultPlan::none(),
                clock,
            );
            assert_eq!(
                tx.send_frame(&frame(1, 64)),
                Err(TransportError::ConnReset),
                "sender learns immediately"
            );
            let got = rx.recv_frame();
            if want_reset {
                assert_eq!(got, Err(TransportError::ConnReset));
            } else {
                match got {
                    Err(TransportError::FrameCorrupt { detail }) => {
                        assert!(detail.contains("mid-frame"), "{detail}");
                    }
                    other => panic!("expected truncation corruption, got {other:?}"),
                }
            }
        }
    }

    #[test]
    fn one_shot_faults_stay_one_shot_across_reconnects() {
        // Same clock across two connections from conn id 9: the fault
        // at frame index 0 fires once; the retry (frame index 1, on the
        // fresh connection) sails through.
        let clock = WireClock::new();
        let plan = WireFaultPlan::none().with_reset(9, WireDir::ClientToServer, 0);
        let (a, _b) = mem_pair(1 << 16, tick());
        let mut tx = FrameIo::new(
            Box::new(a),
            9,
            WireDir::ClientToServer,
            plan.clone(),
            Arc::clone(&clock),
        );
        assert_eq!(tx.send_frame(&frame(1, 32)), Err(TransportError::ConnReset));
        let (a2, b2) = mem_pair(1 << 16, tick());
        let mut tx2 = FrameIo::new(Box::new(a2), 9, WireDir::ClientToServer, plan, clock);
        tx2.send_frame(&frame(1, 32)).unwrap();
        let mut rx = FrameIo::new(
            Box::new(b2),
            9,
            WireDir::ServerToClient,
            WireFaultPlan::none(),
            WireClock::new(),
        );
        match rx.recv_frame().unwrap() {
            RecvFrame::Frame(f) => assert_eq!(f.id, 1),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn mem_listener_hands_out_connected_pairs_and_closes() {
        let lst = MemListener::new(1 << 12, tick());
        let mut client = lst.connect().unwrap();
        let mut server = lst.accept().expect("pending connection");
        client.send(b"ping").unwrap();
        let mut buf = [0u8; 8];
        assert_eq!(server.recv(&mut buf, None).unwrap(), Recv::Data(4));
        assert_eq!(&buf[..4], b"ping");
        lst.close();
        assert_eq!(lst.connect().err(), Some(TransportError::ConnReset));
        assert!(lst.accept().is_none());
    }

    /// Run `wait` on its own thread and hand back its answer; the nap
    /// makes "parked before the wake" the common order. None of the
    /// waits under test has a timer, so a missed wake fails the
    /// `recv_timeout` instead of passing late.
    fn parked<T: Send + 'static>(
        wait: impl FnOnce() -> T + Send + 'static,
    ) -> std::sync::mpsc::Receiver<T> {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || tx.send(wait()));
        std::thread::sleep(Duration::from_millis(20));
        rx
    }

    const WOKEN: Duration = Duration::from_secs(10);

    /// A TCP pair: (dialed end, accepted end).
    fn tcp_pair() -> (Box<dyn Transport>, Box<dyn Transport>) {
        let acceptor = TcpAcceptor::bind("127.0.0.1:0", tick()).unwrap();
        let near = TcpTransport::connect(acceptor.local_addr(), tick()).unwrap();
        (Box::new(near), Listener::accept(&acceptor).unwrap())
    }

    fn mem_boxed() -> (Box<dyn Transport>, Box<dyn Transport>) {
        let (a, b) = mem_pair(1 << 10, tick());
        (Box::new(a), Box::new(b))
    }

    #[test]
    fn close_read_wakes_a_blocked_reader_with_eof_after_the_bytes() {
        for (name, pair) in [("mem", mem_boxed as fn() -> _), ("tcp", tcp_pair)] {
            let (mut near, far) = pair();
            let mut waker = far.try_clone().expect("both transports clone");
            near.send(b"ab").unwrap();
            let reader = parked(move || {
                let mut far = far;
                let mut buf = [0u8; 8];
                let first = far.recv(&mut buf, None);
                (first, far.recv(&mut buf, None))
            });
            waker.close_read();
            let (first, second) = reader.recv_timeout(WOKEN).expect("close_read wakes it");
            assert_eq!(first, Ok(Recv::Data(2)), "{name}: bytes first");
            assert_eq!(second, Ok(Recv::Eof), "{name}: then EOF");
            assert!(
                near.send(b"more").is_ok(),
                "{name}: the peer may still send"
            );
        }
    }

    #[test]
    fn a_deadline_read_keeps_the_partial_frame() {
        for (name, pair) in [("mem", mem_boxed as fn() -> _), ("tcp", tcp_pair)] {
            let (mut near, far) = pair();
            let mut rx = FrameIo::new(
                far,
                1,
                WireDir::ServerToClient,
                WireFaultPlan::none(),
                WireClock::new(),
            );
            let bytes = encode_frame(&frame(4, 64)).unwrap();
            near.send(&bytes[..10]).unwrap();
            let t0 = Instant::now();
            let deadline = t0 + Duration::from_millis(30);
            assert_eq!(rx.recv_frame_until(deadline), Ok(RecvFrame::Idle), "{name}");
            assert!(
                Instant::now() >= deadline,
                "{name}: Idle only at the deadline"
            );
            near.send(&bytes[10..]).unwrap();
            assert_eq!(
                rx.recv_frame(),
                Ok(RecvFrame::Frame(frame(4, 64))),
                "{name}"
            );
        }
    }

    #[test]
    fn close_wakes_a_blocked_accept() {
        let mem = MemListener::new(1 << 10, tick());
        let tcp = Arc::new(TcpAcceptor::bind("127.0.0.1:0", tick()).unwrap());
        for (name, lst) in [
            ("mem", Arc::new(mem) as Arc<dyn Listener>),
            ("tcp", tcp as Arc<dyn Listener>),
        ] {
            let accepting = Arc::clone(&lst);
            let accepted = parked(move || accepting.accept().is_none());
            lst.close();
            assert!(
                accepted.recv_timeout(WOKEN).expect("close wakes it"),
                "{name}"
            );
            assert!(lst.accept().is_none(), "{name}: closed stays closed");
        }
    }

    #[test]
    fn tcp_transport_round_trips_over_localhost() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().expect("accept");
            let t = TcpTransport::new(stream, tick()).unwrap();
            let mut io = FrameIo::new(
                Box::new(t),
                1,
                WireDir::ServerToClient,
                WireFaultPlan::none(),
                WireClock::new(),
            );
            let RecvFrame::Frame(f) = io.recv_frame().unwrap() else {
                panic!("premature EOF");
            };
            io.send_frame(&f).unwrap();
        });
        let t = TcpTransport::connect(addr, tick()).unwrap();
        let mut io = FrameIo::new(
            Box::new(t),
            1,
            WireDir::ClientToServer,
            WireFaultPlan::none(),
            WireClock::new(),
        );
        let f = frame(77, 256);
        io.send_frame(&f).unwrap();
        assert_eq!(io.recv_frame().unwrap(), RecvFrame::Frame(f));
        server.join().unwrap();
    }
}
