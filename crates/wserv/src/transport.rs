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
//! either. It owns one [`CHUNK`]-byte buffer for the life of the
//! connection, and streams every frame through it in both directions,
//! with one writer and one reader: a send writes the header, lets the
//! encoder fill the chunk, folds each full chunk into the checksum and
//! sends it, then the trailer; a receive reads the header, then the
//! payload a chunk at a time into the typed decoder, and hands back the
//! decoded value once the trailer verifies. So a 2 MiB call stages no
//! 2 MiB byte buffer on either side, and a frame that fits the chunk
//! costs one send, and a header read and a payload read.
//! [`FrameIo::send`] and [`FrameIo::recv`] carry a payload's values;
//! [`FrameIo::send_frame`] and [`FrameIo::recv_frame`] a [`Frame`], its
//! payload read into one buffer of exactly its length.
//!
//! `FrameIo` injects seeded [`WireFaultPlan`] faults on the stream it
//! sends, at `(connection id, direction, cumulative frame index)`: a bit
//! flip after the checksum has taken its byte, a reset after half the
//! frame. A shared [`WireClock`] keeps the counts across reconnects, so
//! a one-shot fault stays one-shot across the retry it provokes. Every
//! failure is a typed [`TransportError`], classified the same on both
//! transports. A send that makes no progress for [`WRITE_TIMEOUT`] fails
//! as a reset on both.

use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::io::ErrorKind::{Interrupted, TimedOut, WouldBlock};
use std::io::{IoSlice, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use crate::faults::{WireDir, WireFault, WireFaultPlan};
use crate::metrics::TransportMetrics;
use crate::wire::{corrupt, f64s, header, message, parse_header};
use crate::wire::{Checksum, Frame, Head, Message, Payload, Reader, Sink, Source, WireError};
use crate::wire::{DEFAULT_MAX_PAYLOAD, HEADER_LEN, TRAILER_LEN};

/// Bytes of the one chunk a [`FrameIo`] streams every frame through, in
/// both directions, for the life of its connection. In a prototype on a
/// 2-vCPU host, 64 KiB read a lower `rpc_large_mono` p50 than 256 KiB or
/// 1 MiB: the smaller the chunk, the more of encode, copy and decode the
/// sender and the receiver overlap.
pub const CHUNK: usize = 64 << 10;

/// How long a send may make no progress — its peer taking no byte —
/// before it fails as [`TransportError::ConnReset`]: TCP's write timeout
/// and the in-memory pipe's both, so a peer that never reads cannot hold
/// a connection, or drain, forever.
pub const WRITE_TIMEOUT: Duration = Duration::from_secs(10);

/// Typed transport failure. The taxonomy every remote caller matches
/// on; all variants are terminal for the connection they occur on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransportError {
    /// The peer went away abortively: a broken pipe, or a stream that
    /// ended inside a frame, however it closed. Idempotent work is safe
    /// to resubmit on a fresh connection.
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
    /// A whole frame that is not one: bad magic or version, checksum
    /// mismatch, or a payload that does not parse. Framing is
    /// unrecoverable past this point.
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
        use TransportError::*;
        match self {
            ConnReset => write!(f, "connection reset by peer"),
            ConnTimeout { waited_ms } => write!(f, "connection timed out after {waited_ms} ms"),
            FrameTooLarge { len, max } => WireError::FrameTooLarge {
                len: *len,
                max: *max,
            }
            .fmt(f),
            FrameCorrupt { detail } => write!(f, "corrupt frame: {detail}"),
            HandshakeMismatch { detail } => write!(f, "handshake mismatch: {detail}"),
            InvalidConfig { detail } => write!(f, "invalid configuration: {detail}"),
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
    /// Write all of `parts`, in order, as one write (TCP: one vectored
    /// write per call while the socket takes it all), blocking on
    /// backpressure. A send into a closed or reset stream is
    /// [`TransportError::ConnReset`].
    fn send(&mut self, parts: &[&[u8]]) -> Result<(), TransportError>;

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

    /// Abortive close of both directions; a peer mid-frame reads it as a
    /// reset (TCP sends a FIN, not a RST). Used by injected
    /// [`WireFault::Reset`], and by a server connection that ends
    /// abortively: it can no longer deliver, drain cut it off mid-frame,
    /// or its client broke the protocol.
    fn abort(&mut self);

    /// A second handle onto the same connection, so another thread can
    /// close it while its owner is blocked on it — the server keeps one
    /// per live connection, for drain to close the read side; `None` if
    /// it cannot be duplicated, and then drain cannot wake that
    /// connection.
    fn try_clone(&self) -> Option<Box<dyn Transport>>;
}

/// Localhost TCP implementation of [`Transport`].
pub struct TcpTransport {
    stream: TcpStream,
    aborted: bool,
    /// The read timeout this handle last set on the socket, so a read
    /// sets it only when it changes; `None` until this handle knows it.
    read_timeout: Option<Option<Duration>>,
}

impl TcpTransport {
    /// Wrap a connected stream with [`WRITE_TIMEOUT`] on its writes
    /// (writes only stall under pathological backpressure; the bound
    /// keeps drain finite). Reads block until data, EOF or their
    /// deadline. `_tick` is ignored: it is kept only so existing callers
    /// compile.
    pub fn new(stream: TcpStream, _tick: Duration) -> Result<Self, TransportError> {
        let armed = stream.set_nodelay(true);
        let armed = armed.and_then(|()| stream.set_write_timeout(Some(WRITE_TIMEOUT)));
        let armed = armed.and_then(|()| stream.set_read_timeout(None));
        armed.map_err(|_| TransportError::ConnReset)?;
        Ok(TcpTransport {
            stream,
            aborted: false,
            read_timeout: Some(None),
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
    fn send(&mut self, parts: &[&[u8]]) -> Result<(), TransportError> {
        if self.aborted {
            return Err(TransportError::ConnReset);
        }
        // Up to four parts per vectored write, gathered on the stack.
        let mut parts = parts.iter().filter(|p| !p.is_empty()).peekable();
        while parts.peek().is_some() {
            let mut slices = [IoSlice::new(&[]); 4];
            let mut gathered = 0;
            for (slice, part) in slices.iter_mut().zip(&mut parts) {
                *slice = IoSlice::new(part);
                gathered += 1;
            }
            let mut left = &mut slices[..gathered];
            while !left.is_empty() {
                match self.stream.write_vectored(left) {
                    Ok(n) if n > 0 => IoSlice::advance_slices(&mut left, n),
                    Err(e) if e.kind() == Interrupted => {}
                    _ => return Err(TransportError::ConnReset),
                }
            }
        }
        Ok(())
    }

    fn recv(&mut self, buf: &mut [u8], deadline: Option<Instant>) -> Result<Recv, TransportError> {
        loop {
            if self.aborted {
                return Err(TransportError::ConnReset);
            }
            // What is left of the deadline, rounded up to whole
            // milliseconds: reads within one millisecond share one
            // setting, and none gives up before its deadline.
            let timeout = match deadline.map(|d| d.saturating_duration_since(Instant::now())) {
                Some(left) if left.is_zero() => return Ok(Recv::Idle),
                left => {
                    left.map(|l| Duration::from_millis(l.as_nanos().div_ceil(1_000_000) as u64))
                }
            };
            if self.read_timeout != Some(timeout) {
                self.stream
                    .set_read_timeout(timeout)
                    .map_err(|_| TransportError::ConnReset)?;
                self.read_timeout = Some(timeout);
            }
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
                // The socket's timeout is shared, and either handle may
                // set it.
                read_timeout: None,
            }) as Box<dyn Transport>
        })
    }
}

#[derive(Default)]
struct PipeState {
    buf: VecDeque<u8>,
    write_closed: bool,
    /// The reading end closed its side: reads see EOF once `buf` is
    /// empty, while sends still land, as on a TCP socket after
    /// `shutdown(Read)`.
    read_closed: bool,
    broken: bool,
}

#[derive(Default)]
struct Pipe {
    state: Mutex<PipeState>,
    capacity: usize,
    readable: Condvar,
    writable: Condvar,
}

impl Pipe {
    /// Change the pipe's state with `close`, waking every wait on it.
    fn close(&self, close: impl FnOnce(&mut PipeState)) {
        close(&mut self.state.lock());
        self.readable.notify_all();
        self.writable.notify_all();
    }
}

/// One end of an in-memory duplex byte pipe. Each direction is a
/// bounded ring of `capacity` bytes, so a slow reader backpressures the
/// writer exactly like a full TCP send buffer would. Dropping the last
/// handle onto an end closes it as closing a socket does: the peer reads
/// what was sent, then EOF, and its sends fail as a reset.
pub struct MemTransport {
    end: Arc<End>,
}

/// The two directions of one end, shared by its handles.
struct End {
    tx: Arc<Pipe>,
    rx: Arc<Pipe>,
}

impl Drop for End {
    fn drop(&mut self) {
        self.tx.close(|st| st.write_closed = true);
        self.rx.close(|st| st.broken = true);
    }
}

/// Build a connected duplex pair: what one end sends the other
/// receives. `capacity` bounds each direction's in-flight bytes (the
/// backpressure window). `_tick` is ignored: every wait on the pipe is
/// woken by the event that ends it.
pub fn mem_pair(capacity: usize, _tick: Duration) -> (MemTransport, MemTransport) {
    let pipe = || {
        Arc::new(Pipe {
            capacity,
            ..Pipe::default()
        })
    };
    let (a, b) = (pipe(), pipe());
    let end = |tx, rx| MemTransport {
        end: Arc::new(End { tx, rx }),
    };
    (end(Arc::clone(&a), Arc::clone(&b)), end(b, a))
}

impl Transport for MemTransport {
    fn send(&mut self, parts: &[&[u8]]) -> Result<(), TransportError> {
        let tx = &self.end.tx;
        let mut st = tx.state.lock();
        for mut part in parts.iter().copied() {
            while !part.is_empty() {
                if st.broken || st.write_closed {
                    return Err(TransportError::ConnReset);
                }
                let room = tx.capacity.saturating_sub(st.buf.len());
                if room == 0 {
                    // Backpressured: park until the reader drains bytes
                    // or the pipe breaks, both of which notify
                    // `writable` — or give up on a reader that takes
                    // nothing for WRITE_TIMEOUT, as TCP does.
                    if tx.writable.wait_for(&mut st, WRITE_TIMEOUT) {
                        return Err(TransportError::ConnReset);
                    }
                    continue;
                }
                let n = room.min(part.len());
                st.buf.extend(&part[..n]);
                part = &part[n..];
                tx.readable.notify_all();
            }
        }
        Ok(())
    }

    fn recv(&mut self, buf: &mut [u8], deadline: Option<Instant>) -> Result<Recv, TransportError> {
        let rx = &self.end.rx;
        let mut st = rx.state.lock();
        // Park until bytes, a close or a break: each notifies `readable`.
        while st.buf.is_empty() && !st.broken && !st.write_closed && !st.read_closed {
            match deadline.map(|d| d.saturating_duration_since(Instant::now())) {
                None => rx.readable.wait(&mut st),
                Some(left) if left.is_zero() => break,
                Some(left) => _ = rx.readable.wait_for(&mut st, left),
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
        let n = st.buf.read(buf).expect("reading memory cannot fail");
        rx.writable.notify_all();
        Ok(Recv::Data(n))
    }

    fn shutdown_write(&mut self) {
        self.end.tx.close(|st| st.write_closed = true);
    }

    fn close_read(&mut self) {
        self.end.rx.close(|st| st.read_closed = true);
    }

    fn abort(&mut self) {
        for pipe in [&self.end.tx, &self.end.rx] {
            pipe.close(|st| st.broken = true);
        }
    }

    fn try_clone(&self) -> Option<Box<dyn Transport>> {
        Some(Box::new(MemTransport {
            end: Arc::clone(&self.end),
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

#[derive(Default)]
struct MemListenerState {
    queue: Mutex<(VecDeque<MemTransport>, bool)>,
    pending: Condvar,
}

impl MemListener {
    /// A listener whose accepted connections use `capacity`-byte
    /// per-direction windows. `_tick` is ignored, as in [`mem_pair`].
    pub fn new(capacity: usize, _tick: Duration) -> Self {
        MemListener {
            inner: Arc::default(),
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

/// Shared cumulative frame counters keyed by `(connection id,
/// direction)`. One clock lives on each side of the protocol and
/// survives reconnects, so fault coordinates are stable across retries
/// and identical between the two transports.
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
        *slot += 1;
        *slot - 1
    }
}

/// Outcome of one framed receive attempt: a whole [`Frame`] from
/// [`FrameIo::recv_frame`], a decoded `(Head, Message)` from
/// [`FrameIo::recv`].
#[derive(Debug, Clone, PartialEq)]
pub enum RecvFrame<F = Frame> {
    /// One complete, checksum-verified frame.
    Frame(F),
    /// Clean EOF between frames (peer finished sending, or this side
    /// closed its reading side).
    Eof,
    /// The deadline passed with the frame still incomplete: before its
    /// header was in, which the next call completes, or inside its
    /// payload, which aborted the connection.
    Idle,
}

/// A framed connection: the wire protocol over any [`Transport`], with
/// seeded wire faults injected on the send path.
///
/// The connection owns one [`CHUNK`]-byte buffer, and every frame streams
/// through it: [`FrameIo::send`] and [`FrameIo::send_frame`] share one
/// writer, [`FrameIo::recv`], [`FrameIo::recv_frame`] and
/// [`FrameIo::recv_frame_until`] one reader. No frame's bytes are ever
/// assembled whole: a [`Frame`] sent or received holds its payload alone.
pub struct FrameIo {
    io: Box<dyn Transport>,
    conn: u64,
    dir: WireDir,
    /// The chunk every frame passes through, both ways.
    chunk: Box<[u8]>,
    /// The next frame's header, until it is in.
    head: [u8; HEADER_LEN],
    /// Bytes of it arrived.
    filled: usize,
    /// The verified trailer of the last frame received.
    pub(crate) check: u64,
    /// The payload window ([`FrameIo::with_max_payload`]); a server sets
    /// it in place once the handshake has settled it.
    pub(crate) max_payload: u32,
    faults: WireFaultPlan,
    clock: Arc<WireClock>,
    /// Live frame, byte and serialization counters for this
    /// connection (bytes out include injected-fault partial sends);
    /// merged into the owner's totals when the connection ends.
    pub stats: TransportMetrics,
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
            chunk: vec![0; CHUNK].into_boxed_slice(),
            head: [0; HEADER_LEN],
            filled: 0,
            check: 0,
            max_payload: DEFAULT_MAX_PAYLOAD,
            faults,
            clock,
            stats: TransportMetrics::default(),
        }
    }

    /// Set the payload window: received frames declaring more, and
    /// attempts to *send* more, are [`TransportError::FrameTooLarge`].
    pub fn with_max_payload(mut self, max_payload: u32) -> Self {
        self.max_payload = max_payload;
        self
    }

    /// Re-key the fault coordinates once the peer's identity is known
    /// (a server learns the connection id from the client's Hello).
    pub fn set_conn(&mut self, conn: u64) {
        self.conn = conn;
    }

    /// Send `payload` as frame `id`, streamed: the header with the
    /// length the encoder counts first, then the encoder fills the chunk,
    /// and each full chunk is folded into the checksum and sent; the
    /// trailer goes out with the last one. A frame that fits the chunk is
    /// one send. Faults and windows apply as for
    /// [`FrameIo::send_frame`], and a field too wide for its wire width
    /// fails typed before a byte is sent.
    pub fn send(&mut self, id: u64, payload: &Payload<'_>) -> Result<(), TransportError> {
        let head = payload.head(id)?;
        // The count above ran this very encoder, so it cannot fail now.
        self.stream(head, |out| payload.write(out))
    }

    /// Send `frame` through the chunk as [`FrameIo::send`] sends a
    /// payload, injecting whatever the fault plan schedules at this
    /// `(conn, dir, frame index)`; an injected reset is
    /// [`TransportError::ConnReset`] on this side too, so a caller fails
    /// over at once. A payload over the window is
    /// [`TransportError::FrameTooLarge`] before a byte is sent or a fault
    /// index used, and the connection stays usable.
    pub fn send_frame(&mut self, frame: &Frame) -> Result<(), TransportError> {
        self.stream(frame.head(), |out| {
            out.put(&frame.payload);
            Ok(())
        })
    }

    /// The one writer: the window check, then the next frame index and
    /// the fault the plan schedules there, a stall slept; then the frame
    /// `head` opens streams out — its header, what `write` puts, then the
    /// trailer — under that fault.
    fn stream(
        &mut self,
        head: Head,
        write: impl FnOnce(&mut Outflow<'_>) -> Result<(), WireError>,
    ) -> Result<(), TransportError> {
        if head.len as u64 > self.max_payload as u64 {
            return Err(TransportError::FrameTooLarge {
                len: head.len as u64,
                max: self.max_payload as u64,
            });
        }
        let idx = self.clock.next(self.conn, self.dir);
        let fault = self.faults.decide(self.conn, self.dir, idx);
        if let Some(WireFault::Stall { seconds }) = fault {
            std::thread::sleep(Duration::from_secs_f64(seconds));
        }
        let header = header(&head)?;
        let len = HEADER_LEN + head.len + TRAILER_LEN;
        let t0 = Instant::now();
        let mut out = Outflow {
            io: &mut *self.io,
            chunk: &mut self.chunk,
            filled: 0,
            sum: Checksum::default(),
            sent: 0,
            flip: match fault {
                Some(WireFault::BitFlip { entropy }) => Some((entropy % (8 * len as u64)) as usize),
                _ => None,
            },
            cut: (fault == Some(WireFault::Reset)).then_some(len / 2),
            waited: Duration::ZERO,
            failed: None,
        };
        out.put(&header);
        write(&mut out)?;
        let sent = out.finish();
        self.stats.bytes_out += out.sent as u64;
        self.stats.ser_s += t0.elapsed().saturating_sub(out.waited).as_secs_f64();
        sent?;
        self.stats.frames_out += 1;
        Ok(())
    }

    /// Receive one frame and decode its payload by its kind as it
    /// streams through the chunk: each read takes at most what the frame
    /// still lacks, and the decoder writes every `f64` plane straight
    /// into the value it returns. That value reaches the caller only once
    /// the trailer verifies. Blocks until the frame is in, the stream
    /// ends, or `deadline` (if any) passes. A frame cut short is
    /// [`TransportError::ConnReset`]. A deadline that passes before the
    /// header is in reads [`RecvFrame::Idle`] and keeps what arrived for
    /// the next call; one that passes inside a payload, where a decode
    /// cannot be resumed, aborts the connection and reads
    /// [`RecvFrame::Idle`].
    pub fn recv(
        &mut self,
        deadline: Option<Instant>,
    ) -> Result<RecvFrame<(Head, Message)>, TransportError> {
        self.read(deadline, |r, head| Ok((head, message(r, head.kind)?)))
    }

    /// Receive one frame whole, its payload read through the chunk into
    /// one buffer of exactly its length, blocking until it is complete or
    /// the stream ends; never [`RecvFrame::Idle`]. A frame cut short is
    /// [`TransportError::ConnReset`], on either transport.
    pub fn recv_frame(&mut self) -> Result<RecvFrame, TransportError> {
        self.read(None, |r, head| r.frame(head))
    }

    /// [`FrameIo::recv_frame`], giving up with [`RecvFrame::Idle`] once
    /// `deadline` passes, under [`FrameIo::recv`]'s rule: a header cut
    /// off is kept for the next call, a payload cut off aborts the
    /// connection.
    pub fn recv_frame_until(&mut self, deadline: Instant) -> Result<RecvFrame, TransportError> {
        self.read(Some(deadline), |r, head| r.frame(head))
    }

    /// The one reader: the next header, then its payload through the
    /// chunk into `decode`, whose value is delivered once the trailer
    /// verifies.
    fn read<T>(
        &mut self,
        deadline: Option<Instant>,
        decode: impl FnOnce(&mut Reader<Inflow<'_>>, Head) -> Result<T, WireError>,
    ) -> Result<RecvFrame<T>, TransportError> {
        let head = match self.next_head(deadline)? {
            RecvFrame::Frame(head) => head,
            RecvFrame::Eof => return Ok(RecvFrame::Eof),
            RecvFrame::Idle => return Ok(RecvFrame::Idle),
        };
        let t0 = Instant::now();
        let mut sum = Checksum::default();
        sum.update(&self.head);
        let mut r = Reader::new(Inflow {
            io: &mut *self.io,
            chunk: &mut self.chunk,
            deadline,
            start: 0,
            end: 0,
            left: head.len,
            unread: head.len + TRAILER_LEN,
            sum,
            got: 0,
            waited: Duration::ZERO,
            stopped: None,
        });
        let decoded = decode(&mut r, head);
        let mut flow = r.into_source();
        let sealed = decoded.and_then(|value| Ok((value, flow.seal()?)));
        self.stats.bytes_in += flow.got as u64;
        self.stats.ser_s += t0.elapsed().saturating_sub(flow.waited).as_secs_f64();
        match (flow.stopped.take(), sealed) {
            (Some(Ok(Recv::Idle)), _) => {
                self.io.abort();
                Ok(RecvFrame::Idle)
            }
            // A stream that ends inside a frame was cut: a reset,
            // whether the peer aborted or closed.
            (Some(Ok(_)), _) => Err(TransportError::ConnReset),
            (Some(Err(e)), _) => Err(e),
            (None, Err(e)) => Err(e.into()),
            (None, Ok((value, check))) => {
                self.check = check;
                self.stats.frames_in += 1;
                Ok(RecvFrame::Frame(value))
            }
        }
    }

    /// Read until the next frame's header is in, keeping a partial one
    /// across an `Idle`.
    fn next_head(&mut self, deadline: Option<Instant>) -> Result<RecvFrame<Head>, TransportError> {
        loop {
            if let Some(head) = parse_header(&self.head[..self.filled], self.max_payload)? {
                self.filled = 0;
                return Ok(RecvFrame::Frame(head));
            }
            match self.io.recv(&mut self.head[self.filled..], deadline)? {
                Recv::Data(n) => {
                    self.filled += n;
                    self.stats.bytes_in += n as u64;
                }
                Recv::Eof if self.filled == 0 => return Ok(RecvFrame::Eof),
                // A stream that ends inside a frame was cut: a reset,
                // whether the peer aborted or closed.
                Recv::Eof => return Err(TransportError::ConnReset),
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

/// A frame going out through its connection's chunk: the encoder fills
/// it, and each full chunk is folded into the checksum, then sent with
/// the admitted fault applied.
struct Outflow<'a> {
    io: &'a mut dyn Transport,
    chunk: &'a mut [u8],
    filled: usize,
    sum: Checksum,
    /// Bytes the transport took: the frame offset of the chunk's start.
    sent: usize,
    /// An injected bit flip: the bit of the frame it flips.
    flip: Option<usize>,
    /// An injected reset: the bytes of the frame sent before the abort.
    cut: Option<usize>,
    /// Time spent in the transport's sends.
    waited: Duration,
    /// The send that failed; nothing is sent after it.
    failed: Option<TransportError>,
}

impl Outflow<'_> {
    /// Send the chunk's bytes, then `rest`, in one send: the flipped bit
    /// flipped if it is among them, and only up to a reset's cut, after
    /// which the connection is aborted.
    fn send(&mut self, rest: &mut [u8]) {
        let (at, filled) = (self.sent, std::mem::take(&mut self.filled));
        if self.failed.is_some() {
            return;
        }
        let end = at + filled + rest.len();
        if let Some(bit) = self.flip.filter(|bit| (at..end).contains(&(bit / 8))) {
            let i = bit / 8 - at;
            let byte = if i < filled {
                &mut self.chunk[i]
            } else {
                &mut rest[i - filled]
            };
            *byte ^= 1 << (bit % 8);
        }
        // A reset's frame ends at its cut, and the connection with it.
        let n = self.cut.map_or(end, |cut| cut.min(end)) - at;
        let t0 = Instant::now();
        let sent = self.io.send(&[
            &self.chunk[..filled.min(n)],
            &rest[..n.saturating_sub(filled)],
        ]);
        self.waited += t0.elapsed();
        match sent {
            Ok(()) => self.sent += n,
            Err(e) => self.failed = Some(e),
        }
        if self.cut == Some(at + n) {
            self.io.abort();
            self.failed = Some(TransportError::ConnReset);
        }
    }

    /// Fold the full chunk into the checksum and send it.
    fn flush(&mut self) {
        self.sum.update(&self.chunk[..self.filled]);
        self.send(&mut []);
    }

    /// Send what the chunk holds with the trailer after it.
    fn finish(&mut self) -> Result<(), TransportError> {
        self.sum.update(&self.chunk[..self.filled]);
        self.send(&mut self.sum.finish().to_le_bytes());
        self.failed.take().map_or(Ok(()), Err)
    }
}

impl Sink for Outflow<'_> {
    fn put(&mut self, mut bytes: &[u8]) {
        while !bytes.is_empty() && self.failed.is_none() {
            let n = (self.chunk.len() - self.filled).min(bytes.len());
            self.chunk[self.filled..][..n].copy_from_slice(&bytes[..n]);
            self.filled += n;
            bytes = &bytes[n..];
            if self.filled == self.chunk.len() {
                self.flush();
            }
        }
    }

    fn put_f64s(&mut self, mut data: &[f64]) {
        while !data.is_empty() && self.failed.is_none() {
            let room = (self.chunk.len() - self.filled) / 8;
            if room == 0 {
                // Under 8 bytes of room: this value straddles two chunks.
                self.put(&data[0].to_le_bytes());
                data = &data[1..];
                continue;
            }
            let (now, rest) = data.split_at(room.min(data.len()));
            let out = self.chunk[self.filled..][..8 * now.len()].chunks_exact_mut(8);
            for (out, v) in out.zip(now) {
                out.copy_from_slice(&v.to_le_bytes());
            }
            self.filled += 8 * now.len();
            data = rest;
            if self.filled == self.chunk.len() {
                self.flush();
            }
        }
    }
}

/// A frame's payload coming in through its connection's chunk: each
/// read takes at most what the frame still lacks, and the checksum takes
/// the payload in as it arrives.
struct Inflow<'a> {
    io: &'a mut dyn Transport,
    chunk: &'a mut [u8],
    deadline: Option<Instant>,
    /// The bytes arrived and not yet taken: `chunk[start..end]`.
    start: usize,
    end: usize,
    /// Payload bytes the decoder has not taken.
    left: usize,
    /// Payload and trailer bytes not yet read off the transport.
    unread: usize,
    sum: Checksum,
    /// Bytes the transport delivered.
    got: usize,
    /// Time spent in the transport's reads.
    waited: Duration,
    /// The read that ended the stream inside the frame: `Eof`, `Idle`
    /// or a failure.
    stopped: Option<Result<Recv, TransportError>>,
}

impl Inflow<'_> {
    /// Read the next bytes of the frame into the emptied chunk.
    fn pull(&mut self) -> Result<(), WireError> {
        let want = self.unread.min(self.chunk.len());
        let t0 = Instant::now();
        let got = self.io.recv(&mut self.chunk[..want], self.deadline);
        self.waited += t0.elapsed();
        match got {
            Ok(Recv::Data(n)) => {
                let payload = n.min(self.unread.saturating_sub(TRAILER_LEN));
                self.sum.update(&self.chunk[..payload]);
                (self.start, self.end) = (0, n);
                self.unread -= n;
                self.got += n;
                Ok(())
            }
            stopped => {
                self.stopped = Some(stopped);
                Err(corrupt("the stream stopped inside a frame"))
            }
        }
    }

    /// Fill `out` with the frame's next bytes.
    fn copy(&mut self, mut out: &mut [u8]) -> Result<(), WireError> {
        while !out.is_empty() {
            if self.start == self.end {
                self.pull()?;
            }
            let n = (self.end - self.start).min(out.len());
            let (now, rest) = std::mem::take(&mut out).split_at_mut(n);
            now.copy_from_slice(&self.chunk[self.start..][..n]);
            self.start += n;
            out = rest;
        }
        Ok(())
    }

    /// The trailer after the payload, once the decoder has taken all of
    /// it, if it is the checksum of what arrived.
    fn seal(&mut self) -> Result<u64, WireError> {
        let mut declared = [0; TRAILER_LEN];
        self.copy(&mut declared)?;
        let declared = u64::from_le_bytes(declared);
        if self.sum.finish() != declared {
            return Err(corrupt("checksum mismatch"));
        }
        Ok(declared)
    }
}

impl Source for Inflow<'_> {
    fn left(&self) -> usize {
        self.left
    }

    fn read(&mut self, out: &mut [u8]) -> Result<(), WireError> {
        self.copy(out)?;
        self.left -= out.len();
        Ok(())
    }

    fn read_f64s(&mut self, mut n: usize, out: &mut Vec<f64>) -> Result<(), WireError> {
        while n > 0 {
            let whole = ((self.end - self.start) / 8).min(n);
            if whole == 0 {
                // Under 8 bytes in hand: this value straddles two reads.
                let mut value = [0; 8];
                self.read(&mut value)?;
                out.push(f64::from_le_bytes(value));
                n -= 1;
                continue;
            }
            let bytes = 8 * whole;
            out.extend(f64s(&self.chunk[self.start..][..bytes]));
            self.start += bytes;
            self.left -= bytes;
            n -= whole;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{encode_frame, FrameKind};

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
        match rx.recv_frame() {
            Err(TransportError::FrameCorrupt { .. }) => {}
            other => panic!("expected FrameCorrupt, got {other:?}"),
        }
    }

    #[test]
    fn an_injected_reset_types_correctly_at_the_peer() {
        let (a, b) = mem_pair(1 << 16, tick());
        let clock = WireClock::new();
        let mut tx = FrameIo::new(
            Box::new(a),
            5,
            WireDir::ClientToServer,
            WireFaultPlan::none().with_reset(5, WireDir::ClientToServer, 0),
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
        // Cut mid-frame: a reset.
        assert_eq!(rx.recv_frame(), Err(TransportError::ConnReset));
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
        client.send(&[b"ping"]).unwrap();
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
            near.send(&[b"ab"]).unwrap();
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
                near.send(&[b"more"]).is_ok(),
                "{name}: the peer may still send"
            );
        }
    }

    #[test]
    fn dropping_the_last_handle_ends_the_connection() {
        for (name, pair) in [("mem", mem_boxed as fn() -> _), ("tcp", tcp_pair)] {
            let (mut near, mut far) = pair();
            // A second handle dropped while the first lives closes nothing.
            drop(near.try_clone().expect("both transports clone"));
            near.send(&[b"ab"]).expect("the first handle still sends");
            let mut sender = far.try_clone().expect("both transports clone");
            let sending = parked(move || {
                // More than either transport buffers: the send blocks
                // until the drop refuses it.
                let block = vec![0u8; 1 << 20];
                (0..64).find_map(|_| sender.send(&[&block]).err())
            });
            let reader = parked(move || {
                let mut buf = [0u8; 8];
                let first = far.recv(&mut buf, None);
                (first, far.recv(&mut buf, None))
            });
            drop(near);
            let refused = sending
                .recv_timeout(WOKEN)
                .expect("the drop wakes the sender");
            assert_eq!(refused, Some(TransportError::ConnReset), "{name}");
            let (first, second) = reader
                .recv_timeout(WOKEN)
                .expect("the drop wakes the reader");
            assert_eq!(first, Ok(Recv::Data(2)), "{name}: what was sent first");
            assert!(
                matches!(second, Ok(Recv::Eof) | Err(TransportError::ConnReset)),
                "{name}: then the end, not a block: {second:?}"
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
            let idle_at_the_deadline = |rx: &mut FrameIo| {
                let deadline = Instant::now() + Duration::from_millis(30);
                assert_eq!(rx.recv_frame_until(deadline), Ok(RecvFrame::Idle), "{name}");
                assert!(
                    Instant::now() >= deadline,
                    "{name}: Idle only at the deadline"
                );
            };
            // A header cut off is completed on the next call.
            near.send(&[&bytes[..10]]).unwrap();
            idle_at_the_deadline(&mut rx);
            near.send(&[&bytes[10..]]).unwrap();
            assert_eq!(
                rx.recv_frame(),
                Ok(RecvFrame::Frame(frame(4, 64))),
                "{name}"
            );
            // A payload cut off cannot be resumed: the connection ends.
            near.send(&[&bytes[..HEADER_LEN + 30]]).unwrap();
            idle_at_the_deadline(&mut rx);
            assert_eq!(rx.recv_frame(), Err(TransportError::ConnReset), "{name}");
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
