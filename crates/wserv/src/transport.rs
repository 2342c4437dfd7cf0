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
    /// The peer half-closed its sending side (clean FIN).
    Eof,
    /// Nothing arrived within one poll tick; the stream is still open.
    /// Callers use the tick to re-check drain flags and deadlines.
    Idle,
}

/// A bidirectional byte stream: the minimal surface the frame layer
/// needs, implemented by TCP and by the in-memory pipe.
pub trait Transport: Send {
    /// Write all of `bytes`, blocking on backpressure. A send into a
    /// closed or reset stream is [`TransportError::ConnReset`].
    fn send(&mut self, bytes: &[u8]) -> Result<(), TransportError>;

    /// Read up to `buf.len()` bytes, blocking at most one poll tick.
    fn recv(&mut self, buf: &mut [u8]) -> Result<Recv, TransportError>;

    /// Half-close: flush and FIN the sending side; the peer's reads
    /// drain what was sent, then see [`Recv::Eof`].
    fn shutdown_write(&mut self);

    /// Abortive close of both directions — the peer observes a reset,
    /// not a clean EOF. Used by injected [`WireFault::Reset`] and by
    /// drain when a half-open connection exhausts its grace.
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
    /// Wrap a connected stream, arming it with `tick` as the read poll
    /// period and a generous write timeout (writes only stall under
    /// pathological backpressure; the bound keeps drain finite).
    pub fn new(stream: TcpStream, tick: Duration) -> Result<Self, TransportError> {
        stream
            .set_nodelay(true)
            .map_err(|_| TransportError::ConnReset)?;
        stream
            .set_read_timeout(Some(tick))
            .map_err(|_| TransportError::ConnReset)?;
        stream
            .set_write_timeout(Some(Duration::from_secs(10)))
            .map_err(|_| TransportError::ConnReset)?;
        Ok(TcpTransport {
            stream,
            aborted: false,
        })
    }

    /// Connect to `addr` and arm timeouts as [`TcpTransport::new`].
    pub fn connect(addr: SocketAddr, tick: Duration) -> Result<Self, TransportError> {
        let stream = TcpStream::connect(addr).map_err(|_| TransportError::ConnReset)?;
        TcpTransport::new(stream, tick)
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

    fn recv(&mut self, buf: &mut [u8]) -> Result<Recv, TransportError> {
        if self.aborted {
            return Err(TransportError::ConnReset);
        }
        match self.stream.read(buf) {
            Ok(0) => Ok(Recv::Eof),
            Ok(n) => Ok(Recv::Data(n)),
            Err(e) if matches!(e.kind(), WouldBlock | TimedOut | Interrupted) => Ok(Recv::Idle),
            Err(_) => Err(TransportError::ConnReset),
        }
    }

    fn shutdown_write(&mut self) {
        let _ = self.stream.shutdown(Shutdown::Write);
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
    tick: Duration,
}

/// Build a connected duplex pair: what one end sends the other
/// receives. `capacity` bounds each direction's in-flight bytes (the
/// backpressure window); `tick` is the receive poll period.
pub fn mem_pair(capacity: usize, tick: Duration) -> (MemTransport, MemTransport) {
    let a = Pipe::new(capacity);
    let b = Pipe::new(capacity);
    (
        MemTransport {
            tx: Arc::clone(&a),
            rx: Arc::clone(&b),
            tick,
        },
        MemTransport { tx: b, rx: a, tick },
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
                // the pipe breaks. The tick keeps the wait responsive
                // to aborts without spinning.
                self.tx.writable.wait_for(&mut st, self.tick);
                continue;
            }
            let n = room.min(bytes.len() - sent);
            st.buf.extend(&bytes[sent..sent + n]);
            sent += n;
            self.tx.readable.notify_all();
        }
        Ok(())
    }

    fn recv(&mut self, buf: &mut [u8]) -> Result<Recv, TransportError> {
        let mut st = self.rx.state.lock();
        if st.buf.is_empty() && !st.broken && !st.write_closed {
            // Nothing to report yet: park one tick for bytes, a close
            // or a break.
            self.rx.readable.wait_for(&mut st, self.tick);
        }
        // Bytes already in the pipe are delivered before the state that
        // follows them.
        if st.buf.is_empty() {
            return if st.broken {
                Err(TransportError::ConnReset)
            } else if st.write_closed {
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
            tick: self.tick,
        }))
    }
}

/// Accept side of the in-memory transport: clients [`MemListener::connect`],
/// the server accepts the other end of each pair.
#[derive(Clone)]
pub struct MemListener {
    inner: Arc<MemListenerState>,
    capacity: usize,
    tick: Duration,
}

struct MemListenerState {
    queue: Mutex<(VecDeque<MemTransport>, bool)>,
    pending: Condvar,
}

impl MemListener {
    /// A listener whose accepted connections use `capacity`-byte
    /// per-direction windows and `tick` receive polling.
    pub fn new(capacity: usize, tick: Duration) -> Self {
        MemListener {
            inner: Arc::new(MemListenerState {
                queue: Mutex::new((VecDeque::new(), false)),
                pending: Condvar::new(),
            }),
            capacity,
            tick,
        }
    }

    /// Dial the listener: returns the client end, queues the server end
    /// for `accept`. Fails with [`TransportError::ConnReset`] once the
    /// listener is closed (drain).
    pub fn connect(&self) -> Result<MemTransport, TransportError> {
        let (client, server) = mem_pair(self.capacity, self.tick);
        let mut q = self.inner.queue.lock();
        if q.1 {
            return Err(TransportError::ConnReset);
        }
        q.0.push_back(server);
        self.inner.pending.notify_all();
        Ok(client)
    }

    /// Take one pending connection, waiting at most one tick; `None`
    /// when the tick elapsed or the listener is closed and drained.
    pub fn accept(&self) -> Option<MemTransport> {
        let mut q = self.inner.queue.lock();
        if q.0.is_empty() && !q.1 {
            self.inner.pending.wait_for(&mut q, self.tick);
        }
        q.0.pop_front()
    }

    /// Stop accepting: future dials fail, already-queued pairs still
    /// accept (they connected before the drain).
    pub fn close(&self) {
        let mut q = self.inner.queue.lock();
        q.1 = true;
        self.inner.pending.notify_all();
    }

    /// Whether the listener has been closed.
    pub fn is_closed(&self) -> bool {
        self.inner.queue.lock().1
    }
}

// ---------------------------------------------------------------------
// Accept / dial abstractions
// ---------------------------------------------------------------------

/// Server-side accept surface over either transport.
pub trait Listener: Send {
    /// Take one pending connection, waiting at most one poll tick.
    /// `None` when the tick elapsed (or the listener is closed).
    fn poll_accept(&mut self) -> Option<Box<dyn Transport>>;

    /// Stop admitting new connections (drain).
    fn close(&self);
}

/// Client-side dial surface over either transport.
pub trait Connector: Send {
    /// Open a fresh connection to the server.
    fn dial(&self) -> Result<Box<dyn Transport>, TransportError>;
}

impl Listener for MemListener {
    fn poll_accept(&mut self) -> Option<Box<dyn Transport>> {
        self.accept().map(|t| Box::new(t) as Box<dyn Transport>)
    }

    fn close(&self) {
        MemListener::close(self);
    }
}

impl Connector for MemListener {
    fn dial(&self) -> Result<Box<dyn Transport>, TransportError> {
        self.connect().map(|t| Box::new(t) as Box<dyn Transport>)
    }
}

/// TCP accept side: a bound localhost listener polled non-blocking.
pub struct TcpAcceptor {
    listener: std::net::TcpListener,
    tick: Duration,
}

impl TcpAcceptor {
    /// Bind `addr` (use port 0 for an ephemeral port) and switch the
    /// listener to non-blocking polling at `tick`.
    pub fn bind(addr: &str, tick: Duration) -> Result<Self, TransportError> {
        let listener = std::net::TcpListener::bind(addr).map_err(|_| TransportError::ConnReset)?;
        listener
            .set_nonblocking(true)
            .map_err(|_| TransportError::ConnReset)?;
        Ok(TcpAcceptor { listener, tick })
    }

    /// The bound address (what clients dial).
    pub fn local_addr(&self) -> SocketAddr {
        self.listener
            .local_addr()
            .expect("bound listener has an addr")
    }
}

impl Listener for TcpAcceptor {
    fn poll_accept(&mut self) -> Option<Box<dyn Transport>> {
        match self.listener.accept() {
            Ok((stream, _)) => TcpTransport::new(stream, self.tick)
                .ok()
                .map(|t| Box::new(t) as Box<dyn Transport>),
            Err(_) => {
                std::thread::sleep(self.tick);
                None
            }
        }
    }

    fn close(&self) {
        // Nothing to signal: the accept loop stops polling and the
        // socket closes when the acceptor drops; later dials are
        // refused by the OS and surface as ConnReset.
    }
}

/// TCP dial side.
pub struct TcpConnector {
    /// Server address.
    pub addr: SocketAddr,
    /// Receive poll period for dialed connections.
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
    /// Clean EOF between frames (peer finished sending).
    Eof,
    /// One poll tick elapsed with the frame still incomplete.
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

    /// The payload window currently enforced in both directions.
    pub fn max_payload(&self) -> u32 {
        self.max_payload
    }

    /// Re-key the fault coordinates once the peer's identity is known
    /// (a server learns the connection id from the client's Hello).
    pub fn set_conn(&mut self, conn: u64) {
        self.conn = conn;
    }

    /// Whether any bytes of a frame are buffered but incomplete — a
    /// half-open peer mid-frame. Drain uses this to distinguish "idle
    /// between frames" from "stalled inside one".
    pub fn mid_frame(&self) -> bool {
        !self.rbuf.is_empty()
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

    /// Receive one frame, waiting at most one poll tick for progress.
    /// Corrupt bytes, oversized declarations, truncation at EOF and
    /// resets all surface as their typed [`TransportError`].
    pub fn recv_frame(&mut self) -> Result<RecvFrame, TransportError> {
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
            match self.io.recv(&mut chunk)? {
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
        loop {
            match rx.recv_frame().unwrap() {
                RecvFrame::Frame(f) => {
                    assert_eq!(f, big);
                    break;
                }
                RecvFrame::Idle => continue,
                RecvFrame::Eof => panic!("premature EOF"),
            }
        }
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
            let got = loop {
                match rx.recv_frame() {
                    Ok(RecvFrame::Idle) => continue,
                    other => break other,
                }
            };
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
        assert_eq!(server.recv(&mut buf).unwrap(), Recv::Data(4));
        assert_eq!(&buf[..4], b"ping");
        lst.close();
        assert!(lst.is_closed());
        assert_eq!(lst.connect().err(), Some(TransportError::ConnReset));
        assert!(lst.accept().is_none());
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
            let f = loop {
                match io.recv_frame().unwrap() {
                    RecvFrame::Frame(f) => break f,
                    RecvFrame::Idle => continue,
                    RecvFrame::Eof => panic!("premature EOF"),
                }
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
        let echo = loop {
            match io.recv_frame().unwrap() {
                RecvFrame::Frame(f) => break f,
                RecvFrame::Idle => continue,
                RecvFrame::Eof => panic!("premature EOF"),
            }
        };
        assert_eq!(echo, f);
        server.join().unwrap();
    }
}
