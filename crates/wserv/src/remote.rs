//! Remote serving: [`RemoteServer`] puts the wire protocol in front of
//! [`WaveletService::submit`], [`RemoteClient`] drives it from the
//! other side.
//!
//! ## Connection anatomy
//!
//! Each accepted connection gets two threads. The *reader* performs the
//! handshake, then turns Request frames into `submit()` calls; the
//! *writer* waits on the resulting [`ResponseHandle`]s in FIFO order
//! and streams Response frames back. Between them sits a bounded
//! in-flight window: the reader stops pulling bytes once `window`
//! submitted requests have unsent responses, so a client that floods
//! requests without reading responses backpressures itself (its TCP
//! send buffer / pipe window fills) instead of queueing responses
//! without bound. The reader's wait for room and the writer's wait for
//! another connection's resolution are plain condvar waits, woken by
//! the events that end them; each says at the wait why it is finite.
//! So are the transport waits: the accept blocks until a dial or
//! [`Listener::close`], and the reader until a frame, the peer's FIN,
//! the writer's abort or drain's [`Transport::close_read`]. The only
//! timers are contracts: the client's response timeout and the
//! server's [`HELLO_TIMEOUT`].
//!
//! ## Exactly-once
//!
//! Clients assign monotone request ids and resubmit idempotently after
//! transport faults. The server keeps a per-client *resolution book*:
//! a request id is `InFlight` from submission until its outcome is
//! recorded, then `Done(result)`. A resubmit of a `Done` id replays the
//! recorded outcome without re-execution; a resubmit of an `InFlight`
//! id (the original connection died mid-service) waits for the
//! original resolution and sends that. Execution happens at most once
//! per id; rejected submissions are deliberately *not* recorded, so a
//! retry after `QueueFull` re-attempts admission rather than replaying
//! the rejection — and a resubmit caught waiting on a claim that is
//! then refused is woken and fails its connection, so its client
//! retries too. An outcome exists once: the writer wraps what the
//! service returned in an `Arc`, and the book, every replay and the
//! encoder share it. The book remembers exactly what the protocol can
//! still ask for: a client has at most `window` consecutive ids
//! outstanding and connections answer in submission order, so resolved
//! ids more than `window` behind a client's newest are pruned —
//! `window + 1` results per client, with the argument at
//! `Dedup::window`.
//!
//! ## Progressive delivery
//!
//! With [`RemoteConfig::progressive`] set, successful responses ship
//! as a plane sequence instead of one monolithic frame: a header frame
//! (metadata + exact LL plane, [`crate::wire::FLAG_CONTINUE`] set),
//! then detail planes in decreasing energy order, the last with the
//! flag clear. The whole sequence occupies *one* window permit — flow
//! control is per-request, so a progressive response cannot starve its
//! neighbours beyond what a monolithic one would. A client whose
//! tolerance is met (or byte budget spent) mid-sequence sends
//! [`FrameKind::Cancel`]; the reader marks the id's window entry and
//! the writer stops the sequence at the next plane boundary, with no
//! closing frame. Cancel is idempotent and dedup-safe: the request
//! already executed and its outcome is in the resolution book, so
//! cancellation only trims delivery, never accounting.
//!
//! ## Drain
//!
//! [`RemoteServer::shutdown`] closes the listener and runs the
//! service's own graceful drain (which resolves every accepted
//! request). The accept thread, woken by the close, closes the read
//! side of every live connection: a reader between frames ends
//! cleanly and its writer flushes every owed response before FIN —
//! lossless for everything accepted. A reader cut off mid-frame (a
//! half-open peer: partial frame, then silence) is aborted and counted
//! in [`TransportMetrics::conn_aborted`]; no grace could have served
//! that frame, because the service is already closed to it. The
//! accept thread sees its connections out and frees the resolution
//! book before it exits.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use dwt_mimd::CheckpointCodec;

use crate::faults::{WireDir, WireFaultPlan};
use crate::metrics::{MetricsSnapshot, TransportMetrics};
use crate::progressive::{sequence_frames, split_response, Reassembler, Step};
use crate::request::{DecomposeRequest, Rejection, ServeResult};
use crate::server::{ResponseHandle, ServiceConfig, ServiceError, WaveletService};
use crate::transport::{
    Connector, FrameIo, Listener, RecvFrame, Transport, TransportError, WireClock,
};
use crate::wire::{
    decode_hello, decode_request, decode_response_body, encode_hello, encode_request,
    encode_response, Frame, FrameKind, Hello, ResponseBody, DEFAULT_MAX_PAYLOAD, HEADER_LEN,
    PROTOCOL_VERSION, TRAILER_LEN,
};

/// Smallest payload window either side will settle on: enough to frame
/// a handshake or rejection even against an absurd peer announcement.
const MIN_NEGOTIATED_PAYLOAD: u32 = 64;

/// How long the server waits for a new connection's `Hello` before it
/// closes the connection.
pub const HELLO_TIMEOUT: Duration = Duration::from_millis(250);

/// `min(ours, theirs)` with the floor both sides clamp to, so the two
/// ends always agree on the window byte-for-byte.
fn negotiate_payload(ours: u32, theirs: u32) -> u32 {
    ours.max(MIN_NEGOTIATED_PAYLOAD)
        .min(theirs.max(MIN_NEGOTIATED_PAYLOAD))
}

/// Remote-layer knobs, layered on top of a [`ServiceConfig`].
#[derive(Debug, Clone)]
pub struct RemoteConfig {
    /// Per-connection in-flight window: submitted requests whose
    /// responses are not yet sent. The reader stops reading at the cap.
    pub window: u32,
    /// Largest frame payload either side accepts.
    pub max_payload: u32,
    /// Ignored: every wait in the remote layer and its transports is
    /// woken by the event that ends it. Kept only so existing callers
    /// compile.
    pub tick: Duration,
    /// Seeded wire faults, injected on the server's send path (the
    /// client injects its own directions from the same plan).
    pub wire_faults: WireFaultPlan,
    /// When set, successful responses stream progressively (header +
    /// energy-ordered detail planes) with this codec quantizing the
    /// planes on the wire. `None` keeps monolithic responses.
    pub progressive: Option<CheckpointCodec>,
}

impl Default for RemoteConfig {
    fn default() -> Self {
        RemoteConfig {
            window: 8,
            max_payload: DEFAULT_MAX_PAYLOAD,
            tick: Duration::from_millis(1),
            wire_faults: WireFaultPlan::none(),
            progressive: None,
        }
    }
}

impl RemoteConfig {
    /// Validate the knobs. Returns a human-readable reason on failure.
    pub fn validate(&self) -> Result<(), String> {
        if self.window == 0 {
            return Err("window must be >= 1".into());
        }
        if self.max_payload < MIN_NEGOTIATED_PAYLOAD {
            return Err(format!(
                "max_payload {} is too small to frame",
                self.max_payload
            ));
        }
        if let Some(codec) = &self.progressive {
            if !codec.is_valid() {
                return Err("progressive codec parameters must be finite and >= 0".into());
            }
        }
        self.wire_faults.validate()
    }
}

/// Everything a finished remote run exports: the service's own books
/// plus the transport layer's.
#[derive(Debug, Clone, Default)]
pub struct RemoteMetrics {
    /// Per-shard service metrics (as an in-process run would export).
    pub service: MetricsSnapshot,
    /// Transport counters merged over every connection.
    pub transport: TransportMetrics,
}

// ---------------------------------------------------------------------
// Dedup registry (the per-client resolution book)
// ---------------------------------------------------------------------

/// One id's state in the book. A recorded outcome is held once: the
/// book, every replay and the frame encoder share the writer's `Arc`.
#[derive(Debug, Clone)]
enum Slot {
    InFlight,
    Done(Arc<ServeResult>),
}

#[derive(Default)]
struct ClientBook {
    entries: BTreeMap<u64, Slot>,
    max_id: u64,
}

struct Dedup {
    books: Mutex<HashMap<u64, ClientBook>>,
    /// Notified whenever an `InFlight` entry stops being one: resolved,
    /// or forgotten.
    settled: Condvar,
    /// The server's configured in-flight window — the largest any
    /// connection negotiates — and therefore how far behind a client's
    /// newest id the book has to remember: resolved ids more than
    /// `window` behind it are pruned. Read by `resolve`; the bound it
    /// gives is `window + 1` results per client. Nothing the protocol
    /// can still ask for is ever pruned, because
    ///
    /// 1. a client numbers its requests consecutively and has at most
    ///    `window` of them outstanding — sent, response not yet read —
    ///    which is what the negotiated window means ([`RemoteClient`]
    ///    has one);
    /// 2. a connection's writer answers in submission order, so what a
    ///    client still waits for is always the *newest* ids it has
    ///    sent, never an old one left behind by later answers;
    /// 3. after a fault a client resubmits every id it still waits for
    ///    before it issues a new one.
    ///
    /// So a client's unanswered ids lie in `(newest − window, newest]`,
    /// where `newest` is the largest id it has sent, and the largest the
    /// server has seen is no larger. A resubmit that was claimed before
    /// its entry left the book is unaffected: it holds its own `Arc`.
    /// (A client that floods past the window is still flow-controlled,
    /// but a response it has not read may be re-executed on resubmit.)
    window: u64,
}

impl Dedup {
    fn new(window: u32) -> Arc<Dedup> {
        Arc::new(Dedup {
            books: Mutex::new(HashMap::new()),
            settled: Condvar::new(),
            window: window as u64,
        })
    }

    /// Look up `(client, id)`; if unseen, mark it `InFlight` and return
    /// `None` (the caller owns the submission, and must either hand it
    /// to its writer or [`Dedup::forget_claim`] it).
    fn claim(&self, client: u64, id: u64) -> Option<Slot> {
        let mut books = self.books.lock();
        let book = books.entry(client).or_default();
        book.max_id = book.max_id.max(id);
        match book.entries.get(&id) {
            Some(slot) => Some(slot.clone()),
            None => {
                book.entries.insert(id, Slot::InFlight);
                None
            }
        }
    }

    /// Record the terminal outcome for `(client, id)` and prune the
    /// book's resolved tail.
    fn resolve(&self, client: u64, id: u64, result: Arc<ServeResult>) {
        let mut books = self.books.lock();
        let book = books.entry(client).or_default();
        book.entries.insert(id, Slot::Done(result));
        let horizon = book.max_id.saturating_sub(self.window);
        while let Some((&first, slot)) = book.entries.first_key_value() {
            if first >= horizon || !matches!(slot, Slot::Done(_)) {
                break;
            }
            book.entries.remove(&first);
        }
        self.settled.notify_all();
    }

    /// Remove an `InFlight` claim that was never submitted (refused at
    /// the door), and tell whoever waits on it that it will not resolve.
    fn forget_claim(&self, client: u64, id: u64) {
        let mut books = self.books.lock();
        if let Some(book) = books.get_mut(&client) {
            if matches!(book.entries.get(&id), Some(Slot::InFlight)) {
                book.entries.remove(&id);
            }
        }
        self.settled.notify_all();
    }

    /// Wait until `(client, id)` — claimed by another connection — is
    /// resolved, and return the book's own pointer to the outcome;
    /// `None` if the claim was forgotten instead.
    ///
    /// The wait is finite. The reader that made the claim either forgets
    /// it (which notifies) or hands the submission to its writer; every
    /// accepted request resolves (the service's drain sees to that), and
    /// a writer works off every item it was handed before it exits, send
    /// failure or not, so that `resolve` runs.
    fn await_done(&self, client: u64, id: u64) -> Option<Arc<ServeResult>> {
        let mut books = self.books.lock();
        loop {
            match books.get(&client).and_then(|b| b.entries.get(&id)) {
                Some(Slot::Done(result)) => return Some(Arc::clone(result)),
                Some(Slot::InFlight) => self.settled.wait(&mut books),
                None => return None,
            }
        }
    }
}

// ---------------------------------------------------------------------
// Per-connection in-flight window
// ---------------------------------------------------------------------

/// The requests in flight on one connection — admitted by the reader,
/// not yet answered by the writer — as `(id, cancelled)`, never more
/// than `cap` of them. A Cancel marks an entry and the entry goes with
/// its response, so cancels cannot outgrow the window however many
/// sequences a connection cuts short.
struct Window {
    in_flight: Mutex<Vec<(u64, bool)>>,
    cap: usize,
    freed: Condvar,
}

impl Window {
    fn new(cap: u32) -> Arc<Window> {
        Arc::new(Window {
            in_flight: Mutex::new(Vec::new()),
            cap: cap as usize,
            freed: Condvar::new(),
        })
    }

    /// Admit `id` once the window has room. The wait is finite: every
    /// entry is an item in the writer's queue, and the writer releases
    /// every item it is handed, even after a send failure.
    fn acquire(&self, id: u64) {
        let mut in_flight = self.in_flight.lock();
        while in_flight.len() >= self.cap {
            self.freed.wait(&mut in_flight);
        }
        in_flight.push((id, false));
    }

    fn release(&self, id: u64) {
        let mut in_flight = self.in_flight.lock();
        if let Some(oldest) = in_flight.iter().position(|&(held, _)| held == id) {
            in_flight.remove(oldest);
        }
        self.freed.notify_all();
    }

    /// Mark `id` cancelled if the writer still owes its response. Any
    /// other id — unknown, finished, repeated after the finish — is a
    /// no-op: there are no planes left to cut.
    fn cancel(&self, id: u64) {
        for entry in self.in_flight.lock().iter_mut().filter(|e| e.0 == id) {
            entry.1 = true;
        }
    }

    fn cancelled(&self, id: u64) -> bool {
        self.in_flight.lock().contains(&(id, true))
    }
}

// ---------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------

/// Where the outcome of a response the writer owes comes from; sending
/// it and releasing its window entry are the same for all three.
enum Source {
    /// The service is executing it; the writer records the outcome.
    Service(ResponseHandle),
    /// A refusal at the door, or a recorded outcome replayed.
    Known(Arc<ServeResult>),
    /// Another connection submitted this id; its writer records it.
    Book,
}

struct ServerShared {
    /// Taken by drain before it closes any connection's read side, so
    /// a reader that fails and finds it gone was cut off by drain.
    service: Mutex<Option<WaveletService>>,
    dedup: Arc<Dedup>,
    clock: Arc<WireClock>,
    metrics: Mutex<TransportMetrics>,
    config: RemoteConfig,
}

/// The wire protocol in front of a [`WaveletService`]. See the module
/// docs for the connection anatomy and drain semantics.
pub struct RemoteServer {
    shared: Arc<ServerShared>,
    listener: Arc<dyn Listener>,
    accept: Option<JoinHandle<()>>,
}

impl RemoteServer {
    /// Start the service and the accept loop on `listener`.
    pub fn start(
        service: ServiceConfig,
        config: RemoteConfig,
        listener: Box<dyn Listener>,
    ) -> Result<RemoteServer, String> {
        service.validate()?;
        config.validate()?;
        let shared = Arc::new(ServerShared {
            service: Mutex::new(Some(WaveletService::start(service))),
            dedup: Dedup::new(config.window),
            clock: WireClock::new(),
            metrics: Mutex::new(TransportMetrics::default()),
            config,
        });
        let listener: Arc<dyn Listener> = Arc::from(listener);
        let (accept_shared, accept_listener) = (Arc::clone(&shared), Arc::clone(&listener));
        let accept = std::thread::spawn(move || {
            // A second handle onto each live connection, for drain to
            // close its read side; a connection removes its own on exit.
            let live: Mutex<HashMap<u64, Box<dyn Transport>>> = Mutex::default();
            // The connections are this thread's to see out — they end
            // once the service has drained — and the book they shared
            // ends with them, here rather than wherever the server is
            // dropped. The results in it were allocated by the shard
            // workers; glibc parks a thread's first few small frees in
            // that thread's own cache, and parked there by a caller
            // that lives on they pin the dead server's arenas (+29 %
            // peak RSS on wbench's rpc_small_hot, DESIGN.md
            // "Backpressure"). This thread is about to exit.
            std::thread::scope(|scope| {
                let mut key = 0u64;
                while let Some(transport) = accept_listener.accept() {
                    if let Some(waker) = transport.try_clone() {
                        live.lock().insert(key, waker);
                    }
                    let (shared, live) = (Arc::clone(&accept_shared), &live);
                    scope.spawn(move || {
                        conn_main(shared, transport);
                        live.lock().remove(&key);
                    });
                    key += 1;
                }
                for conn in live.lock().values_mut() {
                    conn.close_read();
                }
            });
            accept_shared.dedup.books.lock().clear();
        });
        Ok(RemoteServer {
            shared,
            listener,
            accept: Some(accept),
        })
    }

    /// Graceful drain: stop accepting, finish every accepted request,
    /// flush responses, FIN all connections, then return the merged
    /// books. A connection cut off mid-frame is aborted and counted in
    /// [`TransportMetrics::conn_aborted`].
    pub fn shutdown(mut self) -> Result<RemoteMetrics, ServiceError> {
        // Drain the service *while* connection writers are still
        // running: its shutdown resolves every accepted request, which
        // is exactly what the writers are waiting to flush. A request
        // that reaches the door after this finds it `Draining`.
        let service = self
            .shared
            .service
            .lock()
            .take()
            .expect("service present until shutdown");
        self.listener.close();
        let snapshot = service.shutdown()?;
        self.accept
            .take()
            .expect("shutdown runs once")
            .join()
            .expect("accept loop never panics");
        let transport = *self.shared.metrics.lock();
        Ok(RemoteMetrics {
            service: snapshot,
            transport,
        })
    }
}

/// One connection, reader side. Spawns and joins its writer.
fn conn_main(shared: Arc<ServerShared>, transport: Box<dyn Transport>) {
    let cfg = &shared.config;
    let mut local = TransportMetrics::default();
    let write_half = transport.try_clone();
    let mut rio = FrameIo::new(
        transport,
        0,
        WireDir::ServerToClient,
        WireFaultPlan::none(),
        Arc::clone(&shared.clock),
    )
    .with_max_payload(cfg.max_payload);
    // The writer's queue and thread, once the handshake got that far.
    let mut writer = None;
    // Raised by the writer when it can no longer deliver; it aborts the
    // connection as it does, which wakes this reader.
    let dead = Arc::new(AtomicBool::new(false));

    // Every way out of the connection leaves this block: `Ok(true)`
    // after a clean end of the request stream, `Ok(false)` to close
    // abortively, an error to close abortively and count it.
    let end: Result<bool, TransportError> = 'conn: {
        // Handshake: first frame must be a Hello within HELLO_TIMEOUT.
        let (client, hello) = match rio.recv_frame_until(Instant::now() + HELLO_TIMEOUT) {
            Ok(RecvFrame::Frame(f)) if f.kind == FrameKind::Hello => match decode_hello(&f) {
                Ok(h) => (f.id, h),
                Err(e) => break 'conn Err(e.into()),
            },
            Ok(RecvFrame::Frame(_)) => {
                local.handshake_mismatch += 1;
                break 'conn Ok(false);
            }
            Ok(RecvFrame::Eof | RecvFrame::Idle) => break 'conn Ok(false),
            Err(e) => break 'conn Err(e),
        };

        let protocol_ok = hello.protocol == PROTOCOL_VERSION as u32;
        if !protocol_ok {
            local.handshake_mismatch += 1;
        } else {
            local.conns_accepted += 1;
        }
        rio.set_conn(client);

        // Both sides settle on min(client, server) for the payload
        // window, so neither peer can push a frame the other must
        // reject. The ack still announces our raw config — the client
        // runs the same negotiation over the two announced values.
        let eff_payload = negotiate_payload(cfg.max_payload, hello.max_payload);
        rio.set_max_payload(eff_payload);

        // Writer thread: opens with the ack, then FIFO over the queue;
        // owns the send half.
        let Some(write_io) = write_half else {
            break 'conn Ok(false);
        };
        let wio = FrameIo::new(
            write_io,
            client,
            WireDir::ServerToClient,
            cfg.wire_faults.clone(),
            Arc::clone(&shared.clock),
        )
        .with_max_payload(eff_payload);
        let window = Window::new(cfg.window.min(hello.window.max(1)));
        let (tx, rx) = mpsc::channel::<(u64, Source)>();
        let handle = {
            let shared = Arc::clone(&shared);
            let window = Arc::clone(&window);
            let dead = Arc::clone(&dead);
            std::thread::spawn(move || writer_main(shared, client, wio, rx, window, dead))
        };
        let (tx, _) = writer.insert((tx, handle));

        if !protocol_ok {
            // The ack (carrying our protocol) is the client's mismatch
            // evidence; nothing further is served on this connection.
            break 'conn Ok(true);
        }

        // Main read loop.
        loop {
            match rio.recv_frame() {
                Ok(RecvFrame::Frame(f)) => match f.kind {
                    FrameKind::Request => {
                        window.acquire(f.id);
                        if dead.load(Ordering::SeqCst) {
                            break 'conn Ok(false);
                        }
                        let from = match shared.dedup.claim(client, f.id) {
                            Some(Slot::Done(result)) => {
                                local.dedup_replays += 1;
                                Source::Known(result)
                            }
                            Some(Slot::InFlight) => {
                                local.dedup_replays += 1;
                                Source::Book
                            }
                            None => {
                                let t0 = Instant::now();
                                let decoded = decode_request(&f);
                                local.ser_s += t0.elapsed().as_secs_f64();
                                let req = match decoded {
                                    Ok(req) => req,
                                    Err(e) => {
                                        shared.dedup.forget_claim(client, f.id);
                                        break 'conn Err(e.into());
                                    }
                                };
                                let submitted = shared
                                    .service
                                    .lock()
                                    .as_ref()
                                    .map(|svc| svc.submit(req))
                                    .unwrap_or(Err(Rejection::Draining));
                                match submitted {
                                    Ok(handle) => Source::Service(handle),
                                    Err(rej) => {
                                        // Not recorded in the book: a
                                        // rejected request was never
                                        // executed, so a retry may
                                        // re-attempt admission.
                                        shared.dedup.forget_claim(client, f.id);
                                        Source::Known(Arc::new(Err(rej)))
                                    }
                                }
                            }
                        };
                        if tx.send((f.id, from)).is_err() {
                            break 'conn Ok(false);
                        }
                    }
                    FrameKind::Cancel => window.cancel(f.id),
                    FrameKind::Bye => break 'conn Ok(true),
                    _ => {
                        break 'conn Err(TransportError::FrameCorrupt {
                            detail: format!("unexpected {:?} frame mid-stream", f.kind),
                        })
                    }
                },
                // The peer's FIN, or drain's close between frames.
                Ok(RecvFrame::Eof | RecvFrame::Idle) => break 'conn Ok(true),
                Err(e) => break 'conn Err(e),
            }
        }
    };
    // An error once the writer gave up is its abort echoing back; one
    // after drain closed the read side is a reader cut off mid-frame.
    let clean = match end {
        Ok(clean) => clean && !dead.load(Ordering::SeqCst),
        Err(_) if dead.load(Ordering::SeqCst) => false,
        Err(_) if shared.service.lock().is_none() => {
            local.conn_aborted += 1;
            false
        }
        Err(e) => {
            local.count_error(&e);
            false
        }
    };

    // The abortive close comes before the join: it is what unblocks a
    // writer parked in a send the peer will never read.
    if !clean {
        rio.abort();
    }
    local.absorb_wire(&rio.stats);
    if let Some((tx, handle)) = writer {
        drop(tx);
        let (wstats, wmetrics) = handle.join().expect("writer never panics");
        local.merge(&wmetrics);
        local.absorb_wire(&wstats);
    }
    shared.metrics.lock().merge(&local);
}

/// Send one response — progressively when configured and successful,
/// monolithically otherwise. Asks the window between plane frames
/// whether the client cancelled, so an honored Cancel cuts the sequence
/// at the next boundary. A monolithic response over the negotiated
/// payload window degrades to a typed rejection instead of killing the
/// connection.
fn send_response(
    shared: &ServerShared,
    wio: &mut FrameIo,
    window: &Window,
    id: u64,
    result: &ServeResult,
    local: &mut TransportMetrics,
) -> Result<(), TransportError> {
    let sent = if let (Some(codec), Ok(resp)) = (shared.config.progressive, result) {
        (|| {
            let (header, planes) = split_response(resp, codec)?;
            let mut frames = sequence_frames(id, &header, &planes);
            wio.send_frame(&frames.next().expect("the header leads")?)?;
            for plane in frames {
                if window.cancelled(id) {
                    local.cancels_honored += 1;
                    return Ok(());
                }
                wio.send_frame(&plane?)?;
                local.planes_sent += 1;
            }
            Ok(())
        })()
    } else {
        let t0 = Instant::now();
        let frame = encode_response(id, result)?;
        local.ser_s += t0.elapsed().as_secs_f64();
        wio.send_frame(&frame)
    };
    match sent {
        Err(TransportError::FrameTooLarge { len, max }) => {
            local.frame_too_large += 1;
            let fallback = encode_response(
                id,
                &Err(Rejection::Invalid {
                    detail: format!("response payload {len} B exceeds negotiated window {max} B"),
                }),
            )?;
            wio.send_frame(&fallback)
        }
        other => other,
    }
}

/// Writer side of one connection: the handshake ack, then for every
/// queued item outcome → send → release, FIFO. A failed send raises
/// `dead` and aborts the connection so the reader stops pulling new
/// work, but the queue is still worked off: outcomes recorded here stay
/// replayable from the book, and every permit goes back.
fn writer_main(
    shared: Arc<ServerShared>,
    client: u64,
    mut wio: FrameIo,
    rx: mpsc::Receiver<(u64, Source)>,
    window: Arc<Window>,
    dead: Arc<AtomicBool>,
) -> (crate::transport::WireStats, TransportMetrics) {
    let mut local = TransportMetrics::default();
    let ack = encode_hello(
        FrameKind::HelloAck,
        client,
        &Hello {
            protocol: PROTOCOL_VERSION as u32,
            max_payload: shared.config.max_payload,
            window: shared.config.window,
        },
    );
    // Stop the reader pulling new work, and wake it with an abort.
    let give_up = |wio: &mut FrameIo| {
        dead.store(true, Ordering::SeqCst);
        wio.abort();
    };
    if let Err(e) = wio.send_frame(&ack) {
        local.count_error(&e);
        give_up(&mut wio);
    }
    for (id, from) in rx.iter() {
        let result = match from {
            Source::Service(handle) => {
                let result = Arc::new(handle.wait());
                shared.dedup.resolve(client, id, Arc::clone(&result));
                Some(result)
            }
            Source::Known(result) => Some(result),
            Source::Book => shared.dedup.await_done(client, id),
        };
        match result {
            Some(result) if !dead.load(Ordering::SeqCst) => {
                if let Err(e) = send_response(&shared, &mut wio, &window, id, &result, &mut local) {
                    local.count_error(&e);
                    give_up(&mut wio);
                }
            }
            Some(_) => {}
            // The submission this id waited on was refused at the door,
            // so nothing will resolve it here. Fail the connection: the
            // client's retry re-attempts admission, as it does after
            // any rejection.
            None => give_up(&mut wio),
        }
        window.release(id);
    }
    if !dead.load(Ordering::SeqCst) {
        wio.shutdown_write();
    }
    (wio.stats, local)
}

// ---------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------

/// Capped exponential backoff for idempotent resubmits.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts per request (1 = no retry).
    pub max_attempts: u32,
    /// Backoff before the second attempt, in seconds.
    pub backoff_base_s: f64,
    /// Multiplier applied per further attempt.
    pub backoff_mult: f64,
    /// Ceiling on any single backoff, in seconds.
    pub backoff_cap_s: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 6,
            backoff_base_s: 1e-3,
            backoff_mult: 2.0,
            backoff_cap_s: 100e-3,
        }
    }
}

impl RetryPolicy {
    /// Backoff slept after failed attempt `attempt` (1-based: the
    /// first failure is attempt 1 and sleeps `backoff_base_s`).
    ///
    /// `attempt = 0` is not a valid failed attempt; it is clamped to 1
    /// rather than panicking, so the schedule stays total. Callers
    /// should never reach it: [`RetryPolicy::validate`] rejects
    /// `max_attempts == 0` and [`RemoteClient::call`] refuses to run
    /// with an invalid policy.
    pub fn backoff_s(&self, attempt: u32) -> f64 {
        let attempt = attempt.max(1);
        (self.backoff_base_s * self.backoff_mult.powi((attempt - 1) as i32)).min(self.backoff_cap_s)
    }

    /// Validate the policy. Returns a human-readable reason on failure.
    pub fn validate(&self) -> Result<(), String> {
        if self.max_attempts == 0 {
            return Err("max_attempts must be >= 1".into());
        }
        for (name, v) in [
            ("backoff_base_s", self.backoff_base_s),
            ("backoff_cap_s", self.backoff_cap_s),
        ] {
            if !(v >= 0.0 && v.is_finite()) {
                return Err(format!("{name} = {v} must be finite and >= 0"));
            }
        }
        if !(self.backoff_mult >= 1.0 && self.backoff_mult.is_finite()) {
            return Err(format!(
                "backoff_mult = {} must be finite and >= 1",
                self.backoff_mult
            ));
        }
        Ok(())
    }
}

/// Client-side accounting of progressive delivery.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProgressiveTally {
    /// Progressive header frames received.
    pub headers: u64,
    /// Detail-plane frames applied.
    pub planes: u64,
    /// Cancel frames sent after meeting tolerance or a byte budget.
    pub cancels: u64,
    /// Calls resolved from a partial (cut-short) reassembly.
    pub partial_responses: u64,
    /// Sequences cut short because the byte budget was reached before
    /// completion (a subset of `cancels`).
    pub budget_stops: u64,
}

/// A synchronous closed-loop client: one outstanding request, retried
/// with capped exponential backoff across reconnects. Ids are assigned
/// monotonically, so the server's resolution book preserves
/// exactly-once execution under any schedule of wire faults.
pub struct RemoteClient {
    connector: Box<dyn Connector>,
    client_id: u64,
    protocol: u32,
    next_id: u64,
    io: Option<FrameIo>,
    faults: WireFaultPlan,
    clock: Arc<WireClock>,
    retry: RetryPolicy,
    response_timeout: Duration,
    /// Payload window announced in our Hello.
    max_payload: u32,
    /// The payload window settled by the last handshake.
    negotiated: Option<u32>,
    /// Stop reading a progressive sequence (and Cancel it) once the
    /// running error bound reaches this.
    tolerance: Option<f64>,
    /// Stop reading a progressive sequence (and Cancel it) once this
    /// many response bytes have arrived for the call, complete or not.
    byte_budget: Option<usize>,
    /// Client-side transport counters (errors observed, frames/bytes).
    pub transport: TransportMetrics,
    /// Progressive delivery counters.
    pub progressive: ProgressiveTally,
    /// Resubmits performed across all calls.
    pub retries: u64,
}

impl RemoteClient {
    /// A client dialing through `connector` as `client_id`. Connections
    /// are opened lazily on first use and after faults.
    pub fn new(connector: Box<dyn Connector>, client_id: u64) -> RemoteClient {
        RemoteClient {
            connector,
            client_id,
            protocol: PROTOCOL_VERSION as u32,
            next_id: 0,
            io: None,
            faults: WireFaultPlan::none(),
            clock: WireClock::new(),
            retry: RetryPolicy::default(),
            response_timeout: Duration::from_secs(30),
            max_payload: DEFAULT_MAX_PAYLOAD,
            negotiated: None,
            tolerance: None,
            byte_budget: None,
            transport: TransportMetrics::default(),
            progressive: ProgressiveTally::default(),
            retries: 0,
        }
    }

    /// Inject `faults` on this client's send path (request direction).
    pub fn with_faults(mut self, faults: WireFaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Override the retry policy.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Give up on any single response after `timeout`.
    pub fn with_response_timeout(mut self, timeout: Duration) -> Self {
        self.response_timeout = timeout;
        self
    }

    /// Claim a different protocol version in the handshake (tests use
    /// this to provoke [`TransportError::HandshakeMismatch`]).
    pub fn with_claimed_protocol(mut self, protocol: u32) -> Self {
        self.protocol = protocol;
        self
    }

    /// Announce a different payload window in the handshake; the
    /// connection settles on `min(ours, server's)`.
    pub fn with_max_payload(mut self, max_payload: u32) -> Self {
        self.max_payload = max_payload;
        self
    }

    /// Stop reading progressive sequences — and Cancel the request —
    /// once the running error bound is at most `tolerance`. Without a
    /// tolerance the client always reads sequences to completion.
    pub fn with_tolerance(mut self, tolerance: f64) -> Self {
        self.tolerance = Some(tolerance);
        self
    }

    /// Stop reading progressive sequences — and Cancel the request —
    /// once at least `budget` response bytes (on-wire frame bytes for
    /// the call) have arrived, even if the running error bound has not
    /// met any tolerance. The partial response delivered is whatever
    /// refinement the budget paid for; budget-cut calls are surfaced in
    /// [`ProgressiveTally::budget_stops`]. Composes with
    /// [`RemoteClient::with_tolerance`]: whichever predicate fires
    /// first cancels the stream.
    pub fn with_byte_budget(mut self, budget: usize) -> Self {
        self.byte_budget = Some(budget.max(1));
        self
    }

    /// The payload window the last handshake settled on
    /// (`min(client, server)`); `None` before the first connection.
    pub fn negotiated_max_payload(&self) -> Option<u32> {
        self.negotiated
    }

    fn ensure_conn(&mut self) -> Result<(), TransportError> {
        if self.io.is_some() {
            return Ok(());
        }
        let transport = self.connector.dial()?;
        let mut io = FrameIo::new(
            transport,
            self.client_id,
            WireDir::ClientToServer,
            self.faults.clone(),
            Arc::clone(&self.clock),
        );
        io.send_frame(&encode_hello(
            FrameKind::Hello,
            self.client_id,
            &Hello {
                protocol: self.protocol,
                max_payload: self.max_payload,
                window: 1,
            },
        ))?;
        let ack = next_frame(&mut io, Instant::now(), self.response_timeout)?;
        if ack.kind != FrameKind::HelloAck {
            return Err(TransportError::HandshakeMismatch {
                detail: format!("expected HelloAck, got {:?}", ack.kind),
            });
        }
        let ack = decode_hello(&ack)?;
        if ack.protocol != self.protocol {
            return Err(TransportError::HandshakeMismatch {
                detail: format!(
                    "server speaks protocol {}, we speak {}",
                    ack.protocol, self.protocol
                ),
            });
        }
        // Same negotiation the server runs over the two announced
        // values, so both ends enforce the same window in both
        // directions.
        let eff = negotiate_payload(self.max_payload, ack.max_payload);
        io.set_max_payload(eff);
        self.negotiated = Some(eff);
        self.io = Some(io);
        Ok(())
    }

    /// One request/response exchange. The error carries whether it is
    /// *terminal*: a protocol disagreement, or a request the negotiated
    /// payload window deterministically refuses at send time (a
    /// FrameTooLarge seen on the *receive* path is corruption of the
    /// length field and stays retryable).
    fn attempt(
        &mut self,
        id: u64,
        req: &DecomposeRequest,
    ) -> Result<ServeResult, (TransportError, bool)> {
        self.ensure_conn().map_err(|e| {
            let terminal = matches!(e, TransportError::HandshakeMismatch { .. });
            (e, terminal)
        })?;
        let io = self.io.as_mut().expect("ensure_conn succeeded");
        let frame = encode_request(id, req).map_err(|e| (TransportError::from(e), true))?;
        io.send_frame(&frame).map_err(|e| {
            let terminal = matches!(e, TransportError::FrameTooLarge { .. });
            (e, terminal)
        })?;
        let (result, drop_conn) = recv_response(
            io,
            id,
            self.response_timeout,
            self.tolerance,
            self.byte_budget,
            &mut self.progressive,
        )
        .map_err(|e| (e, false))?;
        if drop_conn {
            // The Cancel could not be sent; redial lazily rather than
            // read a sequence the server will keep streaming.
            if let Some(io) = self.io.take() {
                self.transport.absorb_wire(&io.stats);
            }
        }
        Ok(result)
    }

    /// Submit one request and wait for its outcome, retrying
    /// idempotently (same request id) across transport faults.
    /// Handshake mismatches and send-side oversized requests are
    /// terminal — retrying cannot fix a protocol disagreement or
    /// shrink a payload the negotiated window refuses. An invalid
    /// [`RetryPolicy`] fails typed before anything is sent.
    pub fn call(&mut self, req: &DecomposeRequest) -> Result<ServeResult, TransportError> {
        if let Err(detail) = self.retry.validate() {
            return Err(TransportError::InvalidConfig { detail });
        }
        let id = self.next_id;
        self.next_id += 1;
        let mut attempt = 0u32;
        loop {
            attempt += 1;
            match self.attempt(id, req) {
                Ok(result) => return Ok(result),
                Err((e, true)) => {
                    self.io = None;
                    self.transport.count_error(&e);
                    return Err(e);
                }
                Err((e, false)) => {
                    self.transport.count_error(&e);
                    if let Some(io) = self.io.take() {
                        self.transport.absorb_wire(&io.stats);
                    }
                    if attempt >= self.retry.max_attempts {
                        return Err(e);
                    }
                    self.retries += 1;
                    std::thread::sleep(Duration::from_secs_f64(self.retry.backoff_s(attempt)));
                }
            }
        }
    }

    /// Clean goodbye: Bye frame, FIN, fold the connection's counters.
    pub fn goodbye(&mut self) {
        if let Some(mut io) = self.io.take() {
            let _ = io.send_frame(&Frame::new(FrameKind::Bye, self.client_id, Vec::new()));
            io.shutdown_write();
            self.transport.absorb_wire(&io.stats);
        }
    }
}

/// The next frame on a client connection, waiting until `timeout` past
/// `since`. A server that closes while the client still waits on it has
/// reset the exchange, however cleanly it closed.
fn next_frame(
    io: &mut FrameIo,
    since: Instant,
    timeout: Duration,
) -> Result<Frame, TransportError> {
    let got = match since.checked_add(timeout) {
        Some(deadline) => io.recv_frame_until(deadline)?,
        None => io.recv_frame()?,
    };
    match got {
        RecvFrame::Frame(f) => Ok(f),
        RecvFrame::Eof => Err(TransportError::ConnReset),
        RecvFrame::Idle => Err(TransportError::ConnTimeout {
            waited_ms: timeout.as_millis() as u64,
        }),
    }
}

/// Wait for the response to `id` — a terminal outcome, or a progressive
/// sequence reassembled incrementally (cut short by Cancel once
/// `tolerance` is met or `byte_budget` response bytes have landed).
/// Returns `(result, drop_connection)`.
fn recv_response(
    io: &mut FrameIo,
    id: u64,
    timeout: Duration,
    tolerance: Option<f64>,
    byte_budget: Option<usize>,
    tally: &mut ProgressiveTally,
) -> Result<(ServeResult, bool), TransportError> {
    let since = Instant::now();
    let mut assembly: Option<Reassembler> = None;
    // On-wire bytes received for this call's Response frames; the
    // byte-budget predicate is over delivered wire bytes, not decoded
    // coefficient counts, so it bounds what the link actually carried.
    let mut got_bytes = 0usize;
    loop {
        let f = next_frame(io, since, timeout)?;
        if f.kind != FrameKind::Response {
            return Err(TransportError::FrameCorrupt {
                detail: format!("unexpected {:?} frame mid-stream", f.kind),
            });
        }
        if f.id != id {
            // A stale response frame from an earlier id — a prior
            // attempt's monolithic reply or the tail of a cancelled
            // sequence; harmless, keep waiting for ours.
            debug_assert!(f.id < id, "responses never outrun requests");
            continue;
        }
        got_bytes += HEADER_LEN + f.payload.len() + TRAILER_LEN;
        let r = match decode_response_body(&f)? {
            ResponseBody::Outcome(result) => return Ok((result, false)),
            ResponseBody::Header(h) => {
                let r = Reassembler::new(h)?;
                tally.headers += 1;
                assembly.insert(r)
            }
            ResponseBody::Plane(p) => {
                let Some(r) = assembly.as_mut() else {
                    return Err(TransportError::FrameCorrupt {
                        detail: "detail plane before progressive header".into(),
                    });
                };
                r.apply(&p)?;
                tally.planes += 1;
                r
            }
        };
        let step = r.step(!f.more_follows(), got_bytes, tolerance, byte_budget);
        if step == Step::Read {
            continue;
        }
        let r = assembly.take().expect("assembly just stepped");
        let mut drop_conn = false;
        if let Step::Cancel { budget } = step {
            let cancel = Frame::new(FrameKind::Cancel, id, Vec::new());
            drop_conn = io.send_frame(&cancel).is_err();
            tally.cancels += 1;
            tally.budget_stops += budget as u64;
        }
        if !r.complete() {
            // Cut short by our Cancel, or by the server (e.g. a Cancel
            // from a prior attempt landed late); either way the partial
            // result is still within its reported bound.
            tally.partial_responses += 1;
        }
        return Ok((Ok(r.into_response()), drop_conn));
    }
}

impl Drop for RemoteClient {
    fn drop(&mut self) {
        self.goodbye();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::DecomposeResponse;
    use dwt::Pyramid;

    fn outcome() -> Arc<ServeResult> {
        Arc::new(Ok(DecomposeResponse {
            pyramid: Pyramid::zeros(8, 8, 1).expect("dyadic geometry"),
            cache_hit: false,
            batch_size: 1,
            wait_s: 0.0,
            service_s: 0.0,
            degraded: false,
            error_bound: 0.0,
        }))
    }

    /// Run `wait` on its own thread and hand back its answer. The nap
    /// only makes "the waiter is parked before the test goes on" the
    /// common order; every assertion below holds in the other order
    /// too. No wait under test has a timer, so one that misses its
    /// wake-up fails the `recv_timeout` instead of passing late.
    fn parked<T: Send + 'static>(wait: impl FnOnce() -> T + Send + 'static) -> mpsc::Receiver<T> {
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || tx.send(wait()));
        std::thread::sleep(Duration::from_millis(20));
        rx
    }

    const WOKEN: Duration = Duration::from_secs(10);

    #[test]
    fn a_waiter_gets_the_books_own_pointer() {
        let dedup = Dedup::new(8);
        assert!(dedup.claim(7, 0).is_none(), "first sight claims the id");
        assert!(matches!(dedup.claim(7, 0), Some(Slot::InFlight)));
        let waiter = {
            let dedup = Arc::clone(&dedup);
            parked(move || dedup.await_done(7, 0))
        };
        let result = outcome();
        dedup.resolve(7, 0, Arc::clone(&result));
        let got = waiter
            .recv_timeout(WOKEN)
            .expect("resolve wakes the waiter");
        assert!(Arc::ptr_eq(&got.expect("resolved"), &result), "no copy");
        match dedup.claim(7, 0) {
            Some(Slot::Done(replay)) => assert!(Arc::ptr_eq(&replay, &result)),
            other => panic!("expected the recorded outcome, got {other:?}"),
        }
        // Book, waiter's answer (dropped), replay (dropped), ours.
        assert_eq!(Arc::strong_count(&result), 2);
    }

    #[test]
    fn forgetting_a_claim_releases_its_waiter() {
        let dedup = Dedup::new(8);
        assert!(dedup.claim(7, 0).is_none());
        let waiter = {
            let dedup = Arc::clone(&dedup);
            parked(move || dedup.await_done(7, 0))
        };
        dedup.forget_claim(7, 0);
        let got = waiter
            .recv_timeout(WOKEN)
            .expect("forget_claim wakes the waiter");
        assert!(got.is_none(), "a forgotten claim never resolves");
        assert!(dedup.claim(7, 0).is_none(), "the retry claims it afresh");
    }

    #[test]
    fn the_book_remembers_one_window_of_results() {
        let window = 8u64;
        let dedup = Dedup::new(window as u32);
        let results: Vec<_> = (0..10 * window)
            .map(|id| {
                assert!(dedup.claim(7, id).is_none(), "id {id} is new");
                let result = outcome();
                dedup.resolve(7, id, Arc::clone(&result));
                let held = dedup.books.lock()[&7].entries.len() as u64;
                assert!(held <= window + 1, "{held} results held after id {id}");
                result
            })
            .collect();
        let newest = 10 * window - 1;
        for id in newest + 1 - window..=newest {
            match dedup.claim(7, id) {
                Some(Slot::Done(replay)) => assert!(Arc::ptr_eq(&replay, &results[id as usize])),
                other => panic!("id {id} must replay, got {other:?}"),
            }
        }
        // What fell behind the horizon was freed, not just unlinked: the
        // book was its last owner besides this test.
        assert_eq!(Arc::strong_count(&results[0]), 1);
        assert_eq!(Arc::strong_count(&results[newest as usize]), 2);
    }

    #[test]
    fn a_full_window_opens_on_release() {
        let window = Window::new(2);
        window.acquire(0);
        window.acquire(1);
        let third = {
            let window = Arc::clone(&window);
            parked(move || window.acquire(2))
        };
        assert!(third.try_recv().is_err(), "no permit, no admission");
        window.release(0);
        third.recv_timeout(WOKEN).expect("release wakes the reader");
        assert_eq!(*window.in_flight.lock(), [(1, false), (2, false)]);
    }

    #[test]
    fn cancels_never_outgrow_the_window() {
        let window = Window::new(2);
        window.acquire(1);
        window.acquire(2);
        window.cancel(1);
        window.cancel(99);
        assert!(window.cancelled(1));
        assert!(!window.cancelled(2) && !window.cancelled(99));
        window.release(1);
        window.cancel(1);
        assert!(!window.cancelled(1), "a finished id is past cancelling");
        // A connection that cancels every sequence it asks for.
        for id in 10..1000 {
            window.acquire(id);
            window.cancel(id);
            assert!(window.cancelled(id));
            window.release(id);
            assert!(window.in_flight.lock().len() <= 2);
        }
        assert_eq!(*window.in_flight.lock(), [(2, false)], "only id 2 is left");
    }
}
