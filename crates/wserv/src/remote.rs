//! Remote serving: [`RemoteServer`] puts the wire protocol in front of
//! [`WaveletService::submit`], [`RemoteClient`] drives it from the
//! other side.
//!
//! ## Connection anatomy
//!
//! Each accepted connection is served on one thread, the one the accept
//! loop spawns for it. It performs the handshake, then takes one frame
//! at a time: a Request is decoded, claimed, submitted and waited on,
//! and its response written, before the next frame is read. Frames
//! stream both ways through the connection's one [`FrameIo`] chunk: a
//! request is decoded straight into its image as its bytes arrive, and a
//! response is encoded into the chunk as it is sent, so no frame is ever
//! held whole in bytes, on either side. Every
//! HelloAck announces a request window of 1, and that is what a
//! connection serves: a client that sends ahead is answered in order,
//! and the transport's byte window holds its backlog — its sends block
//! once the pipe is full — with no queue on the server. Under
//! progressive delivery a client that sends a request instead of
//! crediting the sequence it is reading is past that window, and is cut
//! off. A request's wait for another connection's claim on its id is a
//! plain condvar wait, woken by the event that ends it, and says at the
//! wait why it is finite.
//! So are the transport waits: the accept blocks until a dial or
//! [`Listener::close`], and a read until a frame, the peer's FIN, an
//! abort or drain's [`Transport::close_read`]. The only timers are
//! contracts: the client's response timeout and the server's
//! [`HELLO_TIMEOUT`].
//!
//! ## Exactly-once
//!
//! Clients assign monotone request ids and resubmit idempotently after
//! transport faults. The server keeps a per-client *resolution book*,
//! one value that owns every rule below: a request id is `InFlight`
//! from submission until its outcome is recorded, then `Done(result)`,
//! under the verified trailer of the Request frame that claimed it. The
//! connection claims the id once the request is decoded and its trailer
//! verified — the image is held once, and the frame's bytes never were.
//! A resubmit of a `Done` id
//! replays the recorded outcome without re-execution; a *different*
//! request under a held id — a client restarted under its id numbers
//! from 0 again — is never answered from the book. A request that finds
//! its id `InFlight` — a resubmit after its connection died mid-service,
//! or a different request — waits that claim out and claims again: a
//! resubmit then replays, a different request executes.
//! Execution happens at most once per id; rejected submissions are
//! deliberately *not* recorded, so a retry after `QueueFull`
//! re-attempts admission rather than replaying the rejection, and a
//! resubmit that waited on a claim refused at the door claims the id
//! itself. An outcome exists once: the connection wraps what the service
//! returned in an `Arc`, and the book, every replay and the encoder
//! share it. The book remembers exactly what the protocol can still ask
//! for: a client has at most one id outstanding — the window every
//! HelloAck announces — so resolved ids more than one behind a client's
//! newest are pruned: 2 results per client, with the argument at
//! `WINDOW`. A pruned success that nothing else holds — no replay still
//! sending it — leaves the book's lock whole, as the connection's one
//! *spare*: its next submission carries it to the shard, which
//! decomposes into it instead of allocating when the plan's pyramid
//! check accepts its geometry. So a connection whose requests share a
//! geometry reuses three pyramids' storage, and the spare is freed with
//! the connection.
//!
//! ## Progressive delivery
//!
//! With [`RemoteConfig::progressive`] set, successful responses ship
//! as a plane sequence instead of one monolithic frame: a header frame
//! (metadata + exact LL plane, [`crate::wire::FLAG_CONTINUE`] set),
//! then detail planes in decreasing order of the bound each removes,
//! the last with the flag clear. The header goes unasked; each plane
//! goes only once the client's [`crate::wire::FrameKind::Credit`]
//! covers it, which [`RemoteClient`] sends whenever it wants to read on
//! — so the server never runs ahead of its reader, and quantizes no
//! plane nobody reads.
//! A client with neither a tolerance nor a byte budget reads every
//! plane, so it credits the whole sequence once, after the header.
//! Between planes the connection reads the client's frames until a
//! credit covers the next one. A client whose tolerance is met (or byte
//! budget spent) sends [`crate::wire::FrameKind::Cancel`] instead of the
//! next credit, and the sequence stops there with no closing frame.
//! Cancel and Credit are idempotent and dedup-safe: the request already
//! executed and its outcome is in the resolution book, so they only
//! pace and trim delivery, never accounting; for any id but the
//! sequence's they are no-ops.
//!
//! ## Drain
//!
//! [`RemoteServer::shutdown`] closes the listener and runs the
//! service's own graceful drain (which resolves every accepted
//! request). The accept thread, woken by the close, closes the read
//! side of every live connection: a read between frames ends cleanly,
//! and the connection sends every response it owes before FIN —
//! lossless for everything accepted. That includes the rest of a
//! progressive sequence: after a clean end (drain, or the peer's FIN)
//! every plane still owed reads as credited. A read cut off mid-frame (a
//! half-open peer: partial frame, then silence) is aborted and counted
//! in [`TransportMetrics::conn_aborted`]; no grace could have served
//! that frame, because the service is already closed to it. The
//! accept thread sees its connections out and frees the resolution
//! book before it exits.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use dwt::Pyramid;
use dwt_mimd::CheckpointCodec;

use crate::faults::{WireDir, WireFaultPlan};
use crate::metrics::{MetricsSnapshot, TransportMetrics};
use crate::progressive::{PlaneSequence, Reassembler, Step};
use crate::request::{DecomposeRequest, DecomposeResponse, Rejection, ServeResult};
use crate::server::{ServiceConfig, ServiceError, WaveletService};
use crate::transport::{
    Connector, FrameIo, Listener, RecvFrame, Transport, TransportError, WireClock,
};
use crate::wire::{
    Head, Hello, Message, Payload, ResponseBody, WireError, DEFAULT_MAX_PAYLOAD, HEADER_LEN,
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
    /// Ignored: a connection serves one request at a time, and every
    /// HelloAck announces a request window of 1. Kept only so existing
    /// callers compile.
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
    /// bound-ordered detail planes, each sent when the client credits
    /// it) with this codec quantizing the planes on the wire. `None`
    /// keeps monolithic responses.
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

/// The request window every HelloAck announces: how many requests a
/// client may have outstanding — sent, response not yet read — and so
/// how far behind its newest id the resolution book has to remember.
/// Resolved ids more than `WINDOW` behind the largest the book has seen
/// are pruned, which keeps `WINDOW + 1` = 2 results per client. Nothing
/// the protocol can still ask for is ever pruned, because
///
/// 1. a client numbers its requests consecutively and has at most
///    `WINDOW` of them outstanding;
/// 2. after a fault a client resubmits every id it still waits for
///    before it issues a new one.
///
/// So a client's unanswered ids lie in `(newest − WINDOW, newest]`,
/// where `newest` is the largest id it has sent, and the largest the
/// server has seen is no larger. A resubmit that was claimed before its
/// entry left the book is unaffected: it holds its own `Arc`. (A client
/// that sends past the window is still served, in order, but a response
/// it has not read may be re-executed on resubmit.)
const WINDOW: u32 = 1;

/// One id's state in the book. A recorded outcome is held once: the
/// book, every replay and the frame encoder share the connection's
/// `Arc`.
#[derive(Clone)]
enum Slot {
    InFlight,
    Done(Arc<ServeResult>),
}

/// What [`ClientBook::claim`] found under an id.
#[derive(Debug)]
enum Claim {
    /// This very request's recorded outcome.
    Replay(Arc<ServeResult>),
    /// The request whose frame's trailer this is — this one or another —
    /// holds the id in flight: wait it out, then claim again.
    Wait(u64),
    /// The caller now holds the id, `InFlight`; `reused` if that replaced
    /// the outcome of a different request under the same id.
    Fresh { reused: bool },
}

/// One client's resolution book: every rule of the exactly-once
/// protocol, as a plain value that [`Dedup`] keeps under its lock.
#[derive(Clone, Default)]
struct ClientBook {
    /// Each id's slot, under the verified trailer of the Request frame
    /// that claimed it: only the same request replays it.
    entries: BTreeMap<u64, (u64, Slot)>,
    max_id: u64,
}

impl ClientBook {
    /// Look `id` up for the request whose frame's trailer is `check`.
    /// Unless it replays or must wait, the caller takes the id,
    /// `InFlight`, and must either submit the request and resolve it, or
    /// [`ClientBook::forget`] it.
    fn claim(&mut self, id: u64, check: u64) -> Claim {
        self.max_id = self.max_id.max(id);
        match self.entries.get(&id) {
            Some((held, Slot::Done(result))) if *held == check => Claim::Replay(Arc::clone(result)),
            Some(&(held, Slot::InFlight)) => Claim::Wait(held),
            other => {
                let reused = other.is_some();
                self.entries.insert(id, (check, Slot::InFlight));
                Claim::Fresh { reused }
            }
        }
    }

    /// Record the terminal outcome of the claim on `id`, and prune the
    /// resolved tail behind the horizon ([`WINDOW`]). Hands back the
    /// pyramid of a pruned success that nothing else holds — a replay
    /// that still holds its result keeps it whole — for the caller to
    /// free or reuse outside the lock. One client's consecutive ids
    /// prune one result per call; should a call prune more, the others
    /// are freed here.
    fn resolve(&mut self, id: u64, result: Arc<ServeResult>) -> Option<Pyramid> {
        if let Some((_, slot)) = self.entries.get_mut(&id) {
            *slot = Slot::Done(result);
        }
        let horizon = self.max_id.saturating_sub(WINDOW.into());
        let mut released = None;
        while let Some(first) = self.entries.first_entry() {
            if *first.key() >= horizon || !matches!(first.get().1, Slot::Done(_)) {
                break;
            }
            if let (_, Slot::Done(result)) = first.remove() {
                if let Ok(Ok(resp)) = Arc::try_unwrap(result) {
                    released = Some(resp.pyramid);
                }
            }
        }
        released
    }

    /// Remove an `InFlight` claim that was never submitted (refused at
    /// the door).
    fn forget(&mut self, id: u64) {
        if matches!(self.entries.get(&id), Some((_, Slot::InFlight))) {
            self.entries.remove(&id);
        }
    }

    /// Whether the request with trailer `held` holds `id` in flight.
    fn in_flight(&self, id: u64, held: u64) -> bool {
        matches!(self.entries.get(&id), Some(&(h, Slot::InFlight)) if h == held)
    }
}

/// Every client's book under one lock, and the one wait on it.
#[derive(Default)]
struct Dedup {
    books: Mutex<HashMap<u64, ClientBook>>,
    /// Notified whenever an `InFlight` entry stops being one: resolved,
    /// or forgotten.
    settled: Condvar,
}

impl Dedup {
    /// Run `f` on `client`'s book under the lock.
    fn book<T>(&self, client: u64, f: impl FnOnce(&mut ClientBook) -> T) -> T {
        f(self.books.lock().entry(client).or_default())
    }

    /// End a claim with `f` — [`ClientBook::resolve`] or
    /// [`ClientBook::forget`] — and wake whoever waits on it. What `f`
    /// returns leaves the lock by move.
    fn settle<T>(&self, client: u64, f: impl FnOnce(&mut ClientBook) -> T) -> T {
        let out = self.book(client, f);
        self.settled.notify_all();
        out
    }

    /// Block until the request with trailer `held` no longer holds
    /// `(client, id)` in flight.
    ///
    /// The wait is finite. The connection that made the claim either
    /// forgets it (which notifies), or waits on the submission and
    /// resolves it: every accepted request resolves (the service's drain
    /// sees to that), and a connection resolves its claim before it
    /// reads its next frame, so it never waits on a claim of its own.
    fn wait(&self, client: u64, id: u64, held: u64) {
        let mut books = self.books.lock();
        while books.get(&client).is_some_and(|b| b.in_flight(id, held)) {
            self.settled.wait(&mut books);
        }
    }
}

// ---------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------

struct ServerShared {
    /// Taken by drain before it closes any connection's read side, so
    /// a read that fails and finds it gone was cut off by drain.
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
            dedup: Arc::default(),
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
                let (shared, live) = (&*accept_shared, &live);
                let mut key = 0u64;
                while let Some(transport) = accept_listener.accept() {
                    if let Some(waker) = transport.try_clone() {
                        live.lock().insert(key, waker);
                    }
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
        // Drain the service *while* the connections are still served:
        // its shutdown resolves every accepted request, which is exactly
        // what they are waiting to answer. A request that reaches the
        // door after this finds it `Draining`.
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

/// Why a connection ends abortively.
enum Fault {
    /// A read failed, or brought what the protocol does not allow.
    Recv(TransportError),
    /// Encoding or sending a frame failed.
    Send(TransportError),
    /// An end no fault counter names: the peer never said `Hello`, sent
    /// a request past its window, or lost its request's id to a third
    /// request while it waited.
    Quit,
}

/// `?` on an encode or a send.
impl From<TransportError> for Fault {
    fn from(e: TransportError) -> Fault {
        Fault::Send(e)
    }
}

/// `?` on an encode.
impl From<WireError> for Fault {
    fn from(e: WireError) -> Fault {
        Fault::Send(e.into())
    }
}

/// What a client sends once its connection is open.
enum Inbound {
    Request(u64, DecomposeRequest),
    Credit(u64, u32),
    Cancel(u64),
    /// A clean end of the request stream: `Bye`, the peer's FIN, or
    /// drain's `close_read` between frames.
    End,
}

/// One connection, served on the thread the accept loop spawned for it.
struct Conn<'a> {
    shared: &'a ServerShared,
    io: FrameIo,
    /// The client id its `Hello` announced.
    client: u64,
    /// The request stream has ended cleanly: every response still owed
    /// is sent, in full, and then the connection FINs.
    ended: bool,
    /// The pyramid the book last released for this client, which the
    /// next submission offers the shard to decompose into: at most one
    /// per connection, freed with it.
    spare: Option<Pyramid>,
    local: TransportMetrics,
}

/// Serve one connection, then close it: with FIN after a clean end,
/// abortively otherwise, and book what it counted.
fn conn_main(shared: &ServerShared, transport: Box<dyn Transport>) {
    let cfg = &shared.config;
    let io = FrameIo::new(
        transport,
        0,
        WireDir::ServerToClient,
        cfg.wire_faults.clone(),
        Arc::clone(&shared.clock),
    )
    .with_max_payload(cfg.max_payload);
    let mut conn = Conn {
        shared,
        io,
        client: 0,
        ended: false,
        spare: None,
        local: TransportMetrics::default(),
    };
    let clean = match conn.run() {
        Ok(()) => true,
        // A read that fails once drain has closed the read side was cut
        // off mid-frame.
        Err(Fault::Recv(_)) if shared.service.lock().is_none() => {
            conn.local.conn_aborted += 1;
            false
        }
        Err(Fault::Recv(e) | Fault::Send(e)) => {
            conn.local.count_error(&e);
            false
        }
        Err(Fault::Quit) => false,
    };
    if clean {
        conn.io.shutdown_write();
    } else {
        conn.io.abort();
    }
    conn.local.merge(&conn.io.stats);
    shared.metrics.lock().merge(&conn.local);
}

impl Conn<'_> {
    /// The handshake, then one request at a time until the stream ends.
    fn run(&mut self) -> Result<(), Fault> {
        // The first frame must be a Hello within HELLO_TIMEOUT.
        let deadline = Instant::now() + HELLO_TIMEOUT;
        let hello = match self.io.recv(Some(deadline)).map_err(Fault::Recv)? {
            RecvFrame::Frame((head, Message::Hello(hello))) => {
                self.client = head.id;
                hello
            }
            RecvFrame::Frame(_) => {
                self.local.handshake_mismatch += 1;
                return Err(Fault::Quit);
            }
            RecvFrame::Eof | RecvFrame::Idle => return Err(Fault::Quit),
        };
        self.io.set_conn(self.client);
        let cfg = &self.shared.config;
        // Both sides settle on min(client, server) for the payload
        // window, so neither peer can push a frame the other must
        // reject. The ack still announces our raw config — the client
        // runs the same negotiation over the two announced values.
        self.io.max_payload = negotiate_payload(cfg.max_payload, hello.max_payload);
        if hello.protocol == PROTOCOL_VERSION as u32 {
            self.local.conns_accepted += 1;
        } else {
            // The ack (carrying our protocol) is the client's mismatch
            // evidence; nothing further is served on this connection.
            self.local.handshake_mismatch += 1;
            self.ended = true;
        }
        let ours = Hello {
            protocol: PROTOCOL_VERSION as u32,
            max_payload: cfg.max_payload,
            window: WINDOW,
        };
        self.io.send(self.client, &Payload::HelloAck(ours))?;
        while !self.ended {
            if let Inbound::Request(id, req) = self.read()? {
                self.serve(id, req)?;
            }
        }
        Ok(())
    }

    /// The next frame the client sent. A clean end of the stream reads
    /// as [`Inbound::End`] and marks the connection ended.
    fn read(&mut self) -> Result<Inbound, Fault> {
        let (head, msg) = match self.io.recv(None).map_err(Fault::Recv)? {
            RecvFrame::Frame(got) => got,
            // The peer's FIN, or drain's close between frames.
            RecvFrame::Eof | RecvFrame::Idle => {
                self.ended = true;
                return Ok(Inbound::End);
            }
        };
        Ok(match msg {
            Message::Request(req) => Inbound::Request(head.id, req),
            Message::Credit(upto) => Inbound::Credit(head.id, upto),
            Message::Cancel => Inbound::Cancel(head.id),
            Message::Bye => {
                self.ended = true;
                Inbound::End
            }
            _ => {
                return Err(Fault::Recv(TransportError::FrameCorrupt {
                    detail: format!("unexpected {:?} frame mid-stream", head.kind),
                }))
            }
        })
    }

    /// Answer the request the last Request frame carried: claim its id,
    /// and send the outcome — replayed, refused at the door, or executed
    /// and recorded.
    fn serve(&mut self, id: u64, req: DecomposeRequest) -> Result<(), Fault> {
        let (shared, client, check) = (self.shared, self.client, self.io.check);
        let mut waited = false;
        let result = loop {
            match shared.dedup.book(client, |b| b.claim(id, check)) {
                Claim::Replay(result) => {
                    self.local.dedup_replays += 1;
                    break result;
                }
                // Wait out the claim in flight, then claim again.
                Claim::Wait(held) if !waited => {
                    shared.dedup.wait(client, id, held);
                    waited = true;
                }
                // A third request took the id meanwhile: fail the
                // connection, and the client's retry claims it again.
                Claim::Wait(_) => return Err(Fault::Quit),
                Claim::Fresh { reused } => {
                    self.local.reused_ids += reused as u64;
                    let spare = self.spare.take();
                    let submitted = shared
                        .service
                        .lock()
                        .as_ref()
                        .map(|svc| svc.submit_into(req, spare))
                        .unwrap_or(Err(Rejection::Draining));
                    break match submitted {
                        Ok(handle) => {
                            let result = Arc::new(handle.wait());
                            self.spare = shared
                                .dedup
                                .settle(client, |b| b.resolve(id, Arc::clone(&result)));
                            result
                        }
                        Err(rej) => {
                            // Not recorded in the book: a rejected request was
                            // never executed, so a retry may re-attempt admission.
                            shared.dedup.settle(client, |b| b.forget(id));
                            Arc::new(Err(rej))
                        }
                    };
                }
            }
        };
        self.respond(id, &result)
    }

    /// Send one response — progressively when configured and successful,
    /// monolithically otherwise. A monolithic response over the
    /// negotiated payload window degrades to a typed rejection instead of
    /// killing the connection.
    fn respond(&mut self, id: u64, result: &ServeResult) -> Result<(), Fault> {
        let sent = match (self.shared.config.progressive, result) {
            (Some(codec), Ok(resp)) => self.send_planes(id, resp, codec),
            _ => self
                .io
                .send(id, &Payload::Response(result))
                .map_err(Fault::Send),
        };
        match sent {
            Err(Fault::Send(TransportError::FrameTooLarge { len, max })) => {
                self.local.frame_too_large += 1;
                let fallback = Err(Rejection::Invalid {
                    detail: format!("response payload {len} B exceeds negotiated window {max} B"),
                });
                Ok(self.io.send(id, &Payload::Response(&fallback))?)
            }
            other => other,
        }
    }

    /// Send `resp` as a plane sequence: the header at once, then each
    /// plane once the client's credit covers it. The wait for a credit is
    /// a read, so it is finite: it ends on a credit, a Cancel, which
    /// stops the sequence, or the end of the stream. A clean end credits
    /// every plane still owed; a request in its place is a client past
    /// its window, waiting on a response while the sequence waits on it,
    /// and is cut off.
    fn send_planes(
        &mut self,
        id: u64,
        resp: &DecomposeResponse,
        codec: CheckpointCodec,
    ) -> Result<(), Fault> {
        let seq = PlaneSequence::new(resp, codec)?;
        self.io.send(id, &Payload::Header(seq.header()))?;
        // The highest plane the client has credited: a high-water mark,
        // so a lower or repeated credit changes nothing, and one past the
        // last plane covers every plane there is.
        let mut credit = 0;
        for s in 1..=seq.len() {
            while credit < s && !self.ended {
                match self.read()? {
                    Inbound::Credit(of, upto) if of == id => credit = credit.max(upto as usize),
                    Inbound::Cancel(of) if of == id => {
                        self.local.cancels_honored += 1;
                        return Ok(());
                    }
                    Inbound::Request(..) => return Err(Fault::Quit),
                    // Another id's credit or Cancel, or the end.
                    _ => {}
                }
            }
            let plane = seq.plane(s);
            self.io.send(id, &Payload::Plane(&plane, s < seq.len()))?;
            self.local.planes_sent += 1;
        }
        Ok(())
    }
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
        let hello = Hello {
            protocol: self.protocol,
            max_payload: self.max_payload,
            window: 1,
        };
        io.send(self.client_id, &Payload::Hello(hello))?;
        let ack = match next_frame(&mut io, Instant::now(), self.response_timeout)? {
            (_, Message::HelloAck(ack)) => ack,
            (head, _) => {
                return Err(TransportError::HandshakeMismatch {
                    detail: format!("expected HelloAck, got {:?}", head.kind),
                })
            }
        };
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
        let io = io.with_max_payload(eff);
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
        io.send(id, &Payload::Request(req)).map_err(|e| {
            let terminal = matches!(e, TransportError::FrameTooLarge { .. });
            (e, terminal)
        })?;
        let (result, drop_conn) = recv_response(
            io,
            id,
            (req.image.rows(), req.image.cols(), req.levels),
            self.response_timeout,
            self.tolerance,
            self.byte_budget,
            &mut self.progressive,
        )
        .map_err(|e| (e, false))?;
        if drop_conn {
            // The Cancel could not be sent; redial lazily rather than
            // leave the server parked on a sequence nobody reads.
            if let Some(io) = self.io.take() {
                self.transport.merge(&io.stats);
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
                        self.transport.merge(&io.stats);
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
            let _ = io.send(self.client_id, &Payload::Bye);
            io.shutdown_write();
            self.transport.merge(&io.stats);
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
) -> Result<(Head, Message), TransportError> {
    match io.recv(since.checked_add(timeout))? {
        RecvFrame::Frame(f) => Ok(f),
        RecvFrame::Eof => Err(TransportError::ConnReset),
        RecvFrame::Idle => Err(TransportError::ConnTimeout {
            waited_ms: timeout.as_millis() as u64,
        }),
    }
}

/// A response describes its request: a pyramid whose `(rows, cols,
/// levels)` are not the request's is corruption, refused before
/// anything is sized from it.
fn describes(
    asked: (usize, usize, usize),
    got: (usize, usize, usize),
) -> Result<(), TransportError> {
    if got == asked {
        return Ok(());
    }
    let ((r, c, l), (gr, gc, gl)) = (asked, got);
    Err(TransportError::FrameCorrupt {
        detail: format!("a {r}x{c} L{l} request answered with a {gr}x{gc} L{gl} pyramid"),
    })
}

/// Wait for the response to `id` — a terminal outcome, or a progressive
/// sequence reassembled incrementally, one credited plane at a time
/// (cut short by Cancel once `tolerance` is met or `byte_budget`
/// response bytes have landed) — to a request of geometry `asked`,
/// `(rows, cols, levels)`. Returns `(result, drop_connection)`.
fn recv_response(
    io: &mut FrameIo,
    id: u64,
    asked: (usize, usize, usize),
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
        let (head, body) = match next_frame(io, since, timeout)? {
            (head, Message::Response(body)) => (head, body),
            (head, _) => {
                return Err(TransportError::FrameCorrupt {
                    detail: format!("unexpected {:?} frame mid-stream", head.kind),
                })
            }
        };
        if head.id != id {
            // A stale response frame from an earlier id; harmless, keep
            // waiting for ours.
            debug_assert!(head.id < id, "responses never outrun requests");
            continue;
        }
        got_bytes += HEADER_LEN + head.len + TRAILER_LEN;
        let r = match body {
            ResponseBody::Outcome(result) => {
                if let Ok(resp) = &result {
                    let (rows, cols) = resp.pyramid.image_dims();
                    describes(asked, (rows, cols, resp.pyramid.levels()))?;
                }
                return Ok((result, false));
            }
            ResponseBody::Header(h) => {
                describes(asked, (h.rows, h.cols, h.levels))?;
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
        let step = r.step(!head.more_follows(), got_bytes, tolerance, byte_budget);
        if let Step::Read { credit } = step {
            // A credit that cannot be sent ends nothing by itself: a
            // drained server flushes what it owes unasked, and a dead
            // connection shows in the next read.
            if let Some(planes) = credit {
                let _ = io.send(id, &Payload::Credit(planes));
            }
            continue;
        }
        let r = assembly.take().expect("assembly just stepped");
        let mut drop_conn = false;
        if let Step::Cancel { budget } = step {
            drop_conn = io.send(id, &Payload::Cancel).is_err();
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
    use std::sync::mpsc;

    fn outcome_ok() -> DecomposeResponse {
        DecomposeResponse {
            pyramid: Pyramid::zeros(8, 8, 1).expect("dyadic geometry"),
            cache_hit: false,
            batch_size: 1,
            wait_s: 0.0,
            service_s: 0.0,
            degraded: false,
            error_bound: 0.0,
        }
    }

    fn outcome() -> Arc<ServeResult> {
        Arc::new(Ok(outcome_ok()))
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

    /// The trailer every request in the book tests below carries.
    const X: u64 = 0x5eed;

    /// A request behind a claim in flight: wait it out, then claim again.
    fn wait_then_claim(dedup: &Arc<Dedup>, check: u64, held: u64) -> mpsc::Receiver<Claim> {
        let dedup = Arc::clone(dedup);
        parked(move || {
            dedup.wait(7, 0, held);
            dedup.book(7, |b| b.claim(0, check))
        })
    }

    #[test]
    fn a_waiter_gets_the_books_own_pointer() {
        let dedup = Arc::<Dedup>::default();
        let claim = |check| dedup.book(7, |b| b.claim(0, check));
        assert!(matches!(claim(X), Claim::Fresh { reused: false }));
        assert!(matches!(claim(X), Claim::Wait(X)));
        let waiter = wait_then_claim(&dedup, X, X);
        let result = outcome();
        dedup.settle(7, |b| b.resolve(0, Arc::clone(&result)));
        match waiter
            .recv_timeout(WOKEN)
            .expect("resolve wakes the waiter")
        {
            Claim::Replay(got) => assert!(Arc::ptr_eq(&got, &result), "no copy"),
            other => panic!("expected the recorded outcome, got {other:?}"),
        }
        match claim(X) {
            Claim::Replay(replay) => assert!(Arc::ptr_eq(&replay, &result)),
            other => panic!("expected the recorded outcome, got {other:?}"),
        }
        // Book, waiter's answer (dropped), replay (dropped), ours.
        assert_eq!(Arc::strong_count(&result), 2);
    }

    /// A resubmit waiting on a claim refused at the door takes the id
    /// itself.
    #[test]
    fn forgetting_a_claim_releases_its_waiter() {
        let dedup = Arc::<Dedup>::default();
        assert!(matches!(
            dedup.book(7, |b| b.claim(0, X)),
            Claim::Fresh { reused: false }
        ));
        let waiter = wait_then_claim(&dedup, X, X);
        dedup.settle(7, |b| b.forget(0));
        let got = waiter.recv_timeout(WOKEN).expect("forget wakes the waiter");
        assert!(
            matches!(got, Claim::Fresh { reused: false }),
            "the waiter claims it afresh, got {got:?}"
        );
    }

    /// A different request under a held id is never answered from the
    /// book: it waits one in flight out, and takes a resolved one over.
    #[test]
    fn only_the_same_request_replays_an_id() {
        const Y: u64 = X + 1;
        let mut book = ClientBook::default();
        assert!(matches!(book.claim(0, X), Claim::Fresh { reused: false }));
        assert!(matches!(book.claim(0, Y), Claim::Wait(X)));
        let result = outcome();
        book.resolve(0, Arc::clone(&result));
        assert!(!book.in_flight(0, X), "Y's wait is over");
        assert!(matches!(book.claim(0, Y), Claim::Fresh { reused: true }));
        assert_eq!(Arc::strong_count(&result), 1, "X's outcome is gone");
        assert!(matches!(book.claim(0, X), Claim::Wait(Y)));
    }

    #[test]
    fn the_book_remembers_one_window_of_results() {
        let mut book = ClientBook::default();
        let mut results = Vec::new();
        let kept = u64::from(WINDOW);
        for id in 0..10 {
            let fresh = book.claim(id, X);
            assert!(
                matches!(fresh, Claim::Fresh { reused: false }),
                "id {id} is new"
            );
            let result = outcome();
            book.resolve(id, Arc::clone(&result));
            let held = book.entries.len() as u64;
            assert!(held <= kept + 1, "{held} results held after id {id}");
            results.push(result);
        }
        let newest = results.len() as u64 - 1;
        for id in newest + 1 - kept..=newest {
            match book.claim(id, X) {
                Claim::Replay(replay) => assert!(Arc::ptr_eq(&replay, &results[id as usize])),
                other => panic!("id {id} must replay, got {other:?}"),
            }
        }
        assert_eq!(book.entries.len() as u64, kept + 1);
        // What fell behind the horizon was freed, not just unlinked: the
        // book was its last owner besides this test.
        assert_eq!(Arc::strong_count(&results[0]), 1);
        assert_eq!(Arc::strong_count(results.last().expect("resolved")), 2);
    }

    /// A pruned success the book alone holds leaves it whole — the same
    /// storage, not a copy — and one a replay still holds is never
    /// released: the replay's coefficients stay as recorded while later
    /// ids resolve. A rejection has no pyramid to give.
    #[test]
    fn the_book_releases_only_what_nothing_else_holds() {
        let success = |v: f64| {
            let mut pyr = Pyramid::zeros(8, 8, 1).expect("dyadic geometry");
            pyr.for_each_coeff_mut(|c| *c = v);
            let storage = pyr.approx.data().as_ptr() as usize;
            (
                Arc::new(Ok(DecomposeResponse {
                    pyramid: pyr,
                    ..outcome_ok()
                })),
                storage,
            )
        };
        let mut book = ClientBook::default();
        let (r0, storage0) = success(0.5);
        let (r1, _) = success(1.5);
        for (id, result) in [(0, r0), (1, r1)] {
            assert!(matches!(book.claim(id, X), Claim::Fresh { .. }));
            assert!(book.resolve(id, result).is_none(), "id {id} prunes nothing");
        }
        // Id 2 prunes id 0, which nothing else holds.
        assert!(matches!(book.claim(2, X), Claim::Fresh { .. }));
        let (r2, _) = success(2.5);
        let released = book.resolve(2, r2).expect("id 0 is released");
        assert_eq!(
            released.approx.data().as_ptr() as usize,
            storage0,
            "moved, not copied"
        );
        // A replay of id 1 holds it while id 3 prunes it.
        let Claim::Replay(replay) = book.claim(1, X) else {
            panic!("id 1 is within the window");
        };
        assert!(matches!(book.claim(3, X), Claim::Fresh { .. }));
        assert!(
            book.resolve(3, success(3.5).0).is_none(),
            "held by the replay"
        );
        let Ok(held) = &*replay else {
            panic!("id 1 succeeded");
        };
        let mut coeffs = Vec::new();
        held.pyramid.for_each_coeff(|c| coeffs.push(c));
        assert!(
            coeffs.iter().all(|&c| c == 1.5),
            "the replay is as recorded"
        );
        assert_eq!(Arc::strong_count(&replay), 1, "and its last owner");
        // A rejection pruned from the book releases nothing.
        assert!(matches!(book.claim(4, X), Claim::Fresh { .. }));
        let rejected = Arc::new(Err(Rejection::Draining));
        assert!(book.resolve(4, rejected).is_some(), "id 2 is released");
        assert!(matches!(book.claim(5, X), Claim::Fresh { .. }));
        assert!(
            book.resolve(5, success(5.5).0).is_some(),
            "id 3 is released"
        );
        assert!(matches!(book.claim(6, X), Claim::Fresh { .. }));
        assert!(
            book.resolve(6, success(6.5).0).is_none(),
            "id 4 was a rejection"
        );
    }

    /// One point of [`every_book_history_keeps_the_rules`]' walk: the
    /// book, and what the walker knows it did to it.
    #[derive(Clone, Default)]
    struct Walk {
        book: ClientBook,
        /// The trailer of the claim each id is held in flight by.
        flying: BTreeMap<u64, u64>,
        /// The outcome last recorded under each `(id, trailer)`.
        recorded: BTreeMap<(u64, u64), Arc<ServeResult>>,
        /// The newest id claimed.
        newest: Option<u64>,
        /// Every claim so far was one client's: trailer `X`, the next id
        /// or one still within `window` of the newest, at most `window`
        /// in flight.
        chain: bool,
    }

    #[derive(Clone, Copy, Debug)]
    enum Step {
        Claim(u64, u64),
        Resolve(u64),
        Forget(u64),
    }

    impl Walk {
        /// Take the last step of `history`, checking what the book
        /// answers a claim.
        fn step(&mut self, history: &[Step]) {
            let window = u64::from(WINDOW);
            match *history.last().expect("a step to take") {
                Step::Claim(id, t) => {
                    match self.book.claim(id, t) {
                        Claim::Replay(got) => assert!(
                            self.recorded
                                .get(&(id, t))
                                .is_some_and(|r| Arc::ptr_eq(r, &got)),
                            "{history:?}: a replay of what was recorded under {t:#x}"
                        ),
                        Claim::Wait(held) => assert!(
                            self.book.in_flight(id, held) && self.flying.get(&id) == Some(&held),
                            "{history:?}: a wait on {held:#x}, which holds it in flight"
                        ),
                        Claim::Fresh { .. } => assert!(
                            self.flying.insert(id, t).is_none(),
                            "{history:?}: a second claim in flight"
                        ),
                    }
                    let in_order = self
                        .newest
                        .map_or(id == 0, |n| id == n + 1 || (id <= n && n - id < window));
                    self.chain &= t == X && in_order && self.flying.len() as u64 <= window;
                    self.newest = self.newest.max(Some(id));
                }
                Step::Resolve(id) => {
                    let t = self.flying.remove(&id).expect("resolves an id in flight");
                    let result = Arc::new(Err(Rejection::Draining));
                    self.recorded.insert((id, t), Arc::clone(&result));
                    self.book.resolve(id, result);
                }
                Step::Forget(id) => {
                    self.flying.remove(&id);
                    self.book.forget(id);
                }
            }
        }

        /// The rules that hold between steps.
        fn check(&self, history: &[Step]) {
            let window = u64::from(WINDOW);
            let flying =
                self.book.entries.iter().filter_map(|(&id, (t, slot))| {
                    matches!(slot, Slot::InFlight).then_some((id, *t))
                });
            assert!(
                flying.eq(self.flying.iter().map(|(&id, &t)| (id, t))),
                "{history:?}: the book holds in flight exactly the claims made"
            );
            let Some(newest) = self.newest.filter(|_| self.chain) else {
                return;
            };
            for (&(id, _), result) in &self.recorded {
                if newest - id < window {
                    let replay = self.book.clone().claim(id, X);
                    assert!(
                        matches!(&replay, Claim::Replay(got) if Arc::ptr_eq(got, result)),
                        "{history:?}: id {id} is within the window, got {replay:?}"
                    );
                }
            }
            let results = self
                .book
                .entries
                .values()
                .filter(|(_, slot)| matches!(slot, Slot::Done(_)))
                .count() as u64;
            assert!(results <= window + 1, "{history:?}: {results} results held");
        }

        /// Everything the walk can tell apart: what the book holds (each
        /// outcome by the `(id, trailer)` it was recorded under) and what
        /// the walker knows.
        fn key(&self) -> impl Eq + std::hash::Hash {
            let entries: Vec<_> = self
                .book
                .entries
                .iter()
                .map(|(&id, (t, slot))| {
                    let done = match slot {
                        Slot::InFlight => None,
                        Slot::Done(r) => Some(
                            self.recorded
                                .iter()
                                .find(|(_, x)| Arc::ptr_eq(x, r))
                                .map(|(&k, _)| k),
                        ),
                    };
                    (id, *t, done)
                })
                .collect();
            let recorded: Vec<_> = self.recorded.keys().copied().collect();
            let flying = self.flying.clone();
            (
                entries,
                self.book.max_id,
                flying,
                recorded,
                self.newest,
                self.chain,
            )
        }
    }

    /// Every history of up to six steps on one client's book — two
    /// requests' claims on ids 0..=3, resolves and forgets of the ids in
    /// flight — walked breadth first over distinct states. After every
    /// step: a replay is the outcome recorded under that id and trailer,
    /// a wait is on the claim holding the id in flight, no id is claimed
    /// in flight twice, and for one client's chain of claims every
    /// resolved id within the window replays and the book holds at most
    /// `WINDOW + 1` results.
    #[test]
    fn every_book_history_keeps_the_rules() {
        const Y: u64 = X + 1;
        let start = Walk {
            chain: true,
            ..Walk::default()
        };
        let mut seen = std::collections::HashSet::new();
        let mut frontier = vec![(start, Vec::new())];
        for _ in 0..6 {
            let mut next = Vec::new();
            for (walk, history) in &frontier {
                let claims = (0..4).flat_map(|id| [Step::Claim(id, X), Step::Claim(id, Y)]);
                let ends = walk
                    .flying
                    .keys()
                    .flat_map(|&id| [Step::Resolve(id), Step::Forget(id)]);
                for step in claims.chain(ends) {
                    let mut walk = walk.clone();
                    let history = [history.as_slice(), &[step]].concat();
                    walk.step(&history);
                    walk.check(&history);
                    if seen.insert(walk.key()) {
                        next.push((walk, history));
                    }
                }
            }
            frontier = next;
        }
        assert!(seen.len() > 1000, "{} states", seen.len());
    }
}
