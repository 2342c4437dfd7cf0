//! End-to-end remote serving: [`RemoteServer`] + [`RemoteClient`] over
//! both transports, under seeded wire faults.
//!
//! What must hold:
//!
//! * every accepted request resolves exactly once — retries after
//!   request-path faults never double-execute (the server never saw
//!   them), retries after response-path losses replay the recorded
//!   outcome from the dedup book instead of re-executing;
//! * the per-connection in-flight window backpressures a pipelining
//!   client without losing or reordering responses;
//! * graceful drain is lossless for accepted work and cannot be held
//!   hostage by a half-open connection — past its grace the connection
//!   is aborted and counted in `conn_aborted`;
//! * a protocol mismatch is a terminal, typed handshake failure;
//! * the in-memory shim and localhost TCP produce identical outcome
//!   books for the same seed — same protocol, different bytes.

use std::sync::Arc;
use std::time::{Duration, Instant};

use dwt::engine::PlanShape;
use dwt::{Boundary, FilterBank, Matrix};
use dwt_mimd::CheckpointCodec;
use wserv::progressive::pyramid_max_abs_diff;
use wserv::remote::{RemoteConfig, RemoteServer, RetryPolicy};
use wserv::transport::{Connector, FrameIo, Listener, RecvFrame, Transport, WireClock};
use wserv::wire::{
    decode_response, encode_hello, encode_request, Frame, FrameKind, Hello, DEFAULT_MAX_PAYLOAD,
    PROTOCOL_VERSION,
};
use wserv::{
    DecomposeRequest, MemListener, RemoteClient, ServiceConfig, ShardFaultPlan, SupervisorPolicy,
    TcpAcceptor, TcpConnector, TransportError, WireDir, WireFaultPlan,
};

fn tick() -> Duration {
    Duration::from_millis(1)
}

fn image(n: usize, salt: u64) -> Matrix {
    Matrix::from_fn(n, n, |r, c| {
        ((r as u64 * 31 + c as u64 * 17 + salt * 7) % 61) as f64 - 30.5
    })
}

fn request(salt: u64) -> DecomposeRequest {
    DecomposeRequest::new(image(16, salt), FilterBank::cdf53(), 2)
}

fn service_config() -> ServiceConfig {
    ServiceConfig::default()
        .with_shards(2)
        .with_queue_capacity(64)
        .with_supervisor(SupervisorPolicy {
            backoff_base_s: 2e-4,
            ..SupervisorPolicy::default()
        })
}

fn remote_config() -> RemoteConfig {
    RemoteConfig {
        tick: tick(),
        drain_grace: Duration::from_millis(40),
        ..RemoteConfig::default()
    }
}

fn fast_retry() -> RetryPolicy {
    RetryPolicy {
        max_attempts: 6,
        backoff_base_s: 1e-4,
        backoff_mult: 2.0,
        backoff_cap_s: 2e-3,
    }
}

/// The fault schedule shared by the exactly-once and parity tests.
/// Coordinates are `(client id, direction, cumulative frame index)`;
/// frame 0 each way is the handshake, so client `c`'s request `k`
/// first travels as C2S frame `k + 1` and its response as S2C frame
/// `k + 1` (while the connection lives).
fn wire_plan() -> WireFaultPlan {
    WireFaultPlan::seeded(1996)
        // Client 0's second request dies mid-frame on the way out: the
        // server never sees it, the retry is a fresh first delivery.
        .with_reset(0, WireDir::ClientToServer, 2)
        // Client 1's first *response* is truncated: the work already
        // executed, so the retry must be answered from the dedup book.
        .with_truncate(1, WireDir::ServerToClient, 1)
        // Client 2's second response takes a bit flip: the client's
        // checksum catches it, the retry replays the recorded outcome.
        .with_bitflip(2, WireDir::ServerToClient, 2)
        // And a stall on client 0's later response path: slow, not lost.
        .with_stall(0, WireDir::ServerToClient, 4, 3e-3)
}

/// Drive `clients × reqs` through a server on `connector` — client
/// `c`'s request `k` is `request(c * 100 + k)` — and return the outcome
/// book as `(client, request, ok)` triples plus total retries.
fn drive(
    connector: impl Fn(u64) -> Box<dyn Connector>,
    clients: u64,
    reqs: u64,
    faults: &WireFaultPlan,
    request: fn(u64) -> DecomposeRequest,
) -> (Vec<(u64, u64, bool)>, u64) {
    let handles: Vec<_> = (0..clients)
        .map(|c| {
            let plan = faults.clone();
            let conn = connector(c);
            std::thread::spawn(move || {
                let mut client = RemoteClient::new(conn, c)
                    .with_faults(plan)
                    .with_retry(fast_retry())
                    .with_response_timeout(Duration::from_secs(5));
                let mut book = Vec::new();
                for k in 0..reqs {
                    let outcome = client.call(&request(c * 100 + k)).unwrap_or_else(|e| {
                        panic!("client {c} request {k}: transport gave up: {e}")
                    });
                    book.push((c, k, outcome.is_ok()));
                }
                client.goodbye();
                (book, client.retries)
            })
        })
        .collect();
    let mut book = Vec::new();
    let mut retries = 0;
    for h in handles {
        let (b, r) = h.join().expect("client threads never panic");
        book.extend(b);
        retries += r;
    }
    book.sort_unstable();
    (book, retries)
}

/// A hand-driven client connection: handshake over `transport` as
/// `client` announcing `window`, and return the framed connection with
/// the HelloAck consumed.
fn raw_client(transport: Box<dyn Transport>, client: u64, window: u32) -> FrameIo {
    let mut io = FrameIo::new(
        transport,
        client,
        WireDir::ClientToServer,
        WireFaultPlan::none(),
        WireClock::new(),
    );
    io.send_frame(&encode_hello(
        FrameKind::Hello,
        client,
        &Hello {
            protocol: PROTOCOL_VERSION as u32,
            max_payload: DEFAULT_MAX_PAYLOAD,
            window,
        },
    ))
    .expect("hello fits");
    loop {
        match io.recv_frame().expect("handshake survives") {
            RecvFrame::Frame(f) if f.kind == FrameKind::HelloAck => return io,
            RecvFrame::Frame(f) => panic!("expected HelloAck, got {:?}", f.kind),
            RecvFrame::Idle => continue,
            RecvFrame::Eof => panic!("server hung up mid-handshake"),
        }
    }
}

/// The next `n` Response frames on `io`, in arrival order.
fn responses(io: &mut FrameIo, n: usize) -> Vec<Frame> {
    let mut got = Vec::new();
    let deadline = Instant::now() + Duration::from_secs(10);
    while got.len() < n {
        assert!(
            Instant::now() < deadline,
            "responses stalled at {}",
            got.len()
        );
        match io.recv_frame().expect("responses survive") {
            RecvFrame::Frame(f) if f.kind == FrameKind::Response => got.push(f),
            RecvFrame::Frame(f) => panic!("unexpected {:?} frame", f.kind),
            RecvFrame::Idle => continue,
            RecvFrame::Eof => panic!("premature EOF after {} responses", got.len()),
        }
    }
    got
}

// ---------------------------------------------------------------------
// Exactly-once under seeded wire chaos (shim transport)
// ---------------------------------------------------------------------

/// Request-path faults retry transparently, response-path losses are
/// answered from the dedup book, and the service executes every request
/// exactly once — `completed` equals the number of *unique* requests
/// even though the wire carried more attempts than that.
#[test]
fn wire_chaos_resolves_every_request_exactly_once() {
    let (clients, reqs) = (3u64, 8u64);
    let listener = MemListener::new(1 << 16, tick());
    // Client-direction faults ride in each client's own plan; the
    // server injects the response-direction entries of the same plan.
    let config = RemoteConfig {
        wire_faults: wire_plan(),
        ..remote_config()
    };
    let server = RemoteServer::start(service_config(), config, Box::new(listener.clone()))
        .expect("config is valid");

    let dial = |_| Box::new(listener.clone()) as Box<dyn Connector>;
    let (book, retries) = drive(dial, clients, reqs, &wire_plan(), request);

    assert_eq!(book.len(), (clients * reqs) as usize);
    for &(c, k, ok) in &book {
        assert!(ok, "client {c} request {k} must resolve Ok under chaos");
    }
    assert!(
        retries >= 3,
        "reset + truncate + bitflip all force retries, saw {retries}"
    );

    let metrics = server.shutdown().expect("clean drain");
    assert_eq!(
        metrics.service.completed(),
        clients * reqs,
        "exactly-once: executions match unique requests despite {retries} retries"
    );
    assert!(
        metrics.transport.dedup_replays >= 2,
        "truncated and bit-flipped responses must replay from the book, saw {}",
        metrics.transport.dedup_replays
    );
    assert!(
        metrics.transport.conns_accepted >= clients,
        "every client handshook"
    );
    assert!(
        metrics.transport.frames_in > clients * reqs,
        "handshakes + requests"
    );
}

// ---------------------------------------------------------------------
// Retry policy edges
// ---------------------------------------------------------------------

/// With retries disabled the first injected reset surfaces to the
/// caller as the typed error; with the default policy the same schedule
/// succeeds. Either way the failed attempt never executed server-side.
#[test]
fn retry_budget_bounds_attempts_and_types_the_final_error() {
    let listener = MemListener::new(1 << 16, tick());
    let server = RemoteServer::start(
        service_config(),
        remote_config(),
        Box::new(listener.clone()),
    )
    .expect("config is valid");

    // Reset client 5's very first request frame (C2S index 1).
    let plan = WireFaultPlan::seeded(7).with_reset(5, WireDir::ClientToServer, 1);
    let mut no_retry = RemoteClient::new(Box::new(listener.clone()), 5)
        .with_faults(plan.clone())
        .with_retry(RetryPolicy {
            max_attempts: 1,
            ..fast_retry()
        });
    match no_retry.call(&request(1)) {
        Err(TransportError::ConnReset) => {}
        other => panic!("expected ConnReset with retries off, got {other:?}"),
    }
    assert_eq!(no_retry.retries, 0, "max_attempts = 1 means no resubmits");
    no_retry.goodbye();

    // Same fault index for client 6; the default budget rides it out.
    let plan = WireFaultPlan::seeded(7).with_reset(6, WireDir::ClientToServer, 1);
    let mut retrying = RemoteClient::new(Box::new(listener.clone()), 6)
        .with_faults(plan)
        .with_retry(fast_retry());
    let outcome = retrying
        .call(&request(2))
        .expect("retry rides out the reset");
    assert!(outcome.is_ok(), "request admits and serves after the retry");
    assert_eq!(retrying.retries, 1, "one reset, one resubmit");
    retrying.goodbye();

    let metrics = server.shutdown().expect("clean drain");
    assert_eq!(
        metrics.service.completed(),
        1,
        "the reset attempt of client 5 never reached the service"
    );
}

/// Exponential backoff grows per attempt and respects its cap.
#[test]
fn backoff_schedule_is_capped_exponential() {
    let policy = RetryPolicy {
        max_attempts: 10,
        backoff_base_s: 1e-3,
        backoff_mult: 2.0,
        backoff_cap_s: 5e-3,
    };
    assert_eq!(policy.backoff_s(1), 1e-3);
    assert_eq!(policy.backoff_s(2), 2e-3);
    assert_eq!(policy.backoff_s(3), 4e-3);
    assert_eq!(policy.backoff_s(4), 5e-3, "capped");
    assert_eq!(policy.backoff_s(9), 5e-3, "stays capped");
    policy.validate().expect("well-formed policy");
    assert!(RetryPolicy {
        max_attempts: 0,
        ..policy
    }
    .validate()
    .is_err());
}

// ---------------------------------------------------------------------
// Backpressure: the per-connection window over a tiny pipe
// ---------------------------------------------------------------------

/// A pipelining client that floods requests without reading responses:
/// the server's in-flight window (2) stops the reader, the bounded pipe
/// (256 B per direction, far smaller than one frame) backpressures both
/// sides, and once the client finally reads, every response arrives in
/// FIFO order with nothing lost.
#[test]
fn window_and_bounded_pipe_backpressure_a_pipelining_client() {
    let total = 6u64;
    let listener = MemListener::new(256, tick());
    let config = RemoteConfig {
        window: 2,
        ..remote_config()
    };
    let server = RemoteServer::start(service_config(), config, Box::new(listener.clone()))
        .expect("config is valid");

    let raw = listener.connect().expect("listener open");
    let send_half = raw.try_clone().expect("mem transport clones");
    let clock = WireClock::new();
    let mut rx = FrameIo::new(
        Box::new(raw),
        7,
        WireDir::ClientToServer,
        WireFaultPlan::none(),
        Arc::clone(&clock),
    );
    let mut tx = FrameIo::new(
        send_half,
        7,
        WireDir::ClientToServer,
        WireFaultPlan::none(),
        clock,
    );
    tx.send_frame(&encode_hello(
        FrameKind::Hello,
        7,
        &Hello {
            protocol: PROTOCOL_VERSION as u32,
            max_payload: DEFAULT_MAX_PAYLOAD,
            window: 8,
        },
    ))
    .expect("hello fits");
    loop {
        match rx.recv_frame().expect("handshake survives") {
            RecvFrame::Frame(f) if f.kind == FrameKind::HelloAck => break,
            RecvFrame::Frame(f) => panic!("expected HelloAck, got {:?}", f.kind),
            RecvFrame::Idle => continue,
            RecvFrame::Eof => panic!("server hung up mid-handshake"),
        }
    }

    // Flood from a second thread: sends block on the 256 B pipe and on
    // the server's window; the main thread deliberately reads nothing
    // until the whole burst is in flight.
    let sender = std::thread::spawn(move || {
        for id in 0..total {
            tx.send_frame(&encode_request(id, &request(id)).expect("request encodes"))
                .expect("backpressured send completes");
        }
        tx
    });

    let mut got = Vec::new();
    for f in responses(&mut rx, total as usize) {
        let outcome = decode_response(&f).expect("well-formed response");
        assert!(outcome.is_ok(), "request {} must serve Ok", f.id);
        got.push(f.id);
    }
    assert_eq!(got, (0..total).collect::<Vec<_>>(), "FIFO responses");
    let mut tx = sender.join().expect("sender never panics");
    assert_eq!(tx.stats.frames_out, total + 1, "hello + every request sent");
    tx.shutdown_write();

    let metrics = server.shutdown().expect("clean drain");
    assert_eq!(metrics.service.completed(), total);
}

// ---------------------------------------------------------------------
// Resubmit while the original is still executing
// ---------------------------------------------------------------------

/// A connection dies with its request still executing; the client's
/// resubmit of the same id on a fresh connection must wait for the
/// original execution and be answered from the book — one execution,
/// one replay, the oracle's pyramid — not run the request a second time
/// and not wait on a timer.
#[test]
fn resubmit_while_in_flight_is_answered_by_the_original_execution() {
    let listener = MemListener::new(1 << 16, tick());
    // Whichever shard homes the request crawls through its first
    // dispatch (4000x a cold 64x64 decomposition: a few hundred
    // milliseconds), so the id is still in flight when it is asked for
    // again.
    let crawl = ShardFaultPlan::none()
        .with_stall(0, 4000.0, 0, 1)
        .with_stall(1, 4000.0, 0, 1);
    let server = RemoteServer::start(
        service_config().with_faults(crawl),
        remote_config(),
        Box::new(listener.clone()),
    )
    .expect("config is valid");
    let req = DecomposeRequest::new(image(64, 7), FilterBank::cdf53(), 2);

    // Connection A: handshake by hand as client 7, send id 0, then die
    // abortively without reading a byte of the response.
    let mut a = raw_client(Box::new(listener.connect().expect("listener open")), 7, 1);
    a.send_frame(&encode_request(0, &req).expect("request encodes"))
        .expect("request fits the pipe");
    // Let A's reader claim the id first. Should B win the race instead
    // the roles swap and every assertion below still holds; the nap
    // only makes the intended order the common one.
    std::thread::sleep(Duration::from_millis(20));
    a.abort();

    // Connection B: the same client's first call is the same id 0.
    let mut b = RemoteClient::new(Box::new(listener.clone()), 7)
        .with_response_timeout(Duration::from_secs(30));
    let resp = b
        .call(&req)
        .expect("B's wire is clean")
        .expect("request serves Ok");
    let oracle = dwt::dwt2d::decompose(&req.image, &req.bank, req.levels, req.mode)
        .expect("oracle geometry is valid");
    assert_eq!(resp.pyramid, oracle);
    assert_eq!(b.retries, 0, "B was answered on its first attempt");
    b.goodbye();

    let metrics = server.shutdown().expect("clean drain");
    assert_eq!(metrics.service.completed(), 1, "executed exactly once");
    assert_eq!(metrics.transport.dedup_replays, 1, "B was a replay");
}

// ---------------------------------------------------------------------
// A whole window lost and resubmitted
// ---------------------------------------------------------------------

/// A pipelining client keeps a full window outstanding, and after two
/// windows answered normally loses the connection with a third sent and
/// none of its responses in hand. It resubmits all of them on a fresh
/// connection and every one is replayed from the book — which by then
/// has pruned what lies a window behind and must still hold this one —
/// and none is executed again.
///
/// The only signal that the server has seen a request is its response,
/// so connection A takes the third window's response frames off the
/// wire and drops them undecoded before it dies: to the server that is
/// a client that never got them.
#[test]
fn a_lost_window_is_replayed_not_re_executed() {
    const WINDOW: u64 = 4;
    let listener = MemListener::new(1 << 16, tick());
    let config = RemoteConfig {
        window: WINDOW as u32,
        ..remote_config()
    };
    let server = RemoteServer::start(service_config(), config, Box::new(listener.clone()))
        .expect("config is valid");
    let connect = || {
        let transport = Box::new(listener.connect().expect("listener open"));
        raw_client(transport, 7, WINDOW as u32)
    };
    let send_window = |io: &mut FrameIo, first: u64| {
        for id in first..first + WINDOW {
            io.send_frame(&encode_request(id, &request(id)).expect("request encodes"))
                .expect("request fits the pipe");
        }
    };

    let mut a = connect();
    for round in 0..3 {
        send_window(&mut a, round * WINDOW);
        responses(&mut a, WINDOW as usize);
    }
    a.abort();

    let lost = 2 * WINDOW;
    let mut b = connect();
    send_window(&mut b, lost);
    for (id, f) in (lost..).zip(responses(&mut b, WINDOW as usize)) {
        assert_eq!(f.id, id, "replays come back in submission order");
        let resp = decode_response(&f)
            .expect("well-formed response")
            .expect("request served Ok");
        let req = request(id);
        let oracle = dwt::dwt2d::decompose(&req.image, &req.bank, req.levels, req.mode)
            .expect("oracle geometry is valid");
        assert_eq!(resp.pyramid, oracle, "id {id} replayed its own outcome");
    }
    b.shutdown_write();

    let metrics = server.shutdown().expect("clean drain");
    assert_eq!(metrics.service.completed(), 3 * WINDOW, "no re-execution");
    assert_eq!(metrics.transport.dedup_replays, WINDOW);
}

// ---------------------------------------------------------------------
// Drain with a half-open connection (conn_aborted)
// ---------------------------------------------------------------------

/// A connection that handshakes, sends half a frame, then goes silent
/// cannot hold drain hostage: `shutdown` completes shortly after the
/// grace window, the stuck connection is aborted and counted, and work
/// accepted on healthy connections is fully served first.
#[test]
fn drain_aborts_half_open_connections_after_grace() {
    let listener = MemListener::new(1 << 16, tick());
    let grace = Duration::from_millis(40);
    let config = RemoteConfig {
        drain_grace: grace,
        ..remote_config()
    };
    let server = RemoteServer::start(service_config(), config, Box::new(listener.clone()))
        .expect("config is valid");

    // A healthy client completes one request — drain must preserve it.
    let mut healthy = RemoteClient::new(Box::new(listener.clone()), 1);
    let outcome = healthy.call(&request(1)).expect("clean wire");
    assert!(outcome.is_ok());
    healthy.goodbye();

    // The half-open peer: full handshake, then half a request frame,
    // then silence — never a FIN, never the rest of the frame.
    let raw = listener.connect().expect("listener open");
    let mut stuck_half = raw.try_clone().expect("mem transport clones");
    let mut hio = raw_client(Box::new(raw), 99, 1);
    let frame_bytes =
        wserv::wire::encode_frame(&encode_request(0, &request(9)).expect("request encodes"))
            .expect("request frame encodes");
    stuck_half
        .send(&frame_bytes[..frame_bytes.len() / 2])
        .expect("partial frame lands in the pipe");

    // Give the reader a tick to buffer the partial frame, then drain.
    std::thread::sleep(Duration::from_millis(5));
    let t0 = Instant::now();
    let metrics = server
        .shutdown()
        .expect("drain completes despite the half-open peer");
    let took = t0.elapsed();
    assert!(
        took < grace * 50,
        "drain must not hang on a half-open connection (took {took:?})"
    );
    assert!(
        metrics.transport.conn_aborted >= 1,
        "the half-open connection is aborted and counted"
    );
    assert_eq!(
        metrics.service.completed(),
        1,
        "accepted work survives drain"
    );

    // The aborted peer observes a reset, not a clean goodbye.
    let observed = loop {
        match hio.recv_frame() {
            Ok(RecvFrame::Idle) => continue,
            other => break other,
        }
    };
    assert!(
        matches!(
            observed,
            Err(TransportError::ConnReset) | Ok(RecvFrame::Eof)
        ),
        "half-open peer sees the connection die, got {observed:?}"
    );
}

// ---------------------------------------------------------------------
// Handshake mismatch
// ---------------------------------------------------------------------

/// A client speaking the wrong protocol version gets a terminal typed
/// [`TransportError::HandshakeMismatch`] — no retries, no service
/// traffic — and the server counts the refusal.
#[test]
fn protocol_mismatch_is_terminal_and_typed() {
    let listener = MemListener::new(1 << 16, tick());
    let server = RemoteServer::start(
        service_config(),
        remote_config(),
        Box::new(listener.clone()),
    )
    .expect("config is valid");

    let mut wrong = RemoteClient::new(Box::new(listener.clone()), 3)
        .with_claimed_protocol(PROTOCOL_VERSION as u32 + 41)
        .with_retry(fast_retry());
    match wrong.call(&request(1)) {
        Err(TransportError::HandshakeMismatch { detail }) => {
            assert!(
                detail.contains("protocol"),
                "diagnostic names the cause: {detail}"
            );
        }
        other => panic!("expected HandshakeMismatch, got {other:?}"),
    }
    assert_eq!(wrong.retries, 0, "mismatch is terminal, never retried");
    wrong.goodbye();

    let metrics = server.shutdown().expect("clean drain");
    assert!(metrics.transport.handshake_mismatch >= 1);
    assert_eq!(
        metrics.service.completed(),
        0,
        "no work crossed the bad handshake"
    );
}

// ---------------------------------------------------------------------
// Shim / TCP parity
// ---------------------------------------------------------------------

/// The parity test's second input: `bench_service`'s failover schedule
/// — shard 0's worker killed once mid-load (supervised restart), shard
/// 1 crashing for good past a restart budget of one — as real thread
/// deaths under the same wire faults.
fn failover_config() -> ServiceConfig {
    let kills = ShardFaultPlan::seeded(1996)
        .with_worker_panic(0, 1)
        .with_shard_crash(1, 2);
    let supervisor = SupervisorPolicy {
        max_restarts: 1,
        ..service_config().supervisor
    };
    service_config()
        .with_shards(3)
        .with_supervisor(supervisor)
        .with_faults(kills)
}

/// Requests for [`failover_config`], alternating between a shape homed
/// on shard 0 and one homed on shard 1 of the three: each closed-loop
/// client alone sends three dispatches' worth to either shard, so both
/// scheduled kills fire however the clients interleave or coalesce.
fn failover_request(salt: u64) -> DecomposeRequest {
    let bank = FilterBank::cdf53();
    let shape = |n| PlanShape::new(n, n, &bank, 2, Boundary::Periodic);
    let homed = |n: &usize| wserv::shard::shard_of(&shape(*n), 3) == (salt % 2) as usize;
    let n = (8..=256).step_by(4).find(homed);
    let n = n.expect("some size routes to either shard");
    DecomposeRequest::new(image(n, salt), bank, 2)
}

/// The same seed, the same requests, the same fault plan: the in-memory
/// shim and localhost TCP produce the identical outcome book — on the
/// plain service, and again while real workers are being killed. The
/// shim is the sandbox stand-in for the real wire, so divergence here
/// means one of them lies about the protocol; and under either
/// transport, retries across wire faults and worker deaths execute
/// every request exactly once.
#[test]
fn shim_and_tcp_produce_identical_outcome_books() {
    let (clients, reqs) = (2u64, 6u64);
    let plan = wire_plan();
    type Request = fn(u64) -> DecomposeRequest;
    for (service, request, kills) in [
        (service_config(), request as Request, false),
        (failover_config(), failover_request, true),
    ] {
        let serve = |listener: Box<dyn Listener>, dial: &dyn Fn(u64) -> Box<dyn Connector>| {
            let faulty = RemoteConfig {
                wire_faults: wire_plan(),
                ..remote_config()
            };
            let server =
                RemoteServer::start(service.clone(), faulty, listener).expect("config is valid");
            let (book, _) = drive(dial, clients, reqs, &plan, request);
            let metrics = server.shutdown().expect("clean drain");
            let served = &metrics.service;
            assert_eq!(
                served.completed(),
                clients * reqs,
                "exactly-once: executions match unique requests (kills: {kills})"
            );
            assert!(
                metrics.transport.dedup_replays >= 1,
                "the truncated response must replay from the dedup book (kills: {kills})"
            );
            assert_eq!(served.restarts() > 0, kills, "a worker is killed");
            assert_eq!(
                !served.failed_shards().is_empty(),
                kills,
                "a shard fails over"
            );
            book
        };
        let shim_book = {
            let listener = MemListener::new(1 << 16, tick());
            let peer = listener.clone();
            serve(Box::new(listener), &|_| Box::new(peer.clone()))
        };
        let tcp_book = {
            let acceptor = TcpAcceptor::bind("127.0.0.1:0", tick()).expect("loopback bind");
            let addr = acceptor.local_addr();
            serve(Box::new(acceptor), &|_| {
                Box::new(TcpConnector { addr, tick: tick() })
            })
        };
        assert_eq!(shim_book, tcp_book, "same seed, same book, different bytes");
        assert!(
            shim_book.iter().all(|&(_, _, ok)| ok),
            "everything resolves Ok, worker kills included: failover is lossless"
        );
    }
}

// ---------------------------------------------------------------------
// Handshake payload negotiation
// ---------------------------------------------------------------------

/// Both sides settle on `min(client, server)` regardless of which end
/// announces the smaller window, and the settled window is *enforced*:
/// a request the negotiated window cannot frame fails typed at the
/// client's send path, terminally, without poisoning the connection
/// for later well-sized requests.
#[test]
fn handshake_negotiates_min_payload_in_both_directions() {
    // Client announces the smaller window.
    let listener = MemListener::new(1 << 16, tick());
    let server = RemoteServer::start(
        service_config(),
        remote_config(),
        Box::new(listener.clone()),
    )
    .expect("config is valid");
    let mut small_client = RemoteClient::new(Box::new(listener.clone()), 1).with_max_payload(4096);
    let outcome = small_client.call(&request(1)).expect("16x16 fits 4 KiB");
    assert!(outcome.is_ok());
    assert_eq!(
        small_client.negotiated_max_payload(),
        Some(4096),
        "server must honor the client's smaller announcement"
    );

    // An oversized request against the negotiated window fails typed at
    // send time — terminal, no retries — and the connection survives.
    let big = DecomposeRequest::new(image(32, 3), FilterBank::cdf53(), 2);
    match small_client.call(&big) {
        Err(TransportError::FrameTooLarge { len, max }) => {
            assert!(len > max, "diagnostic carries the sizes: {len} vs {max}");
            assert_eq!(max, 4096);
        }
        other => panic!("expected FrameTooLarge, got {other:?}"),
    }
    assert_eq!(small_client.retries, 0, "oversized send is never retried");
    let outcome = small_client
        .call(&request(2))
        .expect("well-sized follow-up still serves");
    assert!(outcome.is_ok());
    small_client.goodbye();
    server.shutdown().expect("clean drain");

    // Server announces the smaller window; the client clamps to it.
    let listener = MemListener::new(1 << 16, tick());
    let config = RemoteConfig {
        max_payload: 4096,
        ..remote_config()
    };
    let server = RemoteServer::start(service_config(), config, Box::new(listener.clone()))
        .expect("config is valid");
    let mut client = RemoteClient::new(Box::new(listener.clone()), 2);
    let outcome = client.call(&request(1)).expect("16x16 fits 4 KiB");
    assert!(outcome.is_ok());
    assert_eq!(
        client.negotiated_max_payload(),
        Some(4096),
        "client must clamp to the server's smaller announcement"
    );
    client.goodbye();
    server.shutdown().expect("clean drain");
}

/// A zero-attempt retry policy is a configuration bug, not a spin loop:
/// `call` fails typed before anything touches the wire.
#[test]
fn zero_attempt_retry_policy_fails_typed_without_traffic() {
    let listener = MemListener::new(1 << 16, tick());
    let server = RemoteServer::start(
        service_config(),
        remote_config(),
        Box::new(listener.clone()),
    )
    .expect("config is valid");
    let mut client = RemoteClient::new(Box::new(listener.clone()), 9).with_retry(RetryPolicy {
        max_attempts: 0,
        ..fast_retry()
    });
    match client.call(&request(1)) {
        Err(TransportError::InvalidConfig { detail }) => {
            assert!(detail.contains("max_attempts"), "names the field: {detail}");
        }
        other => panic!("expected InvalidConfig, got {other:?}"),
    }
    assert_eq!(client.retries, 0);
    assert_eq!(client.transport.frames_out, 0, "nothing touched the wire");
    let metrics = server.shutdown().expect("clean drain");
    assert_eq!(metrics.service.completed(), 0);
}

// ---------------------------------------------------------------------
// Progressive delivery end-to-end
// ---------------------------------------------------------------------

/// A progressive-lossless server delivers responses as header + plane
/// sequences, and the reassembled pyramid is bitwise identical to the
/// local engine oracle — over the shim and over TCP.
#[test]
fn progressive_lossless_is_bitwise_equal_to_oracle_over_shim_and_tcp() {
    let run = |connector: Box<dyn Connector>, server: RemoteServer| {
        let mut client = RemoteClient::new(connector, 4);
        for salt in 0..3u64 {
            let req = request(salt);
            let oracle = dwt::dwt2d::decompose(&req.image, &req.bank, req.levels, req.mode)
                .expect("oracle geometry is valid");
            let resp = client
                .call(&req)
                .expect("clean wire")
                .expect("request serves Ok");
            assert_eq!(resp.pyramid, oracle, "lossless progressive is bitwise");
            assert_eq!(resp.error_bound, 0.0);
            assert!(!resp.degraded);
        }
        assert_eq!(client.progressive.headers, 3, "every response streamed");
        assert_eq!(
            client.progressive.planes,
            3 * 3 * 2,
            "3 responses x 2 levels x 3 bands"
        );
        assert_eq!(client.progressive.cancels, 0, "no tolerance, no cancels");
        client.goodbye();
        let metrics = server.shutdown().expect("clean drain");
        assert_eq!(metrics.service.completed(), 3);
        assert_eq!(metrics.transport.planes_sent, 3 * 3 * 2);
    };

    let progressive = || RemoteConfig {
        progressive: Some(CheckpointCodec::Raw),
        ..remote_config()
    };
    let listener = MemListener::new(1 << 16, tick());
    let server = RemoteServer::start(service_config(), progressive(), Box::new(listener.clone()))
        .expect("config is valid");
    run(Box::new(listener), server);

    let acceptor = TcpAcceptor::bind("127.0.0.1:0", tick()).expect("loopback bind");
    let addr = acceptor.local_addr();
    let server = RemoteServer::start(service_config(), progressive(), Box::new(acceptor))
        .expect("config is valid");
    run(Box::new(TcpConnector { addr, tick: tick() }), server);
}

/// A tolerance-carrying client cancels once the running bound is good
/// enough; the partial response's *reported* bound is at most the
/// tolerance and its *actual* error versus the local oracle never
/// exceeds the report — over the shim and over TCP.
#[test]
fn progressive_tolerance_cancels_and_the_bound_is_honest() {
    let codec = CheckpointCodec::WaveletQuant {
        threshold: 1e-6,
        step: 0.0,
    };
    let tolerance = 40.0;
    let run = |connector: Box<dyn Connector>, server: RemoteServer| {
        let mut client = RemoteClient::new(connector, 5).with_tolerance(tolerance);
        for salt in 0..3u64 {
            // Deeper decompositions give the client planes to skip.
            let req = DecomposeRequest::new(image(32, salt), FilterBank::cdf53(), 3);
            let oracle = dwt::dwt2d::decompose(&req.image, &req.bank, req.levels, req.mode)
                .expect("oracle geometry is valid");
            let resp = client
                .call(&req)
                .expect("clean wire")
                .expect("request serves Ok");
            assert!(
                resp.error_bound <= tolerance,
                "reported bound {} must meet the tolerance",
                resp.error_bound
            );
            let actual =
                pyramid_max_abs_diff(&resp.pyramid, &oracle).expect("geometry matches the oracle");
            assert!(
                actual <= resp.error_bound,
                "actual error {actual} exceeds the reported bound {}",
                resp.error_bound
            );
        }
        assert!(
            client.progressive.partial_responses >= 1,
            "a 40.0 tolerance on this imagery must cut at least one sequence short, tally {:?}",
            client.progressive
        );
        assert_eq!(
            client.progressive.cancels, client.progressive.partial_responses,
            "every partial resolution sent its Cancel"
        );
        client.goodbye();
        let metrics = server.shutdown().expect("clean drain");
        assert_eq!(metrics.service.completed(), 3, "cancel never loses work");
    };

    let progressive = || RemoteConfig {
        progressive: Some(codec),
        ..remote_config()
    };
    let listener = MemListener::new(1 << 16, tick());
    let server = RemoteServer::start(service_config(), progressive(), Box::new(listener.clone()))
        .expect("config is valid");
    run(Box::new(listener), server);

    let acceptor = TcpAcceptor::bind("127.0.0.1:0", tick()).expect("loopback bind");
    let addr = acceptor.local_addr();
    let server = RemoteServer::start(service_config(), progressive(), Box::new(acceptor))
        .expect("config is valid");
    run(Box::new(TcpConnector { addr, tick: tick() }), server);
}

/// A byte-budget client stops reading once the budget's worth of
/// response bytes has landed — even with no tolerance at all — and the
/// partial response's reported bound stays honest against the local
/// oracle. Work is never lost: the server's books still read complete.
#[test]
fn byte_budget_cuts_delivery_and_surfaces_the_stop() {
    let codec = CheckpointCodec::WaveletQuant {
        threshold: 1e-6,
        step: 0.0,
    };
    let budget = 4096usize;
    let run = |connector: Box<dyn Connector>, server: RemoteServer| {
        let mut client = RemoteClient::new(connector, 6).with_byte_budget(budget);
        for salt in 0..3u64 {
            // Deep decompositions of a 32x32 image stream far more
            // than 4 KiB, so the budget always fires mid-sequence.
            let req = DecomposeRequest::new(image(32, salt), FilterBank::cdf53(), 3);
            let oracle = dwt::dwt2d::decompose(&req.image, &req.bank, req.levels, req.mode)
                .expect("oracle geometry is valid");
            let resp = client
                .call(&req)
                .expect("clean wire")
                .expect("request serves Ok");
            let actual =
                pyramid_max_abs_diff(&resp.pyramid, &oracle).expect("geometry matches the oracle");
            assert!(
                actual <= resp.error_bound,
                "actual error {actual} exceeds the reported bound {}",
                resp.error_bound
            );
        }
        assert!(
            client.progressive.budget_stops >= 1,
            "a 4 KiB budget on this imagery must stop at least one sequence, tally {:?}",
            client.progressive
        );
        assert_eq!(
            client.progressive.budget_stops, client.progressive.cancels,
            "with no tolerance every cancel is a budget stop"
        );
        assert_eq!(
            client.progressive.cancels, client.progressive.partial_responses,
            "every budget stop resolved from the partial reassembly"
        );
        client.goodbye();
        let metrics = server.shutdown().expect("clean drain");
        assert_eq!(
            metrics.service.completed(),
            3,
            "the budget never loses work"
        );
    };

    let progressive = || RemoteConfig {
        progressive: Some(codec),
        ..remote_config()
    };
    let listener = MemListener::new(1 << 16, tick());
    let server = RemoteServer::start(service_config(), progressive(), Box::new(listener.clone()))
        .expect("config is valid");
    run(Box::new(listener), server);

    let acceptor = TcpAcceptor::bind("127.0.0.1:0", tick()).expect("loopback bind");
    let addr = acceptor.local_addr();
    let server = RemoteServer::start(service_config(), progressive(), Box::new(acceptor))
        .expect("config is valid");
    run(Box::new(TcpConnector { addr, tick: tick() }), server);
}

/// Progressive delivery + tolerance cancels + seeded wire chaos: every
/// request still resolves exactly once (the dedup book replays recorded
/// outcomes; cancelled sequences never un-execute work), and the books
/// all read Ok.
#[test]
fn progressive_chaos_keeps_exactly_once_accounting() {
    let (clients, reqs) = (3u64, 6u64);
    let listener = MemListener::new(1 << 16, tick());
    let config = RemoteConfig {
        wire_faults: wire_plan(),
        progressive: Some(CheckpointCodec::WaveletQuant {
            threshold: 1e-6,
            step: 0.0,
        }),
        ..remote_config()
    };
    let server = RemoteServer::start(service_config(), config, Box::new(listener.clone()))
        .expect("config is valid");

    let handles: Vec<_> = (0..clients)
        .map(|c| {
            let plan = wire_plan();
            let conn = Box::new(listener.clone());
            std::thread::spawn(move || {
                let mut client = RemoteClient::new(conn, c)
                    .with_faults(plan)
                    .with_retry(fast_retry())
                    .with_response_timeout(Duration::from_secs(5))
                    .with_tolerance(40.0);
                let mut ok = 0u64;
                for k in 0..reqs {
                    let req = DecomposeRequest::new(image(32, c * 100 + k), FilterBank::cdf53(), 3);
                    let outcome = client.call(&req).unwrap_or_else(|e| {
                        panic!("client {c} request {k}: transport gave up: {e}")
                    });
                    assert!(outcome.is_ok(), "client {c} request {k} resolves Ok");
                    ok += 1;
                }
                client.goodbye();
                (ok, client.retries, client.progressive)
            })
        })
        .collect();
    let mut oks = 0;
    let mut partials = 0;
    for h in handles {
        let (ok, _, tally) = h.join().expect("client threads never panic");
        oks += ok;
        partials += tally.partial_responses;
    }
    assert_eq!(oks, clients * reqs);
    assert!(partials >= 1, "the tolerance must trip at least once");

    let metrics = server.shutdown().expect("clean drain");
    assert_eq!(
        metrics.service.completed(),
        clients * reqs,
        "exactly-once accounting survives cancels under chaos"
    );
}
