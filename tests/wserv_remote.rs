//! End-to-end remote serving: [`RemoteServer`] + [`RemoteClient`] over
//! both transports, under seeded wire faults.
//!
//! What must hold:
//!
//! * every accepted request resolves exactly once — retries after
//!   request-path faults never double-execute (the server never saw
//!   them), retries after response-path losses replay the recorded
//!   outcome from the dedup book instead of re-executing;
//! * a connection serves one request at a time: a pipelining client is
//!   answered in order with nothing lost, its backlog held by the byte
//!   window — under progressive delivery, a client that sends past its
//!   window instead of crediting is cut off;
//! * graceful drain is lossless for accepted work, a progressive
//!   sequence mid-read included, and wakes every connection: an idle
//!   one ends cleanly, and a half-open one cannot hold drain hostage —
//!   cut off mid-frame, it is aborted and counted in `conn_aborted` —
//!   nor can one that stops reading, past `WRITE_TIMEOUT`;
//! * a protocol mismatch is a terminal, typed handshake failure, a
//!   connection that never says `Hello` is closed, and a client that
//!   gets no answer gives up typed at its response timeout;
//! * the in-memory shim and localhost TCP produce identical outcome
//!   books for the same seed — same protocol, different bytes;
//! * progressive delivery is pull-driven: the server sends exactly the
//!   planes the client credits, and a connection waiting on a credit
//!   always moves on — on the client's clean exit or drain, flushing
//!   what it owes, or by cutting off a client that sent past its window
//!   instead of crediting;
//! * a connection's spare — the pyramid its resolution book released,
//!   which the next request decomposes into — never shows: every
//!   response keeps the oracle's bits across geometry changes, banks,
//!   boundaries, degraded responses and worker deaths, and a result a
//!   replay still holds is never taken for one.

use std::sync::Arc;
use std::time::{Duration, Instant};

use dwt::engine::PlanShape;
use dwt::{Boundary, FilterBank, Matrix};
use dwt_mimd::CheckpointCodec;
use imagery::{landsat_scene, SceneParams};
use wserv::progressive::{pyramid_max_abs_diff, split_response};
use wserv::remote::{RemoteConfig, RemoteServer, RetryPolicy, HELLO_TIMEOUT};
use wserv::transport::{
    Connector, FrameIo, Listener, Recv, RecvFrame, Transport, WireClock, CHUNK, WRITE_TIMEOUT,
};
use wserv::wire::{
    decode_credit, decode_frame, decode_hello, decode_message, decode_request, decode_response,
    decode_response_body, encode_credit, encode_frame, encode_hello, encode_progressive_header,
    encode_progressive_plane, encode_request, encode_response, Frame, FrameKind, Head, Hello,
    Message, Payload, PlaneCoeffs, ResponseBody, DEFAULT_MAX_PAYLOAD, HEADER_LEN, PROTOCOL_VERSION,
    TRAILER_LEN,
};
use wserv::{
    DecomposeRequest, DegradedPolicy, MemListener, Priority, RemoteClient, ServiceConfig,
    ShardFaultPlan, SupervisorPolicy, TcpAcceptor, TcpConnector, TransportError, WireDir,
    WireFault, WireFaultPlan,
};

mod split;
use split::Split;

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
        ..RemoteConfig::default()
    }
}

/// Dials fresh connectors to one server.
type Dial = Box<dyn Fn() -> Box<dyn Connector>>;

/// The two transports the table-driven tests run over.
const TRANSPORTS: [&str; 2] = ["mem", "tcp"];

/// A listener for a server over `transport` (`"mem"` or `"tcp"`), and
/// the way to dial it.
fn endpoints(transport: &str) -> (Box<dyn Listener>, Dial) {
    if transport == "mem" {
        let listener = MemListener::new(1 << 16, tick());
        let peer = listener.clone();
        (Box::new(listener), Box::new(move || Box::new(peer.clone())))
    } else {
        let acceptor = TcpAcceptor::bind("127.0.0.1:0", tick()).expect("loopback bind");
        let addr = acceptor.local_addr();
        let dial = move || Box::new(TcpConnector { addr, tick: tick() }) as Box<dyn Connector>;
        (Box::new(acceptor), Box::new(dial))
    }
}

/// How long a test helper waits on the server before failing.
const PATIENCE: Duration = Duration::from_secs(10);

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
        // Client 1's first *response* dies mid-frame: the work already
        // executed, so the retry must be answered from the dedup book.
        .with_reset(1, WireDir::ServerToClient, 1)
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
    expect_ack(&mut io);
    io
}

/// Consume the HelloAck that must come next on `io`.
fn expect_ack(io: &mut FrameIo) {
    match io
        .recv_frame_until(Instant::now() + PATIENCE)
        .expect("handshake survives")
    {
        RecvFrame::Frame(f) if f.kind == FrameKind::HelloAck => {}
        RecvFrame::Frame(f) => panic!("expected HelloAck, got {:?}", f.kind),
        RecvFrame::Idle => panic!("no HelloAck within {PATIENCE:?}"),
        RecvFrame::Eof => panic!("server hung up mid-handshake"),
    }
}

/// The next `n` Response frames on `io`, in arrival order.
fn responses(io: &mut FrameIo, n: usize) -> Vec<Frame> {
    let mut got = Vec::new();
    let deadline = Instant::now() + PATIENCE;
    while got.len() < n {
        match io.recv_frame_until(deadline).expect("responses survive") {
            RecvFrame::Frame(f) if f.kind == FrameKind::Response => got.push(f),
            RecvFrame::Frame(f) => panic!("unexpected {:?} frame", f.kind),
            RecvFrame::Idle => panic!("responses stalled at {}", got.len()),
            RecvFrame::Eof => panic!("premature EOF after {} responses", got.len()),
        }
    }
    got
}

// ---------------------------------------------------------------------
// Exactly-once under seeded wire chaos
// ---------------------------------------------------------------------

/// Request-path faults retry transparently, response-path losses are
/// answered from the dedup book, and the service executes every request
/// exactly once — `completed` equals the number of *unique* requests
/// even though the wire carried more attempts than that.
#[test]
fn wire_chaos_resolves_every_request_exactly_once() {
    let (clients, reqs) = (3u64, 8u64);
    for transport in TRANSPORTS {
        let (listener, dial) = endpoints(transport);
        // Client-direction faults ride in each client's own plan; the
        // server injects the response-direction entries of the same plan.
        let config = RemoteConfig {
            wire_faults: wire_plan(),
            ..remote_config()
        };
        let server =
            RemoteServer::start(service_config(), config, listener).expect("config is valid");

        let (book, retries) = drive(|_| dial(), clients, reqs, &wire_plan(), request);

        assert_eq!(book.len(), (clients * reqs) as usize, "{transport}");
        for &(c, k, ok) in &book {
            assert!(
                ok,
                "{transport}: client {c} request {k} must resolve Ok under chaos"
            );
        }
        assert!(
            retries >= 3,
            "{transport}: reset + truncate + bitflip all force retries, saw {retries}"
        );

        let metrics = server.shutdown().expect("clean drain");
        assert_eq!(
            metrics.service.completed(),
            clients * reqs,
            "{transport}: exactly-once: executions match unique requests despite {retries} retries"
        );
        assert!(
            metrics.transport.dedup_replays >= 2,
            "{transport}: truncated and bit-flipped responses must replay from the book, saw {}",
            metrics.transport.dedup_replays
        );
        assert!(
            metrics.transport.conns_accepted >= clients,
            "{transport}: every client handshook"
        );
        assert!(
            metrics.transport.frames_in > clients * reqs,
            "{transport}: handshakes + requests"
        );
        // The server's terminal errors are fixed by the plan: client 0's
        // request-path reset, which the connection's read sees as a
        // frame cut short (over TCP the abort is a FIN, not a RST), and
        // the server's own truncation of client 1's response, which its
        // send counts as a reset. Client 2 catches its flipped response
        // and hangs up cleanly.
        let t = &metrics.transport;
        assert_eq!(
            (t.conn_reset, t.frame_corrupt, t.frame_too_large),
            (2, 0, 0),
            "{transport}: server-side (conn_reset, frame_corrupt, frame_too_large)"
        );
    }
}

/// The seeded rate streams — a hashed share of every frame, in both
/// directions and handshakes included, bit-flipped or reset mid-send —
/// over the shim and TCP: every call ends `Ok` or with a typed
/// transport error, never a panic or a hang; the service executes each
/// request once however many attempts the wire carried; and some
/// response-path loss is answered from the dedup book.
#[test]
fn seeded_flip_and_reset_rates_keep_exactly_once() {
    let (clients, reqs) = (3u64, 12u64);
    let rates = || {
        WireFaultPlan::seeded(1996)
            .with_flip_rate(0.04)
            .with_reset_rate(0.04)
    };
    for transport in TRANSPORTS {
        let (listener, dial) = endpoints(transport);
        let config = RemoteConfig {
            wire_faults: rates(),
            ..remote_config()
        };
        let server =
            RemoteServer::start(service_config(), config, listener).expect("config is valid");
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let (conn, plan) = (dial(), rates());
                std::thread::spawn(move || {
                    let mut client = RemoteClient::new(conn, c)
                        .with_faults(plan)
                        .with_retry(fast_retry())
                        .with_response_timeout(Duration::from_secs(5));
                    let mut gave_up = Vec::new();
                    for k in 0..reqs {
                        match client.call(&request(c * 100 + k)) {
                            Ok(outcome) => assert!(
                                outcome.is_ok(),
                                "client {c} request {k}: the service never rejects here"
                            ),
                            Err(e) => gave_up.push(e),
                        }
                    }
                    client.goodbye();
                    (gave_up, client.retries)
                })
            })
            .collect();
        let (mut gave_up, mut retries) = (Vec::new(), 0);
        for h in handles {
            let (errors, r) = h.join().expect("client threads never panic");
            gave_up.extend(errors);
            retries += r;
        }
        assert!(retries > 0, "{transport}: the rates must fault some frame");

        let metrics = server.shutdown().expect("clean drain");
        assert_eq!(
            metrics.service.completed(),
            clients * reqs,
            "{transport}: exactly-once across {retries} retries (gave up: {gave_up:?})"
        );
        assert!(
            metrics.transport.dedup_replays > 0,
            "{transport}: a response-path loss must replay from the book"
        );
        let t = &metrics.transport;
        // Each client's faults are a function of its own frame indices,
        // so the server's terminal errors are too: flipped request frames
        // are corrupt, and every frame cut short — by an abort or a FIN,
        // on either transport — is a reset.
        assert_eq!(
            (t.conn_reset, t.frame_corrupt, t.frame_too_large),
            (4, 2, 0),
            "{transport}: server-side (conn_reset, frame_corrupt, frame_too_large)"
        );
    }
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
// Backpressure: a pipelining client over a tiny pipe
// ---------------------------------------------------------------------

/// A client that floods requests past its window of 1 without reading
/// responses is served in order, one request at a time, and the bounded
/// pipe (256 B per direction, far smaller than one frame) holds its
/// backlog: the server blocks writing the first response, so it reads
/// no further request, and the flood stalls on the pipe. Once the client
/// reads, every response arrives in submission order with nothing lost.
#[test]
fn window_and_bounded_pipe_backpressure_a_pipelining_client() {
    let total = 6u64;
    let listener = MemListener::new(256, tick());
    let server = RemoteServer::start(
        service_config(),
        remote_config(),
        Box::new(listener.clone()),
    )
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
    match rx.recv_frame_until(Instant::now() + PATIENCE) {
        Ok(RecvFrame::Frame(f)) if f.kind == FrameKind::HelloAck => {
            let ack = decode_hello(&f).expect("a well-formed HelloAck");
            assert_eq!(ack.window, 1, "the server announces one request at a time");
        }
        other => panic!("expected the HelloAck, got {other:?}"),
    }

    // Flood from a second thread: the server reads the first request,
    // then blocks writing its response, so the next one stalls on the
    // 256 B pipe.
    let sender = std::thread::spawn(move || {
        for id in 0..total {
            tx.send_frame(&encode_request(id, &request(id)).expect("request encodes"))
                .expect("backpressured send completes");
        }
        tx
    });
    // The nap only gives the flood time to run into the pipe; a sender
    // that is not finished yet would hold in any order.
    std::thread::sleep(Duration::from_millis(50));
    assert!(
        !sender.is_finished(),
        "nothing the client has not read may leave its backlog"
    );

    let mut got = Vec::new();
    for f in responses(&mut rx, total as usize) {
        let outcome = decode_response(&f).expect("well-formed response");
        assert!(outcome.is_ok(), "request {} must serve Ok", f.id);
        got.push(f.id);
    }
    assert_eq!(got, (0..total).collect::<Vec<_>>(), "in-order responses");
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
// A reused client id
// ---------------------------------------------------------------------

/// The oracle pyramid of `req`.
fn oracle(req: &DecomposeRequest) -> dwt::Pyramid {
    dwt::dwt2d::decompose(&req.image, &req.bank, req.levels, req.mode)
        .expect("oracle geometry is valid")
}

/// A client restarted under its configured id numbers its requests from
/// 0 again, onto ids the book still holds for its predecessor. Each is a
/// new request: executed and answered with its own pyramid, never the
/// predecessor's result — over the shim and TCP.
#[test]
fn a_reused_client_id_is_served_its_own_results() {
    for transport in TRANSPORTS {
        let (listener, dial) = endpoints(transport);
        let server =
            RemoteServer::start(service_config(), remote_config(), listener).expect("valid");
        let (x, y) = (request(1), request(2));
        for req in [&x, &y] {
            let mut client = RemoteClient::new(dial(), 7);
            for call in 0..3 {
                let resp = client.call(req).expect("clean wire").expect("serves Ok");
                assert_eq!(resp.pyramid, oracle(req), "{transport}: call {call}");
            }
            client.goodbye();
        }
        let metrics = server.shutdown().expect("clean drain");
        assert_eq!(
            metrics.service.completed(),
            6,
            "{transport}: every call ran"
        );
        let t = &metrics.transport;
        assert_eq!(
            (t.dedup_replays, t.reused_ids),
            (0, 2),
            "{transport}: ids 1 and 2 were still in the book"
        );
    }
}

/// A reused id whose predecessor is still in flight waits that request
/// out — the predecessor's resubmit is still answered from the book —
/// and then executes as a new request.
#[test]
fn a_reused_client_id_waits_out_the_request_in_flight() {
    let listener = MemListener::new(1 << 16, tick());
    // Both shards crawl through their first dispatch, so the first
    // request is still in flight when the second client asks.
    let crawl = ShardFaultPlan::none()
        .with_stall(0, 4000.0, 0, 1)
        .with_stall(1, 4000.0, 0, 1);
    let server = RemoteServer::start(
        service_config().with_faults(crawl),
        remote_config(),
        Box::new(listener.clone()),
    )
    .expect("config is valid");
    let (x, y) = (
        DecomposeRequest::new(image(64, 7), FilterBank::cdf53(), 2),
        DecomposeRequest::new(image(64, 8), FilterBank::cdf53(), 2),
    );
    // Client 7 sends X as id 0 and dies without reading a byte.
    let mut a = raw_client(Box::new(listener.connect().expect("listener open")), 7, 1);
    a.send_frame(&encode_request(0, &x).expect("request encodes"))
        .expect("request fits the pipe");
    std::thread::sleep(Duration::from_millis(20));
    a.abort();

    // A new client 7 asks id 0 for Y.
    let mut b = RemoteClient::new(Box::new(listener.clone()), 7)
        .with_response_timeout(Duration::from_secs(30));
    let resp = b.call(&y).expect("clean wire").expect("serves Ok");
    assert_eq!(resp.pyramid, oracle(&y), "Y's own pyramid");
    assert_eq!(b.retries, 0, "answered on its first attempt");
    b.goodbye();

    let metrics = server.shutdown().expect("clean drain");
    assert_eq!(metrics.service.completed(), 2, "X and Y each ran once");
    let t = &metrics.transport;
    assert_eq!((t.dedup_replays, t.reused_ids), (0, 1));
}

// ---------------------------------------------------------------------
// The spare: a connection decomposes into the pyramid its book released
// ---------------------------------------------------------------------

/// Every coefficient's bit pattern, in the pyramid's own order.
fn bits(pyr: &dwt::Pyramid) -> Vec<u64> {
    let mut out = Vec::new();
    pyr.for_each_coeff(|c| out.push(c.to_bits()));
    out
}

/// One connection's geometry changes under it: the spare the book
/// releases fits some requests and not others, a fitting one may come
/// from another bank, and every response keeps the oracle's bits —
/// monolithic and progressive, over the shim and TCP.
#[test]
fn spare_storage_follows_geometry_changes_bit_identically() {
    let (haar, cdf53) = (FilterBank::haar(), FilterBank::cdf53());
    // (size, levels, bank): runs of one geometry, and alternations of
    // two — one differing in depth only, one in size.
    let plan = [
        (32, 2, &haar),
        (32, 3, &haar),
        (32, 2, &cdf53),
        (32, 3, &cdf53),
        (32, 2, &haar),
        (32, 2, &cdf53),
        (32, 2, &haar),
        (64, 2, &haar),
        (64, 2, &cdf53),
        (32, 2, &haar),
        (64, 2, &haar),
        (64, 2, &haar),
    ];
    for transport in TRANSPORTS {
        for progressive in [None, Some(CheckpointCodec::Raw)] {
            let (listener, dial) = endpoints(transport);
            let config = RemoteConfig {
                progressive,
                ..remote_config()
            };
            let server = RemoteServer::start(service_config(), config, listener).expect("valid");
            let mut client = RemoteClient::new(dial(), 5);
            for (k, &(n, levels, bank)) in plan.iter().enumerate() {
                let req = DecomposeRequest::new(image(n, k as u64), bank.clone(), levels);
                let resp = client.call(&req).expect("clean wire").expect("serves Ok");
                assert_eq!(
                    bits(&resp.pyramid),
                    bits(&oracle(&req)),
                    "{transport} {progressive:?}: call {k}"
                );
            }
            client.goodbye();
            let metrics = server.shutdown().expect("clean drain");
            assert_eq!(metrics.service.completed(), plan.len() as u64);
        }
    }
}

/// Every bank and boundary the service accepts, exact and degraded, on
/// one connection whose requests all share a geometry — so from the
/// third call on each decomposes into the storage of the response two
/// before it, degraded or not: the bits are the oracle's (quantized by
/// the service's own policy where degraded), over the shim and TCP.
#[test]
fn spare_storage_keeps_every_bank_and_boundary_bit_identical() {
    let policy = DegradedPolicy {
        threshold: 1.5,
        step: 0.5,
        // Every dispatch is past the high-water mark: sub-interactive
        // work is always degraded.
        queue_high_water: 0.0,
    };
    let banks = [
        FilterBank::haar(),
        FilterBank::daubechies(4).expect("D4 exists"),
        FilterBank::cdf53(),
        FilterBank::cdf97(),
    ];
    for transport in TRANSPORTS {
        let (listener, dial) = endpoints(transport);
        let service = service_config().with_degraded(policy);
        let server = RemoteServer::start(service, remote_config(), listener).expect("valid");
        let mut client = RemoteClient::new(dial(), 6);
        let mut calls = 0;
        for bank in &banks {
            for mode in Boundary::ALL {
                // The lifting banks run on periodic boundaries only.
                if bank.lifting_kind().is_some() && mode != Boundary::Periodic {
                    continue;
                }
                for priority in [Priority::Standard, Priority::Interactive] {
                    let req = DecomposeRequest::new(image(32, calls), bank.clone(), 2)
                        .with_mode(mode)
                        .with_priority(priority);
                    let resp = client.call(&req).expect("clean wire").expect("serves Ok");
                    let degraded = priority < Priority::Interactive;
                    let mut want = oracle(&req);
                    if degraded {
                        wserv::shard::degrade_pyramid(&mut want, &policy);
                    }
                    let at = format!("{transport}: {} {mode:?} {priority:?}", bank.name());
                    assert_eq!(resp.degraded, degraded, "{at}");
                    assert_eq!(bits(&resp.pyramid), bits(&want), "{at}");
                    calls += 1;
                }
            }
        }
        client.goodbye();
        let metrics = server.shutdown().expect("clean drain");
        assert_eq!(metrics.service.completed(), calls);
        assert_eq!(calls, 2 * (2 * 3 + 2), "every pairing the service accepts");
    }
}

/// A result a replay still holds is never released for reuse. Client 7
/// is answered id 0; a second connection as client 7 asks id 0 again
/// and reads one byte of the answer, so the connection replaying it is
/// parked mid-send with the result in hand while client 7 goes on to
/// ids 1..=5, whose book prunes id 0. The replayed bytes, read last,
/// are still id 0's.
#[test]
fn spare_storage_is_never_taken_from_a_replay() {
    let listener = MemListener::new(1 << 16, tick());
    let server = RemoteServer::start(
        service_config(),
        remote_config(),
        Box::new(listener.clone()),
    )
    .expect("config is valid");
    // 512 KiB pyramids: far more than the 64 KiB pipe holds.
    let reqs: Vec<_> = (0..6)
        .map(|k| DecomposeRequest::new(image(256, k), FilterBank::cdf53(), 2))
        .collect();
    let mut a = RemoteClient::new(Box::new(listener.clone()), 7);
    let first = a.call(&reqs[0]).expect("clean wire").expect("serves Ok");
    assert_eq!(bits(&first.pyramid), bits(&oracle(&reqs[0])));

    let conn = listener.connect().expect("listener open");
    let mut peek = conn.try_clone().expect("a shim connection clones");
    let mut b = raw_client(Box::new(conn), 7, 1);
    b.send_frame(&encode_request(0, &reqs[0]).expect("request encodes"))
        .expect("request fits the pipe");
    // The first byte of B's answer: its connection has claimed the
    // replay and is sending it, 512 KiB into a 64 KiB pipe.
    let deadline = Instant::now() + PATIENCE;
    let mut bytes = vec![0; 1];
    let first = peek.recv(&mut bytes, Some(deadline));
    assert_eq!(first, Ok(Recv::Data(1)), "B's answer starts");
    for (k, req) in reqs.iter().enumerate().skip(1) {
        let resp = a.call(req).expect("clean wire").expect("serves Ok");
        assert_eq!(bits(&resp.pyramid), bits(&oracle(req)), "A's call {k}");
    }
    let replayed = loop {
        let decoded = decode_frame(&bytes, DEFAULT_MAX_PAYLOAD).expect("a clean frame");
        if let Some((frame, _)) = decoded {
            break frame;
        }
        let mut chunk = vec![0; CHUNK];
        match peek.recv(&mut chunk, Some(deadline)) {
            Ok(Recv::Data(n)) => bytes.extend_from_slice(&chunk[..n]),
            other => panic!("B's answer stopped at {} B: {other:?}", bytes.len()),
        }
    };
    assert_eq!(replayed.id, 0);
    let replayed = decode_response(&replayed)
        .expect("a clean frame")
        .expect("a recorded success");
    assert_eq!(
        bits(&replayed.pyramid),
        bits(&oracle(&reqs[0])),
        "B's replay"
    );
    b.abort();
    a.goodbye();

    let metrics = server.shutdown().expect("clean drain");
    assert_eq!(metrics.service.completed(), 6, "each id executed once");
    assert_eq!(metrics.transport.dedup_replays, 1, "B was a replay");
}

/// Worker deaths under a `RemoteServer`: a batch stranded by a killed
/// worker is re-queued with the spares its requests carry, and every
/// call still resolves with the oracle's bits, over the shim and TCP.
#[test]
fn spare_storage_survives_worker_deaths() {
    let kills = ShardFaultPlan::seeded(49)
        .with_worker_panic(0, 2)
        .with_worker_panic(0, 5)
        .with_worker_panic(0, 9);
    let (clients, calls) = (2u64, 8u64);
    for transport in TRANSPORTS {
        let (listener, dial) = endpoints(transport);
        let service = service_config().with_shards(1).with_faults(kills.clone());
        let server = RemoteServer::start(service, remote_config(), listener).expect("valid");
        let callers: Vec<_> = (0..clients)
            .map(|c| {
                let mut client = RemoteClient::new(dial(), c);
                std::thread::spawn(move || {
                    for k in 0..calls {
                        let req =
                            DecomposeRequest::new(image(64, c * 100 + k), FilterBank::cdf53(), 3);
                        let resp = client.call(&req).expect("clean wire").expect("serves Ok");
                        assert_eq!(
                            bits(&resp.pyramid),
                            bits(&oracle(&req)),
                            "client {c} call {k}"
                        );
                    }
                    client.goodbye();
                })
            })
            .collect();
        for caller in callers {
            caller.join().expect("every call resolves bit-identically");
        }
        let metrics = server.shutdown().expect("clean drain");
        assert_eq!(metrics.service.completed(), clients * calls, "{transport}");
        assert_eq!(
            metrics.service.restarts(),
            3,
            "{transport}: every kill fired"
        );
    }
}

// ---------------------------------------------------------------------
// Drain wakes every connection; the handshake and response timers
// ---------------------------------------------------------------------

/// A connection that handshakes, sends half a frame, then goes silent
/// cannot hold drain hostage: `shutdown` closes its read side, the
/// reader is cut off mid-frame, and the connection is aborted and
/// counted, while work accepted on healthy connections is fully served
/// first — over the shim and over TCP.
#[test]
fn drain_aborts_half_open_connections_mid_frame() {
    for transport in TRANSPORTS {
        let (listener, dial) = endpoints(transport);
        let server =
            RemoteServer::start(service_config(), remote_config(), listener).expect("valid");

        // A healthy client completes one request — drain must preserve it.
        let mut healthy = RemoteClient::new(dial(), 1);
        let outcome = healthy.call(&request(1)).expect("clean wire");
        assert!(outcome.is_ok());
        healthy.goodbye();

        // The half-open peer: full handshake, then half a request frame,
        // then silence — never a FIN, never the rest of the frame.
        let raw = dial().dial().expect("server is up");
        let mut stuck_half = raw.try_clone().expect("both transports clone");
        let mut hio = raw_client(raw, 99, 1);
        let frame_bytes = encode_frame(&encode_request(0, &request(9)).expect("request encodes"))
            .expect("request frame encodes");
        stuck_half
            .send(&[&frame_bytes[..frame_bytes.len() / 2]])
            .expect("partial frame lands");

        // Let the reader buffer the partial frame (bytes it has not read
        // yet are delivered before drain's EOF all the same), then drain.
        std::thread::sleep(Duration::from_millis(20));
        let t0 = Instant::now();
        let metrics = server
            .shutdown()
            .expect("drain completes despite the half-open peer");
        let took = t0.elapsed();
        assert!(
            took < Duration::from_secs(1),
            "{transport}: drain must not wait on a half-open connection (took {took:?})"
        );
        assert_eq!(
            metrics.transport.conn_aborted, 1,
            "{transport}: the half-open connection is aborted and counted"
        );
        assert_eq!(
            metrics.service.completed(),
            1,
            "{transport}: accepted work survives drain"
        );

        // The aborted peer observes the connection die, not a response.
        let observed = hio.recv_frame_until(Instant::now() + PATIENCE);
        assert!(
            matches!(
                observed,
                Err(TransportError::ConnReset) | Ok(RecvFrame::Eof)
            ),
            "{transport}: half-open peer sees the connection die, got {observed:?}"
        );
    }
}

/// Handshaken clients that sit idle between frames and never say `Bye`
/// do not stall drain either: drain wakes their readers, they end
/// cleanly, and nothing is counted as aborted — over the shim and over
/// TCP.
#[test]
fn drain_ends_idle_connections_that_never_say_bye() {
    for transport in TRANSPORTS {
        let (listener, dial) = endpoints(transport);
        let server =
            RemoteServer::start(service_config(), remote_config(), listener).expect("valid");
        let mut idle: Vec<_> = (0..2)
            .map(|c| {
                let mut client = RemoteClient::new(dial(), c).with_retry(RetryPolicy {
                    max_attempts: 1,
                    ..fast_retry()
                });
                let outcome = client.call(&request(c)).expect("clean wire");
                assert!(outcome.is_ok());
                client
            })
            .collect();

        let t0 = Instant::now();
        let metrics = server.shutdown().expect("clean drain");
        let took = t0.elapsed();
        assert!(
            took < Duration::from_secs(1),
            "{transport}: drain must not wait on idle clients (took {took:?})"
        );
        assert_eq!(metrics.service.completed(), 2, "{transport}");
        assert_eq!(
            metrics.transport.conn_aborted, 0,
            "{transport}: idle is clean"
        );
        for client in &mut idle {
            assert!(
                client.call(&request(7)).is_err(),
                "{transport}: the drained server answers nothing more"
            );
        }
    }
}

/// A connection that never sends its `Hello` is closed by the server
/// after [`HELLO_TIMEOUT`], with no drain to prompt it — over the shim
/// and over TCP.
#[test]
fn a_connection_that_never_says_hello_is_closed() {
    for transport in TRANSPORTS {
        let (listener, dial) = endpoints(transport);
        let server =
            RemoteServer::start(service_config(), remote_config(), listener).expect("valid");
        let mut silent = dial().dial().expect("server is up");
        let t0 = Instant::now();
        let mut buf = [0u8; 64];
        let closed = silent.recv(&mut buf, Some(t0 + Duration::from_secs(2)));
        let took = t0.elapsed();
        assert!(
            matches!(closed, Ok(Recv::Eof) | Err(TransportError::ConnReset)),
            "{transport}: the server closes the silent connection, got {closed:?}"
        );
        assert!(
            took >= HELLO_TIMEOUT && took < Duration::from_secs(2),
            "{transport}: closed at the Hello timeout, not before (took {took:?})"
        );
        let metrics = server.shutdown().expect("clean drain");
        assert_eq!(metrics.transport.conns_accepted, 0, "{transport}");
    }
}

/// A peer that accepts, reads the `Hello` and never acks: a client with
/// a 50 ms response timeout and no retries gives up with the typed
/// [`TransportError::ConnTimeout`] at its deadline — over the shim and
/// over TCP.
#[test]
fn a_silent_server_times_out_the_client_typed() {
    for transport in TRANSPORTS {
        let (listener, dial) = endpoints(transport);
        let (hang_up, hold) = std::sync::mpsc::channel::<()>();
        let peer = std::thread::spawn(move || {
            let conn = listener.accept().expect("the client dials");
            let mut io = FrameIo::new(
                conn,
                0,
                WireDir::ServerToClient,
                WireFaultPlan::none(),
                WireClock::new(),
            );
            match io.recv_frame_until(Instant::now() + PATIENCE) {
                Ok(RecvFrame::Frame(f)) => assert_eq!(f.kind, FrameKind::Hello),
                other => panic!("expected the Hello, got {other:?}"),
            }
            // Hold the connection open, unanswered, until the client is done.
            let _ = hold.recv();
        });

        let timeout = Duration::from_millis(50);
        let mut client = RemoteClient::new(dial(), 3)
            .with_response_timeout(timeout)
            .with_retry(RetryPolicy {
                max_attempts: 1,
                ..fast_retry()
            });
        let t0 = Instant::now();
        let got = client.call(&request(1));
        let took = t0.elapsed();
        assert_eq!(
            got.err(),
            Some(TransportError::ConnTimeout { waited_ms: 50 }),
            "{transport}"
        );
        assert!(
            took >= timeout && took < Duration::from_secs(1),
            "{transport}: gave up at the deadline (took {took:?})"
        );
        drop(client);
        hang_up.send(()).expect("peer is holding");
        peer.join().expect("peer never panics");
    }
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

    // A v2 peer (no Credit frame), and one from the far future.
    for claimed in [2, PROTOCOL_VERSION as u32 + 41] {
        let mut wrong = RemoteClient::new(Box::new(listener.clone()), 3)
            .with_claimed_protocol(claimed)
            .with_retry(fast_retry());
        match wrong.call(&request(1)) {
            Err(TransportError::HandshakeMismatch { detail }) => {
                assert!(
                    detail.contains("protocol"),
                    "diagnostic names the cause: {detail}"
                );
            }
            other => panic!("v{claimed}: expected HandshakeMismatch, got {other:?}"),
        }
        assert_eq!(wrong.retries, 0, "mismatch is terminal, never retried");
        wrong.goodbye();
    }

    let metrics = server.shutdown().expect("clean drain");
    assert!(metrics.transport.handshake_mismatch >= 2);
    assert_eq!(
        metrics.service.completed(),
        0,
        "no work crossed the bad handshake"
    );
}

/// `payload` framed as protocol version 3 framed it: the same header
/// with version byte 3, and FNV-1a 64 over header and payload as the
/// trailer.
fn v3_frame(kind: FrameKind, id: u64, payload: &[u8]) -> Vec<u8> {
    let mut bytes = b"WSRV".to_vec();
    bytes.extend_from_slice(&[3, kind as u8, 0, 0]);
    bytes.extend_from_slice(&id.to_le_bytes());
    bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    bytes.extend_from_slice(payload);
    let fnv = bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    });
    bytes.extend_from_slice(&fnv.to_le_bytes());
    bytes
}

/// A version-3 peer is refused typed, with no decoder kept for it: its
/// frames fail at the version byte as `FrameCorrupt` in either direction,
/// and a v3 `Hello` inside a current frame as `HandshakeMismatch` — over
/// the shim and TCP.
#[test]
fn v3_frames_and_hellos_are_refused_typed() {
    let v3_hello = |kind| {
        let hello = Hello {
            protocol: 3,
            max_payload: DEFAULT_MAX_PAYLOAD,
            window: 1,
        };
        v3_frame(kind, 7, &encode_hello(kind, 7, &hello).payload)
    };
    match wserv::wire::decode_complete(&v3_hello(FrameKind::Hello), DEFAULT_MAX_PAYLOAD) {
        Err(wserv::wire::WireError::FrameCorrupt { detail }) => assert!(
            detail.contains(&format!(
                "protocol version 3 (this build speaks {PROTOCOL_VERSION})"
            )),
            "{detail}"
        ),
        other => panic!("a v3 frame must not decode, got {other:?}"),
    }
    for transport in TRANSPORTS {
        // A v3 client's Hello: the server closes without a byte back.
        let (listener, dial) = endpoints(transport);
        let server =
            RemoteServer::start(service_config(), remote_config(), listener).expect("valid");
        let mut v3_client = dial().dial().expect("server is up");
        v3_client
            .send(&[&v3_hello(FrameKind::Hello)])
            .expect("the frame is sent");
        let mut buf = [0u8; 64];
        let closed = v3_client.recv(&mut buf, Some(Instant::now() + PATIENCE));
        assert!(
            matches!(closed, Ok(Recv::Eof) | Err(TransportError::ConnReset)),
            "{transport}: the server refuses the v3 frame, got {closed:?}"
        );
        // A v3 Hello in a current frame: terminal, never retried.
        let mut wrong = RemoteClient::new(dial(), 8)
            .with_claimed_protocol(3)
            .with_retry(fast_retry());
        match wrong.call(&request(1)) {
            Err(TransportError::HandshakeMismatch { detail }) => {
                assert!(detail.contains("we speak 3"), "{transport}: {detail}")
            }
            other => panic!("{transport}: expected HandshakeMismatch, got {other:?}"),
        }
        assert_eq!(wrong.retries, 0, "{transport}: mismatch is terminal");
        drop(wrong);
        let metrics = server.shutdown().expect("clean drain");
        let t = &metrics.transport;
        assert_eq!(
            (t.frame_corrupt, t.handshake_mismatch, t.conns_accepted),
            (1, 1, 0),
            "{transport}: server-side (frame_corrupt, handshake_mismatch, conns_accepted)"
        );
        assert_eq!(metrics.service.completed(), 0, "{transport}");

        // A v3 server's ack: the client types it at the version byte.
        let (listener, dial) = endpoints(transport);
        let peer = std::thread::spawn(move || {
            let mut conn = listener.accept().expect("the client dials");
            let mut io = FrameIo::new(
                conn.try_clone().expect("transports clone"),
                0,
                WireDir::ServerToClient,
                WireFaultPlan::none(),
                WireClock::new(),
            );
            match io.recv_frame_until(Instant::now() + PATIENCE) {
                Ok(RecvFrame::Frame(f)) => assert_eq!(f.kind, FrameKind::Hello),
                other => panic!("expected the Hello, got {other:?}"),
            }
            conn.send(&[&v3_hello(FrameKind::HelloAck)])
                .expect("the ack is sent");
            conn
        });
        let mut client = RemoteClient::new(dial(), 7).with_retry(RetryPolicy {
            max_attempts: 1,
            ..fast_retry()
        });
        match client.call(&request(1)) {
            Err(TransportError::FrameCorrupt { detail }) => {
                assert!(
                    detail.contains("protocol version 3"),
                    "{transport}: {detail}"
                )
            }
            other => panic!("{transport}: expected FrameCorrupt, got {other:?}"),
        }
        drop(peer.join().expect("peer never panics"));
    }
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

/// A response larger than the negotiated window, to a request that fit
/// it, is answered with a typed rejection naming the window, counted in
/// `frame_too_large`, and the connection serves on.
#[test]
fn an_oversized_response_is_refused_typed_and_the_connection_serves_on() {
    let big = DecomposeRequest::new(image(32, 1), FilterBank::cdf53(), 2);
    let pyramid = dwt::dwt2d::decompose(&big.image, &big.bank, big.levels, big.mode)
        .expect("dyadic geometry");
    let resp = Ok(wserv::DecomposeResponse {
        pyramid,
        cache_hit: false,
        batch_size: 1,
        wait_s: 0.0,
        service_s: 0.0,
        degraded: false,
        error_bound: 0.0,
    });
    let request_len = encode_request(1, &big).expect("encodes").payload.len();
    let response_len = encode_response(1, &resp).expect("encodes").payload.len();
    assert!(
        request_len < response_len,
        "{request_len} vs {response_len}"
    );
    let max = ((request_len + response_len) / 2) as u32;
    for transport in TRANSPORTS {
        let (listener, dial) = endpoints(transport);
        let config = RemoteConfig {
            max_payload: max,
            ..remote_config()
        };
        let server =
            RemoteServer::start(service_config(), config, listener).expect("config is valid");
        let mut client = RemoteClient::new(dial(), 1);
        match client.call(&big).expect("the request fits the window") {
            Err(wserv::Rejection::Invalid { detail }) => assert!(
                detail.contains(&format!("negotiated window {max} B")),
                "{transport}: {detail}"
            ),
            other => panic!("{transport}: expected a typed refusal, got {other:?}"),
        }
        let next = client.call(&request(2)).expect("the connection serves on");
        assert!(next.is_ok(), "{transport}: {next:?}");
        assert_eq!(client.retries, 0, "{transport}: nothing was retried");
        client.goodbye();
        let metrics = server.shutdown().expect("clean drain");
        assert_eq!(metrics.transport.frame_too_large, 1, "{transport}");
        assert_eq!(metrics.transport.conns_accepted, 1, "{transport}");
    }
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
        assert_eq!(
            client.transport.frames_out,
            1 + 3 * 2 + 1,
            "Hello, then a request and one credit per sequence, then Bye"
        );
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

/// Progressive delivery + tolerance cancels + seeded wire chaos, over
/// the shim and TCP: every request still resolves exactly once (the
/// dedup book replays recorded outcomes; cancelled sequences never
/// un-execute work), and the books all read Ok.
#[test]
fn progressive_chaos_keeps_exactly_once_accounting() {
    let (clients, reqs) = (3u64, 6u64);
    for transport in TRANSPORTS {
        let (listener, dial) = endpoints(transport);
        let config = RemoteConfig {
            wire_faults: wire_plan(),
            progressive: Some(CheckpointCodec::WaveletQuant {
                threshold: 1e-6,
                step: 0.0,
            }),
            ..remote_config()
        };
        let server =
            RemoteServer::start(service_config(), config, listener).expect("config is valid");

        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let (conn, plan) = (dial(), wire_plan());
                std::thread::spawn(move || {
                    let mut client = RemoteClient::new(conn, c)
                        .with_faults(plan)
                        .with_retry(fast_retry())
                        .with_response_timeout(Duration::from_secs(5))
                        .with_tolerance(40.0);
                    let mut ok = 0u64;
                    for k in 0..reqs {
                        let req =
                            DecomposeRequest::new(image(32, c * 100 + k), FilterBank::cdf53(), 3);
                        let outcome = client.call(&req).unwrap_or_else(|e| {
                            panic!("client {c} request {k}: transport gave up: {e}")
                        });
                        assert!(outcome.is_ok(), "client {c} request {k} resolves Ok");
                        ok += 1;
                    }
                    client.goodbye();
                    (ok, client.progressive)
                })
            })
            .collect();
        let mut oks = 0;
        let mut partials = 0;
        for h in handles {
            let (ok, tally) = h.join().expect("client threads never panic");
            oks += ok;
            partials += tally.partial_responses;
        }
        assert_eq!(oks, clients * reqs, "{transport}");
        assert!(
            partials >= 1,
            "{transport}: the tolerance must trip at least once"
        );

        let metrics = server.shutdown().expect("clean drain");
        assert_eq!(
            metrics.service.completed(),
            clients * reqs,
            "{transport}: exactly-once accounting survives cancels under chaos"
        );
    }
}

// ---------------------------------------------------------------------
// Pull-driven progressive delivery: the server sends what is read
// ---------------------------------------------------------------------

/// The progressive quantizer and tolerance wbench's
/// `rpc_large_progressive` freezes.
const LARGE_QUANT: CheckpointCodec = CheckpointCodec::WaveletQuant {
    threshold: 0.25,
    step: 0.5,
};
const LARGE_TOLERANCE: f64 = 100.0;

/// Two seeded 512² Landsat-like scenes, each at depth 3 through CDF 5/3
/// and D4.
fn large_requests() -> Vec<DecomposeRequest> {
    let mut reqs = Vec::new();
    for seed in [1996, 2024] {
        let params = SceneParams {
            seed,
            ..SceneParams::default()
        };
        let scene = landsat_scene(512, 512, params);
        for bank in [FilterBank::cdf53(), FilterBank::daubechies(4).expect("D4")] {
            reqs.push(DecomposeRequest::new(scene.clone(), bank, 3));
        }
    }
    reqs
}

/// A tolerance client reads a few planes of each 512² sequence and the
/// server sends exactly those: its plane count is the client's, and
/// every byte it writes is a byte the client consumed — over the shim
/// and over TCP.
#[test]
fn the_server_sends_only_what_the_reader_read() {
    let reqs = large_requests();
    let remote = || RemoteConfig {
        progressive: Some(LARGE_QUANT),
        ..remote_config()
    };
    for transport in TRANSPORTS {
        let (listener, dial) = endpoints(transport);
        let server = RemoteServer::start(service_config(), remote(), listener).expect("valid");
        let mut client = RemoteClient::new(dial(), 8).with_tolerance(LARGE_TOLERANCE);
        for req in &reqs {
            let resp = client
                .call(req)
                .expect("clean wire")
                .expect("request serves Ok");
            assert!(resp.error_bound <= LARGE_TOLERANCE, "{transport}");
        }
        client.goodbye();
        let tally = client.progressive;
        let metrics = server.shutdown().expect("clean drain").transport;
        assert_eq!(tally.headers, reqs.len() as u64, "{transport}");
        assert_eq!(
            tally.cancels, tally.headers,
            "{transport}: every sequence stops early"
        );
        assert!(
            tally.planes < 9 * tally.headers,
            "{transport}: planes read {tally:?}"
        );
        assert_eq!(metrics.planes_sent, tally.planes, "{transport}");
        assert_eq!(metrics.cancels_honored, tally.cancels, "{transport}");
        assert_eq!(
            (metrics.frames_out, metrics.bytes_out),
            (client.transport.frames_in, client.transport.bytes_in),
            "{transport}: the server wrote exactly what the client consumed"
        );
    }
}

/// A progressive server over `transport` and a raw client on it that
/// has sent one 64² request and read the sequence's header — and
/// credits nothing.
fn a_header_read(transport: &str) -> (RemoteServer, FrameIo) {
    let (listener, dial) = endpoints(transport);
    let remote = RemoteConfig {
        progressive: Some(CheckpointCodec::Raw),
        ..remote_config()
    };
    let server = RemoteServer::start(service_config(), remote, listener).expect("valid");
    let mut io = raw_client(dial().dial().expect("server is up"), 11, 1);
    let req = DecomposeRequest::new(image(64, 3), FilterBank::cdf53(), 2);
    io.send_frame(&encode_request(0, &req).expect("request encodes"))
        .expect("request fits");
    let header = responses(&mut io, 1).remove(0);
    assert!(header.more_follows(), "{transport}: planes would follow");
    match decode_response_body(&header).expect("well-formed header") {
        ResponseBody::Header(h) => assert_eq!(h.planes_total, 6),
        other => panic!("{transport}: expected the header, got {other:?}"),
    }
    (server, io)
}

/// The client's side of the connection ends within [`PATIENCE`].
fn closes(io: &mut FrameIo) -> bool {
    matches!(
        io.recv_frame_until(Instant::now() + PATIENCE),
        Ok(RecvFrame::Eof) | Err(TransportError::ConnReset)
    )
}

/// The six planes [`a_header_read`] left owed arrive in order, and the
/// last one closes the sequence.
fn the_rest_arrives(io: &mut FrameIo, transport: &str) {
    for (k, plane) in responses(io, 6).iter().enumerate() {
        assert_eq!(plane.more_follows(), k < 5, "{transport}: plane {}", k + 1);
    }
}

/// A raw client reads the header, never credits a plane, and closes its
/// sending side — a clean end. The connection, reading for that credit,
/// sees the end and flushes the rest of the sequence it owes; then it
/// FINs on its own — no drain.
#[test]
fn a_parked_writer_wakes_when_its_reader_leaves() {
    for transport in TRANSPORTS {
        let (server, mut io) = a_header_read(transport);
        io.shutdown_write();
        the_rest_arrives(&mut io, transport);
        assert!(
            closes(&mut io),
            "{transport}: the connection ends by itself"
        );
        let metrics = server.shutdown().expect("clean drain");
        assert_eq!(metrics.service.completed(), 1, "{transport}");
        let t = metrics.transport;
        assert_eq!((t.planes_sent, t.cancels_honored), (6, 0), "{transport}");
        assert_eq!(t.conn_aborted, 0, "{transport}: a clean end");
    }
}

/// `shutdown()` while a connection waits on a credit returns promptly
/// and loses nothing: drain ends its read between frames, a clean end,
/// so it flushes the rest of the sequence before FIN.
#[test]
fn a_parked_writer_does_not_hold_up_drain() {
    for transport in TRANSPORTS {
        let (server, mut io) = a_header_read(transport);
        let t0 = Instant::now();
        let metrics = server.shutdown().expect("clean drain");
        let took = t0.elapsed();
        assert!(
            took < Duration::from_secs(1),
            "{transport}: drain must not wait on a credit (took {took:?})"
        );
        let t = metrics.transport;
        assert_eq!((t.planes_sent, t.conn_aborted), (6, 0), "{transport}");
        the_rest_arrives(&mut io, transport);
        assert!(closes(&mut io), "{transport}: the client sees the end");
    }
}

/// Drain while a [`RemoteClient`] is mid-sequence loses nothing. The
/// client's credit for plane 1 is held back, by a stall on its own send
/// path, until the server has drained; the call still resolves, first
/// try, with the whole lossless pyramid — over the shim and over TCP.
#[test]
fn drain_delivers_a_progressive_sequence_mid_read() {
    for transport in TRANSPORTS {
        let (listener, dial) = endpoints(transport);
        let remote = RemoteConfig {
            progressive: Some(CheckpointCodec::Raw),
            ..remote_config()
        };
        let server = RemoteServer::start(service_config(), remote, listener).expect("valid");
        let req = DecomposeRequest::new(image(64, 5), FilterBank::cdf53(), 2);
        let oracle = dwt::dwt2d::decompose(&req.image, &req.bank, req.levels, req.mode)
            .expect("oracle geometry is valid");
        // The client's frames: Hello 0, the request 1, the credit for
        // plane 1 is frame 2.
        let held = WireFaultPlan::seeded(1).with_stall(12, WireDir::ClientToServer, 2, 0.3);
        let mut client = RemoteClient::new(dial(), 12)
            .with_faults(held)
            .with_tolerance(0.0)
            .with_retry(RetryPolicy {
                max_attempts: 1,
                ..fast_retry()
            });
        let reading = std::thread::spawn(move || (client.call(&req), client.progressive));
        std::thread::sleep(Duration::from_millis(100));
        let t0 = Instant::now();
        let metrics = server.shutdown().expect("clean drain");
        assert!(t0.elapsed() < Duration::from_secs(1), "{transport}");
        let (got, tally) = reading.join().expect("the client never panics");
        let resp = got
            .unwrap_or_else(|e| panic!("{transport}: drain broke the sequence: {e}"))
            .expect("request serves Ok");
        assert_eq!(resp.pyramid, oracle, "{transport}: every plane arrives");
        assert_eq!(resp.error_bound, 0.0, "{transport}");
        assert_eq!((tally.headers, tally.planes), (1, 6), "{transport}");
        assert_eq!(metrics.transport.planes_sent, 6, "{transport}");
    }
}

/// A client that sends past its window instead of crediting the
/// sequence it is reading would wait on a response while the server
/// waits on its credit; the server, reading a request where a credit
/// belongs, cuts it off instead — an abortive end, so nothing more of
/// the sequence goes — and drains promptly.
#[test]
fn a_parked_writer_cuts_off_a_client_past_its_window() {
    for transport in TRANSPORTS {
        let (server, mut io) = a_header_read(transport);
        io.send_frame(&encode_request(1, &request(1)).expect("request encodes"))
            .expect("request fits");
        assert!(closes(&mut io), "{transport}: the server gives up");
        let t0 = Instant::now();
        let metrics = server.shutdown().expect("clean drain");
        assert!(t0.elapsed() < Duration::from_secs(1), "{transport}");
        assert_eq!(metrics.transport.planes_sent, 0, "{transport}");
    }
}

/// A server that sends the header and then stalls — it reads the
/// client's credit and never answers it — leaves a client with a 50 ms
/// response timeout and no retries the typed
/// [`TransportError::ConnTimeout`] at its deadline.
#[test]
fn a_server_stalled_mid_sequence_times_out_the_client() {
    for transport in TRANSPORTS {
        let (listener, dial) = endpoints(transport);
        let (hang_up, hold) = std::sync::mpsc::channel::<()>();
        let peer = std::thread::spawn(move || {
            let conn = listener.accept().expect("the client dials");
            let mut io = FrameIo::new(
                conn,
                0,
                WireDir::ServerToClient,
                WireFaultPlan::none(),
                WireClock::new(),
            );
            let next = |io: &mut FrameIo| match io.recv_frame_until(Instant::now() + PATIENCE) {
                Ok(RecvFrame::Frame(f)) => f,
                other => panic!("expected a frame, got {other:?}"),
            };
            let hello = next(&mut io);
            assert_eq!(hello.kind, FrameKind::Hello);
            let ack = Hello {
                protocol: PROTOCOL_VERSION as u32,
                max_payload: DEFAULT_MAX_PAYLOAD,
                window: 1,
            };
            io.send_frame(&encode_hello(FrameKind::HelloAck, hello.id, &ack))
                .expect("client is up");
            let req = next(&mut io);
            let req_id = req.id;
            let req = decode_request(&req).expect("a request follows the hello");
            let pyramid = dwt::dwt2d::decompose(&req.image, &req.bank, req.levels, req.mode)
                .expect("request geometry is valid");
            let resp = wserv::DecomposeResponse {
                pyramid,
                cache_hit: false,
                batch_size: 1,
                wait_s: 0.0,
                service_s: 0.0,
                degraded: false,
                error_bound: 0.0,
            };
            let (header, _) = split_response(&resp, CheckpointCodec::Raw).expect("lossless");
            io.send_frame(&encode_progressive_header(req_id, &header).expect("encodes"))
                .expect("client is up");
            let credit = next(&mut io);
            assert_eq!(credit.kind, FrameKind::Credit);
            assert_eq!(
                decode_credit(&credit),
                Ok(u32::MAX),
                "a reader with no stop rule pulls the whole sequence at once"
            );
            // Hold the sequence open, unanswered, until the client is done.
            let _ = hold.recv();
        });

        let timeout = Duration::from_millis(50);
        let mut client = RemoteClient::new(dial(), 3)
            .with_response_timeout(timeout)
            .with_retry(RetryPolicy {
                max_attempts: 1,
                ..fast_retry()
            });
        let got = client.call(&request(1));
        assert_eq!(
            got.err(),
            Some(TransportError::ConnTimeout { waited_ms: 50 }),
            "{transport}"
        );
        assert_eq!(client.progressive.headers, 1, "{transport}");
        drop(client);
        hang_up.send(()).expect("peer is holding");
        peer.join().expect("peer never panics");
    }
}

// ---------------------------------------------------------------------
// Framing: FrameIo writes and reads exactly the codec's bytes
// ---------------------------------------------------------------------

/// One frame of every kind the protocol speaks, in the order a session
/// could carry them: both handshakes, a Request, a monolithic Response,
/// a progressive header, dense and sparse planes, Credit, Cancel, Bye.
fn every_kind() -> Vec<Frame> {
    let req = request(5);
    let resp = wserv::DecomposeResponse {
        pyramid: dwt::dwt2d::decompose(&req.image, &req.bank, req.levels, req.mode)
            .expect("request geometry is valid"),
        cache_hit: true,
        batch_size: 2,
        wait_s: 0.25,
        service_s: 0.5,
        degraded: false,
        error_bound: 0.0,
    };
    let hello = Hello {
        protocol: PROTOCOL_VERSION as u32,
        max_payload: DEFAULT_MAX_PAYLOAD,
        window: 2,
    };
    let coarse = CheckpointCodec::WaveletQuant {
        threshold: 8.0,
        step: 0.5,
    };
    let (header, dense) = split_response(&resp, CheckpointCodec::Raw).expect("lossless");
    let (_, sparse) = split_response(&resp, coarse).expect("quantizes");
    let mut frames = vec![
        encode_hello(FrameKind::Hello, 7, &hello),
        encode_hello(FrameKind::HelloAck, 7, &hello),
        encode_request(1, &req).expect("request encodes"),
        encode_response(1, &Ok(resp)).expect("response encodes"),
        encode_progressive_header(2, &header).expect("header encodes"),
    ];
    for planes in [&dense, &sparse] {
        for (k, plane) in planes.iter().enumerate() {
            let more = k + 1 < planes.len();
            frames.push(encode_progressive_plane(2, plane, more).expect("plane encodes"));
        }
    }
    assert!(sparse
        .iter()
        .any(|p| matches!(p.coeffs, PlaneCoeffs::Sparse(_))));
    frames.extend([
        encode_credit(2, 3),
        Frame::new(FrameKind::Cancel, 2, Vec::new()),
        Frame::new(FrameKind::Bye, 7, Vec::new()),
    ]);
    frames
}

/// The payload `msg` was decoded from, as the live encoders take it.
fn payload_of(head: Head, msg: &Message) -> Payload<'_> {
    match msg {
        Message::Hello(hello) => Payload::Hello(*hello),
        Message::HelloAck(hello) => Payload::HelloAck(*hello),
        Message::Request(req) => Payload::Request(req),
        Message::Response(ResponseBody::Outcome(result)) => Payload::Response(result),
        Message::Response(ResponseBody::Header(header)) => Payload::Header(header),
        Message::Response(ResponseBody::Plane(plane)) => Payload::Plane(plane, head.more_follows()),
        Message::Bye => Payload::Bye,
        Message::Cancel => Payload::Cancel,
        Message::Credit(upto) => Payload::Credit(*upto),
    }
}

/// Each frame with what `decode_message` makes of its payload.
fn decoded(frames: &[Frame]) -> Vec<(Head, Message)> {
    let decode = |f: &Frame| (f.head(), decode_message(f).expect("own frame decodes"));
    frames.iter().map(decode).collect()
}

/// Every frame `rx` reads and decodes as it streams, up to a clean end.
fn read_all(mut rx: FrameIo) -> Result<Vec<(Head, Message)>, TransportError> {
    let mut read = Vec::new();
    while let RecvFrame::Frame(got) = rx.recv(None)? {
        read.push(got);
    }
    Ok(read)
}

/// Both send paths write `encode_frame`'s bytes for `frames`, over the
/// shim and over TCP: `send_frame`, the frame held whole, and `send`,
/// the live encoders streaming through the chunk.
fn sends_the_codec_bytes(frames: &[Frame]) {
    let messages = decoded(frames);
    let stream: Vec<u8> = frames
        .iter()
        .flat_map(|f| encode_frame(f).expect("frame encodes"))
        .collect();
    for (transport, live) in TRANSPORTS.iter().flat_map(|t| [(t, false), (t, true)]) {
        let (listener, dial) = endpoints(transport);
        let near = dial().dial().expect("listener is up");
        let mut far = listener.accept().expect("dialed");
        // Read as the frames are written: the shim's pipe holds 64 KiB.
        let reader = std::thread::spawn(move || {
            let mut wrote = Vec::new();
            let mut buf = [0u8; 4096];
            let deadline = Instant::now() + PATIENCE;
            while let Recv::Data(n) = far.recv(&mut buf, Some(deadline)).expect("clean stream") {
                wrote.extend_from_slice(&buf[..n]);
            }
            wrote
        });
        let mut tx = FrameIo::new(
            near,
            7,
            WireDir::ClientToServer,
            WireFaultPlan::none(),
            WireClock::new(),
        );
        for (f, (head, msg)) in frames.iter().zip(&messages) {
            let sent = match live {
                true => tx.send(f.id, &payload_of(*head, msg)),
                false => tx.send_frame(f),
            };
            sent.expect("frame fits");
        }
        tx.shutdown_write();
        assert_eq!(tx.stats.frames_out, frames.len() as u64, "{transport}");
        assert_eq!(tx.stats.bytes_out, stream.len() as u64, "{transport}");
        let wrote = reader.join().expect("the reader never panics");
        assert!(
            wrote == stream,
            "{transport}, live {live}: FrameIo wrote other bytes"
        );
    }
}

/// What `FrameIo` writes — a frame held whole or the live encoders,
/// both streaming through the chunk — is `encode_frame`'s bytes, byte
/// for byte, over the shim and over TCP. What it reads decodes to the
/// same frames wherever the stream is split, each payload whole into one
/// buffer of its length and into the typed decoder, which agrees with
/// `decode_message`: at every byte offset of the frame of every kind;
/// and, for frames larger than the chunk, inside the first checksum
/// block, around each chunk edge, where an `f64` straddles two reads,
/// and at a stride. A flipped byte anywhere is `FrameCorrupt`, with no
/// value delivered, and geometry that claims more coefficients than the
/// payload holds fails typed before anything is sized from it.
#[test]
fn frame_io_writes_and_reads_exactly_the_codec_bytes() {
    let frames = every_kind();
    let messages = decoded(&frames);
    let stream: Vec<u8> = frames
        .iter()
        .flat_map(|f| encode_frame(f).expect("frame encodes"))
        .collect();
    sends_the_codec_bytes(&frames);

    for cut in 0..=stream.len() {
        let mut rx = Split::framed(&stream, &[cut]);
        let mut read = Vec::new();
        while let RecvFrame::Frame(f) = rx.recv_frame().expect("the whole stream") {
            read.push(f);
        }
        assert!(read == frames, "split at byte {cut} decodes otherwise");
        assert_eq!(rx.stats.bytes_in, stream.len() as u64);
        let streamed = read_all(Split::framed(&stream, &[cut])).expect("the whole stream");
        assert!(
            streamed == messages,
            "split at byte {cut} streams otherwise"
        );
    }

    // Two frames larger than the chunk.
    let big = DecomposeRequest::new(image(128, 3), FilterBank::cdf53(), 3);
    let resp = Ok(wserv::DecomposeResponse {
        pyramid: dwt::dwt2d::decompose(&big.image, &big.bank, big.levels, big.mode)
            .expect("dyadic geometry"),
        cache_hit: false,
        batch_size: 1,
        wait_s: 0.25,
        service_s: 0.5,
        degraded: false,
        error_bound: 0.0,
    });
    let frames = [
        encode_request(1, &big).expect("request encodes"),
        encode_response(1, &resp).expect("response encodes"),
    ];
    for f in &frames {
        // Pixels or coefficients fill each payload after a prefix that
        // is not a multiple of 8, so an f64 straddles each chunk edge.
        let prefix = f.payload.len() - 8 * 128 * 128;
        assert_ne!((CHUNK - prefix) % 8, 0, "{:?}: {prefix} B prefix", f.kind);
    }
    sends_the_codec_bytes(&frames);
    let messages = decoded(&frames);
    let bytes: Vec<_> = frames
        .iter()
        .map(|f| encode_frame(f).expect("frames"))
        .collect();
    let stream = bytes.concat();
    let starts = [0, bytes[0].len()];
    let edges = starts.iter().flat_map(|&s| {
        let frame_edges = (1..=stream.len() / CHUNK).map(move |k| s + HEADER_LEN + k * CHUNK);
        frame_edges.flat_map(|edge| edge - 9..=edge + 9)
    });
    let cuts: Vec<usize> = (0..=40)
        .chain(edges)
        .chain((0..stream.len()).step_by(4099))
        .collect();
    for &cut in &cuts {
        let streamed = read_all(Split::framed(&stream, &[cut])).expect("the whole stream");
        assert!(
            streamed == messages,
            "split at byte {cut} streams otherwise"
        );
    }
    let streamed = read_all(Split::framed(&stream, &cuts)).expect("the whole stream");
    assert!(
        streamed == messages,
        "split at every cut at once streams otherwise"
    );

    // A flip in the length field moves the trailer: it reads as a cut
    // stream or an oversized frame, typed, and is left to other tests.
    let one = &bytes[0];
    let payload = HEADER_LEN..one.len() - TRAILER_LEN;
    let flips = (0..16)
        .chain(payload.clone().take(64))
        .chain(payload.step_by(997))
        .chain(one.len() - TRAILER_LEN..one.len());
    for pos in flips {
        for bit in [0x01, 0x80] {
            let mut bad = one.clone();
            bad[pos] ^= bit;
            match read_all(Split::framed(&bad, &cuts)) {
                Err(TransportError::FrameCorrupt { .. }) => {}
                other => panic!("byte {pos} ^ {bit:#x} read as {other:?}"),
            }
        }
    }

    // Geometry of 2^20 x 2^20: sized from the header, the plane alone
    // would be 8 TiB, an allocation that aborts the process.
    let huge = (1u32 << 20).to_le_bytes();
    let mut request = encode_request(1, &request(5)).expect("request encodes");
    request.payload[9..13].copy_from_slice(&huge);
    request.payload[13..17].copy_from_slice(&huge);
    let mut response = frames[1].clone();
    response.payload[32..36].copy_from_slice(&huge);
    response.payload[36..40].copy_from_slice(&huge);
    for lying in [request, response] {
        let bytes = encode_frame(&lying).expect("frames");
        match read_all(Split::framed(&bytes, &[])) {
            Err(TransportError::FrameCorrupt { detail }) => {
                assert!(detail.contains("shorter than its fields"), "{detail}")
            }
            other => panic!("{:?} geometry read as {other:?}", lying.kind),
        }
        assert!(decode_message(&lying).is_err(), "{:?}", lying.kind);
    }
}

/// One frame sent under a wire fault, as both ends saw it.
struct Faulted {
    /// The bytes the peer received.
    got: Vec<u8>,
    /// How the peer's raw read ended.
    end: Result<Recv, TransportError>,
    /// What the send returned.
    sent: Result<(), TransportError>,
    /// The sender's `(frames_out, bytes_out)`.
    stats: (u64, u64),
}

/// Send `req` from a `FrameIo` under `plan` over `transport` — through
/// `send` if `live`, else `send_frame` — and read what arrives raw.
fn faulted_send(
    transport: &str,
    plan: WireFaultPlan,
    live: bool,
    req: &DecomposeRequest,
) -> Faulted {
    let (listener, dial) = endpoints(transport);
    let near = dial().dial().expect("listener is up");
    let mut far = listener.accept().expect("dialed");
    let reader = std::thread::spawn(move || {
        let (mut got, mut buf) = (Vec::new(), [0u8; 4096]);
        let deadline = Instant::now() + PATIENCE;
        loop {
            match far.recv(&mut buf, Some(deadline)) {
                Ok(Recv::Data(n)) => got.extend_from_slice(&buf[..n]),
                end => return (got, end),
            }
        }
    });
    let (conn, dir) = FAULTED;
    let mut tx = FrameIo::new(near, conn, dir, plan, WireClock::new());
    let sent = match live {
        true => tx.send(1, &Payload::Request(req)),
        false => tx.send_frame(&encode_request(1, req).expect("request encodes")),
    };
    tx.shutdown_write();
    let (got, end) = reader.join().expect("the reader never panics");
    let stats = (tx.stats.frames_out, tx.stats.bytes_out);
    Faulted {
        got,
        end,
        sent,
        stats,
    }
}

/// The fault coordinates `faulted_send` sends its one frame at.
const FAULTED: (u64, WireDir) = (5, WireDir::ClientToServer);

/// The faults `FrameIo` injects act on `encode_frame`'s bytes, through
/// `send` and `send_frame`, over the shim and over TCP, for a request
/// larger than two chunks. A bit flip delivers those bytes with exactly
/// the bit `entropy % (8·len)` flipped — in the header, on either side
/// of each chunk edge, and in the trailer, the seeds found through the
/// public `WireFaultPlan::decide` — and counts one frame of `len` bytes
/// out. A reset delivers exactly the first `len / 2` bytes, which the
/// peer reads as a reset, returns `ConnReset` to the sender and counts
/// `len / 2` bytes and no frame out.
#[test]
fn frame_io_injects_faults_on_the_codec_bytes() {
    let req = DecomposeRequest::new(image(128, 4), FilterBank::cdf53(), 3);
    let bytes = encode_frame(&encode_request(1, &req).expect("request encodes")).expect("frames");
    let len = bytes.len();
    assert!(len > 2 * CHUNK, "a {len} B frame spans three chunks");
    let (conn, dir) = FAULTED;
    let plan = |seed| WireFaultPlan::seeded(seed).with_bitflip(conn, dir, 0);
    let bit_of = |seed| match plan(seed).decide(conn, dir, 0) {
        Some(WireFault::BitFlip { entropy }) => (entropy % (8 * len as u64)) as usize,
        other => panic!("seed {seed}: expected a bit flip, got {other:?}"),
    };
    let edges = (1..=len / CHUNK).map(|k| k * CHUNK);
    let windows = std::iter::once(0..HEADER_LEN)
        .chain(edges.flat_map(|e| [e - 9..e, e..e + 10]))
        .chain(std::iter::once(len - TRAILER_LEN..len));
    let seeds: Vec<u64> = windows
        .map(|w| {
            (0..)
                .find(|&seed| w.contains(&(bit_of(seed) / 8)))
                .expect("some seed flips a bit in every window")
        })
        .collect();
    for transport in TRANSPORTS {
        for live in [false, true] {
            let at = format!("{transport}, live {live}");
            for &seed in &seeds {
                let bit = bit_of(seed);
                let mut flipped = bytes.clone();
                flipped[bit / 8] ^= 1 << (bit % 8);
                let f = faulted_send(transport, plan(seed), live, &req);
                assert_eq!(f.sent, Ok(()), "{at}: a flip is not the sender's to see");
                assert_eq!(f.end, Ok(Recv::Eof), "{at}");
                assert!(f.got == flipped, "{at}: bit {bit} of {len} B, other bytes");
                assert_eq!(f.stats, (1, len as u64), "{at}: (frames_out, bytes_out)");
            }
            let reset = WireFaultPlan::none().with_reset(conn, dir, 0);
            let f = faulted_send(transport, reset, live, &req);
            assert_eq!(f.sent, Err(TransportError::ConnReset), "{at}");
            assert!(
                f.got == bytes[..len / 2],
                "{at}: {} B of {len}",
                f.got.len()
            );
            assert!(
                matches!(f.end, Ok(Recv::Eof) | Err(TransportError::ConnReset)),
                "{at}: {:?}",
                f.end
            );
            assert_eq!(
                read_all(Split::framed(&f.got, &[])),
                Err(TransportError::ConnReset),
                "{at}: the peer reads a cut frame"
            );
            assert_eq!(
                f.stats,
                (0, len as u64 / 2),
                "{at}: (frames_out, bytes_out)"
            );
        }
    }
}

/// A client that sends a request and stops reading cannot hold drain
/// over the shim: the server's 2 MiB response fills the 64 KiB pipe,
/// makes no progress for `WRITE_TIMEOUT`, and fails as a reset, which
/// `shutdown` counts as it returns.
#[test]
fn a_reader_that_stops_is_reset_at_the_write_timeout() {
    let listener = MemListener::new(1 << 16, tick());
    let server = RemoteServer::start(
        service_config(),
        remote_config(),
        Box::new(listener.clone()),
    )
    .expect("config is valid");
    let conn = listener.connect().expect("listener is up");
    let mut raw = conn.try_clone().expect("the shim clones");
    let mut io = FrameIo::new(
        Box::new(conn),
        3,
        WireDir::ClientToServer,
        WireFaultPlan::none(),
        WireClock::new(),
    );
    let hello = Hello {
        protocol: PROTOCOL_VERSION as u32,
        max_payload: DEFAULT_MAX_PAYLOAD,
        window: 1,
    };
    io.send(3, &Payload::Hello(hello)).expect("handshake");
    match io.recv(Some(Instant::now() + PATIENCE)) {
        Ok(RecvFrame::Frame((_, Message::HelloAck(_)))) => {}
        other => panic!("expected a HelloAck, got {other:?}"),
    }
    let big = DecomposeRequest::new(image(512, 1), FilterBank::cdf53(), 3);
    io.send(1, &Payload::Request(&big))
        .expect("the server reads it");
    // The response's header says the server is writing it; nothing
    // after it is read.
    let (mut header, mut filled) = ([0; HEADER_LEN], 0);
    let deadline = Instant::now() + PATIENCE;
    while filled < HEADER_LEN {
        match raw.recv(&mut header[filled..], Some(deadline)) {
            Ok(Recv::Data(n)) => filled += n,
            other => panic!("expected the response header, got {other:?}"),
        }
    }
    let len = u32::from_le_bytes(header[16..].try_into().expect("4 bytes")) as usize;
    assert_eq!(header[5], FrameKind::Response as u8);
    assert!(len > 2 << 20, "a {len} B response fills the pipe");
    let t0 = Instant::now();
    let metrics = server.shutdown().expect("clean drain");
    assert!(
        t0.elapsed() < WRITE_TIMEOUT + PATIENCE,
        "{:?}",
        t0.elapsed()
    );
    assert_eq!(metrics.transport.conn_reset, 1);
    assert_eq!(metrics.service.completed(), 1);
}

// ---------------------------------------------------------------------
// Non-finite input
// ---------------------------------------------------------------------

/// A non-finite pixel is refused at the door, typed, and never runs. It
/// would spread through the pyramid while the progressive running bound
/// — a maximum that skips NaN — stayed finite: a `bound_after` the
/// result does not meet. `submit` refuses it in process, and a remote
/// server, whose requests go through `submit`, answers with the same
/// rejection — over the shim and over TCP.
#[test]
fn non_finite_pixels_are_refused_typed_at_the_door() {
    let poisoned = |v: f64| {
        let mut img = image(16, 1);
        img.set(5, 9, v);
        DecomposeRequest::new(img, FilterBank::cdf53(), 2)
    };
    let refused = |outcome: wserv::ServeResult, v: f64| match outcome {
        Err(wserv::Rejection::Invalid { detail }) => assert!(detail.contains("non-finite")),
        Err(other) => panic!("pixel {v}: refused as {other:?}"),
        Ok(resp) => panic!("pixel {v}: served, bound {}", resp.error_bound),
    };
    let poison = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY];

    let service = wserv::WaveletService::start(service_config());
    for v in poison {
        refused(
            service
                .submit(poisoned(v))
                .map(|h| h.wait())
                .and_then(|r| r),
            v,
        );
    }
    assert_eq!(service.shutdown().expect("clean drain").completed(), 0);

    for transport in TRANSPORTS {
        let (listener, dial) = endpoints(transport);
        let remote = RemoteConfig {
            progressive: Some(CheckpointCodec::Raw),
            ..remote_config()
        };
        let server = RemoteServer::start(service_config(), remote, listener).expect("valid");
        let mut client = RemoteClient::new(dial(), 5).with_tolerance(1.0);
        for v in poison {
            refused(client.call(&poisoned(v)).expect("clean wire"), v);
        }
        let clean = client.call(&request(1)).expect("clean wire");
        assert!(clean.is_ok(), "{transport}: finite pixels still serve");
        client.goodbye();
        let metrics = server.shutdown().expect("clean drain");
        assert_eq!(metrics.service.completed(), 1, "{transport}");
    }
}
