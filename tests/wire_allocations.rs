//! A 2 MiB call holds no frame whole in bytes: one 512² Request and one
//! Response sent and received through `FrameIo`'s `send` and `recv`
//! allocate one chunk and the pipe's ring on the sending side, and the
//! decoded planes and one chunk on the receiving side. A `Frame` held
//! whole (`send_frame`, `recv_frame`) costs each side about one payload:
//! the encoder sizes it exactly and the frame streams out through the
//! sender's chunk, and the receiver reads the payload into one buffer of
//! exactly its length.
//!
//! A warm 512² call through a `RemoteServer` allocates, process-wide,
//! the server's decoded image and the client's decoded pyramid: the
//! shard decomposes into the pyramid its connection's resolution book
//! last released, not a fresh one. And a response that does not
//! describe its request fails the call before the client sizes anything
//! from it.
//!
//! The shared counting allocator (`tests/common`) keeps a per-thread
//! total of bytes requested (`alloc`, `alloc_zeroed`, and a `realloc`'s
//! new size), so the sender's and the receiver's threads are measured
//! apart, and a process-wide one for a whole remote call; the tests of
//! this binary run one at a time, so nothing else runs while either is
//! read.

use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

use dwt::{FilterBank, Matrix};
use wserv::transport::{FrameIo, Listener, RecvFrame, WireClock, CHUNK};
use wserv::wire::{
    encode_progressive_header, encode_request, encode_response, Frame, Hello, Message, Payload,
    PROTOCOL_VERSION,
};
use wserv::{
    mem_pair, DecomposeRequest, DecomposeResponse, MemListener, ProgressiveHeader, RemoteClient,
    RemoteConfig, RemoteServer, RetryPolicy, ServeResult, ServiceConfig, TransportError, WireDir,
    WireFaultPlan,
};

mod common;

/// Held by every test: the process-wide counter sees all threads.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

fn image(n: usize, salt: usize) -> Matrix {
    Matrix::from_fn(n, n, |r, c| {
        ((r * 31 + c * 17 + salt * 7) % 61) as f64 - 30.5
    })
}

/// Bytes this thread allocates while running `f`, and its answer.
fn allocated<T>(f: impl FnOnce() -> T) -> (usize, T) {
    let before = common::requested_here();
    let out = f();
    (common::requested_here() - before, out)
}

/// Allowance over what each bound names: over one payload, the sender
/// also grows the pipe's 64 KiB ring (about 3 % of a 2 MiB payload), and
/// the decoded value carries its filter bank and matrix headers.
const SLACK: f64 = 1.1;

/// Bytes in flight each way in the pipe, the ring its sender grows.
const RING: usize = 1 << 16;

/// Send the frame `encode` builds from one side of a `mem_pair` and
/// receive it on the other, each side on its own thread. Returns the
/// payload length and the bytes each side allocated: the sender's for
/// `encode` and `send_frame`, the receiver's for `recv_frame`.
fn exchange(encode: impl FnOnce() -> Frame + Send + 'static) -> (usize, usize, usize) {
    let (near, far) = mem_pair(RING, std::time::Duration::ZERO);
    let clock = WireClock::new();
    let framed = |t, dir, clock| FrameIo::new(Box::new(t), 1, dir, WireFaultPlan::none(), clock);
    let mut tx = framed(near, WireDir::ClientToServer, Arc::clone(&clock));
    let mut rx = framed(far, WireDir::ServerToClient, clock);
    let sender = std::thread::spawn(move || {
        allocated(|| {
            let frame = encode();
            tx.send_frame(&frame).expect("frame fits");
            frame.payload.len()
        })
    });
    let (received, frame) = allocated(|| match rx.recv_frame().expect("clean pipe") {
        RecvFrame::Frame(f) => f,
        other => panic!("expected a frame, got {other:?}"),
    });
    let (sent, len) = sender.join().expect("sender never panics");
    assert_eq!(frame.payload.len(), len);
    (len, sent, received)
}

#[test]
fn a_512_square_call_allocates_one_payload_per_side() {
    let _serial = serial();
    let req = DecomposeRequest::new(image(512, 0), FilterBank::cdf53(), 3);
    let pyramid = dwt::dwt2d::decompose(&req.image, &req.bank, req.levels, req.mode)
        .expect("dyadic geometry");
    let resp = Ok(DecomposeResponse {
        pyramid,
        cache_hit: false,
        batch_size: 1,
        wait_s: 0.0,
        service_s: 0.0,
        degraded: false,
        error_bound: 0.0,
    });
    let request = exchange(move || encode_request(1, &req).expect("request encodes"));
    let response = exchange(move || encode_response(1, &resp).expect("response encodes"));
    for (what, (len, sent, received)) in [("request", request), ("response", response)] {
        assert!(len > 2 << 20, "{what}: a 512² payload is over 2 MiB");
        let ratio = |n: usize| n as f64 / len as f64;
        assert!(
            ratio(sent) <= SLACK,
            "{what}: the sender allocated {sent} B for a {len} B payload ({:.2}×)",
            ratio(sent)
        );
        assert!(
            ratio(received) <= SLACK,
            "{what}: the receiver allocated {received} B for a {len} B payload ({:.2}×)",
            ratio(received)
        );
    }
}

/// Send `value` as `payload` makes it a frame through `FrameIo::send`
/// from one side of a `mem_pair`, and receive it through `FrameIo::recv`
/// on the other, each side on its own thread and each building its
/// `FrameIo`, chunk included, inside the count. Returns the bytes each
/// side allocated, and what the receiver decoded.
fn stream<T: Send + 'static>(value: T, payload: fn(&T) -> Payload<'_>) -> (usize, usize, Message) {
    let (near, far) = mem_pair(RING, std::time::Duration::ZERO);
    let clock = WireClock::new();
    let sender_clock = Arc::clone(&clock);
    let sender = std::thread::spawn(move || {
        allocated(|| {
            let (dir, faults) = (WireDir::ClientToServer, WireFaultPlan::none());
            let mut tx = FrameIo::new(Box::new(near), 1, dir, faults, sender_clock);
            tx.send(1, &payload(&value)).expect("frame fits");
        })
        .0
    });
    let (received, msg) = allocated(|| {
        let (dir, faults) = (WireDir::ServerToClient, WireFaultPlan::none());
        let mut rx = FrameIo::new(Box::new(far), 1, dir, faults, clock);
        match rx.recv(None).expect("clean pipe") {
            RecvFrame::Frame((_, msg)) => msg,
            other => panic!("expected a frame, got {other:?}"),
        }
    });
    (sender.join().expect("sender never panics"), received, msg)
}

#[test]
fn a_512_square_call_streams_through_one_chunk_per_side() {
    let _serial = serial();
    let req = DecomposeRequest::new(image(512, 0), FilterBank::cdf53(), 3);
    let pyramid = dwt::dwt2d::decompose(&req.image, &req.bank, req.levels, req.mode)
        .expect("dyadic geometry");
    let resp: ServeResult = Ok(DecomposeResponse {
        pyramid,
        cache_hit: false,
        batch_size: 1,
        wait_s: 0.0,
        service_s: 0.0,
        degraded: false,
        error_bound: 0.0,
    });
    let request = stream(req, |req| Payload::Request(req));
    let response = stream(resp, |resp| Payload::Response(resp));
    // Every f64 the receiver decodes: the image, or the pyramid's planes.
    let planes = |msg: &Message| match msg {
        Message::Request(req) => req.image.data().len(),
        Message::Response(wserv::ResponseBody::Outcome(Ok(resp))) => {
            let p = &resp.pyramid;
            let details = p.detail.iter().map(|b| 3 * b.lh.data().len());
            p.approx.data().len() + details.sum::<usize>()
        }
        other => panic!("unexpected {other:?}"),
    } * 8;
    for (what, (sent, received, msg)) in [("request", request), ("response", response)] {
        let planes = planes(&msg);
        assert!(planes >= 2 << 20, "{what}: {planes} B of planes");
        let sending = sent as f64 / (CHUNK + RING) as f64;
        assert!(
            sending <= SLACK,
            "{what}: the sender allocated {sent} B, {sending:.2}× one chunk and the ring"
        );
        let receiving = received as f64 / (planes + CHUNK) as f64;
        assert!(
            receiving <= SLACK,
            "{what}: the receiver allocated {received} B, {receiving:.2}× the planes and a chunk"
        );
    }
}

/// A warm 512² call through a `RemoteServer` over the in-memory
/// transport allocates, across every thread of the process, no more
/// than the server's decoded image and the client's decoded pyramid:
/// the shard allocates no pyramid, because it decomposes into the one
/// the connection's book released two calls before.
#[test]
fn a_warm_remote_call_allocates_no_shard_pyramid() {
    let _serial = serial();
    let listener = MemListener::new(RING, Duration::ZERO);
    let server = RemoteServer::start(
        ServiceConfig::default(),
        RemoteConfig::default(),
        Box::new(listener.clone()),
    )
    .expect("config is valid");
    let mut client = RemoteClient::new(Box::new(listener), 1);
    let reqs: Vec<_> = (0..2)
        .map(|salt| DecomposeRequest::new(image(512, salt), FilterBank::cdf53(), 3))
        .collect();
    let mut call = |req| {
        let resp = client.call(req).expect("clean pipe").expect("serves Ok");
        resp.pyramid.coefficient_count()
    };
    // Warm: the plan cached, the connection's book full, a spare held.
    for req in reqs.iter().cycle().take(4) {
        call(req);
    }
    const CALLS: usize = 4;
    let before = common::requested();
    let coeffs: usize = reqs.iter().cycle().take(CALLS).map(&mut call).sum();
    let per_call = (common::requested() - before) / CALLS;
    drop(client);
    server.shutdown().expect("clean drain");
    let image = 512 * 512 * 8;
    let decoded = image + coeffs / CALLS * 8;
    let ratio = per_call as f64 / decoded as f64;
    assert!(
        ratio <= SLACK,
        "a warm call allocated {per_call} B, {ratio:.2}× the decoded image and pyramid"
    );
}

/// A response must describe its request. A peer that answers a 128²
/// request with a valid progressive header declaring 2²⁰ × 2²⁰ at 20
/// levels over a 1 × 1 LL plane — 8 TiB of pyramid, were it sized from
/// the header — or with a monolithic pyramid of another geometry fails
/// the call typed, and the client allocates about its connection's
/// chunk and no more.
#[test]
fn a_response_that_does_not_describe_its_request_fails_typed() {
    let _serial = serial();
    let req = DecomposeRequest::new(image(128, 1), FilterBank::cdf53(), 3);
    let header = ProgressiveHeader {
        cache_hit: false,
        degraded: false,
        batch_size: 1,
        wait_s: 0.0,
        service_s: 0.0,
        base_error_bound: 0.0,
        rows: 1 << 20,
        cols: 1 << 20,
        levels: 20,
        planes_total: 60,
        codec_tolerance: 0.0,
        bound_after: 0.0,
        approx: Matrix::zeros(1, 1),
    };
    let other = DecomposeRequest::new(image(64, 2), FilterBank::cdf53(), 3);
    let pyramid = dwt::dwt2d::decompose(&other.image, &other.bank, other.levels, other.mode)
        .expect("dyadic geometry");
    let elsewhere: ServeResult = Ok(DecomposeResponse {
        pyramid,
        cache_hit: false,
        batch_size: 1,
        wait_s: 0.0,
        service_s: 0.0,
        degraded: false,
        error_bound: 0.0,
    });
    let answers: [Box<dyn Fn(u64) -> Frame + Send>; 2] = [
        Box::new(move |id| encode_progressive_header(id, &header).expect("encodes")),
        Box::new(move |id| encode_response(id, &elsewhere).expect("encodes")),
    ];
    for (k, answer) in answers.into_iter().enumerate() {
        let listener = MemListener::new(RING, Duration::ZERO);
        let accept = listener.clone();
        let peer = std::thread::spawn(move || {
            let conn = accept.accept().expect("the client dials");
            let (dir, faults) = (WireDir::ServerToClient, WireFaultPlan::none());
            let mut io = FrameIo::new(conn, 0, dir, faults, WireClock::new());
            let Ok(RecvFrame::Frame((head, Message::Hello(_)))) = io.recv(None) else {
                panic!("a Hello comes first");
            };
            let ack = Hello {
                protocol: PROTOCOL_VERSION as u32,
                max_payload: wserv::wire::DEFAULT_MAX_PAYLOAD,
                window: 1,
            };
            io.send(head.id, &Payload::HelloAck(ack))
                .expect("client is up");
            let Ok(RecvFrame::Frame((head, Message::Request(_)))) = io.recv(None) else {
                panic!("a Request follows");
            };
            io.send_frame(&answer(head.id)).expect("client is up");
        });
        let mut client = RemoteClient::new(Box::new(listener), 3).with_retry(RetryPolicy {
            max_attempts: 1,
            ..RetryPolicy::default()
        });
        let (bytes, got) = allocated(|| client.call(&req));
        assert!(
            matches!(got, Err(TransportError::FrameCorrupt { .. })),
            "answer {k}: {got:?}"
        );
        let bound = SLACK * (req.image.data().len() * 8 + CHUNK) as f64;
        assert!(
            bytes as f64 <= bound,
            "answer {k}: the client allocated {bytes} B against a {bound:.0} B bound"
        );
        drop(client);
        peer.join().expect("the peer never panics");
    }
}
