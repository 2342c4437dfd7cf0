//! A 2 MiB call holds no frame whole in bytes on the live path: one
//! 512² Request and one Response sent and received through `FrameIo`'s
//! streamed path (`send`, `recv`) allocate one chunk and the pipe's ring
//! on the sending side, and the decoded planes and one chunk on the
//! receiving side. Through the whole-frame path (`send_frame`,
//! `recv_frame`) each side allocates about one payload: the encoder
//! sizes it exactly, the frame goes out as header, payload and trailer
//! where they lie, and the receiver reads it into one buffer sized from
//! its header, which becomes the payload.
//!
//! The shared counting allocator (`tests/common`) keeps a per-thread
//! total of bytes requested (`alloc`, `alloc_zeroed`, and a `realloc`'s new size), so
//! the sender's and the receiver's threads are measured apart, and
//! nothing else in this binary runs while they are.

use std::sync::Arc;

use dwt::{FilterBank, Matrix};
use wserv::transport::{FrameIo, RecvFrame, WireClock, CHUNK};
use wserv::wire::{encode_request, encode_response, Frame, Message, Payload};
use wserv::{mem_pair, DecomposeRequest, DecomposeResponse, ServeResult, WireDir, WireFaultPlan};

mod common;

/// Bytes this thread allocates while running `f`, and its answer.
fn allocated<T>(f: impl FnOnce() -> T) -> (usize, T) {
    let before = common::requested_here();
    let out = f();
    (common::requested_here() - before, out)
}

/// Allowance over what each bound names: over one payload, the sender
/// also grows the pipe's 64 KiB ring (about 3 % of a 2 MiB payload), and
/// the receiver's buffer holds the 8-byte trailer until it is checked;
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
    let image = Matrix::from_fn(512, 512, |r, c| ((r * 31 + c * 17) % 61) as f64 - 30.5);
    let req = DecomposeRequest::new(image, FilterBank::cdf53(), 3);
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
    let image = Matrix::from_fn(512, 512, |r, c| ((r * 31 + c * 17) % 61) as f64 - 30.5);
    let req = DecomposeRequest::new(image, FilterBank::cdf53(), 3);
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
