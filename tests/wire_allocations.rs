//! A 2 MiB call holds its bytes once on the wire: sending one 512²
//! Request and one Response through `FrameIo` allocates about one
//! payload on each side — the encoder sizes the payload exactly, the
//! frame goes out as header, payload and trailer where they lie, and the
//! receiver reads it into one buffer sized from its header, which
//! becomes the payload.
//!
//! The shared counting allocator (`tests/common`) keeps a per-thread
//! total of bytes requested (`alloc`, `alloc_zeroed`, and a `realloc`'s new size), so
//! the sender's and the receiver's threads are measured apart, and
//! nothing else in this binary runs while they are.

use std::sync::Arc;

use dwt::{FilterBank, Matrix};
use wserv::transport::{FrameIo, RecvFrame, WireClock};
use wserv::wire::{encode_request, encode_response, Frame};
use wserv::{mem_pair, DecomposeRequest, DecomposeResponse, WireDir, WireFaultPlan};

mod common;

/// Bytes this thread allocates while running `f`, and its answer.
fn allocated<T>(f: impl FnOnce() -> T) -> (usize, T) {
    let before = common::requested_here();
    let out = f();
    (common::requested_here() - before, out)
}

/// Allowance over one payload: the sender also grows the pipe's 64 KiB
/// ring (about 3 % of a 2 MiB payload), and the receiver's buffer holds
/// the 8-byte trailer until it is checked.
const SLACK: f64 = 1.1;

/// Send the frame `encode` builds from one side of a `mem_pair` and
/// receive it on the other, each side on its own thread. Returns the
/// payload length and the bytes each side allocated: the sender's for
/// `encode` and `send_frame`, the receiver's for `recv_frame`.
fn exchange(encode: impl FnOnce() -> Frame + Send + 'static) -> (usize, usize, usize) {
    let (near, far) = mem_pair(1 << 16, std::time::Duration::ZERO);
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
