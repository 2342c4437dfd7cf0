//! Wire-protocol invariants:
//!
//! 1. the frame decoder never panics: arbitrary bytes produce either a
//!    decoded frame, a "need more bytes", or a *typed* [`WireError`] —
//!    nothing else, no matter the input — and neither does `FrameIo`'s
//!    streaming decode, fed the bytes in random pieces, which decodes
//!    every frame as `decode_message` does;
//! 2. encode → decode is a bitwise round trip for frames, handshakes,
//!    requests, and responses (f64 payloads travel as IEEE-754 bit
//!    patterns, so NaN payloads and negative zeros survive);
//! 3. flipping any single bit of an encoded frame never yields a
//!    silently-accepted frame: the checksum (or a structural check)
//!    catches it with a typed error;
//! 4. progressive delivery is faithful: a header + plane sequence
//!    round-trips through real wire frames, reassembles bitwise equal
//!    to the monolithic response once every plane has arrived (lossless
//!    codec), and the client-visible error bound is monotone
//!    nonincreasing in planes received — in any arrival order;
//! 5. the bytes themselves are pinned: one fixture of every message the
//!    protocol has, through `encode_*` + `encode_frame`, folds to a
//!    fixed digest, so a codec refactor cannot move a byte unnoticed;
//! 6. the checksum is what the module docs define — a reference spelled
//!    here agrees with `checksum` and with every frame's trailer — and
//!    catches every single-bit flip of a frame, exhaustively, at every
//!    payload length up to two blocks past every remainder.

use dwt::{dwt2d, Boundary, FilterBank, Matrix};
use dwt_mimd::CheckpointCodec;
use proptest::prelude::*;
use wserv::progressive::{pyramid_max_abs_diff, split_response, Reassembler};
use wserv::request::DecomposeResponse;
use wserv::transport::RecvFrame;
use wserv::wire::{
    decode_complete, decode_credit, decode_frame, decode_message, decode_request, decode_response,
    decode_response_body, encode_credit, encode_frame, encode_hello, encode_progressive_header,
    encode_progressive_plane, encode_request, encode_response, Frame, FrameKind, Hello, PlaneBand,
    PlaneCoeffs, ProgressiveHeader, ProgressivePlane, ResponseBody, WireError, DEFAULT_MAX_PAYLOAD,
    HEADER_LEN, PROTOCOL_VERSION, TRAILER_LEN,
};
use wserv::{DecomposeRequest, Priority, Rejection, ServeResult, TransportError};

mod split;
use split::Split;

fn kind(tag: u8) -> FrameKind {
    match tag % 7 {
        0 => FrameKind::Hello,
        1 => FrameKind::HelloAck,
        2 => FrameKind::Request,
        3 => FrameKind::Response,
        4 => FrameKind::Bye,
        5 => FrameKind::Cancel,
        _ => FrameKind::Credit,
    }
}

fn image(n: usize, salt: u64) -> Matrix {
    Matrix::from_fn(n, n, |r, c| {
        ((r as u64 * 31 + c as u64 * 17 + salt * 7) % 61) as f64 - 30.5
    })
}

fn bank(tag: u8) -> FilterBank {
    match tag % 4 {
        0 => FilterBank::haar(),
        1 => FilterBank::daubechies(4).expect("D4 exists"),
        2 => FilterBank::cdf53(),
        _ => FilterBank::cdf97(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary bytes through the incremental decoder: no panic, and
    /// every outcome is one of the three legal ones. The small
    /// `max_payload` exercises the `FrameTooLarge` guard.
    #[test]
    fn decoder_never_panics_on_arbitrary_bytes(
        bytes in prop::collection::vec(0u8..=255u8, 0..512),
        max in 0u32..4096,
    ) {
        match decode_frame(&bytes, max) {
            Ok(Some((frame, consumed))) => {
                prop_assert!(consumed <= bytes.len());
                prop_assert!(frame.payload.len() <= max as usize);
            }
            Ok(None) => {}  // legitimately incomplete
            Err(e) => {
                // Typed errors only; Display must not panic either.
                let _ = e.to_string();
            }
        }
        match decode_complete(&bytes, max) {
            Ok(frame) => prop_assert!(frame.payload.len() <= max as usize),
            Err(e) => { let _ = e.to_string(); }
        }
    }

    /// The same bytes through `FrameIo::recv`, whose decoder reads each
    /// payload as it streams through the connection's chunk, arriving
    /// in random pieces: no panic, and every outcome is a frame within
    /// the window, the end of the stream, or a typed error.
    #[test]
    fn streaming_decoder_never_panics_on_arbitrary_bytes(
        bytes in prop::collection::vec(0u8..=255u8, 0..512),
        cuts in prop::collection::vec(0usize..512, 0..8),
        max in 0u32..4096,
    ) {
        let mut rx = Split::framed(&bytes, &cuts).with_max_payload(max);
        loop {
            match rx.recv(None) {
                Ok(RecvFrame::Frame((head, _))) => prop_assert!(head.len <= max as usize),
                Ok(RecvFrame::Eof) => break,
                Ok(RecvFrame::Idle) => prop_assert!(false, "no deadline, yet Idle"),
                Err(e) => {
                    let _ = e.to_string();
                    break;
                }
            }
        }
    }

    /// A checksummed frame of any kind with an arbitrary payload, fed to
    /// `FrameIo::recv` in random pieces, decodes exactly as
    /// `decode_message` decodes the frame held whole: the same message,
    /// or the same typed refusal.
    #[test]
    fn streaming_decode_agrees_with_the_whole_frame_decoder(
        tag in 0u8..7,
        id in 0u64..u64::MAX,
        payload in prop::collection::vec(0u8..=255u8, 0..300),
        cuts in prop::collection::vec(0usize..340, 0..8),
    ) {
        let frame = Frame::new(kind(tag), id, payload);
        let bytes = encode_frame(&frame).expect("small payload encodes");
        let streamed = Split::framed(&bytes, &cuts).recv(None);
        match (decode_message(&frame), streamed) {
            (Ok(whole), Ok(RecvFrame::Frame((head, msg)))) => {
                prop_assert_eq!(head, frame.head());
                prop_assert_eq!(msg, whole);
            }
            (Err(WireError::FrameCorrupt { detail }), Err(TransportError::FrameCorrupt { detail: got })) => {
                prop_assert_eq!(got, detail);
            }
            (whole, streamed) => prop_assert!(false, "whole {:?}, streamed {:?}", whole, streamed),
        }
    }

    /// Arbitrary bytes *with* a valid magic prefix — deeper coverage of
    /// the header and checksum paths than fully random noise reaches.
    #[test]
    fn decoder_never_panics_on_magic_prefixed_bytes(
        tail in prop::collection::vec(0u8..=255u8, 0..256),
    ) {
        let mut bytes = b"WSRV".to_vec();
        bytes.extend_from_slice(&tail);
        match decode_frame(&bytes, DEFAULT_MAX_PAYLOAD) {
            Ok(Some((_, consumed))) => prop_assert!(consumed <= bytes.len()),
            Ok(None) => {}
            Err(e) => { let _ = e.to_string(); }
        }
    }

    /// encode → decode is bitwise for raw frames, both through the
    /// incremental decoder (with trailing garbage after the frame) and
    /// the complete-buffer decoder.
    #[test]
    fn frame_round_trips_bitwise(
        tag in 0u8..7,
        id in 0u64..u64::MAX,
        payload in prop::collection::vec(0u8..=255u8, 0..300),
        garbage in prop::collection::vec(0u8..=255u8, 0..16),
    ) {
        let frame = Frame::new(kind(tag), id, payload);
        let mut bytes = encode_frame(&frame).expect("small payload encodes");
        let framed_len = bytes.len();
        let (back, consumed) = decode_frame(&bytes, DEFAULT_MAX_PAYLOAD)
            .expect("valid frame decodes")
            .expect("complete frame is not 'need more'");
        prop_assert_eq!(consumed, framed_len);
        prop_assert_eq!(&back, &frame);
        // Trailing bytes beyond the frame must not disturb the decode.
        bytes.extend_from_slice(&garbage);
        let (again, consumed) = decode_frame(&bytes, DEFAULT_MAX_PAYLOAD)
            .expect("valid frame decodes with trailing bytes")
            .expect("complete frame is not 'need more'");
        prop_assert_eq!(consumed, framed_len);
        prop_assert_eq!(&again, &frame);
    }

    /// Any single-bit corruption of an encoded frame is caught: the
    /// decoder never silently accepts a flipped frame. (A flip in the
    /// length field may legally read as "need more bytes" or "frame too
    /// large"; what it must never do is return a *different* frame.)
    #[test]
    fn single_bit_flip_never_passes(
        tag in 0u8..7,
        id in 0u64..u64::MAX,
        payload in prop::collection::vec(0u8..=255u8, 1..128),
        flip_seed in 0usize..usize::MAX,
    ) {
        let frame = Frame::new(kind(tag), id, payload);
        let mut bytes = encode_frame(&frame).expect("small payload encodes");
        let bit = flip_seed % (bytes.len() * 8);
        bytes[bit / 8] ^= 1 << (bit % 8);
        match decode_complete(&bytes, DEFAULT_MAX_PAYLOAD) {
            Ok(decoded) => panic!(
                "bit {} flipped yet decode produced kind {:?} id {}",
                bit, decoded.kind, decoded.id
            ),
            Err(e) => { let _ = e.to_string(); }
        }
    }

    /// Requests round-trip bitwise through the wire codec: geometry,
    /// filter taps, boundary mode, priority, and deadline all survive,
    /// and the image comes back bit-identical.
    #[test]
    fn request_round_trips_bitwise(
        size_tag in 0usize..3,
        bank_tag in 0u8..4,
        levels in 1usize..3,
        prio in 0usize..3,
        mode_tag in 0u8..3,
        salt in 0u64..1000,
        deadline in 0.0f64..=10.0,
        with_deadline in 0u8..2,
        id in 0u64..u64::MAX,
    ) {
        let n = [16usize, 32, 48][size_tag];
        let mode = match mode_tag {
            0 => Boundary::Periodic,
            1 => Boundary::Symmetric,
            _ => Boundary::Zero,
        };
        let mut req = DecomposeRequest::new(image(n, salt), bank(bank_tag), levels)
            .with_priority(Priority::ALL[prio])
            .with_mode(mode);
        if with_deadline == 1 {
            req = req.with_deadline(deadline);
        }
        let frame = encode_request(id, &req).expect("request encodes");
        prop_assert_eq!(frame.id, id);
        let back = decode_request(&frame).expect("encoded request decodes");
        prop_assert_eq!(back.levels, req.levels);
        prop_assert_eq!(back.mode, req.mode);
        prop_assert_eq!(back.priority, req.priority);
        prop_assert_eq!(
            back.deadline.map(f64::to_bits),
            req.deadline.map(f64::to_bits)
        );
        prop_assert_eq!(back.bank.name(), req.bank.name());
        let taps_back: Vec<u64> = back.bank.low().iter().map(|t| t.to_bits()).collect();
        let taps: Vec<u64> = req.bank.low().iter().map(|t| t.to_bits()).collect();
        prop_assert_eq!(taps_back, taps);
        prop_assert_eq!(back.image.rows(), req.image.rows());
        prop_assert_eq!(back.image.cols(), req.image.cols());
        let img_back: Vec<u64> = back.image.data().iter().map(|v| v.to_bits()).collect();
        let img: Vec<u64> = req.image.data().iter().map(|v| v.to_bits()).collect();
        prop_assert_eq!(img_back, img);
    }

    /// Responses round-trip bitwise: a real pyramid (every plane, every
    /// level) and all the serving metadata, and every rejection variant.
    #[test]
    fn response_round_trips_bitwise(
        size_tag in 0usize..2,
        bank_tag in 0u8..4,
        levels in 1usize..3,
        salt in 0u64..1000,
        id in 0u64..u64::MAX,
        wait in 0.0f64..=1.0,
        service in 0.0f64..=1.0,
    ) {
        let n = [16usize, 32][size_tag];
        let b = bank(bank_tag);
        let pyramid = dwt2d::decompose(&image(n, salt), &b, levels, Boundary::Periodic)
            .expect("pool geometry is valid");
        let result: ServeResult = Ok(DecomposeResponse {
            pyramid,
            cache_hit: salt % 2 == 0,
            batch_size: 1 + (salt % 7) as usize,
            wait_s: wait,
            service_s: service,
            degraded: salt % 3 == 0,
            error_bound: if salt % 3 == 0 { 1e-3 } else { 0.0 },
        });
        let frame = encode_response(id, &result).expect("response encodes");
        let back = decode_response(&frame).expect("encoded response decodes");
        let (resp, orig) = match (&back, &result) {
            (Ok(a), Ok(b)) => (a, b),
            _ => panic!("Ok response must decode as Ok"),
        };
        prop_assert_eq!(resp.cache_hit, orig.cache_hit);
        prop_assert_eq!(resp.batch_size, orig.batch_size);
        prop_assert_eq!(resp.degraded, orig.degraded);
        prop_assert_eq!(resp.wait_s.to_bits(), orig.wait_s.to_bits());
        prop_assert_eq!(resp.service_s.to_bits(), orig.service_s.to_bits());
        prop_assert_eq!(resp.error_bound.to_bits(), orig.error_bound.to_bits());
        let planes = |p: &dwt::Pyramid| -> Vec<u64> {
            let mut out: Vec<u64> = p.approx.data().iter().map(|v| v.to_bits()).collect();
            for band in &p.detail {
                for m in [&band.lh, &band.hl, &band.hh] {
                    out.extend(m.data().iter().map(|v| v.to_bits()));
                }
            }
            out
        };
        prop_assert_eq!(planes(&resp.pyramid), planes(&orig.pyramid));
    }

    /// A Credit's sequence number survives the wire bitwise, framing
    /// included, and its decoder is total: any payload that is not
    /// exactly one `u32` is a typed `FrameCorrupt`, never a panic.
    #[test]
    fn credit_round_trips_and_its_decoder_is_total(
        id in 0u64..u64::MAX,
        upto in 0u32..u32::MAX,
        junk in prop::collection::vec(0u8..=255u8, 0..12),
    ) {
        let frame = encode_credit(id, upto);
        let bytes = encode_frame(&frame).expect("credit encodes");
        let back = decode_complete(&bytes, DEFAULT_MAX_PAYLOAD).expect("credit decodes");
        prop_assert_eq!(back.kind, FrameKind::Credit);
        prop_assert_eq!(back.id, id);
        prop_assert_eq!(decode_credit(&back).expect("four bytes"), upto);

        let odd = Frame::new(FrameKind::Credit, id, junk.clone());
        match decode_credit(&odd) {
            Ok(got) => {
                prop_assert_eq!(junk.len(), 4);
                prop_assert_eq!(got.to_le_bytes().to_vec(), junk);
            }
            Err(e) => {
                prop_assert!(junk.len() != 4, "a 4-byte payload must decode");
                prop_assert!(matches!(e, WireError::FrameCorrupt { .. }), "{e}");
            }
        }
    }

    /// Every rejection variant survives the wire with its payload.
    #[test]
    fn rejection_round_trips(variant in 0usize..7, a in 0u64..100, x in 0.0f64..=5.0) {
        let rejection = match variant {
            0 => Rejection::QueueFull { depth: a as usize },
            1 => Rejection::Shed { by: Priority::ALL[(a % 3) as usize] },
            2 => Rejection::DeadlineExpired { deadline: x, now: x + 1.0 },
            3 => Rejection::Invalid { detail: format!("detail {a}") },
            4 => Rejection::Draining,
            5 => Rejection::ShardFailed { shard: a as usize, restarts: (a % 5) as u32 },
            _ => Rejection::Requeued { attempts: (a % 5) as u32 },
        };
        let result: ServeResult = Err(rejection.clone());
        let frame = encode_response(7, &result).expect("rejection encodes");
        let back = decode_response(&frame).expect("encoded rejection decodes");
        match back {
            Err(r) => prop_assert_eq!(r, rejection),
            Ok(_) => panic!("rejection must decode as Err"),
        }
    }

    /// Progressive delivery is lossless-complete: split a real response
    /// with the lossless codec, push header and every plane through the
    /// byte-level frame codec, reassemble in a *shuffled* arrival
    /// order, and the result is bitwise identical to the monolithic
    /// response. Continuation flags must describe the sequence exactly.
    #[test]
    fn progressive_reassembly_matches_monolithic_bitwise(
        size_tag in 0usize..2,
        bank_tag in 0u8..4,
        levels in 1usize..4,
        salt in 0u64..1000,
        order_seed in 0u64..u64::MAX,
    ) {
        let n = [16usize, 32][size_tag];
        let resp = response_fixture(n, bank_tag, levels, salt);
        let (header, planes) = split_response(&resp, CheckpointCodec::Raw)
            .expect("lossless split");
        prop_assert_eq!(planes.len(), 3 * levels);

        // Byte-level round trip of the whole sequence.
        let hf = encode_progressive_header(9, &header).expect("header encodes");
        prop_assert!(hf.more_follows());
        let hf_bytes = encode_frame(&hf).expect("header frame encodes");
        let hf_back = decode_complete(&hf_bytes, DEFAULT_MAX_PAYLOAD).expect("header decodes");
        let header_back = match decode_response_body(&hf_back).expect("header body decodes") {
            ResponseBody::Header(h) => h,
            other => panic!("header frame decoded as {other:?}"),
        };
        let mut planes_back = Vec::new();
        for (i, p) in planes.iter().enumerate() {
            let more = i + 1 < planes.len();
            let pf = encode_progressive_plane(9, p, more).expect("plane encodes");
            prop_assert_eq!(pf.more_follows(), more);
            let pf_bytes = encode_frame(&pf).expect("plane frame encodes");
            let pf_back =
                decode_complete(&pf_bytes, DEFAULT_MAX_PAYLOAD).expect("plane decodes");
            match decode_response_body(&pf_back).expect("plane body decodes") {
                ResponseBody::Plane(q) => {
                    prop_assert_eq!(&q, p);
                    planes_back.push(q);
                }
                other => panic!("plane frame decoded as {other:?}"),
            }
        }

        // Reassemble in a shuffled arrival order.
        shuffle(&mut planes_back, order_seed);
        let mut r = Reassembler::new(header_back).expect("header is coherent");
        for p in &planes_back {
            r.apply(p).expect("plane applies");
        }
        prop_assert!(r.complete());
        prop_assert_eq!(r.bound().to_bits(), resp.error_bound.to_bits());
        let got = r.into_response();
        prop_assert_eq!(
            pyramid_max_abs_diff(&got.pyramid, &resp.pyramid),
            Some(0.0)
        );
        prop_assert_eq!(&got.pyramid, &resp.pyramid);
    }

    /// The client-visible error bound is monotone nonincreasing in
    /// planes received, whatever the arrival order and however often a
    /// plane is replayed — and it starts at the header's declared
    /// bound.
    #[test]
    fn progressive_bound_is_monotone_nonincreasing(
        size_tag in 0usize..2,
        bank_tag in 0u8..4,
        levels in 1usize..3,
        salt in 0u64..1000,
        threshold in 0.0f64..0.5,
        step in 0.0f64..0.5,
        order_seed in 0u64..u64::MAX,
    ) {
        let n = [16usize, 32][size_tag];
        let resp = response_fixture(n, bank_tag, levels, salt);
        let codec = CheckpointCodec::WaveletQuant { threshold, step };
        let (header, planes) = split_response(&resp, codec).expect("lossy split");
        let base = header.base_error_bound;
        let declared = header.bound_after;
        let mut replayed: Vec<_> = planes.clone();
        replayed.extend(planes.iter().cloned());
        shuffle(&mut replayed, order_seed);

        let mut r = Reassembler::new(header).expect("header is coherent");
        prop_assert_eq!(r.bound(), base + declared);
        let mut prev = r.bound();
        for p in &replayed {
            r.apply(p).expect("plane applies");
            let now = r.bound();
            prop_assert!(
                now <= prev,
                "bound rose from {prev} to {now} at seq {}",
                p.seq
            );
            prev = now;
        }
        prop_assert!(r.complete());
        // All planes applied: only the codec's quantization error and
        // the degraded-mode base bound remain.
        prop_assert!(r.bound() <= base + codec.tolerance());
    }
}

/// A real decomposition wrapped in serving metadata (exact response:
/// `error_bound` 0, not degraded).
fn response_fixture(n: usize, bank_tag: u8, levels: usize, salt: u64) -> DecomposeResponse {
    let b = bank(bank_tag);
    let pyramid = dwt2d::decompose(&image(n, salt), &b, levels, Boundary::Periodic)
        .expect("fixture geometry is valid");
    DecomposeResponse {
        pyramid,
        cache_hit: false,
        batch_size: 1,
        wait_s: 0.25,
        service_s: 0.5,
        degraded: false,
        error_bound: 0.0,
    }
}

/// Deterministic Fisher–Yates driven by an LCG, so arrival order is a
/// pure function of the proptest seed.
fn shuffle<T>(v: &mut [T], mut seed: u64) {
    for i in (1..v.len()).rev() {
        seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let j = (seed >> 33) as usize % (i + 1);
        v.swap(i, j);
    }
}

/// Bit patterns no arithmetic fixture produces: NaNs with payload bits
/// (quiet and signalling), a negative zero, the smallest subnormal, both
/// infinities and the largest finite value.
const EDGE_BITS: [u64; 8] = [
    0x7ff8_0000_dead_beef,
    0xfff0_0000_0000_0001,
    0x8000_0000_0000_0000,
    0x0000_0000_0000_0001,
    0x7ff0_0000_0000_0000,
    0xfff0_0000_0000_0000,
    0x7fef_ffff_ffff_ffff,
    0xffef_ffff_ffff_ffff,
];

/// A `rows x cols` matrix cycling through [`EDGE_BITS`] from `skew`.
fn edge_matrix(rows: usize, cols: usize, skew: usize) -> Matrix {
    let data = (0..rows * cols)
        .map(|i| f64::from_bits(EDGE_BITS[(i + skew) % EDGE_BITS.len()]))
        .collect();
    Matrix::from_vec(rows, cols, data).expect("sized to its dims")
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// Through the byte-level frame codec and back.
fn through_bytes(frame: &Frame) -> Frame {
    let bytes = encode_frame(frame).expect("frame encodes");
    decode_complete(&bytes, DEFAULT_MAX_PAYLOAD).expect("frame decodes")
}

/// Every plane codec carries every `f64` bit pattern: the request
/// image, the monolithic pyramid, the progressive LL plane, a dense and
/// a sparse detail plane. Bits are compared, since `==` fails on NaN.
#[test]
fn every_plane_codec_carries_every_f64_bit_pattern() {
    let req = DecomposeRequest::new(edge_matrix(8, 8, 0), FilterBank::haar(), 1);
    let back = decode_request(&through_bytes(&encode_request(1, &req).expect("encodes")))
        .expect("request decodes");
    assert_eq!(
        bits(back.image.data()),
        bits(req.image.data()),
        "request image"
    );

    let mut pyramid = dwt::Pyramid::zeros(8, 8, 2).expect("dyadic geometry");
    pyramid.approx = edge_matrix(2, 2, 1);
    for (level, sb) in pyramid.detail.iter_mut().enumerate() {
        let (rows, cols) = (sb.lh.rows(), sb.lh.cols());
        for (band, m) in [&mut sb.lh, &mut sb.hl, &mut sb.hh].into_iter().enumerate() {
            *m = edge_matrix(rows, cols, 3 * level + band);
        }
    }
    let mut resp = response_fixture(8, 0, 2, 0);
    resp.pyramid = pyramid;
    let frame = through_bytes(&encode_response(2, &Ok(resp.clone())).expect("encodes"));
    let got = decode_response(&frame)
        .expect("decodes")
        .expect("an Ok response");
    let planes = |p: &dwt::Pyramid| {
        let mut out = bits(p.approx.data());
        for sb in &p.detail {
            for m in [&sb.lh, &sb.hl, &sb.hh] {
                out.extend(bits(m.data()));
            }
        }
        out
    };
    assert_eq!(
        planes(&got.pyramid),
        planes(&resp.pyramid),
        "monolithic pyramid"
    );

    let (header, _) = split_response(&resp, CheckpointCodec::Raw).expect("lossless split");
    let frame = through_bytes(&encode_progressive_header(3, &header).expect("encodes"));
    match decode_response_body(&frame).expect("decodes") {
        ResponseBody::Header(h) => {
            assert_eq!(
                bits(h.approx.data()),
                bits(header.approx.data()),
                "LL plane"
            )
        }
        other => panic!("header frame decoded as {other:?}"),
    }

    let dense = edge_matrix(4, 4, 5).into_vec();
    let sparse: Vec<(u32, f64)> = (0..8)
        .map(|i| (2 * i, f64::from_bits(EDGE_BITS[i as usize])))
        .collect();
    for coeffs in [PlaneCoeffs::Dense(dense), PlaneCoeffs::Sparse(sparse)] {
        let plane = ProgressivePlane {
            seq: 1,
            level: 1,
            band: PlaneBand::Hh,
            rows: 4,
            cols: 4,
            bound_after: f64::from_bits(EDGE_BITS[0]),
            coeffs,
        };
        let frame = through_bytes(&encode_progressive_plane(3, &plane, false).expect("encodes"));
        let got = match decode_response_body(&frame).expect("decodes") {
            ResponseBody::Plane(p) => p,
            other => panic!("plane frame decoded as {other:?}"),
        };
        match (&got.coeffs, &plane.coeffs) {
            (PlaneCoeffs::Dense(a), PlaneCoeffs::Dense(b)) => {
                assert_eq!(bits(a), bits(b), "dense plane")
            }
            (PlaneCoeffs::Sparse(a), PlaneCoeffs::Sparse(b)) => {
                let entry_bits = |e: &[(u32, f64)]| -> Vec<(u32, u64)> {
                    e.iter().map(|&(i, v)| (i, v.to_bits())).collect()
                };
                assert_eq!(entry_bits(a), entry_bits(b), "sparse plane")
            }
            _ => panic!("plane changed encoding on the wire"),
        }
    }
}

/// The frame checksum as the `wire` module docs define it, spelled
/// word by word over the whole string, with the lane seeds computed
/// from their formula rather than copied.
fn reference_checksum(bytes: &[u8]) -> u64 {
    const P: u64 = 0x0000_0100_0000_01b3;
    let step = |l: u64, w: u64| {
        let x = (l ^ w).wrapping_mul(P);
        x ^ (x >> 29)
    };
    let mut lanes = [0u64; 4];
    for (j, lane) in lanes.iter_mut().enumerate() {
        *lane =
            0xcbf2_9ce4_8422_2325u64.wrapping_add((j as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    }
    let blocked = bytes.len() / 32 * 32;
    for (i, word) in bytes[..blocked].chunks(8).enumerate() {
        let w = u64::from_le_bytes(word.try_into().expect("whole words"));
        lanes[i % 4] = step(lanes[i % 4], w);
    }
    let mut h =
        lanes[0] ^ lanes[1].rotate_left(16) ^ lanes[2].rotate_left(32) ^ lanes[3].rotate_left(48);
    for &b in &bytes[blocked..] {
        h = (h ^ u64::from(b)).wrapping_mul(P);
    }
    step(h, bytes.len() as u64)
}

/// A frame of kind `tag` with `n` payload bytes of a salted pattern.
fn patterned(tag: u8, n: usize) -> Frame {
    let payload = (0..n).map(|i| (i * 37 + n * 11 + 5) as u8).collect();
    Frame::new(kind(tag), 0x0123_4567_89ab_cdef ^ n as u64, payload)
}

/// `checksum` and every frame's trailer are the reference: the trailer
/// over header and payload as one string, at every length across the
/// header's block boundary (the payload's first 12 bytes share a block
/// with the header) and past several blocks.
#[test]
fn trailer_is_the_reference_checksum_of_header_and_payload() {
    for n in 0..=200usize {
        let bytes = encode_frame(&patterned(n as u8, n)).expect("small payload encodes");
        let (signed, trailer) = bytes.split_at(HEADER_LEN + n);
        let want = reference_checksum(signed);
        assert_eq!(trailer, want.to_le_bytes(), "payload of {n} bytes");
        assert_eq!(
            wserv::wire::checksum(signed),
            want,
            "{} bytes",
            signed.len()
        );
        assert_eq!(
            wserv::wire::checksum(&signed[HEADER_LEN..]),
            reference_checksum(&signed[HEADER_LEN..])
        );
    }
}

/// Every single-bit flip of header, payload and trailer is refused as
/// `FrameCorrupt`, for payloads of 0 to 67 bytes: frames of 28 to 95
/// bytes, past every remainder mod 32 of the signed bytes. The receive
/// window is the whole `u32` range, so a flip that lengthens the payload
/// reads as a truncated frame rather than an oversized one.
#[test]
fn every_bit_flip_of_a_short_frame_is_corrupt() {
    for n in 0..=67usize {
        let bytes = encode_frame(&patterned(n as u8, n)).expect("small payload encodes");
        assert_eq!(bytes.len(), HEADER_LEN + n + TRAILER_LEN);
        for bit in 0..bytes.len() * 8 {
            let mut bad = bytes.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            match decode_complete(&bad, u32::MAX) {
                Err(WireError::FrameCorrupt { .. }) => {}
                other => panic!("payload {n}, bit {bit}: expected FrameCorrupt, got {other:?}"),
            }
        }
    }
}

/// Re-pinned when protocol version 4 replaced the FNV-1a trailer with
/// the word-at-a-time checksum: the version byte and every trailer
/// moved, and nothing else. Only a deliberate wire-format change — a new
/// `PROTOCOL_VERSION` — may replace it.
const WIRE_GOLDEN: u64 = 0xcae3_69f0_fea3_187d;

/// One frame of every message the protocol has, in a fixed order.
fn golden_frames() -> Vec<Frame> {
    let hello = Hello {
        protocol: PROTOCOL_VERSION as u32,
        max_payload: DEFAULT_MAX_PAYLOAD,
        window: 8,
    };
    let haar = DecomposeRequest::new(image(8, 3), FilterBank::haar(), 2)
        .with_priority(Priority::Interactive)
        .with_deadline(0.125);
    let cdf97 =
        DecomposeRequest::new(image(16, 5), FilterBank::cdf97(), 3).with_mode(Boundary::Symmetric);
    let rejections = [
        Rejection::QueueFull { depth: 64 },
        Rejection::Shed {
            by: Priority::Interactive,
        },
        Rejection::DeadlineExpired {
            deadline: 0.5,
            now: 0.75,
        },
        Rejection::Invalid {
            detail: "image 7x9 does not divide by 2^2".into(),
        },
        Rejection::Draining,
        Rejection::ShardFailed {
            shard: 2,
            restarts: 3,
        },
        Rejection::Requeued { attempts: 4 },
    ];
    let header = ProgressiveHeader {
        cache_hit: true,
        degraded: true,
        batch_size: 3,
        wait_s: 0.25,
        service_s: 0.5,
        base_error_bound: 0.125,
        rows: 8,
        cols: 8,
        levels: 2,
        planes_total: 6,
        codec_tolerance: 0.05,
        bound_after: 1.5,
        approx: Matrix::from_fn(2, 2, |r, c| (r * 2 + c) as f64 - 0.5),
    };
    let dense = ProgressivePlane {
        seq: 1,
        level: 2,
        band: PlaneBand::Lh,
        rows: 2,
        cols: 2,
        bound_after: 0.75,
        coeffs: PlaneCoeffs::Dense(vec![1.0, -2.0, -0.0, 0.5]),
    };
    let sparse = ProgressivePlane {
        seq: 2,
        level: 1,
        band: PlaneBand::Hh,
        rows: 4,
        cols: 4,
        bound_after: 0.05,
        coeffs: PlaneCoeffs::Sparse(vec![(0, 3.0), (5, -1.25), (15, 0.125)]),
    };

    let mut frames = vec![
        encode_hello(FrameKind::Hello, 7, &hello),
        encode_hello(FrameKind::HelloAck, 7, &hello),
        encode_request(0, &haar).expect("request encodes"),
        encode_request(1, &cdf97).expect("request encodes"),
        encode_response(0, &Ok(response_fixture(16, 3, 2, 11))).expect("response encodes"),
    ];
    for (i, rejection) in rejections.into_iter().enumerate() {
        frames.push(encode_response(2 + i as u64, &Err(rejection)).expect("rejection encodes"));
    }
    frames.push(encode_progressive_header(9, &header).expect("header encodes"));
    frames.push(encode_progressive_plane(9, &dense, true).expect("plane encodes"));
    frames.push(encode_progressive_plane(9, &sparse, false).expect("plane encodes"));
    frames.push(Frame::new(FrameKind::Bye, 7, Vec::new()));
    frames.push(Frame::new(FrameKind::Cancel, 9, Vec::new()));
    frames.push(encode_credit(9, 2));
    frames
}

/// The wire bytes are what two builds must agree on; this pins them.
#[test]
fn wire_bytes_match_the_pinned_golden() {
    let mut bytes = Vec::new();
    for frame in golden_frames() {
        bytes.extend(encode_frame(&frame).expect("fixture frames encode"));
    }
    // FNV-1a 64, spelled here so the pin does not lean on the checksum
    // it guards.
    let digest = bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    });
    assert_eq!(
        digest,
        WIRE_GOLDEN,
        "wire bytes moved: {} frame bytes now fold to {digest:#018x}",
        bytes.len()
    );
}
