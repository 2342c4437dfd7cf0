//! Per-layer measurements taken from outside: each probe times public
//! calls of one module on the workload's own first request.

use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use dwt::engine::PlanShape;
use dwt::{Boundary, Matrix};
use wserv::transport::{FrameIo, RecvFrame, WireClock};
use wserv::wire::{
    checksum, decode_frame, decode_request, decode_response, decode_response_body, encode_frame,
    encode_progressive_header, encode_progressive_plane, encode_request, encode_response, Frame,
    ProgressiveHeader, ProgressivePlane, ResponseBody,
};
use wserv::{
    mem_pair, split_response, AdmissionQueue, BatchPolicy, DecomposeRequest, DecomposeResponse,
    Entry, PlanCache, Reassembler, RemoteClient, RemoteConfig, RemoteServer, ServeResult,
    ServiceConfig, TcpAcceptor, TcpConnector, TcpTransport, Transport, WaveletService, WireDir,
    WireFaultPlan,
};

use crate::config::{
    request, rpc_remote, Bank, ShapeSpec, KERNEL_ORDER, POLL_TICK, PROGRESSIVE_QUANT,
    PROGRESSIVE_TOLERANCE,
};
use crate::oracle;
use crate::report::Report;
use crate::stats::{block_median, median};
use crate::workloads::kernel::KernelRig;
use crate::workloads::rpc::exact_response;
use crate::workloads::ProbeInput;

/// Frames of the largest probe request (2048² is 32 MiB) must fit.
pub const PROBE_MAX_PAYLOAD: u32 = 64 << 20;

/// `f()` and the seconds it took.
pub fn clock<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// Call `f` — which returns the seconds of the part it timed — until
/// `slice_s` of wall time is spent, at least three times.
pub fn sample(slice_s: f64, mut f: impl FnMut() -> f64) -> Vec<f64> {
    let t0 = Instant::now();
    let mut out = Vec::new();
    while out.len() < 3 || (t0.elapsed().as_secs_f64() < slice_s && out.len() < 200_000) {
        out.push(f());
    }
    out
}

fn p50_ms(seconds: &[f64]) -> f64 {
    median(seconds) * 1e3
}

// ---------------------------------------------------------------------
// Progressive sequence as the client consumes it
// ---------------------------------------------------------------------

pub struct Sequence {
    pub header: ProgressiveHeader,
    pub planes: Vec<ProgressivePlane>,
    /// Planes a client with the frozen tolerance reads before it
    /// cancels (all of them if the tolerance is never met early).
    pub consumed: usize,
}

/// Split `resp` as the progressive server does.
pub fn split(resp: &DecomposeResponse) -> (ProgressiveHeader, Vec<ProgressivePlane>) {
    split_response(resp, PROGRESSIVE_QUANT).expect("frozen codec is valid")
}

impl Sequence {
    /// Find where a client with [`PROGRESSIVE_TOLERANCE`] stops reading.
    pub fn new(header: ProgressiveHeader, planes: Vec<ProgressivePlane>) -> Sequence {
        let mut r = Reassembler::new(header.clone()).expect("own header reassembles");
        let mut consumed = 0;
        while r.bound() > PROGRESSIVE_TOLERANCE && consumed < planes.len() {
            r.apply(&planes[consumed]).expect("own planes apply");
            consumed += 1;
        }
        Sequence {
            header,
            planes,
            consumed,
        }
    }

    pub fn of(resp: &DecomposeResponse) -> Sequence {
        let (header, planes) = split(resp);
        Sequence::new(header, planes)
    }

    /// The frames the client reads: header, then `consumed` planes.
    pub fn encode(&self, id: u64) -> Vec<Frame> {
        let mut frames =
            vec![encode_progressive_header(id, &self.header).expect("own header encodes")];
        for (i, p) in self.planes[..self.consumed].iter().enumerate() {
            let more = i + 1 < self.planes.len();
            frames.push(encode_progressive_plane(id, p, more).expect("own plane encodes"));
        }
        frames
    }
}

/// Decode the frames of [`Sequence::encode`] back into messages.
pub fn decode_sequence(frames: &[Frame]) -> (ProgressiveHeader, Vec<ProgressivePlane>) {
    let mut header = None;
    let mut planes = Vec::new();
    for f in frames {
        match decode_response_body(f).expect("own frames decode") {
            ResponseBody::Header(h) => header = Some(h),
            ResponseBody::Plane(p) => planes.push(p),
            ResponseBody::Outcome(_) => panic!("a sequence holds no monolithic outcome"),
        }
    }
    (header.expect("a sequence starts with its header"), planes)
}

pub fn reassemble(header: ProgressiveHeader, planes: &[ProgressivePlane]) -> DecomposeResponse {
    let mut r = Reassembler::new(header).expect("own header reassembles");
    for p in planes {
        r.apply(p).expect("own planes apply");
    }
    r.into_response()
}

// ---------------------------------------------------------------------
// Bare echo peer
// ---------------------------------------------------------------------

/// A framed connection to a thread that answers every frame it
/// receives with a fixed list of frames — the wire pattern of one call
/// (request out, response in) with no service behind it.
pub struct Echo {
    io: FrameIo,
    reply: Arc<Mutex<Vec<Frame>>>,
    peer: JoinHandle<()>,
}

fn framed(t: Box<dyn Transport>, dir: WireDir) -> FrameIo {
    FrameIo::new(t, 0, dir, WireFaultPlan::none(), WireClock::new())
        .with_max_payload(PROBE_MAX_PAYLOAD)
}

impl Echo {
    fn over(near: Box<dyn Transport>, far: Box<dyn Transport>) -> Echo {
        let reply: Arc<Mutex<Vec<Frame>>> = Arc::default();
        let peer_reply = Arc::clone(&reply);
        let peer = std::thread::spawn(move || {
            let mut io = framed(far, WireDir::ServerToClient);
            loop {
                match io.recv_frame() {
                    Ok(RecvFrame::Frame(_)) => {
                        let frames = peer_reply.lock().expect("reply lock");
                        if frames.iter().any(|f| io.send_frame(f).is_err()) {
                            break;
                        }
                    }
                    Ok(RecvFrame::Idle) => {}
                    Ok(RecvFrame::Eof) | Err(_) => break,
                }
            }
        });
        Echo {
            io: framed(near, WireDir::ClientToServer),
            reply,
            peer,
        }
    }

    pub fn tcp() -> Echo {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = listener
            .local_addr()
            .expect("bound listener has an address");
        let near = TcpTransport::connect(addr, POLL_TICK).expect("loopback is up");
        let (stream, _) = listener.accept().expect("own connection arrives");
        let far = TcpTransport::new(stream, POLL_TICK).expect("accepted stream is usable");
        Echo::over(Box::new(near), Box::new(far))
    }

    pub fn mem() -> Echo {
        let (near, far) = mem_pair(1 << 20, POLL_TICK);
        Echo::over(Box::new(near), Box::new(far))
    }

    pub fn set_reply(&self, frames: Vec<Frame>) {
        *self.reply.lock().expect("reply lock") = frames;
    }

    /// Send `request`, receive the whole reply.
    pub fn round_trip(&mut self, request: &Frame) -> Vec<Frame> {
        let want = self.reply.lock().expect("reply lock").len();
        self.io.send_frame(request).expect("echo peer is up");
        let mut got = Vec::with_capacity(want);
        while got.len() < want {
            match self.io.recv_frame().expect("echo peer is up") {
                RecvFrame::Frame(f) => got.push(f),
                RecvFrame::Idle => {}
                RecvFrame::Eof => panic!("echo peer closed mid-reply"),
            }
        }
        got
    }

    pub fn close(mut self) {
        self.io.shutdown_write();
        self.peer.join().expect("echo peer does not panic");
    }
}

// ---------------------------------------------------------------------
// Computed kernel cost
// ---------------------------------------------------------------------

/// Compulsory bytes and arithmetic of one decompose + reconstruct per
/// input pixel — *computed* from the shape, not measured. Bytes: each
/// level reads its input once and writes four quarter-size bands, both
/// ways. Flops: two 1-D passes of `2F - 1` per output coefficient for
/// an `F`-tap convolution; 3 per sample and lifting step for lifting
/// (two steps for 5/3, four plus a scaling for 9/7).
pub fn computed_cost(spec: ShapeSpec) -> (f64, f64) {
    let levels_sum: f64 = (0..spec.levels).map(|l| 0.25f64.powi(l as i32)).sum();
    let per_level_flops = match spec.bank {
        Bank::Haar => 2.0 * 3.0,
        Bank::D4 => 2.0 * 7.0,
        Bank::Cdf53 => 2.0 * 3.0,
        Bank::Cdf97 => 2.0 * 7.0,
    };
    (32.0 * levels_sum, 2.0 * per_level_flops * levels_sum)
}

// ---------------------------------------------------------------------
// Kernel variants at the probe shape
// ---------------------------------------------------------------------

/// Per-variant `(decompose_s, reconstruct_s)` series and interleaved
/// copy rates, as `kernel_2048`'s live pass records them.
pub fn kernel_variants(input: &ProbeInput, slice_s: f64) -> (Vec<Vec<(f64, f64)>>, Vec<f64>) {
    let mut rig = KernelRig::new(input.image.clone(), input.spec.levels);
    let mut series = vec![Vec::new(); rig.variants.len()];
    let mut copies = Vec::new();
    let t0 = Instant::now();
    while copies.len() < 3 || t0.elapsed().as_secs_f64() < slice_s {
        let (times, _) = rig.cycle(|_| false);
        for (s, t) in series.iter_mut().zip(times) {
            s.push(t);
        }
        copies.push(rig.copy_gbps());
    }
    (series, copies)
}

/// `dwt.mpx_s.*`, `dwt.thread_scaling.*`, `dwt.copy_frac.*`,
/// `host.copy_gbps` and the computed costs, from variant series.
pub fn report_kernel(
    report: &mut Report,
    spec: ShapeSpec,
    variant_s: &[Vec<(f64, f64)>],
    copy_gbps: &[f64],
) {
    let (bytes_per_px, flops_per_px) = computed_cost(spec);
    let copy = block_median(copy_gbps);
    report.set("host.copy_gbps", copy);
    report.set("dwt.bytes_per_px_computed", bytes_per_px);
    report.set("dwt.flops_per_px_computed", flops_per_px);
    let mut rate = std::collections::BTreeMap::new();
    for (&(bank, nt), series) in KERNEL_ORDER.iter().zip(variant_s) {
        let label = crate::config::variant_label(bank, nt);
        let pair: Vec<f64> = series.iter().map(|(d, r)| d + r).collect();
        let mpx_s = spec.px() as f64 / 1e6 / block_median(&pair);
        report.set(&format!("dwt.mpx_s.{label}"), mpx_s);
        report.set(
            &format!("dwt.copy_frac.{label}"),
            mpx_s * 1e6 * bytes_per_px / (copy * 1e9),
        );
        rate.insert((bank.label(), nt), mpx_s);
    }
    for bank in ["d4", "cdf53", "cdf97"] {
        report.set(
            &format!("dwt.thread_scaling.{bank}"),
            rate[&(bank, true)] / rate[&(bank, false)],
        );
    }
}

// ---------------------------------------------------------------------
// The layer probes
// ---------------------------------------------------------------------

/// `input`'s request through `RemoteClient::call` over TCP loopback to a
/// `RemoteServer`, one call in flight: the serial path whose stages the
/// replay times one by one. Seconds per call.
fn remote_call_solo(
    req: &DecomposeRequest,
    service: ServiceConfig,
    progressive: bool,
    slice_s: f64,
) -> Vec<f64> {
    let acceptor = TcpAcceptor::bind("127.0.0.1:0", POLL_TICK).expect("bind loopback");
    let addr = acceptor.local_addr();
    let remote = RemoteConfig {
        max_payload: PROBE_MAX_PAYLOAD,
        ..rpc_remote(progressive)
    };
    let server =
        RemoteServer::start(service, remote, Box::new(acceptor)).expect("frozen configs are valid");
    let connector = TcpConnector {
        addr,
        tick: POLL_TICK,
    };
    let mut client = RemoteClient::new(Box::new(connector), 0).with_max_payload(PROBE_MAX_PAYLOAD);
    if progressive {
        client = client.with_tolerance(PROGRESSIVE_TOLERANCE);
    }
    let mut call = || {
        clock(|| {
            client
                .call(req)
                .expect("loopback is up")
                .expect("pool requests are admitted")
        })
        .1
    };
    call(); // connect, build the plan
    let calls = sample(slice_s, call);
    drop(client);
    server.shutdown().expect("no worker panicked");
    calls
}

/// Measure every timed per-layer metric on `input`, spending about
/// `budget_s` in total. `service` is the workload's own configuration;
/// `progressive` whether its responses stream as plane sequences.
pub fn run(
    report: &mut Report,
    input: &ProbeInput,
    service: ServiceConfig,
    progressive: bool,
    budget_s: f64,
) {
    let slice = budget_s / 19.0;
    let spec = input.spec;
    let req = request(&input.image, spec);
    let result: ServeResult = Ok(exact_response(oracle::expected(&input.image, spec)));
    let resp = result.as_ref().expect("built Ok above");

    // wire: message <-> bytes, framing and checksum included.
    let req_bytes = encode_frame(&encode_request(1, &req).expect("encodes")).expect("frames");
    let resp_bytes = encode_frame(&encode_response(1, &result).expect("encodes")).expect("frames");
    let unframe = |bytes: &[u8]| {
        decode_frame(bytes, PROBE_MAX_PAYLOAD)
            .expect("own bytes decode")
            .expect("a whole frame")
            .0
    };
    let enc_req = sample(slice, || {
        clock(|| encode_frame(&encode_request(1, &req).expect("encodes")).expect("frames")).1
    });
    let dec_req = sample(slice, || {
        clock(|| decode_request(&unframe(&req_bytes)).expect("decodes")).1
    });
    let enc_resp = sample(slice, || {
        clock(|| encode_frame(&encode_response(1, &result).expect("encodes")).expect("frames")).1
    });
    let dec_resp = sample(slice, || {
        clock(|| decode_response(&unframe(&resp_bytes)).expect("decodes")).1
    });
    let sum = sample(slice, || {
        clock(|| std::hint::black_box(checksum(&resp_bytes))).1
    });
    report.set("wire.encode_request_ms", p50_ms(&enc_req));
    report.set("wire.decode_request_ms", p50_ms(&dec_req));
    report.set("wire.encode_response_ms", p50_ms(&enc_resp));
    report.set("wire.decode_response_ms", p50_ms(&dec_resp));
    report.set(
        "wire.checksum_gbps",
        resp_bytes.len() as f64 / 1e9 / median(&sum),
    );
    report.set(
        "wire.codec_gbps",
        2.0 * (req_bytes.len() + resp_bytes.len()) as f64
            / 1e9
            / (median(&enc_req) + median(&dec_req) + median(&enc_resp) + median(&dec_resp)),
    );

    // progressive + wire plane codec, on the prefix a client consumes.
    let seq = Sequence::of(resp);
    let seq_bytes: Vec<Vec<u8>> = seq
        .encode(1)
        .iter()
        .map(|f| encode_frame(f).expect("frames"))
        .collect();
    let (header, planes) = decode_sequence(&seq.encode(1));
    let split_s = sample(slice, || clock(|| split(resp)).1);
    let enc_plane = sample(slice, || {
        clock(|| {
            for f in seq.encode(1) {
                std::hint::black_box(encode_frame(&f).expect("frames"));
            }
        })
        .1
    });
    let dec_plane = sample(slice, || {
        clock(|| {
            let frames: Vec<Frame> = seq_bytes.iter().map(|b| unframe(b)).collect();
            decode_sequence(&frames)
        })
        .1
    });
    let rebuild = sample(slice, || {
        let h = header.clone();
        clock(|| reassemble(h, &planes)).1
    });
    report.set("progressive.split_ms", p50_ms(&split_s));
    report.set("wire.encode_plane_ms", p50_ms(&enc_plane));
    report.set("wire.decode_plane_ms", p50_ms(&dec_plane));
    report.set("progressive.reassemble_ms", p50_ms(&rebuild));

    // transport: the call's wire pattern against a bare peer.
    let req_frame = encode_request(1, &req).expect("encodes");
    let resp_frame = encode_response(1, &result).expect("encodes");
    for (name, mut echo) in [
        ("transport.echo_rtt_ms.tcp", Echo::tcp()),
        ("transport.echo_rtt_ms.mem", Echo::mem()),
    ] {
        echo.set_reply(vec![resp_frame.clone()]);
        let rtt = sample(slice, || clock(|| echo.round_trip(&req_frame)).1);
        report.set(name, p50_ms(&rtt));
        echo.close();
    }

    let solo = remote_call_solo(&req, service.clone(), progressive, slice);
    report.set("remote.call_solo_ms", p50_ms(&solo));

    // dwt: one call each at the probe shape, one engine thread.
    let plan = spec.plan();
    let mut ws = plan.make_workspace();
    let mut pyr = plan.make_pyramid();
    let mut back = Matrix::zeros(spec.size, spec.size);
    let decompose = sample(slice, || {
        clock(|| {
            plan.decompose_into(&input.image, &mut ws, &mut pyr)
                .expect("own plan")
        })
        .1
    });
    let reconstruct = sample(slice, || {
        clock(|| {
            plan.reconstruct_into(&pyr, &mut ws, &mut back)
                .expect("own plan")
        })
        .1
    });
    let build = sample(slice, || {
        clock(|| {
            let p = spec.plan();
            (p.make_workspace(), p.make_pyramid())
        })
        .1
    });
    report.set("dwt.decompose_ms", p50_ms(&decompose));
    report.set("dwt.reconstruct_ms", p50_ms(&reconstruct));
    report.set("dwt.plan_build_ms", p50_ms(&build));

    // server: submit().wait() in-process, one caller.
    let svc = WaveletService::start(service);
    let (mut waits, mut services) = (Vec::new(), Vec::new());
    let submit_wait = sample(slice, || {
        let r = req.clone();
        let (out, s) = clock(|| svc.submit(r).expect("idle queue admits").wait());
        let out = out.expect("pool requests are served");
        waits.push(out.wait_s);
        services.push(out.service_s);
        s
    });
    svc.shutdown().expect("no worker panicked");
    report.set("server.submit_wait_ms", p50_ms(&submit_wait));
    report.set(
        "server.overhead_ms",
        p50_ms(&submit_wait) - p50_ms(&decompose),
    );
    // Overwritten by the live pass where the workload runs a service.
    report.set("server.queue_wait_ms", p50_ms(&waits));
    report.set("server.service_ms", p50_ms(&services));

    // cache: a resident lookup, and a build that evicts.
    let shape = req.shape();
    let other_bank = Bank::Haar.build();
    let other = PlanShape::new(spec.size, spec.size, &other_bank, 1, Boundary::Periodic);
    let mut cache = PlanCache::new(8, 1);
    cache.ensure(&shape, &req.bank).expect("valid plan");
    let hit = sample(slice, || clock(|| cache.ensure(&shape, &req.bank)).1);
    let mut cache = PlanCache::new(1, 1);
    let miss = sample(slice, || {
        cache.ensure(&other, &other_bank).expect("valid plan");
        clock(|| cache.ensure(&shape, &req.bank)).1
    });
    report.set("cache.ensure_hit_us", median(&hit) * 1e6);
    report.set("cache.ensure_miss_us", median(&miss) * 1e6);

    // admission: admit one entry, pop it as a batch.
    let mut queue: AdmissionQueue<()> = AdmissionQueue::new(64);
    let policy = BatchPolicy::new(4);
    let mut id = 0;
    let admit_pop = sample(slice, || {
        let entry = Entry {
            id,
            arrival: 0.0,
            req: req.clone(),
            attempts: 0,
            tag: (),
        };
        id += 1;
        clock(|| {
            std::hint::black_box(queue.admit(0.0, entry));
            std::hint::black_box(queue.pop_batch(0.0, &policy));
        })
        .1
    });
    report.set("admission.admit_pop_us", median(&admit_pop) * 1e6);
}
