//! The traced pass: for each sampled request the harness replays the
//! pipeline stage by stage, one span per stage, by calling each layer's
//! public functions directly.
//!
//! The two wire legs of a call are one span: the request frame goes to
//! a bare echo peer, which answers with the response frames. A one-way
//! leg cannot be closed from outside without an acknowledgement frame
//! the real path never sends.

use std::collections::BTreeMap;

use dwt::engine::{DwtPlan, DwtWorkspace};
use dwt::Pyramid;
use wserv::wire::{decode_request, decode_response, encode_request, encode_response};
use wserv::{DecomposeRequest, ServiceConfig, WaveletService};

use crate::config::request;
use crate::probes::{clock, decode_sequence, reassemble, split, Echo, Sequence};
use crate::spans::{self_time_table, Recorder, Span};
use crate::stats::median;
use crate::workloads::kernel::KernelRig;
use crate::workloads::ProbeInput;

/// Time `f` as a child span of `parent` when tracing, or just run it.
fn stage<T>(
    rec: &mut Option<&mut Recorder>,
    parent: Option<usize>,
    name: &'static str,
    layer: &'static str,
    f: impl FnOnce() -> T,
) -> T {
    match (rec, parent) {
        (Some(r), Some(p)) => r.span(name, layer, p, f),
        _ => f(),
    }
}

fn open_root(rec: &mut Option<&mut Recorder>, name: &'static str, id: u64) -> Option<usize> {
    rec.as_mut().map(|r| r.open(name, "gen", None, id))
}

fn close(rec: &mut Option<&mut Recorder>, span: Option<usize>) {
    if let (Some(r), Some(s)) = (rec, span) {
        r.close(s);
    }
}

/// One workload's pipeline, replayable one request at a time.
pub trait Pipeline {
    fn one(&mut self, rec: Option<&mut Recorder>, id: u64);
    fn finish(self: Box<Self>);
}

/// `kernel_2048`: a cycle is six decompose/reconstruct pairs.
pub struct KernelPath {
    rig: KernelRig,
}

impl Pipeline for KernelPath {
    fn one(&mut self, mut rec: Option<&mut Recorder>, id: u64) {
        let root = open_root(&mut rec, "cycle", id);
        for i in 0..self.rig.variants.len() {
            stage(&mut rec, root, "decompose", "dwt", || self.rig.decompose(i));
            stage(&mut rec, root, "reconstruct", "dwt", || {
                self.rig.reconstruct(i)
            });
        }
        close(&mut rec, root);
    }

    fn finish(self: Box<Self>) {}
}

/// The in-process service plus a private plan that times the kernel
/// `submit().wait()` contains but cannot be bracketed from outside.
struct Served {
    svc: WaveletService,
    plan: DwtPlan,
    ws: DwtWorkspace,
    pyr: Pyramid,
}

impl Served {
    fn new(input: &ProbeInput, service: ServiceConfig) -> Served {
        let plan = input.spec.plan();
        Served {
            svc: WaveletService::start(service),
            ws: plan.make_workspace(),
            pyr: plan.make_pyramid(),
            plan,
        }
    }

    /// `submit().wait()` as one span with the kernel as its child.
    fn submit_wait(
        &mut self,
        rec: &mut Option<&mut Recorder>,
        root: Option<usize>,
        req: DecomposeRequest,
    ) -> wserv::ServeResult {
        let ((), kernel_s) = clock(|| {
            self.plan
                .decompose_into(&req.image, &mut self.ws, &mut self.pyr)
                .expect("own plan")
        });
        let span = match (rec.as_mut(), root) {
            (Some(r), Some(p)) => {
                let id = r.spans[p].request_id;
                Some(r.open("submit_wait", "server", Some(p), id))
            }
            _ => None,
        };
        let result = self.svc.submit(req).expect("idle queue admits").wait();
        if let (Some(r), Some(s)) = (rec.as_mut(), span) {
            r.close(s);
            r.place_child("decompose", "dwt", s, (kernel_s * 1e9) as u64);
        }
        result
    }
}

/// `pipe_zipf`: a request is `submit().wait()`.
pub struct ServicePath {
    served: Served,
    req: DecomposeRequest,
}

impl Pipeline for ServicePath {
    fn one(&mut self, mut rec: Option<&mut Recorder>, id: u64) {
        let root = open_root(&mut rec, "request", id);
        let req = self.req.clone();
        self.served
            .submit_wait(&mut rec, root, req)
            .expect("pool requests are served");
        close(&mut rec, root);
    }

    fn finish(self: Box<Self>) {
        self.served.svc.shutdown().expect("no worker panicked");
    }
}

/// `rpc_*`: encode → decode → serve → encode (or split + encode planes)
/// → both wire legs → decode (or decode planes + reassemble).
pub struct RemotePath {
    served: Served,
    echo: Echo,
    req: DecomposeRequest,
    progressive: bool,
}

impl Pipeline for RemotePath {
    fn one(&mut self, mut rec: Option<&mut Recorder>, id: u64) {
        let rec = &mut rec;
        let root = open_root(rec, "call", id);
        let frame = stage(rec, root, "encode_request", "wire", || {
            encode_request(id, &self.req).expect("pool requests encode")
        });
        let decoded = stage(rec, root, "decode_request", "wire", || {
            decode_request(&frame).expect("own frame decodes")
        });
        let result = self.served.submit_wait(rec, root, decoded);
        if self.progressive {
            let resp = result.as_ref().expect("pool requests are served");
            let (header, planes) = stage(rec, root, "split", "progressive", || split(resp));
            let seq = Sequence::new(header, planes);
            let frames = stage(rec, root, "encode_plane", "wire", || seq.encode(id));
            self.echo.set_reply(frames);
            let got = stage(rec, root, "round_trip", "transport", || {
                self.echo.round_trip(&frame)
            });
            let (header, planes) =
                stage(rec, root, "decode_plane", "wire", || decode_sequence(&got));
            stage(rec, root, "reassemble", "progressive", || {
                reassemble(header, &planes)
            });
        } else {
            let reply = stage(rec, root, "encode_response", "wire", || {
                encode_response(id, &result).expect("own response encodes")
            });
            self.echo.set_reply(vec![reply]);
            let got = stage(rec, root, "round_trip", "transport", || {
                self.echo.round_trip(&frame)
            });
            stage(rec, root, "decode_response", "wire", || {
                decode_response(&got[0])
                    .expect("own frame decodes")
                    .expect("pool requests are served")
            });
        }
        close(rec, root);
    }

    fn finish(self: Box<Self>) {
        self.echo.close();
        self.served.svc.shutdown().expect("no worker panicked");
    }
}

/// Which pipeline a workload's requests travel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Path {
    Kernel,
    Service,
    Remote { progressive: bool },
}

pub fn pipeline(path: Path, input: &ProbeInput, service: ServiceConfig) -> Box<dyn Pipeline> {
    let req = request(&input.image, input.spec);
    match path {
        Path::Kernel => Box::new(KernelPath {
            rig: KernelRig::new(input.image.clone(), input.spec.levels),
        }),
        Path::Service => Box::new(ServicePath {
            served: Served::new(input, service),
            req,
        }),
        Path::Remote { progressive } => Box::new(RemotePath {
            served: Served::new(input, service),
            echo: Echo::tcp(),
            req,
            progressive,
        }),
    }
}

pub struct Replayed {
    pub spans: Vec<Span>,
    /// Median self time in ms per `(layer, span name)`.
    pub table: BTreeMap<(&'static str, &'static str), f64>,
    /// Sum of the table without the roots: time the replay attributes
    /// to a layer of the program rather than to the harness.
    pub attributed_ms: f64,
    /// Recording cost: traced over untraced median request time, − 1.
    pub overhead_pct: f64,
    pub requests: usize,
}

/// Replay requests for about `budget_s`, alternately traced and not.
pub fn drive(mut p: Box<dyn Pipeline>, budget_s: f64) -> Replayed {
    let mut rec = Recorder::new();
    let (mut traced, mut plain) = (Vec::new(), Vec::new());
    p.one(None, 0); // first touch: plans, sockets, worker wake-up
    let t0 = std::time::Instant::now();
    let mut id = 0;
    while traced.len() < 3 || (t0.elapsed().as_secs_f64() < budget_s && id < 100_000) {
        id += 1;
        traced.push(clock(|| p.one(Some(&mut rec), id)).1);
        plain.push(clock(|| p.one(None, id)).1);
    }
    p.finish();
    let table = self_time_table(&rec.spans);
    let attributed_ms = table
        .iter()
        .filter(|((layer, _), _)| *layer != "gen")
        .map(|(_, ms)| ms)
        .sum();
    Replayed {
        attributed_ms,
        overhead_pct: (median(&traced) / median(&plain) - 1.0) * 100.0,
        requests: traced.len(),
        table,
        spans: rec.spans,
    }
}
