//! `rpc_small_hot`, `rpc_large_mono`, `rpc_large_progressive`: closed
//! loop, two `RemoteClient`s over TCP loopback to an in-process
//! `RemoteServer`. Small images make the per-request fixed cost
//! dominate; large ones the per-byte cost; the progressive twin sends
//! the same images through split / plane frames / Cancel / reassembly.

use std::time::{Duration, Instant};

use dwt::Pyramid;
use wserv::wire::{encode_request, encode_response, HEADER_LEN, TRAILER_LEN};
use wserv::{
    DecomposeRequest, DecomposeResponse, ProgressiveTally, RemoteClient, RemoteServer, TcpAcceptor,
    TcpConnector,
};

use super::{note_response, Live, ProbeInput, RemoteSide, Workload};
use crate::config::{
    make_image, request, rpc_remote, rpc_service, ShapeSpec, LARGE_IMAGES, LARGE_SHAPES, POLL_TICK,
    PROGRESSIVE_TOLERANCE, RPC_CLIENTS, RPC_LARGE_MONO, RPC_LARGE_PROGRESSIVE, RPC_SMALL_HOT,
    SMALL_IMAGES, SMALL_SHAPES,
};
use crate::oracle;
use crate::rng::SplitMix64;
use crate::stats::Sample;

pub struct Rpc {
    progressive: bool,
    always_hit: bool,
    server: RemoteServer,
    started: Instant,
    clients: Vec<RemoteClient>,
    /// One stream per client, forked from the seed in client order.
    rngs: Vec<SplitMix64>,
    /// Every image × shape pair; a call draws one uniformly.
    reqs: Vec<(DecomposeRequest, ShapeSpec)>,
}

/// An exact response carrying `pyramid`, as the server would build it.
pub fn exact_response(pyramid: Pyramid) -> DecomposeResponse {
    DecomposeResponse {
        pyramid,
        cache_hit: true,
        batch_size: 1,
        wait_s: 0.0,
        service_s: 0.0,
        degraded: false,
        error_bound: 0.0,
    }
}

/// Frame bytes of one monolithic exchange of `req`: what
/// `TransportMetrics` would count for it, handshake aside.
fn mono_exchange_bytes(req: &DecomposeRequest, want: &Pyramid) -> usize {
    let request = encode_request(0, req).expect("pool requests encode");
    let response =
        encode_response(0, &Ok(exact_response(want.clone()))).expect("pool responses encode");
    2 * (HEADER_LEN + TRAILER_LEN) + request.payload.len() + response.payload.len()
}

struct ClientBooks {
    live: Live,
    client: RemoteClient,
}

fn drive_client(
    mut client: RemoteClient,
    mut rng: SplitMix64,
    reqs: &[(DecomposeRequest, ShapeSpec)],
    expected: &[Pyramid],
    progressive: bool,
    t0: Instant,
    timed: Duration,
) -> ClientBooks {
    let mut live = Live::default();
    loop {
        let i = rng.below(reqs.len());
        let (req, spec) = &reqs[i];
        let start = Instant::now();
        if start >= t0 + timed {
            break;
        }
        let outcome = client.call(req);
        let end = Instant::now();
        if start < t0 {
            continue; // warm-up: settles caches, threads and sockets
        }
        live.attempted += 1;
        let ok = match outcome {
            Ok(Ok(resp)) => {
                note_response(&mut live, &resp);
                if progressive {
                    oracle::pyramid_err(&resp.pyramid, &expected[i]) <= resp.error_bound
                        && resp.error_bound <= PROGRESSIVE_TOLERANCE
                } else {
                    oracle::bit_identical(&resp.pyramid, &expected[i])
                }
            }
            Ok(Err(_rejection)) => false,
            Err(_transport) => false,
        };
        if ok {
            live.samples.push(Sample {
                end_s: (end - t0).as_secs_f64(),
                lat_s: (end - start).as_secs_f64(),
                px: spec.px(),
            });
        } else {
            live.failed += 1;
        }
    }
    ClientBooks { live, client }
}

impl Workload for Rpc {
    fn setup(name: &str, seed: u64) -> Self {
        let (shapes, images, progressive): (&[ShapeSpec], usize, bool) = match name {
            RPC_SMALL_HOT => (&SMALL_SHAPES, SMALL_IMAGES, false),
            RPC_LARGE_MONO => (&LARGE_SHAPES, LARGE_IMAGES, false),
            RPC_LARGE_PROGRESSIVE => (&LARGE_SHAPES, LARGE_IMAGES, true),
            other => panic!("{other} is not an rpc workload"),
        };
        let mut rng = SplitMix64::new(seed);
        let size = shapes[0].size;
        let mut reqs = Vec::new();
        for slot in 0..images {
            let image = make_image(size, slot, &mut rng);
            reqs.extend(shapes.iter().map(|&spec| (request(&image, spec), spec)));
        }
        let rngs = (0..RPC_CLIENTS).map(|_| rng.fork()).collect();

        let started = Instant::now();
        let acceptor = TcpAcceptor::bind("127.0.0.1:0", POLL_TICK).expect("bind loopback");
        let addr = acceptor.local_addr();
        let server =
            RemoteServer::start(rpc_service(), rpc_remote(progressive), Box::new(acceptor))
                .expect("frozen configs are valid");
        let clients: Vec<RemoteClient> = (0..RPC_CLIENTS)
            .map(|c| {
                let connector = TcpConnector {
                    addr,
                    tick: POLL_TICK,
                };
                let mut client = RemoteClient::new(Box::new(connector), c as u64);
                if progressive {
                    client = client.with_tolerance(PROGRESSIVE_TOLERANCE);
                }
                // Connect, and make every shape's plan resident.
                for (req, _) in &reqs[..shapes.len()] {
                    client
                        .call(req)
                        .expect("loopback is up")
                        .expect("pool requests are admitted");
                }
                client
            })
            .collect();
        Rpc {
            progressive,
            always_hit: name == RPC_SMALL_HOT,
            server,
            started,
            clients,
            rngs,
            reqs,
        }
    }

    fn probe_input(&self) -> ProbeInput {
        let (req, spec) = &self.reqs[0];
        ProbeInput {
            image: req.image.clone(),
            spec: *spec,
        }
    }

    fn run(self, warm_s: f64, timed_s: f64, _calibrate: bool) -> Live {
        let Rpc {
            progressive,
            always_hit,
            server,
            started,
            clients,
            rngs,
            reqs,
        } = self;
        // Oracle preparation is harness work, outside `setup_s`.
        let expected: Vec<Pyramid> = reqs
            .iter()
            .map(|(req, spec)| oracle::expected(&req.image, *spec))
            .collect();

        let t0 = Instant::now() + Duration::from_secs_f64(warm_s);
        let timed = Duration::from_secs_f64(timed_s);
        let books: Vec<ClientBooks> = std::thread::scope(|s| {
            let handles: Vec<_> = clients
                .into_iter()
                .zip(rngs)
                .map(|(client, rng)| {
                    let (reqs, expected) = (&reqs, &expected);
                    s.spawn(move || {
                        drive_client(client, rng, reqs, expected, progressive, t0, timed)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client threads do not panic"))
                .collect()
        });

        let mut live = Live::default();
        let mut tally = ProgressiveTally::default();
        let mut retries = 0;
        for ClientBooks { live: part, client } in books {
            live.samples.extend(part.samples);
            live.attempted += part.attempted;
            live.failed += part.failed;
            live.cache_hits += part.cache_hits;
            live.queue_wait_s.extend(part.queue_wait_s);
            live.service_s.extend(part.service_s);
            live.max_error_bound = live.max_error_bound.max(part.max_error_bound);
            tally.headers += client.progressive.headers;
            tally.planes += client.progressive.planes;
            tally.cancels += client.progressive.cancels;
            tally.partial_responses += client.progressive.partial_responses;
            retries += client.retries;
            drop(client); // Bye + FIN, so the server's reader sees a clean EOF
        }
        let metrics = server.shutdown().expect("no worker panicked");
        let wall_s = started.elapsed().as_secs_f64();
        let mono_bytes_per_req = reqs
            .iter()
            .zip(&expected)
            .map(|((req, _), want)| mono_exchange_bytes(req, want) as f64)
            .sum::<f64>()
            / reqs.len() as f64;

        let served = live.attempted - live.failed;
        if always_hit && live.cache_hits != served {
            live.broken_invariants.push(format!(
                "cache.hit_rate after warm-up is {}/{served}, not 1.0",
                live.cache_hits
            ));
        }
        let calls = metrics.service.completed();
        let bytes_per_req =
            (metrics.transport.bytes_in + metrics.transport.bytes_out) as f64 / calls.max(1) as f64;
        if progressive {
            if (tally.cancels as f64) < 0.8 * tally.headers as f64 {
                live.broken_invariants.push(format!(
                    "only {} of {} progressive sequences were cancelled early",
                    tally.cancels, tally.headers
                ));
            }
            if bytes_per_req >= mono_bytes_per_req {
                live.broken_invariants.push(format!(
                    "progressive delivery moved {bytes_per_req:.0} B/req, \
                     monolithic would move {mono_bytes_per_req:.0}"
                ));
            }
        }
        live.service = Some(metrics.service);
        live.remote = Some(RemoteSide {
            transport: metrics.transport,
            tally,
            retries,
            calls,
            wall_s,
            mono_bytes_per_req,
        });
        live
    }
}
