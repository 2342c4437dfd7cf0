//! `pipe_zipf`: in-process, one generator keeping a window of
//! outstanding `WaveletService::submit` handles. Queues stay deep, so
//! `admission`, `batch`, `cache`, `shard` and `elastic` do the work
//! while `wire`, `transport` and `remote` do none.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use dwt::Pyramid;
use wserv::{DecomposeRequest, Priority, ResponseHandle, WaveletService};

use super::{note_response, Live, ProbeInput, Workload};
use crate::config::{
    draw_priority, make_image, pipe_service, request, ShapeSpec, PIPE_IMAGES_PER_SIZE, PIPE_POOL,
    PIPE_WINDOW, ZIPF_S,
};
use crate::oracle;
use crate::rng::{SplitMix64, Zipf};
use crate::stats::Sample;

pub struct Pipe {
    service: WaveletService,
    rng: SplitMix64,
    /// `PIPE_IMAGES_PER_SIZE` request templates per pool shape, in pool
    /// order: template `k * PIPE_IMAGES_PER_SIZE + j` is shape `k` on
    /// image `j` of its size.
    templates: Vec<(DecomposeRequest, ShapeSpec)>,
}

/// The next request of the stream: which template, which class.
fn draw(rng: &mut SplitMix64, zipf: &Zipf) -> (usize, Priority) {
    let template = zipf.sample(rng) * PIPE_IMAGES_PER_SIZE + rng.below(PIPE_IMAGES_PER_SIZE);
    (template, draw_priority(rng))
}

struct InFlight {
    handle: ResponseHandle,
    submitted: Instant,
    template: usize,
}

impl Workload for Pipe {
    fn setup(_name: &str, seed: u64) -> Self {
        let mut rng = SplitMix64::new(seed);
        let mut sizes: Vec<usize> = PIPE_POOL.iter().map(|s| s.size).collect();
        sizes.sort_unstable();
        sizes.dedup();
        let images: Vec<(usize, Vec<dwt::Matrix>)> = sizes
            .iter()
            .map(|&size| {
                let per_size = (0..PIPE_IMAGES_PER_SIZE)
                    .map(|slot| make_image(size, slot, &mut rng))
                    .collect();
                (size, per_size)
            })
            .collect();
        let templates: Vec<(DecomposeRequest, ShapeSpec)> = PIPE_POOL
            .iter()
            .flat_map(|&spec| {
                let (_, per_size) = images
                    .iter()
                    .find(|(size, _)| *size == spec.size)
                    .expect("an image set per pool size");
                per_size.iter().map(move |img| (request(img, spec), spec))
            })
            .collect();

        let service = WaveletService::start(pipe_service());
        // Cache warm: build every pool shape's plan once.
        for (req, _) in templates.iter().step_by(PIPE_IMAGES_PER_SIZE) {
            service
                .submit(req.clone())
                .expect("an idle queue admits")
                .wait()
                .expect("pool requests are served");
        }
        Pipe {
            service,
            rng,
            templates,
        }
    }

    fn probe_input(&self) -> ProbeInput {
        let (req, spec) = &self.templates[0];
        ProbeInput {
            image: req.image.clone(),
            spec: *spec,
        }
    }

    fn run(self, warm_s: f64, timed_s: f64, _calibrate: bool) -> Live {
        let Pipe {
            service,
            mut rng,
            templates,
        } = self;
        let expected: Vec<Pyramid> = templates
            .iter()
            .map(|(req, spec)| oracle::expected(&req.image, *spec))
            .collect();
        let zipf = Zipf::new(PIPE_POOL.len(), ZIPF_S);
        let mut live = Live::default();

        let t0 = Instant::now() + Duration::from_secs_f64(warm_s);
        let stop = t0 + Duration::from_secs_f64(timed_s);
        let mut window: VecDeque<InFlight> = VecDeque::with_capacity(PIPE_WINDOW);
        let mut submit = |window: &mut VecDeque<InFlight>, live: &mut Live| {
            let (template, priority) = draw(&mut rng, &zipf);
            let req = templates[template].0.clone().with_priority(priority);
            let submitted = Instant::now();
            match service.submit(req) {
                Ok(handle) => window.push_back(InFlight {
                    handle,
                    submitted,
                    template,
                }),
                Err(_rejection) if submitted >= t0 => {
                    live.attempted += 1;
                    live.failed += 1;
                }
                Err(_) => {}
            }
        };

        while window.len() < PIPE_WINDOW {
            submit(&mut window, &mut live);
        }
        // FIFO wait, resubmit; after `stop` the window drains.
        while let Some(op) = window.pop_front() {
            let outcome = op.handle.wait();
            let end = Instant::now();
            if op.submitted >= t0 {
                live.attempted += 1;
                let ok = match outcome {
                    Ok(resp) => {
                        note_response(&mut live, &resp);
                        oracle::bit_identical(&resp.pyramid, &expected[op.template])
                    }
                    Err(_rejection) => false,
                };
                if ok {
                    live.samples.push(Sample {
                        end_s: (end - t0).as_secs_f64(),
                        lat_s: (end - op.submitted).as_secs_f64(),
                        px: templates[op.template].1.px(),
                    });
                } else {
                    live.failed += 1;
                }
            }
            if end < stop {
                submit(&mut window, &mut live);
            }
        }

        live.shard_map_epoch = service.shard_map_epoch();
        let snapshot = service.shutdown().expect("no worker panicked");
        if snapshot.mean_batch_occupancy() <= 1.2 {
            live.broken_invariants.push(format!(
                "batch.mean_occupancy is {:.3}, not above 1.2",
                snapshot.mean_batch_occupancy()
            ));
        }
        if snapshot.shards.iter().all(|s| s.cache_evictions == 0) {
            live.broken_invariants
                .push("no plan was evicted: the pool fits the cache".into());
        }
        if snapshot.stolen() == 0 {
            live.broken_invariants
                .push("the elastic controller stole nothing".into());
        }
        if live.failed > 0 {
            live.broken_invariants.push(format!(
                "{} of {} operations failed",
                live.failed, live.attempted
            ));
        }
        live.service = Some(snapshot);
        live
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_request_stream_is_reproducible_from_the_seed() {
        let zipf = Zipf::new(PIPE_POOL.len(), ZIPF_S);
        let stream = |seed| {
            let mut rng = SplitMix64::new(seed);
            (0..2048).map(|_| draw(&mut rng, &zipf)).collect::<Vec<_>>()
        };
        let a = stream(1996);
        assert_eq!(a, stream(1996));
        assert_ne!(a, stream(2024));
        assert!(a
            .iter()
            .all(|(t, _)| *t < PIPE_POOL.len() * PIPE_IMAGES_PER_SIZE));
        for class in Priority::ALL {
            assert!(a.iter().any(|(_, p)| *p == class), "no {class:?} request");
        }
    }
}
