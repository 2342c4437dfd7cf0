//! The engine's steady state allocates nothing: once a plan has its
//! workspace and output, a warm `decompose_into` / `reconstruct_into`
//! call on one lane makes no heap allocation, for every filter bank,
//! boundary mode and geometry below. A level striped across lanes
//! spawns scoped threads, so a two-lane call may allocate, but only what
//! one scope and one spawn allocate, once per striped level: the lanes'
//! own work allocates nothing.
//!
//! Counted by the shared counting allocator (`tests/common`) across all
//! threads, so a lane's allocations count with the caller's. The count
//! is process-wide, and the test harness allocates as it starts and
//! reports each test, so the binary holds one test.

use dwt::engine::DwtPlan;
use dwt::{Boundary, FilterBank, Matrix};

mod common;

fn banks() -> Vec<FilterBank> {
    vec![
        FilterBank::haar(),
        FilterBank::daubechies(4).expect("D4 exists"),
        FilterBank::daubechies(8).expect("D8 exists"),
        FilterBank::coiflet(6).expect("Coif-6 exists"),
        FilterBank::cdf53(),
        FilterBank::cdf97(),
    ]
}

/// Allocations made, across all threads, by one warm forward and one
/// warm inverse call of `plan`.
fn warm_allocations(plan: &DwtPlan) -> (usize, usize) {
    let img = Matrix::from_fn(plan.rows(), plan.cols(), |r, c| {
        ((r * 31 + c * 17) % 61) as f64 - 30.5
    });
    let mut ws = plan.make_workspace();
    let mut pyr = plan.make_pyramid();
    let mut back = Matrix::zeros(plan.rows(), plan.cols());
    // The first calls warm whatever is lazily set up on first use.
    plan.decompose_into(&img, &mut ws, &mut pyr)
        .expect("geometry matches");
    plan.reconstruct_into(&pyr, &mut ws, &mut back)
        .expect("geometry matches");
    let counted = |call: &mut dyn FnMut()| {
        let before = common::allocations();
        call();
        common::allocations() - before
    };
    let forward = counted(&mut || {
        plan.decompose_into(&img, &mut ws, &mut pyr)
            .expect("geometry matches")
    });
    let inverse = counted(&mut || {
        plan.reconstruct_into(&pyr, &mut ws, &mut back)
            .expect("geometry matches")
    });
    (forward, inverse)
}

#[test]
fn warm_engine_calls_allocate_only_to_spawn_lanes() {
    let mut plans = 0;
    for bank in banks() {
        for (rows, cols, levels) in [(64, 64, 3), (100, 72, 2), (256, 256, 4)] {
            for mode in [Boundary::Periodic, Boundary::Symmetric, Boundary::Zero] {
                let name = format!("{} {rows}x{cols} L{levels} {mode:?}", bank.name());
                let plan = match DwtPlan::new(rows, cols, bank.clone(), levels, mode) {
                    Ok(plan) => plan,
                    // The lifting banks run on periodic boundaries only.
                    Err(_) if bank.lifting_kind().is_some() && mode != Boundary::Periodic => {
                        continue
                    }
                    Err(e) => panic!("{name}: {e}"),
                };
                assert_eq!(warm_allocations(&plan), (0, 0), "{name}");
                plans += 1;
            }
        }
    }
    assert_eq!(plans, 4 * 3 * 3 + 2 * 3, "every plan was measured");

    // A striped level runs its lanes in one `std::thread::scope`, the
    // last lane on the caller: with two lanes, one scope and one spawn.
    // What those cost is std's (and the test harness's, whose output
    // capture a spawned thread inherits), so it is measured here, warm.
    let scoped_spawn = || {
        let lane = [0u64; 4];
        let before = common::allocations();
        std::thread::scope(|s| {
            s.spawn(move || std::hint::black_box(lane));
        });
        common::allocations() - before
    };
    scoped_spawn();
    let per_striped_level = scoped_spawn();
    // 128² L4 has no level with rows enough to stripe; 256² L4 stripes
    // its first level only.
    for (n, striped) in [(128, 0), (256, 1)] {
        for bank in banks() {
            let plan = DwtPlan::new(n, n, bank.clone(), 4, Boundary::Periodic)
                .expect("L4 is valid for every bank")
                .with_threads(2);
            let (forward, inverse) = warm_allocations(&plan);
            let bound = striped * per_striped_level;
            assert!(
                forward <= bound && inverse <= bound,
                "{} {n}² L4 on two lanes: {forward} forward and {inverse} inverse \
                 allocations, over {striped} scoped spawn(s) of {per_striped_level}",
                bank.name()
            );
        }
    }
}
