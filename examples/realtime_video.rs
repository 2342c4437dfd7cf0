//! The paper's closing claim: "The MasPar, with the given configuration,
//! is capable of processing 30 images or more per second. Thus for
//! real-time video, multimedia applications ... high-performance
//! computing is quickly asserting its presence."
//!
//! This example measures sustained frames/second for every machine model
//! on the paper's three configurations — plus the modern comparison:
//! this host's engine with one lane per core (`parallel::decompose_par`).
//!
//! ```text
//! cargo run --release --example realtime_video
//! ```

use dwt::{parallel, Boundary, FilterBank};
use dwt_mimd::{run_mimd_dwt, MimdDwtConfig};
use imagery::{landsat_scene, SceneParams};
use maspar::{systolic, SimdMachine};
use paragon::{MachineSpec, Mapping, SpmdConfig};
use std::time::Instant;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let image = landsat_scene(512, 512, SceneParams::default());
    println!("sustained wavelet decompositions per second, 512x512 frames:");
    println!(
        "{:<28} {:>10} {:>10} {:>10}",
        "machine", "F8/L1", "F4/L2", "F2/L4"
    );

    let configs = [(8usize, 1usize), (4, 2), (2, 4)];

    // MasPar MP-2 (virtual time).
    let mut row = format!("{:<28}", "MasPar MP-2 16K (1995)");
    for (f, l) in configs {
        let bank = FilterBank::daubechies(f)?;
        let mut m = SimdMachine::mp2_16k();
        systolic::decompose(&mut m, &image, &bank, l)?;
        row += &format!(" {:>10.1}", 1.0 / m.seconds());
    }
    println!("{row}");

    // Paragon 32 procs (virtual time).
    let mut row = format!("{:<28}", "Intel Paragon 32p (1995)");
    for (f, l) in configs {
        let cfg = MimdDwtConfig::tuned(FilterBank::daubechies(f)?, l);
        let scfg = SpmdConfig::new(MachineSpec::paragon(), 32, Mapping::Snake);
        let t = run_mimd_dwt(&scfg, &cfg, &image)?.parallel_time();
        row += &format!(" {:>10.1}", 1.0 / t);
    }
    println!("{row}");

    // This host, one engine lane per core (real wall time).
    let mut row = format!("{:<28}", "this host, all cores (real)");
    for (f, l) in configs {
        let bank = FilterBank::daubechies(f)?;
        // Warm up, then time a few frames.
        parallel::decompose_par(&image, &bank, l, Boundary::Periodic)?;
        let frames = 10;
        let start = Instant::now();
        for _ in 0..frames {
            parallel::decompose_par(&image, &bank, l, Boundary::Periodic)?;
        }
        let fps = frames as f64 / start.elapsed().as_secs_f64();
        row += &format!(" {fps:>10.1}");
    }
    println!("{row}");

    println!();
    println!("the 1995 MasPar clears the 30 frames/sec real-time bar the");
    println!("paper claims; three decades later one multicore node does the");
    println!("same job hundreds of times per second.");
    Ok(())
}
