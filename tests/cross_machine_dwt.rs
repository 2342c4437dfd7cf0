//! Cross-crate integration: every implementation of the Mallat
//! decomposition — sequential, shared-memory parallel, the coarse-grain MIMD
//! simulation and both fine-grain SIMD algorithms — must agree on a real
//! synthetic scene.

use dwt::{dwt2d, parallel, Boundary, FilterBank};
use dwt_mimd::{run_mimd_dwt, MimdDwtConfig};
use imagery::{landsat_scene, SceneParams};
use maspar::{dilution, systolic, SimdMachine};
use paragon::{MachineSpec, Mapping, SpmdConfig};

#[test]
fn all_five_implementations_agree() {
    let image = landsat_scene(64, 64, SceneParams::default());
    let bank = FilterBank::daubechies(4).unwrap();
    let levels = 2;

    let reference = dwt2d::decompose(&image, &bank, levels, Boundary::Periodic).unwrap();

    // 1. shared-memory parallel, one engine lane per core: bit-identical.
    let par = parallel::decompose_par(&image, &bank, levels, Boundary::Periodic).unwrap();
    assert_eq!(par, reference, "shared-memory parallel differs");

    // 2. coarse-grain MIMD on the simulated Paragon: bit-identical.
    let scfg = SpmdConfig::new(MachineSpec::paragon(), 8, Mapping::Snake);
    let mimd = run_mimd_dwt(&scfg, &MimdDwtConfig::tuned(bank.clone(), levels), &image).unwrap();
    assert_eq!(mimd.pyramid, reference, "MIMD simulation differs");

    // 3. SIMD systolic: bit-identical.
    let mut m = SimdMachine::mp2_16k();
    let sys = systolic::decompose(&mut m, &image, &bank, levels).unwrap();
    assert_eq!(sys, reference, "systolic differs");

    // 4. SIMD dilution (à trous): identical to round-off.
    let mut m = SimdMachine::mp2_16k();
    let dil = dilution::decompose(&mut m, &image, &bank, levels).unwrap();
    let err = reference.approx.max_abs_diff(&dil.approx).unwrap();
    assert!(err < 1e-10, "dilution approx differs by {err}");
    for (a, b) in reference.detail.iter().zip(&dil.detail) {
        assert!(a.lh.max_abs_diff(&b.lh).unwrap() < 1e-10);
        assert!(a.hl.max_abs_diff(&b.hl).unwrap() < 1e-10);
        assert!(a.hh.max_abs_diff(&b.hh).unwrap() < 1e-10);
    }
}

#[test]
fn reconstruction_inverts_every_path() {
    let image = landsat_scene(64, 64, SceneParams::default());
    for taps in [2usize, 8] {
        let bank = FilterBank::daubechies(taps).unwrap();
        let pyr = parallel::decompose_par(&image, &bank, 3, Boundary::Periodic).unwrap();
        let seq_rec = dwt2d::reconstruct(&pyr, &bank, Boundary::Periodic).unwrap();
        let par_rec = parallel::reconstruct_par(&pyr, &bank, Boundary::Periodic).unwrap();
        assert_eq!(par_rec, seq_rec, "D{taps}");
        assert!(image.max_abs_diff(&seq_rec).unwrap() < 1e-9);
    }
}

#[test]
fn mimd_works_across_filters_levels_and_rank_counts() {
    let image = landsat_scene(48, 64, SceneParams::default());
    for taps in [2usize, 4] {
        let bank = FilterBank::daubechies(taps).unwrap();
        let reference = dwt2d::decompose(&image, &bank, 2, Boundary::Periodic).unwrap();
        for p in [1usize, 3, 6] {
            let scfg = SpmdConfig::new(MachineSpec::paragon(), p, Mapping::Snake);
            let run = run_mimd_dwt(&scfg, &MimdDwtConfig::tuned(bank.clone(), 2), &image).unwrap();
            assert_eq!(run.pyramid, reference, "D{taps} P={p}");
        }
    }
}

#[test]
fn t3d_and_workstation_profiles_also_run_the_dwt() {
    let image = landsat_scene(32, 32, SceneParams::default());
    let bank = FilterBank::haar();
    let reference = dwt2d::decompose(&image, &bank, 1, Boundary::Periodic).unwrap();
    for machine in [MachineSpec::t3d(), MachineSpec::dec5000()] {
        let nranks = if machine.topology.nodes() > 1 { 4 } else { 1 };
        let scfg = SpmdConfig::new(machine, nranks, Mapping::RowMajor);
        let run = run_mimd_dwt(&scfg, &MimdDwtConfig::tuned(bank.clone(), 1), &image).unwrap();
        assert_eq!(run.pyramid, reference);
        assert!(run.parallel_time() > 0.0);
    }
}
