//! Golden pins of three transforms whose other suites check only a
//! round trip or a tolerance: the MasPar simulator's cycle and router
//! counts beside its coefficients, the reversible integer lifting's
//! coefficients, and the stationary (à trous) transform. Each case folds
//! into one FNV-1a digest of the exact bits.
//!
//! Every constant here was captured at commit 9abe35f, before the
//! simulator took its coefficients from `dwt` and before the integer
//! path ran the float lifting's stage table. A mismatch prints the full
//! table actually computed; only a deliberate change of the arithmetic
//! or of the cost schedule may paste it over a constant.

use dwt::engine::lifting::forward_int;
use dwt::lifting::LiftingKind;
use dwt::{swt, FilterBank, Matrix};
use maspar::{dilution, reconstruct, systolic, MasParCost, SimdMachine, Virtualization};

/// `(label, [systolic, dilution, reconstruct])`: a 64² image on a 16×16
/// array, labelled `D<taps>/L<levels>/<virtualization>/<machine>`.
#[rustfmt::skip]
const MASPAR: [(&str, [u64; 3]); 36] = [
    ("D2/L1/cut/mp1", [0x58a12744719528f0, 0x7f74348587bf8f10, 0x5424dba56d8c62ba]),
    ("D2/L1/cut/mp2", [0xd4b9a6fee7a49ae9, 0xcfe7ed614d0616e6, 0x03a1e8724e9743fe]),
    ("D2/L1/hier/mp1", [0x023aa73039c34e88, 0xb975b4ec60c45b45, 0xdc8d1fe8f92e177c]),
    ("D2/L1/hier/mp2", [0x79089414a3c94118, 0xdb2c5c49954c8003, 0xe0e7d26bafabb173]),
    ("D2/L2/cut/mp1", [0x694d93e657387026, 0x464b442d81b54b31, 0x218783b0c62352a7]),
    ("D2/L2/cut/mp2", [0x2afc91b8c2bb88dd, 0xc1a9e7fcdd5d603c, 0x9f309fd4152f1624]),
    ("D2/L2/hier/mp1", [0xbda78ea609547d86, 0x07fa023f466e11a1, 0x0132012b693e2e45]),
    ("D2/L2/hier/mp2", [0x07b42d446ec7455f, 0xecd41b6e650d5bb4, 0xb3cbcbdb02e812f8]),
    ("D2/L3/cut/mp1", [0x1c117d1f69e5dba4, 0xb76460811a497abc, 0x7b10ff3c5e63f33e]),
    ("D2/L3/cut/mp2", [0x4444ae2002d57748, 0xb034b4132c5cc137, 0x526560eddc95fca1]),
    ("D2/L3/hier/mp1", [0x0ffcfb11d5be08ce, 0x6f13f0830b25c206, 0x6cafdd856daad38c]),
    ("D2/L3/hier/mp2", [0xb8cbdf8a9899d731, 0x7d223307ba3c0548, 0x38ca84614a71f428]),
    ("D4/L1/cut/mp1", [0x0781f08b740502b9, 0x1f6da9d82b889a4a, 0xf8892ff5f0c3a52e]),
    ("D4/L1/cut/mp2", [0x5938e9b8b5fd3f8a, 0x2301916e60ad9a49, 0x05a8d3f285e8d17a]),
    ("D4/L1/hier/mp1", [0x8b2db950ae140aa9, 0x4ec1b91543dd5483, 0x7c562782e3454b09]),
    ("D4/L1/hier/mp2", [0xa38b83c3c2e3c034, 0x1f7720477fc18f15, 0x2ec3b391b15281f6]),
    ("D4/L2/cut/mp1", [0x9e391cdf3256b6fc, 0x4b7adfb59f747a8e, 0x8e575a2affe8f7e4]),
    ("D4/L2/cut/mp2", [0x4282a64a8bdf77e1, 0xc3c5aa0e578955dd, 0xfd5c9356eb5fc656]),
    ("D4/L2/hier/mp1", [0x1e8a6ccadccdf169, 0x14427c74ffb91a2b, 0xddc33c54cc5a5a59]),
    ("D4/L2/hier/mp2", [0x628df71adc50e523, 0xf6238403de84515d, 0x9dbb5c4ba70eb561]),
    ("D4/L3/cut/mp1", [0x06dae5faba7e471b, 0x0b64214da8479945, 0x3ea73c5898ab837b]),
    ("D4/L3/cut/mp2", [0x2108bf2908703297, 0x39815e0e2d540d4c, 0x9985fc505aeadbee]),
    ("D4/L3/hier/mp1", [0x5865c5371b04ac00, 0x098f952b2fd57026, 0x4f11181be1de59a4]),
    ("D4/L3/hier/mp2", [0x76ea634ffd75af9d, 0x412ceb82356ecc37, 0xb0e54ef695648aec]),
    ("D8/L1/cut/mp1", [0xbfe03b7bcc570889, 0x95eee40e31a5519a, 0x8923afe472eea0a1]),
    ("D8/L1/cut/mp2", [0xa3822c5a073c2412, 0xfa74930ffbf88288, 0xfca67a70ad84e18d]),
    ("D8/L1/hier/mp1", [0x5d2c7d625cacebce, 0x327aa73fdfe366eb, 0x8d47d8ed54dcf131]),
    ("D8/L1/hier/mp2", [0xeb2e2f5558ade772, 0x8f0323037c4724d4, 0x40d331f3aa68caf4]),
    ("D8/L2/cut/mp1", [0x8e15b7d2a78a37b9, 0x27b0c3c49722e171, 0x534cb6dbc543c2c6]),
    ("D8/L2/cut/mp2", [0x49295971ec7e9036, 0x7d7eb798b7670507, 0xe6084eb5df495558]),
    ("D8/L2/hier/mp1", [0x44edf6d3d68d9025, 0xefecd2f7cc5a8c15, 0x56e75ad9261a3e11]),
    ("D8/L2/hier/mp2", [0x9e2fadd1cf31481f, 0x9d267ed8cbf53dbd, 0x48c9ea016fcc0b44]),
    ("D8/L3/cut/mp1", [0x9c5445c9c5bf839c, 0x70ddf44ebec1a43c, 0x8aca932d874fbf93]),
    ("D8/L3/cut/mp2", [0xecf618ebf6ea8280, 0x9a56189accb36439, 0x9de7f8d27570dae4]),
    ("D8/L3/hier/mp1", [0x0ac188b224e6a61c, 0x634d8e48e49659c6, 0xc4aeeec91fdba16e]),
    ("D8/L3/hier/mp2", [0x1799481d4c942d29, 0x99909ef0ed9cb1f3, 0x488bbc8e4c79affd]),
];

/// `(label, [cdf53, cdf97])`: `forward_int`'s coefficients, labelled
/// `<rows>x<cols>/L<levels>`.
#[rustfmt::skip]
const INTEGER: [(&str, [u64; 2]); 7] = [
    ("1x2/L1", [0x98c5fd93c6264a7e, 0x2172646a009f2127]),
    ("2x1/L1", [0x98c5fd93c6264a7e, 0x2172646a009f2127]),
    ("3x5/L2", [0x72e0f06ca4fc0b99, 0x421dd80c8aec8eb0]),
    ("9x7/L3", [0xbd1c77c64c3bb515, 0x7b0b162704145167]),
    ("31x17/L3", [0xc84c51a06c1e6d40, 0x1143a67f51b9f6ad]),
    ("16x33/L4", [0x3fd0ea55210ab1ae, 0xe0f4ceaf25b5c194]),
    ("64x64/L5", [0x71baf122eee7a2a4, 0xf78faa00a5df220b]),
];

/// `(label, [decompose, reconstruct])`: `swt::decompose`'s bands and
/// `swt::reconstruct`'s image at 32×48, labelled `D<taps>/L<levels>`.
#[rustfmt::skip]
const STATIONARY: [(&str, [u64; 2]); 6] = [
    ("D2/L1", [0x19508b54bc1cb934, 0x9fbf86587a4b6508]),
    ("D2/L2", [0xbdb1ba134e3e1089, 0xbd608fb000ab26d4]),
    ("D4/L1", [0xc3d4f15b167de4c2, 0xe2c2eaea01a26526]),
    ("D4/L2", [0xa14563916fe2c827, 0xa9af10fb80c2f8c4]),
    ("D8/L1", [0x2c616c89db7a2944, 0x42375fbffc25827c]),
    ("D8/L2", [0xdb2d6884e15d6c46, 0x704699213ea9655f]),
];

/// FNV-1a over 64-bit words, fed byte by byte.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn matrix(&mut self, m: &Matrix) {
        self.word(m.rows() as u64);
        self.word(m.cols() as u64);
        for r in 0..m.rows() {
            for &v in m.row(r) {
                self.word(v.to_bits());
            }
        }
    }

    fn pyramid(&mut self, p: &dwt::Pyramid) {
        self.matrix(&p.approx);
        for d in &p.detail {
            self.matrix(&d.lh);
            self.matrix(&d.hl);
            self.matrix(&d.hh);
        }
    }

    /// The simulated clock: cycles to the bit, and router transactions.
    fn machine(&mut self, m: &SimdMachine) {
        self.word(m.cycles().to_bits());
        self.word(m.router_transactions());
    }
}

/// Compare computed digests against a pinned table, printing the table
/// this build computes on a mismatch.
fn check<const N: usize>(what: &str, got: Vec<(String, [u64; N])>, want: &[(&str, [u64; N])]) {
    let table: String = got
        .iter()
        .map(|(name, ds)| {
            let ds: Vec<String> = ds.iter().map(|d| format!("{d:#018x}")).collect();
            format!("    (\"{name}\", [{}]),\n", ds.join(", "))
        })
        .collect();
    let want: Vec<(String, [u64; N])> = want.iter().map(|&(n, d)| (n.to_string(), d)).collect();
    assert_eq!(got, want, "{what} digests computed by this build:\n{table}");
}

#[test]
fn maspar_cycles_routers_and_coefficients_match_the_pinned_digests() {
    let img = Matrix::from_fn(64, 64, |r, c| ((r * 29 + c * 13) % 37) as f64 * 0.75 - 11.5);
    let mut got = Vec::new();
    for taps in [2usize, 4, 8] {
        let bank = FilterBank::daubechies(taps).unwrap();
        for levels in 1..=3 {
            for (virt, vname) in [
                (Virtualization::CutAndStack, "cut"),
                (Virtualization::Hierarchical, "hier"),
            ] {
                for (cost, cname) in [(MasParCost::mp1(), "mp1"), (MasParCost::mp2(), "mp2")] {
                    let fresh = || SimdMachine::new(16, 16, cost, virt);
                    let mut digests = [0u64; 3];

                    let mut m = fresh();
                    let pyr = systolic::decompose(&mut m, &img, &bank, levels).unwrap();
                    let mut h = Fnv::new();
                    h.machine(&m);
                    h.pyramid(&pyr);
                    digests[0] = h.0;

                    let mut m = fresh();
                    let dil = dilution::decompose(&mut m, &img, &bank, levels).unwrap();
                    let mut h = Fnv::new();
                    h.machine(&m);
                    h.pyramid(&dil);
                    digests[1] = h.0;

                    let mut m = fresh();
                    let rec = reconstruct::reconstruct(&mut m, &pyr, &bank).unwrap();
                    let mut h = Fnv::new();
                    h.machine(&m);
                    h.matrix(&rec);
                    digests[2] = h.0;

                    got.push((format!("D{taps}/L{levels}/{vname}/{cname}"), digests));
                }
            }
        }
    }
    check("maspar", got, &MASPAR);
}

#[test]
fn integer_lifting_coefficients_match_the_pinned_digests() {
    let shapes = [
        (1usize, 2usize, 1usize),
        (2, 1, 1),
        (3, 5, 2),
        (9, 7, 3),
        (31, 17, 3),
        (16, 33, 4),
        (64, 64, 5),
    ];
    let mut got = Vec::new();
    for (rows, cols, levels) in shapes {
        let digest = |kind| {
            // Signed samples of a 12-bit range, so both roundings see
            // odd and negative sums.
            let mut data: Vec<i32> = (0..rows * cols)
                .map(|i| {
                    let x = (i as u64).wrapping_mul(6364136223846793005) ^ 0x9e37_79b9;
                    ((x >> 40) % 4096) as i32 - 2048
                })
                .collect();
            forward_int(&mut data, rows, cols, levels, kind).unwrap();
            let mut h = Fnv::new();
            for &v in &data {
                h.word(u64::from(v as u32));
            }
            h.0
        };
        got.push((
            format!("{rows}x{cols}/L{levels}"),
            [digest(LiftingKind::LeGall53), digest(LiftingKind::Cdf97)],
        ));
    }
    check("integer lifting", got, &INTEGER);
}

#[test]
fn stationary_transform_matches_the_pinned_digests() {
    let img = Matrix::from_fn(32, 48, |r, c| {
        ((r * 17 + c * 5) % 23) as f64 - 7.25 + (c as f64 * 0.1).cos()
    });
    let mut got = Vec::new();
    for taps in [2usize, 4, 8] {
        let bank = FilterBank::daubechies(taps).unwrap();
        for levels in 1..=2 {
            let pyr = swt::decompose(&img, &bank, levels).unwrap();
            let rec = swt::reconstruct(&pyr, &bank).unwrap();
            let mut bands = Fnv::new();
            for lvl in &pyr.levels {
                for band in [&lvl.ll, &lvl.lh, &lvl.hl, &lvl.hh] {
                    bands.matrix(band);
                }
            }
            let mut image = Fnv::new();
            image.matrix(&rec);
            got.push((format!("D{taps}/L{levels}"), [bands.0, image.0]));
        }
    }
    check("stationary", got, &STATIONARY);
}
