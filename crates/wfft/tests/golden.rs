//! Golden pins of the pruned wavelet-FFT kernels.
//!
//! Every kernel configuration the library offers — three bases, exact /
//! band drop / Sets 1–3 / `set_only(Set1)`, static and dynamic pruning,
//! two lengths — is run on seeded random inputs and folded into an FNV-1a
//! digest of the output bits plus the `OpCount`. The inputs are random
//! complex vectors, so no combine product is exactly zero and the digest
//! pins the arithmetic itself, not an accident of the data.

use hrv_dsp::{Cx, FftBackend, OpCount};
use hrv_wavelet::WaveletBasis;
use hrv_wfft::{PruneConfig, PruneSet, PrunedWfft, WaveletFftBackend, WfftPlan};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fold(digest: &mut u64, word: u64) {
    for byte in word.to_le_bytes() {
        *digest ^= u64::from(byte);
        *digest = digest.wrapping_mul(FNV_PRIME);
    }
}

fn seeded(n: usize, seed: u64) -> Vec<Cx> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(17);
    let mut next = move || {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
    };
    (0..n).map(|_| Cx::new(0.8 + next(), next())).collect()
}

fn configs() -> [(&'static str, PruneConfig); 6] {
    [
        ("exact", PruneConfig::exact()),
        ("band_drop", PruneConfig::band_drop_only()),
        ("set1", PruneConfig::with_set(PruneSet::Set1)),
        ("set2", PruneConfig::with_set(PruneSet::Set2)),
        ("set3", PruneConfig::with_set(PruneSet::Set3)),
        ("set1_only", PruneConfig::set_only(PruneSet::Set1)),
    ]
}

/// Every `(basis, n, config, mode)` kernel, dynamic ones calibrated on a
/// seeded eight-input training set.
fn kernels() -> Vec<(String, PrunedWfft)> {
    let mut out = Vec::new();
    for basis in WaveletBasis::PAPER {
        for n in [64usize, 512] {
            for (name, config) in configs() {
                let static_kernel = PrunedWfft::new(WfftPlan::new(n, basis), config);
                let training: Vec<Vec<Cx>> = (0..8).map(|s| seeded(n, 1000 + s)).collect();
                let thresholds = static_kernel.calibrate_dynamic(&training);
                let dynamic_kernel = static_kernel.clone().with_dynamic(thresholds);
                out.push((format!("{basis}/{n}/{name}/static"), static_kernel));
                out.push((format!("{basis}/{n}/{name}/dynamic"), dynamic_kernel));
            }
        }
    }
    out
}

fn digest(kernel: &PrunedWfft) -> u64 {
    let mut digest = FNV_OFFSET;
    let mut ops = OpCount::default();
    for trial in 0..3 {
        let x = seeded(kernel.plan().len(), trial);
        for z in kernel.forward(&x, &mut ops) {
            fold(&mut digest, z.re.to_bits());
            fold(&mut digest, z.im.to_bits());
        }
    }
    for field in [
        ops.add, ops.mul, ops.div, ops.sqrt, ops.trig, ops.cmp, ops.load, ops.store,
    ] {
        fold(&mut digest, field);
    }
    digest
}

/// One digest per kernel, in [`kernels`] order. A change to the kernels'
/// arithmetic order or op accounting shows up here as a mismatch.
const GOLDEN: [(&str, u64); 72] = [
    ("haar/64/exact/static", 0xaa8ad6024a6b9478),
    ("haar/64/exact/dynamic", 0xaa8ad6024a6b9478),
    ("haar/64/band_drop/static", 0x5db30185bd2b176c),
    ("haar/64/band_drop/dynamic", 0x5db30185bd2b176c),
    ("haar/64/set1/static", 0x1bdde269a9781108),
    ("haar/64/set1/dynamic", 0xda06f4549c93af20),
    ("haar/64/set2/static", 0x3e58c493977a2415),
    ("haar/64/set2/dynamic", 0x1ae1815d4ea9717e),
    ("haar/64/set3/static", 0x152b293b5144013c),
    ("haar/64/set3/dynamic", 0xd1b944a1f0e6a705),
    ("haar/64/set1_only/static", 0x98112f9541217a23),
    ("haar/64/set1_only/dynamic", 0xd19329e1bcd3d217),
    ("haar/512/exact/static", 0x5ecebedfacdaf129),
    ("haar/512/exact/dynamic", 0x5ecebedfacdaf129),
    ("haar/512/band_drop/static", 0xd5ad912943393bc8),
    ("haar/512/band_drop/dynamic", 0xd5ad912943393bc8),
    ("haar/512/set1/static", 0x06d4b540d7cc4061),
    ("haar/512/set1/dynamic", 0x18a34a98a06488a9),
    ("haar/512/set2/static", 0x687e296bcef1ab0b),
    ("haar/512/set2/dynamic", 0x39ce4b180374b4ee),
    ("haar/512/set3/static", 0x38121e00645cc49a),
    ("haar/512/set3/dynamic", 0xdcb18c08d8d3a0eb),
    ("haar/512/set1_only/static", 0x915d65fb0ffae30f),
    ("haar/512/set1_only/dynamic", 0xf91aaadcd61a07cf),
    ("db2/64/exact/static", 0x0915f820fab4b0f3),
    ("db2/64/exact/dynamic", 0x0915f820fab4b0f3),
    ("db2/64/band_drop/static", 0xb329f8998cb0a434),
    ("db2/64/band_drop/dynamic", 0xb329f8998cb0a434),
    ("db2/64/set1/static", 0xff91eb01bd386300),
    ("db2/64/set1/dynamic", 0x7cd664a872fd8b94),
    ("db2/64/set2/static", 0xa3a3d5001bb56fe6),
    ("db2/64/set2/dynamic", 0xc6a02dab6d43242b),
    ("db2/64/set3/static", 0x6984f2c9faaaf75f),
    ("db2/64/set3/dynamic", 0xaf5a8f1857354499),
    ("db2/64/set1_only/static", 0x8a7d49d599cd31a0),
    ("db2/64/set1_only/dynamic", 0xf394dbab9815a196),
    ("db2/512/exact/static", 0xec2498f72f96f47f),
    ("db2/512/exact/dynamic", 0xec2498f72f96f47f),
    ("db2/512/band_drop/static", 0x71e3cee4bc4c8116),
    ("db2/512/band_drop/dynamic", 0x71e3cee4bc4c8116),
    ("db2/512/set1/static", 0x38d1b23e4c697301),
    ("db2/512/set1/dynamic", 0x0b42ee72f76fa710),
    ("db2/512/set2/static", 0x8eb17b85c571450a),
    ("db2/512/set2/dynamic", 0x31b07b03b96aaded),
    ("db2/512/set3/static", 0x2f74e9d77adb4bf9),
    ("db2/512/set3/dynamic", 0xa5e3985b4adcc87c),
    ("db2/512/set1_only/static", 0x1d7fef327d535cb8),
    ("db2/512/set1_only/dynamic", 0xce64a9a9af9d46d9),
    ("db4/64/exact/static", 0xcced9e7f5fecb808),
    ("db4/64/exact/dynamic", 0xcced9e7f5fecb808),
    ("db4/64/band_drop/static", 0x081125c350e3668c),
    ("db4/64/band_drop/dynamic", 0x081125c350e3668c),
    ("db4/64/set1/static", 0x334def4eb82b1e39),
    ("db4/64/set1/dynamic", 0xff560862cddad2af),
    ("db4/64/set2/static", 0xd78081e213666199),
    ("db4/64/set2/dynamic", 0x757847a823ead303),
    ("db4/64/set3/static", 0x575095ec46b627a5),
    ("db4/64/set3/dynamic", 0xb0cc73c00430be95),
    ("db4/64/set1_only/static", 0xc48f9efc4b7a74d8),
    ("db4/64/set1_only/dynamic", 0x90a8ef5016a084d7),
    ("db4/512/exact/static", 0xe78d2e4861509286),
    ("db4/512/exact/dynamic", 0xe78d2e4861509286),
    ("db4/512/band_drop/static", 0xd06eea4b97e2d219),
    ("db4/512/band_drop/dynamic", 0xd06eea4b97e2d219),
    ("db4/512/set1/static", 0x9edddb02c6ed366b),
    ("db4/512/set1/dynamic", 0x328fc6768db70d39),
    ("db4/512/set2/static", 0xe324ff880a048ed2),
    ("db4/512/set2/dynamic", 0x777e7e14d10b2dbf),
    ("db4/512/set3/static", 0xa8c62dabf665510b),
    ("db4/512/set3/dynamic", 0x66c9d57eb381477a),
    ("db4/512/set1_only/static", 0x84960678d0c937de),
    ("db4/512/set1_only/dynamic", 0x6e7e77694387e437),
];

#[test]
fn kernel_outputs_and_op_counts_match_golden_digests() {
    let mismatches: Vec<String> = kernels()
        .iter()
        .zip(GOLDEN)
        .filter_map(|((label, kernel), (golden_label, golden))| {
            assert_eq!(label, golden_label, "golden table order");
            let got = digest(kernel);
            (got != golden).then(|| format!("{label}: {got:#018x} (golden {golden:#018x})"))
        })
        .collect();
    assert!(
        mismatches.is_empty(),
        "kernels drifted from their golden digests:\n{}",
        mismatches.join("\n")
    );
    assert_eq!(kernels().len(), GOLDEN.len());
}

#[test]
fn forward_with_a_dirty_reused_scratch_equals_forward() {
    // One scratch carried across every kernel and length: it starts too
    // short and full of NaNs, and later arrives sized for another plan.
    let mut scratch = vec![Cx::new(f64::NAN, f64::NAN); 3];
    for (label, kernel) in kernels() {
        let backend = WaveletFftBackend::from_pruned(kernel.clone());
        for trial in 0..2 {
            let x = seeded(kernel.plan().len(), 50 + trial);
            let mut expect_ops = OpCount::default();
            let expect = kernel.forward(&x, &mut expect_ops);
            let mut data = x;
            let mut ops = OpCount::default();
            backend.forward_with_scratch(&mut data, &mut scratch, &mut ops);
            assert_eq!(ops, expect_ops, "{label}: op counts");
            assert!(
                data.iter()
                    .zip(&expect)
                    .all(|(a, b)| a.re.to_bits() == b.re.to_bits()
                        && a.im.to_bits() == b.im.to_bits()),
                "{label}: outputs differ"
            );
            scratch.resize(3 * kernel.plan().len() + 5, Cx::new(f64::NAN, 1.0));
        }
    }
}
