//! Bit pins of the sparse backend under pruning.
//!
//! `tests/sparse_parity.rs` checks a pruned run against the dense engine on
//! the pruned matrix `Ã` to within 1e-12; this file pins the exact bits
//! `InferenceBackend::Sparse` returns, so rearranging the recursions cannot
//! move a pruned result by an ulp unnoticed. Each case hashes (64-bit
//! FNV-1a over the IEEE-754 bit patterns, in order):
//!
//! * the forward–backward log-likelihood, then γ row by row, then ξ;
//! * the forward-only log-likelihood;
//! * the Viterbi path, then its score.
//!
//! The models carry exact zeros in `A` and `B`, and one symbol that is
//! impossible in every state, so whole α rows and weight entries vanish and
//! some steps are floored. The rules prune part of every row, and at
//! `threshold(0.1)` some rows fall back to their dense form. Debug and
//! release builds give the same hashes.

use dhmm_hmm::emission::DiscreteEmission;
use dhmm_hmm::{Hmm, InferenceBackend, InferenceWorkspace, SparseParams};
use dhmm_linalg::Matrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const VOCAB: usize = 7;
const SEQ_LEN: usize = 90;

/// `(k, rule index, forward–backward, log-likelihood, Viterbi)` hashes; the
/// rule index points into [`rules`].
const PINS: [(usize, usize, u64, u64, u64); 9] = [
    (
        5,
        0,
        0xdd48_3ad3_4d66_24d3,
        0x8a3f_978c_a188_6fac,
        0xc6b0_fc69_ab45_3b88,
    ),
    (
        5,
        1,
        0x6eac_aaca_a12c_b59c,
        0x6574_944c_4263_3b65,
        0x167b_c06e_932b_43ca,
    ),
    (
        5,
        2,
        0xbb4f_56d8_c773_7b27,
        0x425a_9f58_f08e_7e75,
        0x69e8_ce66_403c_c803,
    ),
    (
        16,
        0,
        0x39f8_851f_2d30_ccba,
        0xe2cd_7b7f_564c_a973,
        0x3525_d0c7_3254_ef6a,
    ),
    (
        16,
        1,
        0xd4d3_639e_1c4b_ea55,
        0x9ded_2c2c_e080_b607,
        0x27f8_f5b8_5e09_f148,
    ),
    (
        16,
        2,
        0x616c_c1eb_ce2c_29ff,
        0xb151_daea_4c0b_1e49,
        0xdc0d_777c_8d45_f46e,
    ),
    (
        64,
        0,
        0xbc96_61fb_4ae9_3f68,
        0xe2d1_fee8_a246_b0ed,
        0x2ade_f2d6_5fae_5939,
    ),
    (
        64,
        1,
        0xc96d_15c1_f7c9_00c5,
        0xa338_b94c_b15a_6103,
        0xda56_be91_55d0_1120,
    ),
    (
        64,
        2,
        0x14db_8169_4983_25c0,
        0x92f0_bf15_3281_d206,
        0x0584_503d_de87_365a,
    ),
];

fn rules() -> [SparseParams; 3] {
    [
        SparseParams::threshold(0.02),
        SparseParams::threshold(0.1),
        SparseParams::top_p(0.9),
    ]
}

/// A `k`-state model with skewed transition rows (so pruning bites), exact
/// zeros in `A` and `B`, and a last symbol no state can emit.
fn model_with_zeros(k: usize, seed: u64) -> Hmm<DiscreteEmission> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut a = Matrix::from_fn(k, k, |_, _| rng.gen_range(0.0..1.0f64).powi(6));
    let mut b = Matrix::from_fn(k, VOCAB, |_, _| rng.gen_range(0.0..1.0));
    for i in 0..k {
        for j in 0..k {
            if (i + 2 * j) % 3 == 0 && i != j {
                a[(i, j)] = 0.0;
            }
        }
        a[(i, i)] += 1e-3;
        for v in 0..VOCAB - 1 {
            if (i + v) % 4 == 0 {
                b[(i, v)] = 0.0;
            }
        }
        b[(i, VOCAB - 1)] = 0.0;
        b[(i, 0)] += 0.1;
    }
    a.normalize_rows();
    b.normalize_rows();
    let pi: Vec<f64> = (0..k).map(|i| if i % 3 == 1 { 0.0 } else { 1.0 }).collect();
    let total: f64 = pi.iter().sum();
    let pi = pi.iter().map(|p| p / total).collect();
    Hmm::new(pi, a, DiscreteEmission::new(b).unwrap()).unwrap()
}

/// 64-bit FNV-1a over the little-endian bytes of `words`.
fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for byte in w.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn bits(m: &Matrix) -> impl Iterator<Item = u64> + '_ {
    m.as_slice().iter().map(|v| v.to_bits())
}

/// The three hashes of one `(k, params)` case, run through one workspace.
fn case_hashes(k: usize, params: SparseParams) -> (u64, u64, u64) {
    let model = model_with_zeros(k, 0xb175 + k as u64);
    let mut rng = StdRng::seed_from_u64(0x5e0 + k as u64);
    let seq: Vec<usize> = (0..SEQ_LEN).map(|_| rng.gen_range(0..VOCAB)).collect();
    let backend = InferenceBackend::Sparse(params);
    let mut ws = InferenceWorkspace::new();

    let stats = backend.forward_backward(&model, &seq, &mut ws).unwrap();
    let fb = fnv1a(
        std::iter::once(stats.log_likelihood.to_bits())
            .chain(bits(&stats.gamma))
            .chain(bits(&stats.xi_sum)),
    );
    let ll = backend.log_likelihood(&model, &seq, &mut ws).unwrap();
    let (path, score) = backend.viterbi_with_score(&model, &seq, &mut ws).unwrap();
    let vit = fnv1a(
        path.iter()
            .map(|&s| s as u64)
            .chain(std::iter::once(score.to_bits())),
    );
    let report = ws.sparse_report().unwrap();
    assert!(
        report.static_pruned_max > 0.0,
        "k={k} {params:?}: the rule must prune"
    );
    (fb, fnv1a([ll.to_bits()]), vit)
}

#[test]
fn pruned_sparse_results_are_pinned_bit_for_bit() {
    let rules = rules();
    let got: Vec<(usize, usize, u64, u64, u64)> = PINS
        .iter()
        .map(|&(k, r, ..)| {
            let (fb, ll, vit) = case_hashes(k, rules[r]);
            (k, r, fb, ll, vit)
        })
        .collect();
    let table: String = got
        .iter()
        .map(|(k, r, fb, ll, vit)| {
            format!("    ({k}, {r}, {fb:#018x}, {ll:#018x}, {vit:#018x}),\n")
        })
        .collect();
    assert_eq!(got, PINS, "pinned sparse hashes moved; now:\n{table}");
}
