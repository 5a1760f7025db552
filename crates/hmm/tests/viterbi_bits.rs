//! Bit pins of the dense offline Viterbi decode.
//!
//! `scaled_viterbi_matches_reference` checks the scaled decode against the
//! log-domain oracle; this file pins the exact path and score
//! `InferenceBackend::Scaled.viterbi_with_score` returns, so rearranging the
//! max-product recursion or its backtrack cannot move a label or an ulp of
//! the score unnoticed. Each case hashes (64-bit FNV-1a over the path's
//! states, then the IEEE-754 bits of the score) one decode of:
//!
//! * a discrete model whose states come in exact clones (duplicated rows and
//!   columns of `A`, duplicated rows of `B`, quantized entries), so whole
//!   columns of candidates tie and the first-occurrence rule decides; `A`
//!   and `B` carry exact zeros, and the last symbol is emitted by no state,
//!   so every step that sees it is floored to a uniform row;
//! * a Gaussian model with the same `A` over a sequence with a run of
//!   observations far from every mean, whose likelihoods underflow to zero
//!   and are rescued through shifted log-space.
//!
//! The sizes cover one state, a single 16-state tile, the tiles' tails on
//! either side of it, and several tiles with a tail. Debug and release builds
//! give the same hashes.

use dhmm_hmm::emission::{DiscreteEmission, GaussianEmission};
use dhmm_hmm::{Emission, Hmm, InferenceBackend, InferenceWorkspace};
use dhmm_linalg::Matrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const VOCAB: usize = 6;
const SEQ_LEN: usize = 90;

/// `(k, discrete-model hash, Gaussian-model hash)`.
const PINS: [(usize, u64, u64); 7] = [
    (1, 0xbffc_1d47_f596_e87c, 0x2377_a346_c177_5756),
    (2, 0x0191_6ad6_b083_3d3a, 0x9887_09cf_68cd_c933),
    (15, 0x7041_0cc9_75bc_5918, 0xed24_4768_7135_2cc1),
    (16, 0x22c8_ced6_ba17_e335, 0xcbb8_6bd3_a927_9a92),
    (17, 0xa41b_a6c0_a72c_384d, 0x3ed8_dfb5_1ef9_9444),
    (64, 0x5892_7729_71e7_5f20, 0xbaad_6697_1108_880c),
    (70, 0x4ae6_2f4e_be82_920a, 0xa104_a79c_a9c8_4046),
];

/// A quantized level in `{0, 0.25, 0.5, 0.75}`: products of levels tie often.
fn level(rng: &mut StdRng) -> f64 {
    f64::from(rng.gen_range(0..4u8)) * 0.25
}

/// Whether state `j` is an exact clone of state `j − 1`.
fn is_clone(j: usize) -> bool {
    j % 3 == 2
}

/// A `k`-state transition matrix with quantized entries, exact zeros, and
/// every third state a clone of its predecessor (its row and its column of
/// `A` duplicate the predecessor's).
fn transitions(k: usize, rng: &mut StdRng) -> Matrix {
    let mut a = Matrix::from_fn(k, k, |_, _| level(rng));
    for i in 0..k {
        // Column 0 is never a clone, so every row keeps some mass.
        a[(i, 0)] += 0.25;
    }
    for j in (1..k).filter(|&j| is_clone(j)) {
        for i in 0..k {
            a[(i, j)] = a[(i, j - 1)];
        }
        for c in 0..k {
            a[(j, c)] = a[(j - 1, c)];
        }
    }
    a.normalize_rows();
    a
}

/// Initial distribution with the same clones and some exact zeros.
fn initial(k: usize) -> Vec<f64> {
    let mut pi: Vec<f64> = (0..k).map(|i| if i % 4 == 1 { 0.0 } else { 1.0 }).collect();
    for j in (1..k).filter(|&j| is_clone(j)) {
        pi[j] = pi[j - 1];
    }
    let total: f64 = pi.iter().sum();
    pi.iter().map(|p| p / total).collect()
}

fn discrete_model(k: usize, rng: &mut StdRng) -> Hmm<DiscreteEmission> {
    let a = transitions(k, rng);
    let mut b = Matrix::from_fn(k, VOCAB, |_, _| level(rng));
    for i in 0..k {
        b[(i, 0)] += 0.25;
        b[(i, VOCAB - 1)] = 0.0;
    }
    for j in (1..k).filter(|&j| is_clone(j)) {
        for v in 0..VOCAB {
            b[(j, v)] = b[(j - 1, v)];
        }
    }
    b.normalize_rows();
    Hmm::new(initial(k), a, DiscreteEmission::new(b).unwrap()).unwrap()
}

fn gaussian_model(k: usize, rng: &mut StdRng) -> Hmm<GaussianEmission> {
    let a = transitions(k, rng);
    let mut means: Vec<f64> = (0..k).map(|_| rng.gen_range(-3.0..3.0)).collect();
    let mut sds: Vec<f64> = (0..k).map(|_| rng.gen_range(0.5..2.0)).collect();
    for j in (1..k).filter(|&j| is_clone(j)) {
        means[j] = means[j - 1];
        sds[j] = sds[j - 1];
    }
    Hmm::new(initial(k), a, GaussianEmission::new(means, sds).unwrap()).unwrap()
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

fn decode_hash(path: &[usize], score: f64) -> u64 {
    fnv1a(
        path.iter()
            .map(|&s| s as u64)
            .chain(std::iter::once(score.to_bits())),
    )
}

/// The two hashes of one `k`, decoded through one workspace.
fn case_hashes(k: usize) -> (u64, u64) {
    let mut rng = StdRng::seed_from_u64(0x7b17 + k as u64);
    let mut ws = InferenceWorkspace::new();

    let model = discrete_model(k, &mut rng);
    let seq: Vec<usize> = (0..SEQ_LEN).map(|_| rng.gen_range(0..VOCAB)).collect();
    assert!(seq.contains(&(VOCAB - 1)), "k={k}: no floored step");
    let (path, score) = InferenceBackend::Scaled
        .viterbi_with_score(&model, &seq, &mut ws)
        .unwrap();
    assert!(score.is_finite(), "k={k}: discrete score {score}");
    let discrete = decode_hash(&path, score);

    let model = gaussian_model(k, &mut rng);
    let mut seq: Vec<f64> = (0..SEQ_LEN).map(|_| rng.gen_range(-4.0..4.0)).collect();
    // Some 60 standard deviations out: every state's density underflows.
    for y in &mut seq[40..46] {
        *y = 250.0;
    }
    for i in 0..k {
        let lp = model.emission().log_prob(i, &250.0);
        assert!(
            lp.is_finite() && lp.exp() == 0.0,
            "k={k}: the far run must underflow"
        );
    }
    let (path, score) = InferenceBackend::Scaled
        .viterbi_with_score(&model, &seq, &mut ws)
        .unwrap();
    assert!(score.is_finite(), "k={k}: Gaussian score {score}");
    (discrete, decode_hash(&path, score))
}

#[test]
fn dense_viterbi_results_are_pinned_bit_for_bit() {
    let got: Vec<(usize, u64, u64)> = PINS
        .iter()
        .map(|&(k, ..)| {
            let (discrete, gaussian) = case_hashes(k);
            (k, discrete, gaussian)
        })
        .collect();
    let table: String = got
        .iter()
        .map(|(k, d, g)| format!("    ({k}, {d:#018x}, {g:#018x}),\n"))
        .collect();
    assert_eq!(
        got, PINS,
        "pinned dense Viterbi hashes moved; now:\n{table}"
    );
}
