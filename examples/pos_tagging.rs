//! Unsupervised part-of-speech tagging on the synthetic WSJ-like corpus
//! (the workload of the paper's §4.2.1 / Fig. 7), with a small α sweep.
//!
//! Run with:
//! ```text
//! cargo run --release --example pos_tagging            # reduced corpus
//! cargo run --release --example pos_tagging -- --paper # paper-scale corpus
//! ```

use dhmm::core::{AscentConfig, DiversifiedConfig, DiversifiedHmm};
use dhmm::data::pos::{generate, PosConfig, NUM_TAGS, TAG_NAMES};
use dhmm::eval::accuracy::{many_to_one_accuracy, one_to_one_accuracy};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let paper_scale = std::env::args().any(|a| a == "--paper");
    let mut rng = StdRng::seed_from_u64(2016);

    // 1. Generate the corpus: 15 merged tags, Zipf vocabulary, skewed tag
    //    frequencies (see Table 2 of the paper and the `dhmm::data::pos`
    //    module docs).
    let config = if paper_scale {
        PosConfig::default()
    } else {
        PosConfig::small()
    };
    let data = generate(&config, &mut rng);
    println!(
        "corpus: {} sentences, {} tokens, vocabulary {} word types, {} tags",
        data.corpus.len(),
        data.corpus.num_positions(),
        data.vocab_size,
        NUM_TAGS
    );
    let histogram = data.corpus.label_histogram();
    let most_frequent = histogram
        .iter()
        .enumerate()
        .max_by_key(|(_, &c)| c)
        .map(|(i, _)| TAG_NAMES[i])
        .unwrap_or("?");
    println!("most frequent gold tag: {most_frequent}\n");

    // 2. Sweep the diversity weight alpha, as in Fig. 7.
    let observations = data.corpus.observations();
    let gold = data.corpus.labels();
    let em_iterations = if paper_scale { 40 } else { 8 };
    println!("alpha   1-to-1 accuracy   many-to-1 accuracy");
    for alpha in [0.0, 1.0, 100.0, 1000.0] {
        let trainer = DiversifiedHmm::new(DiversifiedConfig {
            alpha,
            max_em_iterations: em_iterations,
            ascent: AscentConfig {
                max_iterations: 10,
                ..AscentConfig::default()
            },
            ..DiversifiedConfig::default()
        });
        let mut fit_rng = StdRng::seed_from_u64(7);
        let (model, _) = trainer
            .fit_discrete(&observations, NUM_TAGS, data.vocab_size, &mut fit_rng)
            .expect("training failed");
        let predicted = model.decode_all(&observations).expect("decoding failed");
        let (one_to_one, _) = one_to_one_accuracy(&predicted, &gold).expect("evaluation failed");
        let many_to_one = many_to_one_accuracy(&predicted, &gold).expect("evaluation failed");
        println!("{alpha:<7} {one_to_one:<17.4} {many_to_one:.4}");
    }
}
