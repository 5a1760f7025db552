//! Diversity analysis: how the DPP prior reshapes a transition matrix.
//!
//! This example works directly with the DPP substrate (no HMM training):
//! it takes a nearly collapsed transition matrix, runs the paper's
//! projected-gradient M-step objective for several values of α, and reports
//! the resulting diversity, log-determinant prior and row entropies.
//!
//! Run with:
//! ```text
//! cargo run --release --example diversity_analysis
//! ```

use dhmm::core::transition_update::maximize_transition_objective;
use dhmm::core::{AscentConfig, TransitionObjective};
use dhmm::dpp::{log_det_kernel, ProductKernel};
use dhmm::linalg::Matrix;
use dhmm::prob::{entropy, mean_pairwise_bhattacharyya};

fn main() {
    // Expected transition counts whose MLE has nearly identical rows — the
    // "static mixture model" failure mode described in the paper's intro.
    let counts = Matrix::from_rows(&[
        vec![34.0, 33.0, 33.0],
        vec![33.0, 34.0, 33.0],
        vec![33.0, 33.0, 34.0],
    ])
    .expect("well-formed matrix");
    let mut mle = counts.clone();
    mle.normalize_rows();
    let kernel = ProductKernel::bhattacharyya();

    println!("MLE transition matrix (alpha = 0):\n{mle}");
    println!(
        "diversity = {:.4}, log det kernel = {:.4}\n",
        mean_pairwise_bhattacharyya(&mle),
        log_det_kernel(&mle, &kernel).expect("log det")
    );

    println!("alpha   diversity   log det K   mean row entropy");
    for alpha in [0.0, 1.0, 10.0, 50.0, 200.0] {
        let objective = TransitionObjective::unsupervised(&counts, alpha, kernel);
        let diversified = maximize_transition_objective(&objective, &mle, &AscentConfig::default())
            .expect("ascent succeeds");
        let mean_entropy: f64 = (0..diversified.rows())
            .map(|i| entropy(diversified.row(i)))
            .sum::<f64>()
            / diversified.rows() as f64;
        println!(
            "{alpha:<7} {:<11.4} {:<11.4} {:.4}",
            mean_pairwise_bhattacharyya(&diversified),
            log_det_kernel(&diversified, &kernel).expect("log det"),
            mean_entropy
        );
    }
}
