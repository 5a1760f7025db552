//! Trainer → streaming wiring: the `streaming_decoder` / `streaming_pool`
//! constructors honor the configured `InferenceBackend` and `Parallelism`
//! knobs, and a full-lag stream over a *trained* diversified model
//! reproduces the trainer's offline decode exactly.

use dhmm_core::{DiversifiedConfig, DiversifiedHmm, SupervisedConfig, SupervisedDiversifiedHmm};
use dhmm_data::toy::{generate, ToyConfig};
use dhmm_hmm::emission::DiscreteEmission;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

fn toy_observations(seed: u64, n: usize) -> Vec<Vec<f64>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let data = generate(
        &ToyConfig {
            num_sequences: n,
            ..ToyConfig::default()
        },
        &mut rng,
    );
    data.corpus.observations()
}

#[test]
fn trained_model_streams_like_the_offline_decoder() {
    let obs = toy_observations(1, 40);
    let trainer = DiversifiedHmm::new(DiversifiedConfig {
        alpha: 1.0,
        max_em_iterations: 8,
        ..DiversifiedConfig::default()
    });
    let mut rng = StdRng::seed_from_u64(2);
    let (model, _) = trainer.fit_gaussian(&obs, 4, &mut rng).unwrap();
    let offline = trainer.decode_all(&model, &obs).unwrap();

    // Single-session decoder at full lag.
    for (seq, offline_path) in obs.iter().zip(&offline).take(10) {
        let mut dec = trainer.streaming_decoder(&model, seq.len()).unwrap();
        let mut path = Vec::new();
        for y in seq {
            path.extend_from_slice(dec.push(y).committed);
        }
        path.extend_from_slice(dec.flush().committed);
        assert_eq!(&path, offline_path);
    }

    // Session pool at full lag, all sequences multiplexed in one tick loop.
    let max_len = obs.iter().map(|s| s.len()).max().unwrap();
    let mut pool = trainer.streaming_pool(Arc::new(model), max_len).unwrap();
    let ids: Vec<_> = obs.iter().map(|_| pool.create()).collect();
    for (id, seq) in ids.iter().zip(&obs) {
        for &y in seq {
            pool.push(*id, y).unwrap();
        }
    }
    pool.tick();
    for (id, offline_path) in ids.iter().zip(&offline) {
        pool.flush(*id).unwrap();
        let mut path = Vec::new();
        pool.take_committed(*id, &mut path).unwrap();
        assert_eq!(&path, offline_path);
    }
}

#[test]
fn supervised_trainer_streams_its_own_decoding() {
    let labeled = vec![
        (vec![0, 1, 0, 1, 1], vec![0usize, 1, 0, 1, 1]),
        (vec![1, 0, 1], vec![1usize, 0, 1]),
        (vec![0, 0, 1, 1], vec![0usize, 0, 1, 1]),
    ];
    let trainer = SupervisedDiversifiedHmm::new(SupervisedConfig::default());
    let (model, _) = trainer
        .fit(&labeled, DiscreteEmission::uniform(2, 2).unwrap())
        .unwrap();
    let seqs: Vec<Vec<usize>> = labeled.iter().map(|(_, o)| o.clone()).collect();
    let offline = trainer.decode_all(&model, &seqs).unwrap();
    for (seq, offline_path) in seqs.iter().zip(&offline) {
        let mut dec = trainer.streaming_decoder(&model, seq.len()).unwrap();
        let mut path = Vec::new();
        for y in seq {
            path.extend_from_slice(dec.push(y).committed);
        }
        path.extend_from_slice(dec.flush().committed);
        assert_eq!(&path, offline_path);
    }
}
