//! # dhmm-data
//!
//! Dataset generators and containers for the diversified-HMM experiments.
//!
//! The paper evaluates on three datasets, two of which are not freely
//! redistributable (the Penn Treebank WSJ corpus and the MIT/Kassel OCR
//! handwriting set). This crate builds faithful synthetic stand-ins plus the
//! paper's own synthetic toy data:
//!
//! * [`toy`] — the §4.1 toy experiment: a 5-state Gaussian-emission HMM with
//!   the paper's initial distribution, a diverse ground-truth transition
//!   matrix, means `1..5` and a sweepable emission variance,
//! * [`pos`] — a synthetic WSJ-like corpus: 15 merged PoS tags with the
//!   frequencies of the paper's Table 2, a structured tag-transition matrix,
//!   a Zipf-distributed vocabulary of ≈10K word types and 3828 sentences of
//!   length 2–250,
//! * [`ocr`] — a synthetic handwriting corpus: 26 lowercase letters rendered
//!   as 16×8 binary glyphs with per-sample distortions, words of length
//!   1–14 drawn from a letter-bigram chain fitted to an embedded word list,
//! * [`corpus`] — shared containers (labeled corpora, train/test splits),
//! * [`io`] — plain-text persistence of corpora and matrices for inspection.
//!
//! Each generator's module doc lists the statistics of the original data it
//! keeps — the ones the dHMM experiments actually measure — which is why
//! the substitution preserves the behaviour under test.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod corpus;
pub mod io;
pub mod ocr;
pub mod pos;
pub mod toy;

pub use corpus::{LabeledCorpus, TrainTestSplit};
pub use ocr::{OcrConfig, OcrDataset, GLYPH_COLS, GLYPH_DIM, GLYPH_ROWS, NUM_LETTERS};
pub use pos::{PosConfig, PosCorpus, NUM_TAGS};
pub use toy::{ToyConfig, ToyDataset};
