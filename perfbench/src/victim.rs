//! The victim model and its monitored test images, built from the
//! public dataset, model and training functions the pipeline itself
//! uses, with the pipeline's seed derivations.

use crate::trace;
use scnn_core::{ExperimentConfig, ModelScale};
use scnn_data::mnist_synth::{self, MnistSynthConfig};
use scnn_data::Dataset;
use scnn_nn::train::{accuracy, train, TrainReport};
use scnn_nn::{models, Network};
use std::error::Error;
use std::time::Instant;

/// A trained MNIST victim and the images the evaluator monitors.
pub struct Victim {
    /// The trained network.
    pub net: Network,
    /// The training report (part of the model artifact).
    pub train_report: TrainReport,
    /// Test accuracy (part of the model artifact).
    pub test_accuracy: f64,
    /// The monitored categories of the test set, re-labelled `0..k`.
    pub monitored: Dataset,
    /// Seconds spent synthesising the train and test sets.
    pub synth_s: f64,
    /// Seconds spent in `scnn_nn::train` and the accuracy pass.
    pub train_s: f64,
}

/// Image side of an MNIST experiment at `scale`.
fn image_side(scale: ModelScale) -> usize {
    match scale {
        ModelScale::Paper => mnist_synth::SIDE,
        ModelScale::Tiny => 12,
    }
}

fn synth(cfg: &ExperimentConfig, per_class: usize, seed: u64) -> Result<Dataset, Box<dyn Error>> {
    let _span = trace::span("data.synth");
    Ok(mnist_synth::generate(
        &MnistSynthConfig {
            per_class,
            side: image_side(cfg.scale),
            ..MnistSynthConfig::default()
        },
        seed,
    )?)
}

/// The seed the pipeline synthesises an experiment's test set from.
pub fn test_seed(cfg: &ExperimentConfig) -> u64 {
    cfg.seed ^ 0xFACE
}

/// Synthesises the datasets and trains the model of an MNIST
/// experiment, drawing the test set from `test_seed`.
///
/// # Errors
///
/// Returns dataset or training errors.
pub fn build(cfg: &ExperimentConfig, test_seed: u64) -> Result<Victim, Box<dyn Error>> {
    let start = Instant::now();
    let train_set = synth(cfg, cfg.train_per_class, cfg.seed)?;
    let test_set = synth(cfg, cfg.test_per_class, test_seed)?;
    let synth_s = start.elapsed().as_secs_f64();

    let start = Instant::now();
    let _span = trace::span("nn.train");
    let model_seed = cfg.seed ^ 0xBEEF;
    let mut net = match cfg.scale {
        ModelScale::Paper => models::mnist_cnn(model_seed),
        ModelScale::Tiny => models::small_cnn(1, image_side(cfg.scale), 10, model_seed),
    };
    let train_report = train(&mut net, &train_set.to_samples(), &cfg.train)?;
    let test_accuracy = accuracy(&mut net, &test_set.to_samples())?;
    let train_s = start.elapsed().as_secs_f64();

    Ok(Victim {
        net,
        train_report,
        test_accuracy,
        monitored: test_set.select_classes(&cfg.categories),
        synth_s,
        train_s,
    })
}
