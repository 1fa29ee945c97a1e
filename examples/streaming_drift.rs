//! Streaming MCDC (the paper's future-work direction 2): bootstrap the
//! multi-granular structure on a batch, absorb arrivals online, detect
//! distribution drift, and re-fit.
//!
//! Run with: `cargo run --example streaming_drift --release`

use mcdc::core::{Mgcpl, StreamingMcdc};
use mcdc::data::synth::GeneratorConfig;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Phase 1: the initial regime — 3 classes.
    let initial =
        GeneratorConfig::new("regime-a", 600, vec![4; 8], 3).noise(0.08).generate(1).dataset;
    let mut stream = StreamingMcdc::bootstrap(Mgcpl::builder().seed(1).build(), initial.table())?
        .with_drift_threshold(0.35);
    println!("bootstrap: kappa = {:?}, {} objects", stream.kappa(), stream.n_seen());

    // Phase 2: arrivals from the same regime — absorbed cheaply, no drift.
    let same = GeneratorConfig::new("regime-a2", 200, vec![4; 8], 3)
        .noise(0.08)
        .generate(1) // same seed => same class modes
        .dataset;
    for i in 0..200 {
        stream.absorb(same.table().row(i));
    }
    println!(
        "after same-regime arrivals: drift ratio = {:.3}, refit needed = {}",
        stream.drift_ratio(),
        stream.should_refit()
    );

    // Phase 3: the distribution shifts — a new regime with different modes.
    let shifted = GeneratorConfig::new("regime-b", 200, vec![4; 8], 4)
        .noise(0.08)
        .generate(99) // different seed => different class modes
        .dataset;
    for i in 0..200 {
        stream.absorb(shifted.table().row(i));
    }
    println!(
        "after shifted arrivals:    drift ratio = {:.3}, refit needed = {}",
        stream.drift_ratio(),
        stream.should_refit()
    );

    // Phase 4: re-fit over everything seen so far.
    stream.refit()?;
    println!(
        "refit: kappa = {:?} over {} granularities ({} objects total)",
        stream.kappa(),
        stream.sigma(),
        stream.n_seen()
    );
    Ok(())
}
