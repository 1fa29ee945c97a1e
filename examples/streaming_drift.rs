//! Streaming MCDC (the paper's future-work direction 2): bootstrap the
//! multi-granular structure on a batch, absorb arrivals online, detect
//! distribution drift, and re-fit once the drift trigger fires. Exits with
//! an error when the trigger fires on in-regime arrivals or never fires on
//! shifted ones.
//!
//! Run with: `cargo run --example streaming_drift --release`

use mcdc::core::{Mgcpl, StreamingMcdc};
use mcdc::data::synth::GeneratorConfig;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Phase 1: the initial regime — 3 classes. An arrival counts as poorly
    // matched when its best similarity falls under 0.5; in-regime rows sit
    // far above that, rows from an unrelated regime mostly below it.
    let initial =
        GeneratorConfig::new("regime-a", 600, vec![4; 8], 3).noise(0.08).generate(1).dataset;
    let mut stream = StreamingMcdc::bootstrap(Mgcpl::builder().seed(1).build(), initial.table())?
        .with_drift_threshold(0.5);
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
    if stream.should_refit() {
        return Err("the drift trigger fired on same-regime arrivals".into());
    }

    // Phase 3: the distribution shifts — a new regime with different modes.
    let shifted = GeneratorConfig::new("regime-b", 200, vec![4; 8], 4)
        .noise(0.08)
        .generate(99) // different seed => different class modes
        .dataset;
    let mut fired_at = None;
    for i in 0..200 {
        stream.absorb(shifted.table().row(i));
        fired_at = fired_at.or(stream.should_refit().then_some(i + 1));
    }
    println!(
        "after shifted arrivals:    drift ratio = {:.3}, refit needed = {}",
        stream.drift_ratio(),
        stream.should_refit()
    );
    match fired_at {
        Some(n) if stream.should_refit() => {
            println!("drift trigger first fired after {n} shifted arrivals");
        }
        _ => return Err("the drift trigger did not fire on shifted arrivals".into()),
    }

    // Phase 4: the trigger fired — re-fit over everything seen so far.
    stream.refit()?;
    println!(
        "refit: kappa = {:?} over {} granularities ({} objects total)",
        stream.kappa(),
        stream.sigma(),
        stream.n_seen()
    );
    Ok(())
}
