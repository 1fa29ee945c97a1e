//! Seeded row corruption for exercising the streaming `try_absorb` trust
//! boundary (DESIGN.md §11).
//!
//! A [`RowCorruptor`] answers, for each arrival index, which corruption
//! (if any) hits the row, and applies it in place. The answer is derived
//! by hashing the corruptor's seed with the arrival coordinates
//! (SplitMix64 finalizer), so it is:
//!
//! * **replayable** — the same seed corrupts the same arrival the same
//!   way on every run and machine (no wall clock, no global RNG);
//! * **independent per arrival** — each arrival draws its own hash, so
//!   the verdict for one row never depends on the rows before it.
//!
//! The three corruption classes fire at fixed rates ([`TRUNCATION_RATE`],
//! [`OUT_OF_DOMAIN_RATE`], [`MISSING_FLOOD_RATE`]); only the seed varies.

use categorical_data::MISSING;

/// Per-arrival probability that a row is truncated (arity mismatch).
pub const TRUNCATION_RATE: f64 = 0.08;

/// Per-arrival probability that one code is replaced by an out-of-domain
/// value.
pub const OUT_OF_DOMAIN_RATE: f64 = 0.15;

/// Per-arrival probability that a row is flooded with MISSING values.
pub const MISSING_FLOOD_RATE: f64 = 0.08;

/// Which corruption, if any, hits one arrival before it reaches the
/// absorb boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowFault {
    /// The row arrives intact.
    Clean,
    /// The row arrives with trailing features sheared off (arity
    /// mismatch): a truncated record, the classic wire-format failure.
    Truncate,
    /// One value code is replaced by a code outside every fitted domain:
    /// an unseen category, a re-encoded upstream vocabulary, or plain
    /// bit rot.
    OutOfDomain,
    /// Most of the row's values are blanked to [`MISSING`]. The row stays
    /// *admissible* (MISSING is always legal) — this class stresses
    /// quality degradation and drift accounting, not rejection.
    MissingFlood,
}

/// A deterministic, seeded row-corruption schedule.
///
/// ```
/// use mcdc_bench::corrupt::{RowCorruptor, RowFault};
///
/// let corruptor = RowCorruptor::seeded(7);
/// let (mut a, mut b) = (vec![1u32, 2, 3], vec![1u32, 2, 3]);
/// // Pure and replayable: the same arrival is always corrupted the same way.
/// let fault = corruptor.corrupt_row(3, &mut a);
/// assert_eq!(fault, corruptor.corrupt_row(3, &mut b));
/// assert_eq!(a, b);
/// if fault == RowFault::Clean {
///     assert_eq!(a, [1, 2, 3]);
/// }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RowCorruptor {
    seed: u64,
}

impl RowCorruptor {
    /// A corruptor drawing its schedule from `seed`.
    #[must_use]
    pub fn seeded(seed: u64) -> Self {
        RowCorruptor { seed }
    }

    /// The fate of `arrival` (0-based arrival index at the absorb
    /// boundary). Truncation takes precedence over out-of-domain
    /// substitution, then MISSING flooding — each class draws its own
    /// independent channel.
    #[must_use]
    pub fn fault(&self, arrival: u64) -> RowFault {
        if self.draw(5, arrival, 0) < TRUNCATION_RATE {
            return RowFault::Truncate;
        }
        if self.draw(6, arrival, 0) < OUT_OF_DOMAIN_RATE {
            return RowFault::OutOfDomain;
        }
        if self.draw(7, arrival, 0) < MISSING_FLOOD_RATE {
            return RowFault::MissingFlood;
        }
        RowFault::Clean
    }

    /// Applies [`fault`](Self::fault)'s verdict for `arrival` to `row` in
    /// place and returns it, so a driver can corrupt a clean stream
    /// deterministically: same seed, same arrival index, same row → same
    /// corrupted bytes, on every machine and run.
    ///
    /// * [`RowFault::Truncate`] shears the row to a seeded shorter length
    ///   (always strictly shorter, so the arity check must fire).
    /// * [`RowFault::OutOfDomain`] overwrites one seeded position with a
    ///   code near `u32::MAX` — far outside any realistic domain, and
    ///   never equal to [`MISSING`].
    /// * [`RowFault::MissingFlood`] blanks each position to MISSING with
    ///   high seeded probability, at least one always; the row stays
    ///   admissible.
    ///
    /// Empty rows are returned untouched (there is nothing to corrupt).
    pub fn corrupt_row(&self, arrival: u64, row: &mut Vec<u32>) -> RowFault {
        let fault = self.fault(arrival);
        if row.is_empty() {
            return fault;
        }
        let len = row.len();
        match fault {
            RowFault::Clean => {}
            RowFault::Truncate => {
                let keep = (self.draw(8, arrival, 0) * len as f64) as usize;
                row.truncate(keep.min(len - 1));
            }
            RowFault::OutOfDomain => {
                let pos = ((self.draw(9, arrival, 0) * len as f64) as usize).min(len - 1);
                let jitter = (self.draw(10, arrival, 0) * 256.0) as u32;
                // Near-u32::MAX, never MISSING (u32::MAX itself): out of
                // every fitted domain a generator can produce.
                row[pos] = u32::MAX - 1 - jitter;
            }
            RowFault::MissingFlood => {
                for (r, code) in row.iter_mut().enumerate() {
                    if self.draw(11, arrival, r) < 0.8 {
                        *code = MISSING;
                    }
                }
                let force = ((self.draw(12, arrival, 0) * len as f64) as usize).min(len - 1);
                row[force] = MISSING;
            }
        }
        fault
    }

    /// Uniform draw in `[0, 1)` from the hash of
    /// `(seed, tag, arrival, position)`. The tag separates the corruption
    /// channels so e.g. the truncation and out-of-domain draws of one
    /// arrival are independent.
    fn draw(&self, tag: u64, arrival: u64, position: usize) -> f64 {
        let mut h = self.seed ^ 0x9E37_79B9_7F4A_7C15;
        // The trailing 0 keeps the hash input four words wide: the
        // schedules behind the ingest counters in `BENCH_faults.json` and
        // `PERF_GATES.toml` hash exactly these words.
        for v in [tag, arrival, position as u64, 0] {
            h = splitmix(h ^ v.wrapping_mul(0xA24B_AED4_963E_E407));
        }
        // Top 53 bits → the full f64 mantissa.
        (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// SplitMix64 finalizer: a full-avalanche 64-bit mix.
fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ingest_corruption_is_deterministic_and_rate_honoring() {
        let corruptor = RowCorruptor::seeded(9);
        let base = vec![1u32, 2, 3, 0, 1];
        let mut kinds = [0usize; 4];
        for arrival in 0..400u64 {
            let mut row = base.clone();
            let mut again = base.clone();
            let fault = corruptor.corrupt_row(arrival, &mut row);
            let fault2 = corruptor.corrupt_row(arrival, &mut again);
            assert_eq!(fault, fault2);
            assert_eq!(row, again, "same coordinates must corrupt identically");
            match fault {
                RowFault::Clean => {
                    kinds[0] += 1;
                    assert_eq!(row, base);
                }
                RowFault::Truncate => {
                    kinds[1] += 1;
                    assert!(row.len() < base.len());
                }
                RowFault::OutOfDomain => {
                    kinds[2] += 1;
                    assert_eq!(row.len(), base.len());
                    assert!(row.iter().any(|&c| c != MISSING && c > 0x8000_0000));
                }
                RowFault::MissingFlood => {
                    kinds[3] += 1;
                    assert!(row.contains(&MISSING));
                }
            }
        }
        // Every class fires, and clean rows survive.
        assert!(kinds.iter().all(|&c| c > 0), "class mix {kinds:?}");
        // Empty rows have nothing to corrupt.
        let mut empty = Vec::new();
        for arrival in 0..64u64 {
            corruptor.corrupt_row(arrival, &mut empty);
            assert!(empty.is_empty());
        }
    }

    #[test]
    fn ingest_rates_are_honored() {
        // Each class fires near its rate, discounted by the classes that
        // take precedence over it; different seeds draw different schedules.
        let arrivals = 20_000u64;
        let share = |seed: u64, wanted: RowFault| {
            let corruptor = RowCorruptor::seeded(seed);
            (0..arrivals).filter(|&a| corruptor.fault(a) == wanted).count() as f64 / arrivals as f64
        };
        let truncate = TRUNCATION_RATE;
        let out_of_domain = (1.0 - truncate) * OUT_OF_DOMAIN_RATE;
        let flood = (1.0 - truncate) * (1.0 - OUT_OF_DOMAIN_RATE) * MISSING_FLOOD_RATE;
        for (wanted, rate) in [
            (RowFault::Truncate, truncate),
            (RowFault::OutOfDomain, out_of_domain),
            (RowFault::MissingFlood, flood),
        ] {
            let got = share(3, wanted);
            assert!((got - rate).abs() < 0.01, "{wanted:?}: share {got} vs rate {rate}");
        }
        let schedule = |seed: u64| {
            (0..1000u64).map(|a| RowCorruptor::seeded(seed).fault(a)).collect::<Vec<_>>()
        };
        assert_ne!(schedule(1), schedule(2), "different seeds must draw different schedules");
    }
}
