//! Seed selection for the randomized equivalence suites: each test runs
//! its pinned seeds, or only `DELTA_SEED=<u64>` (decimal or `0x` hex)
//! when that is set, and a failing seed prints the command that replays
//! it.

/// The seeds a test runs: `DELTA_SEED` when set, else `pinned`.
pub fn seeds(pinned: &[u64]) -> Vec<u64> {
    match std::env::var("DELTA_SEED") {
        Err(_) => pinned.to_vec(),
        Ok(s) => {
            let parsed = match s.strip_prefix("0x") {
                Some(hex) => u64::from_str_radix(hex, 16),
                None => s.parse(),
            };
            vec![parsed.unwrap_or_else(|e| panic!("DELTA_SEED=`{s}` is not a u64: {e}"))]
        }
    }
}

/// Prints a `repro:` line for `seed` if the run it guards panics.
pub struct Repro {
    pub seed: u64,
    /// The integration-test target, e.g. `delta_equivalence`.
    pub suite: &'static str,
}

impl Drop for Repro {
    fn drop(&mut self) {
        if std::thread::panicking() {
            eprintln!(
                "repro: DELTA_SEED={:#x} cargo test -p mvrobustness --test {}",
                self.seed, self.suite
            );
        }
    }
}
