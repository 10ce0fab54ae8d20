//! Configuration of the Affidavit search.
//!
//! The two named constructors correspond to the configurations evaluated in
//! Table 2 of the paper:
//!
//! * [`AffidavitConfig::paper_id`] — start states `H^id`, β = 2, ϱ = 5.
//! * [`AffidavitConfig::paper_overlap`] — start state `Hs` from overlap
//!   scores (max block size 100 000), β = 1, ϱ = 1 (a greedy search).
//!
//! Both use α = 0.5, θ = 0.1 and ρ = 0.95.

use affidavit_functions::Registry;
use affidavit_table::resolve_threads;
use serde::{Deserialize, Serialize};

/// How the set of start states `H0` is chosen (§4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum InitStrategy {
    /// `H^∅ = {(∗, …, ∗)}` — no assumptions.
    Empty,
    /// `H^id` — one start state per attribute, each assuming that attribute
    /// unchanged.
    Id,
    /// `Hs` — a single start state from overlap-score a-priori matching.
    Overlap,
}

/// Tunable parameters of Algorithm 1.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AffidavitConfig {
    /// Cost balance α ∈ [0, 1] between unexplained records and function
    /// complexity (Def. 3.10). Paper default 0.5.
    pub alpha: f64,
    /// Branching factor β: number of attributes polled per extension and
    /// number of function candidates kept per attribute.
    pub beta: usize,
    /// Queue width ϱ: level `i` of the search lattice holds at most
    /// `max(1, ϱ − i + 1)` states (§4.6).
    pub queue_width: usize,
    /// Estimated fraction θ of target records in which the effect of the
    /// optimal function is visible (§4.4.2). Paper default 0.1.
    pub theta: f64,
    /// Confidence level ρ for the sampling guarantees. Paper default 0.95.
    pub confidence: f64,
    /// Start-state strategy.
    pub init: InitStrategy,
    /// Maximum source×target pairs a single value may generate during
    /// overlap matching (`Hs` only). Paper default 100 000.
    pub max_block_size: usize,
    /// Minimum number of times a candidate must be generated to survive
    /// filtering — the "statistically significant amount" the binomial
    /// sizing targets (`P(X ≥ 5) ≥ ρ`, §4.4.2; see
    /// `stats::induction_sample_size`).
    pub min_support: u32,
    /// Cap on distinct source values examined per sampled target during
    /// induction (implementation safeguard for degenerate huge blocks).
    pub max_examples_per_target: usize,
    /// Enabled meta functions.
    pub registry: Registry,
    /// Also retrieve candidates from the built-in function corpus (the §6
    /// TDE-style future-work extension). Off by default — the paper's
    /// configurations use induction only.
    pub use_corpus: bool,
    /// RNG seed — all sampling is deterministic given the seed.
    pub seed: u64,
    /// Safety valve: maximum number of state expansions before the best
    /// state found so far is finalized into an explanation.
    pub max_expansions: usize,
    /// Record a search trace (Figure 4) — costs a little memory.
    pub trace: bool,
    /// Worker threads for the ordered attribute scan of each state
    /// expansion: above one resolved thread, every expansion fans its
    /// attributes out across that many workers; `1` (the default) runs
    /// fully sequentially on the calling thread; `0` means "one per
    /// hardware thread". Everything else — ordering, start states and ⊞
    /// finalize — runs on the calling thread. Results are identical at
    /// every thread count: each attribute's induction/ranking runs on a
    /// per-attribute seeded RNG and the extensions are merged in a stable
    /// order.
    pub threads: usize,
}

impl Default for AffidavitConfig {
    fn default() -> Self {
        AffidavitConfig::paper_id()
    }
}

impl AffidavitConfig {
    /// The robust `H^id` configuration of Table 2 (β = 2, ϱ = 5).
    pub fn paper_id() -> AffidavitConfig {
        AffidavitConfig {
            alpha: 0.5,
            beta: 2,
            queue_width: 5,
            theta: 0.1,
            confidence: 0.95,
            init: InitStrategy::Id,
            max_block_size: 100_000,
            min_support: 5,
            max_examples_per_target: 1_000,
            registry: Registry::default(),
            use_corpus: false,
            seed: 0xEDB7_2020,
            max_expansions: 10_000,
            trace: false,
            threads: 1,
        }
    }

    /// The fast `Hs` configuration of Table 2 (overlap start state, β = 1,
    /// ϱ = 1 — a greedy search without backtracking).
    pub fn paper_overlap() -> AffidavitConfig {
        AffidavitConfig {
            beta: 1,
            queue_width: 1,
            init: InitStrategy::Overlap,
            ..AffidavitConfig::paper_id()
        }
    }

    /// Replace the seed (builder style).
    pub fn with_seed(mut self, seed: u64) -> AffidavitConfig {
        self.seed = seed;
        self
    }

    /// Replace α (builder style).
    pub fn with_alpha(mut self, alpha: f64) -> AffidavitConfig {
        assert!((0.0..=1.0).contains(&alpha), "alpha must be in [0, 1]");
        self.alpha = alpha;
        self
    }

    /// Enable search tracing (builder style).
    pub fn with_trace(mut self) -> AffidavitConfig {
        self.trace = true;
        self
    }

    /// Set the extension worker-thread count (builder style); `0` means
    /// one worker per hardware thread.
    pub fn with_threads(mut self, threads: usize) -> AffidavitConfig {
        self.threads = threads;
        self
    }

    /// Reject a configuration the search cannot run: a thread count above
    /// [`MAX_THREADS`], or α, θ or ρ outside the domain the cost model
    /// and the sample sizing assume. Both paper configurations pass.
    pub fn validate(&self) -> Result<(), ConfigError> {
        check_threads(self.threads)?;
        let open = |x: f64| x > 0.0 && x < 1.0;
        let (field, value, domain) = if !(0.0..=1.0).contains(&self.alpha) {
            ("alpha", self.alpha, "[0, 1]")
        } else if !open(self.theta) {
            ("theta", self.theta, "(0, 1)")
        } else if !open(self.confidence) {
            ("confidence", self.confidence, "(0, 1)")
        } else {
            return Ok(());
        };
        Err(ConfigError::OutOfRange {
            field,
            value,
            domain,
        })
    }

    /// The worker-thread count this configuration resolves to: `threads`
    /// itself, or — when `threads == 0` ("one per hardware thread") —
    /// [`std::thread::available_parallelism`].
    pub fn effective_threads(&self) -> usize {
        resolve_threads(self.threads)
    }
}

pub use affidavit_table::MAX_THREADS;

/// A configuration value outside its domain — what
/// [`AffidavitConfig::validate`] and [`check_threads`] reject.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ConfigError {
    /// A parallelism request above [`MAX_THREADS`].
    TooManyThreads {
        /// The rejected count.
        requested: usize,
    },
    /// A real-valued parameter outside its domain (NaN included).
    OutOfRange {
        /// The configuration field.
        field: &'static str,
        /// The rejected value.
        value: f64,
        /// The accepted interval, in interval notation.
        domain: &'static str,
    },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::TooManyThreads { requested } => {
                write!(
                    f,
                    "threads {requested} is above the ceiling of {MAX_THREADS}"
                )
            }
            ConfigError::OutOfRange {
                field,
                value,
                domain,
            } => write!(f, "{field} {value:?} is outside {domain}"),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Check a parallelism request against [`MAX_THREADS`]; `0` ("one per
/// hardware thread") always passes.
pub fn check_threads(requested: usize) -> Result<(), ConfigError> {
    if requested > MAX_THREADS {
        return Err(ConfigError::TooManyThreads { requested });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_configs() {
        let id = AffidavitConfig::paper_id();
        assert_eq!((id.beta, id.queue_width), (2, 5));
        assert_eq!(id.init, InitStrategy::Id);
        let ov = AffidavitConfig::paper_overlap();
        assert_eq!((ov.beta, ov.queue_width), (1, 1));
        assert_eq!(ov.init, InitStrategy::Overlap);
        assert_eq!(ov.max_block_size, 100_000);
        for c in [&id, &ov] {
            assert_eq!(c.alpha, 0.5);
            assert_eq!(c.theta, 0.1);
            assert_eq!(c.confidence, 0.95);
            assert_eq!(c.effective_threads(), 1);
        }
        assert_eq!(
            AffidavitConfig::paper_id()
                .with_threads(0)
                .effective_threads(),
            resolve_threads(0)
        );
    }

    #[test]
    #[should_panic]
    fn alpha_out_of_range_panics() {
        let _ = AffidavitConfig::paper_id().with_alpha(1.5);
    }

    #[test]
    fn validate_rejects_out_of_domain_values_only() {
        assert_eq!(check_threads(MAX_THREADS), Ok(()));
        assert_eq!(
            check_threads(99_999_999_999),
            Err(ConfigError::TooManyThreads {
                requested: 99_999_999_999
            })
        );
        for cfg in [
            AffidavitConfig::paper_id(),
            AffidavitConfig::paper_overlap(),
        ] {
            assert_eq!(cfg.validate(), Ok(()));
        }
        let bad: [fn(&mut AffidavitConfig); 5] = [
            |c| c.threads = MAX_THREADS + 1,
            |c| c.alpha = 1e308,
            |c| c.theta = 0.0,
            |c| c.theta = f64::NAN,
            |c| c.confidence = 1.0,
        ];
        for edit in bad {
            let mut cfg = AffidavitConfig::paper_id();
            edit(&mut cfg);
            assert!(cfg.validate().is_err(), "{cfg:?}");
        }
    }
}
