//! The four §4 strategies as one value: what a synopsis is configured
//! with, and the facts every construction route derives from it.

use serde::{Deserialize, Serialize};

use engine::StratifiedInput;
use relation::Relation;

use crate::alloc::{AllocationStrategy, BasicCongress, Congress, House, Senate};
use crate::error::Result;
use crate::sample::CongressionalSample;

/// Which §4 allocation strategy backs a sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SamplingStrategy {
    /// Uniform sample of the relation (§4.3).
    House,
    /// Equal space per finest group (§4.4).
    Senate,
    /// max(House, Senate) scaled (§4.5).
    BasicCongress,
    /// Full lattice maximum (§4.6) — the paper's recommendation.
    Congress,
}

impl SamplingStrategy {
    /// All four, in the paper's presentation order.
    pub fn all() -> [SamplingStrategy; 4] {
        [
            SamplingStrategy::House,
            SamplingStrategy::Senate,
            SamplingStrategy::BasicCongress,
            SamplingStrategy::Congress,
        ]
    }

    /// The census-route allocator.
    pub fn allocator(self) -> &'static dyn AllocationStrategy {
        match self {
            SamplingStrategy::House => &House,
            SamplingStrategy::Senate => &Senate,
            SamplingStrategy::BasicCongress => &BasicCongress,
            SamplingStrategy::Congress => &Congress,
        }
    }

    /// Display name matching the paper's figures (the allocator's), which
    /// every sample of this strategy reports as its strategy name.
    pub fn name(self) -> &'static str {
        self.allocator().name()
    }

    /// `sample` over `rel` as the engine's stratified input: House is
    /// scaled as a plain uniform sample (Figure 2's 100×), the others
    /// post-stratified.
    pub fn stratified_input(
        self,
        sample: &CongressionalSample,
        rel: &Relation,
    ) -> Result<StratifiedInput> {
        match self {
            SamplingStrategy::House => sample.to_stratified_input_uniform(rel),
            _ => sample.to_stratified_input(rel),
        }
    }

    /// Stable lowercase token used by the CLI.
    pub fn token(self) -> &'static str {
        match self {
            SamplingStrategy::House => "house",
            SamplingStrategy::Senate => "senate",
            SamplingStrategy::BasicCongress => "basic",
            SamplingStrategy::Congress => "congress",
        }
    }

    /// Parse a [`Self::token`] back; the error names the valid tokens.
    pub fn from_token(token: &str) -> std::result::Result<SamplingStrategy, String> {
        SamplingStrategy::all()
            .into_iter()
            .find(|s| s.token() == token)
            .ok_or_else(|| format!("unknown strategy `{token}` (house|senate|basic|congress)"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_token_names_the_valid_ones() {
        assert_eq!(
            SamplingStrategy::from_token("zzz").unwrap_err(),
            "unknown strategy `zzz` (house|senate|basic|congress)"
        );
    }
}
