//! Middleware configuration: sampling strategy, rewrite strategy, space,
//! confidence.

use serde::{Deserialize, Serialize};

pub use congress::SamplingStrategy;

/// Which §5 rewrite the served answers name: it picks the rewritten SQL
/// and the `rewrite` metric label. Every choice is answered from the same
/// per-(group, stratum) moments, so the estimates do not depend on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RewriteChoice {
    /// ScaleFactor column per tuple (Fig 8).
    Integrated,
    /// Nested plan, one multiply per (group × SF) (Fig 11).
    NestedIntegrated,
    /// AuxRel join on grouping columns (Fig 9).
    Normalized,
    /// AuxRel join on integer GID (Fig 10).
    KeyNormalized,
}

impl RewriteChoice {
    /// Display name matching the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            RewriteChoice::Integrated => "Integrated",
            RewriteChoice::NestedIntegrated => "Nested-integrated",
            RewriteChoice::Normalized => "Normalized",
            RewriteChoice::KeyNormalized => "Key-normalized",
        }
    }

    /// All four, in the paper's presentation order.
    pub fn all() -> [RewriteChoice; 4] {
        [
            RewriteChoice::Integrated,
            RewriteChoice::NestedIntegrated,
            RewriteChoice::Normalized,
            RewriteChoice::KeyNormalized,
        ]
    }

    /// Stable lowercase token used by the CLI.
    pub fn token(self) -> &'static str {
        match self {
            RewriteChoice::Integrated => "integrated",
            RewriteChoice::NestedIntegrated => "nested",
            RewriteChoice::Normalized => "normalized",
            RewriteChoice::KeyNormalized => "keynorm",
        }
    }

    /// Parse a [`Self::token`] back.
    pub fn from_token(token: &str) -> crate::Result<RewriteChoice> {
        match token {
            "integrated" => Ok(RewriteChoice::Integrated),
            "nested" => Ok(RewriteChoice::NestedIntegrated),
            "normalized" => Ok(RewriteChoice::Normalized),
            "keynorm" => Ok(RewriteChoice::KeyNormalized),
            other => Err(crate::AquaError::InvalidConfig(format!(
                "unknown rewrite `{other}` (integrated|nested|normalized|keynorm)"
            ))),
        }
    }
}

/// Full middleware configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AquaConfig {
    /// Synopsis space budget, in tuples (the administrator input of §2).
    pub space: usize,
    /// Allocation strategy.
    pub strategy: SamplingStrategy,
    /// Physical rewrite strategy.
    pub rewrite: RewriteChoice,
    /// Confidence level for error bounds (Aqua's default demo uses 90%).
    pub confidence: f64,
    /// RNG seed for sampling decisions.
    pub seed: u64,
    /// Worker threads for synopsis construction: `0` = use all available
    /// cores, `1` = strictly sequential. Any value produces the identical
    /// synopsis for a given `seed` (per-group RNG streams are derived from
    /// the seed, never from scheduling).
    pub parallelism: usize,
}

impl Default for AquaConfig {
    fn default() -> Self {
        AquaConfig {
            space: 10_000,
            strategy: SamplingStrategy::Congress,
            rewrite: RewriteChoice::NestedIntegrated,
            confidence: 0.9,
            seed: 0x4151_5541, // "AQUA"
            parallelism: 0,
        }
    }
}

impl AquaConfig {
    /// The concrete thread count `parallelism` resolves to (`0` → all
    /// available cores).
    pub fn effective_parallelism(&self) -> usize {
        if self.parallelism == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            self.parallelism
        }
    }

    /// Validate the configuration.
    pub fn validate(&self) -> crate::Result<()> {
        if self.space == 0 {
            return Err(crate::AquaError::InvalidConfig(
                "space budget must be positive".into(),
            ));
        }
        if self.confidence.is_nan() || self.confidence <= 0.0 || self.confidence >= 1.0 {
            return Err(crate::AquaError::InvalidConfig(format!(
                "confidence must be in (0, 1), got {}",
                self.confidence
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        assert!(AquaConfig::default().validate().is_ok());
    }

    #[test]
    fn rejects_bad_values() {
        let c = AquaConfig {
            space: 0,
            ..AquaConfig::default()
        };
        assert!(c.validate().is_err());
        let mut c = AquaConfig {
            confidence: 1.0,
            ..AquaConfig::default()
        };
        assert!(c.validate().is_err());
        c.confidence = -0.1;
        assert!(c.validate().is_err());
    }

    #[test]
    fn effective_parallelism_resolves_zero_to_cores() {
        let auto = AquaConfig::default();
        assert!(auto.effective_parallelism() >= 1);
        let fixed = AquaConfig {
            parallelism: 3,
            ..AquaConfig::default()
        };
        assert_eq!(fixed.effective_parallelism(), 3);
    }

    #[test]
    fn names_match_paper() {
        assert_eq!(SamplingStrategy::BasicCongress.name(), "Basic Congress");
        assert_eq!(RewriteChoice::KeyNormalized.name(), "Key-normalized");
        assert_eq!(SamplingStrategy::all().len(), 4);
        assert_eq!(RewriteChoice::all().len(), 4);
    }

    #[test]
    fn tokens_round_trip() {
        for s in SamplingStrategy::all() {
            assert_eq!(SamplingStrategy::from_token(s.token()).unwrap(), s);
        }
        for r in RewriteChoice::all() {
            assert_eq!(RewriteChoice::from_token(r.token()).unwrap(), r);
        }
        assert!(SamplingStrategy::from_token("zzz").is_err());
        assert!(RewriteChoice::from_token("zzz").is_err());
    }
}
