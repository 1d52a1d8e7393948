//! The algorithm selector every executor shares.

use serde::{Deserialize, Serialize};

/// Which ACQ algorithm to run. The index-free baselines ignore the CL-tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum AcqAlgorithm {
    /// Index-free: structure first, keywords second (Algorithm 5).
    BasicG,
    /// Index-free: keywords first, structure second (Algorithm 6).
    BasicW,
    /// Incremental, space-efficient (Algorithm 2).
    IncS,
    /// `Inc-S` without inverted lists (the paper's `Inc-S*` ablation).
    IncSStar,
    /// Incremental, time-efficient (Algorithm 3).
    IncT,
    /// `Inc-T` without inverted lists (the paper's `Inc-T*` ablation).
    IncTStar,
    /// Decremental with FP-Growth candidate generation (Algorithm 4) — the
    /// paper's fastest algorithm and this crate's default.
    #[default]
    Dec,
}

impl AcqAlgorithm {
    /// All algorithm variants, in the order the paper's figures list them.
    pub const ALL: [AcqAlgorithm; 7] = [
        AcqAlgorithm::BasicG,
        AcqAlgorithm::BasicW,
        AcqAlgorithm::IncS,
        AcqAlgorithm::IncSStar,
        AcqAlgorithm::IncT,
        AcqAlgorithm::IncTStar,
        AcqAlgorithm::Dec,
    ];

    /// The display name used in experiment output (matches the paper).
    pub fn name(&self) -> &'static str {
        match self {
            AcqAlgorithm::BasicG => "basic-g",
            AcqAlgorithm::BasicW => "basic-w",
            AcqAlgorithm::IncS => "Inc-S",
            AcqAlgorithm::IncSStar => "Inc-S*",
            AcqAlgorithm::IncT => "Inc-T",
            AcqAlgorithm::IncTStar => "Inc-T*",
            AcqAlgorithm::Dec => "Dec",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn algorithm_names_match_paper() {
        assert_eq!(AcqAlgorithm::Dec.name(), "Dec");
        assert_eq!(AcqAlgorithm::BasicG.name(), "basic-g");
        assert_eq!(AcqAlgorithm::IncSStar.name(), "Inc-S*");
        assert_eq!(AcqAlgorithm::default(), AcqAlgorithm::Dec);
    }
}
