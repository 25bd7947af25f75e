//! The four parallel execution strategies (§3).

use std::fmt;

use mj_relalg::JoinAlgorithm;

/// A parallelization strategy for a multi-join query tree.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// Sequential Parallel: joins run one after another, each on *all*
    /// processors. No inter-operator parallelism, no pipelining, no cost
    /// function needed. (§3.1)
    SP,
    /// Synchronous Execution: independent subtrees run concurrently on
    /// processor subsets sized proportionally to subtree work, so that
    /// operands become ready at the same time \[CYW92\]. (§3.2)
    SE,
    /// Segmented Right-Deep: the tree is decomposed into right-deep
    /// segments; within a segment all hash tables build concurrently and a
    /// probe pipeline runs bottom-up; independent segments run concurrently
    /// \[CLY92\]. (§3.3)
    RD,
    /// Full Parallel: every join gets a private processor subset sized
    /// proportionally to its work and all joins run at once, pipelining
    /// along both operands via the pipelining hash join \[WiA91\]. (§3.4)
    FP,
}

impl Strategy {
    /// All strategies in the paper's presentation order.
    pub const ALL: [Strategy; 4] = [Strategy::SP, Strategy::SE, Strategy::RD, Strategy::FP];

    /// The hash-join algorithm the strategy mandates (§3): FP needs the
    /// pipelining join; the others use the simple join.
    pub fn join_algorithm(&self) -> JoinAlgorithm {
        match self {
            Strategy::FP => JoinAlgorithm::Pipelining,
            _ => JoinAlgorithm::Simple,
        }
    }

    /// Short name as used in the paper's figures.
    pub fn label(&self) -> &'static str {
        match self {
            Strategy::SP => "SP",
            Strategy::SE => "SE",
            Strategy::RD => "RD",
            Strategy::FP => "FP",
        }
    }
}

impl fmt::Display for Strategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn algorithms_match_the_paper() {
        assert_eq!(Strategy::SP.join_algorithm(), JoinAlgorithm::Simple);
        assert_eq!(Strategy::SE.join_algorithm(), JoinAlgorithm::Simple);
        assert_eq!(Strategy::RD.join_algorithm(), JoinAlgorithm::Simple);
        assert_eq!(Strategy::FP.join_algorithm(), JoinAlgorithm::Pipelining);
    }

    #[test]
    fn labels() {
        let labels: Vec<&str> = Strategy::ALL.iter().map(|s| s.label()).collect();
        assert_eq!(labels, vec!["SP", "SE", "RD", "FP"]);
        assert_eq!(Strategy::FP.to_string(), "FP");
    }
}
