//! Shared variables and coin variables.
//!
//! The variable set `V` of a model is partitioned into shared variables `Γ`
//! (message counters incremented by correct processes) and coin variables `Ω`
//! (written only by the common-coin automaton, read by correct processes via
//! coin guards).

use std::fmt;

/// Index of a variable inside a [`crate::SystemModel`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VarId(pub usize);

impl fmt::Display for VarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0)
    }
}

/// Whether a variable belongs to the shared set `Γ` or the coin set `Ω`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VarKind {
    /// A shared message counter, incremented by correct-process rules.
    Shared,
    /// A coin variable, incremented by the common-coin automaton and tested
    /// by coin guards of correct processes.
    Coin,
}

impl fmt::Display for VarKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VarKind::Shared => f.write_str("shared"),
            VarKind::Coin => f.write_str("coin"),
        }
    }
}

/// A declared variable.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Variable {
    name: String,
    kind: VarKind,
}

impl Variable {
    /// Creates a new variable declaration.
    pub fn new(name: impl Into<String>, kind: VarKind) -> Self {
        Variable {
            name: name.into(),
            kind,
        }
    }

    /// The variable name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Shared or coin.
    pub fn kind(&self) -> VarKind {
        self.kind
    }
}

impl fmt::Display for Variable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({})", self.name, self.kind)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variable_kind_predicates() {
        let s = Variable::new("a0", VarKind::Shared);
        let c = Variable::new("cc0", VarKind::Coin);
        assert_eq!(s.kind(), VarKind::Shared);
        assert_eq!(s.name(), "a0");
        assert_eq!(c.kind(), VarKind::Coin);
    }

    #[test]
    fn display_is_nonempty() {
        let s = Variable::new("a0", VarKind::Shared);
        assert_eq!(format!("{s}"), "a0 (shared)");
        assert_eq!(format!("{}", VarId(3)), "x3");
    }
}
