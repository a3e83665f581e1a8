//! Protocol categories (A), (B), (C) from Sect. V-B of the paper.
//!
//! The category determines which sufficient conditions are used to establish
//! almost-sure termination:
//!
//! * **(A)** — no "decide" action: conditions `(C1)` and `(C2)`.
//! * **(B)** — a "decide" action and purely binary messages: conditions
//!   `(C1)` and `(C2')`.
//! * **(C)** — a "decide" action plus a Binary Crusader Agreement primitive:
//!   the binding conditions `(CB0)`–`(CB4)` (which imply `(C1)`) plus
//!   `(C2')`.

use std::fmt;

/// The design category of a common-coin consensus protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProtocolCategory {
    /// No decide action (e.g. Rabin83 as modelled in the paper).
    A,
    /// Decide action with binary-only messages (e.g. CC85, FMR05, KS16).
    B,
    /// Decide action built on Binary Crusader Agreement (e.g. MMR14,
    /// Miller18, ABY22).
    C,
}

impl ProtocolCategory {
    /// Short label used in tables ("(A)", "(B)", "(C)").
    pub fn label(self) -> &'static str {
        match self {
            ProtocolCategory::A => "(A)",
            ProtocolCategory::B => "(B)",
            ProtocolCategory::C => "(C)",
        }
    }
}

impl fmt::Display for ProtocolCategory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels() {
        assert_eq!(ProtocolCategory::A.label(), "(A)");
        assert_eq!(format!("{}", ProtocolCategory::C), "(C)");
    }
}
