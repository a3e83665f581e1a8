//! Locations of threshold automata.
//!
//! A multi-round automaton partitions its locations into border locations
//! `B`, initial locations `I`, intermediate locations, and final locations
//! `F`; a subset of the final locations are decision (accepting) locations
//! `D`.  For binary consensus every border/initial/final location carries a
//! binary value tag so that `I = I0 ⊎ I1`, `F = F0 ⊎ F1`, `B = B0 ⊎ B1`
//! (Sect. III-B(b) of the paper).

use std::fmt;

/// Index of a location inside a [`crate::SystemModel`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LocId(pub usize);

impl fmt::Display for LocId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "l{}", self.0)
    }
}

/// A binary consensus value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum BinValue {
    /// Value 0.
    Zero,
    /// Value 1.
    One,
}

impl BinValue {
    /// Both binary values, in order.
    pub const ALL: [BinValue; 2] = [BinValue::Zero, BinValue::One];

    /// The other value.
    pub fn flip(self) -> BinValue {
        match self {
            BinValue::Zero => BinValue::One,
            BinValue::One => BinValue::Zero,
        }
    }

    /// 0 or 1 as a number.
    pub fn index(self) -> usize {
        match self {
            BinValue::Zero => 0,
            BinValue::One => 1,
        }
    }
}

impl fmt::Display for BinValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.index())
    }
}

/// Structural class of a location inside the round structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LocClass {
    /// Border location (`B`): the location a process occupies between rounds.
    Border,
    /// Initial location (`I`): entered from a border location at the start of
    /// a round.
    Initial,
    /// Any location that is neither border, initial nor final.
    Intermediate,
    /// Final location (`F`): the last location of a round; its only outgoing
    /// rule is a round-switch rule.
    Final,
    /// Copy of a border location introduced by the single-round construction
    /// (the set `B'` of Definition 3).
    BorderCopy,
}

impl fmt::Display for LocClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            LocClass::Border => "border",
            LocClass::Initial => "initial",
            LocClass::Intermediate => "intermediate",
            LocClass::Final => "final",
            LocClass::BorderCopy => "border-copy",
        };
        f.write_str(s)
    }
}

/// Which automaton a location (or rule) belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Owner {
    /// The non-probabilistic threshold automaton of correct processes.
    Process,
    /// The probabilistic threshold automaton of the common coin.
    Coin,
}

impl fmt::Display for Owner {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Owner::Process => f.write_str("process"),
            Owner::Coin => f.write_str("coin"),
        }
    }
}

/// A declared location.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Location {
    name: String,
    class: LocClass,
    value: Option<BinValue>,
    decision: bool,
    owner: Owner,
}

impl Location {
    /// Creates a new location.
    pub fn new(
        name: impl Into<String>,
        class: LocClass,
        value: Option<BinValue>,
        decision: bool,
        owner: Owner,
    ) -> Self {
        Location {
            name: name.into(),
            class,
            value,
            decision,
            owner,
        }
    }

    /// The location name (e.g. `"D0"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The structural class.
    pub fn class(&self) -> LocClass {
        self.class
    }

    /// The binary value tag, if any.
    pub fn value(&self) -> Option<BinValue> {
        self.value
    }

    /// Whether this is a decision (accepting) location.
    pub fn is_decision(&self) -> bool {
        self.decision
    }

    /// Which automaton owns the location.
    pub fn owner(&self) -> Owner {
        self.owner
    }

    /// Whether this is a border location.
    pub fn is_border(&self) -> bool {
        self.class == LocClass::Border
    }

    /// Whether this is an initial location.
    pub fn is_initial(&self) -> bool {
        self.class == LocClass::Initial
    }

    /// Whether this is a final location.
    pub fn is_final(&self) -> bool {
        self.class == LocClass::Final
    }

    /// Whether this is a border copy introduced by the single-round
    /// construction.
    pub fn is_border_copy(&self) -> bool {
        self.class == LocClass::BorderCopy
    }

    /// Re-classifies the location (used by the single-round construction).
    pub(crate) fn with_class(&self, class: LocClass) -> Location {
        Location {
            class,
            ..self.clone()
        }
    }

    /// Renames the location (used by model transformations).
    pub(crate) fn with_name(&self, name: impl Into<String>) -> Location {
        Location {
            name: name.into(),
            ..self.clone()
        }
    }
}

impl fmt::Display for Location {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} [{}]", self.name, self.class)?;
        if let Some(v) = self.value {
            write!(f, " value={v}")?;
        }
        if self.decision {
            write!(f, " decision")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bin_value_flip_and_index() {
        assert_eq!(BinValue::Zero.flip(), BinValue::One);
        assert_eq!(BinValue::One.flip(), BinValue::Zero);
        assert_eq!(BinValue::Zero.index(), 0);
        assert_eq!(BinValue::One.index(), 1);
        assert_eq!(BinValue::ALL.len(), 2);
    }

    #[test]
    fn location_predicates() {
        let d0 = Location::new(
            "D0",
            LocClass::Final,
            Some(BinValue::Zero),
            true,
            Owner::Process,
        );
        assert!(d0.is_final());
        assert!(d0.is_decision());
        assert!(!d0.is_border());
        assert!(!d0.is_initial());
        assert_eq!(d0.value(), Some(BinValue::Zero));
        assert_eq!(d0.owner(), Owner::Process);

        let j = Location::new("J2", LocClass::Border, None, false, Owner::Coin);
        assert!(j.is_border());
        assert!(!j.is_border_copy());
        let copy = j.with_class(LocClass::BorderCopy).with_name("J2'");
        assert!(copy.is_border_copy());
        assert_eq!(copy.name(), "J2'");
    }

    #[test]
    fn display_is_informative() {
        let d0 = Location::new(
            "D0",
            LocClass::Final,
            Some(BinValue::Zero),
            true,
            Owner::Process,
        );
        let s = format!("{d0}");
        assert!(s.contains("D0"));
        assert!(s.contains("final"));
        assert!(s.contains("decision"));
        assert_eq!(format!("{}", LocId(5)), "l5");
        assert_eq!(format!("{}", Owner::Coin), "coin");
    }
}
