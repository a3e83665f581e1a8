//! Threshold automata and probabilistic threshold automata extended with
//! common coins.
//!
//! This crate implements the modelling formalism of *"Verifying Randomized
//! Consensus Protocols with Common Coins"* (DSN 2024):
//!
//! * [`Environment`] — parameters, resilience conditions and the function `N`
//!   mapping admissible parameter valuations to the number of modelled
//!   processes and common coins (Sect. III-B(a) of the paper).
//! * [`SystemModel`] — a combined model holding the (non-probabilistic)
//!   threshold automaton for correct processes *and* the probabilistic
//!   threshold automaton for the common coin.  Both automata share the same
//!   variable alphabet and have disjoint location sets (Sect. III-B(b,c)).
//! * [`SystemModel::single_round`] — Definition 3: the single-round automaton
//!   `TA_rd` with border-location copies and redirected round-switch rules.
//! * [`refine::refine_for_binding`] — the Fig. 6 refinement that introduces
//!   the `N0/N1/N⊥` locations needed to express the binding hyperproperty.
//!
//! # Example
//!
//! The naive voting protocol of Fig. 2/3 of the paper:
//!
//! ```
//! use ccta::prelude::*;
//!
//! # fn main() -> Result<(), ModelError> {
//! let mut env = EnvironmentBuilder::new();
//! let n = env.param("n");
//! let f = env.param("f");
//! // resilience: n > 2f  and  f >= 0
//! env.require(LinearConstraint::gt(
//!     LinearExpr::param(2, n),
//!     LinearExpr::term(2, f, 2),
//! ));
//! env.processes(LinearExpr::param(2, n).sub(&LinearExpr::param(2, f)));
//! env.coins(LinearExpr::constant(2, 0));
//! let env = env.build();
//!
//! let mut b = SystemBuilder::new("naive-voting", env);
//! let v0 = b.shared_var("v0");
//! let v1 = b.shared_var("v1");
//! let j0 = b.process_location("J0", LocClass::Border, Some(BinValue::Zero));
//! let j1 = b.process_location("J1", LocClass::Border, Some(BinValue::One));
//! let i0 = b.process_location("I0", LocClass::Initial, Some(BinValue::Zero));
//! let i1 = b.process_location("I1", LocClass::Initial, Some(BinValue::One));
//! let s = b.process_location("S", LocClass::Intermediate, None);
//! let d0 = b.decision_location("D0", BinValue::Zero);
//! let d1 = b.decision_location("D1", BinValue::One);
//!
//! b.start_rule(j0, i0);
//! b.start_rule(j1, i1);
//! b.rule("r1", i0, s, Guard::top(), Update::increment(v0));
//! b.rule("r2", i1, s, Guard::top(), Update::increment(v1));
//! // 2 * (v0 + f) >= n + 1, rearranged to 2*v0 >= n + 1 - 2f
//! let bound0 = LinearExpr::param(2, n)
//!     .sub(&LinearExpr::term(2, f, 2))
//!     .add(&LinearExpr::constant(2, 1));
//! b.rule("r3", s, d0, Guard::ge_scaled(2, v0, bound0.clone()), Update::none());
//! b.rule("r4", s, d1, Guard::ge_scaled(2, v1, bound0), Update::none());
//! b.round_switch(d0, j0);
//! b.round_switch(d1, j1);
//!
//! let model = b.build()?;
//! assert_eq!(model.process_location_count(), 7);
//! # Ok(())
//! # }
//! ```

pub mod builder;
pub mod category;
pub mod dot;
pub mod env;
pub mod error;
pub mod expr;
pub mod guard;
pub mod location;
pub mod refine;
pub mod rule;
pub mod system;
pub mod variable;

pub use builder::SystemBuilder;
pub use category::ProtocolCategory;
pub use env::{Environment, EnvironmentBuilder, ParamValuation, SystemSize};
pub use error::ModelError;
pub use expr::{LinearConstraint, LinearExpr, ParamId, Rel};
pub use guard::{AtomicGuard, Guard, GuardKind, GuardRel};
pub use location::{BinValue, LocClass, LocId, Location, Owner};
pub use rule::{Branch, Probability, Rule, RuleId, Update};
pub use system::{ModelKind, ModelStats, SystemModel};
pub use variable::{VarId, VarKind, Variable};

/// Convenience re-exports for building models.
pub mod prelude {
    pub use crate::builder::SystemBuilder;
    pub use crate::category::ProtocolCategory;
    pub use crate::env::{Environment, EnvironmentBuilder, ParamValuation, SystemSize};
    pub use crate::error::ModelError;
    pub use crate::expr::{LinearConstraint, LinearExpr, ParamId, Rel};
    pub use crate::guard::{AtomicGuard, Guard, GuardKind, GuardRel};
    pub use crate::location::{BinValue, LocClass, LocId, Location, Owner};
    pub use crate::rule::{Branch, Probability, Rule, RuleId, Update};
    pub use crate::system::{ModelKind, ModelStats, SystemModel};
    pub use crate::variable::{VarId, VarKind, Variable};
}
