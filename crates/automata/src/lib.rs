//! # automata — six-tuple sequential automata
//!
//! The automata substrate of the Mahjong reproduction (Tan, Li, Xue,
//! PLDI 2017). The paper models each heap object's field points-to graph
//! as a *sequential automaton* `(Q, Σ, δ, q0, Γ, γ)` — an automaton
//! whose every state carries an output symbol (a Moore machine) — and
//! reduces type-consistency checking of two objects to behavioural
//! equivalence of two such automata (paper Section 2.2.2, Figure 4).
//!
//! This crate provides, independent of points-to analysis:
//!
//! - [`Nfa`]: nondeterministic sequential automata with per-state
//!   outputs and a builder;
//! - [`Nfa::to_dfa`]: subset construction (paper Algorithm 3);
//! - [`Dfa::equivalent`]: near-linear Hopcroft–Karp equivalence adapted
//!   to output maps (paper Algorithm 4), with the implicit `q_error`
//!   sink for missing transitions;
//! - [`Dfa::state_classes`]: Moore partition refinement of a DFA's
//!   states into behavioural-equivalence classes — one pass decides
//!   equivalence for every pair of states at once, the merge phase of
//!   Mahjong;
//! - [`Dfa::minimize`]: the quotient by those classes, used as an
//!   independent test oracle;
//! - [`Behavior`]: the β function — the output set an automaton
//!   produces on one input word.
//!
//! # Examples
//!
//! Two objects whose nested contents always have the same types yield
//! equivalent automata (the paper's Figure 2):
//!
//! ```
//! use automata::{NfaBuilder, Output, Symbol};
//!
//! // o1: T -f-> U -h-> Y (two parallel Y leaves merged by determinization)
//! let mut b = NfaBuilder::new();
//! let t = b.add_state(Output(0));
//! let u = b.add_state(Output(1));
//! let y1 = b.add_state(Output(2));
//! let y2 = b.add_state(Output(2));
//! b.add_transition(t, Symbol(0), u);
//! b.add_transition(u, Symbol(1), y1);
//! b.add_transition(u, Symbol(1), y2);
//! let a1 = b.finish(t).to_dfa();
//!
//! // o2: T -f-> U -h-> Y (single leaf)
//! let mut b = NfaBuilder::new();
//! let t = b.add_state(Output(0));
//! let u = b.add_state(Output(1));
//! let y = b.add_state(Output(2));
//! b.add_transition(t, Symbol(0), u);
//! b.add_transition(u, Symbol(1), y);
//! let a2 = b.finish(t).to_dfa();
//!
//! assert!(a1.equivalent(&a2));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod dfa;
mod nfa;
mod types;

pub use dfa::{Dfa, DfaPartsBuilder, StateClasses};
pub use nfa::{Nfa, NfaBuilder};
pub use types::{Behavior, Output, StateId, Symbol};
