//! Micro-bench for the automata substrate: NFA→DFA subset construction,
//! Hopcroft–Karp equivalence (the "almost linear time" claim of
//! paper Section 2.2.2), and the Moore partition refinement that
//! replaced pairwise HK in the merge phase (DESIGN.md §11), on chains
//! and layered graphs of growing size. A chain is the refinement's
//! worst case (every state is distinct, and each round splits off about
//! one more); `state_classes/chain` at `n` classifies all `n` states,
//! where HK decides one pair of start states.

use automata::{Dfa, NfaBuilder, Output, Symbol};
use bench::timing;

/// A chain automaton of `n` states over one symbol.
fn chain(n: usize, out_offset: u32) -> Dfa {
    let mut b = NfaBuilder::new();
    let states: Vec<_> = (0..n)
        .map(|i| b.add_state(Output(out_offset + (i % 4) as u32)))
        .collect();
    for w in states.windows(2) {
        b.add_transition(w[0], Symbol(0), w[1]);
    }
    b.finish(states[0]).to_dfa()
}

/// A layered nondeterministic automaton: `n` states in layers, two
/// successors per symbol into the next layer — nondeterministic but
/// with a polynomially-sized determinization (DFA states are subsets
/// within one layer of width ≤ 4), mirroring the shallow branching of
/// real field points-to graphs rather than the exponential worst case.
fn layered_nfa(n: usize, syms: u32) -> automata::Nfa {
    let width = 4usize;
    let mut b = NfaBuilder::new();
    let states: Vec<_> = (0..n).map(|i| b.add_state(Output((i % 3) as u32))).collect();
    let layers = n / width;
    for layer in 0..layers.saturating_sub(1) {
        for lane in 0..width {
            let i = layer * width + lane;
            for sym in 0..syms {
                let a = (layer + 1) * width + (lane + sym as usize) % width;
                let c = (layer + 1) * width + (lane + sym as usize + 1) % width;
                b.add_transition(states[i], Symbol(sym), states[a]);
                b.add_transition(states[i], Symbol(sym), states[c]);
            }
        }
    }
    b.finish(states[0])
}

fn main() {
    for n in [64usize, 256, 1024, 4096] {
        let a = chain(n, 0);
        let b = chain(n, 0);
        timing::bench(&format!("hopcroft_karp/equivalent_chains/{n}"), || {
            assert!(a.equivalent(&b))
        });
    }
    for n in [64usize, 256, 1024] {
        let nfa = layered_nfa(n, 3);
        timing::bench(&format!("subset_construction/to_dfa/{n}"), || {
            nfa.to_dfa().state_count()
        });
    }
    for n in [64usize, 256, 1024] {
        let a = chain(n, 0);
        timing::bench(&format!("state_classes/chain/{n}"), || {
            assert_eq!(a.state_classes().classes, n)
        });
    }
}
