//! Deterministic 6-tuple sequential automata, Hopcroft–Karp equivalence
//! (paper Algorithm 4), and Moore partition refinement.

use std::collections::BTreeSet;
use std::hash::{Hash, Hasher};

use dsu::DisjointSets;
use fxhash::{FxHashMap, FxHashSet};

use crate::types::{Behavior, Output, StateId, Symbol};

/// A deterministic sequential automaton produced by
/// [`Nfa::to_dfa`](crate::Nfa::to_dfa).
///
/// Each state's output is a *set* of [`Output`]s (the γ' map of the
/// paper's Algorithm 3 maps a DFA state — a set of NFA states — to the
/// set of their types). Missing transitions implicitly go to the error
/// sink `q_error` of Algorithm 4.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Dfa {
    start: StateId,
    /// Per state, transitions sorted by symbol.
    transitions: Vec<Vec<(Symbol, StateId)>>,
    /// Per state, the sorted set of outputs.
    outputs: Vec<Vec<Output>>,
}

impl Dfa {
    /// Returns the initial state.
    pub fn start(&self) -> StateId {
        self.start
    }

    /// Returns the number of states (excluding the implicit error sink).
    pub fn state_count(&self) -> usize {
        self.outputs.len()
    }

    /// Returns the output set γ'(q) of a state.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of bounds.
    pub fn output_set(&self, q: StateId) -> &[Output] {
        &self.outputs[q.index()]
    }

    /// Returns the successor of `q` on `symbol`, or `None` for the
    /// implicit error sink.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of bounds.
    pub fn successor(&self, q: StateId, symbol: Symbol) -> Option<StateId> {
        self.transitions[q.index()]
            .binary_search_by_key(&symbol, |&(s, _)| s)
            .ok()
            .map(|i| self.transitions[q.index()][i].1)
    }

    /// Returns the symbols with an explicit transition from `q`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of bounds.
    pub fn symbols_of(&self, q: StateId) -> impl Iterator<Item = Symbol> + '_ {
        self.transitions[q.index()].iter().map(|&(s, _)| s)
    }

    /// Returns the transition row of `q` as `(symbol, successor)` pairs
    /// in ascending symbol order.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of bounds.
    pub fn transitions_of(&self, q: StateId) -> impl ExactSizeIterator<Item = (Symbol, StateId)> + '_ {
        self.transitions[q.index()].iter().copied()
    }

    /// Returns the automaton's alphabet Σ.
    pub fn alphabet(&self) -> Vec<Symbol> {
        let mut set = BTreeSet::new();
        for row in &self.transitions {
            for &(s, _) in row {
                set.insert(s);
            }
        }
        set.into_iter().collect()
    }

    /// Returns `true` if every state's output set is a singleton — the
    /// automaton analogue of the paper's Condition 2 over all words
    /// (SINGLETYPE-CHECK).
    pub fn is_single_output(&self) -> bool {
        self.outputs.iter().all(|o| o.len() == 1)
    }

    /// Computes the behaviour β(word).
    pub fn behavior(&self, word: &[Symbol]) -> Behavior {
        let mut q = self.start;
        for &sym in word {
            match self.successor(q, sym) {
                Some(next) => q = next,
                None => return Behavior::Reject,
            }
        }
        Behavior::Outputs(self.outputs[q.index()].clone())
    }

    /// Tests behavioural equivalence with `other` using the
    /// Hopcroft–Karp union-find algorithm, adapted to sequential automata
    /// as in the paper's Algorithm 4.
    ///
    /// Two DFAs are equivalent iff for every word they produce the same
    /// output set (including rejection). Missing transitions are treated
    /// as edges to a shared error sink whose "output" differs from every
    /// real output set. Runs in near-linear time
    /// `O(|Σ| · |Q1 ∪ Q2| · α)`.
    pub fn equivalent(&self, other: &Dfa) -> bool {
        // State numbering: self-states, then other-states, then q_error.
        let n1 = self.state_count();
        let n2 = other.state_count();
        let error = n1 + n2;
        let mut sets = DisjointSets::new(n1 + n2 + 1);

        // Σ = Σ1 ∪ Σ2.
        let mut alphabet = self.alphabet();
        alphabet.extend(other.alphabet());
        alphabet.sort_unstable();
        alphabet.dedup();

        let next = |state: usize, sym: Symbol| -> usize {
            if state == error {
                error
            } else if state < n1 {
                self.successor(StateId(state as u32), sym)
                    .map_or(error, |q| q.index())
            } else {
                other
                    .successor(StateId((state - n1) as u32), sym)
                    .map_or(error, |q| n1 + q.index())
            }
        };

        let start1 = self.start.index();
        let start2 = n1 + other.start.index();
        sets.union(start1, start2);
        let mut stack = vec![(start1, start2)];
        while let Some((p1, p2)) = stack.pop() {
            for &sym in &alphabet {
                let r1 = sets.find(next(p1, sym));
                let r2 = sets.find(next(p2, sym));
                if r1 != r2 {
                    sets.union(r1, r2);
                    stack.push((r1, r2));
                }
            }
        }

        // Equivalent iff every union class is output-homogeneous
        // (the error sink is homogeneous only with itself).
        let output_of = |state: usize| -> Option<&[Output]> {
            if state == error {
                None
            } else if state < n1 {
                Some(self.output_set(StateId(state as u32)))
            } else {
                Some(other.output_set(StateId((state - n1) as u32)))
            }
        };
        sets.classes().iter().all(|class| {
            let first = output_of(class[0]);
            class.iter().all(|&s| output_of(s) == first)
        })
    }

    /// Partitions the states into behavioural-equivalence classes by
    /// Moore refinement: two states share a class iff they produce the
    /// same output set on every word, rejection included (the relation
    /// [`Dfa::equivalent`] decides for two start states).
    ///
    /// The initial blocks are the output sets. Each round keys a state
    /// by its block and its sorted row with every successor replaced by
    /// its block, `(block, [(symbol, block(succ))])`; a symbol missing
    /// from the row leads to the error sink, which no real state
    /// shares. Rounds repeat until the block count stops growing, at
    /// most once per state. Every state is classified, reachable from
    /// [`Dfa::start`] or not, so one automaton can carry many start
    /// states (the Mahjong merge classifies all objects this way).
    pub fn state_classes(&self) -> StateClasses {
        let mut by_output: FxHashMap<&[Output], u32> = FxHashMap::default();
        let mut class_of: Vec<u32> = self
            .outputs
            .iter()
            .map(|out| {
                let next = by_output.len() as u32;
                *by_output.entry(out).or_insert(next)
            })
            .collect();
        let mut classes = by_output.len();
        let mut rounds = 0;
        loop {
            rounds += 1;
            let mut by_key: FxHashMap<RefineKey<'_>, u32> = FxHashMap::default();
            let next_class_of: Vec<u32> = (0..class_of.len())
                .map(|q| {
                    let next = by_key.len() as u32;
                    *by_key
                        .entry(RefineKey {
                            dfa: self,
                            class_of: &class_of,
                            q,
                        })
                        .or_insert(next)
                })
                .collect();
            let stable = by_key.len() == classes;
            classes = by_key.len();
            drop(by_key);
            class_of = next_class_of;
            if stable {
                break;
            }
        }
        StateClasses {
            class_of,
            classes,
            rounds,
        }
    }

    /// Returns the minimal DFA with the same behaviour: the quotient of
    /// the reachable states by [`Dfa::state_classes`]. Not part of the
    /// paper's pipeline — provided for analysis tooling and used by
    /// tests as an independent equivalence oracle (`a.equivalent(b)`
    /// iff their reachable minimizations are isomorphic).
    pub fn minimize(&self) -> Dfa {
        let block_of = self.state_classes().class_of;

        // Build the quotient automaton over blocks reachable from start.
        let mut builder = DfaPartsBuilder::default();
        let mut block_state: FxHashMap<u32, StateId> = FxHashMap::default();
        let mut rep_of_block: FxHashMap<u32, usize> = FxHashMap::default();
        for (q, &block) in block_of.iter().enumerate() {
            rep_of_block.entry(block).or_insert(q);
        }
        let start_block = block_of[self.start.index()];
        let mut get_state = |builder: &mut DfaPartsBuilder, block: u32| -> StateId {
            if let Some(&s) = block_state.get(&block) {
                return s;
            }
            let rep = rep_of_block[&block];
            let s = builder.add_state(self.output_set(StateId(rep as u32)).to_vec());
            block_state.insert(block, s);
            s
        };
        let start_state = get_state(&mut builder, start_block);
        let mut worklist = vec![start_block];
        let mut seen = FxHashSet::default();
        seen.insert(start_block);
        while let Some(block) = worklist.pop() {
            let rep = rep_of_block[&block];
            let from = get_state(&mut builder, block);
            for (sym, succ) in self.transitions_of(StateId(rep as u32)) {
                let sb = block_of[succ.index()];
                let to = get_state(&mut builder, sb);
                builder.add_transition(from, sym, to);
                if seen.insert(sb) {
                    worklist.push(sb);
                }
            }
        }
        builder.finish(start_state)
    }
}

/// A state seen through the current partition of one refinement round:
/// it hashes and compares as its key `(class, [(symbol, class(succ))])`,
/// read straight from its row, so no key is ever materialized.
struct RefineKey<'a> {
    dfa: &'a Dfa,
    class_of: &'a [u32],
    q: usize,
}

impl RefineKey<'_> {
    fn row(&self) -> impl Iterator<Item = (Symbol, u32)> + '_ {
        self.dfa.transitions[self.q]
            .iter()
            .map(|&(sym, to)| (sym, self.class_of[to.index()]))
    }
}

impl Hash for RefineKey<'_> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.class_of[self.q].hash(state);
        for entry in self.row() {
            entry.hash(state);
        }
    }
}

impl PartialEq for RefineKey<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.class_of[self.q] == other.class_of[other.q] && self.row().eq(other.row())
    }
}

impl Eq for RefineKey<'_> {}

/// The behavioural-equivalence partition of a DFA's states, computed by
/// [`Dfa::state_classes`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StateClasses {
    /// Per state, its class id in `0..classes`, numbered in order of
    /// first appearance by state id.
    pub class_of: Vec<u32>,
    /// Number of classes.
    pub classes: usize,
    /// Refinement rounds run, the last one being the round that found
    /// the partition stable.
    pub rounds: usize,
}

/// Low-level DFA assembly, used by subset construction and minimization.
#[derive(Clone, Debug, Default)]
pub struct DfaPartsBuilder {
    transitions: Vec<Vec<(Symbol, StateId)>>,
    outputs: Vec<Vec<Output>>,
}

impl DfaPartsBuilder {
    /// Adds a state with the given (sorted, deduplicated) output set.
    pub fn add_state(&mut self, outputs: Vec<Output>) -> StateId {
        let id = StateId(u32::try_from(self.outputs.len()).expect("too many states"));
        debug_assert!(outputs.windows(2).all(|w| w[0] < w[1]), "outputs not sorted");
        self.outputs.push(outputs);
        self.transitions.push(Vec::new());
        id
    }

    /// Adds the deterministic transition `from --symbol--> to`.
    ///
    /// # Panics
    ///
    /// Panics if a different transition on `symbol` already exists.
    pub fn add_transition(&mut self, from: StateId, symbol: Symbol, to: StateId) {
        let row = &mut self.transitions[from.index()];
        match row.binary_search_by_key(&symbol, |&(s, _)| s) {
            Ok(i) => assert_eq!(row[i].1, to, "conflicting transition on {symbol:?}"),
            Err(i) => row.insert(i, (symbol, to)),
        }
    }

    /// Finalizes the DFA with the given start state.
    ///
    /// # Panics
    ///
    /// Panics if `start` is out of bounds.
    pub fn finish(self, start: StateId) -> Dfa {
        assert!(start.index() < self.outputs.len(), "start state out of bounds");
        Dfa {
            start,
            transitions: self.transitions,
            outputs: self.outputs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `chain(outs)` builds q0 -0-> q1 -0-> ... with given output sets.
    fn chain(outs: &[&[u32]]) -> Dfa {
        let mut b = DfaPartsBuilder::default();
        let states: Vec<StateId> = outs
            .iter()
            .map(|o| b.add_state(o.iter().map(|&x| Output(x)).collect()))
            .collect();
        for w in states.windows(2) {
            b.add_transition(w[0], Symbol(0), w[1]);
        }
        b.finish(states[0])
    }

    #[test]
    fn identical_chains_equivalent() {
        let a = chain(&[&[0], &[1], &[2]]);
        let b = chain(&[&[0], &[1], &[2]]);
        assert!(a.equivalent(&b));
    }

    #[test]
    fn different_outputs_not_equivalent() {
        let a = chain(&[&[0], &[1]]);
        let b = chain(&[&[0], &[2]]);
        assert!(!a.equivalent(&b));
    }

    #[test]
    fn different_lengths_not_equivalent() {
        // Same outputs, but `a` rejects after one step where `b` continues.
        let a = chain(&[&[0], &[1]]);
        let b = chain(&[&[0], &[1], &[1]]);
        assert!(!a.equivalent(&b));
    }

    #[test]
    fn loop_vs_unrolled_loop_equivalent() {
        // q0 -0-> q0 (self loop) versus q0 -0-> q1 -0-> q0, same outputs.
        let mut b1 = DfaPartsBuilder::default();
        let p0 = b1.add_state(vec![Output(5)]);
        b1.add_transition(p0, Symbol(0), p0);
        let a = b1.finish(p0);

        let mut b2 = DfaPartsBuilder::default();
        let q0 = b2.add_state(vec![Output(5)]);
        let q1 = b2.add_state(vec![Output(5)]);
        b2.add_transition(q0, Symbol(0), q1);
        b2.add_transition(q1, Symbol(0), q0);
        let b = b2.finish(q0);

        assert!(a.equivalent(&b));
        assert_eq!(b.minimize().state_count(), 1);
    }

    #[test]
    fn output_sets_must_match_exactly() {
        let a = chain(&[&[0], &[1, 2]]);
        let b = chain(&[&[0], &[1]]);
        assert!(!a.equivalent(&b));
        let c = chain(&[&[0], &[1, 2]]);
        assert!(a.equivalent(&c));
    }

    #[test]
    fn single_output_check() {
        assert!(chain(&[&[0], &[1]]).is_single_output());
        assert!(!chain(&[&[0], &[1, 2]]).is_single_output());
    }

    #[test]
    fn equivalence_is_reflexive_on_cycles() {
        let mut b = DfaPartsBuilder::default();
        let q0 = b.add_state(vec![Output(0)]);
        let q1 = b.add_state(vec![Output(1)]);
        b.add_transition(q0, Symbol(0), q1);
        b.add_transition(q1, Symbol(1), q0);
        let dfa = b.finish(q0);
        assert!(dfa.equivalent(&dfa.clone()));
    }

    #[test]
    fn minimize_preserves_behavior() {
        let a = chain(&[&[0], &[1], &[1], &[2]]);
        let m = a.minimize();
        for len in 0..6 {
            let word: Vec<Symbol> = vec![Symbol(0); len];
            assert_eq!(a.behavior(&word), m.behavior(&word), "len {len}");
        }
        assert!(a.equivalent(&m));
    }

    #[test]
    fn state_classes_cover_unreachable_states() {
        // q0 -0-> q1 -0-> q2 and an unreachable q3 -0-> q4 with the
        // same outputs as q1 -0-> q2: the partition covers every state.
        let mut b = DfaPartsBuilder::default();
        let q: Vec<StateId> = [0, 1, 2, 1, 2]
            .iter()
            .map(|&o| b.add_state(vec![Output(o)]))
            .collect();
        b.add_transition(q[0], Symbol(0), q[1]);
        b.add_transition(q[1], Symbol(0), q[2]);
        b.add_transition(q[3], Symbol(0), q[4]);
        let classes = b.finish(q[0]).state_classes();
        assert_eq!(classes.class_of[1], classes.class_of[3]);
        assert_eq!(classes.class_of[2], classes.class_of[4]);
        assert_eq!(classes.classes, 3);
        assert_eq!(classes.rounds, 1, "the output partition is already stable");
    }

    #[test]
    fn state_classes_split_a_chain_one_state_per_round() {
        // Six same-output states: only the distance to the end of the
        // chain tells them apart, and each round learns one more step.
        let classes = chain(&[&[0_u32] as &[u32]; 6]).state_classes();
        assert_eq!(classes.classes, 6);
        assert_eq!(classes.rounds, 6, "five splitting rounds and one stable one");
    }

    #[test]
    #[should_panic(expected = "conflicting transition")]
    fn conflicting_transition_panics() {
        let mut b = DfaPartsBuilder::default();
        let q0 = b.add_state(vec![Output(0)]);
        let q1 = b.add_state(vec![Output(1)]);
        b.add_transition(q0, Symbol(0), q0);
        b.add_transition(q0, Symbol(0), q1);
    }
}
