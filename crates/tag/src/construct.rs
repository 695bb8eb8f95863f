//! Construction of a TAG from a complex event type (Theorem 3 and the
//! appendix procedure):
//!
//! 1. decompose the structure into a minimal set of root-to-sink chains
//!    covering every arc;
//! 2. build a simple clocked automaton per chain (one clock per chain ×
//!    granularity; every chain transition resets all of its chain's
//!    clocks);
//! 3. combine the chain automata with a cross product — a variable shared
//!    by several chains advances all of them simultaneously;
//! 4. add skip self-loops (`ANY`) so irrelevant events can be ignored, and
//!    relabel the variable symbols with their event types `φ(X)`.
//!
//! Unreachable cross-product states are pruned, which reproduces the
//! 6-state automaton of the paper's Figure 2 for Example 1.

use std::collections::HashMap;

use tgm_core::{ComplexEventType, EventStructure, VarId};
use tgm_events::EventType;
use tgm_granularity::Gran;

use crate::automaton::{Symbol, Tag, TagBuilder};
use crate::chains::{minimal_chain_cover, Chain};
use crate::constraint::{ClockConstraint, ClockId};

/// Builds the TAG recognizing occurrences of the complex event type
/// (Theorem 3). The automaton accepts an event sequence iff the complex
/// event type occurs in it.
///
/// ```
/// use tgm_core::examples::example_1;
/// use tgm_events::TypeRegistry;
/// use tgm_granularity::Calendar;
/// use tgm_tag::build_tag;
///
/// let cal = Calendar::standard();
/// let mut reg = TypeRegistry::new();
/// let (cet, _) = example_1(&cal, &mut reg);
/// let tag = build_tag(&cet); // the paper's Figure 2
/// assert_eq!(tag.n_states(), 6);
/// assert_eq!(tag.clocks().len(), 4);
/// ```
pub fn build_tag(cet: &ComplexEventType) -> Tag {
    build_tag_for_structure(cet.structure(), |v| cet.event_type(v))
}

/// Builds the TAG for an event structure with an arbitrary variable-to-type
/// labelling (step 4's `φ`).
pub fn build_tag_for_structure(
    s: &EventStructure,
    phi: impl Fn(VarId) -> EventType,
) -> Tag {
    build_tag_with_cover(s, phi, minimal_chain_cover(s))
}

/// Builds the TAG over an explicit chain cover (must be valid for `s`; see
/// [`is_valid_cover`](crate::is_valid_cover)). Exposed so the
/// ablation benchmarks can compare the minimal (min-flow) cover against the
/// greedy one — more chains mean a larger cross product and more clocks.
pub fn build_tag_with_cover(
    s: &EventStructure,
    phi: impl Fn(VarId) -> EventType,
    chains: Vec<Chain>,
) -> Tag {
    debug_assert!(crate::chains::is_valid_cover(s, &chains));
    let p = chains.len();
    let mut b = TagBuilder::new();

    // Clocks: one per (chain, granularity-on-that-chain). `Gran` hashes by
    // its immutable instance id, so same-named granularities get separate
    // clocks; the interior mutability clippy worries about is only the
    // memoized size-table cache.
    #[allow(clippy::mutable_key_type)]
    let mut clock_ids: HashMap<(usize, Gran), ClockId> = HashMap::new();
    for (l, chain) in chains.iter().enumerate() {
        for w in chain.windows(2) {
            for tcg in s.constraints(w[0], w[1]) {
                let key = (l, tcg.gran().clone());
                clock_ids.entry(key).or_insert_with(|| {
                    let id = b.clock(format!("x{l}_{}", tcg.gran().name()), tcg.gran().clone());
                    id
                });
            }
        }
    }
    let chain_clocks: Vec<Vec<ClockId>> = (0..p)
        .map(|l| {
            let mut cs: Vec<ClockId> = clock_ids
                .iter()
                .filter(|((cl, _), _)| *cl == l)
                .map(|(_, &id)| id)
                .collect();
            cs.sort_unstable();
            cs
        })
        .collect();

    // Position of each variable in each chain (None if absent).
    let var_pos: Vec<Vec<Option<usize>>> = chains
        .iter()
        .map(|chain| {
            let mut pos = vec![None; s.len()];
            for (i, &v) in chain.iter().enumerate() {
                pos[v.index()] = Some(i);
            }
            pos
        })
        .collect();

    // Enumerate reachable cross-product states by BFS from the all-zero
    // tuple; transitions advance every chain containing the fired variable.
    let lens: Vec<usize> = chains.iter().map(Vec::len).collect();
    let mut state_of: HashMap<Vec<usize>, crate::automaton::StateId> = HashMap::new();
    let mut queue: Vec<Vec<usize>> = Vec::new();
    let start_tuple = vec![0usize; p];
    let name = |t: &[usize]| -> String {
        let parts: Vec<String> = t.iter().map(|j| format!("S{j}")).collect();
        parts.join("")
    };
    let start_state = b.state(name(&start_tuple));
    state_of.insert(start_tuple.clone(), start_state);
    b.start(start_state);
    queue.push(start_tuple);

    struct PendingTransition {
        from: Vec<usize>,
        to: Vec<usize>,
        symbol: Symbol,
        guard: ClockConstraint,
        resets: Vec<ClockId>,
    }
    let mut pending: Vec<PendingTransition> = Vec::new();

    let mut head = 0;
    while head < queue.len() {
        let tuple = queue[head].clone();
        head += 1;
        for v in s.vars() {
            // Chains containing v must all be exactly at v's position.
            let involved: Vec<usize> = (0..p)
                .filter(|&l| var_pos[l][v.index()].is_some())
                .collect();
            debug_assert!(!involved.is_empty(), "chains cover all variables");
            if !involved
                .iter()
                .all(|&l| var_pos[l][v.index()] == Some(tuple[l]))
            {
                continue;
            }
            let mut to = tuple.clone();
            let mut guard_parts: Vec<ClockConstraint> = Vec::new();
            let mut resets: Vec<ClockId> = Vec::new();
            for &l in &involved {
                // Invariant: `involved` lists exactly the chains where
                // var_pos is Some for this variable.
                #[allow(clippy::expect_used)]
                let i = var_pos[l][v.index()].expect("involved");
                debug_assert!(i < lens[l]);
                to[l] = i + 1;
                if i > 0 {
                    let (prev, cur) = (chains[l][i - 1], chains[l][i]);
                    for tcg in s.constraints(prev, cur) {
                        let x = clock_ids[&(l, tcg.gran().clone())];
                        guard_parts.push(ClockConstraint::in_range(
                            x,
                            tcg.lo() as i64,
                            tcg.hi() as i64,
                        ));
                    }
                }
                resets.extend(chain_clocks[l].iter().copied());
            }
            resets.sort_unstable();
            resets.dedup();
            if !state_of.contains_key(&to) {
                let sid = b.state(name(&to));
                state_of.insert(to.clone(), sid);
                queue.push(to.clone());
            }
            pending.push(PendingTransition {
                from: tuple.clone(),
                to,
                symbol: Symbol::Exact(phi(v)),
                guard: ClockConstraint::conj(guard_parts),
                resets,
            });
        }
    }

    for t in pending {
        b.transition(
            state_of[&t.from],
            state_of[&t.to],
            t.symbol,
            t.guard,
            t.resets,
        );
    }
    // Accepting: every chain complete.
    let full: Vec<usize> = lens.clone();
    if let Some(&acc) = state_of.get(&full) {
        b.accepting(acc);
    }
    // Skip loops on every reachable state.
    let all_states: Vec<_> = state_of.values().copied().collect();
    for sid in all_states {
        b.skip_loop(sid);
    }
    b.build()
}

/// A reusable TAG "shape" for one event structure: the automaton built
/// once with *marker* symbols in place of event types, instantiated per
/// candidate assignment `φ` by relabelling the markers.
///
/// The §5 miner screens and scans many assignments of the *same*
/// structure; the cross-product construction (states, clocks, guards,
/// resets, skip loops) depends only on the structure, while `φ` enters
/// solely as the `Exact` symbol payloads. Instantiation is therefore a
/// clone plus a symbol rewrite, bit-identical to
/// [`build_tag_for_structure`] for the same `φ` (the builder call sequence
/// is unchanged, only the `Exact` payloads differ) — asserted by
/// `template_instantiation_matches_direct_build` in the `multi` tests.
pub struct TagTemplate {
    base: Tag,
    n_vars: usize,
}

impl TagTemplate {
    /// Builds the template automaton for `s`, with variable `Xi`'s
    /// transitions carrying the marker type `EventType(i)`.
    pub fn new(s: &EventStructure) -> Self {
        TagTemplate {
            base: build_tag_for_structure(s, |v| EventType(v.index() as u32)),
            n_vars: s.len(),
        }
    }

    /// Number of variables the assignment slice must cover.
    pub fn n_vars(&self) -> usize {
        self.n_vars
    }

    /// Instantiates the template for the assignment `phi` (`phi[i]` is the
    /// event type of variable `Xi`). Panics if `phi` is shorter than the
    /// structure's variable count.
    pub fn instantiate(&self, phi: &[EventType]) -> Tag {
        assert!(
            phi.len() >= self.n_vars,
            "assignment covers {} of {} variables",
            phi.len(),
            self.n_vars
        );
        let mut tag = self.base.clone();
        for trs in &mut tag.by_state {
            for tr in trs {
                if let Symbol::Exact(marker) = tr.symbol {
                    tr.symbol = Symbol::Exact(phi[marker.0 as usize]);
                }
            }
        }
        tag
    }
}

#[cfg(test)]
mod tests {
    use tgm_core::examples::{example_1, figure_1a_witness};
    use tgm_events::{Event, TypeRegistry};
    use tgm_granularity::Calendar;

    use super::*;
    use crate::matcher::Matcher;

    const DAY: i64 = 86_400;

    #[test]
    fn figure_2_shape() {
        let cal = Calendar::standard();
        let mut reg = TypeRegistry::new();
        let (cet, _) = example_1(&cal, &mut reg);
        let tag = build_tag(&cet);
        // The paper's Figure 2: six reachable states
        // (S0S0, S1S1, S1S2, S2S1, S2S2, S3S3).
        assert_eq!(tag.n_states(), 6, "Figure 2 has 6 states");
        // Clocks: chain {X0,X1,X3} uses b-day + week; chain {X0,X2,X3}
        // uses b-day + hour: 4 clocks.
        assert_eq!(tag.clocks().len(), 4);
        // Exactly one accepting state (S3S3).
        let n_acc = (0..tag.n_states())
            .filter(|&i| tag.is_accepting(crate::StateId(i)))
            .count();
        assert_eq!(n_acc, 1);
        // One skip loop per state plus the pattern transitions
        // (1 ibm-rise, 2 ibm-rep, 2 hp-rise, 1 ibm-fall = 6).
        assert_eq!(tag.n_transitions(), 6 + 6);
    }

    #[test]
    fn example_1_witness_accepted() {
        let cal = Calendar::standard();
        let mut reg = TypeRegistry::new();
        let (cet, tys) = example_1(&cal, &mut reg);
        let tag = build_tag(&cet);
        let w = figure_1a_witness();
        let seq = [
            Event::new(tys.ibm_rise, w[0]),
            Event::new(tys.ibm_report, w[1]),
            Event::new(tys.hp_rise, w[2]),
            Event::new(tys.ibm_fall, w[3]),
        ];
        assert!(Matcher::new(&tag).accepts(&seq));
    }

    #[test]
    fn example_1_rejects_wrong_timing() {
        let cal = Calendar::standard();
        let mut reg = TypeRegistry::new();
        let (cet, tys) = example_1(&cal, &mut reg);
        let tag = build_tag(&cet);
        let w = figure_1a_witness();
        // Report two business days after the rise instead of one.
        let seq = [
            Event::new(tys.ibm_rise, w[0]),
            Event::new(tys.ibm_report, w[1] + DAY),
            Event::new(tys.hp_rise, w[2]),
            Event::new(tys.ibm_fall, w[3]),
        ];
        assert!(!Matcher::new(&tag).accepts(&seq));
    }

    #[test]
    fn example_1_with_noise() {
        let cal = Calendar::standard();
        let mut reg = TypeRegistry::new();
        let (cet, tys) = example_1(&cal, &mut reg);
        let noise = reg.intern("noise");
        let tag = build_tag(&cet);
        let w = figure_1a_witness();
        let mut events = vec![
            Event::new(tys.ibm_rise, w[0]),
            Event::new(tys.ibm_report, w[1]),
            Event::new(tys.hp_rise, w[2]),
            Event::new(tys.ibm_fall, w[3]),
        ];
        for k in 0..40 {
            events.push(Event::new(noise, w[0] + k * 3_600));
        }
        events.sort();
        assert!(Matcher::new(&tag).accepts(&events));
    }

    #[test]
    fn out_of_order_pattern_rejected() {
        let cal = Calendar::standard();
        let mut reg = TypeRegistry::new();
        let (cet, tys) = example_1(&cal, &mut reg);
        let tag = build_tag(&cet);
        let w = figure_1a_witness();
        // Fall before everything: no occurrence.
        let seq = [
            Event::new(tys.ibm_fall, w[0] - 2 * DAY),
            Event::new(tys.ibm_rise, w[0]),
            Event::new(tys.ibm_report, w[1]),
        ];
        assert!(!Matcher::new(&tag).accepts(&seq));
    }

    #[test]
    fn single_variable_type() {
        let _cal = Calendar::standard();
        let mut reg = TypeRegistry::new();
        let e0 = reg.intern("E0");
        let mut sb = tgm_core::StructureBuilder::new();
        sb.var("X0");
        let s = sb.build().unwrap();
        let cet = ComplexEventType::new(s, vec![e0]);
        let tag = build_tag(&cet);
        assert_eq!(tag.n_states(), 2);
        let m = Matcher::new(&tag);
        assert!(m.accepts(&[Event::new(e0, 100)]));
        assert!(!m.accepts(&[Event::new(reg.intern("other"), 100)]));
    }

    #[test]
    fn shared_event_types_on_different_variables() {
        // X0 -> X1 both labelled with the same type A, one day apart.
        let cal = Calendar::standard();
        let mut reg = TypeRegistry::new();
        let a = reg.intern("A");
        let mut sb = tgm_core::StructureBuilder::new();
        let x0 = sb.var("X0");
        let x1 = sb.var("X1");
        sb.constrain(
            x0,
            x1,
            tgm_core::Tcg::new(1, 1, cal.get("day").unwrap()),
        );
        let s = sb.build().unwrap();
        let cet = ComplexEventType::new(s, vec![a, a]);
        let tag = build_tag(&cet);
        let m = Matcher::new(&tag);
        assert!(m.accepts(&[Event::new(a, 0), Event::new(a, DAY)]));
        assert!(!m.accepts(&[Event::new(a, 0), Event::new(a, 2 * DAY)]));
        // A single A cannot be used twice.
        assert!(!m.accepts(&[Event::new(a, 0)]));
    }
}
