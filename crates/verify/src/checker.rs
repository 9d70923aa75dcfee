//! An in-tree, loom-style exhaustive-interleaving model checker.
//!
//! The checker explores a state machine whose threads each take one
//! atomic step at a time: the real code under test wrapped in a
//! [`Spec`] (the trainer's step loop, in `hetpipe-bench`'s `gatecheck`
//! module). The deterministic scheduler runs a depth-first search over
//! every enabled thread at every reachable state, cloning the state at
//! each branch point and checking the invariant at every state it
//! reaches. No threads are spawned and no timing is involved, so a
//! green run is a proof over the step semantics, not a sample.
//!
//! The search visits each distinct state once: a visited set holds
//! every state reached, compared whole by [`Eq`], so step orders that
//! reach one state share its subtree and a hash collision never prunes
//! a state. A spec whose state records its own history has one path to
//! each state, so the search enumerates every interleaving:
//! `(Σnᵢ)! / Πnᵢ!` leaves for threads of `n₁..n_t` steps.
//!
//! This is deliberately smaller than `loom`: it assumes steps are
//! atomic (sequential consistency over critical sections) rather than
//! exploring relaxed memory orders, and it needs no external crates.

use std::collections::HashSet;
use std::hash::Hash;

/// A state machine the checker can explore: clonable states compared
/// whole, threads that step atomically, and the invariants to check.
pub trait Spec {
    /// The state. Cloned at every scheduling branch and kept in the
    /// visited set.
    type State: Clone + Eq + Hash;

    /// The initial state.
    fn init(&self) -> Self::State;

    /// The number of threads.
    fn threads(&self) -> usize;

    /// Whether `thread` may step in `state`.
    fn enabled(&self, state: &Self::State, thread: usize) -> bool;

    /// Applies one atomic step of `thread`.
    fn step(&self, state: &mut Self::State, thread: usize);

    /// The invariant, judged on every reachable state. `Err` is a
    /// violation and aborts the search with a counterexample.
    fn check(&self, state: &Self::State) -> Result<(), String>;
}

/// A completed (violation-free) exploration.
#[derive(Debug, Clone)]
pub struct Explored<T> {
    /// Every reachable state, each once.
    pub states: HashSet<T>,
    /// Steps applied: one per enabled thread of every reachable state.
    pub steps: u64,
    /// Reachable states where no thread is enabled.
    pub leaves: u64,
}

/// A counterexample: the schedule that reached a violating state, and
/// the invariant's message there.
#[derive(Debug, Clone)]
pub struct Violation {
    /// The threads that stepped, in execution order.
    pub schedule: Vec<usize>,
    /// The invariant's description of what broke.
    pub message: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "{}", self.message)?;
        write!(f, "  counterexample schedule:")?;
        for thread in &self.schedule {
            write!(f, " t{thread}")?;
        }
        Ok(())
    }
}

/// Explores every state `spec` can reach, checking the invariant at
/// each. Returns the reachable states, or the first counterexample
/// found.
pub fn explore<S: Spec>(spec: &S) -> Result<Explored<S::State>, Violation> {
    let init = spec.init();
    let mut explored = Explored {
        states: HashSet::from([init.clone()]),
        steps: 0,
        leaves: 0,
    };
    dfs(spec, &init, &mut Vec::new(), &mut explored)?;
    Ok(explored)
}

/// Judges `state`, reached by `path`, then explores each state it
/// steps to that is not yet visited.
fn dfs<S: Spec>(
    spec: &S,
    state: &S::State,
    path: &mut Vec<usize>,
    explored: &mut Explored<S::State>,
) -> Result<(), Violation> {
    spec.check(state).map_err(|message| Violation {
        schedule: path.clone(),
        message,
    })?;
    let mut leaf = true;
    for thread in (0..spec.threads()).filter(|&t| spec.enabled(state, t)) {
        leaf = false;
        let mut next = state.clone();
        spec.step(&mut next, thread);
        explored.steps += 1;
        if explored.states.insert(next.clone()) {
            path.push(thread);
            dfs(spec, &next, path, explored)?;
            path.pop();
        }
    }
    explored.leaves += u64::from(leaf);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The multinomial `(Σnᵢ)! / Πnᵢ!`: the interleavings of programs
    /// of the given lengths.
    fn interleaving_count(lens: &[usize]) -> u64 {
        let (mut count, mut total) = (1u64, 0u64);
        for &len in lens {
            // Multiply by C(total + len, len), exactly.
            for i in 1..=len as u64 {
                total += 1;
                count = count * total / i;
            }
        }
        count
    }

    /// A toy spec: thread `t` takes `lens[t]` steps, each appending its
    /// id to the state — the whole history, or with `sorted` only the
    /// step counts. The invariant optionally forbids one state.
    struct Toy {
        lens: Vec<usize>,
        sorted: bool,
        forbidden: Option<Vec<usize>>,
    }

    impl Spec for Toy {
        type State = Vec<usize>;

        fn init(&self) -> Vec<usize> {
            Vec::new()
        }

        fn threads(&self) -> usize {
            self.lens.len()
        }

        fn enabled(&self, state: &Vec<usize>, thread: usize) -> bool {
            state.iter().filter(|&&t| t == thread).count() < self.lens[thread]
        }

        fn step(&self, state: &mut Vec<usize>, thread: usize) {
            state.push(thread);
            if self.sorted {
                state.sort();
            }
        }

        fn check(&self, state: &Vec<usize>) -> Result<(), String> {
            match &self.forbidden {
                Some(f) if f == state => Err(format!("forbidden state reached: {state:?}")),
                _ => Ok(()),
            }
        }
    }

    fn toy(lens: &[usize]) -> Toy {
        Toy {
            lens: lens.to_vec(),
            sorted: false,
            forbidden: None,
        }
    }

    #[test]
    fn enumeration_is_exhaustive() {
        // 2 threads × 3 steps: C(6,3) = 20 interleavings.
        let explored = explore(&toy(&[3, 3])).unwrap();
        assert_eq!(explored.leaves, 20);
        assert_eq!(explored.leaves, interleaving_count(&[3, 3]));
        // 3 threads of 3+2+2 steps: 7!/(3!2!2!) = 210.
        let explored = explore(&toy(&[3, 2, 2])).unwrap();
        assert_eq!(explored.leaves, 210);
        assert_eq!(explored.leaves, interleaving_count(&[3, 2, 2]));
        // A history is a tree: every step reaches a new state. For 2×1
        // steps: [0], [0, 1], [1], [1, 0] — 4 steps, 5 states.
        let explored = explore(&toy(&[1, 1])).unwrap();
        assert_eq!(explored.leaves, 2);
        assert_eq!(explored.steps, 4);
        assert_eq!(explored.states.len(), 5);
    }

    #[test]
    fn violations_carry_the_schedule() {
        // Forbid [1, 0]: only running thread 1 then thread 0 reaches it.
        let spec = Toy {
            forbidden: Some(vec![1, 0]),
            ..toy(&[1, 1])
        };
        let v = explore(&spec).unwrap_err();
        assert_eq!(v.schedule, vec![1, 0]);
        assert!(v.message.contains("forbidden"), "{v}");
        let rendered = v.to_string();
        assert!(rendered.contains("t1 t0"), "{rendered}");
    }

    #[test]
    fn multinomial_counts() {
        assert_eq!(interleaving_count(&[]), 1);
        assert_eq!(interleaving_count(&[5]), 1);
        assert_eq!(interleaving_count(&[1, 1]), 2);
        assert_eq!(interleaving_count(&[3, 3]), 20);
        assert_eq!(interleaving_count(&[3, 2, 2]), 210);
        assert_eq!(interleaving_count(&[2, 2, 2]), 90);
    }

    #[test]
    fn empty_programs_are_one_interleaving() {
        let explored = explore(&toy(&[0, 0])).unwrap();
        assert_eq!(explored.leaves, 1);
        assert_eq!(explored.steps, 0);
    }

    #[test]
    fn equal_states_are_explored_once() {
        // Step counts of 3 threads × 2 steps: 3³ states and one leaf,
        // though 6!/(2!)³ = 90 orders reach it. Each state steps every
        // thread below 2: 3·(2·3²) = 54 steps. A forbidden state is
        // still reached, whichever order gets there first.
        let mut spec = Toy {
            sorted: true,
            ..toy(&[2, 2, 2])
        };
        let explored = explore(&spec).unwrap();
        assert_eq!(explored.states.len(), 27);
        assert_eq!((explored.leaves, explored.steps), (1, 54));
        spec.forbidden = Some(vec![0, 1, 1, 2]);
        assert_eq!(explore(&spec).unwrap_err().schedule.len(), 4);
    }

    // The two `por_*` tests keep the names of the sleep-set reduction
    // this checker replaced; merging equal states now does its work.

    #[test]
    fn por_collapses_fully_independent_programs_to_one_trace() {
        // 4 threads × 2 steps on private counters: the history spec
        // walks all 8!/(2!)⁴ = 2520 orders, the merged one a single
        // leaf, in fewer steps.
        let full = explore(&toy(&[2, 2, 2, 2])).unwrap();
        assert_eq!(full.leaves, interleaving_count(&[2, 2, 2, 2]));
        assert_eq!(full.leaves, 2520);
        let merged = explore(&Toy {
            sorted: true,
            ..toy(&[2, 2, 2, 2])
        })
        .unwrap();
        assert_eq!(merged.leaves, 1, "one leaf for every order");
        assert!(merged.steps < full.steps);
    }

    #[test]
    fn por_still_visits_every_state() {
        // [0, 0] is an intermediate state (thread 0 done, the others
        // not started). Merging must not skip it: the violation still
        // surfaces, two steps in.
        let spec = Toy {
            sorted: true,
            forbidden: Some(vec![0, 0]),
            ..toy(&[2, 2, 2, 2])
        };
        let v = explore(&spec).unwrap_err();
        assert!(v.message.contains("forbidden"), "{v}");
        assert_eq!(v.schedule, vec![0, 0]);
    }
}
