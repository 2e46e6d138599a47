//! # `ppm-check` — bounded model checking for the Parallel-PM protocols
//!
//! The lease/adoption and checkpoint-quiesce protocols are subtle enough
//! that example-level SIGKILL tests under-explore the interleaving space:
//! a kill-point test samples one crash site per run, while the bugs that
//! matter live in *specific* orderings of heartbeat renewals, tombstone
//! writes, CAM races and crash points. This crate provides the exhaustive
//! complement: protocol state machines implement the [`Model`] trait and
//! the [`Explorer`] enumerates every reachable interleaving up to a depth
//! bound, checking safety invariants in every state and reporting a
//! **minimal counterexample trace** on violation (BFS order makes the
//! first violation found a shortest one).
//!
//! Beyond safety, the explorer checks **progress** (W5 of the
//! work-stealing spec): a model names its goal states ([`Model::goal`]),
//! the explorer records every edge, and after an exhausted run one
//! backward pass from the goals finds any state that can never reach one
//! — a livelock or a lost task — reported with its shortest trace. A run
//! cut short by a bound reports progress unchecked.
//!
//! The concrete models live in `ppm-sched::model` (this crate stays
//! dependency-free so the scheduler crate can depend on it without a
//! cycle): one over the real scheduler engine, stepped capsule by capsule
//! through its simulator, and abstract models of the lease and quiesce
//! protocols. `specs/tla/` holds TLA+ statements of the same protocols,
//! and the property names used here (`NoDoubleExecution`,
//! `TombstoneSticky`, `NoLiveFrameReclaim`, Progress) match them.
//!
//! ```
//! use ppm_check::{Explorer, ExplorerConfig, Model};
//!
//! // A toy model: a counter that two "workers" may bump; the invariant
//! // bounds it. The explorer finds the shortest trace to a violation.
//! struct Bump;
//! impl Model for Bump {
//!     type State = u32;
//!     type Action = usize; // which worker bumps
//!     fn initial(&self) -> Vec<u32> { vec![0] }
//!     fn actions(&self, s: &u32) -> Vec<usize> {
//!         if *s < 10 { vec![0, 1] } else { vec![] }
//!     }
//!     fn step(&self, s: &u32, _a: &usize) -> u32 { s + 1 }
//!     fn invariant(&self, s: &u32) -> Result<(), String> {
//!         if *s > 2 { Err(format!("counter hit {s}")) } else { Ok(()) }
//!     }
//! }
//! let report = Explorer::new(ExplorerConfig::depth(8)).run(&Bump);
//! let cex = report.violation.expect("the bound is reachable");
//! assert_eq!(cex.trace.len(), 3, "BFS finds the 3-step minimum");
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, VecDeque};
use std::fmt::Debug;
use std::hash::{Hash, Hasher};
use std::time::{Duration, Instant};

/// A protocol state machine the [`Explorer`] can enumerate.
///
/// A state is either a small value (an abstract model with an explicit
/// transition enum) or a handle on something larger — say, an action
/// prefix that a model replays on a real engine — keyed for the visited
/// set by [`Model::fingerprint`]. Crash transitions are ordinary actions
/// — a model that wants crash coverage at persist boundaries returns
/// `Crash(p)` actions from [`Model::actions`] wherever the real protocol
/// has a boundary.
pub trait Model {
    /// Global protocol state. Keep it small: the explorer clones it per
    /// transition and hashes it for the visited set.
    type State: Clone + Eq + Hash + Debug;
    /// One enabled transition, e.g. `Renew { shard: 1 }`.
    type Action: Clone + Debug;

    /// The initial state(s) of the protocol.
    fn initial(&self) -> Vec<Self::State>;

    /// All transitions enabled in `state`. An empty vector marks a
    /// terminal state (checked with [`Model::on_terminal`]).
    fn actions(&self, state: &Self::State) -> Vec<Self::Action>;

    /// Applies `action` to `state`. Must be deterministic — all
    /// nondeterminism lives in the *choice* of action.
    fn step(&self, state: &Self::State, action: &Self::Action) -> Self::State;

    /// A safety invariant, checked in **every** reachable state.
    /// `Err(reason)` is a violation.
    fn invariant(&self, state: &Self::State) -> Result<(), String>;

    /// Checked only in terminal states (no enabled actions) — the place
    /// for liveness-at-quiescence obligations like "every task executed".
    fn on_terminal(&self, _state: &Self::State) -> Result<(), String> {
        Ok(())
    }

    /// Whether `state` is a goal of the progress check (W5): after an
    /// exhausted run, every explored state must reach a goal state. The
    /// default makes every state a goal, which checks nothing.
    fn goal(&self, _state: &Self::State) -> bool {
        true
    }

    /// The visited-set key of `state`. Override to fold out symmetries
    /// (e.g. hash a canonicalized state with worker ids relabeled in
    /// first-appearance order); the default hashes the state as-is.
    fn fingerprint(&self, state: &Self::State) -> u64 {
        let mut h = DefaultHasher::new();
        state.hash(&mut h);
        h.finish()
    }
}

/// Bounds on an exploration run.
#[derive(Debug, Clone, Copy)]
pub struct ExplorerConfig {
    /// Maximum trace depth (actions from an initial state).
    pub max_depth: usize,
    /// Maximum distinct states to expand before truncating.
    pub max_states: usize,
    /// Wall-clock budget; exploration truncates when it expires.
    pub time_budget: Option<Duration>,
}

impl ExplorerConfig {
    /// A depth-bounded config with a generous state cap and no clock.
    pub fn depth(max_depth: usize) -> Self {
        ExplorerConfig {
            max_depth,
            max_states: 10_000_000,
            time_budget: None,
        }
    }

    /// Caps the number of distinct states expanded.
    pub fn with_max_states(mut self, max_states: usize) -> Self {
        self.max_states = max_states;
        self
    }

    /// Adds a wall-clock budget (for CI: a pinned depth *and* a ceiling
    /// on how long the job may take).
    pub fn with_budget(mut self, budget: Duration) -> Self {
        self.time_budget = Some(budget);
        self
    }
}

/// Which check a [`Counterexample`] violates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Violation {
    /// A safety invariant ([`Model::invariant`]).
    Invariant,
    /// A terminal-state obligation ([`Model::on_terminal`]).
    Terminal,
    /// Progress ([`Model::goal`]): no goal state is reachable from the
    /// trace's last state.
    Progress,
}

/// A shortest-known trace from an initial state to a violating state.
#[derive(Debug, Clone)]
pub struct Counterexample<M: Model> {
    /// The actions, in order, from the initial state to the violation.
    pub trace: Vec<M::Action>,
    /// Every state along the trace, `states[0]` initial and
    /// `states[trace.len()]` the violating one.
    pub states: Vec<M::State>,
    /// The check's error message.
    pub reason: String,
    /// Which check failed.
    pub kind: Violation,
}

impl<M: Model> Counterexample<M> {
    /// Renders the trace as numbered `action → state` lines — the format
    /// written to `.trace` artifacts and replayed by the regression
    /// corpus.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let kind = match self.kind {
            Violation::Invariant => "invariant",
            Violation::Terminal => "terminal",
            Violation::Progress => "progress",
        };
        out.push_str(&format!(
            "{} violation after {} step(s): {}\n",
            kind,
            self.trace.len(),
            self.reason
        ));
        out.push_str(&format!("  init  {:?}\n", self.states[0]));
        for (i, a) in self.trace.iter().enumerate() {
            out.push_str(&format!(
                "  {:>4}. {:?}\n        → {:?}\n",
                i + 1,
                a,
                self.states[i + 1]
            ));
        }
        out
    }
}

/// The outcome of one exploration run.
#[derive(Debug)]
pub struct Report<M: Model> {
    /// Distinct states visited (by fingerprint).
    pub states: usize,
    /// Transitions taken (state expansions × enabled actions).
    pub transitions: usize,
    /// Deepest trace reached.
    pub max_depth_reached: usize,
    /// Whether any bound (depth, states, clock) truncated the search.
    /// A truncated run has not checked progress.
    pub truncated: bool,
    /// The first — and therefore minimal-depth — violation found.
    pub violation: Option<Counterexample<M>>,
    /// Wall-clock time the run took.
    pub elapsed: Duration,
}

impl<M: Model> Report<M> {
    /// Panics with the rendered counterexample if the run found a
    /// violation. The `#[should_panic]` hook for mutation tests.
    pub fn assert_ok(&self) {
        if let Some(cex) = &self.violation {
            panic!("{}", cex.render());
        }
    }

    /// Whether the run exhausted the space without a violation, progress
    /// included.
    pub fn clean(&self) -> bool {
        !self.truncated && self.violation.is_none()
    }

    /// One-line summary for logs and the CLI.
    pub fn summary(&self) -> String {
        format!(
            "{} states, {} transitions, depth {} reached in {:?}{}",
            self.states,
            self.transitions,
            self.max_depth_reached,
            self.elapsed,
            match (&self.violation, self.truncated) {
                (Some(_), _) => " — VIOLATION",
                (None, true) => " (truncated: progress unchecked)",
                (None, false) => " — clean",
            }
        )
    }
}

/// Breadth-first bounded explorer. BFS (rather than DFS) so that the
/// first violation encountered is at minimal depth — counterexamples
/// come out shortest-first without a separate minimization pass.
///
/// The explorer records every edge it takes. When a run exhausts the
/// space without a safety or terminal violation, one backward pass from
/// the [`Model::goal`] states checks progress: an explored state with no
/// path to a goal is a [`Violation::Progress`], reported with its
/// BFS-shortest trace.
pub struct Explorer {
    config: ExplorerConfig,
}

/// One node of the BFS arena: the state plus the parent pointer used to
/// reconstruct traces without storing a trace per frontier entry.
struct Node<M: Model> {
    state: M::State,
    parent: usize,
    action: Option<M::Action>,
    depth: usize,
}

impl Explorer {
    /// An explorer with the given bounds.
    pub fn new(config: ExplorerConfig) -> Self {
        Explorer { config }
    }

    /// Runs the model to the configured bounds, stopping at the first
    /// violation.
    pub fn run<M: Model>(&self, model: &M) -> Report<M> {
        let start = Instant::now();
        let mut nodes: Vec<Node<M>> = Vec::new();
        // fingerprint → node index
        let mut visited: HashMap<u64, usize> = HashMap::new();
        // node index → the nodes with an edge into it
        let mut preds: Vec<Vec<usize>> = Vec::new();
        let mut frontier: VecDeque<usize> = VecDeque::new();
        let mut transitions = 0usize;
        let mut max_depth_reached = 0usize;
        let mut truncated = false;

        let mut violation = None;
        for s in model.initial() {
            let bad = model.invariant(&s).err();
            let fp = model.fingerprint(&s);
            if bad.is_none() && visited.contains_key(&fp) {
                continue;
            }
            nodes.push(Node {
                state: s,
                parent: usize::MAX,
                action: None,
                depth: 0,
            });
            preds.push(Vec::new());
            let idx = nodes.len() - 1;
            if let Some(reason) = bad {
                violation = Some(self.rebuild(&nodes, idx, reason, Violation::Invariant));
                break;
            }
            visited.insert(fp, idx);
            frontier.push_back(idx);
        }

        'bfs: while let Some(idx) = frontier.pop_front() {
            if violation.is_some() {
                break;
            }
            if let Some(budget) = self.config.time_budget {
                if start.elapsed() > budget {
                    truncated = true;
                    break;
                }
            }
            let depth = nodes[idx].depth;
            max_depth_reached = max_depth_reached.max(depth);
            let actions = model.actions(&nodes[idx].state);
            if actions.is_empty() {
                if let Err(reason) = model.on_terminal(&nodes[idx].state) {
                    violation = Some(self.rebuild(&nodes, idx, reason, Violation::Terminal));
                    break;
                }
                continue;
            }
            if depth >= self.config.max_depth {
                truncated = true;
                continue;
            }
            for action in actions {
                transitions += 1;
                let next = model.step(&nodes[idx].state, &action);
                let bad = model.invariant(&next).err();
                let fp = model.fingerprint(&next);
                if bad.is_none() {
                    if let Some(&seen) = visited.get(&fp) {
                        preds[seen].push(idx);
                        continue;
                    }
                }
                nodes.push(Node {
                    state: next,
                    parent: idx,
                    action: Some(action),
                    depth: depth + 1,
                });
                preds.push(vec![idx]);
                let child = nodes.len() - 1;
                if let Some(reason) = bad {
                    violation = Some(self.rebuild(&nodes, child, reason, Violation::Invariant));
                    break 'bfs;
                }
                visited.insert(fp, child);
                if visited.len() > self.config.max_states {
                    truncated = true;
                    break 'bfs;
                }
                frontier.push_back(child);
            }
        }

        if violation.is_none() && !truncated {
            violation = self.progress(model, &nodes, &preds);
        }
        Report {
            states: visited.len(),
            transitions,
            max_depth_reached,
            truncated,
            violation,
            elapsed: start.elapsed(),
        }
    }

    /// The progress check of an exhausted run: one backward pass from
    /// the goal states over the recorded edges. The first node in BFS
    /// order that no goal is reachable from is the violation — its trace
    /// is a shortest one to a stuck state.
    fn progress<M: Model>(
        &self,
        model: &M,
        nodes: &[Node<M>],
        preds: &[Vec<usize>],
    ) -> Option<Counterexample<M>> {
        let mut reaches = vec![false; nodes.len()];
        let mut work: Vec<usize> = (0..nodes.len())
            .filter(|&i| model.goal(&nodes[i].state))
            .collect();
        for &i in &work {
            reaches[i] = true;
        }
        while let Some(i) = work.pop() {
            for &p in &preds[i] {
                if !reaches[p] {
                    reaches[p] = true;
                    work.push(p);
                }
            }
        }
        let stuck = reaches.iter().position(|r| !r)?;
        let reason = format!(
            "no goal state is reachable from here ({} of {} states are stuck)",
            reaches.iter().filter(|r| !**r).count(),
            nodes.len()
        );
        Some(self.rebuild(nodes, stuck, reason, Violation::Progress))
    }

    /// Walks parent pointers from `idx` back to the root to materialize
    /// the counterexample trace.
    fn rebuild<M: Model>(
        &self,
        nodes: &[Node<M>],
        idx: usize,
        reason: String,
        kind: Violation,
    ) -> Counterexample<M> {
        let mut states = Vec::new();
        let mut trace = Vec::new();
        let mut cur = idx;
        loop {
            states.push(nodes[cur].state.clone());
            if let Some(a) = &nodes[cur].action {
                trace.push(a.clone());
            }
            if nodes[cur].parent == usize::MAX {
                break;
            }
            cur = nodes[cur].parent;
        }
        states.reverse();
        trace.reverse();
        Counterexample {
            trace,
            states,
            reason,
            kind,
        }
    }
}

/// Replays a recorded action trace through a model, checking the
/// invariant at every step — the regression-corpus primitive. Returns
/// the final state; panics (with the step index) if the trace names an
/// action that is not enabled or if the invariant fails where the
/// recording says it should hold.
pub fn replay<M: Model>(
    model: &M,
    initial_index: usize,
    trace: &[M::Action],
    expect_violation_at_end: bool,
) -> M::State
where
    M::Action: PartialEq,
{
    let mut state = model
        .initial()
        .into_iter()
        .nth(initial_index)
        .expect("initial state index out of range");
    for (i, action) in trace.iter().enumerate() {
        assert!(
            model.actions(&state).iter().any(|a| a == action),
            "replay step {i}: action {action:?} not enabled in {state:?}"
        );
        state = model.step(&state, action);
        let check = model.invariant(&state);
        let last = i + 1 == trace.len();
        if last && expect_violation_at_end {
            assert!(
                check.is_err(),
                "replay expected a violation at the final step, got none in {state:?}"
            );
        } else {
            assert!(
                check.is_ok(),
                "replay step {i}: unexpected violation {:?} in {state:?}",
                check.unwrap_err()
            );
        }
    }
    state
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two tokens hopping between three cells; invariant: never both in
    /// the last cell. Shortest violation is 4 hops (2 per token).
    struct Hop;
    impl Model for Hop {
        type State = [u8; 2];
        type Action = (usize, u8);
        fn initial(&self) -> Vec<[u8; 2]> {
            vec![[0, 0]]
        }
        fn actions(&self, s: &[u8; 2]) -> Vec<(usize, u8)> {
            (0..2)
                .filter(|&t| s[t] < 2)
                .map(|t| (t, s[t] + 1))
                .collect()
        }
        fn step(&self, s: &[u8; 2], a: &(usize, u8)) -> [u8; 2] {
            let mut n = *s;
            n[a.0] = a.1;
            n
        }
        fn invariant(&self, s: &[u8; 2]) -> Result<(), String> {
            if s == &[2, 2] {
                Err("both tokens in cell 2".into())
            } else {
                Ok(())
            }
        }
    }

    #[test]
    fn bfs_counterexample_is_minimal() {
        let report = Explorer::new(ExplorerConfig::depth(10)).run(&Hop);
        let cex = report.violation.expect("violation reachable");
        assert_eq!(cex.trace.len(), 4, "shortest trace is 4 hops");
        assert_eq!(cex.states.len(), 5);
        assert_eq!(*cex.states.last().unwrap(), [2, 2]);
        assert!(cex.render().contains("both tokens in cell 2"));
    }

    #[test]
    fn depth_bound_truncates_before_the_violation() {
        let report = Explorer::new(ExplorerConfig::depth(3)).run(&Hop);
        assert!(report.violation.is_none(), "violation needs depth 4");
        assert!(report.truncated);
        assert_eq!(report.max_depth_reached, 3);
    }

    #[test]
    fn state_cap_truncates() {
        let report = Explorer::new(ExplorerConfig::depth(10).with_max_states(3)).run(&Hop);
        assert!(report.truncated || report.violation.is_some());
    }

    #[test]
    #[should_panic(expected = "both tokens")]
    fn assert_ok_panics_with_the_trace() {
        Explorer::new(ExplorerConfig::depth(10))
            .run(&Hop)
            .assert_ok();
    }

    #[test]
    fn terminal_check_fires_only_in_terminal_states() {
        /// Counts to 2; terminal check requires having reached 2.
        struct Count(u8);
        impl Model for Count {
            type State = u8;
            type Action = ();
            fn initial(&self) -> Vec<u8> {
                vec![0]
            }
            fn actions(&self, s: &u8) -> Vec<()> {
                if *s < self.0 {
                    vec![()]
                } else {
                    vec![]
                }
            }
            fn step(&self, s: &u8, _a: &()) -> u8 {
                s + 1
            }
            fn invariant(&self, _s: &u8) -> Result<(), String> {
                Ok(())
            }
            fn on_terminal(&self, s: &u8) -> Result<(), String> {
                if *s == 2 {
                    Ok(())
                } else {
                    Err(format!("stopped early at {s}"))
                }
            }
        }
        Explorer::new(ExplorerConfig::depth(10))
            .run(&Count(2))
            .assert_ok();
        let r = Explorer::new(ExplorerConfig::depth(10)).run(&Count(1));
        let cex = r.violation.expect("terminal at 1 violates");
        assert_eq!(cex.kind, Violation::Terminal);
    }

    /// From 0 a token goes to the goal 2 by way of 1, or into 3, which
    /// only loops back to itself: a livelock no safety or terminal check
    /// sees.
    struct Trap;
    impl Model for Trap {
        type State = u8;
        type Action = u8;
        fn initial(&self) -> Vec<u8> {
            vec![0]
        }
        fn actions(&self, s: &u8) -> Vec<u8> {
            match s {
                0 => vec![1, 3],
                1 => vec![2],
                3 => vec![3],
                _ => vec![],
            }
        }
        fn step(&self, _s: &u8, a: &u8) -> u8 {
            *a
        }
        fn invariant(&self, _s: &u8) -> Result<(), String> {
            Ok(())
        }
        fn goal(&self, s: &u8) -> bool {
            *s == 2
        }
    }

    #[test]
    fn progress_check_reports_the_shortest_trace_to_a_stuck_state() {
        let r = Explorer::new(ExplorerConfig::depth(10)).run(&Trap);
        assert!(!r.clean());
        let cex = r.violation.expect("3 never reaches the goal");
        assert_eq!(cex.kind, Violation::Progress);
        assert_eq!(cex.trace, vec![3]);
        assert!(cex
            .render()
            .starts_with("progress violation after 1 step(s)"));
    }

    #[test]
    fn a_truncated_run_leaves_progress_unchecked() {
        let r = Explorer::new(ExplorerConfig::depth(1)).run(&Trap);
        assert!(r.truncated);
        assert!(r.violation.is_none(), "progress needs an exhausted run");
        assert!(!r.clean());
        assert!(r.summary().contains("progress unchecked"));
    }

    #[test]
    fn the_default_goal_checks_nothing() {
        let r = Explorer::new(ExplorerConfig::depth(10)).run(&Bump2);
        assert!(r.clean(), "{}", r.summary());
        assert!(r.summary().ends_with("clean"));
    }

    /// Counts to 2 and stops; every state is a goal by default.
    struct Bump2;
    impl Model for Bump2 {
        type State = u8;
        type Action = ();
        fn initial(&self) -> Vec<u8> {
            vec![0]
        }
        fn actions(&self, s: &u8) -> Vec<()> {
            if *s < 2 {
                vec![()]
            } else {
                vec![]
            }
        }
        fn step(&self, s: &u8, _a: &()) -> u8 {
            s + 1
        }
        fn invariant(&self, _s: &u8) -> Result<(), String> {
            Ok(())
        }
    }

    #[test]
    fn replay_follows_a_recorded_trace() {
        let end = replay(&Hop, 0, &[(0, 1), (0, 2), (1, 1), (1, 2)], true);
        assert_eq!(end, [2, 2]);
    }

    #[test]
    #[should_panic(expected = "not enabled")]
    fn replay_rejects_disabled_actions() {
        replay(&Hop, 0, &[(0, 2)], false);
    }

    #[test]
    fn fingerprint_symmetry_reduction_folds_states() {
        /// Same Hop model but with token identity folded out: [a,b] and
        /// [b,a] share a fingerprint, halving the space.
        struct SymHop;
        impl Model for SymHop {
            type State = [u8; 2];
            type Action = (usize, u8);
            fn initial(&self) -> Vec<[u8; 2]> {
                Hop.initial()
            }
            fn actions(&self, s: &[u8; 2]) -> Vec<(usize, u8)> {
                Hop.actions(s)
            }
            fn step(&self, s: &[u8; 2], a: &(usize, u8)) -> [u8; 2] {
                Hop.step(s, a)
            }
            fn invariant(&self, s: &[u8; 2]) -> Result<(), String> {
                Hop.invariant(s)
            }
            fn fingerprint(&self, s: &[u8; 2]) -> u64 {
                let mut c = *s;
                c.sort_unstable();
                let mut h = DefaultHasher::new();
                c.hash(&mut h);
                h.finish()
            }
        }
        let plain = Explorer::new(ExplorerConfig::depth(3)).run(&Hop);
        let folded = Explorer::new(ExplorerConfig::depth(3)).run(&SymHop);
        assert!(
            folded.states < plain.states,
            "symmetry reduction shrinks the space"
        );
    }
}
