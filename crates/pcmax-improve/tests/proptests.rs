//! Property tests for the improver, matching its two invariants:
//! the move/swap descent never increases the makespan and always
//! conserves load (every job assigned exactly once, total work
//! unchanged), and it is deterministic: the same input reruns to the
//! identical schedule.

use pcmax_core::instance::Instance;
use pcmax_core::schedule::Schedule;
use pcmax_improve::{improve, ImproveConfig, ImproveMode};
use proptest::prelude::*;
use std::time::Duration;

/// A small random instance plus an arbitrary (valid) starting schedule:
/// 1–16 jobs with times 1–50 on 1–5 machines.
fn instance_and_schedule() -> impl Strategy<Value = (Vec<u64>, usize, Vec<usize>)> {
    (1usize..=16, 1usize..=5).prop_flat_map(|(n, m)| {
        (
            prop::collection::vec(1u64..=50, n),
            Just(m),
            prop::collection::vec(0usize..m, n),
        )
    })
}

/// A config whose caps (not wall clock) bound the run, so results are
/// host-speed independent.
fn capped() -> ImproveConfig {
    ImproveConfig {
        mode: ImproveMode::Greedy,
        budget: Duration::from_secs(600),
        max_descent_rounds: 200,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn descent_never_increases_makespan_and_conserves_load(
        (times, m, start) in instance_and_schedule(),
    ) {
        let inst = Instance::new(times, m);
        let input = Schedule::new(start, m);
        let cfg = capped();
        let out = improve(&inst, &input, &cfg).unwrap();

        // Monotone: never worse than the input.
        prop_assert!(out.makespan <= input.makespan(&inst));
        // The reported makespan is the recomputed one.
        prop_assert_eq!(out.makespan, out.schedule.recompute_makespan(&inst));
        // Load conservation: still a valid one-to-one assignment…
        prop_assert_eq!(out.schedule.validate(&inst).unwrap(), out.makespan);
        // …with the total work intact across machines.
        let total: u64 = out.schedule.loads(&inst).iter().sum();
        prop_assert_eq!(total, inst.total_work());
        // And never below the area/max lower bound.
        prop_assert!(out.makespan >= pcmax_core::lower_bound(&inst));
    }

    #[test]
    fn descent_reruns_to_the_identical_schedule(
        (times, m, start) in instance_and_schedule(),
    ) {
        let inst = Instance::new(times, m);
        let input = Schedule::new(start, m);
        let cfg = capped();
        let out = improve(&inst, &input, &cfg).unwrap();
        let again = improve(&inst, &input, &cfg).unwrap();
        prop_assert_eq!(out.schedule, again.schedule);
        prop_assert_eq!(out.makespan, again.makespan);
        prop_assert_eq!(out.stats.rounds, again.stats.rounds);
        prop_assert_eq!(out.stats.accepted_moves, again.stats.accepted_moves);
    }
}
