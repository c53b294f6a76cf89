//! The improver: deterministic move/swap neighborhood descent.
//!
//! The neighborhood relieves a most-loaded (critical) machine two ways:
//! *move* one of its jobs to a machine that stays below the makespan, or
//! *swap* one of its jobs against a strictly shorter job elsewhere.
//! Acceptance is lexicographic on `(makespan, #machines at makespan)`:
//! lowering the tie count drains plateaus where several machines share
//! the maximum, which is what eventually lowers the maximum itself.
//!
//! The loop is *anytime*: the wall clock is checked between rounds, so a
//! deadline stops the search at the last completed improving step —
//! never mid-update — and the partial result is still valid and no worse
//! than the input. It is also the workspace's only move/swap descent:
//! `pcmax compare` polishes with it under a deadline that does not bind.

use crate::ImproveStats;
use pcmax_core::instance::Instance;
use pcmax_core::schedule::Schedule;
use std::time::Instant;

/// Runs move/swap descent on `input` until a local optimum, the round
/// cap, or `deadline` — whichever comes first. Deterministic: no
/// randomness, first improving move in scan order wins each round.
pub fn descend(
    inst: &Instance,
    input: &Schedule,
    deadline: Instant,
    max_rounds: usize,
    stats: &mut ImproveStats,
) -> Schedule {
    let m = inst.machines();
    let mut assignment = input.assignment().to_vec();
    let mut loads = input.loads(inst);
    let mut per_machine: Vec<Vec<usize>> = input.machine_jobs();

    let rank = |loads: &[u64]| {
        let ms = *loads.iter().max().expect("m > 0");
        let ties = loads.iter().filter(|&&l| l == ms).count();
        (ms, ties)
    };

    for _ in 0..max_rounds {
        if Instant::now() >= deadline {
            break;
        }
        stats.rounds += 1;
        let current = rank(&loads);
        let (makespan, _) = current;
        let crit = (0..m)
            .find(|&k| loads[k] == makespan)
            .expect("some machine is critical");
        let mut applied = false;

        // Move: take a job off the critical machine.
        'moves: for (slot, &job) in per_machine[crit].iter().enumerate() {
            let t = inst.time(job);
            for dst in 0..m {
                if dst == crit || loads[dst] + t >= makespan {
                    continue;
                }
                loads[crit] -= t;
                loads[dst] += t;
                if rank(&loads) < current {
                    assignment[job] = dst;
                    per_machine[crit].swap_remove(slot);
                    per_machine[dst].push(job);
                    applied = true;
                    break 'moves;
                }
                loads[crit] += t;
                loads[dst] -= t;
            }
        }

        // Swap: exchange a critical job with a strictly shorter one.
        if !applied {
            'swaps: for (slot_a, &a) in per_machine[crit].iter().enumerate() {
                let ta = inst.time(a);
                for dst in 0..m {
                    if dst == crit {
                        continue;
                    }
                    for (slot_b, &b) in per_machine[dst].iter().enumerate() {
                        let tb = inst.time(b);
                        if tb >= ta || loads[dst] - tb + ta >= makespan {
                            continue;
                        }
                        loads[crit] = loads[crit] - ta + tb;
                        loads[dst] = loads[dst] - tb + ta;
                        if rank(&loads) < current {
                            assignment[a] = dst;
                            assignment[b] = crit;
                            per_machine[crit][slot_a] = b;
                            per_machine[dst][slot_b] = a;
                            applied = true;
                            break 'swaps;
                        }
                        loads[crit] = loads[crit] + ta - tb;
                        loads[dst] = loads[dst] + tb - ta;
                    }
                }
            }
        }

        if !applied {
            break; // local optimum
        }
        stats.accepted_moves += 1;
    }

    Schedule::new(assignment, m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn far_deadline() -> Instant {
        Instant::now() + Duration::from_secs(600)
    }

    #[test]
    fn pins_the_fixpoint_makespan() {
        let inst = Instance::new(vec![9, 7, 6, 5, 4, 4, 3, 2, 2], 3);
        let piled = Schedule::new(vec![0; 9], 3);
        let mut stats = ImproveStats::default();
        let out = descend(&inst, &piled, far_deadline(), 10_000, &mut stats);
        // A local optimum one above the area bound (42 / 3 = 14): no
        // single move or swap lowers the rank from here.
        assert_eq!(out.validate(&inst).unwrap(), 15);
        assert!(stats.accepted_moves >= 6, "pile → balanced takes moves");
    }

    #[test]
    fn fixes_the_classic_list_blunder() {
        // Both 4s on one machine: a swap (4↔1) then a move (a 1 back)
        // takes the loads (8, 4) → (5, 7) → (6, 6).
        let inst = Instance::new(vec![4, 4, 1, 1, 1, 1], 2);
        let bad = Schedule::new(vec![0, 0, 1, 1, 1, 1], 2);
        let mut stats = ImproveStats::default();
        let out = descend(&inst, &bad, far_deadline(), 100, &mut stats);
        assert_eq!(out.makespan(&inst), 6);
    }

    #[test]
    fn expired_deadline_returns_input_shape_unchanged() {
        let inst = Instance::new(vec![5, 4, 3], 2);
        let piled = Schedule::new(vec![0, 0, 0], 2);
        let mut stats = ImproveStats::default();
        let past = Instant::now() - Duration::from_millis(1);
        let out = descend(&inst, &piled, past, 10_000, &mut stats);
        assert_eq!(out, piled);
        assert_eq!(stats.rounds, 0);
        assert_eq!(stats.accepted_moves, 0);
    }

    #[test]
    fn round_cap_binds_before_fixpoint() {
        let inst = Instance::new(vec![9, 7, 6, 5, 4, 4, 3, 2, 2], 3);
        let piled = Schedule::new(vec![0; 9], 3);
        let mut stats = ImproveStats::default();
        let out = descend(&inst, &piled, far_deadline(), 1, &mut stats);
        assert_eq!(stats.rounds, 1);
        assert!(out.makespan(&inst) <= piled.makespan(&inst));
    }
}
