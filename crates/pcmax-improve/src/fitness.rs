//! Batched makespan-fitness evaluation across the rayon pool.
//!
//! Each chromosome's fitness is its exact integer makespan (a u64 load
//! accumulation — safe because every gated [`Instance`] has
//! Σtⱼ ≤ `u64::MAX`). The batch has the shape of a GPU fitness kernel
//! (one thread per chromosome); here it is mapped across the rayon pool.

use pcmax_core::instance::Instance;
use rayon::prelude::*;

/// Exact makespan of one assignment chromosome. `u64` accumulation is
/// safe: the instance gate caps total work at `u64::MAX`.
pub fn makespan_of(inst: &Instance, assignment: &[usize]) -> u64 {
    debug_assert_eq!(assignment.len(), inst.num_jobs());
    let mut loads = vec![0u64; inst.machines()];
    for (job, &m) in assignment.iter().enumerate() {
        loads[m] += inst.time(job);
    }
    loads.into_iter().max().unwrap_or(0)
}

/// Evaluates a population's makespans across the rayon pool.
pub fn evaluate_batch(inst: &Instance, population: &[Vec<usize>]) -> Vec<u64> {
    population
        .par_iter()
        .map(|chromo| makespan_of(inst, chromo))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn batch_matches_one_by_one() {
        let inst = Instance::new(vec![13, 11, 7, 7, 5, 3, 3, 2, 1, 1], 3);
        let mut rng = SmallRng::seed_from_u64(42);
        let pop: Vec<Vec<usize>> = (0..70)
            .map(|_| (0..inst.num_jobs()).map(|_| rng.gen_range(0..3)).collect())
            .collect();
        let one_by_one: Vec<u64> = pop.iter().map(|c| makespan_of(&inst, c)).collect();
        assert_eq!(evaluate_batch(&inst, &pop), one_by_one);
    }

    #[test]
    fn makespan_matches_schedule() {
        let inst = Instance::new(vec![3, 1, 4, 1, 5], 2);
        let assignment = vec![0, 0, 1, 1, 0];
        let s = pcmax_core::Schedule::new(assignment.clone(), 2);
        assert_eq!(makespan_of(&inst, &assignment), s.makespan(&inst));
    }

    #[test]
    fn empty_population_is_fine() {
        let inst = Instance::new(vec![1, 2], 2);
        assert!(evaluate_batch(&inst, &[]).is_empty());
    }

    #[test]
    fn u64_scale_fitness_does_not_wrap() {
        let inst = Instance::new(vec![u64::MAX - 1, 1], 2);
        let piled = vec![0usize, 0];
        assert_eq!(makespan_of(&inst, &piled), u64::MAX);
        assert_eq!(evaluate_batch(&inst, &[piled]), vec![u64::MAX]);
    }
}
