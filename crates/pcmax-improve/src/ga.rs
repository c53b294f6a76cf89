//! Phase 2: seeded island GA over assignment chromosomes.
//!
//! A chromosome is a direct job→machine assignment vector (every gene
//! value `< m` is valid, so crossover and mutation never need repair).
//! The descent result seeds individual 0 of every island; the rest of
//! each island starts as mutated copies. Each generation *all* islands'
//! offspring are concatenated into one batch handed to
//! [`crate::fitness::evaluate_batch`] — that batch is the atomic unit
//! the deadline is checked against, so the GA overruns its budget by at
//! most one evaluation batch. Every
//! [`MIGRATION_INTERVAL`] generations a deterministic ring migration
//! copies island *i*'s best over island *(i+1) mod I*'s worst.
//!
//! All randomness (tournament draws, crossover masks, mutation sites)
//! comes from one [`SmallRng`] seeded with [`ImproveConfig::seed`], so a
//! fixed seed reproduces the run exactly.

use crate::fitness::{evaluate_batch, makespan_of};
use crate::{ImproveConfig, ImproveStats};
use pcmax_core::instance::Instance;
use pcmax_core::schedule::Schedule;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Generations between ring migrations.
pub const MIGRATION_INTERVAL: u64 = 4;

/// Tournament size for parent selection.
const TOURNAMENT: usize = 3;

/// Runs the island GA from `seed_schedule` until the generation cap or
/// `deadline`. Returns the best schedule ever observed (including the
/// seed itself — monotone by construction).
pub fn run(
    inst: &Instance,
    seed_schedule: &Schedule,
    cfg: &ImproveConfig,
    islands: usize,
    pop: usize,
    deadline: Instant,
    stats: &mut ImproveStats,
) -> Schedule {
    let n = inst.num_jobs();
    let m = inst.machines();
    if n == 0 || m <= 1 {
        return seed_schedule.clone(); // nothing a reassignment can change
    }
    let islands = islands.max(1);
    let pop = pop.max(2);
    let mut rng = SmallRng::seed_from_u64(cfg.seed);

    let seed_genes = seed_schedule.assignment().to_vec();
    let mut best_genes = seed_genes.clone();
    let mut best_fit = makespan_of(inst, &seed_genes);

    // Island i, individual 0 is the seed; the rest are mutated copies.
    let mut populations: Vec<Vec<Vec<usize>>> = (0..islands)
        .map(|_| {
            (0..pop)
                .map(|i| {
                    let mut genes = seed_genes.clone();
                    if i > 0 {
                        mutate(&mut genes, m, &mut rng);
                    }
                    genes
                })
                .collect()
        })
        .collect();

    if Instant::now() >= deadline {
        return seed_schedule.clone();
    }
    let mut fitness = evaluate_flat(inst, &populations, stats);

    for gen in 0..cfg.max_generations as u64 {
        if Instant::now() >= deadline {
            break;
        }

        // Breed every island, then evaluate ALL offspring as one batch.
        let offspring: Vec<Vec<Vec<usize>>> = populations
            .iter()
            .zip(&fitness)
            .map(|(island, fit)| breed_island(island, fit, m, &mut rng))
            .collect();
        let offspring_fit = evaluate_flat(inst, &offspring, stats);
        stats.generations += 1;
        populations = offspring;
        fitness = offspring_fit;

        for (island, fit) in populations.iter().zip(&fitness) {
            let (idx, &f) = argmin(fit);
            if f < best_fit {
                best_fit = f;
                best_genes = island[idx].clone();
            }
        }

        if (gen + 1) % MIGRATION_INTERVAL == 0 && islands > 1 {
            migrate_ring(&mut populations, &mut fitness);
        }
    }

    Schedule::new(best_genes, m)
}

/// One island's next generation: the current best survives verbatim
/// (elitism), the rest are tournament-selected, crossed, mutated.
fn breed_island(
    island: &[Vec<usize>],
    fit: &[u64],
    m: usize,
    rng: &mut SmallRng,
) -> Vec<Vec<usize>> {
    let (elite_idx, _) = argmin(fit);
    let mut next = Vec::with_capacity(island.len());
    next.push(island[elite_idx].clone());
    while next.len() < island.len() {
        let a = tournament(fit, rng);
        let b = tournament(fit, rng);
        let mut child = crossover(&island[a], &island[b], rng);
        mutate(&mut child, m, rng);
        next.push(child);
    }
    next
}

/// Tournament selection: best of [`TOURNAMENT`] uniform draws (ties →
/// earliest draw).
fn tournament(fit: &[u64], rng: &mut SmallRng) -> usize {
    let mut winner = rng.gen_range(0..fit.len());
    for _ in 1..TOURNAMENT {
        let challenger = rng.gen_range(0..fit.len());
        if fit[challenger] < fit[winner] {
            winner = challenger;
        }
    }
    winner
}

/// Uniform crossover: each gene comes from either parent with equal
/// probability. Direct encoding keeps every child valid.
fn crossover(a: &[usize], b: &[usize], rng: &mut SmallRng) -> Vec<usize> {
    a.iter()
        .zip(b)
        .map(|(&ga, &gb)| if rng.gen_bool(0.5) { ga } else { gb })
        .collect()
}

/// Point mutation: each gene is reassigned to a uniform machine with
/// probability `1/n` — one expected reassignment per chromosome.
fn mutate(genes: &mut [usize], m: usize, rng: &mut SmallRng) {
    let n = genes.len().max(1) as u32;
    for g in genes.iter_mut() {
        if rng.gen_ratio(1, n) {
            *g = rng.gen_range(0..m);
        }
    }
}

/// Deterministic ring migration: island *i*'s best replaces island
/// *(i+1) mod I*'s worst (fitness value travels with the genes, so no
/// re-evaluation is needed).
fn migrate_ring(populations: &mut [Vec<Vec<usize>>], fitness: &mut [Vec<u64>]) {
    let islands = populations.len();
    let emigrants: Vec<(Vec<usize>, u64)> = populations
        .iter()
        .zip(fitness.iter())
        .map(|(island, fit)| {
            let (idx, &f) = argmin(fit);
            (island[idx].clone(), f)
        })
        .collect();
    for (i, (genes, f)) in emigrants.into_iter().enumerate() {
        let dst = (i + 1) % islands;
        let (worst, _) = argmax(&fitness[dst]);
        populations[dst][worst] = genes;
        fitness[dst][worst] = f;
    }
}

/// Evaluates all islands' chromosomes as ONE batch, preserving island
/// boundaries in the result.
fn evaluate_flat(
    inst: &Instance,
    populations: &[Vec<Vec<usize>>],
    stats: &mut ImproveStats,
) -> Vec<Vec<u64>> {
    let flat: Vec<Vec<usize>> = populations.iter().flatten().cloned().collect();
    stats.evaluations += flat.len() as u64;
    let values = evaluate_batch(inst, &flat);
    let mut out = Vec::with_capacity(populations.len());
    let mut cursor = 0;
    for island in populations {
        out.push(values[cursor..cursor + island.len()].to_vec());
        cursor += island.len();
    }
    out
}

fn argmin(values: &[u64]) -> (usize, &u64) {
    values
        .iter()
        .enumerate()
        .min_by_key(|&(i, v)| (*v, i))
        .expect("non-empty")
}

fn argmax(values: &[u64]) -> (usize, &u64) {
    values
        .iter()
        .enumerate()
        .max_by_key(|&(i, v)| (*v, std::cmp::Reverse(i)))
        .expect("non-empty")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn far_deadline() -> Instant {
        Instant::now() + Duration::from_secs(600)
    }

    fn cfg() -> ImproveConfig {
        ImproveConfig {
            max_generations: 10,
            ..ImproveConfig::default()
        }
    }

    #[test]
    fn never_worse_than_seed() {
        let inst = Instance::new(vec![9, 7, 6, 5, 4, 4, 3, 2, 2], 3);
        let piled = Schedule::new(vec![0; 9], 3);
        let mut stats = ImproveStats::default();
        let out = run(&inst, &piled, &cfg(), 2, 8, far_deadline(), &mut stats);
        assert!(out.makespan(&inst) <= piled.makespan(&inst));
        assert_eq!(out.validate(&inst).unwrap(), out.makespan(&inst));
        assert!(stats.generations > 0);
        // 2 islands × 8 pop × (1 init + 10 gens) evaluations.
        assert_eq!(stats.evaluations, 2 * 8 * 11);
    }

    #[test]
    fn fixed_seed_reproduces() {
        let inst = Instance::new(vec![23, 19, 17, 13, 11, 7, 7, 5, 3, 2], 4);
        let seed = pcmax_core::heuristics::lpt(&inst);
        let mut base = cfg();
        base.seed = 7;
        let mut s1 = ImproveStats::default();
        let mut s2 = ImproveStats::default();
        let a = run(&inst, &seed, &base, 3, 6, far_deadline(), &mut s1);
        let b = run(&inst, &seed, &base, 3, 6, far_deadline(), &mut s2);
        assert_eq!(a, b, "a fixed seed must reproduce the search trajectory");
        assert_eq!(s1.evaluations, s2.evaluations);
    }

    #[test]
    fn single_machine_or_empty_is_identity() {
        let inst = Instance::new(vec![5, 4], 1);
        let s = Schedule::new(vec![0, 0], 1);
        let mut stats = ImproveStats::default();
        let out = run(&inst, &s, &cfg(), 2, 4, far_deadline(), &mut stats);
        assert_eq!(out, s);
        assert_eq!(stats.evaluations, 0);
    }

    #[test]
    fn expired_deadline_returns_seed() {
        let inst = Instance::new(vec![9, 7, 6, 5], 2);
        let s = Schedule::new(vec![0, 0, 0, 0], 2);
        let mut stats = ImproveStats::default();
        let past = Instant::now() - Duration::from_millis(1);
        let out = run(&inst, &s, &cfg(), 2, 4, past, &mut stats);
        assert_eq!(out, s);
        assert_eq!(stats.generations, 0);
    }

    #[test]
    fn migration_moves_the_ring_best() {
        let mut pops = vec![
            vec![vec![0, 0], vec![1, 1]],
            vec![vec![0, 1], vec![1, 0]],
        ];
        let mut fit = vec![vec![5, 9], vec![7, 8]];
        migrate_ring(&mut pops, &mut fit);
        // Island 0's best (fit 5) replaced island 1's worst (fit 8).
        assert_eq!(fit[1], vec![7, 5]);
        assert_eq!(pops[1][1], vec![0, 0]);
        // Island 1's best (fit 7) replaced island 0's worst (fit 9).
        assert_eq!(fit[0], vec![5, 7]);
        assert_eq!(pops[0][1], vec![0, 1]);
    }
}
