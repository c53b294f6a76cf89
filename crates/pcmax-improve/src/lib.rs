#![warn(missing_docs)]

//! Anytime, deadline-budgeted schedule improvement for P||Cmax.
//!
//! Every solver arm in the portfolio produces a concrete [`Schedule`];
//! this crate spends whatever request budget is left *after* the solve
//! refining it. The refiner is strictly monotone — it never returns a
//! schedule worse than its input — and deadline-disciplined: it checks
//! the clock between atomic units of work (one descent round, one GA
//! evaluation batch), so it overruns its budget by at most one such
//! unit.
//!
//! Two phases, selected by [`ImproveMode`]:
//!
//! 1. **Greedy descent** ([`ImproveMode::Greedy`]): deterministic
//!    move/swap neighborhood search that relieves a most-loaded machine
//!    by moving one of its jobs to a less-loaded machine or swapping it
//!    against a shorter job elsewhere, accepting lexicographically on
//!    `(makespan, #machines at makespan)` so plateaus where several
//!    machines tie at the maximum still drain.
//! 2. **Island GA** ([`ImproveMode::Ga`]): the descent result seeds a
//!    population split across islands. Each generation every island's
//!    offspring are concatenated into one batch whose makespan fitness
//!    is evaluated across the rayon pool ([`evaluate_batch`]). Migration
//!    is a deterministic ring (island *i*'s best replaces island *i+1*'s
//!    worst every [`ga::MIGRATION_INTERVAL`] generations), and all
//!    randomness flows from one splitmix-seeded [`rand::rngs::SmallRng`],
//!    so a fixed [`ImproveConfig::seed`] reproduces the run exactly.
//!
//! Boundary discipline: [`improve`] validates its input schedule on
//! entry ([`Schedule::validate`]) and recomputes the output makespan
//! from first principles on exit ([`Schedule::recompute_makespan`]);
//! the reported [`ImproveOutcome::makespan`] is always the recomputed
//! value, never a running counter.

use pcmax_core::instance::Instance;
use pcmax_core::schedule::Schedule;
use std::time::{Duration, Instant};

pub mod descent;
pub mod fitness;
pub mod ga;

pub use fitness::evaluate_batch;

/// Which improvement pipeline to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ImproveMode {
    /// Return the input untouched (the improver is a no-op).
    Off,
    /// Deterministic move/swap descent only.
    Greedy,
    /// Descent, then a seeded island GA on the descent result.
    Ga {
        /// Number of islands (≥ 1).
        islands: usize,
        /// Population per island (≥ 2).
        pop: usize,
    },
}

impl ImproveMode {
    /// Default GA shape when `ga` is requested without parameters.
    pub const DEFAULT_GA: ImproveMode = ImproveMode::Ga { islands: 4, pop: 16 };
}

impl std::str::FromStr for ImproveMode {
    type Err = String;

    /// Parses `off`, `greedy`, `ga`, or `ga:ISLANDS,POP`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "off" => return Ok(ImproveMode::Off),
            "greedy" => return Ok(ImproveMode::Greedy),
            "ga" => return Ok(ImproveMode::DEFAULT_GA),
            _ => {}
        }
        if let Some(rest) = s.strip_prefix("ga:") {
            let (islands, pop) = rest
                .split_once(',')
                .ok_or_else(|| format!("expected ga:ISLANDS,POP, got {s:?}"))?;
            let islands: usize = islands
                .parse()
                .map_err(|_| format!("bad island count in {s:?}"))?;
            let pop: usize = pop.parse().map_err(|_| format!("bad population in {s:?}"))?;
            if islands == 0 || pop < 2 {
                return Err(format!("need ≥1 island and population ≥2, got {s:?}"));
            }
            return Ok(ImproveMode::Ga { islands, pop });
        }
        Err(format!("unknown improve mode {s:?} (off|greedy|ga[:I,P])"))
    }
}

impl std::fmt::Display for ImproveMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ImproveMode::Off => write!(f, "off"),
            ImproveMode::Greedy => write!(f, "greedy"),
            ImproveMode::Ga { islands, pop } => write!(f, "ga:{islands},{pop}"),
        }
    }
}

/// Configuration for one [`improve`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ImproveConfig {
    /// Pipeline selection.
    pub mode: ImproveMode,
    /// Wall-clock budget; the improver overruns it by at most one
    /// descent round or one GA evaluation batch.
    pub budget: Duration,
    /// Seed for every random decision (GA only); fixed seed → identical
    /// output schedule.
    pub seed: u64,
    /// Hard cap on descent rounds, binding when the budget is generous —
    /// it makes short runs reproducible independent of host speed.
    pub max_descent_rounds: usize,
    /// Hard cap on GA generations, same role as `max_descent_rounds`.
    pub max_generations: usize,
}

impl Default for ImproveConfig {
    fn default() -> Self {
        Self {
            mode: ImproveMode::Greedy,
            budget: Duration::from_millis(2),
            seed: 0x1d0_c0ffee,
            max_descent_rounds: 100_000,
            max_generations: 64,
        }
    }
}

/// What one [`improve`] call did — read by the `pcmax improve` report
/// and the serve stats JSON.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ImproveStats {
    /// Descent rounds attempted (including the final non-improving one).
    pub rounds: u64,
    /// Descent moves/swaps actually applied.
    pub accepted_moves: u64,
    /// GA generations evaluated.
    pub generations: u64,
    /// Chromosomes whose fitness was computed (all paths).
    pub evaluations: u64,
    /// Makespan of the validated input schedule.
    pub initial_makespan: u64,
    /// Recomputed makespan of the returned schedule.
    pub final_makespan: u64,
    /// Wall-clock spent inside the improver, µs.
    pub budget_used_us: u64,
}

/// An improved schedule plus its recomputed makespan and run stats.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ImproveOutcome {
    /// The best schedule found (never worse than the input).
    pub schedule: Schedule,
    /// `schedule.recompute_makespan(inst)` — the boundary-checked value.
    pub makespan: u64,
    /// What the run did.
    pub stats: ImproveStats,
}

/// Refines `input` within `cfg.budget`, returning the best schedule
/// found. Errors only if the input schedule fails
/// [`Schedule::validate`]; a zero budget or [`ImproveMode::Off`] returns
/// the input unchanged (monotone best-so-far invariant: the output
/// makespan is ≤ the input makespan, always).
pub fn improve(
    inst: &Instance,
    input: &Schedule,
    cfg: &ImproveConfig,
) -> Result<ImproveOutcome, String> {
    let initial_makespan = input.validate(inst)?;
    let started = Instant::now();
    let deadline = started + cfg.budget;
    let mut stats = ImproveStats {
        initial_makespan,
        final_makespan: initial_makespan,
        ..ImproveStats::default()
    };

    let schedule = match cfg.mode {
        ImproveMode::Off => input.clone(),
        ImproveMode::Greedy => descent::descend(
            inst,
            input,
            deadline,
            cfg.max_descent_rounds,
            &mut stats,
        ),
        ImproveMode::Ga { islands, pop } => {
            let seeded = descent::descend(
                inst,
                input,
                deadline,
                cfg.max_descent_rounds,
                &mut stats,
            );
            ga::run(inst, &seeded, cfg, islands, pop, deadline, &mut stats)
        }
    };

    // Boundary check on the way out: the reported makespan is recomputed
    // from the assignment, and monotonicity is enforced structurally —
    // if refinement somehow regressed (it cannot: both phases track
    // best-so-far), the input wins.
    let makespan = schedule.recompute_makespan(inst);
    let (schedule, makespan) = if makespan <= initial_makespan {
        (schedule, makespan)
    } else {
        (input.clone(), initial_makespan)
    };
    stats.final_makespan = makespan;
    stats.budget_used_us = started.elapsed().as_micros().min(u64::MAX as u128) as u64;

    Ok(ImproveOutcome {
        schedule,
        makespan,
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcmax_core::heuristics::lpt;

    fn inst() -> Instance {
        Instance::new(vec![9, 7, 6, 5, 4, 4, 3, 2, 2], 3)
    }

    /// A deliberately bad schedule: everything piled on machine 0.
    fn piled(inst: &Instance) -> Schedule {
        Schedule::new(vec![0; inst.num_jobs()], inst.machines())
    }

    #[test]
    fn mode_parses_and_displays() {
        assert_eq!("off".parse::<ImproveMode>().unwrap(), ImproveMode::Off);
        assert_eq!("greedy".parse::<ImproveMode>().unwrap(), ImproveMode::Greedy);
        assert_eq!("ga".parse::<ImproveMode>().unwrap(), ImproveMode::DEFAULT_GA);
        assert_eq!(
            "ga:2,8".parse::<ImproveMode>().unwrap(),
            ImproveMode::Ga { islands: 2, pop: 8 }
        );
        assert_eq!(ImproveMode::Ga { islands: 2, pop: 8 }.to_string(), "ga:2,8");
        assert!("ga:0,8".parse::<ImproveMode>().is_err());
        assert!("ga:2,1".parse::<ImproveMode>().is_err());
        assert!("anneal".parse::<ImproveMode>().is_err());
        for m in [ImproveMode::Off, ImproveMode::Greedy, ImproveMode::DEFAULT_GA] {
            assert_eq!(m.to_string().parse::<ImproveMode>().unwrap(), m);
        }
    }

    #[test]
    fn off_returns_input_unchanged() {
        let inst = inst();
        let s = piled(&inst);
        let cfg = ImproveConfig {
            mode: ImproveMode::Off,
            ..ImproveConfig::default()
        };
        let out = improve(&inst, &s, &cfg).unwrap();
        assert_eq!(out.schedule, s);
        assert_eq!(out.makespan, s.makespan(&inst));
        assert_eq!(out.stats.rounds, 0);
    }

    #[test]
    fn greedy_improves_a_piled_schedule() {
        let inst = inst();
        let s = piled(&inst);
        let cfg = ImproveConfig {
            budget: Duration::from_secs(5),
            ..ImproveConfig::default()
        };
        let out = improve(&inst, &s, &cfg).unwrap();
        assert!(out.makespan < s.makespan(&inst));
        assert_eq!(out.schedule.validate(&inst).unwrap(), out.makespan);
        assert!(out.stats.accepted_moves > 0);
        // Σtⱼ = 42 over 3 machines: the pile (42) must come down close
        // to the area bound (14); move/swap descent may stop one short
        // of the perfect split at its local optimum.
        assert!(out.makespan <= 15, "descent stalled at {}", out.makespan);
    }

    #[test]
    fn zero_budget_is_a_noop_but_still_valid() {
        let inst = inst();
        let s = piled(&inst);
        let cfg = ImproveConfig {
            budget: Duration::ZERO,
            mode: ImproveMode::DEFAULT_GA,
            ..ImproveConfig::default()
        };
        let out = improve(&inst, &s, &cfg).unwrap();
        assert!(out.makespan <= s.makespan(&inst));
        assert_eq!(out.schedule.validate(&inst).unwrap(), out.makespan);
    }

    #[test]
    fn ga_never_worse_than_lpt_input_and_is_deterministic() {
        let inst = Instance::new(
            vec![23, 19, 17, 17, 13, 11, 11, 7, 7, 5, 5, 3, 3, 2, 2, 1],
            4,
        );
        let s = lpt(&inst);
        let cfg = ImproveConfig {
            mode: ImproveMode::Ga { islands: 2, pop: 8 },
            budget: Duration::from_secs(60),
            max_generations: 12,
            max_descent_rounds: 100,
            ..ImproveConfig::default()
        };
        let a = improve(&inst, &s, &cfg).unwrap();
        let b = improve(&inst, &s, &cfg).unwrap();
        assert!(a.makespan <= s.makespan(&inst));
        assert_eq!(a.schedule, b.schedule, "fixed seed must reproduce");
        assert_eq!(a.makespan, b.makespan);
        assert!(a.stats.generations > 0);
        assert!(a.stats.evaluations > 0);
    }

    #[test]
    fn rejects_invalid_input() {
        let inst = inst();
        let wrong = Schedule::new(vec![0, 1], 3);
        assert!(improve(&inst, &wrong, &ImproveConfig::default()).is_err());
    }
}
