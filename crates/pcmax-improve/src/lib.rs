#![warn(missing_docs)]

//! Anytime, deadline-budgeted schedule improvement for P||Cmax.
//!
//! Every solver arm in the portfolio produces a concrete [`Schedule`];
//! this crate spends whatever request budget is left *after* the solve
//! refining it. The refiner is strictly monotone — it never returns a
//! schedule worse than its input — and deadline-disciplined: it checks
//! the clock between descent rounds, so it overruns its budget by at
//! most one round.
//!
//! The improver is one phase, the deterministic move/swap descent of
//! [`descent::descend`]: it relieves a most-loaded machine by moving one
//! of its jobs to a less-loaded machine or swapping it against a shorter
//! job elsewhere, accepting lexicographically on `(makespan, #machines
//! at makespan)` so plateaus where several machines tie at the maximum
//! still drain. There is no randomness, so the same input always gives
//! the same schedule.
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

/// Whether to run the improver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ImproveMode {
    /// Return the input untouched (the improver is a no-op).
    Off,
    /// Deterministic move/swap descent.
    Greedy,
}

impl std::str::FromStr for ImproveMode {
    type Err = String;

    /// Parses `off` or `greedy`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "off" => Ok(ImproveMode::Off),
            "greedy" => Ok(ImproveMode::Greedy),
            _ => Err(format!("unknown improve mode {s:?} (off|greedy)")),
        }
    }
}

impl std::fmt::Display for ImproveMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ImproveMode::Off => write!(f, "off"),
            ImproveMode::Greedy => write!(f, "greedy"),
        }
    }
}

/// Configuration for one [`improve`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ImproveConfig {
    /// Whether the descent runs.
    pub mode: ImproveMode,
    /// Wall-clock budget; the improver overruns it by at most one
    /// descent round.
    pub budget: Duration,
    /// Hard cap on descent rounds, binding when the budget is generous —
    /// it makes short runs reproducible independent of host speed.
    pub max_descent_rounds: usize,
}

impl Default for ImproveConfig {
    fn default() -> Self {
        Self {
            mode: ImproveMode::Greedy,
            budget: Duration::from_millis(2),
            max_descent_rounds: 100_000,
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
    };

    // Boundary check on the way out: the reported makespan is recomputed
    // from the assignment, and monotonicity is enforced structurally —
    // if refinement somehow regressed (it cannot: every accepted step
    // lowers the rank), the input wins.
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
        for bad in ["ga", "ga:2,8", "anneal"] {
            let err = bad.parse::<ImproveMode>().unwrap_err();
            assert!(err.contains("(off|greedy)"), "{err}");
        }
        for m in [ImproveMode::Off, ImproveMode::Greedy] {
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
            ..ImproveConfig::default()
        };
        let out = improve(&inst, &s, &cfg).unwrap();
        assert!(out.makespan <= s.makespan(&inst));
        assert_eq!(out.schedule.validate(&inst).unwrap(), out.makespan);
    }

    #[test]
    fn rejects_invalid_input() {
        let inst = inst();
        let wrong = Schedule::new(vec![0, 1], 3);
        assert!(improve(&inst, &wrong, &ImproveConfig::default()).is_err());
    }
}
