//! Certified approximation guarantees, one per solver arm.
//!
//! A [`Guarantee`] is the claim `makespan ≤ (num/den)·OPT + slack`,
//! carried alongside every answer so callers (and the audit harness)
//! know exactly how far from optimal a schedule can be. Guarantees are
//! *certificates*, not aspirations: every constructor corresponds to a
//! theorem about the algorithm that produced the schedule (Graham's LPT
//! bound, the critical-index refinement, Yue's 13/11 MULTIFIT bound with
//! the binary search's unresolved interval as explicit slack, the PTAS
//! `1 + 1/k + 1/k²` envelope) or to an instance-specific a-posteriori
//! ratio against the area/max lower bound. [`Guarantee::holds`] checks
//! the claim against a known optimum entirely in `u128`, so u64-scale
//! makespans never wrap mid-audit.

/// The claim `makespan ≤ (num/den)·OPT + slack` for one schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Guarantee {
    /// Numerator of the multiplicative ratio.
    pub num: u64,
    /// Denominator of the multiplicative ratio (never zero).
    pub den: u64,
    /// Additive slack on top of the ratio (integer-rounding and
    /// finite-search residue; zero for purely multiplicative bounds).
    pub slack: u64,
}

impl Guarantee {
    /// An exact answer: `makespan = OPT`.
    pub const EXACT: Guarantee = Guarantee {
        num: 1,
        den: 1,
        slack: 0,
    };

    /// Graham list scheduling on `m` machines: `2 − 1/m`.
    pub fn list_scheduling(m: usize) -> Self {
        let m = m.max(1) as u64;
        Guarantee {
            num: 2 * m - 1,
            den: m,
            slack: 0,
        }
        .reduced()
    }

    /// Plain LPT on `m` machines: Graham's `4/3 − 1/(3m)`.
    pub fn lpt(m: usize) -> Self {
        let m = m.max(1) as u64;
        Guarantee {
            num: 4 * m - 1,
            den: 3 * m,
            slack: 0,
        }
        .reduced()
    }

    /// The critical-index refinement of the LPT bound: if the job that
    /// realises the LPT makespan sits at (1-based) position `c` of the
    /// LPT order, then with `q = ⌈c/m⌉` the makespan is at most
    /// `(1 + (1 − 1/m)/q)·OPT`. (The critical job starts no later than
    /// `OPT − t_c/m`, and `OPT ≥ q·t_c` because some machine holds `q`
    /// of the first `c` jobs, each of length ≥ `t_c`.) At `q = 3` this
    /// equals Graham's `4/3 − 1/(3m)`; a later critical job certifies a
    /// strictly tighter ratio — the instance-adaptive part of
    /// LPT-revisited's reported bound.
    pub fn lpt_critical(m: usize, c: usize) -> Self {
        let m = m.max(1) as u64;
        let q = (c.max(1) as u64).div_ceil(m);
        Guarantee {
            num: m * q + m - 1,
            den: m * q,
            slack: 0,
        }
        .reduced()
    }

    /// MULTIFIT after `iterations` capacity halvings over a search
    /// interval of `search_width`: Yue's `13/11` FFD bound plus the
    /// interval residue the finite search leaves unresolved. Every cap
    /// the search discards is FFD-infeasible and hence below
    /// `13/11·OPT`, so the final feasible cap — which upper-bounds the
    /// returned makespan — exceeds `13/11·OPT` by at most the residual
    /// width (`search_width >> iterations`) plus integer-rounding crumbs.
    pub fn multifit(iterations: usize, search_width: u64) -> Self {
        let shift = iterations.min(63) as u32;
        Guarantee {
            num: 13,
            den: 11,
            slack: (search_width >> shift)
                .saturating_add(iterations as u64)
                .saturating_add(1),
        }
    }

    /// The dual-approximation PTAS with rounding parameter `k`:
    /// `1 + 1/k + 1/k²` with 2 units of integer-rounding slack (the same
    /// envelope `pcmax-audit` has checked since PR 4).
    pub fn ptas(k: u64) -> Self {
        let k = k.max(1);
        Guarantee {
            num: k.saturating_mul(k)
                .saturating_add(k)
                .saturating_add(1),
            den: k.saturating_mul(k),
            slack: 2,
        }
    }

    /// Instance-specific certificate: the achieved makespan against the
    /// area/max lower bound. Always sound (`ms ≤ (ms/LB)·LB ≤ (ms/LB)·OPT`)
    /// and often far tighter than any worst-case theorem — a perfect fit
    /// certifies ratio 1 regardless of which arm found it.
    pub fn a_posteriori(makespan: u64, lower_bound: u64) -> Self {
        if lower_bound == 0 || makespan <= lower_bound {
            return Guarantee::EXACT;
        }
        Guarantee {
            num: makespan,
            den: lower_bound,
            slack: 0,
        }
        .reduced()
    }

    /// The tighter of two sound guarantees (smaller ratio, then smaller
    /// slack). Both inputs must already be certificates for the same
    /// schedule; picking either is sound, picking the smaller is useful.
    pub fn tighter(self, other: Guarantee) -> Self {
        let lhs = self.num as u128 * other.den as u128;
        let rhs = other.num as u128 * self.den as u128;
        match lhs.cmp(&rhs) {
            std::cmp::Ordering::Less => self,
            std::cmp::Ordering::Greater => other,
            std::cmp::Ordering::Equal => {
                if self.slack <= other.slack {
                    self
                } else {
                    other
                }
            }
        }
    }

    /// Whether `makespan ≤ (num/den)·opt + slack`, checked in `u128` so
    /// u64-scale values cannot wrap.
    pub fn holds(&self, makespan: u64, opt: u64) -> bool {
        let ms = makespan.saturating_sub(self.slack) as u128;
        ms * self.den.max(1) as u128 <= self.num as u128 * opt as u128
    }

    /// The multiplicative ratio as a float (ignores slack).
    pub fn ratio(&self) -> f64 {
        self.num as f64 / self.den.max(1) as f64
    }

    /// Achieved-vs-bound gap in parts per million:
    /// `⌊(makespan − lower_bound)·10⁶ / lower_bound⌋`, computed in `u128`
    /// so u64-scale makespans cannot wrap, clamped to `u64::MAX`. Zero
    /// when the makespan meets the bound (or the bound is trivially 0).
    /// This is the integer counterpart of the a-posteriori ratio: the
    /// serve layer reports it per request so the bench trajectory can
    /// track how far answers sit from the area/max lower bound.
    pub fn gap_ppm(makespan: u64, lower_bound: u64) -> u64 {
        if lower_bound == 0 || makespan <= lower_bound {
            return 0;
        }
        let excess = (makespan - lower_bound) as u128;
        let ppm = excess * 1_000_000 / lower_bound as u128;
        u64::try_from(ppm).unwrap_or(u64::MAX)
    }

    fn reduced(self) -> Self {
        let g = gcd(self.num.max(1), self.den.max(1));
        Guarantee {
            num: self.num / g,
            den: self.den / g,
            slack: self.slack,
        }
    }
}

impl std::fmt::Display for Guarantee {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}", self.num, self.den)?;
        if self.slack > 0 {
            write!(f, "+{}", self.slack)?;
        }
        Ok(())
    }
}

fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classical_ratios() {
        assert_eq!(Guarantee::lpt(1), Guarantee::EXACT);
        assert_eq!(
            Guarantee::lpt(3),
            Guarantee {
                num: 11,
                den: 9,
                slack: 0
            }
        );
        assert_eq!(
            Guarantee::list_scheduling(4),
            Guarantee {
                num: 7,
                den: 4,
                slack: 0
            }
        );
        // q = 3 reproduces Graham's LPT bound exactly.
        assert_eq!(Guarantee::lpt_critical(3, 9), Guarantee::lpt(3));
        // A later critical job certifies strictly tighter.
        let late = Guarantee::lpt_critical(3, 30);
        assert!(late.ratio() < Guarantee::lpt(3).ratio());
        assert!(Guarantee::lpt_critical(1, 5).ratio() == 1.0);
    }

    #[test]
    fn holds_checks_in_u128() {
        // 13/11 of u64-scale opt: the plain u64 product would wrap.
        let g = Guarantee {
            num: 13,
            den: 11,
            slack: 0,
        };
        let opt = u64::MAX / 2;
        assert!(g.holds(opt, opt));
        assert!(g.holds(opt + opt / 11, opt));
        assert!(!g.holds(opt + opt / 5, opt));
    }

    #[test]
    fn slack_is_additive() {
        let g = Guarantee {
            num: 1,
            den: 1,
            slack: 3,
        };
        assert!(g.holds(13, 10));
        assert!(!g.holds(14, 10));
    }

    #[test]
    fn multifit_slack_tracks_the_residual_interval() {
        let g = Guarantee::multifit(10, 1 << 20);
        assert_eq!(g.slack, (1 << 10) + 11);
        // Enough iterations drive the residue to the rounding floor.
        assert_eq!(Guarantee::multifit(64, u64::MAX).slack, 64 + 1 + 1);
    }

    #[test]
    fn a_posteriori_is_exact_on_perfect_fits() {
        assert_eq!(Guarantee::a_posteriori(10, 10), Guarantee::EXACT);
        assert_eq!(Guarantee::a_posteriori(0, 0), Guarantee::EXACT);
        let g = Guarantee::a_posteriori(12, 10);
        assert_eq!((g.num, g.den), (6, 5));
    }

    #[test]
    fn tighter_picks_the_smaller_ratio_then_slack() {
        let a = Guarantee::lpt(3);
        let b = Guarantee::lpt_critical(3, 100);
        assert_eq!(a.tighter(b), b);
        assert_eq!(b.tighter(a), b);
        let slackless = Guarantee::EXACT;
        let slacky = Guarantee {
            num: 1,
            den: 1,
            slack: 5,
        };
        assert_eq!(slacky.tighter(slackless), slackless);
    }

    #[test]
    fn ptas_matches_the_audit_envelope() {
        let g = Guarantee::ptas(4);
        assert_eq!((g.num, g.den, g.slack), (21, 16, 2));
        // ms ≤ opt + opt/k + opt/k² + 2, the check_ptas_invariant form.
        assert!(g.holds(100 + 25 + 6 + 2, 100));
    }

    #[test]
    fn gap_ppm_is_exact_and_u128_safe() {
        assert_eq!(Guarantee::gap_ppm(10, 10), 0);
        assert_eq!(Guarantee::gap_ppm(5, 10), 0);
        assert_eq!(Guarantee::gap_ppm(7, 0), 0);
        // 12 vs 10 → 20% → 200_000 ppm.
        assert_eq!(Guarantee::gap_ppm(12, 10), 200_000);
        // Truncates, never rounds up: 1/3 → 333_333 ppm.
        assert_eq!(Guarantee::gap_ppm(4, 3), 333_333);
        // u64-scale: the u64 product ms·10⁶ would wrap; u128 doesn't.
        let lb = u64::MAX / 2;
        assert_eq!(Guarantee::gap_ppm(lb + lb / 10, lb), 99_999);
        // Degenerate tiny bound clamps instead of overflowing the cast.
        assert_eq!(Guarantee::gap_ppm(u64::MAX, 1), u64::MAX);
    }

    #[test]
    fn display_is_compact() {
        assert_eq!(Guarantee::lpt(3).to_string(), "11/9");
        assert_eq!(
            Guarantee {
                num: 13,
                den: 11,
                slack: 4
            }
            .to_string(),
            "13/11+4"
        );
    }
}
