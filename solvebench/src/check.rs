//! The benchmark's answer check. Every reply, in-process or off the
//! wire, must carry a valid assignment whose recomputed makespan and gap
//! equal the reported ones; replies that have a reference answer must
//! also match it.

use pcmax_core::{lower_bound, Guarantee, Instance, Schedule};
use pcmax_serve::proto::{self, OkReply};
use pcmax_serve::SolveResponse;

/// A reference answer for one instance (the in-process service's reply).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Expected {
    /// Reference makespan.
    pub makespan: u64,
    /// Reference converged target.
    pub target: Option<u64>,
    /// Reference gap against the lower bound.
    pub gap_ppm: u64,
    /// Reference assignment.
    pub assignment: Vec<usize>,
}

impl Expected {
    /// The reference held by a service response.
    pub fn of(res: &SolveResponse) -> Self {
        Self {
            makespan: res.makespan,
            target: res.target,
            gap_ppm: res.stats.gap_ppm,
            assignment: res.schedule.assignment().to_vec(),
        }
    }
}

/// Checks one answer. `Err` names the first defect found.
pub fn check_answer(
    inst: &Instance,
    assignment: &[usize],
    makespan: u64,
    target: Option<u64>,
    gap_ppm: u64,
    expect: Option<&Expected>,
) -> Result<(), String> {
    if assignment.len() != inst.num_jobs() {
        return Err(format!(
            "assignment covers {} jobs, instance has {}",
            assignment.len(),
            inst.num_jobs()
        ));
    }
    if let Some(&m) = assignment.iter().find(|&&m| m >= inst.machines()) {
        return Err(format!(
            "job assigned to machine {m} of {}",
            inst.machines()
        ));
    }
    let recomputed = Schedule::new(assignment.to_vec(), inst.machines()).validate(inst)?;
    if recomputed != makespan {
        return Err(format!(
            "reported makespan {makespan}, recomputed {recomputed}"
        ));
    }
    let gap = Guarantee::gap_ppm(recomputed, lower_bound(inst));
    if gap != gap_ppm {
        return Err(format!("reported gap {gap_ppm} ppm, recomputed {gap} ppm"));
    }
    if let Some(e) = expect {
        if (makespan, target, gap_ppm) != (e.makespan, e.target, e.gap_ppm)
            || assignment != e.assignment.as_slice()
        {
            return Err(format!(
                "answer (makespan {makespan}, target {target:?}) differs from the in-process \
                 answer (makespan {}, target {:?})",
                e.makespan, e.target
            ));
        }
    }
    Ok(())
}

/// Checks an in-process service response.
pub fn check_response(
    inst: &Instance,
    res: &SolveResponse,
    expect: Option<&Expected>,
) -> Result<(), String> {
    check_answer(
        inst,
        res.schedule.assignment(),
        res.makespan,
        res.target,
        res.stats.gap_ppm,
        expect,
    )
}

/// Checks an answer obtained through [`pcmax_serve::Client`].
pub fn check_client_reply(
    inst: &Instance,
    reply: &pcmax_serve::ClientReply,
    expect: Option<&Expected>,
) -> Result<(), String> {
    check_answer(
        inst,
        reply.schedule.assignment(),
        reply.makespan,
        reply.target,
        reply.gap_ppm,
        expect,
    )
}

/// Parses and checks one reply line off the wire.
pub fn check_line(
    inst: &Instance,
    line: &str,
    expect: Option<&Expected>,
) -> Result<OkReply, String> {
    let reply = proto::parse_response(line.trim_end())?;
    check_answer(
        inst,
        &reply.assignment,
        reply.makespan,
        reply.target,
        reply.gap_ppm,
        expect,
    )?;
    Ok(reply)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcmax_serve::{ServeConfig, Service, SolveRequest};

    fn solved() -> (Instance, SolveResponse) {
        let inst = pcmax_core::gen::uniform(7, 20, 4, 1, 50);
        let service = Service::start(ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        });
        let res = service
            .solve_blocking(SolveRequest {
                instance: inst.clone(),
                epsilon: Some(0.3),
                deadline: None,
            })
            .unwrap();
        service.shutdown();
        (inst, res)
    }

    #[test]
    fn a_true_reply_passes() {
        let (inst, res) = solved();
        check_response(&inst, &res, None).unwrap();
        check_response(&inst, &res, Some(&Expected::of(&res))).unwrap();
        let line = proto::format_response(&res);
        check_line(&inst, &line, Some(&Expected::of(&res))).unwrap();
    }

    #[test]
    fn corrupted_replies_are_caught() {
        let (inst, res) = solved();
        let good = proto::format_response(&res);
        let expect = Expected::of(&res);
        let words: Vec<&str> = good.split(' ').collect();

        // Wrong makespan.
        let mut w = words.clone();
        let bumped = (res.makespan + 1).to_string();
        w[1] = &bumped;
        assert!(check_line(&inst, &w.join(" "), None).is_err());

        // Wrong gap.
        let mut w = words.clone();
        let gap = (res.stats.gap_ppm + 1).to_string();
        w[10] = &gap;
        assert!(check_line(&inst, &w.join(" "), None).is_err());

        // One job moved to another machine: the makespan or the reference
        // assignment no longer matches.
        let mut assignment = res.schedule.assignment().to_vec();
        assignment[0] = (assignment[0] + 1) % inst.machines();
        assert!(check_answer(
            &inst,
            &assignment,
            res.makespan,
            res.target,
            res.stats.gap_ppm,
            Some(&expect)
        )
        .is_err());

        // Out-of-range machine, truncated assignment, server error.
        let mut bad = res.schedule.assignment().to_vec();
        bad[0] = inst.machines();
        assert!(check_answer(
            &inst,
            &bad,
            res.makespan,
            res.target,
            res.stats.gap_ppm,
            None
        )
        .is_err());
        assert!(check_answer(
            &inst,
            &bad[1..],
            res.makespan,
            res.target,
            res.stats.gap_ppm,
            None
        )
        .is_err());
        assert!(check_line(&inst, "err overloaded", None).is_err());

        // A different target than the in-process answer.
        let other = Expected {
            target: res.target.map(|t| t + 1),
            ..expect
        };
        assert!(check_response(&inst, &res, Some(&other)).is_err());
    }
}
