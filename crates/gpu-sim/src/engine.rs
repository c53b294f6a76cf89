//! The discrete-event execution engine.
//!
//! Streams are FIFO queues of kernels; the heads of distinct streams run
//! concurrently (Hyper-Q), up to `max_concurrent_kernels`. Running kernels
//! share the device's warp slots by *water-filling* processor sharing: no
//! kernel gets more slots than it has warps, and leftover slots are
//! redistributed — under-filled kernels therefore leave throughput for
//! their stream-mates, which is exactly why the paper fans blocks out
//! across four streams.
//!
//! A kernel's life: `overhead phase` (host launch latency + dynamic-
//! parallelism child launches + trailing syncs, serial) → `compute phase`
//! (its warp-cycles drain at its slot share, floored by the critical
//! warp). The loop advances to the earliest kernel completion or phase
//! change and recomputes shares — a deterministic processor-sharing
//! simulation.

use crate::kernel::KernelDesc;
use crate::metrics::{KernelRecord, SimReport};
use crate::spec::DeviceSpec;
use std::collections::VecDeque;

/// How concurrent kernels divide the device's warp slots.
///
/// Both policies are deterministic; offering two lets model-sensitivity
/// tests check that the paper's orderings do not hinge on the exact
/// slot-sharing assumption.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SharePolicy {
    /// Fair share with leftover redistribution: a kernel never gets more
    /// slots than it has warps, and slots it cannot use flow to its
    /// concurrent peers (closest to real block-level scheduling).
    #[default]
    WaterFilling,
    /// Strict equal split: each computing kernel gets `slots / n`, capped
    /// by its own width; leftovers are wasted (a pessimistic partition,
    /// akin to static SM partitioning).
    EqualShare,
}

/// The simulator: a device plus stream queues.
pub struct GpuSim {
    spec: DeviceSpec,
    streams: Vec<VecDeque<KernelDesc>>,
    policy: SharePolicy,
}

#[derive(Debug)]
struct Active {
    stream: usize,
    name: String,
    start_ns: f64,
    /// Absolute time at which the overhead phase ends.
    compute_from_ns: f64,
    /// Remaining warp-cycles of throughput work.
    remaining_work: f64,
    /// Remaining critical-path cycles.
    remaining_critical: f64,
    /// Maximum slots this kernel can use (its warp count).
    width: usize,
    warps: usize,
    transactions: u64,
    accesses: u64,
    total_work: f64,
}

impl GpuSim {
    /// Creates a simulator with `num_streams` streams.
    pub fn new(spec: DeviceSpec, num_streams: usize) -> Self {
        assert!(num_streams > 0, "need at least one stream");
        Self {
            spec,
            streams: (0..num_streams).map(|_| VecDeque::new()).collect(),
            policy: SharePolicy::default(),
        }
    }

    /// Sets the slot-sharing policy (see [`SharePolicy`]).
    pub fn with_policy(mut self, policy: SharePolicy) -> Self {
        self.policy = policy;
        self
    }

    #[inline]
    /// The device being simulated.
    pub fn spec(&self) -> &DeviceSpec {
        &self.spec
    }

    #[inline]
    /// Number of streams.
    pub fn num_streams(&self) -> usize {
        self.streams.len()
    }

    /// Enqueues a kernel on a stream (asynchronous launch semantics:
    /// ordering is per-stream only).
    pub fn launch(&mut self, stream: usize, kernel: KernelDesc) {
        self.streams[stream].push_back(kernel);
    }

    /// Runs every queued kernel to completion and drains the queues.
    pub fn run(&mut self) -> SimReport {
        let spec = self.spec.clone();
        let slots = spec.warp_slots() as f64;
        let ns_per_cycle = spec.ns_per_cycle();

        let mut now = 0.0f64;
        let mut active: Vec<Active> = Vec::new();
        let mut records: Vec<KernelRecord> = Vec::new();
        let mut used_slot_time = 0.0f64; // slot·ns actually used
        let mut total_transactions = 0u64;
        let mut total_accesses = 0u64;

        loop {
            // Admit stream heads that are not yet running.
            for s in 0..self.streams.len() {
                if active.len() >= spec.max_concurrent_kernels {
                    break;
                }
                if active.iter().any(|a| a.stream == s) {
                    continue;
                }
                if let Some(k) = self.streams[s].pop_front() {
                    let overhead = spec.kernel_launch_ns + k.overhead_ns(&spec);
                    active.push(Active {
                        stream: s,
                        name: k.name.clone(),
                        start_ns: now,
                        compute_from_ns: now + overhead,
                        remaining_work: k.total_cycles(&spec),
                        remaining_critical: k.critical_cycles(&spec),
                        width: k.warp_count() as usize,
                        warps: k.warp_count() as usize,
                        transactions: k.transactions(),
                        accesses: k.accesses(),
                        total_work: k.total_cycles(&spec),
                    });
                }
            }
            if active.is_empty() {
                break;
            }

            // Water-filling share assignment among kernels in compute
            // phase: ascending width, each takes min(width, fair share of
            // what remains).
            let mut computing: Vec<usize> = active
                .iter()
                .enumerate()
                .filter(|(_, a)| now >= a.compute_from_ns && a.width > 0)
                .map(|(i, _)| i)
                .collect();
            computing.sort_by_key(|&i| active[i].width);
            let mut shares = vec![0.0f64; active.len()];
            match self.policy {
                SharePolicy::WaterFilling => {
                    let mut slots_left = slots;
                    let mut kernels_left = computing.len();
                    for &i in &computing {
                        let fair = slots_left / kernels_left as f64;
                        let take = (active[i].width as f64).min(fair);
                        shares[i] = take;
                        slots_left -= take;
                        kernels_left -= 1;
                    }
                }
                SharePolicy::EqualShare => {
                    let n = computing.len().max(1) as f64;
                    for &i in &computing {
                        shares[i] = (active[i].width as f64).min(slots / n);
                    }
                }
            }

            // Earliest next event: a phase change or a completion.
            let mut dt = f64::INFINITY;
            for (i, a) in active.iter().enumerate() {
                if now < a.compute_from_ns {
                    dt = dt.min(a.compute_from_ns - now);
                } else if a.width == 0 {
                    dt = dt.min(0.0);
                } else {
                    let share = shares[i].max(1e-12);
                    let finish_cycles = (a.remaining_work / share).max(a.remaining_critical);
                    dt = dt.min(finish_cycles * ns_per_cycle);
                }
            }
            debug_assert!(dt.is_finite());
            let dt = dt.max(0.0);

            // Advance time and progress.
            for (i, a) in active.iter_mut().enumerate() {
                if now >= a.compute_from_ns && a.width > 0 {
                    let cycles = dt / ns_per_cycle;
                    let drained = (shares[i] * cycles).min(a.remaining_work);
                    a.remaining_work -= drained;
                    a.remaining_critical = (a.remaining_critical - cycles).max(0.0);
                    used_slot_time += drained * ns_per_cycle;
                }
            }
            now += dt;

            // Retire finished kernels.
            let mut i = 0;
            while i < active.len() {
                let a = &active[i];
                let done = now >= a.compute_from_ns
                    && (a.width == 0
                        || (a.remaining_work <= 1e-6 && a.remaining_critical <= 1e-6));
                if done {
                    let a = active.swap_remove(i);
                    total_transactions += a.transactions;
                    total_accesses += a.accesses;
                    records.push(KernelRecord {
                        name: a.name,
                        stream: a.stream,
                        start_ns: a.start_ns,
                        end_ns: now,
                        warps: a.warps,
                        transactions: a.transactions,
                        accesses: a.accesses,
                        work_cycles: a.total_work,
                    });
                } else {
                    i += 1;
                }
            }
        }

        records.sort_by(|a, b| {
            a.start_ns
                .total_cmp(&b.start_ns)
                .then(a.stream.cmp(&b.stream))
        });
        let occupancy = if now > 0.0 {
            used_slot_time / (slots * now)
        } else {
            0.0
        };
        SimReport {
            total_ns: now,
            kernels: records,
            occupancy,
            total_transactions,
            total_accesses,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::warp::WarpDesc;

    fn warp(cycles: u64) -> WarpDesc {
        WarpDesc {
            active_threads: 32,
            compute_cycles: cycles,
            transactions: 0,
            accesses: 0,
        }
    }

    fn kernel(name: &str, warps: usize, cycles: u64) -> KernelDesc {
        KernelDesc::new(name, vec![warp(cycles); warps])
    }

    #[test]
    fn single_kernel_time_is_overhead_plus_work() {
        let spec = DeviceSpec::k40();
        let mut sim = GpuSim::new(spec.clone(), 1);
        // 90 warps exactly fill the slots: duration = critical path.
        sim.launch(0, kernel("k", 90, 1000));
        let r = sim.run();
        let expect = spec.kernel_launch_ns + 1000.0 * spec.ns_per_cycle();
        assert!(
            (r.total_ns - expect).abs() < 1.0,
            "got {} expect {expect}",
            r.total_ns
        );
        assert_eq!(r.kernels.len(), 1);
    }

    #[test]
    fn oversubscribed_kernel_is_throughput_bound() {
        let spec = DeviceSpec::k40();
        let mut sim = GpuSim::new(spec.clone(), 1);
        // 900 warps on 90 slots → 10 rounds.
        sim.launch(0, kernel("big", 900, 100));
        let r = sim.run();
        let expect = spec.kernel_launch_ns + 10.0 * 100.0 * spec.ns_per_cycle();
        assert!((r.total_ns - expect).abs() < 1.0);
    }

    #[test]
    fn same_stream_serialises_kernels() {
        let spec = DeviceSpec::k40();
        let mut sim = GpuSim::new(spec.clone(), 1);
        sim.launch(0, kernel("a", 90, 1000));
        sim.launch(0, kernel("b", 90, 1000));
        let serial = sim.run().total_ns;
        let one = spec.kernel_launch_ns + 1000.0 * spec.ns_per_cycle();
        assert!((serial - 2.0 * one).abs() < 1.0);
    }

    #[test]
    fn different_streams_overlap() {
        let spec = DeviceSpec::k40();
        // Two 45-warp kernels: together they exactly fill the device.
        let mut sim = GpuSim::new(spec.clone(), 2);
        sim.launch(0, kernel("a", 45, 1000));
        sim.launch(1, kernel("b", 45, 1000));
        let overlapped = sim.run().total_ns;
        let mut sim = GpuSim::new(spec.clone(), 1);
        sim.launch(0, kernel("a", 45, 1000));
        sim.launch(0, kernel("b", 45, 1000));
        let serial = sim.run().total_ns;
        assert!(
            overlapped < 0.6 * serial,
            "overlap {overlapped} vs serial {serial}"
        );
    }

    #[test]
    fn underfilled_streams_share_leftover_slots() {
        let spec = DeviceSpec::k40();
        // A 10-warp kernel and an 80-warp kernel: water-filling gives the
        // small one 10 slots and the big one 80, so both finish at their
        // critical path.
        let mut sim = GpuSim::new(spec.clone(), 2);
        sim.launch(0, kernel("small", 10, 1000));
        sim.launch(1, kernel("big", 80, 1000));
        let r = sim.run();
        let expect = spec.kernel_launch_ns + 1000.0 * spec.ns_per_cycle();
        assert!((r.total_ns - expect).abs() < 1.0, "got {}", r.total_ns);
    }

    #[test]
    fn determinism() {
        let build = || {
            let mut sim = GpuSim::new(DeviceSpec::k40(), 4);
            for s in 0..4 {
                for i in 0..5 {
                    sim.launch(s, kernel(&format!("k{s}-{i}"), 7 + i, 100 + 13 * i as u64));
                }
            }
            sim.run()
        };
        let a = build();
        let b = build();
        assert_eq!(a.total_ns, b.total_ns);
        assert_eq!(a.kernels.len(), b.kernels.len());
        assert_eq!(a.occupancy, b.occupancy);
    }

    #[test]
    fn empty_kernel_finishes_after_overhead_only() {
        let spec = DeviceSpec::k40();
        let mut sim = GpuSim::new(spec.clone(), 1);
        sim.launch(0, KernelDesc::new("noop", vec![]).with_sync_points(1));
        let r = sim.run();
        let expect = spec.kernel_launch_ns + spec.sync_ns;
        assert!((r.total_ns - expect).abs() < 1e-6);
    }

    #[test]
    fn child_launch_overhead_charged() {
        let spec = DeviceSpec::k40();
        let mut sim = GpuSim::new(spec.clone(), 1);
        sim.launch(0, kernel("plain", 10, 100));
        let plain = sim.run().total_ns;
        let mut sim = GpuSim::new(spec.clone(), 1);
        sim.launch(0, kernel("dp", 10, 100).with_child_launches(100));
        let with_children = sim.run().total_ns;
        assert!(with_children > plain + 10.0 * spec.dynpar_launch_ns / KernelDesc::CHILD_PIPELINE - 1.0);
    }

    #[test]
    fn occupancy_reflects_fill() {
        let spec = DeviceSpec::k40();
        let mut sim = GpuSim::new(spec.clone(), 1);
        sim.launch(0, kernel("full", 90, 100_000));
        let full = sim.run().occupancy;
        let mut sim = GpuSim::new(spec.clone(), 1);
        sim.launch(0, kernel("tiny", 1, 100_000));
        let tiny = sim.run().occupancy;
        assert!(full > 0.9, "full occupancy {full}");
        assert!(tiny < 0.05, "tiny occupancy {tiny}");
    }

    #[test]
    fn equal_share_never_faster_than_water_filling() {
        // Leftover redistribution can only help: a narrow and a wide
        // kernel together finish no later under water-filling.
        let spec = DeviceSpec::k40();
        let build = |policy: SharePolicy| {
            let mut sim = GpuSim::new(spec.clone(), 2).with_policy(policy);
            sim.launch(0, kernel("narrow", 5, 100_000));
            sim.launch(1, kernel("wide", 300, 100_000));
            sim.run().total_ns
        };
        let wf = build(SharePolicy::WaterFilling);
        let eq = build(SharePolicy::EqualShare);
        assert!(wf <= eq + 1e-6, "water-filling {wf} vs equal {eq}");
        assert!(eq > wf * 1.05, "the wide kernel should be starved under equal share");
    }

    #[test]
    fn policies_agree_when_kernels_are_symmetric() {
        let spec = DeviceSpec::k40();
        let build = |policy: SharePolicy| {
            let mut sim = GpuSim::new(spec.clone(), 2).with_policy(policy);
            sim.launch(0, kernel("a", 45, 50_000));
            sim.launch(1, kernel("b", 45, 50_000));
            sim.run().total_ns
        };
        let wf = build(SharePolicy::WaterFilling);
        let eq = build(SharePolicy::EqualShare);
        assert!((wf - eq).abs() < 1e-6);
    }

    #[test]
    fn max_concurrent_kernels_caps_admission() {
        let mut spec = DeviceSpec::k40();
        spec.max_concurrent_kernels = 1;
        let mut sim = GpuSim::new(spec.clone(), 2);
        sim.launch(0, kernel("a", 45, 1000));
        sim.launch(1, kernel("b", 45, 1000));
        let capped = sim.run().total_ns;
        let one = spec.kernel_launch_ns + 1000.0 * spec.ns_per_cycle();
        // With concurrency 1 they serialise despite separate streams.
        assert!((capped - 2.0 * one).abs() < 1.0, "got {capped}");
    }
}
