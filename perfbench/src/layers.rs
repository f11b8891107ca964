//! Per-layer probes and the arithmetic that turns them, plus the exact
//! counts every `RunReport` carries, into the per-layer metrics.
//!
//! Each probe times one public function of one layer in isolation, at
//! the sizes the workload uses: the dense kernel at the workload's
//! local block edges, an empty `Machine::run` at each machine size, a
//! ring shift of the workload's message size, operand generation.
//! Nothing inside the program is instrumented.

use std::time::Instant;

use dense::{gen, kernel, Matrix};
use mmsim::{tag, Machine};

use crate::report::Metric;
use crate::stats::median;

/// Work counted for one simulated run, `mult` times over (the gemmd
/// replay simulates a job once per query that replays it).
#[derive(Debug, Clone)]
pub struct RunCost {
    pub family: String,
    /// Index of the run's machine in the workload's machine list.
    pub machine: usize,
    pub p: usize,
    /// Local block edge of the rank-level multiply.
    pub edge: usize,
    pub madds: f64,
    pub msgs: u64,
    pub words: u64,
    pub hops: u64,
    pub retransmissions: u64,
    /// Host seconds of one `algos::*` call.
    pub wall_s: f64,
    pub mult: f64,
}

impl RunCost {
    #[must_use]
    pub fn of(
        family: &str,
        machine: usize,
        edge: usize,
        out: &algos::SimOutcome,
        wall_s: f64,
    ) -> Self {
        Self {
            family: family.to_string(),
            machine,
            p: out.p,
            edge,
            madds: out.total_compute(),
            msgs: out.total_messages(),
            words: out.total_words(),
            hops: out.stats.iter().map(|s| s.hops_traversed).sum(),
            retransmissions: out.stats.iter().map(|s| s.retransmissions).sum(),
            wall_s,
            mult: 1.0,
        }
    }
}

/// Local block edge of the per-rank multiply for `family` at `(n, p)`:
/// `n/√p` for the 2-D families, `n/∛p` for the 3-D ones, 1 for DNS
/// (one element per rank).
#[must_use]
pub fn block_edge(family: &str, n: usize, p: usize) -> usize {
    let root = |k: f64| (p as f64).powf(1.0 / k).round().max(1.0) as usize;
    let edge = if family.starts_with("dns") {
        1
    } else if family.starts_with("gk") || family.starts_with("berntsen") {
        n / root(3.0)
    } else {
        n / root(2.0)
    };
    edge.max(1)
}

/// Host nanoseconds per multiply-add of `kernel::matmul_accumulate` on
/// `edge × edge` blocks, with `threads` threads running it at once:
/// median of five trials of at least 2 ms each per thread.  The kernel
/// inside a run shares the cores with the run's other ranks, and on a
/// host whose cores share execution units a lone kernel runs up to
/// twice as fast; probing at the run's concurrency prices the kernel as
/// the run pays for it.
#[must_use]
pub fn kernel_ns_per_madd(edge: usize, threads: usize) -> f64 {
    let madds = (edge * edge * edge) as f64;
    let reps = ((2.0e6 / madds).ceil() as usize).max(1);
    let trials = |seed: u64| -> Vec<f64> {
        let a = gen::random(edge, edge, seed);
        let b = gen::random(edge, edge, seed + 1);
        let mut c = Matrix::zeros(edge, edge);
        (0..5)
            .map(|_| {
                let t = Instant::now();
                for _ in 0..reps {
                    kernel::matmul_accumulate(
                        std::hint::black_box(&mut c),
                        std::hint::black_box(&a),
                        std::hint::black_box(&b),
                    );
                }
                t.elapsed().as_secs_f64() * 1e9 / (reps as f64 * madds)
            })
            .collect()
    };
    let all: Vec<f64> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads.max(1) as u64)
            .map(|i| s.spawn(move || trials(11 + 2 * i)))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("kernel probe thread"))
            .collect()
    });
    median(&all)
}

/// Host microseconds of an empty `Machine::run` (engine set-up and
/// tear-down at this machine's size): median of `reps` runs.
#[must_use]
pub fn empty_run_us(machine: &Machine, reps: usize) -> f64 {
    let trials: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let t = Instant::now();
            let _ = machine.run(|_| ());
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&trials)
}

/// Host nanoseconds per message of a ring shift on `machine`: every
/// rank sends `rounds` messages of `words` words to its right
/// neighbour and receives as many from its left.  The empty-run cost
/// is subtracted; median of `reps` runs.  On a machine with a fault
/// plan the shift goes through the reliable transport, as the
/// resilient variants' messages do.
#[must_use]
pub fn ring_ns_per_msg(machine: &Machine, words: usize, rounds: u32, reps: usize) -> f64 {
    let p = machine.p();
    if p < 2 {
        return 0.0; // a single rank has no neighbour and sends nothing
    }
    let lossy = machine.fault_plan().is_some();
    let empty = empty_run_us(machine, reps) * 1e3;
    let trials: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let t = Instant::now();
            let _ = machine.run(|proc| {
                let (me, p) = (proc.rank(), proc.p());
                for r in 0..rounds {
                    if lossy {
                        proc.send_reliable((me + 1) % p, tag(1, r), vec![0.0; words]);
                        let _ = proc.recv_reliable((me + p - 1) % p, tag(1, r));
                    } else {
                        proc.send((me + 1) % p, tag(1, r), vec![0.0; words]);
                        let _ = proc.recv((me + p - 1) % p, tag(1, r));
                    }
                }
            });
            t.elapsed().as_secs_f64() * 1e9
        })
        .collect();
    ((median(&trials) - empty) / (p as f64 * f64::from(rounds))).max(0.0)
}

/// Milliseconds to generate one operand pair of order `n`.
#[must_use]
pub fn gen_ms(n: usize, seed: u64) -> f64 {
    let t = Instant::now();
    let pair = gen::random_pair(n, seed);
    let ms = t.elapsed().as_secs_f64() * 1e3;
    std::hint::black_box(pair);
    ms
}

/// Per-machine probe results, indexed like the workload's machines.
#[derive(Debug, Clone, Default)]
pub struct MachineProbe {
    pub p: usize,
    pub lossy: bool,
    pub empty_run_us: f64,
    pub ring_ns_per_msg: f64,
    pub ring_words: usize,
}

/// Probe every machine: an empty run, then a ring shift at the
/// message-weighted mean message size of the runs on that machine.
#[must_use]
pub fn probe_machines(machines: &[Machine], runs: &[RunCost]) -> Vec<MachineProbe> {
    machines
        .iter()
        .enumerate()
        .map(|(i, m)| {
            let on: Vec<&RunCost> = runs.iter().filter(|r| r.machine == i).collect();
            let msgs: u64 = on.iter().map(|r| r.msgs).sum();
            let words: u64 = on.iter().map(|r| r.words).sum();
            let ring_words = if msgs == 0 {
                1
            } else {
                ((words as f64 / msgs as f64).round() as usize).max(1)
            };
            // Enough repetitions for a steady median without letting the
            // 4096-rank machines dominate the probe budget.
            let reps = if m.p() >= 1024 { 3 } else { 9 };
            let rounds = if m.p() >= 1024 { 2 } else { 8 };
            MachineProbe {
                p: m.p(),
                lossy: m.fault_plan().is_some(),
                empty_run_us: empty_run_us(m, reps),
                ring_ns_per_msg: ring_ns_per_msg(m, ring_words, rounds, reps),
                ring_words,
            }
        })
        .collect()
}

/// What the probes and a pass measured, reduced to the per-layer
/// metrics every workload reports (counts and times per pass).
#[derive(Debug)]
pub struct LayerInputs<'a> {
    pub runs: &'a [RunCost],
    pub machines: &'a [MachineProbe],
    /// `(edge, ns per madd)` for every edge in `runs`.
    pub kernel: &'a [(usize, f64)],
    pub gen_ms: f64,
    /// Process CPU and wall of one traced pass.
    pub cpu_ms: f64,
    pub wall_ms: f64,
    /// CPU ÷ wall while the `algos::*` calls ran: the cores the kernel
    /// work was spread over.
    pub algos_cpu_util: f64,
    pub trace_overhead: f64,
}

/// The universal per-layer metrics (see `PER_LAYER` in the crate root).
#[must_use]
pub fn derive(inp: &LayerInputs<'_>) -> Vec<Metric> {
    let ns_at = |edge: usize| {
        inp.kernel
            .iter()
            .find(|(e, _)| *e == edge)
            .map_or(0.0, |(_, ns)| *ns)
    };
    let sum = |f: &dyn Fn(&RunCost) -> f64| inp.runs.iter().map(|r| r.mult * f(r)).sum::<f64>();
    // Counts are exact and the same on every pass; rounding drops the
    // float error of averaging them over passes.
    let count = |f: &dyn Fn(&RunCost) -> f64| sum(f).round();
    let madds = count(&|r| r.madds);
    let kernel_ms = sum(&|r| r.madds * ns_at(r.edge)) * 1e-6;
    let msgs = count(&|r| r.msgs as f64);
    let retx = count(&|r| r.retransmissions as f64);
    let runs = sum(&|_| 1.0);
    let empty_ms = sum(&|r| inp.machines[r.machine].empty_run_us) * 1e-3;
    let ring_ns = sum(&|r| r.msgs as f64 * inp.machines[r.machine].ring_ns_per_msg);
    let algos_ms = sum(&|r| r.wall_s) * 1e3;
    let cpu_util = if inp.wall_ms > 0.0 {
        inp.cpu_ms / inp.wall_ms
    } else {
        0.0
    };
    // Engine residual: algos wall left after the kernel's wall share
    // (its CPU spread over the cores the calls kept busy) and the empty
    // runs; derived, so it comes out negative when the single-thread
    // kernel probe overstates the kernel's speed inside the runs.
    let kernel_wall_ms = kernel_ms / inp.algos_cpu_util.max(1.0);
    let per_msg = |x: f64| if msgs > 0.0 { x / msgs } else { 0.0 };
    vec![
        Metric::new("trace.overhead", "ratio", inp.trace_overhead),
        Metric::new("host.cpu_ms", "ms", inp.cpu_ms),
        Metric::new("host.cpu_util", "ratio", cpu_util),
        Metric::new("dense.gen.ms", "ms", inp.gen_ms),
        Metric::new("dense.kernel.madds", "madd", madds),
        Metric::new(
            "dense.kernel.ns_per_madd",
            "ns",
            if madds > 0.0 {
                kernel_ms * 1e6 / madds
            } else {
                0.0
            },
        ),
        Metric::new("dense.kernel.cpu_ms", "ms", kernel_ms),
        Metric::new(
            "dense.kernel.cpu_share",
            "ratio",
            if inp.cpu_ms > 0.0 {
                kernel_ms / inp.cpu_ms
            } else {
                0.0
            },
        ),
        Metric::new("mmsim.msgs", "count", msgs),
        Metric::new("mmsim.words", "count", count(&|r| r.words as f64)),
        Metric::new("mmsim.hops", "count", count(&|r| r.hops as f64)),
        Metric::new("mmsim.rank_runs", "count", count(&|r| r.p as f64)),
        Metric::new(
            "mmsim.empty_run_us",
            "us",
            if runs > 0.0 {
                empty_ms * 1e3 / runs
            } else {
                0.0
            },
        ),
        Metric::new("mmsim.ring_ns_per_msg", "ns", per_msg(ring_ns)),
        Metric::new(
            "mmsim.engine_residual_ns_per_msg",
            "ns",
            per_msg((algos_ms - kernel_wall_ms - empty_ms) * 1e6),
        ),
        Metric::new("mmsim.fault.retransmissions", "count", retx),
        Metric::new(
            "mmsim.fault.goodput",
            "ratio",
            if msgs + retx > 0.0 {
                msgs / (msgs + retx)
            } else {
                1.0
            },
        ),
        Metric::new("algos.ms", "ms", algos_ms),
    ]
}

/// Probe the kernel at every distinct edge in `runs`, on as many
/// threads at once as the runs kept cores busy (`cpu_util`, rounded,
/// at most `nproc`).
#[must_use]
pub fn probe_kernel(runs: &[RunCost], cpu_util: f64) -> Vec<(usize, f64)> {
    let threads = (cpu_util.round() as usize).clamp(1, crate::host::nproc());
    let mut edges: Vec<usize> = runs.iter().map(|r| r.edge).collect();
    edges.sort_unstable();
    edges.dedup();
    edges
        .into_iter()
        .map(|e| (e, kernel_ns_per_madd(e, threads)))
        .collect()
}

/// Per-machine and per-edge detail for the trace file.
#[must_use]
pub fn detail(machines: &[MachineProbe], kernel: &[(usize, f64)]) -> Vec<Metric> {
    let mut out = Vec::new();
    for m in machines {
        let at = format!("p{}{}", m.p, if m.lossy { ".lossy" } else { "" });
        out.push(Metric::new(
            format!("mmsim.empty_run_us.{at}"),
            "us",
            m.empty_run_us,
        ));
        out.push(Metric::new(
            format!("mmsim.ring_ns_per_msg.{at}.w{}", m.ring_words),
            "ns",
            m.ring_ns_per_msg,
        ));
    }
    for (e, ns) in kernel {
        out.push(Metric::new(
            format!("dense.kernel.ns_per_madd.b{e}"),
            "ns",
            *ns,
        ));
    }
    out
}

/// Per-family algos time for the trace file.
#[must_use]
pub fn per_family(runs: &[RunCost]) -> Vec<Metric> {
    let mut fams: Vec<(String, f64)> = Vec::new();
    for r in runs {
        let ms = r.mult * r.wall_s * 1e3;
        match fams.iter_mut().find(|(f, _)| *f == r.family) {
            Some((_, v)) => *v += ms,
            None => fams.push((r.family.clone(), ms)),
        }
    }
    fams.into_iter()
        .map(|(f, ms)| Metric::new(format!("algos.{f}.ms"), "ms", ms))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_edges_follow_the_family_geometry() {
        assert_eq!(block_edge("cannon", 512, 16), 128);
        assert_eq!(block_edge("fox_tree", 256, 64), 32);
        assert_eq!(block_edge("gk", 512, 64), 128);
        assert_eq!(block_edge("dns_block", 8, 64), 1);
        assert_eq!(block_edge("cannon", 64, 4096), 1);
        assert_eq!(block_edge("cannon", 16, 1), 16);
    }
}
