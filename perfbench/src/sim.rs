//! The three simulation workloads: `paper-sweep`, `dense-bign` and
//! `massive-p`.  Each is a fixed list of `algos::*` calls ("ops") on
//! machines built with `Machine::new`; only operand values and the
//! lossy fault plan come from the seed, so every seed does the same
//! work.

use std::collections::BTreeMap;
use std::time::Instant;

use algos::{AlgoError, SimOutcome};
use dense::{gen, kernel, Matrix};
use mmsim::{CostModel, EngineKind, FaultPlan, Machine, Topology};

use crate::fingerprint::{Checker, Fingerprint, Table};
use crate::layers::{self, RunCost};
use crate::report::Metric;
use crate::stats::{median, op_medians, quantile};
use crate::trace::Tracer;
use crate::{Args, Outcome, Workload};

type AlgoFn = fn(&Machine, &Matrix, &Matrix) -> Result<SimOutcome, AlgoError>;

/// The packet count `parmm` uses for pipelined Fox: √(block words).
fn fox_packets(a: &Matrix, p: usize) -> Result<usize, AlgoError> {
    let q = algos::fox::applicability(a.rows(), p)?;
    let block_words = (a.rows() / q).pow(2);
    Ok(((block_words as f64).sqrt().round() as usize).clamp(1, block_words))
}

fn fox_pipelined(m: &Machine, a: &Matrix, b: &Matrix) -> Result<SimOutcome, AlgoError> {
    algos::fox_pipelined(m, a, b, fox_packets(a, m.p())?)
}

fn fox_pipelined_resilient(m: &Machine, a: &Matrix, b: &Matrix) -> Result<SimOutcome, AlgoError> {
    algos::fox_pipelined_resilient(m, a, b, fox_packets(a, m.p())?)
}

/// A machine of the workload: `p` ranks, fully connected CM-5 costs
/// (the paper's Figure 4/5 machine) unless `torus`; `lossy` attaches
/// the seeded fault plan; `event` selects the event engine.
#[derive(Debug, Clone, Copy)]
struct MachineSpec {
    p: usize,
    torus: bool,
    lossy: bool,
    event: bool,
}

const fn full(p: usize) -> MachineSpec {
    MachineSpec {
        p,
        torus: false,
        lossy: false,
        event: false,
    }
}

#[derive(Debug, Clone, Copy)]
struct PointSpec {
    family: &'static str,
    algo: AlgoFn,
    machine: usize,
    n: usize,
}

/// The seeded lossy plan of `paper-sweep`: 2% drops and 1% corrupted
/// frames on every link, well inside what the reliable transport's
/// retry budget recovers.
fn lossy_plan(seed: u64) -> FaultPlan {
    FaultPlan::new(detrng::mix(&[seed, 0xFA17]))
        .with_drop_rate(0.02)
        .with_corrupt_rate(0.01)
}

fn spec(w: Workload) -> (Vec<MachineSpec>, Vec<PointSpec>) {
    let pt = |family, algo: AlgoFn, machine, n| PointSpec {
        family,
        algo,
        machine,
        n,
    };
    let mut points = Vec::new();
    let machines = match w {
        Workload::PaperSweep => {
            // 0: the Figure 4 machine (p = 64), 1: Figure 5 GK
            // (p = 512), 2: Figure 5 Cannon (p = 484), 3: p = 64
            // under the lossy plan.
            let lossy = MachineSpec {
                lossy: true,
                ..full(64)
            };
            for n in [16, 32, 48, 64, 80, 96] {
                points.push(pt("cannon", algos::cannon, 0, n));
                points.push(pt("gk", algos::gk, 0, n));
            }
            for n in [16, 32, 48] {
                points.push(pt("gk", algos::gk, 1, n));
            }
            for n in [22, 44] {
                points.push(pt("cannon", algos::cannon, 2, n));
            }
            // The other four families at p = 64 (DNS needs p = n²·r).
            points.push(pt("simple", algos::simple, 0, 32));
            points.push(pt("fox_tree", algos::fox_tree, 0, 32));
            points.push(pt("fox_pipelined", fox_pipelined, 0, 32));
            points.push(pt("berntsen", algos::berntsen, 0, 32));
            points.push(pt("dns_block", algos::dns_block, 0, 8));
            points.push(pt("dns_block", algos::dns_block, 0, 4));
            // Resilient variants under the plan, each with a plain twin
            // above at the same (n, p).
            points.push(pt("cannon_resilient", algos::cannon_resilient, 3, 32));
            points.push(pt("fox_tree_resilient", algos::fox_tree_resilient, 3, 32));
            points.push(pt(
                "fox_pipelined_resilient",
                fox_pipelined_resilient,
                3,
                32,
            ));
            points.push(pt("gk_resilient", algos::gk_resilient, 3, 32));
            points.push(pt("dns_resilient", algos::dns_resilient, 3, 8));
            vec![full(64), full(512), full(484), lossy]
        }
        Workload::DenseBign => {
            let ps = [4, 16, 64, 8];
            for n in [256, 512] {
                for m in 0..3 {
                    points.push(pt("cannon", algos::cannon, m, n));
                    points.push(pt("fox_tree", algos::fox_tree, m, n));
                }
                points.push(pt("gk", algos::gk, 3, n));
                points.push(pt("gk", algos::gk, 2, n));
            }
            ps.iter().map(|&p| full(p)).collect()
        }
        Workload::MassiveP => {
            for n in [64, 128] {
                points.push(pt("cannon", algos::cannon, 0, n));
            }
            vec![MachineSpec {
                torus: true,
                event: true,
                ..full(4096)
            }]
        }
        Workload::GemmdPoll => unreachable!("gemmd-poll is not a simulation workload"),
    };
    (machines, points)
}

fn build_machine(s: MachineSpec, seed: u64) -> Machine {
    let topo = if s.torus {
        Topology::square_torus_for(s.p)
    } else {
        Topology::fully_connected(s.p)
    };
    let mut m = Machine::new(topo, CostModel::cm5());
    if s.event {
        // The one place the benchmark picks an engine: massive p is
        // what the event engine exists for.
        m = m.with_engine(EngineKind::Event);
    }
    if s.lossy {
        m = m.with_fault_plan(lossy_plan(seed));
    }
    m
}

/// One op: an `algos::*` call at a point on a machine.
#[derive(Debug, Clone)]
pub struct Op {
    pub key: String,
    pub family: &'static str,
    algo: AlgoFn,
    pub machine: usize,
    pub n: usize,
    pub edge: usize,
    pub lossy: bool,
    /// For a resilient op, the plain op at the same point.
    pub twin: Option<usize>,
}

/// A workload ready to time: machines, operands and ops.
pub struct Prepared {
    pub machines: Vec<Machine>,
    pub operands: BTreeMap<usize, (Matrix, Matrix)>,
    pub ops: Vec<Op>,
}

/// Seed of the operand pair of order `n`.
#[must_use]
pub fn operand_seed(seed: u64, n: usize) -> u64 {
    detrng::mix(&[seed, n as u64])
}

/// Generate operands and build machines (the set-up a user pays).
#[must_use]
pub fn prepare(w: Workload, seed: u64) -> Prepared {
    let (mspecs, points) = spec(w);
    let machines: Vec<Machine> = mspecs.iter().map(|&s| build_machine(s, seed)).collect();
    let mut operands = BTreeMap::new();
    for p in &points {
        operands
            .entry(p.n)
            .or_insert_with(|| gen::random_pair(p.n, operand_seed(seed, p.n)));
    }
    let mut ops: Vec<Op> = points
        .iter()
        .map(|pt| Op {
            key: format!("{}/p{}/n{}", pt.family, mspecs[pt.machine].p, pt.n),
            family: pt.family,
            algo: pt.algo,
            machine: pt.machine,
            n: pt.n,
            edge: layers::block_edge(pt.family, pt.n, mspecs[pt.machine].p),
            lossy: mspecs[pt.machine].lossy,
            twin: None,
        })
        .collect();
    for i in 0..ops.len() {
        if let Some(base) = ops[i].family.strip_suffix("_resilient") {
            let base = if base == "dns" { "dns_block" } else { base };
            let p = machines[ops[i].machine].p();
            ops[i].twin = ops.iter().position(|o| {
                o.family == base && o.n == ops[i].n && machines[o.machine].p() == p && !o.lossy
            });
        }
    }
    Prepared {
        machines,
        operands,
        ops,
    }
}

impl Prepared {
    /// Run op `i` once: its result and host seconds.
    pub fn run_op(&self, i: usize) -> (Result<SimOutcome, AlgoError>, f64) {
        let op = &self.ops[i];
        let (a, b) = &self.operands[&op.n];
        let t = Instant::now();
        let out = (op.algo)(&self.machines[op.machine], a, b);
        (out, t.elapsed().as_secs_f64())
    }

    /// Warm-up: the first op on every machine, so the engine's worker
    /// pool and fiber stacks exist before timing starts.
    pub fn warm_up(&self) {
        for m in 0..self.machines.len() {
            if let Some(i) = self.ops.iter().position(|o| o.machine == m) {
                let _ = self.run_op(i);
            }
        }
    }

    /// Serial reference products, one per operand order.
    #[must_use]
    pub fn references(&self) -> BTreeMap<usize, Matrix> {
        self.operands
            .iter()
            .map(|(&n, (a, b))| (n, kernel::matmul(a, b)))
            .collect()
    }
}

/// Tolerance of `verify_product` (absolute-plus-relative per element);
/// block orders change the summation order, never by this much.
const TOLERANCE: f64 = 1e-9;

/// Everything the correctness checks need.
pub struct Verifier {
    pub checker: Checker,
    pub references: BTreeMap<usize, Matrix>,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

impl Verifier {
    /// Check one run: it completed, its fingerprint matches, and its
    /// product equals the serial reference.  Returns the outcome when
    /// every check passed.
    pub fn check<'a>(
        &mut self,
        op: &Op,
        out: &'a Result<SimOutcome, AlgoError>,
    ) -> Option<&'a SimOutcome> {
        self.attempted += 1;
        let verdict = match out {
            Err(e) => Err(format!("{}: {e}", op.key)),
            Ok(o) => self
                .checker
                .check(&op.key, Fingerprint::of(o))
                .and_then(|()| {
                    let v = algos::verify_product(&o.c, &self.references[&op.n], TOLERANCE);
                    if v.passed {
                        Ok(())
                    } else {
                        Err(format!("{}: product {v}", op.key))
                    }
                }),
        };
        match verdict {
            Ok(()) => out.as_ref().ok(),
            Err(e) => {
                self.failed += 1;
                if self.errors.len() < 8 {
                    self.errors.push(e);
                }
                None
            }
        }
    }
}

/// Host wall of each op over the measured passes, in op order.
type OpWalls = Vec<Vec<f64>>;

/// Run whole passes over the ops until `until` (at least one pass);
/// returns per-op walls, per-pass walls and each op's (messages,
/// multiply-adds) — the same on every pass.
fn passes(
    prep: &Prepared,
    ver: &mut Verifier,
    until: Instant,
    mut tracer: Option<&mut Tracer>,
    mut costs: Option<&mut Vec<RunCost>>,
) -> (OpWalls, Vec<f64>, Vec<(f64, f64)>) {
    let mut walls: OpWalls = vec![Vec::new(); prep.ops.len()];
    let mut pass_walls = Vec::new();
    let mut work = vec![(0.0, 0.0); prep.ops.len()];
    loop {
        let t = Instant::now();
        let pass_span = tracer.as_deref_mut().map(|tr| tr.begin("pass"));
        for (i, op) in prep.ops.iter().enumerate() {
            let (out, wall) = match tracer.as_deref_mut() {
                Some(tr) => {
                    let id = tr.begin(format!("algos.{}", op.family));
                    let (out, _) = prep.run_op(i);
                    (out, tr.end(id))
                }
                None => prep.run_op(i),
            };
            walls[i].push(wall);
            if let Some(o) = ver.check(op, &out) {
                work[i] = (o.total_messages() as f64, o.total_compute());
                if let Some(tr) = tracer.as_deref_mut() {
                    tr.count("mmsim.msgs", work[i].0);
                    tr.count("dense.kernel.madds", work[i].1);
                    let retx: u64 = o.stats.iter().map(|s| s.retransmissions).sum();
                    tr.count("mmsim.fault.retransmissions", retx as f64);
                }
                if let Some(c) = costs.as_deref_mut() {
                    c.push(RunCost::of(op.family, op.machine, op.edge, o, wall));
                }
            }
        }
        if let (Some(tr), Some(id)) = (tracer.as_deref_mut(), pass_span) {
            tr.end(id);
        }
        pass_walls.push(t.elapsed().as_secs_f64());
        if Instant::now() >= until {
            return (walls, pass_walls, work);
        }
    }
}

/// Resilient wall ÷ plain wall at the same points (op medians).
fn fault_overhead(prep: &Prepared, walls: &OpWalls) -> Option<f64> {
    let (mut res, mut plain) = (0.0, 0.0);
    for (i, op) in prep.ops.iter().enumerate() {
        if let Some(t) = op.twin {
            res += median(&walls[i]);
            plain += median(&walls[t]);
        }
    }
    (plain > 0.0).then(|| res / plain)
}

/// Time one set-up: operand generation, machine construction and the
/// warm-up; returns its seconds with the prepared workload.
#[must_use]
pub fn timed_setup(w: Workload, seed: u64) -> (f64, Prepared) {
    let t = Instant::now();
    let prep = prepare(w, seed);
    prep.warm_up();
    (t.elapsed().as_secs_f64(), prep)
}

/// Run a simulation workload; `setups` holds the cold set-ups timed in
/// other processes, to which this run's own set-up is added.
#[must_use]
pub fn run(args: &Args, table: Table, mut setups: Vec<f64>) -> Outcome {
    let w = args.workload;
    let (own, prep) = timed_setup(w, args.seed);
    setups.push(own);
    let setup_s = median(&setups);
    let mut ver = Verifier {
        checker: Checker::new(table, w.name(), args.seed),
        references: prep.references(),
        attempted: 0,
        failed: 0,
        errors: Vec::new(),
    };
    let start = Instant::now();
    let window = std::time::Duration::from_secs_f64(args.seconds);
    let mut out = Outcome::default();
    if !args.trace {
        let (walls, _, work) = passes(&prep, &mut ver, start + window, None, None);
        // Quantiles and rates over each op's median wall: one slow pass
        // of one op (a host hiccup) cannot swing them.
        let op_ms: Vec<f64> = op_medians(&walls).iter().map(|s| s * 1e3).collect();
        let op_s: f64 = op_ms.iter().sum::<f64>() * 1e-3;
        let msgs: f64 = work.iter().map(|w| w.0).sum();
        let madds: f64 = work.iter().map(|w| w.1).sum();
        out.metrics = vec![
            Metric::new("setup_s", "s", setup_s),
            Metric::new("run_ms_p50", "ms", quantile(&op_ms, 0.5)),
            Metric::new("run_ms_p90", "ms", quantile(&op_ms, 0.9)),
            Metric::new("sim_msgs_per_s", "msg/s", msgs / op_s),
            Metric::new("sim_madds_per_s", "madd/s", madds / op_s),
            Metric::new("peak_rss_mb", "MB", crate::host::peak_rss_mb()),
        ];
        let runs = walls.iter().map(Vec::len).sum::<usize>();
        out.extra.push(Metric::new("runs", "count", runs as f64));
        if let Some(r) = fault_overhead(&prep, &walls) {
            out.extra
                .push(Metric::new("mmsim.fault.host_overhead", "ratio", r));
        }
        let mut fams: Vec<&str> = Vec::new();
        for o in &prep.ops {
            if !fams.contains(&o.family) {
                fams.push(o.family);
            }
        }
        for f in fams {
            let v: Vec<f64> = prep
                .ops
                .iter()
                .enumerate()
                .filter(|(_, o)| o.family == f)
                .flat_map(|(i, _)| walls[i].iter().map(|s| s * 1e3))
                .collect();
            out.extra
                .push(Metric::new(format!("run_ms_p50.{f}"), "ms", median(&v)));
        }
    } else {
        // Untraced passes over half the window, traced passes over most
        // of the rest, then the layer probes.
        let half = start + window / 2;
        let (_, plain_passes, _) = passes(&prep, &mut ver, half, None, None);
        let mut tracer = Tracer::new();
        let mut costs = Vec::new();
        let cpu0 = crate::host::cpu_seconds();
        let t0 = Instant::now();
        let (walls, traced_passes, _) = passes(
            &prep,
            &mut ver,
            start + window.mul_f64(0.85),
            Some(&mut tracer),
            Some(&mut costs),
        );
        let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
        let cpu_ms = (crate::host::cpu_seconds() - cpu0) * 1e3;
        let npass = traced_passes.len() as f64;
        for c in &mut costs {
            c.mult = 1.0 / npass;
        }
        let probe = tracer.begin("probes");
        let (kernel, _) = tracer.span("probe.dense.kernel", || {
            layers::probe_kernel(&costs, cpu_ms / wall_ms)
        });
        let (machines, _) = tracer.span("probe.mmsim.machines", || {
            layers::probe_machines(&prep.machines, &costs)
        });
        let (gen_ms, _) = tracer.span("probe.dense.gen", || {
            prep.operands
                .keys()
                .map(|&n| layers::gen_ms(n, operand_seed(args.seed, n)))
                .sum::<f64>()
        });
        tracer.end(probe);
        let inputs = layers::LayerInputs {
            runs: &costs,
            machines: &machines,
            kernel: &kernel,
            gen_ms,
            cpu_ms: cpu_ms / npass,
            wall_ms: wall_ms / npass,
            algos_cpu_util: cpu_ms / wall_ms,
            trace_overhead: median(&traced_passes) / median(&plain_passes),
        };
        out.metrics = layers::derive(&inputs);
        out.extra.extend(layers::per_family(&costs));
        if let Some(r) = fault_overhead(&prep, &walls) {
            out.extra
                .push(Metric::new("mmsim.fault.host_overhead", "ratio", r));
        }
        out.extra.extend(layers::detail(&machines, &kernel));
        out.extra.push(Metric::new("traced_passes", "count", npass));
        out.tracer = Some(tracer);
    }
    out.attempted = ver.attempted;
    out.failed = ver.failed;
    out.errors = ver.errors;
    out.unpinned = ver.checker.unpinned;
    out
}

/// One pass of every op, for blessing fingerprints: fault-free ops are
/// recorded for every seed, lossy ops for this seed only.
#[must_use]
pub fn fingerprints(w: Workload, seed: u64) -> Vec<(String, bool, Fingerprint)> {
    let prep = prepare(w, seed);
    prep.ops
        .iter()
        .enumerate()
        .filter_map(|(i, op)| {
            let (out, _) = prep.run_op(i);
            out.ok()
                .map(|o| (op.key.clone(), op.lossy, Fingerprint::of(&o)))
        })
        .collect()
}
