//! E-PERF: engine fast-path benchmark harness — times representative
//! sweeps through the simulator hot path and gates them on golden
//! virtual-time CSVs.
//!
//! ```sh
//! cargo run --release -p bench --bin engine_perf            # full slices
//! cargo run --release -p bench --bin engine_perf -- --smoke # CI slices
//! cargo run --release -p bench --bin engine_perf -- --bless # rewrite goldens
//! cargo run --release -p bench --bin engine_perf -- --enforce # assert speedup
//! ```
//!
//! Six slices exercise the paths the headline artefacts spend their
//! time in:
//!
//! * `regions`  — repeated Figure 1–3 region-map grids (pure model
//!   evaluation; the memoised `T_p(n, p)` oracle's territory).
//! * `cm5_64`   — the Figure 4 curve (Cannon and GK at p = 64).
//! * `cm5_512`  — the Figure 5 slice (GK at p = 512, Cannon at
//!   p = 484): the engine's thread/messaging overhead dominates here.
//! * `event_4k` — Cannon at p = 4096 on the event-driven engine: the
//!   massive-p regime, gated against a measured thread-per-rank
//!   baseline (the wall-clock floor for the engine refactor).
//! * `workload` — a gemmd service sweep (scheduler + partitioned runs).
//! * `ablation` — simulated `T_p` of the design-choice ablations (Fox
//!   packet counts, Cannon routing mode, GK topology); it has a golden
//!   but no wall-clock floor.
//!
//! Every slice reduces its runs to virtual-time observables —
//! `t_parallel`, per-rank [`mmsim::ProcStats`], message/word counts,
//! region letters, the workload table, the ablation `T_p`s —
//! formatted with exact float bit patterns and compared byte-for-byte
//! against committed goldens in `crates/bench/goldens/`.  Wall-clock
//! times go to `BENCH_engine.json` at the workspace root, with speedups
//! computed against the recorded pre-optimisation baseline.

use std::fmt::Write as _;
use std::fs;
use std::time::Instant;

use bench::golden::{bits, check, workspace_root, Args};
use bench::workload_common::{run_workload_sweep, WorkloadSweep};
use dense::gen;
use mmsim::{CostModel, EngineKind, Machine, ProcStats, Routing, Topology};
use model::regions::RegionMap;
use model::MachineParams;

/// Pre-optimisation wall-clock baselines (milliseconds), measured on
/// the per-run-spawn engine at the commit before the fast path landed
/// (see docs/performance.md for the methodology).  Speedups in
/// `BENCH_engine.json` are relative to these.
mod baseline {
    /// Full-mode baselines: (slice, wall_ms).  `event_4k`'s baseline is
    /// the *threaded* engine on the same points (n = 64: ~5.5 s,
    /// n = 128: ~4.1 s), so its "speedup" is event-vs-threaded — the
    /// wall-clock floor for the engine refactor.
    pub const FULL: &[(&str, f64)] = &[
        ("regions", 35.0),
        ("cm5_64", 140.0),
        ("cm5_512", 1210.0),
        ("event_4k", 9600.0),
        ("workload", 7.8),
    ];
    /// Smoke-mode baselines: (slice, wall_ms).
    pub const SMOKE: &[(&str, f64)] = &[
        ("regions", 0.3),
        ("cm5_64", 12.0),
        ("cm5_512", 168.0),
        ("event_4k", 5500.0),
        ("workload", 6.6),
    ];
}

struct SliceResult {
    name: &'static str,
    runs: usize,
    wall_ms: f64,
}

/// One simulated run reduced to its virtual-time observables.
fn run_row(slice: &str, algo: &str, p: usize, n: usize, out: &algos::SimOutcome) -> String {
    let sum = |f: fn(&ProcStats) -> f64| bits(out.stats.iter().map(f).sum());
    format!(
        "{slice},{algo},{p},{n},{},{:.6},{},{},{},{},{},{},{},{}\n",
        bits(out.t_parallel),
        out.t_parallel,
        out.total_messages(),
        out.total_words(),
        out.stats.iter().map(|s| s.hops_traversed).sum::<u64>(),
        out.stats.iter().map(|s| s.unreceived).sum::<u64>(),
        sum(|s| s.clock),
        sum(|s| s.compute),
        sum(|s| s.comm),
        sum(|s| s.idle),
    )
}

const RUN_HEADER: &str = "slice,algo,p,n,t_parallel_bits,t_parallel,msgs,words,hops,\
                          unreceived,sum_clock_bits,sum_compute_bits,sum_comm_bits,sum_idle_bits\n";

/// Per-rank ProcStats rows for one designated run (the fine-grained
/// half of the golden: catches any per-rank accounting drift that
/// aggregate sums could mask).
fn rank_rows(run: &str, out: &algos::SimOutcome, buf: &mut String) {
    for (rank, s) in out.stats.iter().enumerate() {
        let _ = writeln!(
            buf,
            "{run},{rank},{},{},{},{},{},{},{},{},{}",
            bits(s.clock),
            bits(s.compute),
            bits(s.comm),
            bits(s.idle),
            s.msgs_sent,
            s.words_sent,
            s.msgs_received,
            s.hops_traversed,
            s.unreceived,
        );
    }
}

const RANK_HEADER: &str = "run,rank,clock_bits,compute_bits,comm_bits,idle_bits,\
                           msgs_sent,words_sent,msgs_received,hops,unreceived\n";

/// The CM-5 slices: simulate each admissible (algo, p, n) point on the
/// fully connected CM-5 cost model, exactly as the Figure 4/5 binaries
/// do, and reduce to run + per-rank golden rows.
#[allow(clippy::type_complexity)]
fn run_cm5_slice(
    slice: &'static str,
    points: &[(&'static str, usize, usize)], // (algo, p, n)
    rank_detail: &[(&'static str, usize, usize)],
    runs_csv: &mut String,
    ranks_csv: &mut String,
) -> SliceResult {
    let cost = CostModel::cm5();
    let start = Instant::now();
    let mut runs = 0;
    for &(algo, p, n) in points {
        let (a, b) = gen::random_pair(n, n as u64);
        let machine = Machine::new(Topology::fully_connected(p), cost);
        let out = match algo {
            "cannon" => algos::cannon(&machine, &a, &b),
            "gk" => algos::gk(&machine, &a, &b),
            other => panic!("unknown algo {other}"),
        }
        .unwrap_or_else(|e| panic!("{slice} {algo} p={p} n={n}: {e}"));
        runs += 1;
        runs_csv.push_str(&run_row(slice, algo, p, n, &out));
        if rank_detail.contains(&(algo, p, n)) {
            rank_rows(&format!("{slice}/{algo}/p{p}/n{n}"), &out, ranks_csv);
        }
    }
    SliceResult {
        name: slice,
        runs,
        wall_ms: start.elapsed().as_secs_f64() * 1e3,
    }
}

/// The region-map slice: recompute the Figure 1–3 grids `reps` times
/// (the repeated-evaluation pattern of the scalability explorer),
/// golden-reducing each grid to one letter string per map row.
fn run_regions_slice(reps: usize, cols: usize, rows: usize, csv: &mut String) -> SliceResult {
    let figures: [(&str, MachineParams); 3] = [
        ("fig1_ncube2", MachineParams::ncube2()),
        ("fig2_future_mimd", MachineParams::future_mimd()),
        ("fig3_simd_cm2", MachineParams::simd_cm2()),
    ];
    let start = Instant::now();
    let mut maps = 0;
    let mut last: Vec<(&str, RegionMap)> = Vec::new();
    for rep in 0..reps {
        last.clear();
        for (name, m) in figures {
            let map = RegionMap::compute_range(m, (2.0, 16.0), (0.0, 28.0), cols, rows);
            maps += 1;
            if rep == 0 {
                last.push((name, map));
            }
        }
    }
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    for (name, map) in &last {
        for (pi, row) in map.cells.iter().enumerate() {
            let letters: String = row.iter().collect();
            let _ = writeln!(csv, "{name},{pi},{letters}");
        }
    }
    SliceResult {
        name: "regions",
        runs: maps,
        wall_ms,
    }
}

/// The massive-p slice: Cannon on a 64×64 torus of 4096 virtual ranks,
/// event-driven engine.  The threaded engine *can* still run these
/// points (that is how the baseline was measured), but at 5–7× the
/// wall clock — this slice pins both the virtual-time goldens in the
/// new regime and the event engine's wall-clock advantage.
fn run_event4k_slice(points: &[(usize, usize)], runs_csv: &mut String) -> SliceResult {
    let cost = CostModel::cm5();
    let start = Instant::now();
    let mut runs = 0;
    for &(p, n) in points {
        let (a, b) = gen::random_pair(n, n as u64);
        let machine =
            Machine::new(Topology::square_torus_for(p), cost).with_engine(EngineKind::Event);
        let out = algos::cannon(&machine, &a, &b)
            .unwrap_or_else(|e| panic!("event_4k cannon p={p} n={n}: {e}"));
        runs += 1;
        runs_csv.push_str(&run_row("event_4k", "cannon_event", p, n, &out));
    }
    SliceResult {
        name: "event_4k",
        runs,
        wall_ms: start.elapsed().as_secs_f64() * 1e3,
    }
}

/// The gemmd slice: one deterministic service sweep (scheduler +
/// partitioned engine runs); the golden is the full metrics table.
fn run_workload_slice(csv: &mut String) -> SliceResult {
    let sweep = WorkloadSweep::smoke(0xE6E);
    let start = Instant::now();
    let table = run_workload_sweep(&sweep);
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    csv.push_str(&table.to_csv());
    SliceResult {
        name: "workload",
        runs: table.len(),
        wall_ms,
    }
}

/// The design-choice ablations, as simulated `T_p`: Fox with 1–16
/// pipelined packets, Cannon under cut-through vs store-and-forward
/// routing, and GK on a hypercube vs a fully connected machine (all on
/// the nCUBE2 constants).  Model-level output only, so no floor.
fn run_ablation_slice(csv: &mut String) -> SliceResult {
    let cost = CostModel::ncube2();
    let (a, b) = gen::random_pair(32, 9);
    let (a64, b64) = gen::random_pair(64, 10);
    let start = Instant::now();
    let mut rows: Vec<(&str, String, f64)> = Vec::new();
    let torus = Machine::new(Topology::square_torus_for(16), cost);
    for packets in [1usize, 2, 4, 8, 16] {
        let out = algos::fox_pipelined(&torus, &a, &b, packets).expect("fox_pipelined ablation");
        rows.push(("fox_packets", packets.to_string(), out.t_parallel));
    }
    for routing in [Routing::CutThrough, Routing::StoreAndForward] {
        let m = Machine::new(Topology::hypercube_for(16), cost.with_routing(routing));
        let out = algos::cannon(&m, &a, &b).expect("cannon routing ablation");
        rows.push(("cannon_routing", format!("{routing:?}"), out.t_parallel));
    }
    for topo in [Topology::hypercube_for(64), Topology::fully_connected(64)] {
        let kind = topo.kind().to_string();
        let out = algos::gk(&Machine::new(topo, cost), &a64, &b64).expect("gk topology ablation");
        rows.push(("gk_topology", kind, out.t_parallel));
    }
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    for (case, setting, t) in &rows {
        let _ = writeln!(csv, "{case},{setting},{},{t:.6}", bits(*t));
    }
    SliceResult {
        name: "ablation",
        runs: rows.len(),
        wall_ms,
    }
}

fn write_bench_json(mode: &str, slices: &[SliceResult], golden_ok: bool) {
    let baselines = if mode == "smoke" {
        baseline::SMOKE
    } else {
        baseline::FULL
    };
    let mut body = String::new();
    for (i, s) in slices.iter().enumerate() {
        let base = baselines
            .iter()
            .find(|(n, _)| *n == s.name)
            .map(|&(_, ms)| ms);
        let _ = write!(
            body,
            "    {{\"name\": \"{}\", \"runs\": {}, \"wall_ms\": {:.1}, \
             \"baseline_wall_ms\": {}, \"speedup\": {}}}{}",
            s.name,
            s.runs,
            s.wall_ms,
            base.map_or("null".into(), |b| format!("{b:.1}")),
            base.map_or("null".into(), |b| format!("{:.2}", b / s.wall_ms)),
            if i + 1 == slices.len() { "\n" } else { ",\n" }
        );
    }
    let json = format!(
        "{{\n  \"schema\": \"engine_perf/v1\",\n  \"mode\": \"{mode}\",\n  \
         \"golden_ok\": {golden_ok},\n  \"slices\": [\n{body}  ]\n}}\n"
    );
    let path = workspace_root().join("BENCH_engine.json");
    fs::write(&path, json).expect("write BENCH_engine.json");
    println!("\nwrote {}", path.display());
}

fn main() {
    let args = Args::from_env("engine_perf [--smoke] [--bless] [--enforce]", &[]);
    let (smoke, bless, enforce) = (args.smoke, args.bless, args.enforce);
    let mode = args.mode();
    println!("=== engine_perf: simulator hot-path benchmark ({mode} slices) ===\n");

    let mut runs_csv = String::from(RUN_HEADER);
    let mut ranks_csv = String::from(RANK_HEADER);
    let mut regions_csv = String::from("figure,row,letters\n");
    let mut workload_csv = String::new();
    let mut ablation_csv = String::from("case,setting,t_parallel_bits,t_parallel\n");
    let mut slices = Vec::new();

    // Region-map slice: full = the exact Figure 1–3 grids, repeated;
    // smoke = one coarse grid sweep.
    slices.push(if smoke {
        run_regions_slice(4, 24, 10, &mut regions_csv)
    } else {
        run_regions_slice(40, 96, 40, &mut regions_csv)
    });

    // CM-5 p = 64 curve (Figure 4 shape): Cannon q = 8, GK s = 4.
    let cm5_64: Vec<(&str, usize, usize)> = if smoke {
        vec![("cannon", 64, 16), ("gk", 64, 16)]
    } else {
        (8..=96)
            .step_by(8)
            .map(|n| ("cannon", 64, n))
            .chain((8..=96).step_by(4).map(|n| ("gk", 64, n)))
            .collect()
    };
    slices.push(run_cm5_slice(
        "cm5_64",
        &cm5_64,
        &[("gk", 64, 8)],
        &mut runs_csv,
        &mut ranks_csv,
    ));

    // CM-5 512-rank slice (Figure 5 shape): GK p = 512 (s = 8),
    // Cannon p = 484 (q = 22).  This is where per-run thread spawns
    // and payload clones dominated the pre-optimisation engine.
    let cm5_512: Vec<(&str, usize, usize)> = if smoke {
        vec![("gk", 512, 8)]
    } else {
        [8, 16, 24, 32, 40, 48]
            .into_iter()
            .map(|n| ("gk", 512, n))
            .chain([22, 44].into_iter().map(|n| ("cannon", 484, n)))
            .collect()
    };
    let detail_512: &[(&str, usize, usize)] = if smoke {
        &[("gk", 512, 8)]
    } else {
        &[("gk", 512, 16), ("cannon", 484, 22)]
    };
    slices.push(run_cm5_slice(
        "cm5_512",
        &cm5_512,
        detail_512,
        &mut runs_csv,
        &mut ranks_csv,
    ));

    // Massive-p slice on the event engine: smoke = one point, full
    // adds the n = 128 (one-element-block) configuration.
    let event_4k: &[(usize, usize)] = if smoke {
        &[(4096, 64)]
    } else {
        &[(4096, 64), (4096, 128)]
    };
    slices.push(run_event4k_slice(event_4k, &mut runs_csv));

    // gemmd workload slice (same shape in both modes; it is already
    // the CI smoke sweep).
    slices.push(run_workload_slice(&mut workload_csv));

    // Design-choice ablations (same cases in both modes).
    slices.push(run_ablation_slice(&mut ablation_csv));

    println!("slice      runs  wall_ms");
    println!("-----------------------");
    for s in &slices {
        println!("{:<9} {:>5}  {:>8.1}", s.name, s.runs, s.wall_ms);
    }
    println!();

    let mut ok = true;
    for (name, csv) in [
        ("runs", &runs_csv),
        ("ranks", &ranks_csv),
        ("regions", &regions_csv),
        ("workload", &workload_csv),
        ("ablation", &ablation_csv),
    ] {
        ok &= check(&format!("{mode}_{name}.csv"), csv, bless);
    }

    write_bench_json(mode, &slices, ok);

    if !ok {
        eprintln!("\nFAIL: golden virtual-time output drifted");
        std::process::exit(1);
    }

    if enforce {
        let need = [("cm5_512", 3.0), ("regions", 2.0), ("event_4k", 3.0)];
        let baselines = if smoke {
            baseline::SMOKE
        } else {
            baseline::FULL
        };
        let mut enforce_ok = true;
        for (name, min) in need {
            let s = slices.iter().find(|s| s.name == name).expect("slice");
            let base = baselines
                .iter()
                .find(|(n, _)| *n == name)
                .map(|&(_, ms)| ms)
                .expect("baseline");
            let speedup = base / s.wall_ms;
            let verdict = if speedup >= min { "ok" } else { "FAIL" };
            println!("enforce {name}: {speedup:.2}x (need >= {min}x) {verdict}");
            enforce_ok &= speedup >= min;
        }
        if !enforce_ok {
            eprintln!("\nFAIL: speedup below the acceptance threshold");
            std::process::exit(1);
        }
    }
    println!("\nengine_perf: all checks passed");
}
