//! Resilience sweep: efficiency degradation of **all six** resilient
//! variants (Cannon, GK, block DNS, and the tree/pipelined/aliased Fox
//! formulations) as link fault rates rise, plus spare-rank failover
//! under injected fail-stop deaths — with and without heartbeat-priced
//! failure detection.
//!
//! For each algorithm × processor count × fault level the same
//! multiplication runs under a seeded [`mmsim::FaultPlan`] whose drop
//! and corruption rates scale with the level; the table reports the
//! simulated parallel time, the efficiency, the degradation relative
//! to the fault-free reliable run, and the recovery effort
//! (retransmissions, backoff idle time).  The death rows additionally
//! provision spares (`Machine::with_spares`) and fail-stop one rank
//! halfway through the fault-free schedule: the binary *asserts* that
//! the product stays bit-identical to the fault-free run and that the
//! promotion shows up in the `recoveries` / `recovery_idle` columns.
//! The detection rows repeat each death point under a
//! [`mmsim::FaultPlan::with_detection`] config (heartbeat period = 10%
//! of the fault-free schedule, timeout multiple 2), asserting nonzero
//! `heartbeat_words` and `detection_latency` — the priced replacement
//! of the free death oracle.  Heartbeats ride the same lossy links as
//! data, so detection rows may also record spurious failovers
//! (`false_positives` / `wasted_promotion_idle`): a live rank accused
//! by a run of dropped beats, a spare pointlessly promoted and
//! reconciled away.
//!
//! ```sh
//! cargo run -p bench --release --bin resilience \
//!     [-- --n 24 --seed 7 --smoke --bless --enforce]
//! ```
//!
//! `--smoke` shrinks the sweep to a CI-sized subset (one processor
//! count per algorithm, two fault levels) with the same assertions.
//! A run at the default `--n`/`--seed` is reduced to a bit-exact
//! golden CSV compared byte-for-byte against
//! `crates/bench/goldens/<mode>_resilience.csv` (`--bless` rewrites
//! it — same scheme as `engine_perf`), so stale rows fail CI; custom
//! parameters skip the golden (every row legitimately changes) and
//! refuse `--bless`.  `--enforce` additionally requires that every
//! planned sweep point produced a row (no silent inapplicability
//! skips).

use std::collections::HashMap;
use std::fmt::Write as _;
use std::process::ExitCode;

use algos::{
    cannon_resilient, dns_resilient, fox_pipelined_resilient, fox_tree_resilient, gk_resilient,
    SimOutcome,
};
use bench::golden::{bits, Args};
use bench::{parallel_sweep, ResultTable};
use dense::gen;
use mmsim::{CostModel, FaultPlan, Machine, Topology};

/// Fault levels swept: the drop rate per transmission attempt; the
/// corruption rate rides along at half of it.
const DROP_RATES: [f64; 5] = [0.0, 0.05, 0.1, 0.2, 0.3];
const SMOKE_DROP_RATES: [f64; 2] = [0.0, 0.1];

/// Drop rate the death rows run under, so failover is exercised on
/// already-lossy links rather than in isolation.
const DEATH_DROP: f64 = 0.05;

/// Detection rows: heartbeat period as a fraction of the fault-free
/// schedule, and the timeout multiple.
const DETECT_PERIOD_FRAC: f64 = 0.1;
const DETECT_MULTIPLE: u32 = 2;

/// DNS needs `p = n²·r`, so it sweeps a small fixed operand instead of
/// the mesh algorithms' `--n`.
const DNS_N: usize = 4;

/// The sweep the goldens pin.  A custom `--n`/`--seed` legitimately
/// changes every row, so the golden comparison only runs (and
/// `--bless` is only accepted) at these defaults.
const DEFAULT_N: usize = 24;
const DEFAULT_SEED: u64 = 7;

/// One sweep point: algorithm name, processor count, operand size,
/// drop rate, and — for the failover rows — a death scheduled at
/// `death_t` (with spares), optionally priced by a detection config.
struct Point {
    alg: &'static str,
    p: usize,
    n: usize,
    drop: f64,
    /// Fail-stop logical rank 1 at this virtual time (spares on).
    death_t: Option<f64>,
    /// Heartbeat-priced detection: (period, timeout multiple).
    detection: Option<(f64, u32)>,
}

fn run_point(point: &Point, seed: u64) -> Result<SimOutcome, String> {
    let (a, b) = gen::random_pair(point.n, 17);
    let cost = CostModel::new(150.0, 3.0); // the paper's nCUBE2 constants
    let mut plan = FaultPlan::new(seed);
    if point.drop > 0.0 {
        plan = plan
            .with_drop_rate(point.drop)
            .with_corrupt_rate(point.drop / 2.0);
    }
    if let Some((period, multiple)) = point.detection {
        plan = plan.with_detection(period, multiple);
    }
    let mut machine = if let Some(t) = point.death_t {
        // The next hypercube up holds the logical mesh plus spares;
        // rank 1 dies mid-run and a spare takes its slot.
        plan = plan.with_death(1, t);
        let full = Machine::new(Topology::hypercube_for(2 * point.p), cost);
        let spares = full.p() - point.p;
        full.with_spares(spares)
    } else {
        Machine::new(Topology::hypercube_for(point.p), cost)
    };
    if point.drop > 0.0 || point.death_t.is_some() || point.detection.is_some() {
        machine = machine.with_fault_plan(plan);
    }
    let out = match point.alg {
        "cannon" => cannon_resilient(&machine, &a, &b),
        "gk" => gk_resilient(&machine, &a, &b),
        "fox_tree" => fox_tree_resilient(&machine, &a, &b),
        "fox_pipelined" => {
            // The advisor's default packet count: √(block words).
            let q = (point.p as f64).sqrt().round() as usize;
            let bs = point.n / q;
            let block_words = bs * bs;
            let packets = ((block_words as f64).sqrt().round() as usize).clamp(1, block_words);
            fox_pipelined_resilient(&machine, &a, &b, packets)
        }
        "dns" => dns_resilient(&machine, &a, &b),
        other => return Err(format!("unknown algorithm {other:?}")),
    };
    out.map_err(|e| format!("{} p={} drop={}: {e}", point.alg, point.p, point.drop))
}

/// One finished sweep row: the point's identity plus its outcome.
struct Row {
    alg: &'static str,
    p: usize,
    n: usize,
    drop: f64,
    deaths: usize,
    detection_period: Option<f64>,
    out: SimOutcome,
}

fn main() -> ExitCode {
    let args = Args::from_env(
        "resilience [--n <size>] [--seed <plan seed>] [--smoke] [--bless] [--enforce]",
        &["n", "seed"],
    );
    let (n, seed) = (args.value("n", DEFAULT_N), args.value("seed", DEFAULT_SEED));
    let pinned = args.pinned((n, seed) == (DEFAULT_N, DEFAULT_SEED));
    let drop_rates: &[f64] = if args.smoke {
        &SMOKE_DROP_RATES
    } else {
        &DROP_RATES
    };

    // Cannon and both Fox meshes need a perfect square side dividing n;
    // GK a power-of-eight cube whose side divides n; DNS p = n²·r.  The
    // defaults (n = 24, DNS_N = 4) admit every set.
    let mesh_ps: &[usize] = if args.smoke { &[4] } else { &[4, 16, 64] };
    let fox_ps: &[usize] = if args.smoke { &[4] } else { &[4, 16] };
    let gk_ps: &[usize] = if args.smoke { &[8] } else { &[8, 64] };
    let dns_ps: &[usize] = if args.smoke { &[16] } else { &[16, 32] };

    let mut points = Vec::new();
    let mut planned = 0usize;
    let mut push_grid =
        |alg: &'static str, ps: &[usize], pn: usize, applicable: &dyn Fn(usize) -> bool| {
            for &p in ps {
                planned += drop_rates.len();
                if applicable(p) {
                    for &drop in drop_rates {
                        points.push(Point {
                            alg,
                            p,
                            n: pn,
                            drop,
                            death_t: None,
                            detection: None,
                        });
                    }
                }
            }
        };
    let square_divides = |p: usize| n % ((p as f64).sqrt().round() as usize) == 0;
    push_grid("cannon", mesh_ps, n, &square_divides);
    push_grid("fox_tree", fox_ps, n, &square_divides);
    push_grid("fox_pipelined", fox_ps, n, &square_divides);
    push_grid("gk", gk_ps, n, &|p| {
        n % ((p as f64).cbrt().round() as usize) == 0
    });
    push_grid("dns", dns_ps, DNS_N, &|p| {
        let r = p / (DNS_N * DNS_N);
        r.is_power_of_two() && DNS_N % r == 0 && p == DNS_N * DNS_N * r
    });

    let outcomes = parallel_sweep(points, |point| {
        run_point(point, seed).map(|out| Row {
            alg: point.alg,
            p: point.p,
            n: point.n,
            drop: point.drop,
            deaths: 0,
            detection_period: None,
            out,
        })
    });
    let mut rows: Vec<Row> = Vec::new();
    for outcome in outcomes {
        match outcome {
            Ok(row) => rows.push(row),
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if args.enforce && rows.len() != planned {
        eprintln!(
            "error: --enforce: only {} of {} planned sweep points produced rows \
             (inapplicable (alg, p, n) combinations were skipped silently)",
            rows.len(),
            planned
        );
        return ExitCode::FAILURE;
    }

    // Failover rows: kill logical rank 1 halfway through the fault-free
    // schedule of each (alg, p) and let a spare absorb it — once under
    // the free death oracle, once with heartbeat-priced detection.  The
    // fault-free outcome doubles as the bit-identity reference.
    let fault_free: Vec<(&str, usize, usize, SimOutcome)> = rows
        .iter()
        .filter(|r| r.drop == 0.0)
        .map(|r| (r.alg, r.p, r.n, r.out.clone()))
        .collect();
    let death_points: Vec<Point> = fault_free
        .iter()
        .flat_map(|(alg, p, pn, out)| {
            let death_t = out.t_parallel * 0.5;
            [
                Point {
                    alg,
                    p: *p,
                    n: *pn,
                    drop: DEATH_DROP,
                    death_t: Some(death_t),
                    detection: None,
                },
                Point {
                    alg,
                    p: *p,
                    n: *pn,
                    drop: DEATH_DROP,
                    death_t: Some(death_t),
                    detection: Some((out.t_parallel * DETECT_PERIOD_FRAC, DETECT_MULTIPLE)),
                },
            ]
        })
        .collect();
    let death_rows = parallel_sweep(death_points, |point| {
        run_point(point, seed).map(|out| Row {
            alg: point.alg,
            p: point.p,
            n: point.n,
            drop: point.drop,
            deaths: 1,
            detection_period: point.detection.map(|(period, _)| period),
            out,
        })
    });
    for outcome in death_rows {
        match outcome {
            Ok(row) => {
                let reference = fault_free
                    .iter()
                    .find(|(a, q, _, _)| *a == row.alg && *q == row.p)
                    .map(|(_, _, _, o)| o)
                    .expect("death point without a fault-free reference");
                let recoveries: u64 = row.out.stats.iter().map(|s| s.recoveries).sum();
                if row.out.c != reference.c {
                    eprintln!(
                        "error: {} p={} death run product diverged from fault-free run",
                        row.alg, row.p
                    );
                    return ExitCode::FAILURE;
                }
                if recoveries == 0 {
                    eprintln!(
                        "error: {} p={} death row recorded no spare promotion",
                        row.alg, row.p
                    );
                    return ExitCode::FAILURE;
                }
                if row.detection_period.is_some() {
                    let beats: u64 = row.out.stats.iter().map(|s| s.heartbeat_words).sum();
                    let latency: f64 = row.out.stats.iter().map(|s| s.detection_latency).sum();
                    if beats == 0 || latency <= 0.0 {
                        eprintln!(
                            "error: {} p={} detection row shows no heartbeat traffic \
                             ({beats} beats) or no detection latency ({latency})",
                            row.alg, row.p
                        );
                        return ExitCode::FAILURE;
                    }
                }
                rows.push(row);
            }
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    let mut table = ResultTable::new(
        format!(
            "efficiency degradation under link faults and fail-stop deaths \
             (n = {n}, dns n = {DNS_N}, t_s = 150, t_w = 3, plan seed {seed})"
        ),
        &[
            "algorithm",
            "p",
            "n",
            "drop_rate",
            "corrupt_rate",
            "deaths",
            "spares",
            "detection_period",
            "t_parallel",
            "efficiency",
            "degradation",
            "retransmissions",
            "backoff_idle",
            "recoveries",
            "recovery_idle",
            "heartbeat_words",
            "detection_latency",
            "false_positives",
            "wasted_promotion_idle",
        ],
    );
    let mut golden = String::from(
        "algorithm,p,n,drop_rate,deaths,detection_period_bits,t_parallel_bits,\
         retransmissions,recoveries,heartbeat_words,detection_latency_bits,\
         false_positives,wasted_promotion_idle_bits\n",
    );
    // Fault-free efficiency per (alg, p) anchors the degradation column.
    let baseline: HashMap<(&str, usize), f64> = rows
        .iter()
        .filter(|r| r.drop == 0.0 && r.deaths == 0)
        .map(|r| ((r.alg, r.p), r.out.efficiency()))
        .collect();
    for row in &rows {
        let out = &row.out;
        let eff = out.efficiency();
        let base = baseline.get(&(row.alg, row.p)).copied().unwrap_or(eff);
        let retrans: u64 = out.stats.iter().map(|s| s.retransmissions).sum();
        let backoff: f64 = out.stats.iter().map(|s| s.backoff_idle).sum();
        let recoveries: u64 = out.stats.iter().map(|s| s.recoveries).sum();
        let recovery_idle: f64 = out.stats.iter().map(|s| s.recovery_idle).sum();
        let heartbeats: u64 = out.stats.iter().map(|s| s.heartbeat_words).sum();
        let det_latency: f64 = out.stats.iter().map(|s| s.detection_latency).sum();
        let false_pos: u64 = out.stats.iter().map(|s| s.false_positives).sum();
        let wasted: f64 = out.stats.iter().map(|s| s.wasted_promotion_idle).sum();
        let spares = if row.deaths > 0 { row.p } else { 0 };
        table.push_row(vec![
            row.alg.to_string(),
            row.p.to_string(),
            row.n.to_string(),
            format!("{:.2}", row.drop),
            format!("{:.2}", row.drop / 2.0),
            row.deaths.to_string(),
            spares.to_string(),
            row.detection_period
                .map_or_else(|| "-".into(), |t| format!("{t:.1}")),
            format!("{:.1}", out.t_parallel),
            format!("{eff:.4}"),
            format!("{:.4}", eff / base),
            retrans.to_string(),
            format!("{backoff:.1}"),
            recoveries.to_string(),
            format!("{recovery_idle:.1}"),
            heartbeats.to_string(),
            format!("{det_latency:.1}"),
            false_pos.to_string(),
            format!("{wasted:.1}"),
        ]);
        let _ = writeln!(
            golden,
            "{},{},{},{:.2},{},{},{},{retrans},{recoveries},{heartbeats},{},{false_pos},{}",
            row.alg,
            row.p,
            row.n,
            row.drop,
            row.deaths,
            row.detection_period.map_or_else(|| "none".into(), bits),
            bits(out.t_parallel),
            bits(det_latency),
            bits(wasted),
        );
    }

    println!("{}", table.render());
    let path = table.save_csv("resilience");
    println!("CSV written to {}", path.display());

    args.gate(pinned, "resilience", &golden)
}
