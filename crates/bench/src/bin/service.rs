//! Online-service tail latency: utilisation × mix × policy sweep over
//! the `gemmd` scheduler fed by the open-loop traffic generator.
//!
//! The scenario: a 16-rank machine serving a heavy-tailed stream of
//! GEMMs (mostly single-rank `n = 8` jobs, with `n = 16`/`n = 32`
//! jobs mixed in) where every placement pays a fixed dispatch overhead
//! that dwarfs a tiny multiply.  Four variants run the same trace:
//! FIFO, shortest-predicted-time, earliest-deadline-first, and EDF
//! with the small-GEMM batcher armed — the last coalesces queued
//! same-shape single-rank jobs into one placement, paying the overhead
//! once per batch, while each sub-job keeps its own latency record.
//!
//! ```sh
//! cargo run -p bench --release --bin service \
//!     [-- --jobs 150 --seed 11 --smoke --bless --enforce]
//! ```
//!
//! A run at the default `--jobs`/`--seed` is reduced to a bit-exact
//! golden CSV compared byte-for-byte against
//! `crates/bench/goldens/<mode>_service.csv` (`--bless` rewrites it).
//! `--enforce` additionally requires the headline result: on every mix
//! at the most contended gap, `edf+batch` must strictly beat both FIFO
//! and SPT on p99 sojourn, the batcher must actually coalesce, the
//! contended `edf+batch` run must replay byte-identically, and every
//! batched sub-job's service time must be bit-identical to its
//! unbatched (`edf`) execution.

use std::fmt::Write as _;
use std::fs;
use std::process::ExitCode;

use bench::golden::{bits, Args};

use bench::service_common::{
    check_service_rows, run_point, run_service_sweep, tabulate, ServiceRow, ServiceSweep,
};
use gemmd::{analyze, JobClasses, Slo};

/// The sweep the goldens pin.
const DEFAULT_JOBS: usize = 150;
const SMOKE_JOBS: usize = 60;
const DEFAULT_SEED: u64 = 11;

/// The golden rows: exact bits of every latency headline per point.
fn golden_csv(rows: &[ServiceRow]) -> String {
    let mut out = String::from(
        "gap,mix,policy,jobs,rejected,coalesced,makespan_bits,utilization_bits,\
         p50_bits,p99_bits,p999_bits\n",
    );
    for row in rows {
        let s = row.sojourns();
        let _ = writeln!(
            out,
            "{:.0},{},{},{},{},{},{},{},{},{},{}",
            row.gap,
            row.mix,
            row.policy,
            row.report.records.len(),
            row.report.rejected.len(),
            row.coalesced(),
            bits(row.report.makespan),
            bits(row.report.utilization()),
            bits(s.p50()),
            bits(s.p99()),
            bits(s.p999()),
        );
    }
    out
}

/// The SLO targets the service is graded against in the results CSVs
/// (informational, not gated): tight for interactive jobs, loose for
/// batch.
fn slos() -> Vec<Slo> {
    vec![
        Slo::new("interactive", 0.99, 2.0e4),
        Slo::new("standard", 0.99, 6.0e4),
        Slo::new("batch", 0.99, 2.0e5),
    ]
}

/// The determinism and bit-identity gates on the contended point:
/// the `edf+batch` run must replay byte-identically, and every batched
/// sub-job's service time must match its unbatched `edf` execution
/// bit-for-bit.
fn check_replay_and_bit_identity(sweep: &ServiceSweep, rows: &[ServiceRow]) -> Result<(), String> {
    let high = sweep.high_gap();
    let (mix, alpha) = sweep.mixes[0];
    let find = |policy: &str| -> Result<&ServiceRow, String> {
        rows.iter()
            .find(|r| r.gap == high && r.mix == mix && r.policy == policy)
            .ok_or_else(|| format!("no row for {policy}/{mix}@{high:.0}"))
    };
    let batched = find("edf+batch")?;
    let solo = find("edf")?;

    let again = run_point(sweep, high, mix, alpha, "edf+batch");
    if again.report.to_csv() != batched.report.to_csv() {
        return Err(format!(
            "edf+batch on {mix}@{high:.0} did not replay byte-identically"
        ));
    }

    for r in &batched.report.records {
        let s = solo
            .report
            .records
            .iter()
            .find(|s| s.id == r.id)
            .ok_or_else(|| format!("job {} missing from the unbatched run", r.id))?;
        if r.actual_time.to_bits() != s.actual_time.to_bits() {
            return Err(format!(
                "job {}: batched service time {} != unbatched {} (bits differ)",
                r.id, r.actual_time, s.actual_time
            ));
        }
    }
    println!(
        "determinism: edf+batch on {mix}@{high:.0} replayed byte-identically; \
         {} batched sub-jobs bit-identical to unbatched execution",
        batched.coalesced()
    );
    Ok(())
}

/// Per-class latency, SLO attainment, and utilisation/backlog
/// time-series for the contended `edf+batch` run, written under
/// `results/`.
fn write_detail_csvs(mode: &str, sweep: &ServiceSweep, rows: &[ServiceRow]) {
    let high = sweep.high_gap();
    let mix = sweep.mixes[0].0;
    let Some(row) = rows
        .iter()
        .find(|r| r.gap == high && r.mix == mix && r.policy == "edf+batch")
    else {
        return;
    };
    let report = analyze(&row.report, &JobClasses::default_split(), &slos());
    let dir = bench::results_dir();
    fs::create_dir_all(&dir).expect("create results dir");
    for (name, body) in [
        (format!("{mode}_service_classes.csv"), report.class_csv()),
        (format!("{mode}_service_slo.csv"), report.slo_csv()),
        (
            format!("{mode}_service_timeline.csv"),
            row.report.timeline_csv(),
        ),
    ] {
        let path = dir.join(&name);
        fs::write(&path, body).expect("write detail csv");
        println!("wrote {}", path.display());
    }
    for outcome in &report.outcomes {
        println!(
            "slo {}@p{:02.0}: {} ({} jobs, {} violations)",
            outcome.slo.class,
            outcome.slo.q * 100.0,
            if outcome.attained {
                "attained"
            } else {
                "MISSED"
            },
            outcome.jobs,
            outcome.violations,
        );
    }
}

fn main() -> ExitCode {
    let args = Args::from_env(
        "service [--jobs <count>] [--seed <traffic seed>] [--smoke] [--bless] [--enforce]",
        &["jobs", "seed"],
    );
    let default_jobs = if args.smoke { SMOKE_JOBS } else { DEFAULT_JOBS };
    let (jobs, seed) = (
        args.value("jobs", default_jobs),
        args.value("seed", DEFAULT_SEED),
    );
    let pinned = args.pinned((jobs, seed) == (default_jobs, DEFAULT_SEED));
    let mode = args.mode();

    let sweep = if args.smoke {
        ServiceSweep::smoke(jobs, seed)
    } else {
        ServiceSweep::full(jobs, seed)
    };
    let rows = run_service_sweep(&sweep);
    let table = tabulate(&sweep, &rows);
    println!("{}", table.render());
    let csv_path = table.save_csv(&format!("{mode}_service_sweep"));
    println!("wrote {}", csv_path.display());
    write_detail_csvs(mode, &sweep, &rows);

    if args.enforce {
        if let Err(e) = check_service_rows(&sweep, &rows) {
            eprintln!("error: --enforce: {e}");
            return ExitCode::FAILURE;
        }
        if let Err(e) = check_replay_and_bit_identity(&sweep, &rows) {
            eprintln!("error: --enforce: {e}");
            return ExitCode::FAILURE;
        }
        println!("enforced: edf+batch beat fifo and spt on p99 at the contended point");
    }

    args.gate(pinned, "service", &golden_csv(&rows))
}
