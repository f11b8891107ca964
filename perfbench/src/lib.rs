//! The repository benchmark: four workloads that load different layers
//! of the system, end-to-end metrics from untraced passes, and
//! per-layer metrics from a separate traced pass.  See `README.md` in
//! this directory for the workloads, the metric-to-layer table and the
//! first measured numbers.

pub mod fingerprint;
pub mod gemmd_poll;
pub mod host;
pub mod layers;
pub mod report;
pub mod sim;
pub mod stats;
pub mod trace;

use std::path::PathBuf;

use report::Metric;
use trace::Tracer;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PaperSweep,
    DenseBign,
    MassiveP,
    GemmdPoll,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::PaperSweep,
        Workload::DenseBign,
        Workload::MassiveP,
        Workload::GemmdPoll,
    ];

    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperSweep => "paper-sweep",
            Workload::DenseBign => "dense-bign",
            Workload::MassiveP => "massive-p",
            Workload::GemmdPoll => "gemmd-poll",
        }
    }

    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// End-to-end metrics every workload reports from untraced passes.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("run_ms_p50", "ms"),
    ("run_ms_p90", "ms"),
    ("sim_msgs_per_s", "msg/s"),
    ("sim_madds_per_s", "madd/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics every workload reports from its traced pass.
pub const PER_LAYER: [(&str, &str); 18] = [
    ("trace.overhead", "ratio"),
    ("host.cpu_ms", "ms"),
    ("host.cpu_util", "ratio"),
    ("dense.gen.ms", "ms"),
    ("dense.kernel.madds", "madd"),
    ("dense.kernel.ns_per_madd", "ns"),
    ("dense.kernel.cpu_ms", "ms"),
    ("dense.kernel.cpu_share", "ratio"),
    ("mmsim.msgs", "count"),
    ("mmsim.words", "count"),
    ("mmsim.hops", "count"),
    ("mmsim.rank_runs", "count"),
    ("mmsim.empty_run_us", "us"),
    ("mmsim.ring_ns_per_msg", "ns"),
    ("mmsim.engine_residual_ns_per_msg", "ns"),
    ("mmsim.fault.retransmissions", "count"),
    ("mmsim.fault.goodput", "ratio"),
    ("algos.ms", "ms"),
];

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Rewrite the committed fingerprints for this workload and seed.
    pub bless: bool,
    /// Time one set-up, print its seconds and exit.
    pub setup_only: bool,
}

pub const USAGE: &str =
    "usage: perfbench --workload <paper-sweep|dense-bign|massive-p|gemmd-poll> \
                         --seed <u64> --seconds <n> --trace <0|1> [--bless | --setup-only]";

impl Args {
    /// Parse `--name value` pairs.
    ///
    /// # Errors
    /// A usage message naming the bad or missing argument.
    pub fn parse(argv: &[String]) -> Result<Self, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        let (mut bless, mut setup_only) = (false, false);
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            match flag.as_str() {
                "--bless" => {
                    bless = true;
                    continue;
                }
                "--setup-only" => {
                    setup_only = true;
                    continue;
                }
                _ => {}
            }
            let value = it
                .next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
            let bad = || format!("bad value {value:?} for {flag}\n{USAGE}");
            match flag.as_str() {
                "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
                "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
                "--seconds" => {
                    let s: f64 = value.parse().map_err(|_| bad())?;
                    if !(0.0..=3600.0).contains(&s) {
                        return Err(bad());
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad()),
                    });
                }
                _ => return Err(format!("unknown argument {flag}\n{USAGE}")),
            }
        }
        Ok(Self {
            workload: workload.ok_or_else(|| format!("--workload is required\n{USAGE}"))?,
            seed: seed.unwrap_or(1),
            seconds: seconds.unwrap_or(10.0),
            trace: trace.unwrap_or(false),
            bless,
            setup_only,
        })
    }
}

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// The declared metrics (end-to-end, or per-layer when traced).
    pub metrics: Vec<Metric>,
    /// Workload-specific figures printed beside the result.
    pub extra: Vec<Metric>,
    /// The first few failed checks.
    pub errors: Vec<String>,
    /// Ops whose fingerprints no committed entry pinned this run.
    pub unpinned: Vec<String>,
    pub tracer: Option<Tracer>,
}

impl Outcome {
    #[must_use]
    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            1.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// Set-ups an untraced run times for `setup_s`: its own and, before
/// it, `SETUPS - 1` more, each the first set-up of a fresh process of
/// this program (`--setup-only`).  Every sample is cold: the engine's
/// process-wide worker pool and fiber stacks do not exist yet, as for
/// a user's first call.  `setup_s` is their median.
pub const SETUPS: usize = 9;

/// The benchmark's own directory, resolved when the program runs:
/// cargo's `CARGO_MANIFEST_DIR` for `cargo run`/`cargo test`, else
/// `perfbench` under the working directory.
#[must_use]
pub fn bench_dir() -> PathBuf {
    std::env::var_os("CARGO_MANIFEST_DIR").map_or_else(|| PathBuf::from("perfbench"), PathBuf::from)
}

/// The committed fingerprint table.
#[must_use]
pub fn fingerprints_path() -> PathBuf {
    bench_dir().join("fingerprints.tsv")
}

/// Where a traced run writes its spans.
#[must_use]
pub fn trace_path(w: Workload, seed: u64) -> PathBuf {
    bench_dir()
        .join("out")
        .join(format!("trace-{}-seed{seed}.json", w.name()))
}

/// Run one workload; `cold` holds set-ups timed in other processes
/// ([`cold_setups`]), to which an untraced run adds its own for
/// `setup_s`.
///
/// # Errors
/// A missing or malformed fingerprint table (simulation workloads), or
/// a gemmd socket failure.
pub fn run(args: &Args, cold: Vec<f64>) -> Result<Outcome, String> {
    match args.workload {
        Workload::GemmdPoll => gemmd_poll::run(args, cold),
        _ => Ok(sim::run(
            args,
            fingerprint::Table::load(&fingerprints_path(), false)?,
            cold,
        )),
    }
}

/// Time one set-up of the workload, as the first thing this process
/// does, and tear it down.
///
/// # Errors
/// A gemmd socket failure.
pub fn setup_once(w: Workload, seed: u64) -> Result<f64, String> {
    match w {
        Workload::GemmdPoll => gemmd_poll::setup_once(seed),
        _ => Ok(sim::timed_setup(w, seed).0),
    }
}

/// Time `n` cold set-ups, one after another, each in a fresh process
/// of this program run with `--setup-only`; waits for every process.
///
/// # Errors
/// Starting a process, its failure, or unreadable output.
pub fn cold_setups(w: Workload, seed: u64, n: usize) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this program: {e}"))?;
    (0..n)
        .map(|_| {
            let out = std::process::Command::new(&exe)
                .args([
                    "--workload",
                    w.name(),
                    "--seed",
                    &seed.to_string(),
                    "--setup-only",
                ])
                .stdin(std::process::Stdio::null())
                .output()
                .map_err(|e| format!("starting {}: {e}", exe.display()))?;
            let stdout = String::from_utf8_lossy(&out.stdout);
            let secs = stdout
                .lines()
                .last()
                .and_then(|l| l.trim().parse::<f64>().ok());
            match secs {
                Some(s) if out.status.success() => Ok(s),
                _ => Err(format!(
                    "set-up process failed ({}): {}",
                    out.status,
                    String::from_utf8_lossy(&out.stderr).trim()
                )),
            }
        })
        .collect()
}

/// Rewrite the workload's fingerprints for `seed` in the table.
///
/// # Errors
/// Reading or writing the table.
pub fn bless(w: Workload, seed: u64) -> Result<usize, String> {
    if w == Workload::GemmdPoll {
        return Ok(0);
    }
    let path = fingerprints_path();
    let mut table = fingerprint::Table::load(&path, true)?;
    let fps = sim::fingerprints(w, seed);
    for (op, lossy, fp) in &fps {
        table.insert(w.name(), op, lossy.then_some(seed), *fp);
    }
    table
        .save(&path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(fps.len())
}
