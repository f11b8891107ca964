//! `gemmd-poll`: one client runs a closed loop over loopback TCP
//! against `gemmd::frontend::serve` on a second thread.  Each pass
//! submits a seeded heavy-tailed job stream with explicit arrival
//! stamps, polls `status` after every submit and ends with `stats`;
//! a `shutdown` then resets the server to a fresh front-end for the
//! next pass, so every pass replays the same trace lengths.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use dense::{gen, kernel};
use gemmd::frontend::{serve, Frontend};
use gemmd::{right_size, Config, Scheduler};
use mmsim::{CostModel, Machine, Topology};

use crate::layers::{self, RunCost};
use crate::report::Metric;
use crate::stats::{median, op_medians, quantile, slope};
use crate::trace::Tracer;
use crate::{Args, Outcome};

/// The service `gemmd-serve` starts by default: 2⁴ ranks, nCUBE2
/// costs, EDF, default scheduler config.
const DIM: u32 = 4;
const POLICY: &str = "edf";
/// Job orders and the heavy-tail exponent of their frequencies: the
/// sizes and the "balanced" mix of the repository's service experiment
/// (`crates/bench/src/service_common.rs`, `docs/gemmd.md`).  The
/// weights `(n/8)^-1` are 4 : 2 : 1, so a block of 7 jobs holds the mix
/// exactly.
const SIZES: [usize; 3] = [8, 16, 32];
const ALPHA: f64 = 1.0;
/// Jobs per pass: `BLOCKS` blocks of `BLOCK`.  The replay behind a
/// status grows with the jobs submitted so far, so a long trace is
/// where per-query replay costs most; at 196 jobs one pass (≈ 0.6 s on
/// a 2-core host) still fits a 30 s window about 50 times.
const BLOCK: usize = 7;
const BLOCKS: usize = 28;
pub const JOBS: usize = BLOCK * BLOCKS;
/// Mean virtual gap between arrivals.  The service experiment's gaps
/// (20 to 480) overload this machine on purpose, and at 480 the replay
/// already rejects jobs at admission, so a status stops replaying every
/// job submitted.  At 1000 the machine runs at about 0.6 utilisation:
/// jobs queue, so placement has work to do, and no job was rejected at
/// any seed from 1 to 60.
const MEAN_GAP: f64 = 1000.0;

fn machine() -> Machine {
    Machine::new(Topology::hypercube(DIM), CostModel::ncube2())
}

fn frontend() -> Frontend {
    Frontend::new(machine(), Config::default(), POLICY).expect("edf is a known policy")
}

/// One job of the stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Job {
    pub n: usize,
    pub arrival: f64,
    pub priority: u8,
    pub seed: u64,
}

/// The seeded stream: `BLOCKS` repeats of one block of `BLOCK` sizes.
/// The block holds a fixed multiset — frequencies ∝ `(n/16)^-ALPHA`,
/// rounded by largest remainder — with each size spread evenly through
/// it.  Every seed therefore does the same simulated work in the same
/// order, and a `status` at position k replays the same mix whatever
/// the seed; the seed draws the arrival gaps, the priorities and the
/// operand seeds.
#[must_use]
pub fn job_stream(seed: u64) -> Vec<Job> {
    let mix = gemmd::heavy_tailed_mix(&SIZES, ALPHA);
    let total: f64 = mix.iter().map(|(_, w)| w).sum();
    let exact: Vec<f64> = mix.iter().map(|(_, w)| w / total * BLOCK as f64).collect();
    let mut counts: Vec<usize> = exact.iter().map(|x| x.floor() as usize).collect();
    let mut order: Vec<usize> = (0..mix.len()).collect();
    order.sort_by(|&a, &b| (exact[b] - exact[b].floor()).total_cmp(&(exact[a] - exact[a].floor())));
    for &i in order.iter().take(BLOCK - counts.iter().sum::<usize>()) {
        counts[i] += 1;
    }
    // The i-th of c jobs of one size sits at (i + ½)/c of the block.
    let mut block: Vec<(f64, usize)> = mix
        .iter()
        .zip(&counts)
        .flat_map(|(&(n, _), &c)| (0..c).map(move |i| ((i as f64 + 0.5) / c as f64, n)))
        .collect();
    block.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    let sizes = (0..BLOCKS).flat_map(|_| block.iter().map(|&(_, n)| n));
    let mut rng = detrng::SplitMix64::new(detrng::mix(&[seed, 0x6E33]));
    let mut t = 0.0;
    sizes
        .map(|n| {
            t += -MEAN_GAP * (1.0 - rng.next_f64()).ln();
            Job {
                n,
                arrival: t,
                priority: rng.next_below(4) as u8,
                seed: rng.next_u64(),
            }
        })
        .collect()
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verb {
    Submit,
    Status,
    Stats,
}

/// One request line and its verb.
pub type Request = (Verb, String);

/// The request lines of one pass: submit, status, …, stats.
#[must_use]
pub fn requests(jobs: &[Job]) -> Vec<Request> {
    let mut out = Vec::with_capacity(2 * jobs.len() + 1);
    for (id, j) in jobs.iter().enumerate() {
        out.push((
            Verb::Submit,
            format!(
                "{{\"verb\":\"submit\",\"n\":{},\"arrival\":{:?},\"priority\":{},\"seed\":{}}}",
                j.n, j.arrival, j.priority, j.seed
            ),
        ));
        out.push((Verb::Status, format!("{{\"verb\":\"status\",\"id\":{id}}}")));
    }
    out.push((Verb::Stats, "{\"verb\":\"stats\"}".to_string()));
    out
}

/// The replies of a fresh in-process front-end to `lines`.
#[must_use]
pub fn in_process(lines: &[Request]) -> Vec<String> {
    let mut fe = frontend();
    lines.iter().map(|(_, l)| fe.handle(l, 0.0).0).collect()
}

/// The server thread: one listener, a fresh front-end per session
/// (a `shutdown` ends a session), until `stop` is set.
pub struct Server {
    pub addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: JoinHandle<std::io::Result<()>>,
}

impl Server {
    /// Bind a loopback port and start serving.
    ///
    /// # Errors
    /// Binding the listener.
    pub fn start() -> std::io::Result<Self> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let thread = std::thread::spawn(move || loop {
            let mut fe = frontend();
            serve(&listener, &mut fe, || 0.0)?;
            if flag.load(Ordering::SeqCst) {
                return Ok(());
            }
        });
        Ok(Self { addr, stop, thread })
    }

    /// Stop the server and join its thread.
    ///
    /// # Errors
    /// The server's own I/O error.
    pub fn stop(self) -> std::io::Result<()> {
        self.stop.store(true, Ordering::SeqCst);
        // Wake the accept loop with one last session.  If the thread saw
        // the flag between sessions it has already closed the listener,
        // and this exchange is refused or reset: the join below is the
        // verdict either way.
        let _ = Client::connect(self.addr).and_then(Client::end_session);
        self.thread
            .join()
            .map_err(|_| std::io::Error::other("gemmd server thread panicked"))?
    }
}

/// One client connection speaking the JSON-line protocol.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    line: String,
}

impl Client {
    /// Connect; a stalled server surfaces as a read error after 60 s
    /// instead of a hung benchmark.
    ///
    /// # Errors
    /// Connecting or configuring the socket.
    pub fn connect(addr: SocketAddr) -> std::io::Result<Self> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        writer.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(Self {
            reader: BufReader::new(writer.try_clone()?),
            writer,
            line: String::new(),
        })
    }

    /// Send one request line and read its reply (newline stripped).
    ///
    /// # Errors
    /// Socket I/O, or the server closing the connection.
    pub fn request(&mut self, line: &str) -> std::io::Result<String> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()?;
        quickack(&self.writer)?;
        self.line.clear();
        if self.reader.read_line(&mut self.line)? == 0 {
            return Err(std::io::Error::other("gemmd closed the connection"));
        }
        Ok(self.line.trim_end().to_string())
    }

    /// End the session: the server answers and starts a fresh
    /// front-end for the next connection.
    ///
    /// # Errors
    /// Socket I/O.
    pub fn end_session(mut self) -> std::io::Result<()> {
        self.request("{\"verb\":\"shutdown\"}").map(drop)
    }
}

/// Acknowledge received data at once (`TCP_QUICKACK`).  The server
/// writes each reply and its newline as two writes with Nagle's
/// algorithm on, so a client that delays its ACK makes the newline wait
/// for the delayed-ACK timer (about 40 ms) on every reply.  The client
/// turns delayed ACKs off, as a latency-minded client would, so that
/// reply times measure gemmd rather than that timer.  Sending re-arms
/// delayed ACKs, so this is set again after every request.
#[cfg(target_os = "linux")]
fn quickack(s: &TcpStream) -> std::io::Result<()> {
    use std::os::fd::AsRawFd;
    use std::os::raw::{c_int, c_void};
    extern "C" {
        fn setsockopt(
            fd: c_int,
            level: c_int,
            name: c_int,
            value: *const c_void,
            len: u32,
        ) -> c_int;
    }
    const IPPROTO_TCP: c_int = 6;
    const TCP_QUICKACK: c_int = 12;
    let on: c_int = 1;
    // SAFETY: the descriptor is open for the lifetime of `s`, and the
    // option value is a live `c_int` whose size is passed with it.
    let rc = unsafe {
        setsockopt(
            s.as_raw_fd(),
            IPPROTO_TCP,
            TCP_QUICKACK,
            std::ptr::from_ref(&on).cast(),
            std::mem::size_of::<c_int>() as u32,
        )
    };
    if rc == 0 {
        Ok(())
    } else {
        Err(std::io::Error::last_os_error())
    }
}

#[cfg(not(target_os = "linux"))]
fn quickack(_: &TcpStream) -> std::io::Result<()> {
    Ok(())
}

/// Host timings of one socket pass: each request's reply latency in
/// line order, and the whole pass.
#[derive(Debug, Default)]
struct SocketPass {
    ms: Vec<f64>,
    wall_s: f64,
}

/// Checks every reply: `ok` and byte-equal to the in-process reply.
#[derive(Debug, Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Tally {
    fn record(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.errors.len() < 8 {
                self.errors.push(what());
            }
        }
    }
}

fn socket_pass(
    addr: SocketAddr,
    lines: &[Request],
    expected: &[String],
    tally: &mut Tally,
    mut tracer: Option<&mut Tracer>,
) -> std::io::Result<SocketPass> {
    let mut pass = SocketPass::default();
    let t = Instant::now();
    let pass_span = tracer.as_deref_mut().map(|tr| tr.begin("pass"));
    let mut client = Client::connect(addr)?;
    for ((verb, line), want) in lines.iter().zip(expected) {
        let name = match verb {
            Verb::Submit => "net.submit",
            Verb::Status => "net.status",
            Verb::Stats => "net.stats",
        };
        let span = tracer.as_deref_mut().map(|tr| tr.begin(name));
        let t0 = Instant::now();
        let reply = client.request(line)?;
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        if let (Some(tr), Some(id)) = (tracer.as_deref_mut(), span) {
            tr.end(id);
            tr.count(name, 1.0);
            tr.count("net.reply_bytes", reply.len() as f64);
        }
        pass.ms.push(ms);
        tally.record(reply.starts_with("{\"ok\":true") && reply == *want, || {
            format!("{line} -> {reply} (in-process: {want})")
        });
    }
    client.end_session()?;
    if let (Some(tr), Some(id)) = (tracer, pass_span) {
        tr.end(id);
    }
    pass.wall_s = t.elapsed().as_secs_f64();
    Ok(pass)
}

/// Time to the first timed request: job-stream generation, front-end
/// and machine construction, bind, connect, and a warm-up session
/// before the session is reset.  The warm-up submits the stream's
/// shortest prefix that holds every job size, with a status after each
/// submit, so every partition the stream uses has run the engine once,
/// as the simulation workloads warm up every machine.
fn setup(seed: u64) -> std::io::Result<(Server, Vec<Request>, f64)> {
    let t = Instant::now();
    let jobs = job_stream(seed);
    let warm = SIZES
        .iter()
        .filter_map(|&n| jobs.iter().position(|j| j.n == n))
        .max()
        .map_or(0, |i| i + 1);
    let lines = requests(&jobs);
    let server = Server::start()?;
    let mut c = Client::connect(server.addr)?;
    for (_, line) in &lines[..2 * warm] {
        c.request(line)?;
    }
    c.end_session()?;
    Ok((server, lines, t.elapsed().as_secs_f64()))
}

/// Time one set-up and stop its server.
///
/// # Errors
/// Socket or server failures.
pub fn setup_once(seed: u64) -> Result<f64, String> {
    let (server, _, secs) = setup(seed).map_err(io("set-up"))?;
    server.stop().map_err(io("stopping the set-up server"))?;
    Ok(secs)
}

/// The simulation behind each job, run the way the scheduler places it:
/// `right_size` on the service machine, then `run_recommendation` on
/// the partition.  Products are verified; costs feed the metrics.
fn job_sims(lines: &[Request], tally: &mut Tally, tracer: &mut Tracer) -> JobSims {
    let mut fe = frontend();
    for (verb, l) in lines {
        if *verb == Verb::Submit {
            fe.handle(l, 0.0);
        }
    }
    let m = machine();
    let sched = Scheduler::new(&m, Config::default());
    let mut partitions: Vec<usize> = Vec::new();
    let mut costs = Vec::new();
    let mut sizing_us = Vec::new();
    let mut cpu_s = 0.0;
    for spec in fe.jobs() {
        let t = Instant::now();
        let sizing = right_size(sched.advisor(), spec.n, m.p(), Config::default().sizing);
        sizing_us.push(t.elapsed().as_secs_f64() * 1e6);
        let Some(sizing) = sizing else {
            tally.record(false, || format!("n = {} is unschedulable", spec.n));
            continue;
        };
        let sub = m.partition(&(0..sizing.p).collect::<Vec<_>>());
        let (a, b) = gen::random_pair(spec.n, spec.seed);
        let cpu0 = crate::host::cpu_seconds();
        let id = tracer.begin("gemmd.sim");
        let out = parmm::run_recommendation(&sizing.rec, &sub, &a, &b);
        let wall = tracer.end(id);
        cpu_s += crate::host::cpu_seconds() - cpu0;
        let family = format!("{:?}", sizing.rec.algorithm).to_lowercase();
        let ok = out
            .as_ref()
            .is_ok_and(|o| algos::verify_product(&o.c, &kernel::matmul(&a, &b), 1e-9).passed);
        tally.record(ok, || {
            format!(
                "job n = {} on p = {}: product check failed",
                spec.n, sizing.p
            )
        });
        if let Ok(o) = out {
            let machine = partitions
                .iter()
                .position(|&p| p == sizing.p)
                .unwrap_or_else(|| {
                    partitions.push(sizing.p);
                    partitions.len() - 1
                });
            let edge = layers::block_edge(&family, spec.n, sizing.p);
            costs.push(RunCost::of(&family, machine, edge, &o, wall));
        }
    }
    let wall_s: f64 = costs.iter().map(|c| c.wall_s).sum();
    JobSims {
        costs,
        partitions,
        sizing_us,
        cpu_util: if wall_s > 0.0 { cpu_s / wall_s } else { 1.0 },
    }
}

/// Each job's simulation run once, as the scheduler places it.
struct JobSims {
    /// `RunCost::machine` indexes `partitions`, the sizes in first use.
    costs: Vec<RunCost>,
    partitions: Vec<usize>,
    sizing_us: Vec<f64>,
    /// CPU ÷ wall over the `run_recommendation` calls.
    cpu_util: f64,
}

fn io(during: &'static str) -> impl Fn(std::io::Error) -> String {
    move |e| format!("gemmd-poll: {during}: {e}")
}

/// Run the workload; `setups` holds the cold set-ups timed in other
/// processes, to which this run's own set-up is added.
///
/// # Errors
/// Socket or server failures (counted replies never abort the run).
pub fn run(args: &Args, mut setups: Vec<f64>) -> Result<Outcome, String> {
    let (server, lines, own) = setup(args.seed).map_err(io("set-up"))?;
    setups.push(own);
    let setup_s = median(&setups);
    let expected = in_process(&lines);
    let mut tally = Tally::default();
    let mut tracer = Tracer::new();
    let sims = job_sims(&lines, &mut tally, &mut tracer);
    let costs = &sims.costs;
    let start = Instant::now();
    let window = Duration::from_secs_f64(args.seconds);
    let mut plain = Vec::new();
    let until = start + if args.trace { window / 2 } else { window };
    loop {
        plain.push(
            socket_pass(server.addr, &lines, &expected, &mut tally, None)
                .map_err(io("socket pass"))?,
        );
        if Instant::now() >= until {
            break;
        }
    }
    let mut out = Outcome::default();
    let jobs_msgs: f64 = costs.iter().map(|c| c.msgs as f64).sum();
    let jobs_madds: f64 = costs.iter().map(|c| c.madds).sum();
    // Every pass sends the same lines: take each request's median over
    // the passes, then quantiles over requests (see `op_medians`).
    let per_request: Vec<Vec<f64>> = (0..lines.len())
        .map(|i| plain.iter().map(|p| p.ms[i]).collect())
        .collect();
    let req_ms = op_medians(&per_request);
    let of = |v: Verb| -> Vec<f64> {
        lines
            .iter()
            .zip(&req_ms)
            .filter(|((verb, _), _)| *verb == v)
            .map(|(_, ms)| *ms)
            .collect()
    };
    let (submit, status) = (of(Verb::Submit), of(Verb::Status));
    if !args.trace {
        let rounds: Vec<f64> = submit.iter().zip(&status).map(|(a, b)| a + b).collect();
        let busy_s = req_ms.iter().sum::<f64>() * 1e-3;
        out.metrics = vec![
            Metric::new("setup_s", "s", setup_s),
            Metric::new("run_ms_p50", "ms", quantile(&rounds, 0.5)),
            Metric::new("run_ms_p90", "ms", quantile(&rounds, 0.9)),
            Metric::new("sim_msgs_per_s", "msg/s", jobs_msgs / busy_s),
            Metric::new("sim_madds_per_s", "madd/s", jobs_madds / busy_s),
            Metric::new("peak_rss_mb", "MB", crate::host::peak_rss_mb()),
        ];
        out.extra = vec![
            Metric::new("submit_ms_p50", "ms", median(&submit)),
            Metric::new("status_ms_p50", "ms", median(&status)),
            Metric::new("status_ms_p90", "ms", quantile(&status, 0.9)),
            Metric::new("stats_ms", "ms", median(&of(Verb::Stats))),
            Metric::new("passes", "count", plain.len() as f64),
        ];
    } else {
        // Traced socket passes, then the in-process split of the same
        // requests, then the layer probes.
        let cpu0 = crate::host::cpu_seconds();
        let t0 = Instant::now();
        let mut traced = Vec::new();
        loop {
            traced.push(
                socket_pass(
                    server.addr,
                    &lines,
                    &expected,
                    &mut tally,
                    Some(&mut tracer),
                )
                .map_err(io("traced socket pass"))?,
            );
            if Instant::now() >= start + window.mul_f64(0.6) {
                break;
            }
        }
        let npass = traced.len() as f64;
        let wall_ms = t0.elapsed().as_secs_f64() * 1e3 / npass;
        let cpu_ms = (crate::host::cpu_seconds() - cpu0) * 1e3 / npass;
        let split = in_process_split(&lines, &expected, costs, &mut tally, &mut tracer);
        // Per pass the server replays job j once for every status from
        // job j on, and once more for the final stats.
        let mut runs = costs.clone();
        for (j, c) in runs.iter_mut().enumerate() {
            c.mult = (JOBS - j + 1) as f64;
        }
        let m = machine();
        let subs: Vec<Machine> = sims
            .partitions
            .iter()
            .map(|&p| m.partition(&(0..p).collect::<Vec<_>>()))
            .collect();
        let probe = tracer.begin("probes");
        let (kernel, _) = tracer.span("probe.dense.kernel", || {
            layers::probe_kernel(&runs, sims.cpu_util)
        });
        let (machines, _) = tracer.span("probe.mmsim.machines", || {
            layers::probe_machines(&subs, &runs)
        });
        let jobs = job_stream(args.seed);
        let (gen_ms, _) = tracer.span("probe.dense.gen", || {
            jobs.iter()
                .map(|j| layers::gen_ms(j.n, j.seed))
                .sum::<f64>()
        });
        tracer.end(probe);
        let plain_wall: Vec<f64> = plain.iter().map(|p| p.wall_s).collect();
        let traced_wall: Vec<f64> = traced.iter().map(|p| p.wall_s).collect();
        out.metrics = layers::derive(&layers::LayerInputs {
            runs: &runs,
            machines: &machines,
            kernel: &kernel,
            gen_ms,
            cpu_ms,
            wall_ms,
            algos_cpu_util: sims.cpu_util,
            trace_overhead: median(&traced_wall) / median(&plain_wall),
        });
        let socket_submit_us = median(&submit) * 1e3;
        out.extra = vec![
            Metric::new("submit_ms_p50", "ms", median(&submit)),
            Metric::new("status_ms_p50", "ms", median(&status)),
            Metric::new("status_ms_p90", "ms", quantile(&status, 0.9)),
            Metric::new("gemmd.frontend.submit_us", "us", split.submit_us),
            Metric::new("gemmd.frontend.status_ms", "ms", split.status_ms),
            Metric::new("gemmd.scheduler.replay_ms", "ms", split.replay_ms),
            Metric::new(
                "gemmd.scheduler.replay_us_per_job",
                "us",
                split.replay_us_per_job,
            ),
            Metric::new("gemmd.scheduler.replay_share", "ratio", split.replay_share),
            Metric::new("gemmd.sim_ms", "ms", split.sim_ms),
            Metric::new("gemmd.scheduler.self_ms", "ms", split.self_ms),
            Metric::new("gemmd.sizing.right_size_us", "us", median(&sims.sizing_us)),
            Metric::new("net.rtt_us", "us", socket_submit_us - split.submit_us),
            Metric::new("traced_passes", "count", npass),
        ];
        out.extra.extend(layers::per_family(&runs));
        out.extra.extend(layers::detail(&machines, &kernel));
        out.tracer = Some(tracer);
    }
    Server::stop(server).map_err(io("stopping the server"))?;
    out.attempted = tally.attempted;
    out.failed = tally.failed;
    out.errors = tally.errors;
    Ok(out)
}

/// The in-process half of the traced run: `Frontend::handle` on the
/// same lines, and a separately timed `Scheduler::run` on the
/// `Frontend::jobs()` snapshot at every status.
#[derive(Debug)]
struct Split {
    submit_us: f64,
    status_ms: f64,
    replay_ms: f64,
    replay_us_per_job: f64,
    replay_share: f64,
    sim_ms: f64,
    self_ms: f64,
}

fn in_process_split(
    lines: &[Request],
    expected: &[String],
    costs: &[RunCost],
    tally: &mut Tally,
    tracer: &mut Tracer,
) -> Split {
    let m = machine();
    let policy = gemmd::policy_by_name(POLICY).expect("edf is a known policy");
    let mut fe = frontend();
    let (mut submit_us, mut status_ms, mut replay_ms, mut trace_len) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let id = tracer.begin("inprocess");
    for ((verb, line), want) in lines.iter().zip(expected) {
        let name = match verb {
            Verb::Submit => "gemmd.frontend.submit",
            Verb::Status => "gemmd.frontend.status",
            Verb::Stats => "gemmd.frontend.stats",
        };
        let (reply, secs) = tracer.span(name, || fe.handle(line, 0.0).0);
        tally.record(reply == *want, || {
            format!("in-process replay of {line} changed: {reply}")
        });
        match verb {
            Verb::Submit => submit_us.push(secs * 1e6),
            Verb::Status => {
                status_ms.push(secs * 1e3);
                let jobs = fe.jobs().to_vec();
                let (_, r) = tracer.span("gemmd.scheduler.replay", || {
                    Scheduler::new(&m, Config::default()).run(&jobs, policy.as_ref())
                });
                replay_ms.push(r * 1e3);
                trace_len.push(jobs.len() as f64);
            }
            Verb::Stats => {}
        }
    }
    tracer.end(id);
    // Simulation inside each replay: the prefix sum of the jobs'
    // measured solo simulation times.
    let mut prefix = 0.0;
    let sim: Vec<f64> = costs
        .iter()
        .map(|c| {
            prefix += c.wall_s * 1e3;
            prefix
        })
        .collect();
    let self_ms: Vec<f64> = replay_ms.iter().zip(&sim).map(|(r, s)| r - s).collect();
    Split {
        submit_us: median(&submit_us),
        status_ms: median(&status_ms),
        replay_ms: median(&replay_ms),
        replay_us_per_job: slope(&trace_len, &replay_ms) * 1e3,
        replay_share: replay_ms.iter().sum::<f64>() / status_ms.iter().sum::<f64>(),
        sim_ms: median(&sim),
        self_ms: median(&self_ms),
    }
}
