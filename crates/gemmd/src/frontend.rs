//! The live front-end: a JSON-line protocol over the deterministic
//! core.
//!
//! `gemmd-serve` (the binary) listens on TCP and bridges wall-clock
//! clients onto the virtual-time scheduler; everything below the
//! socket lives here and is testable without one.  The protocol is one
//! JSON object per line, one reply line per request:
//!
//! ```text
//! → {"verb":"submit","n":16,"priority":1}
//! ← {"ok":true,"id":0,"arrival":0.000,"n":16}
//! → {"verb":"status","id":0}
//! ← {"ok":true,"id":0,"state":"done","start":0.000,"finish":3164.000,"sojourn":3164.000,"batch":0}
//! → {"verb":"stats"}
//! ← {"ok":true,"policy":"edf","jobs":1,"rejected":0,"makespan":3164.000,"utilization":0.0432,"p50":3164.000,"p99":3164.000,"p999":3164.000}
//! → {"verb":"drain"}
//! ← {"ok":true,"draining":true,"jobs":1,"rejected":0,"shed":0}
//! → {"verb":"shutdown"}
//! ← {"ok":true,"bye":true}
//! ```
//!
//! **Overload surface.**  A `drain` flips the front-end into
//! stop-accepting mode: queries keep answering, but every later
//! `submit` gets a structured backpressure reply
//! (`{"ok":false,"error":"draining","backpressure":true}`) instead of
//! an admission — the client knows to go elsewhere rather than time
//! out.  Submissions are also validated before they touch the trace:
//! `n` must be an integer in `1..=MAX_SUBMIT_N`, so a malformed or
//! hostile client cannot wedge the replay loop with a multi-gigabyte
//! GEMM.  The socket loop bounds request lines at [`MAX_LINE`] bytes
//! and drops clients that exceed it (the rest of their stream is
//! mid-line garbage).  A line that is not UTF-8 gets an error reply;
//! a client whose connection fails ends only its own session.
//!
//! Determinism by **replay**: the front-end only accumulates the
//! submitted [`JobSpec`]s (arrival times clamped monotone, so the
//! trace stays sorted no matter when requests land) and re-runs the
//! scheduler from scratch on every `status`/`stats` query.  The reply
//! is a pure function of the submissions so far — ask twice, get the
//! same bytes — and the wall clock only ever influences *arrival
//! stamps*, never results.  JSON is hand-rolled (flat objects, no
//! nesting) because the build is offline and std-only.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpListener;

use mmsim::Machine;

use crate::job::JobSpec;
use crate::policy::policy_by_name;
use crate::report::ServiceReport;
use crate::scheduler::{Config, Scheduler};
use crate::slo::Percentiles;

/// Largest matrix order a `submit` may request.  Replay cost and
/// operand memory are both polynomial in `n`; everything the service
/// benchmarks is far below this.
pub const MAX_SUBMIT_N: usize = 4096;

/// Longest request line (bytes, newline included) the socket loop
/// reads before giving up on the client.
pub const MAX_LINE: u64 = 8 * 1024;

/// The deterministic service core behind the socket.
#[derive(Debug)]
pub struct Frontend {
    machine: Machine,
    config: Config,
    policy: String,
    jobs: Vec<JobSpec>,
    draining: bool,
}

/// Value of a flat JSON field: the raw slice for numbers/booleans, the
/// unquoted content for strings.  Walks the object pair by pair, so a
/// key matches only in key position (`{"tag":"n","n":5}` yields `5` for
/// `n`); `None` when the key is absent or the object is malformed
/// before it.  Good enough for this protocol — values never contain
/// escapes or nesting.
fn field<'a>(obj: &'a str, key: &str) -> Option<&'a str> {
    let mut rest = obj.trim_start().strip_prefix('{')?;
    loop {
        let body = rest.trim_start().strip_prefix('"')?;
        let end = body.find('"')?;
        let (name, after) = (&body[..end], &body[end + 1..]);
        let after = after.trim_start().strip_prefix(':')?.trim_start();
        let (value, tail) = if let Some(s) = after.strip_prefix('"') {
            let end = s.find('"')?;
            (&s[..end], &s[end + 1..])
        } else {
            let end = after.find([',', '}']).unwrap_or(after.len());
            (after[..end].trim(), &after[end..])
        };
        if name == key {
            return Some(value);
        }
        rest = tail.trim_start().strip_prefix(',')?;
    }
}

fn num(obj: &str, key: &str) -> Option<f64> {
    field(obj, key)?.parse().ok()
}

/// An optional integer field, parsed as the integer type itself (never
/// through `f64`, so every bit of a 64-bit seed survives): `Ok(None)`
/// when absent, `Err` when present but not an integer that fits `T`.
fn int<T: std::str::FromStr>(obj: &str, key: &str) -> Result<Option<T>, ()> {
    field(obj, key).map_or(Ok(None), |v| v.parse().map(Some).map_err(drop))
}

fn err(detail: &str) -> String {
    format!("{{\"ok\":false,\"error\":\"{detail}\"}}")
}

impl Frontend {
    /// A front-end over `machine` with a named queue policy (see
    /// [`policy_by_name`]); `None` for an unknown policy name.
    #[must_use]
    pub fn new(machine: Machine, config: Config, policy: &str) -> Option<Self> {
        policy_by_name(policy)?;
        Some(Self {
            machine,
            config,
            policy: policy.to_string(),
            jobs: Vec::new(),
            draining: false,
        })
    }

    /// Whether a `drain` has closed admission.
    #[must_use]
    pub fn draining(&self) -> bool {
        self.draining
    }

    /// Jobs accepted so far (the replayed trace).
    #[must_use]
    pub fn jobs(&self) -> &[JobSpec] {
        &self.jobs
    }

    /// Replay the accepted trace through the scheduler — the single
    /// source of truth every query answers from.
    fn replay(&self) -> Result<ServiceReport, crate::GemmdError> {
        let policy = policy_by_name(&self.policy).expect("validated at construction");
        Scheduler::new(&self.machine, self.config).run(&self.jobs, policy.as_ref())
    }

    /// Handle one request line and say whether the connection should
    /// shut the service down.  `default_at` stamps submissions that
    /// carry no explicit `arrival` — the binary passes mapped
    /// wall-clock time; tests pass virtual time directly.  Arrivals
    /// are clamped monotone against the trace tail so the replayed
    /// workload is always sorted.
    pub fn handle(&mut self, line: &str, default_at: f64) -> (String, bool) {
        let Some(verb) = field(line, "verb") else {
            return (err("missing verb"), false);
        };
        match verb {
            "submit" => (self.submit(line, default_at), false),
            "status" => (self.status(line), false),
            "stats" => (self.stats(), false),
            "drain" => (self.drain(), false),
            "shutdown" => ("{\"ok\":true,\"bye\":true}".to_string(), true),
            other => (err(&format!("unknown verb {other}")), false),
        }
    }

    fn submit(&mut self, line: &str, default_at: f64) -> String {
        if self.draining {
            return "{\"ok\":false,\"error\":\"draining\",\"backpressure\":true}".to_string();
        }
        let Some(n) = int::<usize>(line, "n")
            .ok()
            .flatten()
            .filter(|n| (1..=MAX_SUBMIT_N).contains(n))
        else {
            return err(&format!("submit needs an integer n in 1..={MAX_SUBMIT_N}"));
        };
        let Ok(priority) = int::<u8>(line, "priority") else {
            return err("priority must be an integer in 0..=255");
        };
        let Ok(seed) = int::<u64>(line, "seed") else {
            return err("seed must be an integer in 0..=18446744073709551615");
        };
        let floor = self.jobs.last().map_or(0.0, |j| j.arrival);
        let arrival = num(line, "arrival")
            .unwrap_or(default_at)
            .max(floor)
            .max(0.0);
        let id = self.jobs.len();
        let spec = JobSpec {
            n,
            arrival,
            priority: priority.unwrap_or(0),
            seed: seed.unwrap_or_else(|| detrng::mix(&[id as u64, n as u64])),
            deadline: num(line, "deadline"),
        };
        self.jobs.push(spec);
        format!("{{\"ok\":true,\"id\":{id},\"arrival\":{arrival:.3},\"n\":{n}}}")
    }

    fn status(&self, line: &str) -> String {
        let Ok(Some(id)) = int::<usize>(line, "id") else {
            return err("status needs a non-negative integer id");
        };
        if id >= self.jobs.len() {
            return err(&format!("unknown job {id}"));
        }
        let report = match self.replay() {
            Ok(r) => r,
            Err(e) => return err(&e.to_string()),
        };
        if let Some(r) = report.records.iter().find(|r| r.id == id) {
            format!(
                "{{\"ok\":true,\"id\":{id},\"state\":\"done\",\"start\":{:.3},\"finish\":{:.3},\"sojourn\":{:.3},\"batch\":{}}}",
                r.start,
                r.finish,
                r.sojourn(),
                r.batch,
            )
        } else if let Some(s) = report.shed.iter().find(|s| s.id == id) {
            // The replay shed it under load — a structured outcome the
            // submitter can see, never a silent drop.
            format!(
                "{{\"ok\":true,\"id\":{id},\"state\":\"shed\",\"at\":{:.3}}}",
                s.t
            )
        } else {
            // Accepted but not in the records: the replay rejected it
            // at admission (queue cap).
            format!("{{\"ok\":true,\"id\":{id},\"state\":\"rejected\"}}")
        }
    }

    /// Close admission and answer with the final replayed totals: the
    /// schedule is frozen (queries stay pure), and every later submit
    /// gets a backpressure reply.
    fn drain(&mut self) -> String {
        self.draining = true;
        let report = match self.replay() {
            Ok(r) => r,
            Err(e) => return err(&e.to_string()),
        };
        format!(
            "{{\"ok\":true,\"draining\":true,\"jobs\":{},\"rejected\":{},\"shed\":{}}}",
            report.records.len(),
            report.rejected.len(),
            report.shed.len(),
        )
    }

    fn stats(&self) -> String {
        let report = match self.replay() {
            Ok(r) => r,
            Err(e) => return err(&e.to_string()),
        };
        let mut sojourn = Percentiles::new();
        for r in &report.records {
            sojourn.push(r.sojourn());
        }
        format!(
            "{{\"ok\":true,\"policy\":\"{}\",\"jobs\":{},\"rejected\":{},\"shed\":{},\"makespan\":{:.3},\"utilization\":{:.4},\"p50\":{:.3},\"p99\":{:.3},\"p999\":{:.3}}}",
            report.policy,
            report.records.len(),
            report.rejected.len(),
            report.shed.len(),
            report.makespan,
            report.utilization(),
            sojourn.p50(),
            sojourn.p99(),
            sojourn.p999(),
        )
    }
}

/// Serve the JSON-line protocol on `listener`, one client at a time
/// (requests interleave across reconnects; the trace persists).
/// `now_fn` supplies the default arrival stamp for submissions without
/// one — the binary maps wall-clock elapsed time onto the virtual
/// clock here, keeping the core free of real time.  Request lines are
/// bounded at [`MAX_LINE`] bytes; a client that exceeds the bound gets
/// one structured error reply and is disconnected (the rest of its
/// stream is the tail of the oversized line).  A client whose
/// connection fails — a reset, a reply it never read — loses only its
/// own session.  Returns after a `shutdown` verb.
///
/// Each accepted stream has Nagle's algorithm off, and each reply goes
/// out as one write, so a client never waits on a delayed ACK for the
/// tail of a reply.
///
/// # Errors
/// Propagates errors of the listener itself; a client's I/O errors end
/// only that client's session.
pub fn serve<F: FnMut() -> f64>(
    listener: &TcpListener,
    frontend: &mut Frontend,
    mut now_fn: F,
) -> std::io::Result<()> {
    for stream in listener.incoming() {
        let stream = stream?;
        // A client already gone before its session starts is dropped.
        let Ok(reader) = stream.set_nodelay(true).and_then(|()| stream.try_clone()) else {
            continue;
        };
        if session(BufReader::new(reader), stream, frontend, &mut now_fn) {
            return Ok(());
        }
    }
    Ok(())
}

/// One client's requests, answered until it hangs up, overruns
/// [`MAX_LINE`], fails a read or a write, or asks for `shutdown`; says
/// whether it was the last.  A line that is not UTF-8 gets one
/// structured error reply and the session goes on.
fn session<R: BufRead, W: Write, F: FnMut() -> f64>(
    mut reader: R,
    mut writer: W,
    frontend: &mut Frontend,
    now_fn: &mut F,
) -> bool {
    let mut line = Vec::new();
    loop {
        line.clear();
        match reader.by_ref().take(MAX_LINE).read_until(b'\n', &mut line) {
            // Hung up, or the connection broke: wait for the next client.
            Ok(0) | Err(_) => return false,
            Ok(_) => {}
        }
        if line.len() as u64 >= MAX_LINE && !line.ends_with(b"\n") {
            let _ = reply_line(&mut writer, err("request line too long"));
            return false; // drop the client; its stream is mid-line
        }
        let (reply, shutdown) = match std::str::from_utf8(&line) {
            Ok(text) if text.trim().is_empty() => continue,
            Ok(text) => frontend.handle(text.trim(), now_fn()),
            Err(_) => (err("request is not UTF-8"), false),
        };
        // A shutdown holds even if its reply cannot be delivered.
        if reply_line(&mut writer, reply).is_err() || shutdown {
            return shutdown;
        }
    }
}

/// Send `reply` and its newline in a single write.
fn reply_line<W: Write>(writer: &mut W, mut reply: String) -> std::io::Result<()> {
    reply.push('\n');
    writer.write_all(reply.as_bytes())?;
    writer.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmsim::{CostModel, Topology};

    fn frontend(policy: &str) -> Frontend {
        let machine = Machine::new(Topology::hypercube(4), CostModel::ncube2());
        Frontend::new(machine, Config::default(), policy).unwrap()
    }

    #[test]
    fn unknown_policies_are_refused_at_construction() {
        let machine = Machine::new(Topology::hypercube(2), CostModel::ncube2());
        assert!(Frontend::new(machine, Config::default(), "lifo").is_none());
    }

    #[test]
    fn submit_status_stats_round_trip() {
        let mut fe = frontend("fifo");
        let (reply, down) = fe.handle("{\"verb\":\"submit\",\"n\":16}", 0.0);
        assert!(!down);
        assert!(
            reply.contains("\"ok\":true") && reply.contains("\"id\":0"),
            "{reply}"
        );
        let (reply, _) = fe.handle("{\"verb\":\"submit\",\"n\":16,\"arrival\":50.0}", 0.0);
        assert!(reply.contains("\"id\":1"), "{reply}");

        let (status, _) = fe.handle("{\"verb\":\"status\",\"id\":0}", 0.0);
        assert!(status.contains("\"state\":\"done\""), "{status}");
        assert!(status.contains("\"sojourn\":"), "{status}");

        let (stats, _) = fe.handle("{\"verb\":\"stats\"}", 0.0);
        assert!(stats.contains("\"jobs\":2"), "{stats}");
        assert!(stats.contains("\"p99\":"), "{stats}");
        assert!(stats.contains("\"policy\":\"fifo\""), "{stats}");
    }

    #[test]
    fn replies_are_a_pure_function_of_the_submissions() {
        let drive = |fe: &mut Frontend| {
            for i in 0..3 {
                let (_, _) = fe.handle(
                    &format!("{{\"verb\":\"submit\",\"n\":8,\"arrival\":{}.0}}", i * 10),
                    0.0,
                );
            }
            let (a, _) = fe.handle("{\"verb\":\"stats\"}", 0.0);
            let (b, _) = fe.handle("{\"verb\":\"stats\"}", 0.0);
            assert_eq!(a, b, "replay must be idempotent");
            a
        };
        assert_eq!(
            drive(&mut frontend("edf")),
            drive(&mut frontend("edf")),
            "two front-ends fed the same lines must agree byte-for-byte"
        );
    }

    #[test]
    fn arrivals_are_clamped_monotone() {
        let mut fe = frontend("fifo");
        let _ = fe.handle("{\"verb\":\"submit\",\"n\":8,\"arrival\":100.0}", 0.0);
        // An out-of-order stamp (or a negative one) snaps to the tail.
        let (reply, _) = fe.handle("{\"verb\":\"submit\",\"n\":8,\"arrival\":5.0}", 0.0);
        assert!(reply.contains("\"arrival\":100.000"), "{reply}");
        assert_eq!(fe.jobs()[1].arrival, 100.0);
        // No stamp at all: the supplied default applies (then clamps).
        let (reply, _) = fe.handle("{\"verb\":\"submit\",\"n\":8}", 250.0);
        assert!(reply.contains("\"arrival\":250.000"), "{reply}");
    }

    #[test]
    fn malformed_requests_are_structured_errors() {
        let mut fe = frontend("fifo");
        let (reply, down) = fe.handle("{\"n\":16}", 0.0);
        assert!(reply.contains("\"ok\":false") && !down, "{reply}");
        let (reply, _) = fe.handle("{\"verb\":\"submit\"}", 0.0);
        assert!(reply.contains("integer n in 1..="), "{reply}");
        let (reply, _) = fe.handle("{\"verb\":\"status\",\"id\":9}", 0.0);
        assert!(reply.contains("unknown job 9"), "{reply}");
        let (reply, _) = fe.handle("{\"verb\":\"dance\"}", 0.0);
        assert!(reply.contains("unknown verb dance"), "{reply}");
        // Not valid JSON at all: still one structured reply, no panic.
        let (reply, down) = fe.handle("submit n=16 please", 0.0);
        assert!(reply.contains("\"ok\":false") && !down, "{reply}");
        // Wrong field type: a string where a number belongs.
        let (reply, _) = fe.handle("{\"verb\":\"submit\",\"n\":\"big\"}", 0.0);
        assert!(reply.contains("integer n in 1..="), "{reply}");
        let (reply, _) = fe.handle("{\"verb\":\"status\",\"id\":\"zero\"}", 0.0);
        assert!(reply.contains("\"ok\":false"), "{reply}");
        // Nothing malformed touched the trace.
        assert!(fe.jobs().is_empty());
    }

    #[test]
    fn out_of_range_dims_are_refused_before_the_trace() {
        let mut fe = frontend("fifo");
        for bad in [
            "{\"verb\":\"submit\",\"n\":0}",
            "{\"verb\":\"submit\",\"n\":-8}",
            "{\"verb\":\"submit\",\"n\":16.5}",
            "{\"verb\":\"submit\",\"n\":1000000}",
            "{\"verb\":\"submit\",\"n\":1e300}",
        ] {
            let (reply, down) = fe.handle(bad, 0.0);
            assert!(
                reply.contains("\"ok\":false") && reply.contains("integer n in 1..=") && !down,
                "{bad} -> {reply}"
            );
        }
        assert!(fe.jobs().is_empty(), "rejected submits never enter replay");
        // The boundary itself is accepted.
        let (reply, _) = fe.handle("{\"verb\":\"submit\",\"n\":4096}", 0.0);
        assert!(reply.contains("\"ok\":true"), "{reply}");
    }

    #[test]
    fn drain_freezes_admission_with_backpressure() {
        let mut fe = frontend("edf");
        let _ = fe.handle("{\"verb\":\"submit\",\"n\":16}", 0.0);
        let (reply, down) = fe.handle("{\"verb\":\"drain\"}", 0.0);
        assert!(!down, "drain is not shutdown");
        assert!(
            reply.contains("\"draining\":true") && reply.contains("\"jobs\":1"),
            "{reply}"
        );
        assert!(fe.draining());
        // Later submits bounce with a structured backpressure reply...
        let (reply, down) = fe.handle("{\"verb\":\"submit\",\"n\":8}", 0.0);
        assert_eq!(
            reply, "{\"ok\":false,\"error\":\"draining\",\"backpressure\":true}",
            "{reply}"
        );
        assert!(!down);
        assert_eq!(fe.jobs().len(), 1, "bounced submits never enter the trace");
        // ...while queries keep answering, pure as ever.
        let (a, _) = fe.handle("{\"verb\":\"stats\"}", 0.0);
        let (b, _) = fe.handle("{\"verb\":\"stats\"}", 0.0);
        assert_eq!(a, b);
        assert!(a.contains("\"jobs\":1"), "{a}");
        let (status, _) = fe.handle("{\"verb\":\"status\",\"id\":0}", 0.0);
        assert!(status.contains("\"state\":\"done\""), "{status}");
    }

    #[test]
    fn shed_jobs_surface_in_status_and_stats() {
        // Whole-machine sizing with a one-slot queue and shedding on:
        // job 0 holds the machine, job 1 queues, job 2 (same priority,
        // younger) sheds itself at arrival.
        let machine = Machine::new(Topology::hypercube(4), CostModel::ncube2());
        let config = Config {
            sizing: crate::sizing::SizingMode::WholeMachine,
            queue_cap: 1,
            shed: true,
            ..Config::default()
        };
        let mut fe = Frontend::new(machine, config, "fifo").unwrap();
        for at in 0..3 {
            let (reply, _) = fe.handle(
                &format!("{{\"verb\":\"submit\",\"n\":16,\"arrival\":{at}.0}}"),
                0.0,
            );
            assert!(reply.contains("\"ok\":true"), "{reply}");
        }
        let (stats, _) = fe.handle("{\"verb\":\"stats\"}", 0.0);
        assert!(stats.contains("\"shed\":1"), "{stats}");
        assert!(stats.contains("\"rejected\":0"), "{stats}");
        let (status, _) = fe.handle("{\"verb\":\"status\",\"id\":2}", 0.0);
        assert!(
            status.contains("\"state\":\"shed\"") && status.contains("\"at\":2.000"),
            "{status}"
        );
    }

    #[test]
    fn replay_stays_pure_under_interleaved_submits_and_queries() {
        // Queries between submissions must not perturb the trace: the
        // stats after [submit, stats, submit, status, submit] equal
        // the stats after three bare submits.
        let submit = |fe: &mut Frontend, i: usize| {
            let (reply, _) = fe.handle(
                &format!("{{\"verb\":\"submit\",\"n\":8,\"arrival\":{}.0}}", i * 10),
                0.0,
            );
            assert!(reply.contains("\"ok\":true"), "{reply}");
        };
        let mut noisy = frontend("edf");
        submit(&mut noisy, 0);
        let _ = noisy.handle("{\"verb\":\"stats\"}", 0.0);
        submit(&mut noisy, 1);
        let _ = noisy.handle("{\"verb\":\"status\",\"id\":0}", 0.0);
        submit(&mut noisy, 2);

        let mut quiet = frontend("edf");
        for i in 0..3 {
            submit(&mut quiet, i);
        }
        let (a, _) = noisy.handle("{\"verb\":\"stats\"}", 0.0);
        let (b, _) = quiet.handle("{\"verb\":\"stats\"}", 0.0);
        assert_eq!(a, b, "queries must not perturb the replayed schedule");
    }

    #[test]
    fn shutdown_flags_the_loop() {
        let mut fe = frontend("fifo");
        let (reply, down) = fe.handle("{\"verb\":\"shutdown\"}", 0.0);
        assert!(down);
        assert!(reply.contains("\"bye\":true"));
    }

    #[test]
    fn keys_match_only_in_key_position() {
        let mut fe = frontend("fifo");
        // "n" appears first as a value; the key after it is the one.
        let (reply, _) = fe.handle("{\"verb\":\"submit\",\"tag\":\"n\",\"n\":5}", 0.0);
        assert!(reply.contains("\"ok\":true"), "{reply}");
        assert_eq!(fe.jobs()[0].n, 5);
        let (reply, _) = fe.handle("{\"tag\":\"verb\",\"verb\":\"stats\"}", 0.0);
        assert!(reply.contains("\"jobs\":1"), "{reply}");
    }

    #[test]
    fn out_of_range_priorities_are_refused_not_saturated() {
        let mut fe = frontend("fifo");
        for bad in ["300", "256", "-1", "1.5", "\"high\""] {
            let (reply, _) = fe.handle(
                &format!("{{\"verb\":\"submit\",\"n\":8,\"priority\":{bad}}}"),
                0.0,
            );
            assert!(
                reply.contains("\"ok\":false") && reply.contains("priority"),
                "priority {bad} -> {reply}"
            );
        }
        assert!(fe.jobs().is_empty());
        let (reply, _) = fe.handle("{\"verb\":\"submit\",\"n\":8,\"priority\":255}", 0.0);
        assert!(reply.contains("\"ok\":true"), "{reply}");
        assert_eq!(fe.jobs()[0].priority, 255);
    }

    #[test]
    fn negative_or_fractional_ids_are_refused() {
        let mut fe = frontend("fifo");
        let _ = fe.handle("{\"verb\":\"submit\",\"n\":8}", 0.0);
        // Once cast through f64, -1 and 0.5 both answered for job 0.
        for bad in ["-1", "0.5", "1e0"] {
            let (reply, _) = fe.handle(&format!("{{\"verb\":\"status\",\"id\":{bad}}}"), 0.0);
            assert!(
                reply.contains("\"ok\":false") && !reply.contains("\"state\""),
                "id {bad} -> {reply}"
            );
        }
        let (reply, _) = fe.handle("{\"verb\":\"status\",\"id\":0}", 0.0);
        assert!(reply.contains("\"state\":\"done\""), "{reply}");
    }

    #[test]
    fn seeds_above_two_to_the_53_keep_every_bit() {
        let mut fe = frontend("fifo");
        for seed in [(1u64 << 53) + 1, u64::MAX] {
            let (reply, _) = fe.handle(
                &format!("{{\"verb\":\"submit\",\"n\":8,\"seed\":{seed}}}"),
                0.0,
            );
            assert!(reply.contains("\"ok\":true"), "{reply}");
            assert_eq!(fe.jobs().last().unwrap().seed, seed);
        }
        // One past u64::MAX does not fit, and a negative seed is no seed.
        for bad in ["18446744073709551616", "-1"] {
            let (reply, _) = fe.handle(
                &format!("{{\"verb\":\"submit\",\"n\":8,\"seed\":{bad}}}"),
                0.0,
            );
            assert!(reply.contains("\"ok\":false"), "seed {bad} -> {reply}");
        }
        assert_eq!(fe.jobs().len(), 2);
    }

    /// A writer that records each `write` call separately.
    #[derive(Default)]
    struct CountingWriter {
        writes: Vec<Vec<u8>>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes.push(buf.to_vec());
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn every_reply_is_one_write() {
        let mut fe = frontend("fifo");
        let input = "{\"verb\":\"submit\",\"n\":8}\n\n{\"verb\":\"status\",\"id\":0}\n\
                     {\"verb\":\"stats\"}\n{\"verb\":\"shutdown\"}\n{\"verb\":\"stats\"}\n";
        let mut out = CountingWriter::default();
        let last = session(input.as_bytes(), &mut out, &mut fe, &mut || 0.0);
        assert!(last, "shutdown ends the service");
        // The blank line gets no reply; nothing after shutdown is read.
        assert_eq!(out.writes.len(), 4);
        for w in &out.writes {
            assert!(w.ends_with(b"\n"), "{w:?}");
            assert_eq!(w.iter().filter(|&&b| b == b'\n').count(), 1, "{w:?}");
        }
    }

    #[test]
    fn an_overlong_line_gets_one_write_and_a_hang_up() {
        let mut fe = frontend("fifo");
        let long = format!("{{\"verb\":\"{}\"}}", "x".repeat(MAX_LINE as usize));
        let input = format!("{{\"verb\":\"stats\"}}\n{long}\n{{\"verb\":\"shutdown\"}}\n");
        let mut out = CountingWriter::default();
        let last = session(input.as_bytes(), &mut out, &mut fe, &mut || 0.0);
        assert!(!last, "the client is dropped, the service stays up");
        assert_eq!(out.writes.len(), 2);
        assert_eq!(
            out.writes[1],
            b"{\"ok\":false,\"error\":\"request line too long\"}\n".to_vec()
        );
    }

    #[test]
    fn a_non_utf8_line_gets_one_error_and_the_session_goes_on() {
        let mut fe = frontend("fifo");
        let input: &[u8] = b"\xff\xfe{\"verb\":\"stats\"}\n{\"verb\":\"stats\"}\n";
        let mut out = CountingWriter::default();
        assert!(!session(input, &mut out, &mut fe, &mut || 0.0));
        assert_eq!(out.writes.len(), 2);
        assert_eq!(
            out.writes[0],
            b"{\"ok\":false,\"error\":\"request is not UTF-8\"}\n".to_vec()
        );
        assert!(out.writes[1].starts_with(b"{\"ok\":true"));
    }

    /// A reader or writer whose connection was reset by the peer.
    struct Reset;

    impl Read for Reset {
        fn read(&mut self, _: &mut [u8]) -> std::io::Result<usize> {
            Err(std::io::ErrorKind::ConnectionReset.into())
        }
    }

    impl Write for Reset {
        fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
            Err(std::io::ErrorKind::ConnectionReset.into())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_read_error_ends_only_the_session() {
        let mut fe = frontend("fifo");
        let input = BufReader::new(b"{\"verb\":\"submit\",\"n\":8}\n".chain(Reset));
        let mut out = CountingWriter::default();
        assert!(!session(input, &mut out, &mut fe, &mut || 0.0));
        assert_eq!(
            out.writes.len(),
            1,
            "the request before the reset is answered"
        );
        assert_eq!(fe.jobs().len(), 1);
    }

    #[test]
    fn a_write_error_ends_only_the_session() {
        let mut fe = frontend("fifo");
        let input = "{\"verb\":\"submit\",\"n\":8}\n{\"verb\":\"submit\",\"n\":8}\n";
        assert!(!session(input.as_bytes(), Reset, &mut fe, &mut || 0.0));
        assert_eq!(fe.jobs().len(), 1, "nothing is read after the failed reply");
    }

    /// Replies `session` owes `input`, and whether it ends in a
    /// shutdown: one per non-blank line, stopping at the end of the
    /// stream, a `shutdown`, or a line over [`MAX_LINE`] (which gets
    /// one reply of its own).
    fn owed_replies(mut input: &[u8]) -> (usize, bool) {
        let mut owed = 0;
        while !input.is_empty() {
            let window = &input[..input.len().min(MAX_LINE as usize)];
            let len = window
                .iter()
                .position(|&b| b == b'\n')
                .map_or(window.len(), |i| i + 1);
            let (line, rest) = input.split_at(len);
            input = rest;
            if len as u64 >= MAX_LINE && !line.ends_with(b"\n") {
                return (owed + 1, false);
            }
            match std::str::from_utf8(line) {
                Ok(text) if text.trim().is_empty() => {}
                Ok(text) => {
                    owed += 1;
                    if field(text.trim(), "verb") == Some("shutdown") {
                        return (owed, true);
                    }
                }
                Err(_) => owed += 1,
            }
        }
        (owed, false)
    }

    /// Pieces the fuzzed streams are built from besides raw bytes and
    /// a rare `shutdown`: line breaks, whole and broken requests, stray
    /// UTF-8 fragments, and a run long enough that two in one line
    /// overrun MAX_LINE.
    const PIECES: &[&[u8]] = &[
        b"\n",
        b"\r\n",
        b"   ",
        b"{\"verb\":\"stats\"}\n",
        b"{\"verb\":\"submit\",\"n\":8}\n",
        b"{\"verb\":\"status\",\"id\":0}",
        b"{\"verb\":\"drain\"}",
        b"{\"verb\":",
        b"\xc3",
        b"\xe2\x82\xac",
        &[b'x'; 5000],
    ];

    mod fuzz {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// Arbitrary bytes through a whole session: no panic, and
            /// exactly the replies `owed_replies` counts, each one line.
            #[test]
            fn arbitrary_streams_get_one_reply_line_per_request(
                picks in proptest::collection::vec(0u32..512, 0..160),
            ) {
                let input: Vec<u8> = picks
                    .iter()
                    .flat_map(|&k| match k {
                        0..=255 => vec![k as u8],
                        511 => b"{\"verb\":\"shutdown\"}\n".to_vec(),
                        _ => PIECES[k as usize % PIECES.len()].to_vec(),
                    })
                    .collect();
                let mut fe = frontend("fifo");
                let mut out = CountingWriter::default();
                let last = session(input.as_slice(), &mut out, &mut fe, &mut || 0.0);
                let (owed, shutdown) = owed_replies(&input);
                prop_assert_eq!(out.writes.len(), owed);
                prop_assert_eq!(last, shutdown);
                for w in &out.writes {
                    prop_assert!(w.starts_with(b"{\"ok\":") && w.ends_with(b"\n"), "{:?}", w);
                    prop_assert_eq!(w.iter().filter(|&&b| b == b'\n').count(), 1);
                }
            }
        }
    }

    #[test]
    fn deadlines_reach_the_scheduler() {
        let mut fe = frontend("edf");
        let _ = fe.handle("{\"verb\":\"submit\",\"n\":16,\"deadline\":1.0}", 0.0);
        assert_eq!(fe.jobs()[0].deadline, Some(1.0));
        let (stats, _) = fe.handle("{\"verb\":\"stats\"}", 0.0);
        assert!(stats.contains("\"jobs\":1"), "{stats}");
    }
}
