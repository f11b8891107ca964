//! Tests of the benchmark itself: declared metrics, seeds, and the
//! gemmd socket path against the in-process front-end.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use perfbench::gemmd_poll::{self, Client, Server};
use perfbench::report::valid_name;
use perfbench::{sim, Args, Workload, END_TO_END, PER_LAYER};

fn args(w: Workload, seed: u64, trace: bool) -> Args {
    Args {
        workload: w,
        seed,
        seconds: 0.0,
        trace,
        bless: false,
        setup_only: false,
    }
}

/// A seed no fingerprint was blessed at: fault-free ops must match
/// their wildcard entries, lossy ops must stay deterministic.
const HELD_OUT: u64 = 7;

#[test]
fn metric_names_are_well_formed_and_match_benchmark_json() {
    let json = std::fs::read_to_string(perfbench::bench_dir().join("../BENCHMARK.json"))
        .expect("BENCHMARK.json beside the benchmark directory");
    for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
        assert!(valid_name(name), "{name}");
        let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    let workloads =
        &json[json.find("\"workloads\"").unwrap()..json.find("\"end_to_end\"").unwrap()];
    let declared: Vec<&str> = workloads
        .split("{\"name\": \"")
        .skip(1)
        .map(|s| &s[..s.find('"').unwrap()])
        .collect();
    assert!(declared.len() >= 2, "{declared:?}");
    for name in declared {
        assert!(Workload::parse(name).is_some(), "unknown workload {name}");
    }
    assert_eq!(
        json.matches("\"unit\"").count(),
        END_TO_END.len() + PER_LAYER.len(),
        "BENCHMARK.json declares a metric the benchmark does not report"
    );
    assert!(!valid_name("bad name") && !valid_name(".x") && !valid_name(""));
}

fn assert_declared(out: &perfbench::Outcome, declared: &[(&str, &str)], positive: bool) {
    let got: Vec<(&str, &str)> = out
        .metrics
        .iter()
        .map(|m| (m.name.as_str(), m.unit))
        .collect();
    assert_eq!(got, declared);
    for m in &out.metrics {
        assert!(m.value.is_finite(), "{} = {}", m.name, m.value);
        if positive {
            assert!(m.value > 0.0, "{} = {}", m.name, m.value);
        }
    }
    for m in &out.extra {
        assert!(valid_name(&m.name), "{}", m.name);
    }
}

/// Every workload reports every declared end-to-end metric (all
/// positive) at a held-out seed with no failed op, and every declared
/// per-layer metric from its traced pass.
fn emits_everything(w: Workload) {
    let out = perfbench::run(&args(w, HELD_OUT, false), Vec::new()).expect("untraced run");
    assert_declared(&out, &END_TO_END, true);
    assert!(out.attempted > 0);
    assert_eq!(out.failed, 0, "{:?}", out.errors);
    assert_eq!(out.error_rate(), 0.0);

    let out = perfbench::run(&args(w, 1, true), Vec::new()).expect("traced run");
    assert_declared(&out, &PER_LAYER, false);
    assert_eq!(out.failed, 0, "{:?}", out.errors);
    assert!(
        out.unpinned.is_empty(),
        "seed 1 is blessed: {:?}",
        out.unpinned
    );
    let tracer = out.tracer.expect("a traced run keeps its spans");
    assert!(tracer.spans().iter().any(|s| s.name == "pass"));
}

#[test]
fn paper_sweep_emits_every_declared_metric() {
    emits_everything(Workload::PaperSweep);
}

#[test]
fn dense_bign_emits_every_declared_metric() {
    emits_everything(Workload::DenseBign);
}

#[test]
fn massive_p_emits_every_declared_metric() {
    emits_everything(Workload::MassiveP);
}

#[test]
fn gemmd_poll_emits_every_declared_metric() {
    emits_everything(Workload::GemmdPoll);
}

#[test]
fn same_seed_gives_identical_fingerprints() {
    for w in [Workload::PaperSweep, Workload::MassiveP] {
        assert_eq!(sim::fingerprints(w, 3), sim::fingerprints(w, 3), "{w:?}");
    }
}

#[test]
fn a_different_seed_changes_the_inputs_but_not_the_work() {
    for w in [Workload::PaperSweep, Workload::DenseBign] {
        let (a, b) = (sim::prepare(w, 1), sim::prepare(w, 2));
        let keys = |p: &sim::Prepared| p.ops.iter().map(|o| o.key.clone()).collect::<Vec<_>>();
        assert_eq!(keys(&a), keys(&b));
        for (n, pair) in &a.operands {
            assert_ne!(pair, &b.operands[n], "{w:?} n = {n}");
        }
    }
    let (a, b) = (gemmd_poll::job_stream(1), gemmd_poll::job_stream(2));
    assert_ne!(a, b);
    let sizes = |s: &[gemmd_poll::Job]| {
        let mut v: Vec<usize> = s.iter().map(|j| j.n).collect();
        v.sort_unstable();
        v
    };
    assert_eq!(sizes(&a), sizes(&b), "the size multiset is fixed");
    assert_eq!(a.len(), gemmd_poll::JOBS);
}

#[test]
fn gemmd_socket_replies_equal_in_process_replies() {
    let lines = gemmd_poll::requests(&gemmd_poll::job_stream(HELD_OUT));
    let expected = gemmd_poll::in_process(&lines);
    let server = Server::start().expect("bind loopback");
    let mut client = Client::connect(server.addr).expect("connect");
    for ((_, line), want) in lines.iter().zip(&expected) {
        assert_eq!(&client.request(line).expect("reply"), want, "{line}");
    }
    client.end_session().expect("end session");
    // The next session starts from a fresh front-end: the first status
    // of the stream again answers as in-process.
    let mut again = Client::connect(server.addr).expect("reconnect");
    assert_eq!(again.request(&lines[0].1).unwrap(), expected[0]);
    assert_eq!(again.request(&lines[1].1).unwrap(), expected[1]);
    again.end_session().expect("end session");
    server.stop().expect("server stops cleanly");
    assert!(expected.iter().all(|r| r.starts_with("{\"ok\":true")));
    assert!(
        expected
            .iter()
            .filter(|r| r.contains("\"state\""))
            .all(|r| r.contains("\"state\":\"done\"")),
        "every job of the stream completes"
    );
}

#[test]
fn arguments_are_parsed_strictly() {
    let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
    let a = Args::parse(&argv("--workload massive-p --seed 9 --seconds 3 --trace 1")).unwrap();
    assert_eq!(
        (a.workload, a.seed, a.seconds, a.trace),
        (Workload::MassiveP, 9, 3.0, true)
    );
    let a = Args::parse(&argv("--setup-only --workload gemmd-poll --seed 4")).unwrap();
    assert!(a.setup_only && !a.bless && a.seed == 4);
    for bad in [
        "--workload nope",
        "--workload massive-p --trace 2",
        "--workload massive-p --seed -1",
        "--workload massive-p --seconds",
        "--workload massive-p --frobnicate 1",
        "--seed 1",
    ] {
        assert!(Args::parse(&argv(bad)).is_err(), "{bad}");
    }
}

#[test]
fn the_result_line_has_exactly_the_four_keys() {
    let m = [perfbench::report::Metric::new("setup_s", "s", 0.8127)];
    assert_eq!(
        perfbench::report::result_line(1000, 0, &m),
        "{\"correct\": true, \"attempted\": 1000, \"failed\": 0, \"metrics\": \
         {\"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}}}"
    );
    assert!(perfbench::report::result_line(10, 1, &m).starts_with("{\"correct\": false"));
}

/// The program as the benchmark command runs it: every declared metric
/// on the last line, `setup_s` the median of cold set-ups timed in
/// `--setup-only` processes, each of which prints only its seconds.
#[test]
fn the_program_prints_a_result_line_with_cold_set_ups() {
    let exe = env!("CARGO_BIN_EXE_perfbench");
    let run = |extra: &[&str]| {
        let out = std::process::Command::new(exe)
            .args(["--workload", "gemmd-poll", "--seed", "5"])
            .args(extra)
            .output()
            .expect("run the program");
        assert!(out.status.success(), "{out:?}");
        String::from_utf8(out.stdout).unwrap()
    };
    let once = run(&["--setup-only"]);
    assert!(once.trim().parse::<f64>().unwrap() > 0.0, "{once}");
    let full = run(&["--seconds", "0", "--trace", "0"]);
    let last = full.lines().last().unwrap();
    assert!(last.starts_with("{\"correct\": true"), "{last}");
    for (name, unit) in END_TO_END {
        let entry = format!("\"{name}\": {{\"value\": ");
        assert!(last.contains(&entry), "{name} missing: {last}");
        assert!(full.contains(&format!("{name} = ")) && last.contains(unit));
    }
}
