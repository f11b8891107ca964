//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints the host context and every workload-specific figure by name
//! with its unit, then, as the last line, one JSON object with
//! `correct`, `attempted`, `failed` and the declared metrics
//! (end-to-end untraced, per-layer traced).  `--bless` rewrites the
//! committed fingerprints of the workload at this seed instead;
//! `--setup-only` times one cold set-up and prints its seconds.

use perfbench::{host, report, Args};

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if args.setup_only {
        match perfbench::setup_once(args.workload, args.seed) {
            Ok(secs) => {
                println!("{secs}");
                return;
            }
            Err(e) => {
                eprintln!("perfbench: {e}");
                std::process::exit(1);
            }
        }
    }
    if args.bless {
        match perfbench::bless(args.workload, args.seed) {
            Ok(n) => {
                println!(
                    "blessed {n} fingerprints of {} at seed {}",
                    args.workload.name(),
                    args.seed
                );
                return;
            }
            Err(e) => {
                eprintln!("perfbench: {e}");
                std::process::exit(1);
            }
        }
    }
    let cold = if args.trace {
        Ok(Vec::new())
    } else {
        perfbench::cold_setups(args.workload, args.seed, perfbench::SETUPS - 1)
    };
    let outcome = match cold.and_then(|cold| perfbench::run(&args, cold)) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    let mut context = host::context();
    context.push(("workload", args.workload.name().to_string()));
    context.push(("seed", args.seed.to_string()));
    context.push(("seconds", args.seconds.to_string()));
    context.push(("trace", u8::from(args.trace).to_string()));
    for (k, v) in &context {
        println!("# {k} = {v}");
    }
    for e in &outcome.errors {
        println!("! FAILED {e}");
    }
    if !outcome.unpinned.is_empty() {
        println!(
            "# fingerprints held to in-run determinism (no committed entry for this seed): {}",
            outcome.unpinned.join(" ")
        );
    }
    println!("error_rate = {} ratio", outcome.error_rate());
    for m in outcome.metrics.iter().chain(&outcome.extra) {
        println!("{} = {} {}", m.name, m.value, m.unit);
    }
    if let Some(tracer) = &outcome.tracer {
        let path = perfbench::trace_path(args.workload, args.seed);
        let mut all = outcome.metrics.clone();
        all.extend(outcome.extra.iter().cloned());
        match tracer.write(&path, &context, &all) {
            Ok(()) => println!("# trace written to {}", path.display()),
            Err(e) => {
                eprintln!("perfbench: writing {}: {e}", path.display());
                std::process::exit(1);
            }
        }
    }
    println!(
        "{}",
        report::result_line(outcome.attempted, outcome.failed, &outcome.metrics)
    );
}
