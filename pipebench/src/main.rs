//! Pipeline benchmark for the SimRank workspace.
//!
//! ```text
//! pipebench --workload <allpairs|index-serve> --seed <n> --seconds <s> --trace <0|1>
//! pipebench --scaling [--seed <n>]
//! ```
//!
//! A gated run prints its metrics one per line, then, as the last line
//! of standard output, one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! With `--trace 0` the metrics are the end-to-end ones; with
//! `--trace 1` they are the per-layer ones, derived from spans written
//! to `.pipebench/spans-<workload>-s<seed>.jsonl`. Any failed operation
//! or check makes the exit code non-zero.

mod heap;
mod pipeline;
mod scaling;
mod trace;

use pipeline::{Files, Run, Workload, POOL};
use std::path::Path;
use std::process::ExitCode;

#[global_allocator]
static ALLOC: heap::Counting = heap::Counting;

/// Work directory for edge lists, persisted artifacts and span files,
/// relative to where the benchmark runs.
const WORK_DIR: &str = ".pipebench";

const USAGE: &str = "usage: pipebench --workload <allpairs|index-serve> \
--seed <n> --seconds <s> --trace <0|1>\n       pipebench --scaling [--seed <n>]";

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    scaling: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
        scaling: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--scaling" {
            args.scaling = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => {
                args.workload =
                    Some(Workload::parse(&value).ok_or_else(|| bad(&"unknown workload"))?)
            }
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| bad(&e))?;
                if !(args.seconds.is_finite() && args.seconds > 0.0) {
                    return Err(bad(&"must be a positive number"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload.is_none() && !args.scaling {
        return Err("--workload or --scaling is required".into());
    }
    Ok(args)
}

/// Host, `nproc`, pool width and seed: printed beside every result.
fn environment(seed: u64) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let host = std::env::var("HOSTNAME").unwrap_or_else(|_| "unknown".into());
    format!(
        "host={host} arch={} os={} nproc={nproc} pool={POOL} seed={seed}",
        std::env::consts::ARCH,
        std::env::consts::OS
    )
}

fn json_metrics(metrics: &[(&str, &str, f64)]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|&(name, unit, value)| {
            let value = if value.is_finite() { value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("pipebench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let dir = Path::new(WORK_DIR);
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("pipebench: cannot create {WORK_DIR}: {e}");
        return ExitCode::FAILURE;
    }
    println!("# {}", environment(args.seed));
    if args.scaling {
        return match scaling::run(dir, args.seed) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("pipebench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let workload = args.workload.expect("checked by parse_args");
    println!(
        "# workload={} trace={}",
        workload.name(),
        u8::from(args.trace)
    );

    let mut run = Run::new(args.trace);
    let files = Files::new(dir, workload, args.seed);
    let outcome = pipeline::execute(&mut run, workload, args.seed, args.seconds, &files);
    files.remove();
    if let Err(e) = outcome {
        if run.ledger.failures.last() != Some(&e) {
            run.ledger.attempted += 1;
            run.ledger.fail(e);
        }
    }

    let end_to_end = run.end_to_end();
    let label = if args.trace { "traced " } else { "" };
    for (name, unit, value) in &end_to_end {
        println!("{label}{name} = {value} {unit}");
    }
    if !args.trace {
        for (name, unit, value) in run.ungated() {
            println!("{name} = {value} {unit} (not gated)");
        }
    }
    let metrics = if args.trace {
        let per_layer = run.per_layer();
        for (name, unit, value) in &per_layer {
            println!("{name} = {value} {unit}");
        }
        let spans = dir.join(format!("spans-{}-s{}.jsonl", workload.name(), args.seed));
        match run.tracer.write_jsonl(&spans) {
            Ok(()) => println!(
                "# {} spans written to {}",
                run.tracer.span_count(),
                spans.display()
            ),
            Err(e) => eprintln!("pipebench: cannot write {}: {e}", spans.display()),
        }
        json_metrics(&per_layer)
    } else {
        json_metrics(&end_to_end)
    };
    if let Some((vs_cold, vs_oracle, bound)) = pipeline::index_check_gaps(&run) {
        println!("# index gaps: vs cold build {vs_cold:e}, vs psum oracle {vs_oracle:e} (bound {bound:e})");
    }
    for failure in &run.ledger.failures {
        eprintln!("pipebench: {failure}");
    }
    let correct = run.ledger.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        run.ledger.attempted, run.ledger.failed
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
