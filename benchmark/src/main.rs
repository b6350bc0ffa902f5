//! Whole-system benchmark of the gmlake workspace.
//!
//! ```text
//! benchmark [run] [--workload NAME]... [--seed S] [--trace-seed S] [--trace 0|1]
//!                 [--laps N] [--out FILE] [--seconds N]
//! benchmark selfcheck [--workload NAME]... [--seed S] [--trace-seed S] [--laps N]
//! benchmark compare BASE.json NEW.json
//! ```
//!
//! `run` measures each chosen workload end to end and per layer (only one
//! of the two with `--trace`), prints every metric by name and unit, checks
//! outputs against the oracle and writes one JSON result. See `README.md`.

mod inputs;
mod lap;
mod measure;
mod metrics;
mod oracle;
mod probe;
mod reference;
mod report;
mod spans;
mod stack;
mod stats;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use gmlake_telemetry::json;

use inputs::{Workload, DEFAULT_SEED};
use reference::Reference;
use report::{Host, WorkloadResult};

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    /// Seed of the training traces' size jitter; follows `seed` unless given.
    trace_seed: Option<u64>,
    /// `Some(false)`: end-to-end phase only; `Some(true)`: per-layer only.
    trace: Option<bool>,
    laps: Option<usize>,
    out: PathBuf,
    files: Vec<PathBuf>,
}

impl Args {
    fn trace_seed(&self) -> u64 {
        self.trace_seed.unwrap_or(self.seed)
    }

    fn out_dir(&self) -> &Path {
        self.out.parent().unwrap_or(Path::new("."))
    }
}

fn parse_u64(s: &str) -> Result<u64, String> {
    let parsed = match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => s.parse(),
    };
    parsed.map_err(|e| format!("{s:?} is not a number: {e}"))
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workloads: Vec::new(),
        seed: DEFAULT_SEED,
        trace_seed: None,
        trace: None,
        laps: None,
        out: PathBuf::from("benchmark/out/result.json"),
        files: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let name = value()?;
                let w = Workload::from_name(name)
                    .ok_or_else(|| format!("unknown workload {name:?}"))?;
                parsed.workloads.push(w);
            }
            "--seed" => parsed.seed = parse_u64(value()?)?,
            "--trace-seed" => parsed.trace_seed = Some(parse_u64(value()?)?),
            "--trace" => {
                parsed.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                })
            }
            "--laps" => parsed.laps = Some(parse_u64(value()?)?.max(1) as usize),
            "--out" => parsed.out = PathBuf::from(value()?),
            // Work is fixed, never a time budget: the driver's nominal run
            // length is accepted and not used.
            "--seconds" => {
                parse_u64(value()?)?;
            }
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            file => parsed.files.push(PathBuf::from(file)),
        }
    }
    if parsed.workloads.is_empty() {
        parsed.workloads = Workload::ALL.to_vec();
    }
    Ok(parsed)
}

/// Runs the chosen phases of one workload.
fn measure_workload(
    workload: Workload,
    args: &Args,
    end_to_end: bool,
    per_layer: bool,
) -> Result<WorkloadResult, String> {
    let mut reference = Reference::new();
    let (generated, gen_factor) = reference.around(|| {
        inputs::generate_timed(workload, args.seed, args.trace_seed(), measure::GEN_REPS)
    });
    let (inputs, gen_s) = generated?;
    let plain = args.laps.unwrap_or_else(|| measure::plain_laps(workload));
    let mut result = WorkloadResult {
        name: workload.name(),
        fingerprint: inputs.fingerprint,
        ops: inputs.steady_calls,
        end_to_end: None,
        per_layer: None,
    };
    if end_to_end {
        let (values, verdict) =
            measure::end_to_end(workload, &inputs, gen_s / gen_factor, plain, &mut reference);
        report::print_phase(workload.name(), &values, &verdict, true);
        result.end_to_end = Some((values, verdict));
    }
    if per_layer {
        let spans = args
            .out_dir()
            .join(format!("spans-{}.json", workload.name()));
        let (values, verdict) =
            measure::per_layer(workload, &inputs, gen_s, &spans, &mut reference)?;
        report::print_phase(workload.name(), &values, &verdict, false);
        result.per_layer = Some((values, verdict));
    }
    Ok(result)
}

fn run(args: &Args) -> Result<bool, String> {
    if !args.files.is_empty() {
        return Err(format!("run takes no file arguments, got {:?}", args.files));
    }
    if args.trace.is_some() && args.workloads.len() != 1 {
        return Err("--trace reports one workload: give exactly one --workload".to_owned());
    }
    let (end_to_end, per_layer) = match args.trace {
        None => (true, true),
        Some(trace) => (!trace, trace),
    };
    let host = Host::detect();
    println!(
        "seed {:#x}, trace seed {:#x}, 1 thread of {}, {}, commit {}",
        args.seed,
        args.trace_seed(),
        host.available_parallelism,
        host.rustc,
        host.commit
    );
    let mut results = Vec::new();
    for &workload in &args.workloads {
        results.push(measure_workload(workload, args, end_to_end, per_layer)?);
    }
    let doc = report::document(args.seed, args.trace_seed(), &host, &results);
    let out_dir = args.out_dir();
    std::fs::create_dir_all(out_dir).map_err(|e| format!("creating {}: {e}", out_dir.display()))?;
    std::fs::write(&args.out, report::render(&doc))
        .map_err(|e| format!("writing {}: {e}", args.out.display()))?;
    println!("result written to {}", args.out.display());
    let correct = results.iter().all(WorkloadResult::correct);
    // With `--trace` the last line is the one the driver reads.
    if let (Some(trace), [only]) = (args.trace, results.as_slice()) {
        let line = if trace {
            only.per_layer
                .as_ref()
                .map(|(v, verdict)| report::per_layer_line(v, verdict))
        } else {
            only.end_to_end
                .as_ref()
                .map(|(v, verdict)| report::end_to_end_line(v, verdict))
        };
        println!("{}", line.expect("the chosen phase ran"));
    }
    Ok(correct)
}

/// Every workload's end-to-end phase as two independent sets: exact
/// metrics must agree exactly, host-time medians within their bounds.
fn selfcheck(args: &Args) -> Result<bool, String> {
    let mut ok = true;
    for &workload in &args.workloads {
        let a = measure_workload(workload, args, true, false)?;
        let b = measure_workload(workload, args, true, false)?;
        ok &= a.correct() && b.correct();
        let (a, b) = (a.end_to_end.expect("ran").0, b.end_to_end.expect("ran").0);
        for m in &metrics::END_TO_END {
            let (Some(x), Some(y)) = (a.get(m.name), b.get(m.name)) else {
                println!("selfcheck {:<18} {:<22} MISSING", workload.name(), m.name);
                ok = false;
                continue;
            };
            let gap = (x.median - y.median).abs() / x.median.abs().max(f64::MIN_POSITIVE);
            let agrees = if m.exact {
                x.median == y.median
            } else {
                gap <= m.bound
            };
            ok &= agrees;
            println!(
                "selfcheck {:<18} {:<22} {} [{}..{}] vs {} [{}..{}] gap {gap:.4} bound {} {}",
                workload.name(),
                m.name,
                report::short(x.median),
                report::short(x.q1),
                report::short(x.q3),
                report::short(y.median),
                report::short(y.q1),
                report::short(y.q3),
                if m.exact {
                    "exact".to_owned()
                } else {
                    m.bound.to_string()
                },
                if agrees { "ok" } else { "FAILED" }
            );
        }
    }
    Ok(ok)
}

fn compare(args: &Args) -> Result<bool, String> {
    let [base, new] = args.files.as_slice() else {
        return Err("compare takes two result files".to_owned());
    };
    let read = |path: &PathBuf| {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    };
    let rows = report::compare(&read(base)?, &read(new)?)?;
    report::print_rows(&rows);
    Ok(rows.iter().all(|r| r.verdict != "regressed"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match args.first().map(String::as_str) {
        Some(c @ ("run" | "selfcheck" | "compare")) => (c, &args[1..]),
        _ => ("run", &args[..]),
    };
    let outcome = parse_args(rest).and_then(|args| match command {
        "selfcheck" => selfcheck(&args),
        "compare" => compare(&args),
        _ => run(&args),
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("benchmark: {message}");
            ExitCode::from(2)
        }
    }
}
