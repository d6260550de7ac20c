//! `rana-perfbench --workload <infer|compile|fleet> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload, checks its outputs, prints result lines and, last,
//! one JSON object with the run's metrics: the end-to-end metrics when
//! untraced, the per-layer metrics when traced. `--reference` also prints
//! the run's digests in the format of `reference.txt`.

use rana_perfbench::report::{result_line, Checks};
use rana_perfbench::stats::describe;
use rana_perfbench::{
    compile, end_to_end_metrics, fleet, host, infer, per_layer_metrics, reference, Run, WORKLOADS,
};
use std::process::ExitCode;

struct Args {
    workload: String,
    run: Run,
    print_reference: bool,
}

const USAGE: &str = "usage: rana-perfbench --workload <infer|compile|fleet> [--seed <n>] \
                     [--seconds <s>] [--trace <0|1>] [--reference]";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut run = Run { seed: reference::DEFAULT_SEED, seconds: 10.0, traced: false };
    let mut print_reference = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => run.seed = value()?.parse().map_err(|e| format!("bad --seed: {e}"))?,
            "--seconds" => {
                run.seconds = value()?.parse().map_err(|e| format!("bad --seconds: {e}"))?;
                if !(run.seconds.is_finite() && run.seconds > 0.0) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                run.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            "--reference" => print_reference = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    Ok(Args { workload, run, print_reference })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let run = &args.run;
    let calib_mops = host::calib_mops();
    let mut checks = Checks::default();
    let out = match args.workload.as_str() {
        "infer" => infer::run(run, &mut checks),
        "compile" => compile::run(run, &mut checks),
        _ => fleet::run(run, &mut checks),
    };
    let compared = reference::compare(&args.workload, run.seed, &out.digests, &mut checks);
    let (Some(end_rss_mb), Some(rss_mb)) =
        (host::peak_rss_mb(), out.first_unit_rss_mb.or(host::peak_rss_mb()))
    else {
        eprintln!("peak RSS needs /proc/self/status");
        return ExitCode::FAILURE;
    };

    println!(
        "workload {} seed {} ({})",
        args.workload,
        run.seed,
        if run.traced { "traced" } else { "untraced" }
    );
    for line in &out.lines {
        println!("  {line}");
    }
    println!("  set-up: {}", describe(&out.setup_samples, "s"));
    println!("  host.calib_mops: {calib_mops:.1}");
    println!(
        "  peak RSS: {rss_mb:.1} MB after the first unit of work, {end_rss_mb:.1} MB at the end"
    );
    println!("  reference digests compared: {compared}");
    println!(
        "  op_failure_rate: {} ({} of {} verified ops failed)",
        checks.failure_rate(),
        checks.failed(),
        checks.attempted()
    );
    for f in checks.failures() {
        eprintln!("check failed: {f}");
    }
    if args.print_reference {
        print!("{}", reference::lines(&args.workload, run.seed, &out.digests));
    }

    let metrics = if run.traced {
        let path = format!("perfbench/out/spans-{}-{}.jsonl", args.workload, run.seed);
        match out.spans.write_jsonl(std::path::Path::new(&path)) {
            Ok(()) => println!("  spans: {} written to {path}", out.spans.spans().len()),
            Err(e) => eprintln!("could not write {path}: {e}"),
        }
        per_layer_metrics(&out, calib_mops)
    } else {
        println!("  ops: {}, per unit of work: {}", out.ops, describe(&out.op_rates, "1/s"));
        let rates: Vec<String> = out.op_rates.iter().map(|r| format!("{r:.4}")).collect();
        println!("  ops_per_s of each unit: {}", rates.join(" "));
        end_to_end_metrics(&out, rss_mb)
    };
    println!("{}", result_line(&checks, &metrics));
    ExitCode::SUCCESS
}
