//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! [--mmflow <path>]`: runs one workload and prints its result as the
//! last line of standard output. Exits non-zero when an output check
//! fails or the arguments are wrong.

use mm_perfbench::workload::Workload;
use mm_perfbench::{batch, serve};
use std::process::ExitCode;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    mmflow: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut mmflow = None;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or(format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let name = value()?;
                workload =
                    Some(Workload::parse(&name).ok_or(format!("unknown workload '{name}'"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => trace = value()? == "1",
            "--mmflow" => mmflow = Some(value()?),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(Args {
        workload: workload
            .ok_or("--workload is required (paper_relaxed|fixed_width|serve_warm)")?,
        seed,
        seconds,
        trace,
        mmflow,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let report = match (args.workload, args.trace) {
        (Workload::ServeWarm, trace) => {
            let Some(mmflow) = args.mmflow else {
                eprintln!("perfbench: serve_warm needs --mmflow <path to the mmflow binary>");
                return ExitCode::from(2);
            };
            match serve::run(&mmflow, args.seed, args.seconds, trace) {
                Ok(report) => report,
                Err(e) => {
                    eprintln!("perfbench: serve_warm: {e}");
                    return ExitCode::from(1);
                }
            }
        }
        (workload, false) => batch::run(workload, args.seed, args.seconds),
        (workload, true) => batch::run_traced(workload, args.seed),
    };
    for problem in &report.problems {
        eprintln!("perfbench: {problem}");
    }
    println!("{}", report.to_json_line());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
