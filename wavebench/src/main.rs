//! `wavebench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints its report; the last line of standard
//! output is the JSON result. Exits 1 when an output check failed and 2
//! on a usage or set-up error.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

use wavebench::{result_json, Plan, Scale};

fn usage(msg: &str) -> ExitCode {
    eprintln!("wavebench: {msg}");
    eprintln!("usage: wavebench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (1u64, 10u64, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        let num = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match (flag.as_str(), num()) {
            ("--workload", _) => workload = Some(value.clone()),
            ("--seed", Ok(v)) => seed = v,
            ("--seconds", Ok(v)) if v > 0 => seconds = v,
            ("--trace", Ok(v)) if v <= 1 => trace = v == 1,
            (_, Err(e)) => return usage(&e),
            _ => return usage(&format!("unexpected argument {flag} {value}")),
        }
    }
    let Some(workload) = workload else {
        return usage("--workload is required");
    };
    let work = PathBuf::from(".bench_work").join(format!("{workload}-{}", std::process::id()));
    let plan = Plan {
        seed,
        seconds: Duration::from_secs(seconds),
        trace,
        scale: Scale::Full,
        work: work.clone(),
    };
    let got = wavebench::run(&workload, &plan);
    // Keep the span files of traced runs; drop sweep outputs and journals.
    if let Ok(entries) = std::fs::read_dir(&work) {
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                let _ = std::fs::remove_dir_all(&p);
            }
        }
    }
    let _ = std::fs::remove_dir(&work);
    // Leave no dirty pages behind whose writeback would land in the next
    // run.
    wavebench::sync_disk(Path::new("."));
    let out = match got {
        Ok(out) => out,
        Err(e) => {
            eprintln!("wavebench: {workload}: {e}");
            return ExitCode::from(2);
        }
    };
    for line in &out.lines {
        println!("{line}");
    }
    for f in &out.failures {
        println!("CHECK FAILED: {f}");
    }
    println!("{}", result_json(&out, trace));
    if out.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
