//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! --attrition <binary> [--work <dir>] [--root <repo>] [--toy]
//! [--no-checkpoint-triggers]`
//!
//! Prints the run's metadata, then as its last line the result object.

use std::process::ExitCode;

fn main() -> ExitCode {
    let options = match perfbench::Options::parse(std::env::args().skip(1)) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    match perfbench::run(&options) {
        Ok(result) => {
            for problem in &result.tally.problems {
                eprintln!("perfbench: check failed: {problem}");
            }
            let line = result.json();
            let record = options.work.join(format!(
                "run-{}-{}-trace{}.json",
                options.workload, options.seed, options.trace as u8
            ));
            let _ = std::fs::write(&record, format!("{}\n{line}\n", result.meta));
            println!("{}", result.meta);
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
