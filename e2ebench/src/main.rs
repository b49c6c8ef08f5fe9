//! `sparcs-e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints progress and a human summary on standard error, then one JSON
//! object as the last line of standard output:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.

use sparcs_e2ebench::run::{run, Args};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("sparcs-e2ebench: {e}");
            eprintln!(
                "usage: sparcs-e2ebench --workload dct-paper|scaled-10k|service \
                 --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(report) => {
            println!("{}", report.to_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("sparcs-e2ebench: {e}");
            ExitCode::FAILURE
        }
    }
}
