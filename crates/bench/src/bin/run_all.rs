//! Regenerates paper tables and figures into the results directory and
//! indexes them in `summary.json`. Flags: `--list`, `--only ID,ID...`,
//! `--quick`/`--full`, `--seed N`, `--results DIR`, `--jobs N`,
//! `--check` (see `ksr_bench::cli`).
use std::process::ExitCode;

fn main() -> ExitCode {
    ksr_bench::cli::run_all_main()
}
