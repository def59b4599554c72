//! Regenerates paper tables and figures into the results directory and
//! indexes them in `summary.json`. Flags: `--list`, `--only ID,ID...`,
//! `--quick`/`--full`, `--seed N`, `--results DIR`, `--jobs N`,
//! `--check`, `--cache DIR`, `--shard i/N`, `--prune` (see
//! `ksr_bench::cli`).
use std::process::ExitCode;

fn main() -> ExitCode {
    ksr_bench::cli::run_all_main()
}
