//! Barrier shootout: measure the paper's nine barrier algorithms on the
//! simulated KSR-1 at a chosen processor count and print the ranking —
//! the single-column version of Figure 4.
//!
//! ```text
//! cargo run --release --example barrier_shootout [procs]
//! ```

use ksr1_repro::machine::Machine;
use ksr1_repro::sync::{episode_seconds, AnyBarrier, BarrierKind};

fn episode_us(kind: BarrierKind, procs: usize, episodes: usize) -> f64 {
    let mut m = Machine::ksr1(7).expect("machine");
    let b = AnyBarrier::alloc(kind, &mut m, procs).expect("barrier");
    episode_seconds(&mut m, b, episodes, 0).expect("run") * 1e6
}

fn main() {
    let procs: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(16);
    assert!((2..=32).contains(&procs), "procs must be 2..=32");
    println!("barrier episode times on a 32-cell KSR-1, {procs} participating processors:\n");
    let mut rows: Vec<(f64, &str)> = BarrierKind::ALL
        .iter()
        .map(|&k| (episode_us(k, procs, 12), k.label()))
        .collect();
    rows.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite"));
    for (i, (t, label)) in rows.iter().enumerate() {
        println!("{:>2}. {:<14} {:8.1} us", i + 1, label, t);
    }
    println!(
        "\npaper (Figure 4): tournament(M) fastest, counter slowest, \
         System ~ tree(M), MCS ~ tournament."
    );
}
