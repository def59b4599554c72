//! Watch the slotted ring approach saturation — the architectural story
//! behind the paper's key conclusion ("the network does saturate when
//! there are simultaneous remote memory accesses from a fully populated
//! 32 node ring").
//!
//! Every processor hammers remote sub-pages back-to-back (each access a
//! compulsory miss served by its neighbour's cache). With few processors
//! the pipelined ring absorbs the load and latency stays at the published
//! ~175 cycles; as the population approaches 32 the 24 slots run out and
//! latency climbs.
//!
//! ```text
//! cargo run --release --example ring_saturation
//! ```

use ksr1_repro::machine::{read_stream, Machine};

fn mean_remote_latency(procs: usize) -> f64 {
    let mut m = Machine::ksr1(3).expect("machine");
    // Each processor's 512 KB array lives at its neighbour.
    let means = read_stream(&mut m, procs, 512 * 1024, 512, |p| (p + 1) % 32).expect("run");
    means.iter().sum::<u64>() as f64 / procs as f64
}

fn main() {
    println!("back-to-back remote reads, mean latency per access:\n");
    println!("{:>6} {:>12} {:>8}", "procs", "cycles", "vs idle");
    let base = mean_remote_latency(1);
    for procs in [1usize, 4, 8, 12, 16, 20, 24, 28, 32] {
        let l = mean_remote_latency(procs);
        let bar = "#".repeat(((l - 170.0) / 4.0).max(1.0) as usize);
        println!(
            "{procs:>6} {l:>12.1} {:>+7.1}%  {bar}",
            (l / base - 1.0) * 100.0
        );
    }
    println!(
        "\npublished idle remote latency: 175 cycles; the paper observed ~+8% at a \
         fully populated ring under measurement-loop duty cycles, and outright \
         saturation for back-to-back traffic like this (the IS kernel's phase 2)."
    );
}
