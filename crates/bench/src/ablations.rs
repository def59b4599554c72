//! ABL — ablation studies of the design choices the paper's analysis
//! leans on.
//!
//! The paper *explains* its measurements through specific architectural
//! mechanisms; these ablations turn each mechanism off (or sweep it) and
//! confirm the explanation holds inside the model:
//!
//! * **read-snarfing** — §3.2.2 credits it for cheap global-flag wake-ups
//!   ("read-snarfing helps this global wakeup flag notification method
//!   tremendously"): disable it and watch tournament(M) degrade;
//! * **sub-ring interleaving** — the KSR-1 splits its 24 slots over two
//!   address-interleaved 12-slot sub-rings. With the slot total held
//!   fixed, one pooled 24-slot lane queues slightly *less* than the two
//!   interleaved lanes (176 against 182 cycles of hammer latency at 16
//!   processors), so in this model the interleave buys no latency;
//! * **slot count** — the 24-slot budget bounds in-flight transactions:
//!   sweep it and watch the saturation knee move;
//! * **MCS arrival arity** — §3.2.2's tournament-vs-MCS analysis hinges
//!   on the 4-ary packed word: sweep the arity and watch the
//!   false-sharing cost trade against tree height;
//! * **poststore in kernels** — covered by TAB1 (CG) and TAB4 (SP).

use ksr_core::Json;
use ksr_machine::{read_stream, Machine, MachineConfig};
use ksr_mem::ProtocolOptions;
use ksr_net::{RingHierarchyConfig, Topology};
use ksr_sync::{episode_seconds, BarrierAlg, McsBarrier, TournamentBarrier};

use crate::common::RunOpts;
use crate::exec::ExperimentPlan;

/// Registry id.
pub const ID: &str = "ABL";
/// Registry title.
pub const TITLE: &str = "Ablations of the paper's explanatory mechanisms";

/// Mean barrier episode seconds, after two warm-up episodes, of the
/// barrier `alloc` places on a machine built from `cfg`.
fn episode_secs<B: BarrierAlg>(
    cfg: MachineConfig,
    episodes: usize,
    alloc: impl FnOnce(&mut Machine) -> B,
) -> f64 {
    let mut m = Machine::new(cfg).expect("machine");
    let b = alloc(&mut m);
    episode_seconds(&mut m, b, episodes, 2).expect("run")
}

/// Remote-read latency (cycles) with all processors hammering, under a
/// custom ring geometry: each streams 512 reads from a 256 KB array held
/// by its neighbour.
fn hammer_latency(cfg: MachineConfig, procs: usize) -> f64 {
    let mut m = Machine::new(cfg).expect("machine");
    let cells = m.config().cells;
    let means = read_stream(&mut m, procs, 256 * 1024, 512, |p| (p + 1) % cells).expect("run");
    means.iter().sum::<u64>() as f64 / procs as f64
}

/// Plan all ablations: one pure job per (mechanism, setting) point.
#[must_use]
pub fn plan(opts: &RunOpts) -> ExperimentPlan {
    let quick = opts.quick;
    let procs = if quick { 8 } else { 16 };
    let episodes = if quick { 4 } else { 10 };
    let mut plan = ExperimentPlan::new(ID, TITLE);

    // 1. Poststore / read-snarfing ladder for the global-flag wake-up:
    // with poststore the flag broadcast refills every spinner directly;
    // without it the first woken spinner's read snarfs the rest; with
    // neither, every spinner re-fetches through the (serializing) ring —
    // "read-snarfing helps this global wakeup flag notification method
    // tremendously. Read-snarfing is further aided by the use of
    // poststore" (§3.2.2).
    let wakeup_variants: [(&str, ProtocolOptions); 3] = [
        ("poststore+snarf", ProtocolOptions::default()),
        (
            "snarf only",
            ProtocolOptions {
                poststore: false,
                ..ProtocolOptions::default()
            },
        ),
        (
            "neither",
            ProtocolOptions {
                read_snarfing: false,
                poststore: false,
                ..ProtocolOptions::default()
            },
        ),
    ];
    let seed1 = opts.machine_seed(1);
    let wakeup = wakeup_variants.map(|(variant, protocol)| {
        let h = plan.job(format!("ABL wakeup {variant}"), move || {
            let mut cfg = MachineConfig::ksr1(seed1);
            cfg.protocol = protocol;
            episode_secs(cfg, episodes, |m| {
                TournamentBarrier::alloc(m, procs, true).expect("alloc")
            })
        });
        (variant, h)
    });

    // 2. Sub-ring interleaving: one pooled 24-slot lane. The two
    // interleaved 12-slot lanes it is compared with are the default
    // ring, which the slot sweep's 24-slot job already runs.
    let seed2 = opts.machine_seed(2);
    let one_lane = plan.job("ABL subrings=1", move || {
        let mut cfg = MachineConfig::ksr1(seed2);
        let mut ring = RingHierarchyConfig::ksr1_32();
        ring.leaf.subrings = 1;
        cfg.topology = Topology::ring(ring);
        hammer_latency(cfg, procs)
    });

    // 3. Slot-count sweep: where does the saturation knee go?
    let seed3 = opts.machine_seed(3);
    let slot_sweep = [8usize, 16, 24, 32].map(|slots| {
        let h = plan.job(format!("ABL slots={slots}"), move || {
            let mut cfg = MachineConfig::ksr1(seed3);
            let mut ring = RingHierarchyConfig::ksr1_32();
            ring.leaf.slots = slots;
            cfg.topology = Topology::ring(ring);
            hammer_latency(cfg, procs)
        });
        (slots, h)
    });
    let (_, two_lanes) = *slot_sweep
        .iter()
        .find(|&&(slots, _)| slots == 24)
        .expect("the slot sweep runs the default 24 slots");

    // 4. MCS arrival-arity sweep: tree height vs packed-word false sharing.
    let seed4 = opts.machine_seed(4);
    let arity_sweep = [2usize, 4, 8].map(|arity| {
        let h = plan.job(format!("ABL mcs arity={arity}"), move || {
            episode_secs(MachineConfig::ksr1(seed4), episodes, |m| {
                McsBarrier::alloc_with_arity(m, procs, false, arity).expect("alloc")
            })
        });
        (arity, h)
    });

    plan.reduce(move |res, out| {
        let [full, snarf_only, neither] = wakeup.map(|(_, h)| res[h]);
        out.line(format_args!(
            "wake-up ladder, tournament(M) @{procs}p: poststore+snarf {:.1} us; snarf only {:.1} \
             us ({:+.0}%); neither {:.1} us ({:+.0}%)",
            full * 1e6,
            snarf_only * 1e6,
            (snarf_only / full - 1.0) * 100.0,
            neither * 1e6,
            (neither / full - 1.0) * 100.0
        ));
        for (variant, h) in wakeup {
            out.row(
                "wakeup_episode_seconds",
                &[
                    ("variant", Json::from(variant)),
                    ("procs", Json::from(procs)),
                ],
                res[h],
                "s",
            );
        }

        let (two_lanes, one_lane) = (res[two_lanes], res[one_lane]);
        out.line(format_args!(
            "sub-ring interleave @{procs}p hammer: {:.1} cycles with 2 sub-rings, {:.1} with 1 \
             ({:+.0}%)",
            two_lanes,
            one_lane,
            (one_lane / two_lanes - 1.0) * 100.0
        ));
        for (subrings, v) in [(2u64, two_lanes), (1, one_lane)] {
            out.row(
                "hammer_latency_cycles",
                &[
                    ("subrings", Json::from(subrings)),
                    ("procs", Json::from(procs)),
                ],
                v,
                "cycles",
            );
        }

        out.push_text("slot sweep (hammer latency, cycles):");
        for (slots, h) in slot_sweep {
            let l = res[h];
            out.line(format_args!("  {slots:>2} slots: {l:>7.1}"));
            out.row(
                "hammer_latency_cycles",
                &[("slots", Json::from(slots)), ("procs", Json::from(procs))],
                l,
                "cycles",
            );
        }

        out.push_text("MCS arrival arity sweep (us/episode; 4 is the paper's):");
        for (arity, h) in arity_sweep {
            let t = res[h];
            out.line(format_args!("  arity {arity}: {:.1}", t * 1e6));
            out.row(
                "mcs_episode_seconds",
                &[("arity", Json::from(arity)), ("procs", Json::from(procs))],
                t,
                "s",
            );
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snarfing_carries_the_wakeup_when_poststore_is_off() {
        let run = |protocol: ProtocolOptions| {
            let mut cfg = MachineConfig::ksr1(1);
            cfg.protocol = protocol;
            episode_secs(cfg, 5, |m| {
                TournamentBarrier::alloc(m, 16, true).expect("alloc")
            })
        };
        let snarf_only = run(ProtocolOptions {
            poststore: false,
            ..ProtocolOptions::default()
        });
        let neither = run(ProtocolOptions {
            read_snarfing: false,
            poststore: false,
            ..ProtocolOptions::default()
        });
        assert!(
            neither > snarf_only,
            "without snarfing every spinner re-fetches through the ring: {snarf_only:.2e} vs \
             {neither:.2e}"
        );
    }

    #[test]
    fn fewer_slots_mean_more_contention() {
        let latency_at = |slots: usize| {
            let mut cfg = MachineConfig::ksr1(2);
            let mut ring = RingHierarchyConfig::ksr1_32();
            ring.leaf.slots = slots;
            cfg.topology = Topology::ring(ring);
            hammer_latency(cfg, 16)
        };
        let few = latency_at(8);
        let many = latency_at(32);
        assert!(
            few > many,
            "8 slots must contend more than 32: {few:.1} vs {many:.1}"
        );
    }

    #[test]
    fn single_subring_contends_less() {
        let two = hammer_latency(MachineConfig::ksr1(5), 16);
        let mut cfg = MachineConfig::ksr1(5);
        let mut ring = RingHierarchyConfig::ksr1_32();
        ring.leaf.subrings = 1;
        // Keep total slots equal so only the interleaving changes.
        cfg.topology = Topology::ring(ring);
        let one = hammer_latency(cfg, 16);
        assert!(
            one < two,
            "one pooled 24-slot lane must queue less than two interleaved 12-slot lanes: \
             {one:.1} vs {two:.1}"
        );
    }

    #[test]
    fn mcs_arity_sweep_runs_and_orders_sanely() {
        for arity in [2usize, 4, 8] {
            let t = episode_secs(MachineConfig::ksr1(7), 3, |m| {
                McsBarrier::alloc_with_arity(m, 8, false, arity).expect("alloc")
            });
            assert!(t > 0.0 && t < 0.01, "arity {arity}: {t}");
        }
    }
}
