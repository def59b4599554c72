//! LAD — remote-latency ladder and ring saturation on deep hierarchies.
//!
//! The paper measures a two-level machine; this scaling study asks what
//! the same methodology predicts for the full three-level, 1088-cell
//! KSR-1 design. Two measurements:
//!
//! * **Ladder** — uncontended remote-read latency from cell 0 to an
//!   owner at increasing topological distance: the same cell, the same
//!   leaf ring, a 1-level LCA crossing (leaf → Ring:1 → leaf), and a
//!   2-level LCA crossing through the top ring. Each extra level adds
//!   two ring traversals and two ARD hops to the round trip.
//! * **Saturation** — mean remote-read latency with an increasing
//!   number of processors hammering antipodal cells on a fixed deep
//!   topology, plus the per-packet slot wait the fabric reports. The
//!   knee of the curve is where the shared upper rings saturate.

use ksr_core::Json;
use ksr_machine::{read_stream, Machine, MachineConfig};

use crate::common::RunOpts;
use crate::exec::{ExperimentPlan, Out};

/// Registry id.
pub const ID: &str = "LAD";
/// Registry title.
pub const TITLE: &str = "Remote-latency ladder and ring saturation on multi-level rings";

/// Mean read latency (cycles) from cell 0 to data homed on `owner`,
/// on an otherwise idle machine built from `spec`: 256 reads over a
/// 64 KB array, each a miss served by the owner.
#[must_use]
pub fn probe_latency(spec: &[usize], owner: usize, seed: u64) -> f64 {
    let mut m = Machine::new(MachineConfig::ksr_ring(seed, spec)).expect("machine");
    read_stream(&mut m, 1, 64 * 1024, 256, |_| owner).expect("run")[0] as f64
}

/// One saturation point: `procs` processors each stream 96 reads from a
/// 16 KB array homed half the machine away. Returns the mean per-read
/// latency (cycles) and the fabric's mean slot wait per packet (cycles).
#[must_use]
pub fn saturation_point(spec: &[usize], procs: usize, seed: u64) -> (f64, f64) {
    let mut m = Machine::new(MachineConfig::ksr_ring(seed, spec)).expect("machine");
    let cells = m.config().cells;
    assert!(
        procs <= cells,
        "saturation point oversubscribes the machine"
    );
    // Antipodal placement: every stream crosses the full hierarchy.
    let means =
        read_stream(&mut m, procs, 16 * 1024, 96, |p| (p + cells / 2) % cells).expect("run");
    let lat = means.iter().sum::<u64>() as f64 / procs as f64;
    let s = m.fabric_stats();
    let wait = if s.packets == 0 {
        0.0
    } else {
        s.wait_cycles as f64 / s.packets as f64
    };
    (lat, wait)
}

/// The ladder rungs for a topology spec: `(label, owner cell, rings on
/// the round-trip path)`.
fn ladder_rungs(spec: &[usize]) -> [(&'static str, usize, usize); 4] {
    let leaf = spec[0];
    let group1 = leaf * spec.get(1).copied().unwrap_or(1);
    [
        ("same cell", 0, 0),
        ("same leaf", 1, 1),
        ("1-level crossing", leaf, 3),
        ("2-level crossing", group1, 5),
    ]
}

/// Plan LAD: one job per ladder rung, one per saturation point.
#[must_use]
pub fn plan(opts: &RunOpts) -> ExperimentPlan {
    let quick = opts.quick;
    let spec: &'static [usize] = if quick { &[8, 2, 2] } else { &[32, 8, 4] };
    let sat_procs: Vec<usize> = if quick {
        vec![8, 16, 32]
    } else {
        vec![32, 64, 128, 256, 512, 1024]
    };
    let seed = opts.machine_seed(4100);
    let mut plan = ExperimentPlan::new(ID, TITLE);
    let ladder = ladder_rungs(spec).map(|(label, owner, rings)| {
        let h = plan.job(format!("LAD ladder {label}"), move || {
            probe_latency(spec, owner, seed)
        });
        (label, rings, h)
    });
    let saturation: Vec<(usize, Out<(f64, f64)>)> = sat_procs
        .iter()
        .map(|&p| {
            let h = plan.job(format!("LAD saturation p={p}"), move || {
                saturation_point(spec, p, seed)
            });
            (p, h)
        })
        .collect();
    let cells: usize = spec.iter().product();
    plan.reduce(move |res, out| {
        out.line(format_args!(
            "latency ladder on a {cells}-cell ring[{}] machine (idle, cycles/read):",
            spec.iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join("x")
        ));
        for (label, rings, h) in ladder {
            out.line(format_args!(
                "  {label:<18} {:8.0}  ({rings} ring{} booked)",
                res[h],
                if rings == 1 { "" } else { "s" }
            ));
            out.row(
                "remote_read_cycles",
                &[
                    ("distance", Json::from(label)),
                    ("rings", Json::from(rings)),
                ],
                res[h],
                "cycles",
            );
        }
        let [_, _, (_, _, one_level), (_, _, two_level)] = ladder;
        let (l1, l2) = (res[one_level], res[two_level]);
        if l1 > 0.0 {
            out.line(format_args!(
                "each extra level multiplies remote latency by {:.2}x (2 more rings + 2 ARDs)",
                l2 / l1
            ));
        }
        out.line(format_args!(
            "saturation sweep, antipodal streams on the same {cells}-cell machine:"
        ));
        let mut curve = ksr_core::table::Series::new("saturated read latency");
        for (p, h) in saturation {
            let (lat, wait) = res[h];
            curve.push(p as f64, lat);
            out.line(format_args!(
                "  p={p:<5} read {lat:8.0} cy   slot wait/packet {wait:6.1} cy"
            ));
            out.row(
                "saturated_read_cycles",
                &[("procs", Json::from(p))],
                lat,
                "cycles",
            );
            out.row(
                "slot_wait_per_packet",
                &[("procs", Json::from(p))],
                wait,
                "cycles",
            );
        }
        out.series.push(curve);
        out.push_text(
            "the ladder prices each level of the hierarchy; the sweep shows mean latency \
             rising as offered load fills the upper rings' slots — the paper's \u{a7}3.1 \
             hammering experiment extrapolated to the full three-level design.",
        );
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_is_monotone_in_distance() {
        let spec = &[8, 2, 2];
        let local = probe_latency(spec, 0, 1);
        let leaf = probe_latency(spec, 1, 1);
        let one = probe_latency(spec, 8, 1);
        let two = probe_latency(spec, 16, 1);
        assert!(
            local < leaf && leaf < one && one < two,
            "ladder must climb: {local} {leaf} {one} {two}"
        );
    }

    #[test]
    fn contention_raises_latency() {
        let spec = &[8, 2, 2];
        let (idle, _) = saturation_point(spec, 2, 3);
        let (loaded, wait) = saturation_point(spec, 32, 3);
        assert!(
            loaded > idle,
            "32 antipodal streams must contend: {idle} vs {loaded}"
        );
        assert!(wait > 0.0, "saturated fabric must report slot wait");
    }
}
