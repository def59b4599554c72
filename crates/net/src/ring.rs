//! The KSR slotted, pipelined, unidirectional ring.
//!
//! ## Model
//!
//! The lowest-level KSR-1 ring has **24 slots organised as two
//! address-interleaved sub-rings of 12 slots each** and a capacity of
//! 1 GB/s (§2). A cell wanting to communicate waits for an empty slot to
//! pass, fills it, and the packet travels the full circumference: the
//! request propagates station-to-station until a holder responds, and the
//! response continues around back to the requester (unidirectionality is
//! also why the paper notes that "accessing any remote processor would be
//! equivalent to accessing the neighboring processor in terms of latency").
//! The slot is free again once the packet returns to its injection point.
//!
//! The model therefore books each transaction as *one slot occupied for one
//! full rotation* of the chosen sub-ring:
//!
//! * **Pipelining** — up to `slots_per_subring` transactions overlap per
//!   sub-ring; simultaneous *distinct* accesses barely disturb one another
//!   (Figure 2's nearly-flat latency curves).
//! * **Finite bandwidth** — once every slot is booked, later requesters
//!   wait for the earliest slot to free; sustained offered load beyond
//!   `slots / rotation` saturates, reproducing the §3.1/§3.3.2 saturation
//!   observed with 32 processors communicating at once.
//! * **Round-robin fairness** — requests are granted strictly in arrival
//!   order (the coordinator presents them in virtual-time order), matching
//!   the ring protocol's fairness/forward-progress guarantee.

use ksr_core::time::Cycles;
use ksr_core::trace::{TraceEvent, Tracer};
use ksr_core::{Error, Result};

use crate::msg::PacketKind;

/// The most slots one ring may carry: the KSR-1 ring has 24 and the
/// slot-count ablation sweeps 8–32. [`RingConfig::validate`] rejects
/// more, so a ring with, say, 2^40 slots fails instead of allocating a
/// slot table and a wait table of that length when it is built.
pub const MAX_SLOTS: usize = 64;

/// Geometry and timing of one slotted ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RingConfig {
    /// Stations on the ring: member cells plus any ARD routers.
    pub stations: usize,
    /// Total slots circulating (24 on the KSR-1 leaf ring; at most
    /// [`MAX_SLOTS`]).
    pub slots: usize,
    /// Address-interleaved sub-rings sharing the physical ring (2 on the
    /// KSR-1, selected by a sub-page address bit).
    pub subrings: usize,
    /// Processor cycles for a slot to advance one station.
    pub hop_cycles: Cycles,
}

impl RingConfig {
    /// The KSR-1 leaf ring: 34 stations (32 cells + 2 ring-interface/ARD
    /// stations), 24 slots in two sub-rings, 4 cycles per hop — a 136-cycle
    /// rotation, which together with the cache-controller overheads in
    /// `ksr-mem` lands on the published 175-cycle remote access.
    #[must_use]
    pub fn ksr1_leaf() -> Self {
        Self {
            stations: 34,
            slots: 24,
            subrings: 2,
            hop_cycles: 4,
        }
    }

    /// The level-1 ring joining leaf rings: modelled with the same slot
    /// structure but four times the bandwidth (KSR documentation quotes
    /// 1, 2, or 4 GB/s options for Ring:1; we use the 4 GB/s variant the
    /// Georgia Tech machine had), i.e. a quarter of the per-hop delay.
    #[must_use]
    pub fn ksr1_top(leaves: usize) -> Self {
        Self {
            stations: leaves.max(2),
            slots: 24,
            subrings: 2,
            hop_cycles: 1,
        }
    }

    /// Full rotation time of the ring in cycles ([`RingConfig::validate`]
    /// rejects a ring whose rotation overflows [`Cycles`]).
    #[must_use]
    pub fn circumference(&self) -> Cycles {
        self.stations as Cycles * self.hop_cycles
    }

    /// Slots owned by each sub-ring.
    #[must_use]
    pub fn slots_per_subring(&self) -> usize {
        self.slots / self.subrings
    }

    /// Average spacing between consecutive slots of one sub-ring passing a
    /// given station.
    #[must_use]
    pub fn slot_spacing(&self) -> Cycles {
        self.circumference() / self.slots_per_subring() as Cycles
    }

    /// Validate the configuration.
    pub fn validate(&self) -> Result<()> {
        if self.stations < 2 {
            return Err(Error::Config("ring needs at least 2 stations".into()));
        }
        if self.subrings == 0 || self.slots == 0 || self.hop_cycles == 0 {
            return Err(Error::Config(
                "ring slots/subrings/hop_cycles must be non-zero".into(),
            ));
        }
        if self.slots > MAX_SLOTS {
            return Err(Error::Config(format!(
                "a ring carries at most {MAX_SLOTS} slots, not {}",
                self.slots
            )));
        }
        if (self.stations as Cycles)
            .checked_mul(self.hop_cycles)
            .is_none()
        {
            return Err(Error::Config(format!(
                "{} stations at {} cycles per hop overflow the ring's rotation time",
                self.stations, self.hop_cycles
            )));
        }
        if self.subrings > self.slots {
            // Integer division would otherwise hand every lane zero
            // capacity and the ring could never grant a slot.
            return Err(Error::Config(format!(
                "{} sub-rings over {} slots leaves zero-capacity lanes; \
                 each sub-ring needs at least one slot",
                self.subrings, self.slots
            )));
        }
        if !self.slots.is_multiple_of(self.subrings) {
            return Err(Error::Config(format!(
                "slots ({}) must divide evenly into {} sub-rings",
                self.slots, self.subrings
            )));
        }
        Ok(())
    }
}

/// When a fabric transaction was granted and when its response returns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RingTiming {
    /// When the packet entered the fabric (after any slot/bus wait).
    pub injected_at: Cycles,
    /// When the response (or, for non-blocking packets, the packet itself)
    /// arrives back at the requester.
    pub response_at: Cycles,
    /// Cycles spent waiting for fabric admission — the "time spent in ring
    /// accesses" the hardware performance monitor reports.
    pub slot_wait: Cycles,
}

impl RingTiming {
    /// Total latency from issue to response.
    #[must_use]
    pub fn latency(&self, issued_at: Cycles) -> Cycles {
        self.response_at - issued_at
    }
}

/// Aggregate counters for one ring.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RingStats {
    /// Packets injected.
    pub packets: u64,
    /// Packets that carried a 128-byte data payload.
    pub data_packets: u64,
    /// Total cycles spent by all requesters waiting for a free slot.
    pub slot_wait_cycles: u64,
    /// Packets that found every slot of their sub-ring occupied.
    pub blocked_packets: u64,
}

impl RingStats {
    /// Add another ring's counters into this accumulator (used to sum a
    /// hierarchy level or a whole ring tree).
    pub fn accumulate(&mut self, other: Self) {
        self.packets += other.packets;
        self.data_packets += other.data_packets;
        self.slot_wait_cycles += other.slot_wait_cycles;
        self.blocked_packets += other.blocked_packets;
    }
}

/// One slotted pipelined unidirectional ring.
///
/// The geometry's per-packet constants are computed once, at
/// construction, so booking a slot divides nothing.
#[derive(Debug, Clone)]
pub struct SlottedRing {
    cfg: RingConfig,
    /// Slots per sub-ring.
    cap: usize,
    /// Full rotation time.
    circumference: Cycles,
    /// Half a slot spacing: how far a freed slot travels, on average, to
    /// the next waiter under saturation.
    half_spacing: Cycles,
    /// `wait[free]`: the mean wait for an empty slot with `free` of the
    /// sub-ring's slots empty, `max(circumference / (2 free), 1)`, for
    /// `free` in `1..=cap` (`wait[0]` is unused).
    wait: Vec<Cycles>,
    /// `subrings - 1` when the sub-ring count is a power of two (every
    /// preset), so routing is a mask rather than a remainder.
    subring_mask: Option<u64>,
    /// Per sub-ring: for each currently-circulating packet, the time its
    /// slot frees (when the packet returns to its injection station).
    busy_until: Vec<Vec<Cycles>>,
    stats: RingStats,
}

impl SlottedRing {
    /// Build a ring from a validated configuration.
    pub fn new(cfg: RingConfig) -> Result<Self> {
        cfg.validate()?;
        let cap = cfg.slots_per_subring();
        let circumference = cfg.circumference();
        let wait = std::iter::once(0)
            .chain((1..=cap as Cycles).map(|free| (circumference / (2 * free)).max(1)))
            .collect();
        Ok(Self {
            busy_until: vec![Vec::with_capacity(cap); cfg.subrings],
            cap,
            circumference,
            half_spacing: cfg.slot_spacing() / 2,
            wait,
            subring_mask: cfg
                .subrings
                .is_power_of_two()
                .then(|| cfg.subrings as u64 - 1),
            cfg,
            stats: RingStats::default(),
        })
    }

    /// The ring's configuration.
    #[must_use]
    pub fn config(&self) -> &RingConfig {
        &self.cfg
    }

    /// Accumulated counters.
    #[must_use]
    pub fn stats(&self) -> RingStats {
        self.stats
    }

    /// Sub-ring an address-interleave key maps to.
    #[must_use]
    pub fn subring_of(&self, interleave_key: u64) -> usize {
        match self.subring_mask {
            Some(mask) => (interleave_key & mask) as usize,
            None => (interleave_key % self.cfg.subrings as u64) as usize,
        }
    }

    /// Book one full-rotation transaction on `subring`, requested at `now`,
    /// emitting the slot grant as a [`TraceEvent::RingSlot`].
    ///
    /// Returns the injection and response times. Requests must be presented
    /// in non-decreasing `now` order (the coordinator guarantees this);
    /// grants are then strictly FIFO per sub-ring.
    pub fn transact(
        &mut self,
        now: Cycles,
        subring: usize,
        kind: PacketKind,
        tracer: &mut Tracer,
    ) -> RingTiming {
        assert!(subring < self.cfg.subrings, "sub-ring index out of range");
        let cap = self.cap;
        let lane = &mut self.busy_until[subring];
        lane.retain(|&free_at| free_at > now);

        // Expected wait for the next *empty* slot to pass the station:
        // with k of the sub-ring's slots occupied, empty slots pass at
        // rate (cap - k) per rotation, so the mean wait is
        // circumference / (2 (cap - k)) — half a slot spacing when idle,
        // rising sharply as the ring loads up. This load sensitivity is
        // what separates the O(P) tournament from the O(P log P)
        // dissemination barrier on the real machine.
        let (injected_at, blocked) = if lane.len() < cap {
            (now + self.wait[cap - lane.len()], false)
        } else {
            // All slots of this sub-ring are in flight: the earliest one to
            // come home is re-used; it frees at its owner's station and
            // reaches ours after half a rotation on average. Round-robin
            // fairness: under saturation many stations wait, so the freed
            // slot reaches the next waiter within about one slot spacing.
            match lane
                .iter()
                .copied()
                .enumerate()
                .min_by_key(|&(_, free_at)| free_at)
            {
                Some((idx, earliest)) => {
                    // Remove the booking we are about to re-use.
                    lane.swap_remove(idx);
                    (earliest.max(now) + self.half_spacing, true)
                }
                // Unreachable: `validate` guarantees every sub-ring at
                // least one slot, so a full lane holds a booking. Treat
                // the impossible empty case as an idle lane rather than
                // poisoning the coordinator with a panic.
                None => (now + self.wait[cap], false),
            }
        };
        let response_at = injected_at + self.circumference;
        lane.push(response_at);

        self.stats.packets += 1;
        if kind.carries_data() {
            self.stats.data_packets += 1;
        }
        let slot_wait = injected_at - now;
        self.stats.slot_wait_cycles += slot_wait;
        if blocked {
            self.stats.blocked_packets += 1;
        }
        tracer.emit_with(|| TraceEvent::RingSlot {
            at: injected_at,
            wait: slot_wait,
            blocked,
        });
        RingTiming {
            injected_at,
            response_at,
            slot_wait,
        }
    }

    /// Slots currently in flight on a sub-ring at time `now` (for tests and
    /// diagnostics).
    #[must_use]
    pub fn in_flight(&self, subring: usize, now: Cycles) -> usize {
        self.busy_until[subring]
            .iter()
            .filter(|&&t| t > now)
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tracer with no sink: these tests book transactions untraced.
    fn untraced() -> Tracer {
        Tracer::disabled()
    }

    fn ring() -> SlottedRing {
        SlottedRing::new(RingConfig::ksr1_leaf()).unwrap()
    }

    #[test]
    fn ksr1_leaf_geometry() {
        let cfg = RingConfig::ksr1_leaf();
        assert_eq!(cfg.circumference(), 136);
        assert_eq!(cfg.slots_per_subring(), 12);
        assert_eq!(cfg.slot_spacing(), 11);
        cfg.validate().unwrap();
    }

    #[test]
    fn invalid_configs_rejected() {
        assert!(RingConfig {
            stations: 1,
            ..RingConfig::ksr1_leaf()
        }
        .validate()
        .is_err());
        assert!(RingConfig {
            slots: 0,
            ..RingConfig::ksr1_leaf()
        }
        .validate()
        .is_err());
        assert!(RingConfig {
            slots: 23,
            ..RingConfig::ksr1_leaf()
        }
        .validate()
        .is_err());
        assert!(RingConfig {
            hop_cycles: 0,
            ..RingConfig::ksr1_leaf()
        }
        .validate()
        .is_err());
        assert!(RingConfig {
            subrings: 0,
            ..RingConfig::ksr1_leaf()
        }
        .validate()
        .is_err());
    }

    #[test]
    fn zero_capacity_lane_config_rejected_at_construction() {
        // More sub-rings than slots would give every lane zero capacity;
        // transact's full-lane path would then have no booking to re-use.
        // The constructor must refuse with a diagnosis, not panic later.
        let cfg = RingConfig {
            subrings: 48,
            ..RingConfig::ksr1_leaf()
        };
        let err = cfg.validate().expect_err("zero-capacity lanes");
        assert!(
            err.to_string().contains("zero-capacity"),
            "diagnosis names the problem: {err}"
        );
        assert!(SlottedRing::new(cfg).is_err());
    }

    #[test]
    fn single_slot_lanes_saturate_without_panicking() {
        // Minimum legal capacity: one slot per sub-ring. Saturating it
        // exercises the full-lane (slot re-use) path repeatedly.
        let cfg = RingConfig {
            slots: 2,
            subrings: 2,
            ..RingConfig::ksr1_leaf()
        };
        let mut r = SlottedRing::new(cfg).unwrap();
        let mut last = 0;
        for _ in 0..10 {
            let t = r.transact(0, 0, PacketKind::ReadData, &mut untraced());
            assert!(t.response_at > last, "grants strictly ordered");
            last = t.response_at;
        }
        assert_eq!(r.stats().blocked_packets, 9);
    }

    #[test]
    fn single_transaction_latency_is_rotation_plus_half_spacing() {
        let mut r = ring();
        let t = r.transact(1000, 0, PacketKind::ReadData, &mut untraced());
        assert_eq!(t.injected_at, 1005); // half of the 11-cycle slot spacing truncates to 5
        assert_eq!(t.response_at, 1005 + 136);
        assert_eq!(t.latency(1000), 141);
    }

    #[test]
    fn pipelining_simultaneous_distinct_transactions_do_not_block() {
        let mut r = ring();
        // 12 simultaneous transactions fill one sub-ring without blocking;
        // slot-entry waits grow with occupancy but stay below a rotation.
        let timings: Vec<RingTiming> = (0..12)
            .map(|_| r.transact(0, 0, PacketKind::ReadData, &mut untraced()))
            .collect();
        let lat0 = timings[0].latency(0);
        assert_eq!(lat0, 141, "idle latency: rotation + half slot spacing");
        for t in &timings {
            assert!(
                t.slot_wait < 136,
                "entry wait below one rotation: {}",
                t.slot_wait
            );
        }
        assert!(
            timings.windows(2).all(|w| w[1].slot_wait >= w[0].slot_wait),
            "waits grow with occupancy"
        );
        assert_eq!(r.stats().blocked_packets, 0);
        assert_eq!(r.in_flight(0, 10), 12);
    }

    #[test]
    fn thirteenth_simultaneous_transaction_waits_a_rotation() {
        let mut r = ring();
        for _ in 0..12 {
            r.transact(0, 0, PacketKind::ReadData, &mut untraced());
        }
        let t = r.transact(0, 0, PacketKind::ReadData, &mut untraced());
        // Must wait for the first slot to come home (~one rotation).
        assert!(
            t.slot_wait >= 136,
            "wait {} should be at least a rotation",
            t.slot_wait
        );
        assert_eq!(r.stats().blocked_packets, 1);
    }

    #[test]
    fn subrings_are_independent() {
        let mut r = ring();
        for _ in 0..12 {
            r.transact(0, 0, PacketKind::ReadData, &mut untraced());
        }
        // Sub-ring 1 is still empty: no blocking there.
        let t = r.transact(0, 1, PacketKind::ReadData, &mut untraced());
        assert_eq!(t.slot_wait, 5, "idle-lane entry wait");
    }

    #[test]
    fn slots_free_after_rotation() {
        let mut r = ring();
        for _ in 0..12 {
            r.transact(0, 0, PacketKind::ReadData, &mut untraced());
        }
        // Well after the rotation completes, the lane is free again.
        let t = r.transact(10_000, 0, PacketKind::ReadData, &mut untraced());
        assert_eq!(t.slot_wait, 5);
        assert_eq!(r.in_flight(0, 10_000), 1);
    }

    #[test]
    fn fifo_grants_under_contention() {
        let mut r = ring();
        for _ in 0..12 {
            r.transact(0, 0, PacketKind::ReadData, &mut untraced());
        }
        let a = r.transact(1, 0, PacketKind::ReadData, &mut untraced());
        let b = r.transact(2, 0, PacketKind::ReadData, &mut untraced());
        let c = r.transact(3, 0, PacketKind::ReadData, &mut untraced());
        assert!(a.injected_at <= b.injected_at && b.injected_at <= c.injected_at);
    }

    #[test]
    fn saturation_throughput_bounded_by_slots_per_rotation() {
        let mut r = ring();
        // Offer 200 back-to-back transactions at time 0 on one sub-ring and
        // measure the completion time of the last: throughput must be ~12
        // per 136-cycle rotation.
        let last = (0..200)
            .map(|_| {
                r.transact(0, 0, PacketKind::ReadData, &mut untraced())
                    .response_at
            })
            .max()
            .unwrap();
        let rotations_needed = (200f64 / 12f64).ceil();
        let lower = (rotations_needed as u64 - 1) * 136;
        assert!(
            last >= lower,
            "last completion {last} vs lower bound {lower}"
        );
        assert!(last <= (rotations_needed as u64 + 2) * 136 + 200);
    }

    #[test]
    fn stats_accumulate() {
        let mut r = ring();
        r.transact(0, 0, PacketKind::ReadData, &mut untraced());
        r.transact(0, 0, PacketKind::Invalidate, &mut untraced());
        let s = r.stats();
        assert_eq!(s.packets, 2);
        assert_eq!(s.data_packets, 1);
        // 5 (idle) + 6 (one slot already busy).
        assert_eq!(s.slot_wait_cycles, 11);
    }

    #[test]
    fn interleave_key_maps_to_both_subrings() {
        let r = ring();
        assert_eq!(r.subring_of(0), 0);
        assert_eq!(r.subring_of(1), 1);
        assert_eq!(r.subring_of(2), 0);
    }

    /// The constants tabled at construction against the divisions they
    /// replace, on seeded valid geometries.
    #[test]
    fn tabled_waits_match_the_division_formulas() {
        let mut rng = ksr_core::XorShift64::new(0x51075);
        let mut checked = 0;
        while checked < 300 {
            let cfg = RingConfig {
                stations: 2 + rng.next_index(60),
                slots: 1 + rng.next_index(48),
                subrings: 1 + rng.next_index(6),
                hop_cycles: 1 + rng.next_below(8),
            };
            if cfg.validate().is_err() {
                continue;
            }
            checked += 1;
            let r = SlottedRing::new(cfg).unwrap();
            let c = cfg.circumference();
            assert_eq!(r.cap, cfg.slots_per_subring(), "{cfg:?}");
            assert_eq!(r.circumference, c, "{cfg:?}");
            assert_eq!(r.half_spacing, cfg.slot_spacing() / 2, "{cfg:?}");
            assert_eq!(r.wait.len(), r.cap + 1, "{cfg:?}");
            for free in 1..=r.cap {
                let want = (c / (2 * free as Cycles)).max(1);
                assert_eq!(r.wait[free], want, "{cfg:?} free {free}");
            }
            for key in 0..64 {
                assert_eq!(
                    r.subring_of(key),
                    (key % cfg.subrings as u64) as usize,
                    "{cfg:?}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_subring_panics() {
        let mut r = ring();
        let _ = r.transact(0, 2, PacketKind::ReadData, &mut untraced());
    }
}
