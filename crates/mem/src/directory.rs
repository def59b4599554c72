//! Global sub-page holder map.
//!
//! The real ALLCACHE is *directoryless*: a request circulates the ring and
//! whichever cell holds a valid copy answers in passing. The simulator
//! keeps this map purely as an efficiency device — it answers "who holds
//! sub-page S, in what state?" without walking every cache — while all
//! *timing* still flows through the ring model. It is the single source
//! of truth for sub-page coherence state.
//!
//! **Complexity.** Every per-cell operation ([`Holders::state_of`],
//! [`Holders::set`], [`Holders::atomic_holder`], [`Holders::any_valid`])
//! is O(1) expected: short lists are scanned (at most 16 entries), long
//! lists carry an out-of-line cell → position index. An
//! invalidation or snarf sweep over H holders therefore costs O(H), not
//! O(H²) — at 1024 cells, a hot lock word's holder list is ~1024 long.
//!
//! **Order contract.** [`Holders::iter`] yields entries in insertion
//! order: a cell keeps its place while its state changes, an entry set to
//! `Missing` leaves the list, and a re-added cell goes to the end. The
//! protocol's transit choice (first readable holder) and the order of its
//! sweep trace events both follow this order, so it is part of the model.

use ksr_core::FxHashMap;

use crate::state::SubpageState;

/// A list that grows past this many entries turns into a [`Long`] one
/// with a position index, and turns short again when compaction leaves
/// it this short. Short lists are scanned. Most sub-pages have a single
/// holder, so the common list is one bare `Vec` of 8-byte entries.
const INDEX_ABOVE: usize = 16;

/// `Long::pos` value for a cell with no live entry.
const NO_POS: u32 = u32::MAX;

/// One holder: cell number and its copy's state. Cells are numbered
/// below 1088, far inside `u32`.
type Entry = (u32, SubpageState);

fn cell_key(cell: usize) -> u32 {
    u32::try_from(cell).expect("cell index fits in u32")
}

/// Per-sub-page holder list, in insertion order (see the module docs).
#[derive(Debug, Clone)]
pub struct Holders(Repr);

#[derive(Debug, Clone)]
enum Repr {
    /// At most [`INDEX_ABOVE`] live entries, scanned.
    Short(Vec<Entry>),
    /// A list that outgrew [`INDEX_ABOVE`].
    Long(Box<Long>),
}

impl Default for Holders {
    fn default() -> Self {
        Self(Repr::Short(Vec::new()))
    }
}

/// A long holder list with its out-of-line index. A removal leaves a
/// tombstone — the entry's state becomes `Missing` — so that later
/// positions stay valid; iteration skips tombstones, and the list
/// compacts once they outnumber the live entries.
#[derive(Debug, Clone)]
struct Long {
    entries: Vec<Entry>,
    /// `pos[cell]`: position of `cell`'s live entry, or [`NO_POS`].
    /// Grown on demand to the largest cell seen.
    pos: Vec<u32>,
    /// Live (non-tombstone) entries.
    live: usize,
    /// Live entries in a readable state.
    readable: usize,
    /// Live entries in `Atomic` state (more than one only under a seeded
    /// protocol fault).
    atomics: usize,
    /// The atomic holder while `atomics == 1`.
    atomic_cell: u32,
}

impl Long {
    fn new(short: Vec<Entry>) -> Self {
        let mut long = Self {
            entries: Vec::with_capacity(2 * short.len()),
            pos: Vec::new(),
            live: 0,
            readable: 0,
            atomics: 0,
            atomic_cell: NO_POS,
        };
        for (c, s) in short {
            long.push(c, s);
        }
        long
    }

    fn position(&self, cell: u32) -> Option<usize> {
        match self.pos.get(cell as usize) {
            Some(&p) if p != NO_POS => Some(p as usize),
            _ => None,
        }
    }

    /// Account one live entry entering (`true`) or leaving state `st`.
    fn count(&mut self, cell: u32, st: SubpageState, entering: bool) {
        let step = |n: usize| if entering { n + 1 } else { n - 1 };
        if st.readable() {
            self.readable = step(self.readable);
        }
        if st == SubpageState::Atomic {
            self.atomics = step(self.atomics);
            if entering {
                self.atomic_cell = cell;
            }
        }
    }

    fn push(&mut self, cell: u32, st: SubpageState) {
        let c = cell as usize;
        if c >= self.pos.len() {
            self.pos.resize(c + 1, NO_POS);
        }
        self.pos[c] = u32::try_from(self.entries.len()).expect("holder list fits in u32");
        self.entries.push((cell, st));
        self.live += 1;
        self.count(cell, st, true);
    }

    fn set(&mut self, cell: u32, st: SubpageState) {
        let Some(p) = self.position(cell) else {
            if st != SubpageState::Missing {
                self.push(cell, st);
            }
            return;
        };
        let old = self.entries[p].1;
        self.count(cell, old, false);
        self.entries[p].1 = st;
        if st == SubpageState::Missing {
            self.pos[cell as usize] = NO_POS;
            self.live -= 1;
            if self.entries.len() > 2 * self.live {
                self.compact();
            }
        } else {
            self.count(cell, st, true);
        }
        if old == SubpageState::Atomic && st != SubpageState::Atomic && self.atomics == 1 {
            // Two atomic copies (a seeded fault) just became one.
            self.atomic_cell = first_atomic(&self.entries).map_or(NO_POS, cell_key);
        }
    }

    /// Drop the tombstones and re-point the live cells.
    fn compact(&mut self) {
        self.entries.retain(|&(_, s)| s != SubpageState::Missing);
        for (p, &(c, _)) in (0u32..).zip(&self.entries) {
            self.pos[c as usize] = p;
        }
    }
}

/// The first `Atomic` entry in insertion order.
fn first_atomic(entries: &[Entry]) -> Option<usize> {
    entries
        .iter()
        .find(|(_, s)| *s == SubpageState::Atomic)
        .map(|&(c, _)| c as usize)
}

impl Holders {
    /// Every entry, tombstones included.
    fn entries(&self) -> &[Entry] {
        match &self.0 {
            Repr::Short(v) => v,
            Repr::Long(l) => &l.entries,
        }
    }

    /// State of `cell`'s copy, or `Missing`.
    #[must_use]
    pub fn state_of(&self, cell: usize) -> SubpageState {
        let cell = cell_key(cell);
        let entry = match &self.0 {
            Repr::Short(v) => v.iter().find(|&&(c, _)| c == cell),
            Repr::Long(l) => l.position(cell).map(|p| &l.entries[p]),
        };
        entry.map_or(SubpageState::Missing, |&(_, s)| s)
    }

    /// Set `cell`'s state; `Missing` removes the entry.
    pub fn set(&mut self, cell: usize, st: SubpageState) {
        let cell = cell_key(cell);
        let Repr::Short(v) = &mut self.0 else {
            return self.set_long(cell, st);
        };
        if let Some(p) = v.iter().position(|&(c, _)| c == cell) {
            if st == SubpageState::Missing {
                v.remove(p);
            } else {
                v[p].1 = st;
            }
        } else if st != SubpageState::Missing {
            v.push((cell, st));
            if v.len() > INDEX_ABOVE {
                self.promote();
            }
        }
    }

    /// Turn a short list that just outgrew [`INDEX_ABOVE`] into a long one.
    #[cold]
    fn promote(&mut self) {
        if let Repr::Short(v) = &mut self.0 {
            self.0 = Repr::Long(Box::new(Long::new(std::mem::take(v))));
        }
    }

    /// [`Self::set`] on a long list, turning it short again once a
    /// compaction leaves it at most [`INDEX_ABOVE`] entries (entries only
    /// ever shrink by compaction, which leaves no tombstones behind).
    #[inline(never)]
    fn set_long(&mut self, cell: u32, st: SubpageState) {
        if let Repr::Long(l) = &mut self.0 {
            l.set(cell, st);
            if l.entries.len() <= INDEX_ABOVE {
                self.0 = Repr::Short(std::mem::take(&mut l.entries));
            }
        }
    }

    /// All `(cell, state)` entries, in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, SubpageState)> + '_ {
        self.entries()
            .iter()
            .filter(|(_, s)| *s != SubpageState::Missing)
            .map(|&(c, s)| (c as usize, s))
    }

    /// The cell holding the sub-page in `Atomic` state, if any (the first
    /// in insertion order, should a seeded fault have made several).
    #[must_use]
    pub fn atomic_holder(&self) -> Option<usize> {
        match &self.0 {
            Repr::Long(l) if l.atomics == 0 => None,
            Repr::Long(l) if l.atomics == 1 => Some(l.atomic_cell as usize),
            _ => first_atomic(self.entries()),
        }
    }

    /// Whether any valid copy exists anywhere.
    #[must_use]
    pub fn any_valid(&self) -> bool {
        match &self.0 {
            Repr::Short(v) => v.iter().any(|(_, s)| s.readable()),
            Repr::Long(l) => l.readable > 0,
        }
    }

    /// Whether the list is completely empty (no copies, no place holders).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        match &self.0 {
            Repr::Short(v) => v.is_empty(),
            Repr::Long(l) => l.live == 0,
        }
    }

    /// Whether the list breaks the single-writer invariant: more than one
    /// writable copy, or a readable copy beside a writable one.
    #[must_use]
    pub fn violates_single_writer(&self) -> bool {
        let writers = self.iter().filter(|(_, s)| s.writable()).count();
        let readers = self.iter().filter(|(_, s)| s.readable()).count();
        writers > 1 || (writers == 1 && readers > 1)
    }
}

/// The global sub-page → holders map.
#[derive(Debug, Clone, Default)]
pub struct Directory {
    map: FxHashMap<u64, Holders>,
}

impl Directory {
    /// Empty directory.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Holder list for a sub-page (`None` if no cell holds it).
    #[must_use]
    pub fn holders(&self, subpage: u64) -> Option<&Holders> {
        self.map.get(&subpage)
    }

    /// State of `cell`'s copy of `subpage`.
    #[must_use]
    pub fn state_of(&self, subpage: u64, cell: usize) -> SubpageState {
        self.map
            .get(&subpage)
            .map_or(SubpageState::Missing, |h| h.state_of(cell))
    }

    /// Set `cell`'s state for `subpage`.
    pub fn set(&mut self, subpage: u64, cell: usize, st: SubpageState) {
        let h = self.map.entry(subpage).or_default();
        h.set(cell, st);
        if h.is_empty() {
            self.map.remove(&subpage);
        }
    }

    /// Coherence invariant check on one sub-page: at most one writable
    /// copy, and no readable copy coexisting with a writable one
    /// elsewhere. Costs O(holders of `subpage`); the protocol's debug
    /// assertions run it at the end of every path that changes `subpage`.
    #[must_use]
    pub fn violation_at(&self, subpage: u64) -> bool {
        self.map
            .get(&subpage)
            .is_some_and(Holders::violates_single_writer)
    }

    /// [`Self::violation_at`] over the whole directory: returns a
    /// violating sub-page, if any. Used by tests.
    #[must_use]
    pub fn find_violation(&self) -> Option<u64> {
        self.map
            .iter()
            .find(|(_, h)| h.violates_single_writer())
            .map(|(&sp, _)| sp)
    }
}

#[cfg(test)]
mod tests {
    use ksr_core::XorShift64;

    use super::*;

    #[test]
    fn set_and_get_roundtrip() {
        let mut d = Directory::new();
        assert_eq!(d.state_of(5, 0), SubpageState::Missing);
        d.set(5, 0, SubpageState::Exclusive);
        assert_eq!(d.state_of(5, 0), SubpageState::Exclusive);
        assert_eq!(d.state_of(5, 1), SubpageState::Missing);
    }

    #[test]
    fn setting_missing_removes() {
        let mut d = Directory::new();
        d.set(5, 0, SubpageState::Shared);
        d.set(5, 0, SubpageState::Missing);
        assert!(d.holders(5).is_none(), "empty holder lists are dropped");
    }

    #[test]
    fn atomic_holder_found() {
        let mut d = Directory::new();
        d.set(9, 2, SubpageState::Shared);
        assert_eq!(d.holders(9).unwrap().atomic_holder(), None);
        d.set(9, 2, SubpageState::Missing);
        d.set(9, 3, SubpageState::Atomic);
        assert_eq!(d.holders(9).unwrap().atomic_holder(), Some(3));
    }

    #[test]
    fn any_valid_ignores_placeholders() {
        let mut d = Directory::new();
        d.set(1, 1, SubpageState::Invalid);
        assert!(!d.holders(1).unwrap().any_valid());
        d.set(1, 0, SubpageState::Shared);
        assert!(d.holders(1).unwrap().any_valid());
    }

    /// The common one-holder list must not grow: about a million
    /// sub-pages sit in the directory of a 32-cell NAS run.
    #[test]
    fn short_lists_stay_small() {
        assert_eq!(
            std::mem::size_of::<Holders>(),
            std::mem::size_of::<Vec<Entry>>()
        );
        assert_eq!(std::mem::size_of::<Entry>(), 8);
    }

    #[test]
    fn violation_detection() {
        let mut d = Directory::new();
        d.set(1, 0, SubpageState::Shared);
        d.set(1, 1, SubpageState::Shared);
        assert_eq!(d.find_violation(), None);
        d.set(1, 2, SubpageState::Exclusive);
        assert_eq!(d.find_violation(), Some(1));
        assert!(d.violation_at(1));
        assert!(!d.violation_at(2));
        d.set(1, 0, SubpageState::Missing);
        d.set(1, 1, SubpageState::Invalid);
        assert_eq!(
            d.find_violation(),
            None,
            "placeholders may coexist with a writer"
        );
    }

    #[test]
    fn two_writable_is_a_violation() {
        let mut d = Directory::new();
        d.set(7, 0, SubpageState::Exclusive);
        d.set(7, 1, SubpageState::Atomic);
        assert_eq!(d.find_violation(), Some(7));
    }

    /// Today's semantics, written the obvious way: a flat insertion-order
    /// list, linear scans everywhere.
    #[derive(Default)]
    struct Reference(Vec<(usize, SubpageState)>);

    impl Reference {
        fn set(&mut self, cell: usize, st: SubpageState) {
            match self.0.iter().position(|&(c, _)| c == cell) {
                Some(p) if st == SubpageState::Missing => {
                    self.0.remove(p);
                }
                Some(p) => self.0[p].1 = st,
                None if st != SubpageState::Missing => self.0.push((cell, st)),
                None => {}
            }
        }

        fn state_of(&self, cell: usize) -> SubpageState {
            self.0
                .iter()
                .find(|&&(c, _)| c == cell)
                .map_or(SubpageState::Missing, |&(_, s)| s)
        }
    }

    /// Differential test: seeded random `set` sequences over up to 1088
    /// cells, phases alternating growth and shrinkage so lists cross the
    /// index threshold in both directions. After every step each query
    /// must agree with the naive reference model.
    #[test]
    fn holders_match_a_naive_reference_model() {
        use SubpageState::*;
        const STATES: [SubpageState; 5] = [Missing, Invalid, Shared, Exclusive, Atomic];
        let mut rng = XorShift64::new(0x4b53_5231);
        let (mut indexed, mut unindexed) = (0, 0);
        for _ in 0..6 {
            let mut h = Holders::default();
            let mut r = Reference::default();
            for _phase in 0..8 {
                // Cell span and removal rate for this phase: narrow spans
                // hover around the threshold, the full span grows lists
                // to hundreds of entries, high removal rates shrink them.
                let span = [12, 24, 40, 1088][rng.next_index(4)];
                let p_missing = [0.1, 0.4, 0.8][rng.next_index(3)];
                for _ in 0..400 {
                    let cell = rng.next_index(span);
                    let st = if rng.next_bool(p_missing) {
                        Missing
                    } else {
                        STATES[1 + rng.next_index(4)]
                    };
                    let was_indexed = matches!(h.0, Repr::Long(_));
                    h.set(cell, st);
                    r.set(cell, st);
                    match (was_indexed, matches!(h.0, Repr::Long(_))) {
                        (false, true) => indexed += 1,
                        (true, false) => unindexed += 1,
                        _ => {}
                    }
                    assert!(h.iter().eq(r.0.iter().copied()), "iteration order");
                    assert_eq!(h.state_of(cell), r.state_of(cell));
                    let probe = rng.next_index(1088);
                    assert_eq!(h.state_of(probe), r.state_of(probe));
                    assert_eq!(
                        h.atomic_holder(),
                        r.0.iter().find(|(_, s)| *s == Atomic).map(|&(c, _)| c)
                    );
                    assert_eq!(h.any_valid(), r.0.iter().any(|(_, s)| s.readable()));
                    assert_eq!(h.is_empty(), r.0.is_empty());
                }
            }
        }
        assert!(
            indexed > 0 && unindexed > 0,
            "lists must cross the index threshold both ways ({indexed} up, {unindexed} down)"
        );
    }
}
