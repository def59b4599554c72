//! Global sub-page holder map.
//!
//! The real ALLCACHE is *directoryless*: a request circulates the ring and
//! whichever cell holds a valid copy answers in passing. The simulator
//! keeps this map purely as an efficiency device — it answers "who holds
//! sub-page S, in what state?" without walking every cache — while all
//! *timing* still flows through the ring model. It is the single source
//! of truth for sub-page coherence state.
//!
//! **Layout.** The map is keyed by 16 KB page. Each page the simulation
//! touches gets one chunk of [`SUBPAGES_PER_PAGE`] holder slots, so a
//! sub-page lookup is one hash of its page plus an index, and the
//! protocol's page-granular walks (eviction pinning, page purges) read
//! one chunk. An empty slot and a one-holder slot allocate nothing. Host
//! memory grows with the pages touched, never with the 1 TB SVA span; a
//! chunk stays allocated after its slots empty.
//!
//! **Complexity.** Every per-cell operation ([`Holders::state_of`],
//! [`Holders::set`], [`Holders::atomic_holder`], [`Holders::any_valid`],
//! `readable_count`) is O(1) expected: short lists are scanned (at most
//! 16 entries), long lists carry an out-of-line cell → position index
//! and readable and atomic counts. The protocol's sweeps (demote, snarf,
//! invalidate, poststore refill) go through `Chunk::update`, which walks
//! the list in place after one chunk lookup, with no position lookup per
//! entry: O(H) for H holders — at 1024 cells, a hot lock word's holder
//! list is ~1024 long.
//!
//! **Order contract.** [`Holders::iter`] yields entries in insertion
//! order: a cell keeps its place while its state changes, an entry set to
//! `Missing` leaves the list, and a re-added cell goes to the end. The
//! protocol's transit choice (first readable holder) and the order of its
//! sweep trace events both follow this order, so it is part of the model.

use ksr_core::FxHashMap;

use crate::geometry::SUBPAGES_PER_PAGE;
use crate::state::SubpageState;

/// A list that grows past this many entries turns into a [`Long`] one
/// with a position index, and turns short again when compaction leaves
/// it this short. Short lists are scanned.
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
#[derive(Debug, Clone, Default)]
pub struct Holders(Repr);

/// Each list has exactly one representation for its length: no entry,
/// one inline entry, a scanned `Vec` of 2 to [`INDEX_ABOVE`], or a long
/// list once it outgrew that.
#[derive(Debug, Clone, Default)]
enum Repr {
    /// No holder.
    #[default]
    Empty,
    /// The common case: a single holder, stored inline.
    One(Entry),
    /// 2 to [`INDEX_ABOVE`] entries, scanned.
    Short(Vec<Entry>),
    /// A list that outgrew [`INDEX_ABOVE`].
    Long(Box<Long>),
}

impl Repr {
    /// The representation of a tombstone-free list of at most
    /// [`INDEX_ABOVE`] entries.
    fn short(entries: Vec<Entry>) -> Self {
        debug_assert!(entries.len() <= INDEX_ABOVE);
        match entries[..] {
            [] => Self::Empty,
            [one] => Self::One(one),
            _ => Self::Short(entries),
        }
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

    /// Set `cell`'s state; returns its previous one.
    fn set(&mut self, cell: u32, st: SubpageState) -> SubpageState {
        let Some(p) = self.position(cell) else {
            if st != SubpageState::Missing {
                self.push(cell, st);
            }
            return SubpageState::Missing;
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
        old
    }

    /// [`Holders::update`] on a long list: each changed entry moves the
    /// readable and atomic counts, and the cached atomic holder is found
    /// again if an `Atomic` entry came or went.
    fn update(&mut self, mut f: impl FnMut(usize, SubpageState) -> SubpageState) {
        let atomic = |st: SubpageState| usize::from(st == SubpageState::Atomic);
        let mut atomic_moved = false;
        for (c, s) in &mut self.entries {
            if *s == SubpageState::Missing {
                continue;
            }
            let new = sweep_state(*c, *s, &mut f);
            if new != *s {
                self.readable =
                    self.readable + usize::from(new.readable()) - usize::from(s.readable());
                self.atomics = self.atomics + atomic(new) - atomic(*s);
                atomic_moved |= atomic(new) + atomic(*s) > 0;
                *s = new;
            }
        }
        if atomic_moved && self.atomics == 1 {
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

/// One entry's new state in a [`Holders::update`] sweep, which changes
/// states but never removes an entry.
fn sweep_state(
    cell: u32,
    st: SubpageState,
    f: &mut impl FnMut(usize, SubpageState) -> SubpageState,
) -> SubpageState {
    let new = f(cell as usize, st);
    debug_assert_ne!(new, SubpageState::Missing, "a sweep never removes a holder");
    new
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
            Repr::Empty => &[],
            Repr::One(e) => std::slice::from_ref(e),
            Repr::Short(v) => v,
            Repr::Long(l) => &l.entries,
        }
    }

    /// State of `cell`'s copy, or `Missing`.
    #[must_use]
    pub fn state_of(&self, cell: usize) -> SubpageState {
        let cell = cell_key(cell);
        let entry = match &self.0 {
            Repr::Long(l) => l.position(cell).map(|p| &l.entries[p]),
            _ => self.entries().iter().find(|&&(c, _)| c == cell),
        };
        entry.map_or(SubpageState::Missing, |&(_, s)| s)
    }

    /// Set `cell`'s state (`Missing` removes the entry); returns the
    /// state it replaced.
    pub fn set(&mut self, cell: usize, st: SubpageState) -> SubpageState {
        let cell = cell_key(cell);
        let remove = st == SubpageState::Missing;
        match &mut self.0 {
            Repr::Empty => {
                if !remove {
                    self.0 = Repr::One((cell, st));
                }
                SubpageState::Missing
            }
            Repr::One((c, s)) if *c == cell => {
                let old = *s;
                if remove {
                    self.0 = Repr::Empty;
                } else {
                    *s = st;
                }
                old
            }
            Repr::One(first) => {
                if !remove {
                    self.0 = Repr::Short(vec![*first, (cell, st)]);
                }
                SubpageState::Missing
            }
            Repr::Short(v) => match v.iter().position(|&(c, _)| c == cell) {
                Some(p) => {
                    let old = v[p].1;
                    if !remove {
                        v[p].1 = st;
                    } else {
                        v.remove(p);
                        if v.len() == 1 {
                            self.0 = Repr::One(v[0]);
                        }
                    }
                    old
                }
                None => {
                    if !remove {
                        v.push((cell, st));
                        if v.len() > INDEX_ABOVE {
                            self.promote();
                        }
                    }
                    SubpageState::Missing
                }
            },
            Repr::Long(_) => self.set_long(cell, st),
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
    fn set_long(&mut self, cell: u32, st: SubpageState) -> SubpageState {
        let Repr::Long(l) = &mut self.0 else {
            unreachable!("set_long on a short holder list");
        };
        let old = l.set(cell, st);
        if l.entries.len() <= INDEX_ABOVE {
            self.0 = Repr::short(std::mem::take(&mut l.entries));
        }
        old
    }

    /// Sweep the list in place: each live entry, in insertion order,
    /// takes the state `f(cell, state)` returns, which must not be
    /// `Missing`. Entries keep their places, and the counts stay exact:
    /// O(1) per entry, with no position lookup.
    pub(crate) fn update(&mut self, mut f: impl FnMut(usize, SubpageState) -> SubpageState) {
        let entries = match &mut self.0 {
            Repr::Empty => return,
            Repr::One(e) => std::slice::from_mut(e),
            Repr::Short(v) => v.as_mut_slice(),
            Repr::Long(l) => return l.update(f),
        };
        for (c, s) in entries {
            *s = sweep_state(*c, *s, &mut f);
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
            Repr::Long(l) => l.readable > 0,
            _ => self.entries().iter().any(|(_, s)| s.readable()),
        }
    }

    /// Number of readable copies. Under the single-writer invariant a
    /// list with an `Atomic` copy has exactly one.
    #[must_use]
    pub(crate) fn readable_count(&self) -> usize {
        match &self.0 {
            Repr::Long(l) => l.readable,
            _ => self.entries().iter().filter(|(_, s)| s.readable()).count(),
        }
    }

    /// Whether the list is completely empty (no copies, no place holders).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        match &self.0 {
            Repr::Empty => true,
            Repr::Long(l) => l.live == 0,
            Repr::One(_) | Repr::Short(_) => false,
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

/// One page's holder slots, indexed by sub-page slot within the page.
#[derive(Debug, Clone)]
pub(crate) struct Chunk {
    slots: [Holders; SUBPAGES_PER_PAGE],
    /// `Atomic` copies across the slots. A page with none pins no cell's
    /// frame, so the eviction check skips the slot walk: locks are rare.
    atomics: u32,
}

impl Chunk {
    fn new() -> Box<Self> {
        Box::new(Self {
            slots: std::array::from_fn(|_| Holders::default()),
            atomics: 0,
        })
    }

    /// The holder list of the sub-page in `slot` (possibly empty).
    pub(crate) fn holders(&self, slot: usize) -> &Holders {
        &self.slots[slot]
    }

    /// Set `cell`'s state in `slot`; returns the state it replaced.
    pub(crate) fn set(&mut self, slot: usize, cell: usize, st: SubpageState) -> SubpageState {
        let old = self.slots[slot].set(cell, st);
        let atomic = |s: SubpageState| u32::from(s == SubpageState::Atomic);
        self.atomics = self.atomics + atomic(st) - atomic(old);
        old
    }

    /// [`Holders::update`] on the list in `slot`, keeping the page's
    /// count of `Atomic` copies.
    pub(crate) fn update(
        &mut self,
        slot: usize,
        mut f: impl FnMut(usize, SubpageState) -> SubpageState,
    ) {
        let atomics = &mut self.atomics;
        let atomic = |s: SubpageState| u32::from(s == SubpageState::Atomic);
        self.slots[slot].update(|c, s| {
            let new = f(c, s);
            *atomics = *atomics + atomic(new) - atomic(s);
            new
        });
    }

    /// Whether `cell` holds a sub-page of this page `Atomic`, which pins
    /// the page in its local cache.
    pub(crate) fn pins(&self, cell: usize) -> bool {
        self.atomics > 0
            && self
                .slots
                .iter()
                .any(|h| h.state_of(cell) == SubpageState::Atomic)
    }
}

/// Page and slot of a sub-page.
pub(crate) fn split(subpage: u64) -> (u64, usize) {
    let per_page = SUBPAGES_PER_PAGE as u64;
    (subpage / per_page, (subpage % per_page) as usize)
}

/// The global sub-page → holders map, chunked by page (see the module
/// docs).
#[derive(Debug, Clone, Default)]
pub struct Directory {
    pages: FxHashMap<u64, Box<Chunk>>,
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
        let (page, slot) = split(subpage);
        self.chunk(page)
            .map(|chunk| chunk.holders(slot))
            .filter(|h| !h.is_empty())
    }

    /// State of `cell`'s copy of `subpage`.
    #[must_use]
    pub fn state_of(&self, subpage: u64, cell: usize) -> SubpageState {
        self.holders(subpage)
            .map_or(SubpageState::Missing, |h| h.state_of(cell))
    }

    /// Set `cell`'s state for `subpage`; returns the state it replaced.
    /// Removing a copy from a page never touched allocates nothing.
    pub fn set(&mut self, subpage: u64, cell: usize, st: SubpageState) -> SubpageState {
        let (page, slot) = split(subpage);
        if st == SubpageState::Missing {
            return self
                .chunk_mut(page)
                .map_or(SubpageState::Missing, |chunk| chunk.set(slot, cell, st));
        }
        self.chunk_or_insert(page).set(slot, cell, st)
    }

    /// The holder slots of `page`, if any sub-page of it was ever held.
    pub(crate) fn chunk(&self, page: u64) -> Option<&Chunk> {
        self.pages.get(&page).map(|chunk| &**chunk)
    }

    /// Mutable [`Self::chunk`], for page-granular walks.
    pub(crate) fn chunk_mut(&mut self, page: u64) -> Option<&mut Chunk> {
        self.pages.get_mut(&page).map(|chunk| &mut **chunk)
    }

    /// [`Self::chunk_mut`], allocating the page's slots on first use.
    pub(crate) fn chunk_or_insert(&mut self, page: u64) -> &mut Chunk {
        self.pages.entry(page).or_insert_with(Chunk::new)
    }

    /// Coherence invariant check on one sub-page: at most one writable
    /// copy, and no readable copy coexisting with a writable one
    /// elsewhere. Costs O(holders of `subpage`); the protocol's debug
    /// assertions run it at the end of every path that changes `subpage`.
    #[must_use]
    pub fn violation_at(&self, subpage: u64) -> bool {
        self.holders(subpage)
            .is_some_and(Holders::violates_single_writer)
    }

    /// [`Self::violation_at`] over the whole directory: returns the
    /// lowest violating sub-page, if any. Used by tests.
    #[must_use]
    pub fn find_violation(&self) -> Option<u64> {
        let per_page = SUBPAGES_PER_PAGE as u64;
        self.pages
            .iter()
            .flat_map(|(&page, chunk)| (page * per_page..).zip(&chunk.slots))
            .filter(|(_, h)| h.violates_single_writer())
            .map(|(sp, _)| sp)
            .min()
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

    /// A slot is 24 bytes, so one page's chunk of 128 slots is 3 KB plus
    /// its atomic count, allocated once per page touched: a 32-cell FIG2
    /// machine warms 64 MB, 4096 pages. An empty or one-holder slot lives
    /// inside those 24 bytes; only lists of two or more holders allocate.
    #[test]
    fn short_lists_stay_small() {
        assert_eq!(std::mem::size_of::<Holders>(), 24);
        assert_eq!(std::mem::size_of::<Chunk>(), 3 * 1024 + 8);
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
    #[derive(Debug, Default)]
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

        /// Apply a sweep logged as `(cell, old, new)` triples: it must have
        /// visited exactly the live entries, in order, with their states.
        fn sweep(&mut self, log: &[(usize, SubpageState, SubpageState)]) {
            let visited: Vec<_> = log.iter().map(|&(c, s, _)| (c, s)).collect();
            assert_eq!(visited, self.0, "a sweep visits every holder in order");
            for (e, &(_, _, new)) in self.0.iter_mut().zip(log) {
                e.1 = new;
            }
        }

        fn state_of(&self, cell: usize) -> SubpageState {
            self.0
                .iter()
                .find(|&&(c, _)| c == cell)
                .map_or(SubpageState::Missing, |&(_, s)| s)
        }

        fn violates_single_writer(&self) -> bool {
            let writers = self.0.iter().filter(|(_, s)| s.writable()).count();
            let readers = self.0.iter().filter(|(_, s)| s.readable()).count();
            writers > 1 || (writers == 1 && readers > 1)
        }
    }

    /// A sweep's new state for one holder, drawn from `rng` (never
    /// `Missing`; a third of the holders keep theirs), logged for the
    /// reference model.
    fn seeded_sweep<'a>(
        rng: &'a mut XorShift64,
        log: &'a mut Vec<(usize, SubpageState, SubpageState)>,
    ) -> impl FnMut(usize, SubpageState) -> SubpageState + 'a {
        use SubpageState::*;
        move |c, s| {
            let new = match rng.next_index(6) {
                0 | 1 => s,
                2 => Invalid,
                3 => Shared,
                4 => Exclusive,
                _ => Atomic,
            };
            log.push((c, s, new));
            new
        }
    }

    /// Whether `h` uses the one representation its length calls for.
    fn canonical(h: &Holders) -> bool {
        let live = h.iter().count();
        match &h.0 {
            Repr::Empty => live == 0,
            Repr::One(_) => live == 1,
            Repr::Short(v) => v.len() == live && (2..=INDEX_ABOVE).contains(&live),
            Repr::Long(l) => l.entries.len() > INDEX_ABOVE,
        }
    }

    /// Differential test: seeded random `set` sequences over up to 1088
    /// cells, phases alternating growth and shrinkage so lists cross the
    /// one-holder boundary and the index threshold in both directions.
    /// One step in twenty is an in-place sweep (`update`) instead, on
    /// one-holder, short and long lists, tombstones included. After
    /// every step each query must agree with the naive reference model,
    /// `set` must return the state it replaced, and a sweep must visit
    /// exactly the live holders in order.
    #[test]
    fn holders_match_a_naive_reference_model() {
        use SubpageState::*;
        const STATES: [SubpageState; 5] = [Missing, Invalid, Shared, Exclusive, Atomic];
        let mut rng = XorShift64::new(0x4b53_5231);
        let (mut indexed, mut unindexed, mut to_one, mut from_one) = (0, 0, 0, 0);
        // Sweeps of one-holder, short, long and tombstoned long lists.
        let mut swept = [0; 4];
        let mut log = Vec::new();
        for _ in 0..6 {
            let mut h = Holders::default();
            let mut r = Reference::default();
            for _phase in 0..8 {
                // Cell span and removal rate for this phase: the narrowest
                // span hovers around one holder, the next ones around the
                // index threshold, the full span grows lists to hundreds
                // of entries, high removal rates shrink them.
                let span = [3, 12, 24, 40, 1088][rng.next_index(5)];
                let p_missing = [0.1, 0.4, 0.8][rng.next_index(3)];
                for _ in 0..400 {
                    if rng.next_bool(0.05) {
                        let kind = match &h.0 {
                            Repr::Empty => None,
                            Repr::One(_) => Some(0),
                            Repr::Short(_) => Some(1),
                            Repr::Long(l) if l.entries.len() == l.live => Some(2),
                            Repr::Long(_) => Some(3),
                        };
                        if let Some(k) = kind {
                            swept[k] += 1;
                        }
                        log.clear();
                        h.update(seeded_sweep(&mut rng, &mut log));
                        r.sweep(&log);
                        assert!(canonical(&h), "representation after a sweep");
                        assert!(h.iter().eq(r.0.iter().copied()), "sweep keeps places");
                        for probe in [rng.next_index(1088), rng.next_index(span)] {
                            assert_eq!(h.state_of(probe), r.state_of(probe));
                        }
                        assert_eq!(
                            h.atomic_holder(),
                            r.0.iter().find(|(_, s)| *s == Atomic).map(|&(c, _)| c)
                        );
                        assert_eq!(h.any_valid(), r.0.iter().any(|(_, s)| s.readable()));
                        assert_eq!(
                            h.readable_count(),
                            r.0.iter().filter(|(_, s)| s.readable()).count()
                        );
                        continue;
                    }
                    let cell = rng.next_index(span);
                    let st = if rng.next_bool(p_missing) {
                        Missing
                    } else {
                        STATES[1 + rng.next_index(4)]
                    };
                    let was_indexed = matches!(h.0, Repr::Long(_));
                    let was_one = matches!(h.0, Repr::One(_));
                    assert_eq!(h.set(cell, st), r.state_of(cell), "replaced state");
                    r.set(cell, st);
                    match (was_indexed, matches!(h.0, Repr::Long(_))) {
                        (false, true) => indexed += 1,
                        (true, false) => unindexed += 1,
                        _ => {}
                    }
                    match (was_one, matches!(h.0, Repr::One(_))) {
                        (false, true) if r.0.len() == 1 && st == Missing => to_one += 1,
                        (true, false) if r.0.len() == 2 => from_one += 1,
                        _ => {}
                    }
                    assert!(canonical(&h), "representation of {} holders", r.0.len());
                    assert!(h.iter().eq(r.0.iter().copied()), "iteration order");
                    assert_eq!(h.state_of(cell), r.state_of(cell));
                    let probe = rng.next_index(1088);
                    assert_eq!(h.state_of(probe), r.state_of(probe));
                    assert_eq!(
                        h.atomic_holder(),
                        r.0.iter().find(|(_, s)| *s == Atomic).map(|&(c, _)| c)
                    );
                    assert_eq!(h.any_valid(), r.0.iter().any(|(_, s)| s.readable()));
                    assert_eq!(
                        h.readable_count(),
                        r.0.iter().filter(|(_, s)| s.readable()).count()
                    );
                    assert_eq!(h.is_empty(), r.0.is_empty());
                }
            }
        }
        assert!(
            indexed > 0 && unindexed > 0,
            "lists must cross the index threshold both ways ({indexed} up, {unindexed} down)"
        );
        assert!(
            to_one > 0 && from_one > 0,
            "lists must cross the one-holder boundary both ways ({from_one} up, {to_one} down)"
        );
        assert!(
            swept.iter().all(|&n| n >= 5),
            "sweeps of one-holder, short, long and tombstoned lists: {swept:?}"
        );
    }

    /// Differential test of the page-chunked map against a flat
    /// `BTreeMap` keyed by sub-page. The sub-pages straddle chunk
    /// boundaries (slots 127/128/129 of neighbouring pages) and sit above
    /// 2^32, where a truncated page or slot index would alias; removal
    /// rates are high enough to empty slots, which `holders` must then
    /// report as `None`, and `find_violation` must name the absolute
    /// sub-page. A chunk counts its `Atomic` copies exactly, and pins a
    /// cell exactly when the cell holds one of its sub-pages `Atomic`,
    /// also after a sweep through [`Chunk::update`] moved its count.
    #[test]
    fn directory_matches_a_flat_map_model() {
        use std::collections::{BTreeMap, BTreeSet};
        use SubpageState::*;
        const HIGH: u64 = (1 << 32) + 1;
        const SUBPAGES: [u64; 10] = [
            0,
            127,
            128,
            129,
            255,
            256,
            HIGH * 128 - 1,
            HIGH * 128,
            HIGH * 128 + 1,
            (1 << 40) + 5,
        ];
        let mut rng = XorShift64::new(0x4b53_5244);
        let mut d = Directory::new();
        let mut model: BTreeMap<u64, Reference> = BTreeMap::new();
        let (mut emptied, mut clean, mut atomic_sweeps) = (0, 0, 0);
        let mut first_violations = BTreeSet::new();
        let mut log = Vec::new();
        for step in 0..6000 {
            // Phases of 500 steps alternately fill and drain the slots.
            // Copies are mostly readers and place holders, so a writer
            // beside them (a violation) comes and goes rather than
            // sticking.
            let p_missing = if (step / 500) % 2 == 0 { 0.2 } else { 0.8 };
            let sp = SUBPAGES[rng.next_index(SUBPAGES.len())];
            let (page, slot) = split(sp);
            if rng.next_bool(0.1) {
                // A sweep in place; a sub-page never held has no list.
                if let Some(chunk) = d.chunk_mut(page) {
                    let before = chunk.atomics;
                    log.clear();
                    chunk.update(slot, seeded_sweep(&mut rng, &mut log));
                    atomic_sweeps += usize::from(chunk.atomics != before);
                    if let Some(r) = model.get_mut(&sp) {
                        r.sweep(&log);
                    } else {
                        assert!(log.is_empty(), "sp {sp} has no holders to sweep");
                    }
                }
            } else {
                let cell = rng.next_index(6);
                let st = if rng.next_bool(p_missing) {
                    Missing
                } else {
                    match rng.next_index(20) {
                        0 => Exclusive,
                        1 => Atomic,
                        2..=7 => Invalid,
                        _ => Shared,
                    }
                };
                let r = model.entry(sp).or_default();
                let was_held = !r.0.is_empty();
                assert_eq!(d.set(sp, cell, st), r.state_of(cell), "replaced state");
                r.set(cell, st);
                if r.0.is_empty() {
                    model.remove(&sp);
                    emptied += usize::from(was_held);
                }
            }
            for &q in &SUBPAGES {
                let want = model.get(&q);
                match (d.holders(q), want) {
                    (None, None) => {}
                    (Some(h), Some(r)) => assert!(h.iter().eq(r.0.iter().copied()), "sp {q}"),
                    (got, _) => panic!("sp {q}: holders {got:?}, model {want:?}"),
                }
                for c in 0..6 {
                    let want = want.map_or(Missing, |r| r.state_of(c));
                    assert_eq!(d.state_of(q, c), want, "sp {q} cell {c}");
                }
                let bad = want.is_some_and(Reference::violates_single_writer);
                assert_eq!(d.violation_at(q), bad, "sp {q}");
                let page = q / SUBPAGES_PER_PAGE as u64;
                let atomics = model
                    .iter()
                    .filter(|(&sp, _)| sp / SUBPAGES_PER_PAGE as u64 == page)
                    .flat_map(|(_, r)| &r.0)
                    .filter(|(_, s)| *s == Atomic)
                    .count();
                assert_eq!(
                    d.chunk(page).map_or(0, |chunk| chunk.atomics as usize),
                    atomics,
                    "page {page} atomic count"
                );
                for c in 0..6 {
                    let pinned = model.iter().any(|(&sp, r)| {
                        sp / SUBPAGES_PER_PAGE as u64 == page && r.state_of(c) == Atomic
                    });
                    assert_eq!(
                        d.chunk(page).is_some_and(|chunk| chunk.pins(c)),
                        pinned,
                        "page {page} cell {c}"
                    );
                }
            }
            let first_bad = model
                .iter()
                .find(|(_, r)| r.violates_single_writer())
                .map(|(&q, _)| q);
            match first_bad {
                Some(q) => {
                    first_violations.insert(q);
                }
                None => clean += 1,
            }
            assert_eq!(d.find_violation(), first_bad);
        }
        assert!(emptied > 100, "slots must empty often ({emptied})");
        assert!(
            atomic_sweeps > 20,
            "sweeps must move chunks' atomic counts ({atomic_sweeps})"
        );
        assert!(clean > 100, "violations must come and go ({clean} clean)");
        assert!(
            first_violations.len() >= 5,
            "violations must show up across chunks: {first_violations:?}"
        );
    }
}
