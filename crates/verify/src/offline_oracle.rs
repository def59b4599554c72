//! The offline passes against the references they replaced
//! (`race::reference`, `predict::reference`), on seeded random traces:
//! every report and finding must be equal, field for field.

use ksr_core::rng::XorShift64;
use ksr_core::time::Cycles;
use ksr_core::trace::{TraceEvent, TraceState};

use crate::predict::reference::lockset_analysis as reference_lockset;
use crate::race::reference::RaceDetector as ReferenceDetector;
use crate::{lockset_analysis, RaceDetector};

const SP: u64 = 128;
/// Lock sub-pages, a sub-page only native RMWs touch, and a flag.
const LOCKS: [u64; 3] = [40, 41, 42];
const RMW_SP: u64 = 60;
const FLAG: u64 = 50 * SP;

/// A random trace over `cells` cells and `words` data words, four to a
/// sub-page, `len` draws long. It mixes reads by several cells per word,
/// writes, lock acquires and releases (balanced or not), native RMW
/// pairs, flag writes, reads and satisfied spins, barrier episodes, and
/// events neither pass reads. Stamps mostly advance, often repeat, and
/// sometimes step back.
fn random_trace(rng: &mut XorShift64, cells: usize, words: u64, len: usize) -> Vec<TraceEvent> {
    let mut at: Cycles = 1_000;
    let mut out = Vec::with_capacity(len + len / 8);
    for _ in 0..len {
        match rng.next_below(10) {
            0 => at = at.saturating_sub(rng.next_below(40)),
            1..=3 => {}
            _ => at += 1 + rng.next_below(6),
        }
        let cell = rng.next_index(cells);
        let w = rng.next_below(words);
        let addr = (1 + w / 4) * SP + 8 * (w % 4);
        let lock = LOCKS[rng.next_index(LOCKS.len())];
        let event = match rng.next_below(100) {
            0..=34 => TraceEvent::DataRead { at, cell, addr },
            35..=54 => TraceEvent::DataWrite { at, cell, addr },
            55..=62 => TraceEvent::SyncAcquire {
                at,
                cell,
                subpage: lock,
                rmw: false,
            },
            63..=70 => TraceEvent::SyncRelease {
                at,
                cell,
                subpage: lock,
                rmw: false,
            },
            71..=75 => {
                let subpage = if rng.next_bool(0.5) { RMW_SP } else { lock };
                out.push(TraceEvent::SyncAcquire {
                    at,
                    cell,
                    subpage,
                    rmw: true,
                });
                TraceEvent::SyncRelease {
                    at,
                    cell,
                    subpage,
                    rmw: true,
                }
            }
            76..=79 => TraceEvent::SpinRead {
                at,
                cell,
                addr: FLAG,
            },
            80..=83 => TraceEvent::DataWrite {
                at,
                cell,
                addr: FLAG + 8,
            },
            84..=86 => TraceEvent::DataRead {
                at,
                cell,
                addr: FLAG,
            },
            87..=91 => TraceEvent::BarrierEpisode {
                at,
                cell,
                episode: 1,
            },
            92..=95 => TraceEvent::Coherence {
                at,
                cell,
                subpage: addr / SP,
                from: TraceState::Missing,
                to: TraceState::Exclusive,
            },
            _ => TraceEvent::LockHandoff {
                at,
                cell,
                subpage: lock,
            },
        };
        out.push(event);
    }
    out
}

#[test]
fn offline_passes_match_their_references() {
    let mut rng = XorShift64::new(0x4f52_4143);
    let (mut races, mut read_first, mut capped, mut findings) = (0, 0, 0, 0);
    for round in 0..600 {
        let nprocs = 1 + round % 5;
        // Cells at or above `nprocs` appear too.
        let cells = nprocs + 2;
        let words = [3, 8, 160][round % 3];
        let len = 20 + rng.next_index(700);
        let events = random_trace(&mut rng, cells, words, len);

        let want = ReferenceDetector::new(nprocs).analyze(&events);
        let got = RaceDetector::new(nprocs).analyze(&events);
        assert_eq!(got, want, "race reports, round {round}");
        races += got.len();
        read_first += got.iter().filter(|r| !r.first.write).count();
        capped += usize::from(got.len() == 32);

        let want = reference_lockset(&events);
        let got = lockset_analysis(&events);
        assert_eq!(got, want, "lockset findings, round {round}");
        findings += got.len();
    }
    // The traces reach every kind of outcome.
    assert!(races > 1_000, "{races} races");
    assert!(read_first > 100, "{read_first} read-write races");
    assert!(capped > 10, "{capped} capped reports");
    assert!(findings > 1_000, "{findings} findings");
}
