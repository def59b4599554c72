//! The remote-read stream: the measurement behind the paper's
//! saturation results (§3.1, §3.3.2), where several processors read
//! remote data at once and each read's latency shows how loaded the
//! interconnect is.

use ksr_core::Result;

use crate::arrays::SharedU64;
use crate::machine::Machine;
use crate::program::{program, Program};

/// Stream `samples` reads on each of `procs` processors at once and
/// return each processor's mean cycles per read.
///
/// Processor `p` reads its own `bytes`-long array (16 KB-aligned),
/// which starts out in the local cache of cell `home(p)`. Read `i` goes
/// to offset `i * 128` (wrapping within the array), a fresh sub-page
/// until the array wraps, so every read is a miss served by the home
/// cell. The arrays are allocated in processor order, then the vector
/// the processors report their means through.
///
/// # Errors
/// Allocation errors, and whatever [`Machine::run`] returns.
pub fn read_stream(
    m: &mut Machine,
    procs: usize,
    bytes: u64,
    samples: u64,
    home: impl Fn(usize) -> usize,
) -> Result<Vec<u64>> {
    let arrays = (0..procs)
        .map(|_| m.alloc(bytes, 16384))
        .collect::<Result<Vec<u64>>>()?;
    let means = SharedU64::alloc(m, procs)?;
    for (p, &a) in arrays.iter().enumerate() {
        m.warm(home(p), a, bytes);
    }
    let programs: Vec<Box<dyn Program>> = arrays
        .iter()
        .enumerate()
        .map(|(p, &a)| {
            program(move |mut cpu| async move {
                let t0 = cpu.now();
                for i in 0..samples {
                    let _ = cpu.read_u64(a + (i * 128) % bytes).await;
                }
                let mean = (cpu.now() - t0) / samples;
                means.set(&mut cpu, p, mean).await;
            })
        })
        .collect();
    m.run(programs)?;
    Ok((0..procs).map(|p| means.peek(m, p)).collect())
}
