//! `ksr-sim` — command-line front end for the KSR-1 simulator.
//!
//! ```text
//! ksr-sim info                          # machine presets and calibration
//! ksr-sim latency  [--procs N]          # §3.1-style latency probe
//! ksr-sim barriers [--procs N] [--machine ksr1|ksr2|symmetry|butterfly]
//! ksr-sim lock     [--procs N] [--read-pct P]
//! ksr-sim ep|cg|is|sp [--procs N]       # one kernel run, verified
//! ```
//!
//! `--procs` takes 1..=32 (`barriers`: 2..=32, or 2..=64 on `ksr2`) and
//! `--read-pct` 0..=100. An unknown command or option, a missing or
//! unparsable value, a value out of range, or an unknown `--machine`
//! prints `error: ...` and the usage line and exits with status 2.

use std::process::ExitCode;

use ksr1_repro::core::time::cycles_to_seconds;
use ksr1_repro::machine::{program, Machine, SharedU64};
use ksr1_repro::nas::is::generate_keys;
use ksr1_repro::nas::{
    cg_sequential, ranks_are_valid, CgConfig, CgSetup, EpConfig, EpSetup, IsConfig, IsSetup,
    SpConfig, SpSetup,
};
use ksr1_repro::sync::{AnyBarrier, BarrierAlg, BarrierKind, Episode, HwLock, LockMode, SwRwLock};

const USAGE: &str = "usage: ksr-sim <info|latency|barriers|lock|ep|cg|is|sp> \
                     [--procs N] [--machine ksr1|ksr2|symmetry|butterfly] [--read-pct P]";

/// The machines `barriers` can run on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MachineKind {
    Ksr1,
    Ksr2,
    Symmetry,
    Butterfly,
}

impl MachineKind {
    const ALL: [Self; 4] = [Self::Ksr1, Self::Ksr2, Self::Symmetry, Self::Butterfly];

    fn name(self) -> &'static str {
        match self {
            Self::Ksr1 => "ksr1",
            Self::Ksr2 => "ksr2",
            Self::Symmetry => "symmetry",
            Self::Butterfly => "butterfly",
        }
    }

    fn max_procs(self) -> usize {
        if self == Self::Ksr2 {
            64
        } else {
            32
        }
    }

    fn build(self, procs: usize) -> ksr1_repro::core::Result<Machine> {
        match self {
            Self::Ksr1 => Machine::ksr1(7),
            Self::Ksr2 => Machine::ksr2(7),
            Self::Symmetry => Machine::symmetry(procs, 7),
            Self::Butterfly => Machine::butterfly(procs, 7),
        }
    }
}

/// A parsed, range-checked command line.
#[derive(Debug, PartialEq, Eq)]
enum Cmd {
    Info,
    Latency { procs: usize },
    Barriers { machine: MachineKind, procs: usize },
    Lock { procs: usize, read_pct: u64 },
    Ep { procs: usize },
    Cg { procs: usize },
    Is { procs: usize },
    Sp { procs: usize },
}

/// The `--name value` options of one command, restricted to `allowed`.
struct Flags<'a>(Vec<(&'a str, &'a str)>);

impl<'a> Flags<'a> {
    fn parse(args: &'a [String], allowed: &[&str]) -> Result<Self, String> {
        let mut pairs = Vec::new();
        let mut it = args.iter();
        while let Some(name) = it.next() {
            if !allowed.contains(&name.as_str()) {
                return Err(format!("unknown option {name}"));
            }
            let value = it.next().ok_or_else(|| format!("{name} needs a value"))?;
            pairs.push((name.as_str(), value.as_str()));
        }
        Ok(Self(pairs))
    }

    fn get(&self, name: &str) -> Option<&'a str> {
        self.0
            .iter()
            .rev()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }

    /// The integer value of `name` (or `default`), which must lie in
    /// `lo..=hi`.
    fn int(&self, name: &str, default: usize, lo: usize, hi: usize) -> Result<usize, String> {
        let Some(v) = self.get(name) else {
            return Ok(default);
        };
        v.parse()
            .ok()
            .filter(|n| (lo..=hi).contains(n))
            .ok_or_else(|| format!("{name} must be an integer in {lo}..={hi}, got {v:?}"))
    }
}

fn parse(args: &[String]) -> Result<Cmd, String> {
    let (cmd, rest) = args.split_first().ok_or("no command given")?;
    let procs_only = |default| Flags::parse(rest, &["--procs"])?.int("--procs", default, 1, 32);
    Ok(match cmd.as_str() {
        "info" => {
            Flags::parse(rest, &[])?;
            Cmd::Info
        }
        "latency" => Cmd::Latency {
            procs: procs_only(1)?,
        },
        "barriers" => {
            let flags = Flags::parse(rest, &["--procs", "--machine"])?;
            let name = flags.get("--machine").unwrap_or("ksr1");
            let machine = MachineKind::ALL
                .into_iter()
                .find(|m| m.name() == name)
                .ok_or_else(|| format!("unknown machine {name:?}"))?;
            let procs = flags.int("--procs", 16, 2, machine.max_procs())?;
            Cmd::Barriers { machine, procs }
        }
        "lock" => {
            let flags = Flags::parse(rest, &["--procs", "--read-pct"])?;
            Cmd::Lock {
                procs: flags.int("--procs", 8, 1, 32)?,
                read_pct: flags.int("--read-pct", 0, 0, 100)? as u64,
            }
        }
        "ep" => Cmd::Ep {
            procs: procs_only(8)?,
        },
        "cg" => Cmd::Cg {
            procs: procs_only(8)?,
        },
        "is" => Cmd::Is {
            procs: procs_only(8)?,
        },
        "sp" => Cmd::Sp {
            procs: procs_only(8)?,
        },
        other => return Err(format!("unknown command {other:?}")),
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = match parse(&args) {
        Ok(cmd) => cmd,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match cmd {
        Cmd::Info => info(),
        Cmd::Latency { procs } => latency(procs),
        Cmd::Barriers { machine, procs } => barriers(machine, procs),
        Cmd::Lock { procs, read_pct } => lock(procs, read_pct),
        Cmd::Ep { procs } => ep(procs),
        Cmd::Cg { procs } => cg(procs),
        Cmd::Is { procs } => is(procs),
        Cmd::Sp { procs } => sp(procs),
    }
    ExitCode::SUCCESS
}

fn info() {
    println!("simulated machines:");
    println!("  ksr1       32 cells, 20 MHz, 1-level slotted ring (24 slots, 2 sub-rings)");
    println!("  ksr2       64 cells, 40 MHz, 2-level ring via ARD routers");
    println!("  symmetry   bus-based snooping machine (16 MHz, native fetch-and-add)");
    println!("  butterfly  dance-hall MIN, no coherent caches");
    println!();
    println!("KSR-1 calibration (published / modelled):");
    println!("  sub-cache hit      2 / 2 cycles");
    println!("  local-cache hit   18 / 18 cycles");
    println!("  remote access    175 / ~176 cycles");
    println!("  block-alloc stride  +50% / +50%");
    println!("  page-alloc stride   +60% / +60%");
}

fn latency(procs: usize) {
    let mut m = Machine::ksr1(1).expect("machine");
    let arrays: Vec<u64> = (0..procs)
        .map(|_| m.alloc(1 << 20, 16384).expect("alloc"))
        .collect();
    let results = SharedU64::alloc(&mut m, 2 * procs).expect("alloc");
    for (p, &a) in arrays.iter().enumerate() {
        m.warm((p + 1) % 32, a, 1 << 20);
    }
    m.run(
        (0..procs)
            .map(|p| {
                let a = arrays[p];
                program(move |mut cpu| async move {
                    let samples = 512u64;
                    let t0 = cpu.now();
                    for i in 0..samples {
                        let _ = cpu.read_u64(a + i * 128).await;
                    }
                    let mean = (cpu.now() - t0) / samples;
                    results.set(&mut cpu, 2 * p, mean).await;
                    let t0 = cpu.now();
                    for i in 0..samples {
                        cpu.write_u64(a + i * 128 + 65536 * 8, i).await;
                    }
                    let mean = (cpu.now() - t0) / samples;
                    results.set(&mut cpu, 2 * p + 1, mean).await;
                })
            })
            .collect(),
    )
    .expect("run");
    let rd: u64 = (0..procs).map(|p| results.peek(&mut m, 2 * p)).sum::<u64>() / procs as u64;
    let wr: u64 = (0..procs)
        .map(|p| results.peek(&mut m, 2 * p + 1))
        .sum::<u64>()
        / procs as u64;
    println!("{procs} procs hammering remote sub-pages:");
    println!("  remote read  {rd} cycles   (published idle: 175)");
    println!("  remote write {wr} cycles");
}

fn barriers(machine: MachineKind, procs: usize) {
    println!("{}, {procs} processors, us per episode:", machine.name());
    let mut rows: Vec<(f64, &str)> = Vec::new();
    for kind in BarrierKind::ALL {
        let mut m = machine.build(procs).expect("machine");
        if !m.mem().fabric().has_coherent_caches() && kind.needs_coherent_caches() {
            continue;
        }
        let b = AnyBarrier::alloc(kind, &mut m, procs).expect("alloc");
        let eps = 10usize;
        let r = m
            .run(
                (0..procs)
                    .map(|p| {
                        program(move |mut cpu| async move {
                            let mut ep = Episode::default();
                            for e in 0..eps {
                                cpu.compute(((p * 89 + e * 37) % 200) as u64 + 20);
                                b.wait(&mut cpu, &mut ep).await;
                            }
                        })
                    })
                    .collect(),
            )
            .expect("run");
        rows.push((
            cycles_to_seconds(r.duration_cycles() / eps as u64, m.config().clock_hz) * 1e6,
            kind.label(),
        ));
    }
    rows.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite"));
    for (t, label) in rows {
        println!("  {label:<14} {t:8.1}");
    }
}

fn lock(procs: usize, read_pct: u64) {
    let mut m = Machine::ksr1(9).expect("machine");
    let hw = HwLock::alloc(&mut m).expect("alloc");
    let sw = SwRwLock::alloc(&mut m).expect("alloc");
    let ops = 200usize.div_ceil(procs);
    for use_sw in [false, true] {
        let r = m
            .run(
                (0..procs)
                    .map(|p| {
                        program(move |mut cpu| async move {
                            let mut rng = ksr1_repro::core::XorShift64::new(p as u64 + 1);
                            for _ in 0..ops {
                                if use_sw {
                                    let mode = if rng.next_below(100) < read_pct {
                                        LockMode::Read
                                    } else {
                                        LockMode::Write
                                    };
                                    let t = sw.acquire(&mut cpu, mode).await;
                                    cpu.compute(3_000);
                                    sw.release(&mut cpu, t).await;
                                } else {
                                    hw.acquire(&mut cpu).await;
                                    cpu.compute(3_000);
                                    hw.release(&mut cpu).await;
                                }
                                cpu.compute(10_000);
                            }
                        })
                    })
                    .collect(),
            )
            .expect("run");
        println!(
            "{}: {:.4}s for {} total ops at {procs} procs",
            if use_sw {
                format!("software RW lock ({read_pct}% reads)")
            } else {
                "hardware exclusive lock".into()
            },
            cycles_to_seconds(r.duration_cycles(), m.config().clock_hz),
            ops * procs,
        );
    }
}

fn ep(procs: usize) {
    let cfg = EpConfig {
        pairs: 1 << 16,
        ..EpConfig::default()
    };
    let mut m = Machine::ksr1(11).expect("machine");
    let setup = EpSetup::new(&mut m, cfg, procs).expect("setup");
    let r = m.run(setup.programs()).expect("run");
    let res = setup.result(&mut m);
    println!(
        "EP 2^16 pairs on {procs} procs: {:.4}s, {:.1} MFLOPS total, counts {:?}",
        r.seconds(),
        r.mflops(),
        res.counts
    );
}

fn cg(procs: usize) {
    let cfg = CgConfig {
        n: 700,
        offdiag_per_row: 72,
        iterations: 4,
        seed: 1,
        poststore: false,
        uncache_matrix: false,
    };
    let reference = cg_sequential(&cfg);
    let mut m = Machine::ksr1_scaled(12, 64).expect("machine");
    let setup = CgSetup::new(&mut m, cfg, procs).expect("setup");
    let r = m.run(setup.programs()).expect("run");
    let got = setup.result(&mut m);
    assert_eq!(
        got.x_checksum.to_bits(),
        reference.x_checksum.to_bits(),
        "verification failed"
    );
    println!(
        "CG n={} on {procs} procs: {:.4}s, residual^2 {:.3e} (bitwise-verified)",
        cfg.n,
        r.seconds(),
        got.residual_sq
    );
}

fn is(procs: usize) {
    let cfg = IsConfig {
        keys: 1 << 14,
        max_key: 1 << 10,
        seed: 2,
        chunk: 128,
    };
    let keys = generate_keys(&cfg);
    let mut m = Machine::ksr1_scaled(13, 64).expect("machine");
    let setup = IsSetup::new(&mut m, cfg, procs).expect("setup");
    let r = m.run(setup.programs()).expect("run");
    let ranks = setup.ranks(&mut m);
    assert!(ranks_are_valid(&keys, &ranks), "verification failed");
    println!(
        "IS 2^14 keys on {procs} procs: {:.4}s, mean remote latency {:.1} cycles (verified)",
        r.seconds(),
        m.perfmon_total().mean_ring_latency()
    );
}

fn sp(procs: usize) {
    let cfg = SpConfig {
        n: 16,
        iterations: 2,
        ..SpConfig::default()
    };
    let mut m = Machine::ksr1(14).expect("machine");
    let setup = SpSetup::new(&mut m, cfg, procs).expect("setup");
    let r = m.run(setup.programs()).expect("run");
    println!(
        "SP {n}^3 on {procs} procs: {:.4}s/iteration",
        r.seconds() / cfg.iterations as f64,
        n = cfg.n
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_line(line: &str) -> Result<Cmd, String> {
        parse(
            &line
                .split_whitespace()
                .map(String::from)
                .collect::<Vec<_>>(),
        )
    }

    #[test]
    fn defaults_and_in_range_values_parse() {
        assert_eq!(parse_line("latency"), Ok(Cmd::Latency { procs: 1 }));
        assert_eq!(
            parse_line("lock"),
            Ok(Cmd::Lock {
                procs: 8,
                read_pct: 0
            })
        );
        assert_eq!(
            parse_line("lock --read-pct 100 --procs 32"),
            Ok(Cmd::Lock {
                procs: 32,
                read_pct: 100
            })
        );
        assert_eq!(
            parse_line("barriers --machine ksr2 --procs 64"),
            Ok(Cmd::Barriers {
                machine: MachineKind::Ksr2,
                procs: 64
            })
        );
        assert_eq!(parse_line("sp --procs 1"), Ok(Cmd::Sp { procs: 1 }));
    }

    #[test]
    fn range_errors_name_the_range() {
        assert_eq!(
            parse_line("barriers --procs 33"),
            Err("--procs must be an integer in 2..=32, got \"33\"".into())
        );
        assert_eq!(
            parse_line("lock --read-pct -1"),
            Err("--read-pct must be an integer in 0..=100, got \"-1\"".into())
        );
        assert_eq!(
            parse_line("barriers --machine nope"),
            Err("unknown machine \"nope\"".into())
        );
    }
}
