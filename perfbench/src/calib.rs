//! Fixed reference kernels that measure how fast the host runs right now.
//!
//! On a 2-core virtual host shared with other tenants the speed of the same
//! single-threaded code drifts for longer than a run, so no statistic
//! inside one run removes it. Each workload therefore times a kernel that
//! resembles its own hot loop right before and right after every
//! repetition, and reports its times in reference seconds: measured time ×
//! the kernel's nominal time ÷ the kernel's measured time. The kernels are
//! part of the benchmark, not of the workspace, so a change to the
//! workspace moves the workload's times and not the kernel's.
//!
//! A kernel has to resemble the workload to follow its drift. Over eight
//! identical 30-second compress-line runs on one worker the median chain
//! rate spread (IQR ÷ median) 20% in plain seconds, 13% against
//! [`Kernel::Engine`] and 4% against [`Kernel::Chain`]; over ten identical
//! 12-second sweep-churn runs the median repetition spread 12% in plain
//! seconds and 5% against [`Kernel::Engine`].

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// A reference kernel.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kernel {
    /// Like a Metropolis step: a random site and direction on a 64 × 64
    /// byte grid (L1-resident), six neighbour reads, and a move or a fill
    /// decided by a data-dependent branch.
    Chain,
    /// Like the engine's per-job work: random read-modify-writes into a
    /// 64 KiB table, string formatting, sorting and inserts into an
    /// ordered map.
    Engine,
}

impl Kernel {
    /// About one call's wall time on an idle 2-vCPU host (Intel Xeon VM);
    /// measured times are scaled to this speed.
    #[must_use]
    pub fn nominal_s(self) -> f64 {
        match self {
            Kernel::Chain => 0.0023,
            Kernel::Engine => 0.0045,
        }
    }

    fn call(self, seed: u64) -> u64 {
        match self {
            Kernel::Chain => chain(seed),
            Kernel::Engine => engine(seed),
        }
    }
}

/// SplitMix64's output function on a Weyl sequence.
fn mix(x: u64) -> u64 {
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

const GOLDEN: u64 = 0x9e37_79b9_7f4a_7c15;

fn chain(seed: u64) -> u64 {
    const SIDE: usize = 64;
    const CELLS: usize = SIDE * SIDE;
    const DIRS: [usize; 6] = [1, CELLS - 1, SIDE, CELLS - SIDE, SIDE - 1, CELLS - SIDE + 1];
    let mut grid = [0_u8; CELLS];
    let mut x = seed;
    let mut acc = 0_u64;
    for _ in 0..1_u64 << 18 {
        x = x.wrapping_add(GOLDEN);
        let z = mix(x);
        let p = (z as usize) & (CELLS - 1);
        let q = (p + DIRS[((z >> 12) % 6) as usize]) & (CELLS - 1);
        let neighbours: u64 = DIRS
            .iter()
            .map(|d| u64::from(grid[(p + d) & (CELLS - 1)] & 1))
            .sum();
        if grid[p] != 0 && grid[q] == 0 && neighbours <= (z >> 40) & 7 {
            grid[q] = 1;
            grid[p] = 0;
        } else if grid[p] == 0 && (z >> 50) & 3 == 0 {
            grid[p] = 1;
        }
        acc += neighbours;
    }
    acc
}

fn engine(seed: u64) -> u64 {
    const TABLE: usize = 1 << 14;
    const BATCH: usize = 256;
    let mut map: BTreeMap<u64, String> = BTreeMap::new();
    let mut batch: Vec<String> = Vec::with_capacity(BATCH);
    let mut table = vec![0_u32; TABLE];
    let mut x = seed;
    let mut acc = 0_u64;
    for i in 0..1_u64 << 14 {
        x = x.wrapping_add(GOLDEN);
        let z = mix(x);
        for k in 0..8 {
            let j = ((z >> (k * 8)) as usize) & (TABLE - 1);
            table[j] = table[j].wrapping_add(z as u32);
            if table[j] & 1 == 0 {
                acc = acc.wrapping_add(u64::from(table[j]));
            }
        }
        batch.push(format!("{z:x}.{i}"));
        if batch.len() == BATCH {
            batch.sort_unstable();
            for s in batch.drain(..).step_by(16) {
                map.insert((z & 4095) ^ s.len() as u64, s);
            }
        }
    }
    acc ^ map.len() as u64
}

/// Mean wall time of one call of `kernel`, over calls made until
/// `budget_s` has passed (at least one).
#[must_use]
pub fn sample(kernel: Kernel, budget_s: f64) -> f64 {
    let t = Instant::now();
    let mut calls = 0_u32;
    loop {
        black_box(kernel.call(black_box(u64::from(calls))));
        calls += 1;
        if t.elapsed().as_secs_f64() >= budget_s {
            return t.elapsed().as_secs_f64() / f64::from(calls);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernels_are_deterministic_and_depend_on_their_seed() {
        for k in [Kernel::Chain, Kernel::Engine] {
            assert_eq!(k.call(1), k.call(1));
            assert_ne!(k.call(1), k.call(2));
        }
    }

    #[test]
    fn sample_makes_at_least_one_call() {
        let s = sample(Kernel::Engine, 0.0);
        assert!(s > 0.0 && s < 1.0);
    }
}
