//! Per-layer probes: timed calls into the lattice, system and core public
//! APIs on a workload's own configurations. Run only in the traced run,
//! outside every end-to-end window.

use std::hint::black_box;
use std::time::Instant;

use sops::core::{CompressionChain, KmcChain, LocalRunner, ShardedLocalRunner};
use sops::lattice::{Direction, TileGrid};
use sops::prelude::StdRng;
use sops::system::ParticleSystem;

use crate::report::Metrics;

/// Minimum wall time per probe, so short calls are averaged over many.
const PROBE_SECS: f64 = 0.02;

/// Repeats `pass` (which reports how many calls it made) until
/// [`PROBE_SECS`] have elapsed; returns nanoseconds per call.
fn per_call_ns(mut pass: impl FnMut() -> u64) -> f64 {
    let t = Instant::now();
    let mut calls = 0u64;
    while t.elapsed().as_secs_f64() < PROBE_SECS || calls == 0 {
        calls += pass();
    }
    t.elapsed().as_nanos() as f64 / calls.max(1) as f64
}

/// Mean of the per-call times measured on each configuration.
fn mean(values: impl IntoIterator<Item = f64>) -> f64 {
    let v: Vec<f64> = values.into_iter().collect();
    v.iter().sum::<f64>() / v.len().max(1) as f64
}

/// `lattice.*` and `system.*` probes (all but `system.spiral_s`) on each of
/// `configs`, averaged over them.
pub fn lattice_and_system(configs: &[&ParticleSystem], m: &mut Metrics) {
    let grids: Vec<TileGrid> = configs
        .iter()
        .map(|sys| {
            let mut g = TileGrid::with_site_capacity(sys.len());
            for (id, &p) in sys.positions().iter().enumerate() {
                g.insert(p, u32::try_from(id).expect("particle ids fit in u32"));
            }
            g
        })
        .collect();
    let sites = |sys: &ParticleSystem| sys.len() as u64;

    m.set(
        "lattice.get_ns",
        mean(configs.iter().zip(&grids).map(|(sys, g)| {
            per_call_ns(|| {
                for &p in sys.positions() {
                    for d in Direction::ALL {
                        black_box(g.get(p + d));
                    }
                }
                sites(sys) * 6
            })
        })),
    );
    m.set(
        "lattice.pair_ring_mask_ns",
        mean(configs.iter().zip(&grids).map(|(sys, g)| {
            per_call_ns(|| {
                for &p in sys.positions() {
                    for d in Direction::ALL {
                        black_box(g.pair_ring_mask(p, d));
                    }
                }
                sites(sys) * 6
            })
        })),
    );
    m.set(
        "lattice.window25_ns",
        mean(configs.iter().zip(&grids).map(|(sys, g)| {
            per_call_ns(|| {
                for &p in sys.positions() {
                    black_box(g.window25(p.x - 2, p.y - 2));
                }
                sites(sys)
            })
        })),
    );
    m.set(
        "system.check_move_ns",
        mean(configs.iter().map(|sys| {
            per_call_ns(|| {
                for &p in sys.positions() {
                    for d in Direction::ALL {
                        black_box(sys.check_move(p, d));
                    }
                }
                sites(sys) * 6
            })
        })),
    );
    m.set(
        "system.move_particle_ns",
        mean(configs.iter().map(|sys| {
            let mut work = (*sys).clone();
            per_call_ns(|| {
                let mut calls = 0;
                for id in 0..work.len() {
                    for d in Direction::ALL {
                        if work.move_particle(id, d).is_ok() {
                            work.move_particle(id, d.opposite())
                                .expect("the vacated site is free to move back into");
                            calls += 2;
                        }
                    }
                }
                calls.max(1)
            })
        })),
    );
    m.set(
        "system.perimeter_us",
        mean(configs.iter().map(|sys| {
            per_call_ns(|| {
                black_box(sys.perimeter());
                1
            })
        })) / 1e3,
    );
    m.set(
        "system.connected_ms",
        mean(configs.iter().map(|sys| {
            per_call_ns(|| {
                black_box(
                    ParticleSystem::connected(sys.positions().iter().copied())
                        .expect("a workload configuration is connected"),
                );
                1
            })
        })) / 1e6,
    );
}

/// `core.chain.*`, `core.kmc.*` and `core.local.*` probes from `start` at
/// `lambda`: `steps` chain steps, KMC steps and local activations.
pub fn samplers(start: &ParticleSystem, lambda: f64, seed: u64, steps: u64, m: &mut Metrics) {
    let mut chain =
        CompressionChain::from_seed(start.clone(), lambda, seed).expect("valid chain start");
    let t = Instant::now();
    chain.run(steps);
    m.set(
        "core.chain.step_ns",
        t.elapsed().as_nanos() as f64 / steps as f64,
    );
    m.set("core.chain.acceptance", chain.counts().acceptance_rate());

    let mut kmc = KmcChain::from_seed(start.clone(), lambda, seed).expect("valid KMC start");
    let t = Instant::now();
    let accepted = kmc.run(steps);
    let secs = t.elapsed().as_secs_f64();
    m.set("core.kmc.event_us", secs * 1e6 / accepted.max(1) as f64);
    m.set(
        "core.kmc.steps_per_event",
        steps as f64 / accepted.max(1) as f64,
    );

    let mut local = LocalRunner::from_seed(start, lambda, seed).expect("valid local start");
    let t = Instant::now();
    local.run_activations(steps);
    m.set(
        "core.local.activation_ns",
        t.elapsed().as_nanos() as f64 / local.activations().max(1) as f64,
    );
    let probes = local.probes();
    m.set(
        "core.local.idle_frac",
        probes.idle as f64 / probes.total().max(1) as f64,
    );
}

/// `core.snapshot_us` / `core.restore_us`: each family's `snapshot()` and
/// `restore()` on `sys` after `steps` of stepping, averaged over families.
pub fn snapshots(sys: &ParticleSystem, lambda: f64, seed: u64, steps: u64, m: &mut Metrics) {
    let mut chain = CompressionChain::from_seed(sys.clone(), lambda, seed).expect("valid start");
    chain.run(steps);
    let mut kmc = KmcChain::from_seed(sys.clone(), lambda, seed).expect("valid start");
    kmc.run(steps);
    let mut local = LocalRunner::from_seed(sys, lambda, seed).expect("valid start");
    local.run_activations(steps);
    let mut sharded = ShardedLocalRunner::from_seed(sys, lambda, seed).expect("valid start");
    sharded.run_rounds(4);

    let texts = [
        chain.snapshot(),
        kmc.snapshot(),
        local.snapshot(),
        sharded.snapshot(),
    ];
    let snap = [
        per_call_ns(|| {
            black_box(chain.snapshot());
            1
        }),
        per_call_ns(|| {
            black_box(kmc.snapshot());
            1
        }),
        per_call_ns(|| {
            black_box(local.snapshot());
            1
        }),
        per_call_ns(|| {
            black_box(sharded.snapshot());
            1
        }),
    ];
    let restore = [
        per_call_ns(|| {
            black_box(
                CompressionChain::<StdRng>::restore(&texts[0]).expect("own snapshot restores"),
            );
            1
        }),
        per_call_ns(|| {
            black_box(KmcChain::<StdRng>::restore(&texts[1]).expect("own snapshot restores"));
            1
        }),
        per_call_ns(|| {
            black_box(LocalRunner::restore(&texts[2]).expect("own snapshot restores"));
            1
        }),
        per_call_ns(|| {
            black_box(ShardedLocalRunner::restore(&texts[3]).expect("own snapshot restores"));
            1
        }),
    ];
    m.set("core.snapshot_us", mean(snap) / 1e3);
    m.set("core.restore_us", mean(restore) / 1e3);
}
