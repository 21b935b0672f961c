//! Seeded workload inputs, built only through the public generators of
//! `mocktails-workloads`: the same bench seed always yields the same
//! traces, and the program under test only ever sees these traces.

use mocktails_trace::Trace;
use mocktails_workloads::{cpu, dpu, gpu, spec, vpu, Device};

/// One Table II trace regenerated from the bench seed.
#[derive(Debug, Clone)]
pub struct SocTrace {
    /// Table II name.
    pub name: &'static str,
    /// Device kind.
    pub device: Device,
    /// The generated requests.
    pub trace: Trace,
}

type Generator = fn(u64) -> Trace;

/// The Table II rows: name, device, catalog seed, generator (the same
/// mapping as `mocktails_workloads::catalog`, whose generators are
/// private to that crate).
const TABLE2: [(&str, Device, u64, Generator); 18] = [
    ("Crypto1", Device::Cpu, 101, |s| {
        cpu::crypto(s, &Default::default())
    }),
    ("Crypto2", Device::Cpu, 102, |s| {
        cpu::crypto(s, &Default::default())
    }),
    ("CPU-D", Device::Cpu, 103, |s| {
        cpu::companion(s, 0, &Default::default())
    }),
    ("CPU-G", Device::Cpu, 104, |s| {
        cpu::companion(s, 1, &Default::default())
    }),
    ("CPU-V", Device::Cpu, 105, |s| {
        cpu::companion(s, 2, &Default::default())
    }),
    ("FBC-Linear1", Device::Dpu, 201, |s| {
        dpu::fbc_linear(s, &Default::default())
    }),
    ("FBC-Linear2", Device::Dpu, 202, |s| {
        dpu::fbc_linear(s, &Default::default())
    }),
    ("FBC-Tiled1", Device::Dpu, 203, |s| {
        dpu::fbc_tiled(s, &Default::default())
    }),
    ("FBC-Tiled2", Device::Dpu, 204, |s| {
        dpu::fbc_tiled(s, &Default::default())
    }),
    ("Multi-layer", Device::Dpu, 205, |s| {
        dpu::multi_layer(s, &Default::default())
    }),
    ("T-Rex1", Device::Gpu, 301, gpu::trex),
    ("T-Rex2", Device::Gpu, 302, gpu::trex),
    ("Manhattan", Device::Gpu, 303, gpu::manhattan),
    ("OpenCL1", Device::Gpu, 304, |s| {
        gpu::opencl(s, &Default::default())
    }),
    ("OpenCL2", Device::Gpu, 305, |s| {
        gpu::opencl(s, &Default::default())
    }),
    ("HEVC1", Device::Vpu, 401, |s| {
        vpu::hevc(s, &Default::default())
    }),
    ("HEVC2", Device::Vpu, 402, |s| {
        vpu::hevc(s, &Default::default())
    }),
    ("HEVC3", Device::Vpu, 403, |s| {
        vpu::hevc(s, &Default::default())
    }),
];

/// Mixes the bench seed into a per-input seed (SplitMix64 finalizer), so
/// every bench seed gives every input a different, reproducible stream.
pub fn derive(bench_seed: u64, salt: u64) -> u64 {
    let mut z = bench_seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(salt);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// All 18 Table II traces, regenerated from `bench_seed`.
pub fn soc_traces(bench_seed: u64) -> Vec<SocTrace> {
    TABLE2
        .iter()
        .map(|&(name, device, catalog_seed, generate)| SocTrace {
            name,
            device,
            trace: generate(derive(bench_seed, catalog_seed)),
        })
        .collect()
}

/// The Fig. 15 SPEC-like traces at the default request budget.
pub fn spec_traces(bench_seed: u64) -> Vec<(&'static str, Trace)> {
    spec::FIG15_NAMES
        .iter()
        .enumerate()
        .map(|(i, &name)| {
            let trace = spec::generate_n(
                name,
                derive(bench_seed, 500 + i as u64),
                spec::DEFAULT_REQUESTS,
            )
            .expect("FIG15_NAMES are known benchmarks");
            (name, trace)
        })
        .collect()
}

/// Generator families of the served path's traces: trace `i` of
/// [`serve_pool`] is of family `i % SERVE_FAMILIES`.
pub const SERVE_FAMILIES: usize = 4;

/// Many-leaf traces for the served path: `count` traces cycling through
/// the Crypto, FBC-Linear, T-Rex and HEVC generators, each at twice its
/// default length (blocks or frames).
pub fn serve_pool(bench_seed: u64, count: usize) -> Vec<Trace> {
    const ROWS: [usize; SERVE_FAMILIES] = [0, 5, 10, 15]; // Crypto, FBC-Linear, T-Rex, HEVC
    let (crypto, fbc) = (cpu::CryptoParams::default(), dpu::FbcParams::default());
    let (render, hevc) = (gpu::RenderParams::default(), vpu::HevcParams::default());
    (0..count)
        .map(|i| {
            let catalog_seed = TABLE2[ROWS[i % ROWS.len()]].2;
            let seed = derive(bench_seed, catalog_seed * 1000 + i as u64);
            match i % ROWS.len() {
                0 => cpu::crypto(
                    seed,
                    &cpu::CryptoParams {
                        blocks: 2 * crypto.blocks,
                        ..crypto.clone()
                    },
                ),
                1 => dpu::fbc_linear(
                    seed,
                    &dpu::FbcParams {
                        frames: 2 * fbc.frames,
                        ..fbc.clone()
                    },
                ),
                2 => gpu::render(
                    seed,
                    &gpu::RenderParams {
                        frames: 2 * render.frames,
                        ..render.clone()
                    },
                ),
                _ => vpu::hevc(
                    seed,
                    &vpu::HevcParams {
                        frames: 2 * hevc.frames,
                        ..hevc.clone()
                    },
                ),
            }
        })
        .collect()
}
