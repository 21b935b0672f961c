//! Cross-crate integration tests: the full Option A pipeline
//! (workload → profile → synthesis → DRAM/cache simulation) for every
//! device class, with accuracy bounds on the paper's headline metrics.

use std::sync::OnceLock;

use mocktails::sim::error::pct_error;
use mocktails::sim::experiments::dram::{fig06, fig09, Model};
use mocktails::sim::harness::{evaluate_dram, evaluate_dram_all, DramEval, EvalOptions};
use mocktails::workloads::{catalog, Device};
use mocktails::{DramConfig, HierarchyConfig, MemorySystem, Profile};

fn options() -> EvalOptions {
    EvalOptions {
        max_requests: Some(8_000),
        ..EvalOptions::default()
    }
}

/// The whole Table II catalog at the [`options`] budget, evaluated once
/// and shared by the Fig. 6/9 gates.
fn catalog_evals() -> &'static [DramEval] {
    static EVALS: OnceLock<Vec<DramEval>> = OnceLock::new();
    EVALS.get_or_init(|| evaluate_dram_all(&options()))
}

/// How far McC's Fig. 6 burst-count error may exceed STM's, in percentage
/// points, and still count as "McC ≤ STM". Both models draw sizes from the
/// same McC size model, so on the CPU traces their burst errors tie to
/// within rounding of the burst totals: measured 0.116 vs 0.114 (read)
/// and 0.137 vs 0.134 (write) at this budget. Where the op models differ
/// (VPU reads: 0.033 vs 0.216) McC must win outright.
const BURST_ERR_TIE_PP: f64 = 0.01;

/// Per-device bound on McC's Fig. 9 read row-hit error (geo-mean %).
/// Measured worst device at this budget: CPU 4.14 % (full-length runs,
/// seeds 1–3: ≤ 3.55 %). The paper reports ≤ 7.3 %.
const MCC_READ_ROW_HIT_ERR_PCT: f64 = 5.0;

/// Per-device bound on McC's Fig. 9 write row-hit error (geo-mean %).
/// Measured worst device at this budget: CPU 4.66 % (full-length runs,
/// seeds 1–3: ≤ 4.19 %). The paper reports ≤ 2.8 %.
const MCC_WRITE_ROW_HIT_ERR_PCT: f64 = 5.0;

#[test]
fn mcc_burst_error_is_at_most_stm_per_device() {
    // Fig. 6: per device, McC's read and write burst-count errors are no
    // worse than STM's.
    let bars = fig06(catalog_evals());
    for device in Device::ALL {
        let bar = |model| {
            bars.iter()
                .find(|b| b.device == device && b.model == model)
                .expect("one bar per device and model")
        };
        let (mcc, stm) = (bar(Model::McC), bar(Model::Stm));
        for (what, m, s) in [
            ("read", mcc.read_error, stm.read_error),
            ("write", mcc.write_error, stm.write_error),
        ] {
            assert!(
                m <= s + BURST_ERR_TIE_PP,
                "{device} {what} burst error: McC {m:.3}% vs STM {s:.3}%"
            );
        }
        if device == Device::Vpu {
            assert!(
                mcc.read_error < stm.read_error,
                "VPU read burst error: McC {:.3}% vs STM {:.3}%",
                mcc.read_error,
                stm.read_error
            );
        }
    }
}

#[test]
fn mcc_row_hit_error_is_bounded_per_device() {
    // Fig. 9, the paper's headline: McC's read and write row-hit errors
    // stay under a stated bound on every device.
    let bars = fig09(catalog_evals());
    let mcc: Vec<_> = bars.iter().filter(|b| b.model == Model::McC).collect();
    assert_eq!(mcc.len(), Device::ALL.len());
    for bar in mcc {
        assert!(
            bar.read_error < MCC_READ_ROW_HIT_ERR_PCT,
            "{} McC read row-hit error {:.2}%",
            bar.device,
            bar.read_error
        );
        assert!(
            bar.write_error < MCC_WRITE_ROW_HIT_ERR_PCT,
            "{} McC write row-hit error {:.2}%",
            bar.device,
            bar.write_error
        );
    }
}

#[test]
fn every_catalog_trace_survives_the_full_pipeline() {
    for spec in catalog::all() {
        let trace = spec.generate().truncate_to(3_000);
        let profile = Profile::fit(&trace, &HierarchyConfig::two_level_ts(500_000));
        let synthetic = profile.synthesize(1);
        assert_eq!(synthetic.len(), trace.len(), "{}", spec.name());
        assert_eq!(synthetic.reads(), trace.reads(), "{}", spec.name());
        let stats = MemorySystem::new(DramConfig::default()).run_trace(&synthetic);
        assert!(
            stats.total_read_bursts() + stats.total_write_bursts() > 0,
            "{}",
            spec.name()
        );
    }
}

#[test]
fn row_hit_error_is_bounded_for_structured_devices() {
    // The paper's headline: read row hits within 7.3%, write row hits
    // within 2.8%. DPU/GPU streams are the structured ones; grant slack
    // for our truncated traces.
    for name in ["FBC-Linear1", "FBC-Tiled1", "OpenCL1"] {
        let eval = evaluate_dram(&catalog::by_name(name).unwrap(), &options());
        let read_err = pct_error(
            eval.base.total_read_row_hits() as f64,
            eval.mcc.total_read_row_hits() as f64,
        );
        assert!(read_err < 15.0, "{name} read row-hit error {read_err:.1}%");
    }
}

#[test]
fn mcc_beats_stm_on_dpu_write_row_hits() {
    // Fig. 10's key claim: STM's single-probability op model degrades
    // write row locality on the DPU; McC stays close.
    let eval = evaluate_dram(&catalog::by_name("FBC-Linear1").unwrap(), &options());
    let base = eval.base.total_write_row_hits() as f64;
    let mcc_err = pct_error(base, eval.mcc.total_write_row_hits() as f64);
    let stm_err = pct_error(base, eval.stm.total_write_row_hits() as f64);
    assert!(
        mcc_err <= stm_err + 1.0,
        "McC err {mcc_err:.1}% vs STM err {stm_err:.1}%"
    );
}

#[test]
fn gpu_queues_are_longest() {
    // Fig. 7: GPU workloads have the longest queues. Compare a GPU trace
    // against a DPU trace at the same request budget.
    let gpu = evaluate_dram(&catalog::by_name("T-Rex1").unwrap(), &options());
    let dpu = evaluate_dram(&catalog::by_name("Multi-layer").unwrap(), &options());
    assert!(
        gpu.base.avg_write_queue_len() > dpu.base.avg_write_queue_len(),
        "GPU {:.2} vs DPU {:.2}",
        gpu.base.avg_write_queue_len(),
        dpu.base.avg_write_queue_len()
    );
    // And the synthetic GPU stream preserves the pressure.
    assert!(gpu.mcc.avg_write_queue_len() > dpu.mcc.avg_write_queue_len());
}

#[test]
fn synthetic_queue_pressure_tracks_baseline() {
    let eval = evaluate_dram(&catalog::by_name("T-Rex1").unwrap(), &options());
    let err = pct_error(
        eval.base.avg_write_queue_len(),
        eval.mcc.avg_write_queue_len(),
    );
    assert!(err < 40.0, "write queue length error {err:.1}%");
}

#[test]
fn devices_behave_differently_through_the_same_system() {
    // Sanity that the workload suite really exercises heterogeneity: the
    // four devices produce distinct row-hit rates.
    let mut rates = Vec::new();
    for device in Device::ALL {
        let spec = catalog::by_device(device).remove(0);
        let trace = spec.generate().truncate_to(6_000);
        let stats = MemorySystem::new(DramConfig::default()).run_trace(&trace);
        let total = stats.total_read_bursts().max(1);
        rates.push(stats.total_read_row_hits() as f64 / total as f64);
    }
    rates.sort_by(|a, b| a.partial_cmp(b).unwrap());
    assert!(
        rates[3] - rates[0] > 0.1,
        "devices indistinguishable: {rates:?}"
    );
}

#[test]
fn option_b_feedback_reflects_backpressure() {
    // Coupled synthesis (Option B) lets the injector adapt: its
    // accumulated delay covers both queue stalls and link occupancy waits,
    // so it is at least the system's recorded queue-stall cycles.
    let trace = catalog::by_name("Manhattan")
        .unwrap()
        .generate()
        .truncate_to(8_000);
    let profile = Profile::fit(&trace, &HierarchyConfig::two_level_ts(500_000));
    let mut synth = profile.synthesizer(3);
    let stats = MemorySystem::new(DramConfig::default()).run_synthesizer(&mut synth);
    assert!(stats.stall_cycles > 0);
    assert!(synth.accumulated_delay() >= stats.stall_cycles);
}
