//! The basic-test experiment driver (Section 5.1): run each kernel's trace
//! under all six ECC strategies and collect the Figure 5/6/7 metrics.

use crate::strategy::Strategy;
use abft_memsim::system::SimStats;
use abft_memsim::workloads::KernelKind;

/// Results of one (kernel, strategy) simulation.
#[derive(Debug, Clone)]
pub struct StrategyResult {
    /// The strategy.
    pub strategy: Strategy,
    /// Raw simulation statistics.
    pub stats: SimStats,
}

/// All six strategies for one kernel.
#[derive(Debug, Clone)]
pub struct BasicTest {
    /// The kernel.
    pub kernel: KernelKind,
    /// Per-strategy results (in [`Strategy::ALL`] order).
    pub rows: Vec<StrategyResult>,
}

impl BasicTest {
    /// The row for a given strategy.
    pub fn row(&self, s: Strategy) -> &StrategyResult {
        // repolint:allow(PANIC001) documented API contract: a BasicTest holds one row per strategy
        self.rows.iter().find(|r| r.strategy == s).expect("all strategies were run")
    }

    /// Memory energy normalized to the No-ECC baseline (Figure 5).
    pub fn mem_energy_norm(&self, s: Strategy) -> f64 {
        self.row(s).stats.mem_total_j() / self.row(Strategy::NoEcc).stats.mem_total_j()
    }

    /// Dynamic memory energy normalized to No-ECC.
    pub fn mem_dynamic_norm(&self, s: Strategy) -> f64 {
        self.row(s).stats.mem_dynamic_j() / self.row(Strategy::NoEcc).stats.mem_dynamic_j()
    }

    /// System energy normalized to No-ECC (Figure 6).
    pub fn system_energy_norm(&self, s: Strategy) -> f64 {
        self.row(s).stats.system_j() / self.row(Strategy::NoEcc).stats.system_j()
    }

    /// IPC normalized to No-ECC (Figure 7).
    pub fn ipc_norm(&self, s: Strategy) -> f64 {
        self.row(s).stats.ipc() / self.row(Strategy::NoEcc).stats.ipc()
    }

    /// Energy saving of a partial strategy against its whole-ECC baseline
    /// (the Section 5.1 headline percentages), on memory energy.
    pub fn partial_mem_saving(&self, s: Strategy) -> f64 {
        let base = self.row(s.baseline()).stats.mem_total_j();
        1.0 - self.row(s).stats.mem_total_j() / base
    }

    /// Same saving on system energy (Figure 6 discussion).
    pub fn partial_system_saving(&self, s: Strategy) -> f64 {
        let base = self.row(s.baseline()).stats.system_j();
        1.0 - self.row(s).stats.system_j() / base
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{CampaignClient, CampaignSpec};
    use abft_memsim::workloads::{CgParams, DgemmParams};

    fn small_dgemm() -> BasicTest {
        let spec = CampaignSpec::builder()
            .workload(DgemmParams { n: 384, nb: 64, abft: true, verify_interval: 4 })
            .build();
        CampaignClient::local().run(&spec).basic_test(KernelKind::Dgemm)
    }

    #[test]
    fn six_rows_in_order() {
        let bt = small_dgemm();
        assert_eq!(bt.rows.len(), 6);
        let labels: Vec<_> = bt.rows.iter().map(|r| r.strategy.label()).collect();
        assert_eq!(labels[0], "No ECC");
        assert_eq!(labels[1], "W_CK");
    }

    #[test]
    fn whole_chipkill_costs_the_most_memory_energy() {
        let bt = small_dgemm();
        for s in Strategy::ALL {
            assert!(
                bt.mem_energy_norm(Strategy::WholeChipkill) >= bt.mem_energy_norm(s) - 1e-12,
                "W_CK must be the most expensive; {s} beats it"
            );
        }
        assert!(bt.mem_energy_norm(Strategy::WholeChipkill) > 1.3);
    }

    #[test]
    fn partial_strategies_sit_between_whole_and_none() {
        let bt = small_dgemm();
        for s in Strategy::PARTIAL {
            let saving = bt.partial_mem_saving(s);
            assert!(saving > 0.0, "{s}: saving {saving}");
            assert!(bt.mem_energy_norm(s) >= 1.0 - 1e-9, "cannot beat no-ECC");
        }
    }

    #[test]
    fn performance_never_beats_no_ecc() {
        let bt = small_dgemm();
        for s in Strategy::ALL {
            assert!(bt.ipc_norm(s) <= 1.0 + 1e-9, "{s} ipc_norm {}", bt.ipc_norm(s));
        }
    }

    #[test]
    fn cg_is_the_most_ecc_sensitive_kernel() {
        // Sanity proxy of the paper's Figure 5: CG (memory intensive) pays
        // more for whole chipkill than DGEMM pays relative to its W_SD.
        let spec = CampaignSpec::builder()
            .workload(CgParams { grid: 192, iterations: 4, abft: true, verify_interval: 2 })
            .build();
        let cg = CampaignClient::local().run(&spec).basic_test(KernelKind::Cg);
        assert!(
            cg.mem_energy_norm(Strategy::WholeChipkill) > cg.mem_energy_norm(Strategy::WholeSecded)
        );
        assert!(cg.ipc_norm(Strategy::WholeChipkill) < 0.98);
    }
}

/// A basic-test result adjusted for expected fault handling over a
/// deployment window — the bridge between the error-free Section 5.1
/// measurements and the Section 5.2 fault models (Equations 3-5).
#[derive(Debug, Clone, PartialEq)]
pub struct FaultAdjusted {
    /// The strategy.
    pub strategy: crate::strategy::Strategy,
    /// Expected errors reaching ABFT over the window (Equation 4).
    pub expected_errors: f64,
    /// Energy spent in ABFT recoveries (J).
    pub recovery_energy_j: f64,
    /// Time spent in ABFT recoveries (s).
    pub recovery_time_s: f64,
    /// Window system energy including recoveries (J).
    pub total_energy_j: f64,
    /// Window wall-clock including recoveries (s).
    pub total_seconds: f64,
}

/// Project one strategy's measured profile over a deployment window.
///
/// * `window_s` — application run length at the measured rate.
/// * `abft_bytes` / `other_bytes` — the node's protected split.
/// * `t_c_seconds` / `e_c_joules` — per-error ABFT recovery costs.
pub fn fault_adjusted(
    bt: &BasicTest,
    s: crate::strategy::Strategy,
    window_s: f64,
    abft_bytes: u64,
    other_bytes: u64,
    t_c_seconds: f64,
    e_c_joules: f64,
) -> FaultAdjusted {
    use abft_faultsim::models::{expected_errors, mttf_hetero_seconds, EccRegionTerm};
    let st = &bt.row(s).stats;
    let power_w = st.system_j() / st.seconds;
    // Residual error rates per region under this strategy (Table 5).
    let regions = [
        EccRegionTerm {
            fr_fit_per_mbit: abft_faultsim::fit_per_mbit(s.relaxed_scheme()),
            mbit: abft_bytes as f64 * 8.0 / 1e6,
            age_factor: 1.0,
        },
        EccRegionTerm {
            fr_fit_per_mbit: abft_faultsim::fit_per_mbit(s.strong_scheme()),
            mbit: other_bytes as f64 * 8.0 / 1e6,
            age_factor: 1.0,
        },
    ];
    let mttf = mttf_hetero_seconds(&regions, 1);
    let errors = expected_errors(window_s, 0.0, mttf);
    let recovery_time_s = errors * t_c_seconds;
    let recovery_energy_j = errors * e_c_joules;
    FaultAdjusted {
        strategy: s,
        expected_errors: errors,
        recovery_energy_j,
        recovery_time_s,
        total_energy_j: power_w * window_s + recovery_energy_j,
        total_seconds: window_s + recovery_time_s,
    }
}

#[cfg(test)]
mod fault_adjusted_tests {
    use super::*;
    use crate::client::{CampaignClient, CampaignSpec};
    use crate::strategy::Strategy;
    use abft_memsim::workloads::DgemmParams;

    #[test]
    fn are_beats_ase_at_field_error_rates_and_loses_in_storms() {
        let spec = CampaignSpec::builder()
            .workload(DgemmParams { n: 384, nb: 64, abft: true, verify_interval: 4 })
            .build();
        let bt = CampaignClient::local().run(&spec).basic_test(KernelKind::Dgemm);
        let day = 86_400.0;
        let gb = 1u64 << 30;
        // A day of FT-DGEMM, 2 GB ABFT data, 6 GB other.
        let are =
            fault_adjusted(&bt, Strategy::PartialChipkillNoEcc, day, 2 * gb, 6 * gb, 0.8, 120.0);
        let ase = fault_adjusted(&bt, Strategy::WholeChipkill, day, 2 * gb, 6 * gb, 0.8, 120.0);
        // Field rates: a handful of ABFT recoveries per day at most.
        assert!(are.expected_errors < 50.0, "errors {}", are.expected_errors);
        assert!(ase.expected_errors < 1e-3, "chipkill residual is negligible");
        assert!(
            are.total_energy_j < ase.total_energy_j,
            "ARE wins the day: {} vs {}",
            are.total_energy_j,
            ase.total_energy_j
        );

        // Error storm: inflate the window's exposure via a huge protected
        // region — recovery eventually swamps the ECC savings.
        let storm = fault_adjusted(
            &bt,
            Strategy::PartialChipkillNoEcc,
            day,
            40_000 * gb,
            6 * gb,
            0.8,
            120.0,
        );
        let storm_ase =
            fault_adjusted(&bt, Strategy::WholeChipkill, day, 40_000 * gb, 6 * gb, 0.8, 120.0);
        assert!(
            storm.total_energy_j > storm_ase.total_energy_j,
            "extreme rates flip the verdict (Section 4's caveat)"
        );
    }
}
