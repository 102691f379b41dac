//! ABFT overhead instrumentation: the Figure 3 breakdown (checksum vs
//! verification share of the fault-tolerance overhead) and the Table 1
//! comparison of full vs hardware-assisted (simplified) verification.

use crate::cg::{ft_pcg, FtCgOptions};
use crate::cholesky::{ft_cholesky, FtCholeskyOptions};
use crate::dgemm::{ft_dgemm, FtDgemmOptions};
use crate::verify::{FtStats, VerifyMode};
use abft_linalg::gen::{random_matrix, random_spd};
use abft_linalg::poisson_2d;

/// The three fail-continue kernels Figure 3 profiles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FailContinueKernel {
    /// FT-DGEMM.
    Dgemm,
    /// FT-Cholesky.
    Cholesky,
    /// FT-Pred-CG.
    PredCg,
}

impl FailContinueKernel {
    /// All three, in the paper's order.
    pub const ALL: [FailContinueKernel; 3] =
        [FailContinueKernel::Dgemm, FailContinueKernel::Cholesky, FailContinueKernel::PredCg];

    /// The paper's label.
    pub fn label(self) -> &'static str {
        match self {
            FailContinueKernel::Dgemm => "FT-DGEMM",
            FailContinueKernel::Cholesky => "FT-Cholesky",
            FailContinueKernel::PredCg => "FT-Pred-CG",
        }
    }
}

/// Problem scale for the overhead measurements (one task per the paper;
/// dimensions scaled to keep wall-clock reasonable).
#[derive(Debug, Clone, Copy)]
pub struct OverheadScale {
    /// Matrix dimension for DGEMM/Cholesky.
    pub n: usize,
    /// Grid edge for CG.
    pub grid: usize,
    /// CG iterations (via max_iter on an unconverging tolerance).
    pub cg_iters: usize,
}

impl Default for OverheadScale {
    fn default() -> Self {
        OverheadScale { n: 384, grid: 96, cg_iters: 120 }
    }
}

/// One kernel's overhead measurement.
#[derive(Debug, Clone)]
pub struct OverheadReport {
    /// Which kernel.
    pub kernel: FailContinueKernel,
    /// The fault-tolerance accounting.
    pub stats: FtStats,
    /// Checksum share of the overhead (Figure 3 lower bar).
    pub checksum_share: f64,
    /// Verification share of the overhead (Figure 3 upper bar).
    pub verify_share: f64,
}

/// Run one kernel with the given verification mode and report its
/// overhead breakdown. The paper's worst-case scenario uses an aggressive
/// verification interval (every step / small interval).
pub fn measure(
    kernel: FailContinueKernel,
    scale: &OverheadScale,
    mode: VerifyMode,
) -> OverheadReport {
    let stats = match kernel {
        FailContinueKernel::Dgemm => {
            let a = random_matrix(scale.n, scale.n, 11);
            let b = random_matrix(scale.n, scale.n, 12);
            let r = ft_dgemm(&a, &b, &FtDgemmOptions { panel: 16, verify_interval: 2, mode });
            r.stats
        }
        FailContinueKernel::Cholesky => {
            let a = random_spd(scale.n, 13);
            let r = ft_cholesky(
                &a,
                &FtCholeskyOptions { block: 32, verify_interval: 2, mode, multi_error: false },
            )
            .expect("SPD input factors"); // repolint:allow(PANIC001) random_spd input is SPD by construction
            r.stats
        }
        FailContinueKernel::PredCg => {
            let a = poisson_2d(scale.grid, scale.grid);
            let n = a.rows();
            let b: Vec<f64> = (0..n).map(|i| ((i % 17) as f64) - 8.0).collect();
            let r = ft_pcg(
                &a,
                &b,
                &vec![0.0; n],
                &FtCgOptions {
                    tol: 1e-30, // run the full iteration budget
                    max_iter: scale.cg_iters,
                    verify_interval: 5,
                    mode,
                },
            );
            r.stats
        }
    };
    let verify_share = stats.verify_share();
    OverheadReport { kernel, checksum_share: 1.0 - verify_share, verify_share, stats }
}

/// The Table 1 experiment: relative improvement of total run time with
/// simplified (hardware-assisted) verification over full verification,
/// without any ECC relaxing.
pub fn simplified_verification_improvement(
    kernel: FailContinueKernel,
    scale: &OverheadScale,
    sysfs: abft_coop_runtime::SysfsChannel,
) -> f64 {
    let full = measure(kernel, scale, VerifyMode::Full);
    let assisted = measure(kernel, scale, VerifyMode::HardwareAssisted(sysfs));
    let t_full = full.stats.compute_time + full.stats.overhead();
    let t_assisted = assisted.stats.compute_time + assisted.stats.overhead();
    (t_full.as_secs_f64() - t_assisted.as_secs_f64()) / t_full.as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> OverheadScale {
        OverheadScale { n: 192, grid: 48, cg_iters: 60 }
    }

    /// Median of three runs: wall-clock instrumentation jitters when the
    /// whole test suite runs in parallel.
    fn median_share(k: FailContinueKernel) -> f64 {
        let mut shares: Vec<f64> =
            (0..3).map(|_| measure(k, &small(), VerifyMode::Full).verify_share).collect();
        shares.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
        shares[1]
    }

    #[test]
    fn verification_dominates_the_overhead() {
        // Figure 3: "the verification is responsible for a large part of
        // the overhead" for all three fail-continue kernels.
        for k in FailContinueKernel::ALL {
            let share = median_share(k);
            assert!(share > 0.3, "{}: verify share {} too small", k.label(), share);
            let r = measure(k, &small(), VerifyMode::Full);
            assert!((r.verify_share + r.checksum_share - 1.0).abs() < 1e-9);
            assert!(r.stats.verifications > 0);
        }
    }

    #[test]
    fn assisted_verification_is_cheaper() {
        // Table 1's mechanism: polling the (empty) error channel is far
        // cheaper than recomputing checksums. The comparison is on the
        // verification time alone — compute is the same work in both
        // modes and its jitter under a parallel test run is larger than
        // the whole saving — as the median of five paired samples.
        for k in FailContinueKernel::ALL {
            let mut full = Vec::new();
            let mut assisted = Vec::new();
            for _ in 0..5 {
                let f = measure(k, &small(), VerifyMode::Full).stats;
                let ch = abft_coop_runtime::SysfsChannel::new();
                let a = measure(k, &small(), VerifyMode::HardwareAssisted(ch)).stats;
                assert_eq!(f.verifications, a.verifications, "{}: same schedule", k.label());
                full.push(f.verify_time);
                assisted.push(a.verify_time);
            }
            full.sort();
            assisted.sort();
            assert!(
                assisted[2] * 10 <= full[2],
                "{}: assisted verify {:?} vs full {:?}",
                k.label(),
                assisted,
                full
            );
        }
    }
}
