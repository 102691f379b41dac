//! `abft-solve`: FT-DGEMM, FT-Cholesky, FT-Pred-CG and FT-HPL solved for
//! real, each under full and hardware-assisted verification, with faults
//! injected at seeded positions through the `ft_*_with` hooks.
//!
//! Why: the paper's compute / checksum / verify split (Fig. 3, Table 1)
//! lives in the kernels, the linear-algebra substrate and the runtime's
//! error channel, and touches no simulator code: this is the bypass
//! workload for every simulator change and the target for checksum
//! fusion. Sizes sit well above the overhead harness's default scale,
//! where a kernel runs too briefly to time.

use crate::run::{rng, Run};
use abft_coop_runtime::{ErrorReport, SysfsChannel};
use abft_kernels::cg::{ft_pcg_with, FtCgOptions};
use abft_kernels::cholesky::{ft_cholesky_with, FtCholeskyOptions};
use abft_kernels::dgemm::{ft_dgemm_with, FtDgemmOptions};
use abft_kernels::hpl::{ft_hpl_with, FailStop, FtHplOptions};
use abft_kernels::{FtStats, VerifyMode};
use abft_linalg::gen::{random_diag_dominant, random_matrix, random_spd, random_vector};
use abft_linalg::{cholesky_blocked, matmul, poisson_2d, CsrMatrix, LinearOperator, Matrix};
use rand::Rng;
use std::time::Duration;

/// Dense dimension of FT-DGEMM, FT-Cholesky and FT-HPL.
const N: usize = 768;
/// Tile, panel and block width.
const NB: usize = 64;
/// FT-Pred-CG grid edge (a `GRID²`-unknown Poisson system).
const GRID: usize = 160;
/// Verify every this many panels or steps.
const VERIFY: usize = 2;

/// One fault: where it strikes and by how much.
#[derive(Clone, Copy)]
struct Fault {
    step: usize,
    row: usize,
    col: usize,
    delta: f64,
}

/// The inputs, their references, and the seeded faults.
struct Inputs {
    a: Matrix,
    b: Matrix,
    c_ref: Matrix,
    spd: Matrix,
    l_ref: Matrix,
    poisson: CsrMatrix,
    rhs: Vec<f64>,
    lu_a: Matrix,
    lu_x: Vec<f64>,
    lu_b: Vec<f64>,
    dgemm_faults: Vec<Fault>,
    chol_faults: Vec<Fault>,
    cg_faults: Vec<Fault>,
    hpl_faults: Vec<FailStop>,
}

fn inputs(seed: u64) -> Inputs {
    let s = seed.wrapping_mul(1000);
    let mut rng = rng(seed, 2);
    let a = random_matrix(N, N, s + 11);
    let b = random_matrix(N, N, s + 12);
    let c_ref = matmul(&a, &b);
    let spd = random_spd(N, s + 13);
    let mut l_ref = spd.clone();
    cholesky_blocked(&mut l_ref, NB).expect("random_spd is positive definite");
    for j in 0..N {
        for i in 0..j {
            l_ref[(i, j)] = 0.0;
        }
    }
    let poisson = poisson_2d(GRID, GRID);
    let rhs = random_vector(GRID * GRID, s + 14);
    let lu_a = random_diag_dominant(N, s + 15);
    let lu_x = random_vector(N, s + 16);
    let lu_b = lu_a.matvec(&lu_x);

    // One fault per verification interval, struck just before the check
    // that must catch it.
    let steps = N / NB;
    let dgemm_faults = (1..steps)
        .step_by(VERIFY)
        .map(|step| Fault {
            step,
            row: rng.random_range(0..N),
            col: rng.random_range(0..N),
            delta: 1.0 + rng.random_range(0.0..99.0),
        })
        .collect();
    // FT-Cholesky strikes the trailing matrix's lower triangle, on the
    // first element of a reported line, so the assisted repair finds it.
    let chol_faults = (1..steps - 1)
        .step_by(VERIFY)
        .map(|step| {
            let col = rng.random_range((step + 1) * NB..N - 8);
            let row = (rng.random_range(col + 1..N) / 8 * 8).max(col + 8 - col % 8);
            Fault { step, row, col, delta: 10.0 + rng.random_range(0.0..90.0) }
        })
        .collect();
    let cg_faults = (0..6)
        .map(|k| Fault {
            step: 7 + 40 * k,
            row: rng.random_range(0..GRID * GRID),
            col: 0,
            delta: 1e2 + rng.random_range(0.0..1e3),
        })
        .collect();
    let first = rng.random_range(1..steps / 2);
    let hpl_faults = vec![
        FailStop { at_step: first, process: rng.random_range(0..2) },
        FailStop { at_step: rng.random_range(first + 1..steps), process: rng.random_range(0..2) },
    ];
    Inputs {
        a,
        b,
        c_ref,
        spd,
        l_ref,
        poisson,
        rhs,
        lu_a,
        lu_x,
        lu_b,
        dgemm_faults,
        chol_faults,
        cg_faults,
        hpl_faults,
    }
}

/// The report the OS would publish for a corrupted element.
fn report(element: usize, name: &str) -> ErrorReport {
    ErrorReport {
        vaddr: (element * 8) as u64,
        alloc_vaddr: 0,
        element: element - element % 8,
        name: name.to_string(),
        time_s: 0.0,
    }
}

/// What one solve produced, for the checks and the layer figures.
struct Outcome {
    stats: FtStats,
    injected: u64,
    corrected: u64,
    /// Whether the result is within the kernel's tolerance.
    accurate: bool,
}

fn dgemm(inp: &Inputs, mode: VerifyMode, tx: &SysfsChannel) -> Outcome {
    let opts = FtDgemmOptions { panel: NB, verify_interval: VERIFY, mode };
    let r = ft_dgemm_with(&inp.a, &inp.b, &opts, |p, cf| {
        for f in inp.dgemm_faults.iter().filter(|f| f.step == p) {
            cf[(f.row, f.col)] += f.delta;
            tx.publish(report(f.col * (N + 1) + f.row, "matrix_c"));
        }
    });
    Outcome {
        injected: inp.dgemm_faults.len() as u64,
        corrected: r.stats.corrections,
        accurate: r.c.approx_eq(&inp.c_ref, 1e-9, 1e-9),
        stats: r.stats,
    }
}

fn cholesky(inp: &Inputs, mode: VerifyMode, tx: &SysfsChannel) -> Outcome {
    let opts = FtCholeskyOptions { block: NB, verify_interval: VERIFY, mode, multi_error: false };
    let r = ft_cholesky_with(&inp.spd, &opts, |kt, m| {
        for f in inp.chol_faults.iter().filter(|f| f.step == kt) {
            m[(f.row, f.col)] += f.delta;
            tx.publish(report(f.col * N + f.row, "matrix_a"));
        }
    });
    match r {
        Ok(r) => Outcome {
            injected: inp.chol_faults.len() as u64,
            corrected: r.stats.corrections,
            accurate: r.l.approx_eq(&inp.l_ref, 1e-9, 1e-9),
            stats: r.stats,
        },
        Err(_) => Outcome { stats: FtStats::default(), injected: 1, corrected: 0, accurate: false },
    }
}

fn pred_cg(inp: &Inputs, mode: VerifyMode, tx: &SysfsChannel) -> Outcome {
    let n = GRID * GRID;
    let opts = FtCgOptions { tol: 1e-8, max_iter: 4000, verify_interval: 5, mode };
    let r = ft_pcg_with(&inp.poisson, &inp.rhs, &vec![0.0; n], &opts, |it, st| {
        for f in inp.cg_faults.iter().filter(|f| f.step == it) {
            st.x[f.row] += f.delta;
            tx.publish(report(f.row, "vector_x"));
        }
    });
    let ax = inp.poisson.apply_vec(&r.x);
    let res: f64 = ax.iter().zip(&inp.rhs).map(|(y, b)| (y - b) * (y - b)).sum::<f64>().sqrt();
    let norm_b: f64 = inp.rhs.iter().map(|b| b * b).sum::<f64>().sqrt();
    Outcome {
        injected: inp.cg_faults.len() as u64,
        corrected: r.stats.corrections,
        accurate: r.converged && res <= 1e-6 * norm_b,
        stats: r.stats,
    }
}

fn hpl(inp: &Inputs, mode: VerifyMode) -> Outcome {
    let opts = FtHplOptions { block: NB, process_cols: 2, verify_interval: 1, mode };
    match ft_hpl_with(&inp.lu_a, &opts, &inp.hpl_faults) {
        Ok(r) => {
            let x = r.solve(&inp.lu_b);
            let err = x.iter().zip(&inp.lu_x).map(|(a, b)| (a - b).abs()).fold(0.0, f64::max);
            Outcome {
                injected: inp.hpl_faults.len() as u64,
                corrected: r.recoveries,
                accurate: err <= 1e-8,
                stats: r.stats,
            }
        }
        Err(_) => Outcome { stats: FtStats::default(), injected: 1, corrected: 0, accurate: false },
    }
}

const KERNELS: [&str; 4] = ["FT-DGEMM", "FT-Cholesky", "FT-Pred-CG", "FT-HPL"];

/// Run the workload on one worker: the dense kernels' GEMM would
/// otherwise fan out over every core, so a solve's latency would depend
/// on what else the host runs on its other cores.
pub fn run(run: &mut Run) {
    match rayon::ThreadPoolBuilder::new().num_threads(1).build() {
        Ok(pool) => pool.install(|| solve(run)),
        Err(e) => {
            run.checks.check(false, || format!("cannot build a one-worker pool: {e}"));
        }
    }
}

fn solve(run: &mut Run) {
    let seed = run.seed;
    let inp = run.setup(|_| inputs(seed));

    // Per-iteration sums over the full-verification cells, and the
    // assisted cells' verification time.
    let (mut compute, mut checksum, mut verify, mut assisted) = (vec![], vec![], vec![], vec![]);
    let (mut injected, mut corrected) = (0u64, 0u64);
    run.timed_loop(|run, _| {
        let mut full = FtStats::default();
        let mut assisted_verify = Duration::ZERO;
        for (k, kernel) in KERNELS.iter().enumerate() {
            for assisted_mode in [false, true] {
                let channel = SysfsChannel::new();
                let tx = channel.clone();
                let mode = if assisted_mode {
                    VerifyMode::HardwareAssisted(channel)
                } else {
                    VerifyMode::Full
                };
                let cell = format!("{kernel}/{}", if assisted_mode { "assisted" } else { "full" });
                let (o, _) = run.cell(
                    "abft.solve",
                    &cell,
                    |_| 1,
                    || match k {
                        0 => dgemm(&inp, mode, &tx),
                        1 => cholesky(&inp, mode, &tx),
                        2 => pred_cg(&inp, mode, &tx),
                        _ => hpl(&inp, mode),
                    },
                );
                let c = &mut run.checks;
                c.check(o.corrected >= o.injected, || {
                    format!("{cell}: {} of {} injected faults corrected", o.corrected, o.injected)
                });
                c.check(o.stats.uncorrectable == 0, || {
                    format!("{cell}: {} uncorrectable", o.stats.uncorrectable)
                });
                c.check(o.accurate, || format!("{cell}: result outside the kernel's tolerance"));
                injected += o.injected;
                corrected += o.corrected.min(o.injected);
                if assisted_mode {
                    assisted_verify += o.stats.verify_time;
                } else {
                    full.compute_time += o.stats.compute_time;
                    full.checksum_time += o.stats.checksum_time;
                    full.verify_time += o.stats.verify_time;
                }
            }
        }
        compute.push(full.compute_time.as_secs_f64());
        checksum.push(full.checksum_time.as_secs_f64());
        verify.push(full.verify_time.as_secs_f64());
        assisted.push(assisted_verify.as_secs_f64());
    });
    let med = |v: &[f64]| crate::stats::median(v).unwrap_or(0.0);
    let (c, s, v) = (med(&compute), med(&checksum), med(&verify));
    run.set_layer("abft.compute_s", c);
    run.set_layer("abft.checksum_s", s);
    run.set_layer("abft.verify_s", v);
    run.set_layer("abft.assisted_verify_s", med(&assisted));
    run.set_layer("abft.overhead_pct", 100.0 * (s + v) / c);
    run.set_layer("abft.corrected_frac", corrected as f64 / injected.max(1) as f64);
    run.notes.push(format!(
        "full verification: compute {c:.4} s, checksum {s:.4} s, verify {v:.4} s; assisted verify {:.4} s; \
         {corrected} of {injected} injected faults corrected",
        med(&assisted)
    ));
}
