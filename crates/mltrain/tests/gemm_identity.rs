//! Bit-identity of the GEMM kernel behind `Matrix::{matmul, t_matmul,
//! matmul_t}`, and a golden digest of a short training run.
//!
//! The kernel must reproduce, bit for bit, a naive triple loop that
//! accumulates every output from `+0.0` in increasing `k` order with a
//! separate multiply and add. That loop lives only here. The golden test
//! pins worker 0's parameters and every round's loss after three epochs of
//! the standard experiment (digests recorded before the kernel existed), so
//! any reordering of the sums anywhere in forward or backward shows up.

use trimgrad_collective::hooks::{AggregateHook, BaselineHook, TrimmableHook};
use trimgrad_hadamard::prng::Xoshiro256StarStar;
use trimgrad_mltrain::data::gaussian_mixture;
use trimgrad_mltrain::optim::StepLr;
use trimgrad_mltrain::{DataParallelTrainer, Matrix, ParallelConfig};
use trimgrad_quant::SchemeId;
use trimgrad_telemetry::fnv1a;

/// Every dimension tried for `m`, `n` and `k`: empty, below, at and just
/// past the register tile (4 × 8) and its multiples, plus the 10-class head.
const DIMS: [usize; 13] = [0, 1, 3, 4, 5, 7, 8, 9, 10, 17, 32, 64, 65];

/// How the operands are filled.
#[derive(Debug, Clone, Copy)]
enum Fill {
    /// Uniform in [−1, 1).
    Random,
    /// At least half exact `+0.0`, as after a ReLU.
    ReluSparse,
    /// Two thirds `+0.0` or `−0.0`, the rest uniform.
    SignedZeros,
}

const FILLS: [Fill; 3] = [Fill::Random, Fill::ReluSparse, Fill::SignedZeros];

fn fill(rows: usize, cols: usize, how: Fill, rng: &mut Xoshiro256StarStar) -> Matrix {
    let data = (0..rows * cols)
        .map(|_| {
            let v = rng.next_f32_range(-1.0, 1.0);
            match how {
                Fill::Random => v,
                // Two draws out of three clamp to zero.
                Fill::ReluSparse => (v - 0.33).max(0.0),
                Fill::SignedZeros => match rng.next_u64() % 3 {
                    0 => 0.0,
                    1 => -0.0,
                    _ => v,
                },
            }
        })
        .collect();
    Matrix::from_vec(rows, cols, data)
}

/// The reference: `c[i][j] = Σₚ a(i, p)·b(p, j)`, summed from `+0.0` in
/// increasing `p`, one rounding per multiply and per add.
fn naive(
    m: usize,
    k: usize,
    n: usize,
    a: impl Fn(usize, usize) -> f32,
    b: impl Fn(usize, usize) -> f32,
) -> Vec<u32> {
    let mut out = Vec::with_capacity(m * n);
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for p in 0..k {
                acc += a(i, p) * b(p, j);
            }
            out.push(acc.to_bits());
        }
    }
    out
}

fn bits(m: &Matrix) -> Vec<u32> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// Runs `check(m, k, n, fill, rng)` over every shape and fill.
fn for_all_shapes(mut check: impl FnMut(usize, usize, usize, Fill, &mut Xoshiro256StarStar)) {
    let mut rng = Xoshiro256StarStar::new(0x6E33);
    for how in FILLS {
        for m in DIMS {
            for k in DIMS {
                for n in DIMS {
                    check(m, k, n, how, &mut rng);
                }
            }
        }
    }
}

#[test]
fn matmul_is_bit_identical_to_the_naive_loop() {
    for_all_shapes(|m, k, n, how, rng| {
        let a = fill(m, k, how, rng);
        let b = fill(k, n, how, rng);
        let want = naive(m, k, n, |i, p| a.get(i, p), |p, j| b.get(p, j));
        assert_eq!(bits(&a.matmul(&b)), want, "matmul {m}×{k}·{k}×{n} {how:?}");
    });
}

#[test]
fn t_matmul_is_bit_identical_to_the_naive_loop() {
    for_all_shapes(|m, k, n, how, rng| {
        let a = fill(k, m, how, rng); // used transposed
        let b = fill(k, n, how, rng);
        let want = naive(m, k, n, |i, p| a.get(p, i), |p, j| b.get(p, j));
        assert_eq!(
            bits(&a.t_matmul(&b)),
            want,
            "t_matmul ({k}×{m})ᵀ·{k}×{n} {how:?}"
        );
    });
}

#[test]
fn matmul_t_is_bit_identical_to_the_naive_loop() {
    for_all_shapes(|m, k, n, how, rng| {
        let a = fill(m, k, how, rng);
        let b = fill(n, k, how, rng); // used transposed
        let want = naive(m, k, n, |i, p| a.get(i, p), |p, j| b.get(j, p));
        assert_eq!(
            bits(&a.matmul_t(&b)),
            want,
            "matmul_t {m}×{k}·({n}×{k})ᵀ {how:?}"
        );
    });
}

#[test]
fn relu_sparse_fill_is_at_least_half_zeros() {
    let mut rng = Xoshiro256StarStar::new(3);
    let m = fill(64, 64, Fill::ReluSparse, &mut rng);
    let zeros = m.as_slice().iter().filter(|v| v.to_bits() == 0).count();
    assert!(zeros * 2 >= m.as_slice().len(), "{zeros} zeros");
}

/// The trained model's shape (the bench crate's `MODEL_DIMS`).
const MODEL_DIMS: [usize; 4] = [32, 64, 64, 10];
const WORKERS: usize = 4;
const SEED: u64 = 1;

/// Worker 0's parameter digest and the digest of every round's mean loss
/// over three epochs of the standard experiment (the bench crate's
/// `standard_task(7)` and `standard_config(1)`), rounds driven one by one.
fn train_digests(hook: Box<dyn AggregateHook>) -> (u64, u64) {
    let (train, test) = gaussian_mixture(10, 32, 120, 2.0, 1.4, 7).split(0.8, 7);
    let cfg = ParallelConfig {
        workers: WORKERS,
        batch_size: 32,
        schedule: StepLr {
            initial_lr: 0.1,
            step_size: 30,
            gamma: 0.5,
        },
        momentum: 0.9,
        rounds_per_epoch: 20,
        seed: SEED,
    };
    let rounds = 3 * cfg.rounds_per_epoch;
    let mut t = DataParallelTrainer::new(&MODEL_DIMS, train, test, hook, cfg);
    let mut loss_bytes = Vec::new();
    for _ in 0..rounds {
        loss_bytes.extend_from_slice(&t.run_round().loss.to_bits().to_le_bytes());
    }
    let param_bytes: Vec<u8> = t
        .params_of_worker0()
        .iter()
        .flat_map(|v| v.to_bits().to_le_bytes())
        .collect();
    (fnv1a(&param_bytes), fnv1a(&loss_bytes))
}

#[test]
fn baseline_training_matches_the_golden_digests() {
    let got = train_digests(Box::new(BaselineHook::new(WORKERS)));
    assert_eq!(
        got,
        (0x754b_c39a_ff66_8c3f, 0x40e9_71e9_e93c_5a9c),
        "baseline (params, losses) = {got:#018x?}"
    );
}

#[test]
fn trimmed_rht_training_matches_the_golden_digests() {
    let hook = TrimmableHook::new(
        SchemeId::RhtOneBit,
        WORKERS,
        0.10,
        0.0,
        1 << 12,
        SEED ^ 0x7172,
    );
    let got = train_digests(Box::new(hook));
    assert_eq!(
        got,
        (0xccda_f289_553f_65c5, 0xad40_78ac_16c5_3326),
        "rht@10% (params, losses) = {got:#018x?}"
    );
}
