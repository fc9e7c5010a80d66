//! The kernel probe: times, on one place's block shape, the public
//! `gml-matrix` calls one iteration of a workload's `step` makes at that
//! place, and counts their floating-point operations and bytes moved.
//!
//! The counts are *computed* from array sizes, not measured: each call is
//! charged every operand array read once, every output written once (read
//! and written when the call accumulates into it), 8 bytes per index, and
//! one 8-byte gather of the dense operand per sparse non-zero. Cache misses
//! are ignored, and no peak bandwidth is measured here, so the probe
//! reports operations per byte without a roofline ratio.

use std::hint::black_box;
use std::time::Instant;

use gml_matrix::{builder, DenseMatrix, SparseCSR, Vector};

use crate::stats::median;
use crate::workloads::Sizes;

/// Computed cost of one iteration's kernel calls.
#[derive(Clone, Copy, Debug, Default)]
pub struct Cost {
    /// Floating-point operations.
    pub flops: f64,
    /// Bytes moved (computed).
    pub bytes: f64,
}

impl Cost {
    fn add(&mut self, flops: usize, bytes: usize) {
        self.flops += flops as f64;
        self.bytes += bytes as f64;
    }
}

/// What the probe measured.
#[derive(Clone, Copy, Debug)]
pub struct KernelProbe {
    /// Median wall time of one iteration's kernel calls, in milliseconds.
    pub ms_per_iter: f64,
    /// Computed cost of one iteration's kernel calls.
    pub cost: Cost,
    /// Timed repetitions behind the median.
    pub samples: usize,
}

/// Time `iteration` (which returns its computed cost) until `budget_s`
/// elapses, at least 5 and at most 200 times, after one warm-up call.
fn time_iterations(budget_s: f64, mut iteration: impl FnMut() -> Cost) -> KernelProbe {
    let cost = iteration();
    let mut ms = Vec::new();
    let t0 = Instant::now();
    while ms.len() < 5 || (ms.len() < 200 && t0.elapsed().as_secs_f64() < budget_s) {
        let t = Instant::now();
        black_box(iteration());
        ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    KernelProbe {
        ms_per_iter: median(&ms).expect("at least five samples"),
        cost,
        samples: ms.len(),
    }
}

fn sparse_bytes(s: &SparseCSR) -> usize {
    16 * s.nnz() + 8 * (s.rows() + 1)
}

/// LinReg CG at one place: `tmp = X·p` and `q = Xᵀ·tmp` over the place's
/// `examples × features` block, then the duplicated-vector updates on
/// `features`-long vectors (4 axpy, 1 scale, 1 dot, 1 norm²).
pub fn linreg(sizes: &Sizes, seed: u64, budget_s: f64) -> KernelProbe {
    let (m, n) = (sizes.rows_per_place, sizes.cols);
    let x = builder::random_dense_rows(n, seed, 0, m);
    let (p0, r0) = (
        builder::random_vector(n, seed.wrapping_add(1)),
        builder::random_vector(n, seed),
    );
    let (mut p, mut q, mut r, mut w) = (p0.clone(), Vector::zeros(n), r0.clone(), Vector::zeros(n));
    let mut tmp = vec![0.0; m];
    time_iterations(budget_s, || {
        let mut c = Cost::default();
        // Start every repetition from the same vectors so values stay put.
        p.copy_from(&p0);
        r.copy_from(&r0);
        tmp.iter_mut().for_each(|v| *v = 0.0);
        x.gemv(1.0, p.as_slice(), 1.0, &mut tmp);
        c.add(2 * m * n, 8 * (m * n + n + 2 * m));
        q.fill(0.0);
        x.gemv_trans(1.0, &tmp, 1.0, q.as_mut_slice());
        c.add(2 * m * n, 8 * (m * n + m + 2 * n));
        q.axpy(1e-6, &p);
        let pq = p.dot(&q);
        w.axpy(1e-3, &p);
        r.axpy(-1e-3, &q);
        let rho = r.norm2_sq();
        p.scale(0.5);
        p.axpy(1.0, &r);
        black_box((pq, rho));
        // 4 axpy (2n flops, 3n words), dot and norm² (2n flops), scale.
        c.add(
            4 * 2 * n + 2 * n + 2 * n + n,
            8 * (4 * 3 * n + 2 * n + n + 2 * n),
        );
        c
    })
}

/// GNMF at place 0: the two Gram products (`WᵀV` by a transposed sparse
/// product, `WᵀW`), the root's `H` update (`WᵀW·H`, two cell-wise ops),
/// then `V·Hᵀ`, `H·Hᵀ`, `W·(H·Hᵀ)` and the two cell-wise `W` updates.
pub fn gnmf(sizes: &Sizes, seed: u64, budget_s: f64) -> KernelProbe {
    let (m, n, k) = (sizes.rows_per_place, sizes.cols, sizes.rank);
    let mut v = builder::random_csr_rows(n, sizes.nnz_per_row, seed, 0, m);
    v.map_values(|x| (x + 1.0) / 2.0 + 1e-3);
    let nnz = v.nnz();
    // The multiplicative updates keep W and H positive and bounded, so the
    // factors evolve across repetitions exactly as they do in the app.
    let mut w = gml_apps::reference::nonneg_dense_rows(k, seed.wrapping_add(100), 0, m);
    let mut h = gml_apps::reference::nonneg_dense(k, n, seed.wrapping_add(101));
    time_iterations(budget_s, || {
        let mut c = Cost::default();
        // WᵀV = (Vᵀ·W)ᵀ accumulated into a zeroed k×n.
        let mut wtv = DenseMatrix::zeros(k, n);
        wtv.cell_add(&v.trans_spmm(&w).transpose());
        c.add(2 * nnz * k, sparse_bytes(&v) + 8 * m * k + 16 * nnz * k);
        c.add(k * n, 8 * (2 * n * k + 3 * k * n));
        // WᵀW.
        let mut wtw = DenseMatrix::zeros(k, k);
        w.gemm_tn_acc(&w, &mut wtw);
        c.add(2 * m * k * k, 8 * (2 * m * k + 2 * k * k));
        // Root: H ∘= WᵀV ⊘ (WᵀW·H + ε).
        let mut denom = DenseMatrix::zeros(k, n);
        wtw.gemm(1.0, &h, 0.0, &mut denom);
        h.cell_mult(&wtv);
        h.cell_div_guarded(&denom, 1e-9);
        c.add(2 * k * k * n, 8 * (k * k + 2 * k * n));
        c.add(2 * k * n, 8 * 2 * 3 * k * n);
        // V·Hᵀ (spmm re-reads V once per output column).
        let vht = v.spmm(&h.transpose());
        c.add(0, 8 * 2 * k * n);
        c.add(2 * nnz * k, k * sparse_bytes(&v) + 8 * nnz * k + 8 * m * k);
        // W·(H·Hᵀ).
        let ht = h.transpose();
        let mut hht = DenseMatrix::zeros(k, k);
        h.gemm(1.0, &ht, 0.0, &mut hht);
        let mut whh = DenseMatrix::zeros(m, k);
        w.gemm(1.0, &hht, 0.0, &mut whh);
        c.add(0, 8 * 2 * k * n);
        c.add(2 * k * n * k, 8 * (2 * k * n + k * k));
        c.add(2 * m * k * k, 8 * (m * k + k * k + m * k));
        // W ∘= V·Hᵀ ⊘ W·(H·Hᵀ).
        w.cell_mult(&vht);
        w.cell_div_guarded(&whh, 1e-9);
        c.add(2 * m * k, 8 * 2 * 3 * m * k);
        black_box((&w, &h));
        c
    })
}

/// PageRank at place 0: the SpMV of the place's row block against the
/// duplicated rank vector, the `α` scale and the personalization dot on
/// the place's segment, then the root's copy of the gathered result and
/// the scalar shift over the whole rank vector.
pub fn pagerank(sizes: &Sizes, seed: u64, budget_s: f64) -> KernelProbe {
    let rows = sizes.rows_per_place;
    let n = rows * sizes.places;
    let g = builder::link_matrix_rows(n, sizes.nnz_per_row, seed, 0, rows);
    let nnz = g.nnz();
    let mut p = Vector::constant(n, 1.0 / n as f64);
    let u = Vector::constant(rows, 1.0 / n as f64);
    let gathered = Vector::constant(n, 1.0 / n as f64);
    let mut gp = Vector::zeros(rows);
    time_iterations(budget_s, || {
        let mut c = Cost::default();
        gp.fill(0.0);
        g.spmv(1.0, p.as_slice(), 1.0, gp.as_mut_slice());
        c.add(2 * nnz, sparse_bytes(&g) + 8 * nnz + 16 * rows);
        gp.scale(0.85);
        let utp = u.dot(&gp);
        c.add(rows + 2 * rows, 8 * (2 * rows + 2 * rows));
        p.copy_from(&gathered);
        p.cell_add_scalar(black_box(utp) * 0.15);
        c.add(n, 8 * (2 * n + 2 * n));
        c
    })
}
