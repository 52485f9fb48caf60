//! NPB-style 2-D decomposition for CG.
//!
//! NPB arranges 2^k processes as `nprows × npcols` (with
//! `npcols ∈ {nprows, 2·nprows}`); the matrix is blocked by (row strip,
//! column strip), the iterate is distributed by column strips, and each
//! matvec is: local partial product → sum-reduction across the row
//! group → transpose exchange to redistribute the result as column
//! strips. Message sizes stay at `n/nprows` and `n/npcols` — the
//! mid-size regime where the Elan-4 bandwidth advantage of Figure 1(b)
//! lives — instead of the `n/2`-sized tail of a 1-D allgather. This is
//! why the paper's Figure 6 gap persists at 32 processes (and why the
//! 1-D variant, kept in [`super`] as an ablation, loses it).
//!
//! All arithmetic is real: the 2-D solver must match the serial solver
//! to 1e-10, which pins every exchange in this file.

use std::cell::Cell;
use std::rc::Rc;

use elanib_mpi::collectives::{allreduce, barrier, Op};
use elanib_mpi::{
    bytes_of_f64, f64_of_bytes, f64s_of_bytes, recv, send, Communicator, RankProgram,
};
use elanib_simcore::Dur;

use super::{CgProblem, SparseSpd, SpmvBlock};

/// Process-grid geometry for `p = 2^k` ranks, the NPB rule:
/// `npcols = 2^⌈k/2⌉`, `nprows = p / npcols`.
pub fn grid(p: usize) -> (usize, usize) {
    assert!(p.is_power_of_two(), "NPB CG needs 2^k processes");
    let k = p.trailing_zeros() as usize;
    let npcols = 1usize << k.div_ceil(2);
    (p / npcols, npcols)
}

/// Transpose partner of rank `(r, c)` in an `nprows × npcols` grid.
/// For square grids this is the matrix transpose `(c, r)`; for the
/// 2:1 case it is NPB's pairing, a self-inverse bijection such that
/// the partner's row strip covers my column strip and vice versa.
pub fn transpose_partner(r: usize, c: usize, nprows: usize, npcols: usize) -> (usize, usize) {
    if nprows == npcols {
        (c, r)
    } else {
        debug_assert_eq!(npcols, 2 * nprows);
        (c / 2, 2 * r + (c & 1))
    }
}

#[derive(Clone)]
pub(super) struct CgProgram2D {
    pub problem: CgProblem,
    pub out: Rc<Cell<(f64, f64)>>,
}

impl RankProgram for CgProgram2D {
    // The explicit `impl Future + 'static` (rather than `async fn`)
    // keeps the 'static bound visible at the trait boundary.
    #[allow(clippy::manual_async_fn)]
    fn run<C: Communicator>(self, c: C) -> impl std::future::Future<Output = ()> + 'static {
        async move {
            let p = self.problem;
            let nproc = c.size();
            let me = c.rank();
            let sim = c.sim();
            let (nprows, npcols) = grid(nproc);
            assert_eq!(p.n % nproc, 0, "n must divide evenly");
            let (row, col) = (me / npcols, me % npcols);
            let nr = p.n / nprows; // row-strip length
            let nc = p.n / npcols; // column-strip length
            let rows = row * nr..(row + 1) * nr;
            let a = SparseSpd::shared(p.n, p.nz_per_row, 0xC6);

            // Extract my (row strip × column strip) block once, with
            // its rows grouped by entry count (see [`SpmvBlock`]). The
            // matvec below touches only entries with j in my column
            // strip, and each row keeps them in CSR order, so the
            // partial sums are bit-identical to filtering the global
            // CSR on every inner iteration.
            let blk = SpmvBlock::new(&a, rows, col * nc..(col + 1) * nc);

            let scale = p.model_n as f64 / p.n as f64;
            let flop_time =
                |flops: f64| Dur::from_secs_f64(flops * scale / (p.mflops_per_cpu * 1e6));
            // Modelled wire sizes at class A scale.
            let nr_bytes = (p.model_n / nprows * 8) as u64;
            let nc_bytes = (p.model_n / npcols * 8) as u64;

            // My transpose partner for the iterate redistribution.
            let (tr, tc) = transpose_partner(row, col, nprows, npcols);
            let partner = tr * npcols + tc;

            // One CG outer solve ---------------------------------------------
            let mut x_row = vec![1.0f64; nr];
            let mut zeta = 0.0;
            barrier(&c).await;
            let t0 = sim.now();
            for _outer in 0..p.outer {
                let mut z = vec![0.0; nr];
                let mut r_vec = x_row.clone();
                let mut p_row = r_vec.clone();
                let mut rho = {
                    let local: f64 = r_vec.iter().map(|v| v * v).sum::<f64>() / npcols as f64;
                    allreduce(&c, Op::Sum, &[local]).await[0]
                };
                for inner in 0..p.inner {
                    // 1. Transpose p (row strips) into my column strip.
                    let p_col = transpose_exchange(
                        &c,
                        &p_row,
                        row,
                        npcols,
                        partner,
                        nc,
                        nc_bytes,
                        100 + inner as i64,
                    )
                    .await;
                    // 2. Local partial matvec over my pre-extracted
                    //    block (same entries, same order — see above).
                    //    Rows with no entry in the block stay 0.0.
                    let mut w = vec![0.0; nr];
                    blk.apply(&p_col, &mut w);
                    let flops = 2.0 * (a.nnz() as f64 / nproc as f64) + 10.0 * nr as f64;
                    c.compute(flop_time(flops), p.mem_intensity).await;
                    // 3. Sum-reduce w across the row group -> q (replicated).
                    let q =
                        row_group_allreduce(&c, w, row, col, npcols, nr_bytes, 500 + inner as i64)
                            .await;
                    // 4. Dots and vector updates on row strips
                    //    (each strip appears npcols times; npcols is a
                    //    power of two, so the division is exact).
                    let pq_local: f64 =
                        p_row.iter().zip(&q).map(|(a, b)| a * b).sum::<f64>() / npcols as f64;
                    let pq = allreduce(&c, Op::Sum, &[pq_local]).await[0];
                    let alpha = rho / pq;
                    let mut rho_local = 0.0;
                    for ((zi, ri), (pi, qi)) in
                        z.iter_mut().zip(&mut r_vec).zip(p_row.iter().zip(&q))
                    {
                        *zi += alpha * pi;
                        *ri -= alpha * qi;
                        rho_local += *ri * *ri;
                    }
                    let rho_new = allreduce(&c, Op::Sum, &[rho_local / npcols as f64]).await[0];
                    let beta = rho_new / rho;
                    rho = rho_new;
                    for (pi, ri) in p_row.iter_mut().zip(&r_vec) {
                        *pi = ri + beta * *pi;
                    }
                }
                let xz_local: f64 =
                    x_row.iter().zip(&z).map(|(a, b)| a * b).sum::<f64>() / npcols as f64;
                let zn_local: f64 = z.iter().map(|v| v * v).sum::<f64>() / npcols as f64;
                let sums = allreduce(&c, Op::Sum, &[xz_local, zn_local]).await;
                zeta = p.shift + 1.0 / sums[0];
                let znorm = sums[1].sqrt();
                for i in 0..nr {
                    x_row[i] = z[i] / znorm;
                }
            }
            barrier(&c).await;
            if me == 0 {
                self.out.set((zeta, sim.now().since(t0).as_secs_f64()));
            }
        }
    }
}

/// Exchange with the transpose partner: give it the slice of my row
/// strip covering *its* column strip; receive my column strip from it.
#[allow(clippy::too_many_arguments)]
async fn transpose_exchange<C: Communicator>(
    c: &C,
    v_row: &[f64],
    row: usize,
    npcols: usize,
    partner: usize,
    nc: usize,
    nc_bytes: u64,
    tag: i64,
) -> Vec<f64> {
    let me = c.rank();
    let tc = partner % npcols;
    // Global rows of my strip: [row*nr, (row+1)*nr) where nr = nc *
    // npcols / nprows. The partner's column strip tc spans
    // [tc*nc, (tc+1)*nc) — contained in my strip by construction.
    let nr = v_row.len();
    let my_lo = row * nr;
    let send_lo = tc * nc - my_lo;
    let strip = &v_row[send_lo..send_lo + nc];
    if partner == me {
        return strip.to_vec();
    }
    let payload = bytes_of_f64(strip);
    // Symmetric exchange; break the tie by rank to avoid both sides
    // blocking in a rendezvous send.
    let m = if me < partner {
        send(c, partner, tag, payload, nc_bytes).await;
        recv(c, Some(partner), Some(tag)).await
    } else {
        let m = recv(c, Some(partner), Some(tag)).await;
        send(c, partner, tag, payload, nc_bytes).await;
        m
    };
    f64_of_bytes(&m.data)
}

/// Recursive-doubling allreduce(sum) across this rank's row group
/// (the `npcols` ranks sharing `row`).
async fn row_group_allreduce<C: Communicator>(
    c: &C,
    mut v: Vec<f64>,
    row: usize,
    col: usize,
    npcols: usize,
    nr_bytes: u64,
    tag: i64,
) -> Vec<f64> {
    let mut dist = 1usize;
    while dist < npcols {
        let pc = col ^ dist;
        let partner = row * npcols + pc;
        let payload = bytes_of_f64(&v);
        let m = if col < pc {
            send(c, partner, tag + dist as i64, payload, nr_bytes).await;
            recv(c, Some(partner), Some(tag + dist as i64)).await
        } else {
            let m = recv(c, Some(partner), Some(tag + dist as i64)).await;
            send(c, partner, tag + dist as i64, payload, nr_bytes).await;
            m
        };
        for (a, b) in v.iter_mut().zip(f64s_of_bytes(&m.data)) {
            *a += b;
        }
        dist *= 2;
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_follows_npb_rule() {
        assert_eq!(grid(1), (1, 1));
        assert_eq!(grid(2), (1, 2));
        assert_eq!(grid(4), (2, 2));
        assert_eq!(grid(8), (2, 4));
        assert_eq!(grid(16), (4, 4));
        assert_eq!(grid(32), (4, 8));
        assert_eq!(grid(64), (8, 8));
    }

    #[test]
    fn transpose_partner_is_an_involution_and_covers() {
        for p in [1usize, 2, 4, 8, 16, 32, 64] {
            let (nprows, npcols) = grid(p);
            for r in 0..nprows {
                for c in 0..npcols {
                    let (tr, tc) = transpose_partner(r, c, nprows, npcols);
                    assert!(tr < nprows && tc < npcols, "partner in grid (p={p})");
                    // Involution.
                    assert_eq!(
                        transpose_partner(tr, tc, nprows, npcols),
                        (r, c),
                        "not an involution at p={p}, ({r},{c})"
                    );
                    // Coverage: partner's row strip must contain my
                    // column strip, i.e. c ∈ [tr*npcols/nprows*..]:
                    // row strip tr covers column strips
                    // [tr*(npcols/nprows), (tr+1)*(npcols/nprows)).
                    let per = npcols / nprows;
                    assert!(
                        (tr * per..(tr + 1) * per).contains(&c),
                        "partner row strip must cover my column strip (p={p})"
                    );
                    // And symmetrically mine covers theirs.
                    assert!((r * per..(r + 1) * per).contains(&tc));
                }
            }
        }
    }
}
