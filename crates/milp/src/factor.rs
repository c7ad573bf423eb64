//! Sparse LU factorization of the simplex basis, with a product-form eta
//! file for the basis exchanges between refactorizations.
//!
//! [`Factor::new`] factors the basis matrix `B_0`, whose column `p` is
//! the constraint column basic at basis position `p`, as `L·U` up to row
//! and column permutations. Pivots are chosen by Markowitz count
//! (`(row count − 1)·(column count − 1)`, the fill a pivot can cause)
//! among entries that pass threshold partial pivoting. Each later basis
//! exchange appends one eta column (Forrest & Tomlin 1972 call this the
//! product form of the inverse), so after `k` exchanges
//! `B_k⁻¹ = E_k ⋯ E_1 · B_0⁻¹`. The caller refactors from scratch every
//! so often to keep the eta file short and accurate.
//!
//! Two index spaces meet here. *Row space* vectors are indexed by
//! constraint row; *position space* vectors by basis position.
//! [`Factor::ftran`] maps row space to position space, and
//! [`Factor::btran`] maps position space back to row space. Every solve
//! skips the work of zero entries, so its cost follows the nonzeros of
//! the factor and of the vector rather than `m²`.

use std::collections::BTreeSet;

/// Threshold partial pivoting: a pivot must be at least this fraction of
/// the largest entry left in its column.
const PIVOT_THRESHOLD: f64 = 0.1;
/// Entries smaller than this never become pivots. A column with no entry
/// at least this large left makes the basis numerically singular.
const ABS_PIVOT_TOL: f64 = 1e-11;
/// Columns the Markowitz search examines, in ascending count order,
/// before it settles for the cheapest acceptable pivot seen so far.
const SEARCH_COLUMNS: usize = 4;

/// The basis has no LU factorization. `position` names the basis
/// position whose column ran out of usable pivots.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Singular {
    /// No nonzero entry is left in the column.
    Structural {
        /// Basis position of the column.
        position: usize,
    },
    /// Every entry left in the column is below the pivot tolerance.
    Numerical {
        /// Basis position of the column.
        position: usize,
    },
}

/// A factored basis: `L·U` of the last refactorization plus the eta file.
pub(crate) struct Factor {
    m: usize,
    /// Elimination step `k` pivoted on row `piv_row[k]` and basis
    /// position `piv_pos[k]`.
    piv_row: Vec<usize>,
    piv_pos: Vec<usize>,
    /// Column etas of `L`, one per step: step `k` subtracts
    /// `l_val[e] · v[piv_row[k]]` from `v[l_idx[e]]` for `e` in
    /// `l_start[k]..l_start[k + 1]`.
    l_start: Vec<usize>,
    l_idx: Vec<usize>,
    l_val: Vec<f64>,
    /// `U` by column in step order: the diagonal `u_diag[k]`, then the
    /// entries of earlier steps `j < k` as (`piv_row[j]`, value).
    u_diag: Vec<f64>,
    u_start: Vec<usize>,
    u_idx: Vec<usize>,
    u_val: Vec<f64>,
    /// Eta file: exchange `e` made basic, at position `eta_pos[e]`, a
    /// column whose FTRAN image had `eta_piv[e]` there and the entries
    /// `eta_idx`/`eta_val` in `eta_start[e]..eta_start[e + 1]` elsewhere.
    eta_pos: Vec<usize>,
    eta_piv: Vec<f64>,
    eta_start: Vec<usize>,
    eta_idx: Vec<usize>,
    eta_val: Vec<f64>,
}

impl Factor {
    /// Factors the square matrix whose column `p` is `columns[p]`, given
    /// as sparse `(row, value)` entries. Duplicate rows within a column
    /// are summed.
    pub(crate) fn new(columns: &[&[(usize, f64)]]) -> Result<Factor, Singular> {
        let m = columns.len();
        // The active submatrix: values by row, row patterns by column.
        let mut rows: Vec<Vec<(usize, f64)>> = vec![Vec::new(); m];
        let mut col_rows: Vec<Vec<usize>> = vec![Vec::new(); m];
        for (p, col) in columns.iter().enumerate() {
            for &(r, a) in col.iter() {
                if a == 0.0 {
                    continue;
                }
                match rows[r].last_mut() {
                    Some(last) if last.0 == p => last.1 += a,
                    _ => {
                        rows[r].push((p, a));
                        col_rows[p].push(r);
                    }
                }
            }
        }
        let mut by_count: BTreeSet<(usize, usize)> =
            (0..m).map(|p| (col_rows[p].len(), p)).collect();

        let mut f = Factor {
            m,
            piv_row: Vec::with_capacity(m),
            piv_pos: Vec::with_capacity(m),
            l_start: vec![0],
            l_idx: Vec::new(),
            l_val: Vec::new(),
            u_diag: Vec::with_capacity(m),
            u_start: Vec::new(),
            u_idx: Vec::new(),
            u_val: Vec::new(),
            eta_pos: Vec::new(),
            eta_piv: Vec::new(),
            eta_start: vec![0],
            eta_idx: Vec::new(),
            eta_val: Vec::new(),
        };
        // Rows of U in step order, as (position, value), before the
        // transpose into columns below.
        let mut urow_start = vec![0];
        let mut urow: Vec<(usize, f64)> = Vec::new();
        // Scratch: position -> slot in the row being updated.
        let mut slot = vec![usize::MAX; m];

        for _ in 0..m {
            let (r, p) = select_pivot(&rows, &col_rows, &by_count)?;
            let prow = std::mem::take(&mut rows[r]);
            by_count.remove(&(col_rows[p].len(), p));
            for &(j, _) in &prow {
                if j != p {
                    by_count.remove(&(col_rows[j].len(), j));
                    if let Some(at) = col_rows[j].iter().position(|&i| i == r) {
                        col_rows[j].swap_remove(at);
                    }
                }
            }
            let mut pivot = 0.0;
            for &(j, v) in &prow {
                if j == p {
                    pivot = v;
                } else {
                    urow.push((j, v));
                }
            }
            urow_start.push(urow.len());
            // Eliminate column p from every other active row.
            for i in std::mem::take(&mut col_rows[p]) {
                if i == r {
                    continue;
                }
                let Some(at) = rows[i].iter().position(|e| e.0 == p) else {
                    continue;
                };
                let l = rows[i].swap_remove(at).1 / pivot;
                if l == 0.0 {
                    continue;
                }
                f.l_idx.push(i);
                f.l_val.push(l);
                for (t, &(j, _)) in rows[i].iter().enumerate() {
                    slot[j] = t;
                }
                for &(j, v) in &prow {
                    if j == p {
                        continue;
                    }
                    if slot[j] == usize::MAX {
                        rows[i].push((j, -l * v));
                        col_rows[j].push(i);
                    } else {
                        rows[i][slot[j]].1 -= l * v;
                    }
                }
                for &(j, _) in &rows[i] {
                    slot[j] = usize::MAX;
                }
            }
            for &(j, _) in &prow {
                if j != p {
                    by_count.insert((col_rows[j].len(), j));
                }
            }
            f.l_start.push(f.l_idx.len());
            f.piv_row.push(r);
            f.piv_pos.push(p);
            f.u_diag.push(pivot);
        }

        // Transpose the rows of U into columns indexed by step.
        let mut step_of = vec![0; m];
        for (k, &p) in f.piv_pos.iter().enumerate() {
            step_of[p] = k;
        }
        let mut counts = vec![0usize; m + 1];
        for &(j, _) in &urow {
            counts[step_of[j] + 1] += 1;
        }
        for k in 0..m {
            counts[k + 1] += counts[k];
        }
        f.u_start = counts.clone();
        f.u_idx = vec![0; urow.len()];
        f.u_val = vec![0.0; urow.len()];
        for k in 0..m {
            for &(j, v) in &urow[urow_start[k]..urow_start[k + 1]] {
                let c = step_of[j];
                f.u_idx[counts[c]] = f.piv_row[k];
                f.u_val[counts[c]] = v;
                counts[c] += 1;
            }
        }
        Ok(f)
    }

    /// Exchanges since the last refactorization.
    pub(crate) fn eta_count(&self) -> usize {
        self.eta_pos.len()
    }

    /// Records the exchange that makes basic, at `pos`, the column whose
    /// FTRAN image under the current factor is `w`.
    pub(crate) fn push_eta(&mut self, pos: usize, w: &[f64]) {
        self.eta_pos.push(pos);
        self.eta_piv.push(w[pos]);
        for (i, &wi) in w.iter().enumerate() {
            if i != pos && wi != 0.0 {
                self.eta_idx.push(i);
                self.eta_val.push(wi);
            }
        }
        self.eta_start.push(self.eta_idx.len());
    }

    /// FTRAN: solves `B x = a`. Takes `a` in row space and returns `x` in
    /// position space.
    pub(crate) fn ftran(&self, mut v: Vec<f64>) -> Vec<f64> {
        for k in 0..self.m {
            let vp = v[self.piv_row[k]];
            if vp != 0.0 {
                for e in self.l_start[k]..self.l_start[k + 1] {
                    v[self.l_idx[e]] -= self.l_val[e] * vp;
                }
            }
        }
        let mut x = vec![0.0; self.m];
        for k in (0..self.m).rev() {
            let xk = v[self.piv_row[k]] / self.u_diag[k];
            if xk != 0.0 {
                x[self.piv_pos[k]] = xk;
                for e in self.u_start[k]..self.u_start[k + 1] {
                    v[self.u_idx[e]] -= self.u_val[e] * xk;
                }
            }
        }
        for e in 0..self.eta_pos.len() {
            let r = self.eta_pos[e];
            if x[r] == 0.0 {
                continue;
            }
            let xr = x[r] / self.eta_piv[e];
            x[r] = xr;
            for t in self.eta_start[e]..self.eta_start[e + 1] {
                x[self.eta_idx[t]] -= self.eta_val[t] * xr;
            }
        }
        x
    }

    /// BTRAN: solves `yᵀ B = zᵀ`. Takes `z` in position space and returns
    /// `y` in row space.
    pub(crate) fn btran(&self, mut z: Vec<f64>) -> Vec<f64> {
        for e in (0..self.eta_pos.len()).rev() {
            let r = self.eta_pos[e];
            let mut s = z[r];
            for t in self.eta_start[e]..self.eta_start[e + 1] {
                s -= self.eta_val[t] * z[self.eta_idx[t]];
            }
            z[r] = s / self.eta_piv[e];
        }
        let mut y = vec![0.0; self.m];
        for k in 0..self.m {
            let mut s = z[self.piv_pos[k]];
            for e in self.u_start[k]..self.u_start[k + 1] {
                s -= self.u_val[e] * y[self.u_idx[e]];
            }
            y[self.piv_row[k]] = s / self.u_diag[k];
        }
        for k in (0..self.m).rev() {
            let mut s = y[self.piv_row[k]];
            for e in self.l_start[k]..self.l_start[k + 1] {
                s -= self.l_val[e] * y[self.l_idx[e]];
            }
            y[self.piv_row[k]] = s;
        }
        y
    }
}

/// Markowitz search with threshold pivoting: examines active columns in
/// ascending (count, position) order and returns the `(row, position)`
/// of the cheapest acceptable pivot, preferring the larger magnitude on
/// equal cost. Stops at a zero-cost pivot or after [`SEARCH_COLUMNS`]
/// columns.
fn select_pivot(
    rows: &[Vec<(usize, f64)>],
    col_rows: &[Vec<usize>],
    by_count: &BTreeSet<(usize, usize)>,
) -> Result<(usize, usize), Singular> {
    let mut best: Option<(usize, f64, usize, usize)> = None; // (cost, |a|, row, position)
    for (examined, &(count, p)) in by_count.iter().enumerate() {
        if count == 0 {
            return Err(Singular::Structural { position: p });
        }
        let value = |r: usize| rows[r].iter().find(|e| e.0 == p).map_or(0.0, |e| e.1);
        let colmax = col_rows[p]
            .iter()
            .map(|&r| value(r).abs())
            .fold(0.0, f64::max);
        if colmax < ABS_PIVOT_TOL {
            return Err(Singular::Numerical { position: p });
        }
        for &r in &col_rows[p] {
            let a = value(r).abs();
            if a < PIVOT_THRESHOLD * colmax || a < ABS_PIVOT_TOL {
                continue;
            }
            let cost = (rows[r].len() - 1) * (count - 1);
            let better = match best {
                None => true,
                Some((bc, ba, _, _)) => cost < bc || (cost == bc && a > ba),
            };
            if better {
                best = Some((cost, a, r, p));
            }
        }
        if let Some((cost, _, r, p)) = best {
            if cost == 0 || examined + 1 >= SEARCH_COLUMNS {
                return Ok((r, p));
            }
        }
    }
    // Every examined column has an acceptable entry (its largest), so
    // `best` is only empty when no column is left at all.
    best.map(|(_, _, r, p)| (r, p))
        .ok_or(Singular::Structural { position: 0 })
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowplace_rng::{Rng, StdRng};

    /// A small nonzero coefficient, exact in binary.
    fn coef(rng: &mut StdRng) -> f64 {
        [1.0, -1.0, 2.0, 0.5, -3.0, 1.5][rng.gen_range(0..6usize)]
    }

    fn factor(cols: &[Vec<(usize, f64)>]) -> Result<Factor, Singular> {
        let refs: Vec<&[(usize, f64)]> = cols.iter().map(|c| c.as_slice()).collect();
        Factor::new(&refs)
    }

    /// `B x` for `x` in position space.
    fn mul(cols: &[Vec<(usize, f64)>], x: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; cols.len()];
        for (p, col) in cols.iter().enumerate() {
            for &(r, a) in col {
                out[r] += a * x[p];
            }
        }
        out
    }

    /// `yᵀ B` for `y` in row space.
    fn tmul(cols: &[Vec<(usize, f64)>], y: &[f64]) -> Vec<f64> {
        cols.iter()
            .map(|col| col.iter().map(|&(r, a)| a * y[r]).sum())
            .collect()
    }

    fn max_diff(a: &[f64], b: &[f64]) -> f64 {
        a.iter()
            .zip(b)
            .map(|(x, y)| (x - y).abs())
            .fold(0.0, f64::max)
    }

    /// A random sparse nonsingular matrix: a permuted diagonal plus a
    /// few off-diagonal entries per column, kept diagonally dominant.
    fn random_basis(rng: &mut StdRng, m: usize) -> Vec<Vec<(usize, f64)>> {
        let mut perm: Vec<usize> = (0..m).collect();
        for i in (1..m).rev() {
            perm.swap(i, rng.gen_range(0..i + 1));
        }
        (0..m)
            .map(|p| {
                let mut col = vec![(perm[p], 8.0 * coef(rng).signum())];
                for _ in 0..rng.gen_range(0..3) {
                    let r = rng.gen_range(0..m);
                    if r != perm[p] {
                        col.push((r, coef(rng)));
                    }
                }
                col
            })
            .collect()
    }

    #[test]
    fn ftran_and_btran_solve_random_sparse_bases() {
        let mut rng = StdRng::seed_from_u64(7);
        for m in [1, 2, 5, 17, 60] {
            let cols = random_basis(&mut rng, m);
            let f = factor(&cols).expect("diagonally dominant basis factors");
            let a: Vec<f64> = (0..m).map(|_| coef(&mut rng)).collect();
            let x = f.ftran(a.clone());
            assert!(
                max_diff(&mul(&cols, &x), &a) < 1e-9,
                "ftran residual, m={m}"
            );
            let z: Vec<f64> = (0..m).map(|_| coef(&mut rng)).collect();
            let y = f.btran(z.clone());
            assert!(
                max_diff(&tmul(&cols, &y), &z) < 1e-9,
                "btran residual, m={m}"
            );
        }
    }

    #[test]
    fn eta_updates_track_column_exchanges() {
        let mut rng = StdRng::seed_from_u64(11);
        let m = 30;
        let mut cols = random_basis(&mut rng, m);
        let mut f = factor(&cols).expect("factors");
        for _ in 0..40 {
            // A random column, on the basis' scale, enters at the
            // position of its largest FTRAN entry if that pivot stays
            // well away from zero.
            let entering: Vec<(usize, f64)> = (0..3)
                .map(|_| (rng.gen_range(0..m), 8.0 * coef(&mut rng)))
                .collect();
            let mut dense = vec![0.0; m];
            for &(r, a) in &entering {
                dense[r] += a;
            }
            let w = f.ftran(dense);
            let pos = (0..m)
                .max_by(|&a, &b| w[a].abs().total_cmp(&w[b].abs()))
                .expect("m > 0");
            if w[pos].abs() < 0.5 {
                continue;
            }
            f.push_eta(pos, &w);
            cols[pos] = entering;
            let a: Vec<f64> = (0..m).map(|_| coef(&mut rng)).collect();
            let x = f.ftran(a.clone());
            assert!(max_diff(&mul(&cols, &x), &a) < 1e-7, "ftran after eta");
            let y = f.btran(a.clone());
            assert!(max_diff(&tmul(&cols, &y), &a) < 1e-7, "btran after eta");
        }
        assert!(f.eta_count() >= 20, "only {} exchanges", f.eta_count());
    }

    #[test]
    fn singular_bases_are_typed_errors() {
        // Two columns that only touch row 0: after one pivots there, the
        // other has no entry left.
        let cols = vec![vec![(0, 1.0)], vec![(0, 2.0)], vec![(1, 1.0), (2, 1.0)]];
        assert!(matches!(factor(&cols), Err(Singular::Structural { .. })));
        // An empty column.
        let cols = vec![vec![(0, 1.0)], vec![]];
        assert!(matches!(
            factor(&cols),
            Err(Singular::Structural { position: 1 })
        ));
        // Equal columns: elimination leaves an exact zero.
        let cols = vec![vec![(0, 1.0), (1, 1.0)], vec![(0, 1.0), (1, 1.0)]];
        assert!(matches!(factor(&cols), Err(Singular::Numerical { .. })));
        // Columns equal up to rounding noise.
        let cols = vec![vec![(0, 1.0), (1, 1.0)], vec![(0, 1.0), (1, 1.0 + 1e-13)]];
        assert!(matches!(factor(&cols), Err(Singular::Numerical { .. })));
        // Duplicate entries are summed, here to zero.
        let cols = vec![vec![(0, 1.0), (0, -1.0)]];
        assert!(matches!(factor(&cols), Err(Singular::Numerical { .. })));
    }
}
