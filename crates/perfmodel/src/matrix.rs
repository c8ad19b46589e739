#![allow(clippy::needless_range_loop)] // index-paired loops read clearer here

//! Minimal dense linear algebra: just enough to solve normal equations for
//! ordinary least squares (symmetric positive semi-definite systems) via
//! Gaussian elimination with partial pivoting and ridge regularization.

/// A dense row-major matrix.
#[derive(Clone, Debug)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a matrix from row-major data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_rows(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "matrix data length mismatch");
        Matrix { rows, cols, data }
    }

    /// Element access.
    pub fn get(&self, r: usize, c: usize) -> f64 {
        self.data[r * self.cols + c]
    }

    /// Element mutation.
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        self.data[r * self.cols + c] = v;
    }

    /// In-place element update.
    pub fn add_to(&mut self, r: usize, c: usize, v: f64) {
        self.data[r * self.cols + c] += v;
    }
}

/// Solves the linear system `A x = b` for square `A` using Gaussian
/// elimination with partial pivoting. Returns `None` if `A` is singular to
/// working precision.
pub fn solve(a: &Matrix, b: &[f64]) -> Option<Vec<f64>> {
    let n = a.rows;
    assert_eq!(a.cols, n, "solve requires a square matrix");
    assert_eq!(b.len(), n, "rhs length mismatch");

    // Augmented working copy.
    let mut m = a.clone();
    let mut rhs = b.to_vec();

    for col in 0..n {
        // Partial pivot: find the largest magnitude entry in this column.
        let mut pivot = col;
        let mut best = m.get(col, col).abs();
        for r in (col + 1)..n {
            let v = m.get(r, col).abs();
            if v > best {
                best = v;
                pivot = r;
            }
        }
        if best < 1e-12 {
            return None; // singular
        }
        if pivot != col {
            for c in 0..n {
                let tmp = m.get(col, c);
                m.set(col, c, m.get(pivot, c));
                m.set(pivot, c, tmp);
            }
            rhs.swap(col, pivot);
        }
        // Eliminate below.
        let diag = m.get(col, col);
        for r in (col + 1)..n {
            let factor = m.get(r, col) / diag;
            if factor == 0.0 {
                continue;
            }
            for c in col..n {
                let v = m.get(r, c) - factor * m.get(col, c);
                m.set(r, c, v);
            }
            rhs[r] -= factor * rhs[col];
        }
    }

    // Back substitution.
    let mut x = vec![0.0; n];
    for col in (0..n).rev() {
        let mut acc = rhs[col];
        for c in (col + 1)..n {
            acc -= m.get(col, c) * x[c];
        }
        x[col] = acc / m.get(col, col);
    }
    Some(x)
}

/// Solves the least-squares problem `min ||X w - y||^2 + ridge * ||w||^2`
/// via the normal equations `(XᵀX + ridge·I) w = Xᵀy`.
///
/// `x` has one row per observation; `y` is the target vector. A small ridge
/// (e.g. `1e-9`) keeps the system well-conditioned when features are
/// collinear — common when a workload has constant input sizes.
pub fn least_squares(x: &Matrix, y: &[f64], ridge: f64) -> Option<Vec<f64>> {
    let n = x.rows;
    let d = x.cols;
    assert_eq!(y.len(), n, "target length mismatch");
    if n == 0 || d == 0 {
        return None;
    }

    // Normal matrix XᵀX (d × d) and Xᵀy.
    let mut xtx = Matrix::zeros(d, d);
    let mut xty = vec![0.0; d];
    for r in 0..n {
        for i in 0..d {
            let xi = x.get(r, i);
            if xi == 0.0 {
                continue;
            }
            xty[i] += xi * y[r];
            for j in i..d {
                xtx.add_to(i, j, xi * x.get(r, j));
            }
        }
    }
    // Mirror the upper triangle and apply ridge.
    for i in 0..d {
        for j in 0..i {
            let v = xtx.get(j, i);
            xtx.set(i, j, v);
        }
        xtx.add_to(i, i, ridge);
    }
    solve(&xtx, &xty)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solve_simple_system() {
        // 2x + y = 5; x + 3y = 10 => x = 1, y = 3
        let a = Matrix::from_rows(2, 2, vec![2.0, 1.0, 1.0, 3.0]);
        let x = solve(&a, &[5.0, 10.0]).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-9);
        assert!((x[1] - 3.0).abs() < 1e-9);
    }

    #[test]
    fn solve_requires_pivoting() {
        // Leading zero forces a row swap.
        let a = Matrix::from_rows(2, 2, vec![0.0, 1.0, 1.0, 0.0]);
        let x = solve(&a, &[2.0, 3.0]).unwrap();
        assert!((x[0] - 3.0).abs() < 1e-9);
        assert!((x[1] - 2.0).abs() < 1e-9);
    }

    #[test]
    fn solve_detects_singularity() {
        let a = Matrix::from_rows(2, 2, vec![1.0, 2.0, 2.0, 4.0]);
        assert!(solve(&a, &[1.0, 2.0]).is_none());
    }

    #[test]
    fn least_squares_recovers_exact_line() {
        // y = 3 + 2x, with intercept column.
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for i in 0..10 {
            let x = i as f64;
            rows.extend_from_slice(&[1.0, x]);
            y.push(3.0 + 2.0 * x);
        }
        let x = Matrix::from_rows(10, 2, rows);
        let w = least_squares(&x, &y, 0.0).unwrap();
        assert!((w[0] - 3.0).abs() < 1e-8);
        assert!((w[1] - 2.0).abs() < 1e-8);
    }

    #[test]
    fn ridge_handles_collinear_features() {
        // Second feature duplicates the first: singular without ridge.
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for i in 0..5 {
            let x = i as f64;
            rows.extend_from_slice(&[x, x]);
            y.push(4.0 * x);
        }
        let x = Matrix::from_rows(5, 2, rows);
        assert!(least_squares(&x, &y, 0.0).is_none());
        let w = least_squares(&x, &y, 1e-6).unwrap();
        // The solution splits the weight but still predicts correctly.
        let pred = w[0] * 2.0 + w[1] * 2.0;
        assert!((pred - 8.0).abs() < 1e-3);
    }

    #[test]
    fn least_squares_empty_returns_none() {
        let x = Matrix::zeros(0, 2);
        assert!(least_squares(&x, &[], 0.0).is_none());
    }
}
