#include "common/matrix.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace tg {

Matrix::Matrix(std::size_t rows, std::size_t cols, double fill)
    : nRows(rows), nCols(cols), data(rows * cols, fill)
{
}

Matrix
Matrix::identity(std::size_t n)
{
    Matrix m(n, n, 0.0);
    for (std::size_t i = 0; i < n; ++i)
        m(i, i) = 1.0;
    return m;
}

double &
Matrix::at(std::size_t r, std::size_t c)
{
    TG_ASSERT(r < nRows && c < nCols, "matrix index out of range");
    return data[r * nCols + c];
}

double
Matrix::at(std::size_t r, std::size_t c) const
{
    TG_ASSERT(r < nRows && c < nCols, "matrix index out of range");
    return data[r * nCols + c];
}

std::vector<double>
Matrix::multiply(const std::vector<double> &x) const
{
    TG_ASSERT(x.size() == nCols, "matrix-vector shape mismatch");
    std::vector<double> y(nRows, 0.0);
    for (std::size_t r = 0; r < nRows; ++r) {
        const double *rp = row(r);
        double acc = 0.0;
        for (std::size_t c = 0; c < nCols; ++c)
            acc += rp[c] * x[c];
        y[r] = acc;
    }
    return y;
}

double
Matrix::maxAbsDiff(const Matrix &other) const
{
    TG_ASSERT(nRows == other.nRows && nCols == other.nCols,
              "matrix shape mismatch");
    double m = 0.0;
    for (std::size_t i = 0; i < data.size(); ++i)
        m = std::max(m, std::fabs(data[i] - other.data[i]));
    return m;
}

LuSolver::LuSolver(const Matrix &a) : n(a.rows()), lu(a), perm(n)
{
    if (a.rows() != a.cols())
        fatal("LU factorisation requires a square matrix, got ",
              a.rows(), "x", a.cols());

    for (std::size_t i = 0; i < n; ++i)
        perm[i] = i;

    for (std::size_t k = 0; k < n; ++k) {
        // Partial pivoting: bring the largest |entry| of column k into
        // the pivot position.
        std::size_t piv = k;
        double best = std::fabs(lu(k, k));
        for (std::size_t r = k + 1; r < n; ++r) {
            double v = std::fabs(lu(r, k));
            if (v > best) {
                best = v;
                piv = r;
            }
        }
        if (best == 0.0)
            panic("singular matrix in LU factorisation at column ", k);
        if (piv != k) {
            std::swap(perm[piv], perm[k]);
            for (std::size_t c = 0; c < n; ++c)
                std::swap(lu(piv, c), lu(k, c));
        }
        double pivot = lu(k, k);
        for (std::size_t r = k + 1; r < n; ++r) {
            double f = lu(r, k) / pivot;
            lu(r, k) = f;
            if (f == 0.0)
                continue;
            double *rr = lu.row(r);
            const double *kr = lu.row(k);
            for (std::size_t c = k + 1; c < n; ++c)
                rr[c] -= f * kr[c];
        }
    }
}

std::vector<double>
LuSolver::solve(const std::vector<double> &b) const
{
    std::vector<double> x(b);
    solveInPlace(x);
    return x;
}

void
LuSolver::solveInPlace(std::vector<double> &bx) const
{
    TG_ASSERT(bx.size() == n, "rhs size mismatch in LU solve");

    // Apply the row permutation.
    scratch.resize(n);
    std::vector<double> &y = scratch;
    for (std::size_t i = 0; i < n; ++i)
        y[i] = bx[perm[i]];

    // Forward substitution with the unit-diagonal L factor.
    for (std::size_t r = 1; r < n; ++r) {
        const double *rr = lu.row(r);
        double acc = y[r];
        for (std::size_t c = 0; c < r; ++c)
            acc -= rr[c] * y[c];
        y[r] = acc;
    }

    // Back substitution with U.
    for (std::size_t r = n; r-- > 0;) {
        const double *rr = lu.row(r);
        double acc = y[r];
        for (std::size_t c = r + 1; c < n; ++c)
            acc -= rr[c] * y[c];
        y[r] = acc / rr[r];
    }
    bx.assign(y.begin(), y.end());
}

Matrix
LuSolver::inverse() const
{
    Matrix inv(n, n, 0.0);
    std::vector<double> unit(n);
    for (std::size_t j = 0; j < n; ++j) {
        std::fill(unit.begin(), unit.end(), 0.0);
        unit[j] = 1.0;
        solveInPlace(unit);
        for (std::size_t i = 0; i < n; ++i)
            inv(i, j) = unit[i];
    }
    return inv;
}

} // namespace tg
