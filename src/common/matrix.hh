/**
 * @file
 * Dense linear algebra: a row-major matrix type (also the multi-RHS
 * block of SparseLdltSolver) and an LU factorisation with partial
 * pivoting for small dense systems.
 */

#ifndef TG_COMMON_MATRIX_HH
#define TG_COMMON_MATRIX_HH

#include <cstddef>
#include <vector>

namespace tg {

/** Row-major dense matrix of doubles. */
class Matrix
{
  public:
    Matrix() = default;

    /** Construct a rows x cols matrix filled with `fill`. */
    Matrix(std::size_t rows, std::size_t cols, double fill = 0.0);

    /** Construct a square identity matrix of dimension n. */
    static Matrix identity(std::size_t n);

    std::size_t rows() const { return nRows; }
    std::size_t cols() const { return nCols; }

    /** Element access (bounds checked via TG_ASSERT in debug paths). */
    double &at(std::size_t r, std::size_t c);
    double at(std::size_t r, std::size_t c) const;

    /** Unchecked element access for hot loops. */
    double &operator()(std::size_t r, std::size_t c)
    {
        return data[r * nCols + c];
    }
    double operator()(std::size_t r, std::size_t c) const
    {
        return data[r * nCols + c];
    }

    /** Pointer to the start of row r (row-major layout). */
    double *row(std::size_t r) { return data.data() + r * nCols; }
    const double *row(std::size_t r) const
    {
        return data.data() + r * nCols;
    }

    /** y = this * x for a square or rectangular matrix. */
    std::vector<double> multiply(const std::vector<double> &x) const;

    /** Frobenius-norm of (this - other); matrices must match shape. */
    double maxAbsDiff(const Matrix &other) const;

  private:
    std::size_t nRows = 0;
    std::size_t nCols = 0;
    std::vector<double> data;
};

/**
 * LU factorisation with partial pivoting of a square matrix.
 *
 * The factorisation is performed once at construction; solve() then
 * costs O(n^2) per right-hand side. The thermal and PDN solvers use
 * SparseLdltSolver (common/sparse.hh); LU only inverts the small
 * r x r capacitance matrices of the PDN's Woodbury downdates, and
 * serves as the dense reference in tests and benches.
 */
class LuSolver
{
  public:
    /** Factor `a`; fatals if `a` is not square, panics if singular. */
    explicit LuSolver(const Matrix &a);

    /** Solve A x = b, returning x. */
    std::vector<double> solve(const std::vector<double> &b) const;

    /**
     * Solve in place: `bx` holds b on entry and x on return. Reuses
     * an internal scratch vector, so repeated solves perform no heap
     * allocation — which also means a single LuSolver must not serve
     * concurrent solves from multiple threads.
     */
    void solveInPlace(std::vector<double> &bx) const;

    /** A^{-1}: column j is solveInPlace() of the unit vector e_j. */
    Matrix inverse() const;

    /** Dimension of the factored system. */
    std::size_t size() const { return n; }

  private:
    std::size_t n = 0;
    Matrix lu;                 //!< packed L (unit diag) and U factors
    std::vector<std::size_t> perm; //!< row permutation from pivoting
    mutable std::vector<double> scratch; //!< permuted solve workspace
};

} // namespace tg

#endif // TG_COMMON_MATRIX_HH
