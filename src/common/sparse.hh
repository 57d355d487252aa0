/**
 * @file
 * Sparse linear algebra for the thermal RC and PDN hot paths.
 *
 * Both physics substrates assemble 5-point-stencil grid matrices with
 * a handful of bordered branches: symmetric, positive definite, and
 * over 99% zero at the default sizes. This header provides
 *
 *  - SparseMatrix: immutable CSR storage built from (row, col, value)
 *    triplets (duplicates are summed, as with stamp-style assembly);
 *  - rcmOrdering(): a reverse Cuthill-McKee fill-reducing permutation
 *    over the matrix graph (deterministic: ties break on node index);
 *  - SparseLdltSolver: an envelope (skyline) LDL^T factorisation.
 *    Under the RCM ordering all factor fill is confined to a narrow
 *    variable band, so factorisation costs O(n b^2) and each solve
 *    O(n b) for envelope bandwidth b — versus O(n^3)/O(n^2) for the
 *    dense LU these systems used before.
 *
 * Solvers keep a reusable scratch vector so solveInPlace() performs
 * no heap allocation after the first call; a given solver instance
 * must therefore not be shared by concurrent solves (the sweep engine
 * runs one Simulation — hence one solver set — per worker).
 */

#ifndef TG_COMMON_SPARSE_HH
#define TG_COMMON_SPARSE_HH

#include <cstddef>
#include <vector>

#include "common/matrix.hh"

namespace tg {

/** One assembly stamp: a(row, col) += value. */
struct Triplet
{
    std::size_t row = 0;
    std::size_t col = 0;
    double value = 0.0;
};

/** Immutable compressed-sparse-row matrix of doubles. */
class SparseMatrix
{
  public:
    SparseMatrix() = default;

    /**
     * Build from assembly triplets; duplicate (row, col) entries are
     * summed. Entries that cancel to exactly 0.0 are kept (structure
     * is what matters for the solvers downstream).
     */
    static SparseMatrix fromTriplets(std::size_t rows,
                                     std::size_t cols,
                                     std::vector<Triplet> entries);

    std::size_t rows() const { return nRows; }
    std::size_t cols() const { return nCols; }
    std::size_t nonZeros() const { return vals.size(); }

    /** Value at (r, c); 0.0 when the entry is not stored. */
    double at(std::size_t r, std::size_t c) const;

    /** y = this * x. */
    std::vector<double> multiply(const std::vector<double> &x) const;

    /** Max |r - c| over stored entries (structural bandwidth). */
    std::size_t bandwidth() const;

    /** Dense copy (tests and reference comparisons only). */
    Matrix toDense() const;

    /** Raw CSR access for solvers and orderings. */
    const std::vector<std::size_t> &rowPtr() const { return rowStart; }
    const std::vector<std::size_t> &colIdx() const { return colOf; }
    const std::vector<double> &values() const { return vals; }

  private:
    std::size_t nRows = 0;
    std::size_t nCols = 0;
    std::vector<std::size_t> rowStart; //!< size nRows + 1
    std::vector<std::size_t> colOf;    //!< column per stored entry
    std::vector<double> vals;          //!< value per stored entry
};

/**
 * Reverse Cuthill-McKee ordering of a structurally-symmetric square
 * matrix: returns perm with perm[new_index] = old_index. BFS roots
 * are pseudo-peripheral nodes; neighbours enqueue by (degree, index)
 * so the result is deterministic. Disconnected components are ordered
 * one after another.
 */
std::vector<std::size_t> rcmOrdering(const SparseMatrix &a);

/**
 * Envelope (skyline) LDL^T factorisation of a symmetric positive
 * definite sparse matrix, factored once at construction and
 * back-substituted per solve.
 *
 * The matrix is permuted by reverse Cuthill-McKee first, which
 * confines the envelope of a grid matrix to a band of roughly the
 * grid's smaller edge.
 *
 * Panics when a pivot is not strictly positive (matrix not SPD).
 */
class SparseLdltSolver
{
  public:
    explicit SparseLdltSolver(const SparseMatrix &a);

    /** Solve A x = b, returning x. */
    std::vector<double> solve(const std::vector<double> &b) const;

    /**
     * Solve in place: `bx` holds b on entry and x on return. Performs
     * no heap allocation after the first call (reuses scratch).
     */
    void solveInPlace(std::vector<double> &bx) const;

    /** solveInPlace() over a raw buffer of size() doubles. */
    void solveInPlace(double *bx) const;

    /**
     * Multi-RHS solve: `bx` is a size() x k row-major matrix whose k
     * columns are independent right-hand sides, any k >= 1. Columns
     * go through solveBatchInPlace() in the chunks of
     * forEachLockstepChunk() (common/simd.hh): each chunk is gathered
     * into an n x W lane buffer, its spare lanes repeating its last
     * column, and only its live columns are written back. Column j of
     * the result is bit-identical to a scalar solveInPlace() of
     * column j.
     */
    void solveInPlace(Matrix &bx) const;

    /**
     * Lockstep solve of W interleaved right-hand sides, W = 2, 4 or
     * 8: lane l of row i lives at bx[i * W + l] (a row-major n x W
     * buffer). One envelope traversal advances every lane, streaming
     * each factor entry once per batch instead of once per lane; lane
     * l executes the floating-point ops of a scalar solveInPlace() in
     * the same order, so its result has the same bits. No heap
     * allocation after the first call at a given width.
     */
    template <int W>
    void solveBatchInPlace(double *bx) const;

    /** Dimension of the factored system. */
    std::size_t size() const { return n; }

    /** Strictly-lower entries stored in the factor envelope. */
    std::size_t profileNonZeros() const { return low.size(); }

    /** Max row envelope width (factor bandwidth after ordering). */
    std::size_t envelopeBandwidth() const;

  private:
    std::size_t n = 0;
    std::vector<std::size_t> perm;  //!< perm[new] = old
    std::vector<std::size_t> first; //!< leftmost column of row's envelope
    std::vector<std::size_t> rowStart; //!< packed offsets, size n + 1
    std::vector<double> low;        //!< packed strictly-lower L entries
    std::vector<double> diag;       //!< D of the LDL^T factorisation
    mutable std::vector<double> scratch; //!< permuted solve workspace
    mutable std::vector<double> batchScratch; //!< n x W workspace
};

} // namespace tg

#endif // TG_COMMON_SPARSE_HH
