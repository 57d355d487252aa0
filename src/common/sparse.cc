#include "common/sparse.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.hh"
#include "common/simd.hh"

namespace tg {

SparseMatrix
SparseMatrix::fromTriplets(std::size_t rows, std::size_t cols,
                           std::vector<Triplet> entries)
{
    for (const auto &t : entries)
        TG_ASSERT(t.row < rows && t.col < cols,
                  "triplet out of range");
    std::sort(entries.begin(), entries.end(),
              [](const Triplet &a, const Triplet &b) {
                  return a.row != b.row ? a.row < b.row
                                        : a.col < b.col;
              });

    SparseMatrix m;
    m.nRows = rows;
    m.nCols = cols;
    m.rowStart.assign(rows + 1, 0);
    m.colOf.reserve(entries.size());
    m.vals.reserve(entries.size());
    for (std::size_t i = 0; i < entries.size();) {
        std::size_t j = i;
        double sum = 0.0;
        while (j < entries.size() && entries[j].row == entries[i].row &&
               entries[j].col == entries[i].col)
            sum += entries[j++].value;
        m.colOf.push_back(entries[i].col);
        m.vals.push_back(sum);
        m.rowStart[entries[i].row + 1] = m.colOf.size();
        i = j;
    }
    // Rows without entries inherit the previous row's end offset.
    for (std::size_t r = 1; r <= rows; ++r)
        m.rowStart[r] = std::max(m.rowStart[r], m.rowStart[r - 1]);
    return m;
}

double
SparseMatrix::at(std::size_t r, std::size_t c) const
{
    TG_ASSERT(r < nRows && c < nCols, "sparse index out of range");
    auto begin = colOf.begin() + static_cast<long>(rowStart[r]);
    auto end = colOf.begin() + static_cast<long>(rowStart[r + 1]);
    auto it = std::lower_bound(begin, end, c);
    if (it == end || *it != c)
        return 0.0;
    return vals[static_cast<std::size_t>(it - colOf.begin())];
}

std::vector<double>
SparseMatrix::multiply(const std::vector<double> &x) const
{
    TG_ASSERT(x.size() == nCols, "sparse mat-vec shape mismatch");
    std::vector<double> y(nRows, 0.0);
    for (std::size_t r = 0; r < nRows; ++r) {
        double acc = 0.0;
        for (std::size_t k = rowStart[r]; k < rowStart[r + 1]; ++k)
            acc += vals[k] * x[colOf[k]];
        y[r] = acc;
    }
    return y;
}

std::size_t
SparseMatrix::bandwidth() const
{
    std::size_t b = 0;
    for (std::size_t r = 0; r < nRows; ++r)
        for (std::size_t k = rowStart[r]; k < rowStart[r + 1]; ++k) {
            std::size_t c = colOf[k];
            b = std::max(b, r > c ? r - c : c - r);
        }
    return b;
}

Matrix
SparseMatrix::toDense() const
{
    Matrix m(nRows, nCols, 0.0);
    for (std::size_t r = 0; r < nRows; ++r)
        for (std::size_t k = rowStart[r]; k < rowStart[r + 1]; ++k)
            m(r, colOf[k]) += vals[k];
    return m;
}

namespace {

/**
 * Breadth-first level structure from `root` over the matrix graph;
 * returns the nodes of the last level (candidates for a
 * pseudo-peripheral root) and the eccentricity.
 */
struct LevelResult
{
    std::vector<std::size_t> lastLevel;
    std::size_t depth = 0;
};

LevelResult
bfsLevels(const SparseMatrix &a, std::size_t root,
          std::vector<int> &mark, int stamp)
{
    const auto &row_ptr = a.rowPtr();
    const auto &col = a.colIdx();
    LevelResult res;
    std::vector<std::size_t> level = {root};
    mark[root] = stamp;
    while (!level.empty()) {
        res.lastLevel = level;
        ++res.depth;
        std::vector<std::size_t> next;
        for (std::size_t u : level) {
            for (std::size_t k = row_ptr[u]; k < row_ptr[u + 1];
                 ++k) {
                std::size_t v = col[k];
                if (v == u || mark[v] == stamp)
                    continue;
                mark[v] = stamp;
                next.push_back(v);
            }
        }
        level = std::move(next);
    }
    return res;
}

} // namespace

std::vector<std::size_t>
rcmOrdering(const SparseMatrix &a)
{
    TG_ASSERT(a.rows() == a.cols(),
              "RCM ordering needs a square matrix");
    const std::size_t n = a.rows();
    const auto &row_ptr = a.rowPtr();
    const auto &col = a.colIdx();

    std::vector<std::size_t> degree(n, 0);
    for (std::size_t r = 0; r < n; ++r)
        for (std::size_t k = row_ptr[r]; k < row_ptr[r + 1]; ++k)
            if (col[k] != r)
                ++degree[r];

    std::vector<std::size_t> order;
    order.reserve(n);
    std::vector<int> visited(n, 0);
    std::vector<int> mark(n, 0);
    int stamp = 0;

    for (std::size_t seed = 0; seed < n; ++seed) {
        if (visited[seed])
            continue;

        // Pick the component's minimum-degree unvisited node as the
        // starting candidate, then walk to a pseudo-peripheral node
        // (George-Liu): re-root at a minimum-degree node of the last
        // BFS level while the eccentricity keeps growing.
        std::size_t root = seed;
        {
            LevelResult lv = bfsLevels(a, root, mark, ++stamp);
            for (int iter = 0; iter < 8; ++iter) {
                std::size_t best = lv.lastLevel[0];
                for (std::size_t u : lv.lastLevel)
                    if (degree[u] < degree[best] ||
                        (degree[u] == degree[best] && u < best))
                        best = u;
                if (best == root)
                    break;
                LevelResult next = bfsLevels(a, best, mark, ++stamp);
                if (next.depth <= lv.depth)
                    break;
                root = best;
                lv = std::move(next);
            }
        }

        // Cuthill-McKee: BFS from the root, neighbours appended in
        // (degree, index) order.
        std::size_t head = order.size();
        order.push_back(root);
        visited[root] = 1;
        while (head < order.size()) {
            std::size_t u = order[head++];
            std::vector<std::size_t> nbrs;
            for (std::size_t k = row_ptr[u]; k < row_ptr[u + 1]; ++k) {
                std::size_t v = col[k];
                if (v != u && !visited[v]) {
                    visited[v] = 1;
                    nbrs.push_back(v);
                }
            }
            std::sort(nbrs.begin(), nbrs.end(),
                      [&](std::size_t x, std::size_t y) {
                          return degree[x] != degree[y]
                                     ? degree[x] < degree[y]
                                     : x < y;
                      });
            order.insert(order.end(), nbrs.begin(), nbrs.end());
        }
    }

    std::reverse(order.begin(), order.end());
    return order;
}

SparseLdltSolver::SparseLdltSolver(const SparseMatrix &a)
    : n(a.rows())
{
    if (a.rows() != a.cols())
        fatal("LDL^T factorisation requires a square matrix, got ",
              a.rows(), "x", a.cols());

    perm = rcmOrdering(a);
    std::vector<std::size_t> iperm(n);
    for (std::size_t i = 0; i < n; ++i)
        iperm[perm[i]] = i;

    // Row envelopes of the permuted matrix: the factor fills the full
    // interval [first[i], i), so only the leftmost structural column
    // per row matters.
    const auto &row_ptr = a.rowPtr();
    const auto &col = a.colIdx();
    first.assign(n, 0);
    for (std::size_t i = 0; i < n; ++i) {
        std::size_t lo = i;
        std::size_t old = perm[i];
        for (std::size_t k = row_ptr[old]; k < row_ptr[old + 1]; ++k) {
            std::size_t j = iperm[col[k]];
            if (j < lo)
                lo = j;
        }
        first[i] = lo;
    }

    rowStart.assign(n + 1, 0);
    for (std::size_t i = 0; i < n; ++i)
        rowStart[i + 1] = rowStart[i] + (i - first[i]);
    low.assign(rowStart[n], 0.0);
    diag.assign(n, 0.0);

    // Scatter the permuted lower triangle into the envelope. The
    // matrix is required to be symmetric; only j <= i entries are
    // read.
    for (std::size_t i = 0; i < n; ++i) {
        std::size_t old = perm[i];
        for (std::size_t k = row_ptr[old]; k < row_ptr[old + 1]; ++k) {
            std::size_t j = iperm[col[k]];
            if (j > i)
                continue;
            if (j == i)
                diag[i] += a.values()[k];
            else
                low[rowStart[i] + (j - first[i])] += a.values()[k];
        }
    }

    // In-envelope LDL^T: for each row i and column j in the envelope,
    //   L(i,j) = (A(i,j) - sum_k L(i,k) D(k) L(j,k)) / D(j)
    //   D(i)   = A(i,i) - sum_k L(i,k)^2 D(k)
    for (std::size_t i = 0; i < n; ++i) {
        double *li = low.data() + rowStart[i];
        std::size_t fi = first[i];
        for (std::size_t j = fi; j < i; ++j) {
            const double *lj = low.data() + rowStart[j];
            std::size_t fj = first[j];
            std::size_t k0 = std::max(fi, fj);
            double s = li[j - fi];
            for (std::size_t k = k0; k < j; ++k)
                s -= li[k - fi] * diag[k] * lj[k - fj];
            li[j - fi] = s / diag[j];
        }
        double d = diag[i];
        for (std::size_t k = fi; k < i; ++k)
            d -= li[k - fi] * li[k - fi] * diag[k];
        if (!(d > 0.0) || !std::isfinite(d))
            panic("matrix not positive definite in LDL^T "
                  "factorisation at row ", i, " (pivot ", d, ")");
        diag[i] = d;
    }
}

std::vector<double>
SparseLdltSolver::solve(const std::vector<double> &b) const
{
    std::vector<double> x(b);
    solveInPlace(x);
    return x;
}

void
SparseLdltSolver::solveInPlace(std::vector<double> &bx) const
{
    TG_ASSERT(bx.size() == n, "rhs size mismatch in LDL^T solve");
    solveInPlace(bx.data());
}

// Pinned to a 64-byte line: at other offsets the substitution loops
// ran up to ~25% slower on a 4-core Xeon VM, so a size change anywhere
// earlier in the link order moved the cost of every thermal step.
__attribute__((aligned(64))) void
SparseLdltSolver::solveInPlace(double *bx) const
{
    scratch.resize(n);
    std::vector<double> &y = scratch;
    for (std::size_t i = 0; i < n; ++i)
        y[i] = bx[perm[i]];

    // Forward substitution with unit-diagonal L.
    for (std::size_t i = 0; i < n; ++i) {
        const double *li = low.data() + rowStart[i];
        std::size_t fi = first[i];
        double acc = y[i];
        for (std::size_t j = fi; j < i; ++j)
            acc -= li[j - fi] * y[j];
        y[i] = acc;
    }

    // Diagonal scaling, then back substitution with L^T: the stored
    // rows of L are the columns of L^T, so sweep rows from the bottom
    // and scatter each solved component into the rows above it.
    for (std::size_t i = 0; i < n; ++i)
        y[i] /= diag[i];
    for (std::size_t i = n; i-- > 0;) {
        const double *li = low.data() + rowStart[i];
        std::size_t fi = first[i];
        for (std::size_t j = fi; j < i; ++j)
            y[j] -= li[j - fi] * y[i];
    }

    for (std::size_t i = 0; i < n; ++i)
        bx[perm[i]] = y[i];

#ifdef TG_DEBUG_CHECKS
    for (std::size_t i = 0; i < n; ++i)
        TG_DEBUG_ASSERT(std::isfinite(bx[i]),
                        "non-finite LDL^T solution at row ", i);
#endif
}

/**
 * Fixed-width lockstep solve: identical substitution loops to the
 * scalar solveInPlace(), with every row operation applied to all W
 * lanes before moving on. Lane l therefore sees the scalar op
 * sequence exactly, and the W-wide inner loops auto-vectorise.
 * Pinned to a 64-byte line like solveInPlace().
 */
template <int W>
__attribute__((aligned(64))) void
SparseLdltSolver::solveBatchFixed(double *bx) const
{
    using B = DoubleBatch<W>;
    batchScratch.resize(n * W);
    double *y = batchScratch.data();
    for (std::size_t i = 0; i < n; ++i)
        B::load(bx + perm[i] * W).store(y + i * W);

    // Forward substitution with unit-diagonal L.
    for (std::size_t i = 0; i < n; ++i) {
        const double *li = low.data() + rowStart[i];
        std::size_t fi = first[i];
        B acc = B::load(y + i * W);
        for (std::size_t j = fi; j < i; ++j)
            acc -= B::load(y + j * W) * li[j - fi];
        acc.store(y + i * W);
    }

    // Diagonal scaling, then back substitution with L^T.
    for (std::size_t i = 0; i < n; ++i)
        (B::load(y + i * W) / diag[i]).store(y + i * W);
    for (std::size_t i = n; i-- > 0;) {
        const double *li = low.data() + rowStart[i];
        std::size_t fi = first[i];
        B yi = B::load(y + i * W);
        for (std::size_t j = fi; j < i; ++j)
            (B::load(y + j * W) - yi * li[j - fi]).store(y + j * W);
    }

    for (std::size_t i = 0; i < n; ++i)
        B::load(y + i * W).store(bx + perm[i] * W);
}

/** Runtime-width fallback with the same per-lane operation order. */
void
SparseLdltSolver::solveBatchGeneric(double *bx, std::size_t width) const
{
    const std::size_t w = width;
    batchScratch.resize(n * w);
    double *y = batchScratch.data();
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t l = 0; l < w; ++l)
            y[i * w + l] = bx[perm[i] * w + l];

    for (std::size_t i = 0; i < n; ++i) {
        const double *li = low.data() + rowStart[i];
        std::size_t fi = first[i];
        double *yi = y + i * w;
        for (std::size_t j = fi; j < i; ++j) {
            const double c = li[j - fi];
            const double *yj = y + j * w;
            for (std::size_t l = 0; l < w; ++l)
                yi[l] -= c * yj[l];
        }
    }

    for (std::size_t i = 0; i < n; ++i) {
        const double d = diag[i];
        for (std::size_t l = 0; l < w; ++l)
            y[i * w + l] /= d;
    }
    for (std::size_t i = n; i-- > 0;) {
        const double *li = low.data() + rowStart[i];
        std::size_t fi = first[i];
        const double *yi = y + i * w;
        for (std::size_t j = fi; j < i; ++j) {
            const double c = li[j - fi];
            double *yj = y + j * w;
            for (std::size_t l = 0; l < w; ++l)
                yj[l] -= c * yi[l];
        }
    }

    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t l = 0; l < w; ++l)
            bx[perm[i] * w + l] = y[i * w + l];
}

void
SparseLdltSolver::solveBatchInPlace(double *bx, std::size_t width) const
{
    TG_ASSERT(width > 0, "batched solve needs at least one lane");
    switch (width) {
      case 1: solveInPlace(bx); break;
      case 2: solveBatchFixed<2>(bx); break;
      case 4: solveBatchFixed<4>(bx); break;
      case 8: solveBatchFixed<8>(bx); break;
      default: solveBatchGeneric(bx, width); break;
    }

#ifdef TG_DEBUG_CHECKS
    for (std::size_t i = 0; i < n * width; ++i)
        TG_DEBUG_ASSERT(std::isfinite(bx[i]),
                        "non-finite LDL^T batch solution at element ",
                        i, " (width ", width, ")");
#endif
}

void
SparseLdltSolver::solveInPlace(Matrix &bx) const
{
    TG_ASSERT(bx.rows() == n, "multi-RHS rows mismatch in LDL^T solve");
    TG_ASSERT(bx.cols() > 0, "multi-RHS solve needs columns");
    // Row-major n x k storage IS the interleaved lane layout.
    solveBatchInPlace(bx.row(0), bx.cols());
}

std::size_t
SparseLdltSolver::envelopeBandwidth() const
{
    std::size_t b = 0;
    for (std::size_t i = 0; i < n; ++i)
        b = std::max(b, i - first[i]);
    return b;
}

} // namespace tg
