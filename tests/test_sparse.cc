/** @file Unit tests for the sparse CSR / RCM / LDL^T layer. */

#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "common/matrix.hh"
#include "common/rng.hh"
#include "common/sparse.hh"

namespace tg {
namespace {

/**
 * 5-point-stencil grid Laplacian with random edge conductances plus
 * a positive diagonal shift: the shape of every system matrix in the
 * thermal and PDN substrates.
 */
SparseMatrix
gridSystem(int w, int h, double shift, Rng &rng)
{
    std::vector<Triplet> t;
    auto node = [w](int r, int c) {
        return static_cast<std::size_t>(r * w + c);
    };
    auto couple = [&](std::size_t a, std::size_t b, double g) {
        t.push_back({a, a, g});
        t.push_back({b, b, g});
        t.push_back({a, b, -g});
        t.push_back({b, a, -g});
    };
    for (int r = 0; r < h; ++r)
        for (int c = 0; c < w; ++c) {
            if (c + 1 < w)
                couple(node(r, c), node(r, c + 1),
                       rng.uniform(0.5, 2.0));
            if (r + 1 < h)
                couple(node(r, c), node(r + 1, c),
                       rng.uniform(0.5, 2.0));
            t.push_back({node(r, c), node(r, c),
                         shift * rng.uniform(0.5, 1.5)});
        }
    std::size_t n = static_cast<std::size_t>(w * h);
    return SparseMatrix::fromTriplets(n, n, std::move(t));
}

TEST(SparseMatrixTest, TripletsSumAndSort)
{
    auto m = SparseMatrix::fromTriplets(
        3, 3,
        {{2, 1, 1.0}, {0, 0, 2.0}, {2, 1, 0.5}, {1, 2, -3.0}});
    EXPECT_EQ(m.rows(), 3u);
    EXPECT_EQ(m.cols(), 3u);
    EXPECT_EQ(m.nonZeros(), 3u);  // (2,1) duplicates merged
    EXPECT_DOUBLE_EQ(m.at(2, 1), 1.5);
    EXPECT_DOUBLE_EQ(m.at(0, 0), 2.0);
    EXPECT_DOUBLE_EQ(m.at(1, 2), -3.0);
    EXPECT_DOUBLE_EQ(m.at(0, 2), 0.0);
}

TEST(SparseMatrixTest, EmptyRowsHandled)
{
    auto m = SparseMatrix::fromTriplets(4, 4, {{3, 3, 1.0}});
    EXPECT_DOUBLE_EQ(m.at(3, 3), 1.0);
    EXPECT_DOUBLE_EQ(m.at(1, 1), 0.0);
    auto y = m.multiply({1.0, 1.0, 1.0, 2.0});
    EXPECT_DOUBLE_EQ(y[0], 0.0);
    EXPECT_DOUBLE_EQ(y[3], 2.0);
}

TEST(SparseMatrixTest, MultiplyMatchesDense)
{
    Rng rng(3);
    auto m = gridSystem(5, 4, 0.3, rng);
    Matrix d = m.toDense();
    std::vector<double> x(m.cols());
    for (auto &v : x)
        v = rng.uniform(-1.0, 1.0);
    auto ys = m.multiply(x);
    auto yd = d.multiply(x);
    for (std::size_t i = 0; i < ys.size(); ++i)
        EXPECT_NEAR(ys[i], yd[i], 1e-12);
}

TEST(SparseMatrixTest, DeathOnBadTriplet)
{
    EXPECT_DEATH(SparseMatrix::fromTriplets(2, 2, {{2, 0, 1.0}}),
                 "out of range");
}

TEST(RcmTest, ProducesValidPermutation)
{
    Rng rng(5);
    auto m = gridSystem(7, 6, 0.2, rng);
    auto perm = rcmOrdering(m);
    ASSERT_EQ(perm.size(), m.rows());
    std::vector<std::size_t> sorted(perm);
    std::sort(sorted.begin(), sorted.end());
    for (std::size_t i = 0; i < sorted.size(); ++i)
        EXPECT_EQ(sorted[i], i);
}

TEST(RcmTest, ReducesGridBandwidth)
{
    // A w x h grid numbered row-major has bandwidth w; RCM renumbers
    // it diagonally, cutting the bandwidth to about min(w, h).
    Rng rng(7);
    auto m = gridSystem(24, 6, 0.2, rng);
    EXPECT_EQ(m.bandwidth(), 24u);
    SparseLdltSolver rcm(m);
    EXPECT_LT(rcm.envelopeBandwidth(), m.bandwidth());
    EXPECT_LE(rcm.envelopeBandwidth(), 12u);
}

TEST(RcmTest, HandlesDisconnectedComponents)
{
    // Two independent 2-node systems.
    auto m = SparseMatrix::fromTriplets(
        4, 4,
        {{0, 0, 2.0}, {2, 2, 2.0}, {0, 2, -1.0}, {2, 0, -1.0},
         {1, 1, 2.0}, {3, 3, 2.0}, {1, 3, -1.0}, {3, 1, -1.0}});
    auto perm = rcmOrdering(m);
    std::vector<std::size_t> sorted(perm);
    std::sort(sorted.begin(), sorted.end());
    for (std::size_t i = 0; i < 4; ++i)
        EXPECT_EQ(sorted[i], i);
    SparseLdltSolver s(m);
    auto x = s.solve({1.0, 2.0, 3.0, 4.0});
    auto b = m.multiply(x);
    EXPECT_NEAR(b[0], 1.0, 1e-12);
    EXPECT_NEAR(b[3], 4.0, 1e-12);
}

TEST(LdltTest, MatchesDenseLuOnGridSystems)
{
    Rng rng(11);
    for (int trial = 0; trial < 4; ++trial) {
        int w = 3 + 5 * trial;
        int h = 4 + 3 * trial;
        auto m = gridSystem(w, h, 0.1 + 0.3 * trial, rng);
        SparseLdltSolver sparse(m);
        LuSolver dense(m.toDense());
        std::vector<double> b(m.rows());
        for (auto &v : b)
            v = rng.uniform(-2.0, 2.0);
        auto xs = sparse.solve(b);
        auto xd = dense.solve(b);
        for (std::size_t i = 0; i < xs.size(); ++i)
            EXPECT_NEAR(xs[i], xd[i], 1e-9) << "node " << i;
    }
}

TEST(LdltTest, SolveInPlaceIsConsistent)
{
    Rng rng(13);
    auto m = gridSystem(9, 9, 0.4, rng);
    SparseLdltSolver s(m);
    std::vector<double> b(m.rows(), 1.0);
    auto x = s.solve(b);
    s.solveInPlace(b);
    for (std::size_t i = 0; i < b.size(); ++i)
        EXPECT_DOUBLE_EQ(b[i], x[i]);
    // Residual check against the matrix itself.
    auto back = m.multiply(x);
    for (double v : back)
        EXPECT_NEAR(v, 1.0, 1e-9);
}

TEST(LdltTest, BorderedBranchRowsFactorise)
{
    // Grid plus two bordered branch nodes attached to interior grid
    // nodes — the thermal model's VR-node shape.
    Rng rng(17);
    auto grid = gridSystem(6, 6, 0.2, rng);
    std::size_t n = grid.rows();
    std::vector<Triplet> t;
    for (std::size_t r = 0; r < n; ++r)
        for (std::size_t k = grid.rowPtr()[r];
             k < grid.rowPtr()[r + 1]; ++k)
            t.push_back({r, grid.colIdx()[k], grid.values()[k]});
    for (std::size_t b = 0; b < 2; ++b) {
        std::size_t host = 7 + 11 * b;
        std::size_t node = n + b;
        double g = 3.0;
        t.push_back({node, node, g + 0.05});
        t.push_back({host, host, g});
        t.push_back({node, host, -g});
        t.push_back({host, node, -g});
    }
    auto m = SparseMatrix::fromTriplets(n + 2, n + 2, std::move(t));
    SparseLdltSolver sparse(m);
    LuSolver dense(m.toDense());
    std::vector<double> b(n + 2, 0.5);
    b[3] = -1.0;
    auto xs = sparse.solve(b);
    auto xd = dense.solve(b);
    for (std::size_t i = 0; i < xs.size(); ++i)
        EXPECT_NEAR(xs[i], xd[i], 1e-9);
}

TEST(LdltTest, DeathOnIndefiniteMatrix)
{
    auto m = SparseMatrix::fromTriplets(
        2, 2, {{0, 0, 1.0}, {1, 1, 1.0}, {0, 1, 5.0}, {1, 0, 5.0}});
    EXPECT_DEATH(SparseLdltSolver s(m), "not positive definite");
}

TEST(LdltTest, DeathOnNonSquare)
{
    auto m = SparseMatrix::fromTriplets(2, 3, {{0, 0, 1.0}});
    EXPECT_DEATH(SparseLdltSolver s(m), "square");
}

} // namespace
} // namespace tg
