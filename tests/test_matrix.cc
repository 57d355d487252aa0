/** @file Unit and property tests for the dense matrix / LU solver. */

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "common/matrix.hh"
#include "common/rng.hh"

namespace tg {
namespace {

TEST(Matrix, IdentityAndAccess)
{
    auto m = Matrix::identity(3);
    EXPECT_EQ(m.rows(), 3u);
    EXPECT_EQ(m.cols(), 3u);
    EXPECT_EQ(m.at(0, 0), 1.0);
    EXPECT_EQ(m.at(0, 1), 0.0);
    m.at(1, 2) = 5.0;
    EXPECT_EQ(m(1, 2), 5.0);
}

TEST(Matrix, MultiplyKnownSystem)
{
    Matrix m(2, 3, 0.0);
    m(0, 0) = 1.0;
    m(0, 1) = 2.0;
    m(0, 2) = 3.0;
    m(1, 0) = 4.0;
    m(1, 1) = 5.0;
    m(1, 2) = 6.0;
    auto y = m.multiply({1.0, 1.0, 1.0});
    ASSERT_EQ(y.size(), 2u);
    EXPECT_DOUBLE_EQ(y[0], 6.0);
    EXPECT_DOUBLE_EQ(y[1], 15.0);
}

TEST(Matrix, MaxAbsDiff)
{
    auto a = Matrix::identity(2);
    auto b = Matrix::identity(2);
    b(1, 0) = 0.25;
    EXPECT_DOUBLE_EQ(a.maxAbsDiff(b), 0.25);
}

TEST(MatrixDeath, OutOfRangeAccessPanics)
{
    auto m = Matrix::identity(2);
    EXPECT_DEATH(m.at(2, 0), "out of range");
}

TEST(Lu, SolvesKnownSystem)
{
    // [2 1; 1 3] x = [5; 10] -> x = [1; 3]
    Matrix a(2, 2);
    a(0, 0) = 2.0;
    a(0, 1) = 1.0;
    a(1, 0) = 1.0;
    a(1, 1) = 3.0;
    LuSolver lu(a);
    auto x = lu.solve({5.0, 10.0});
    EXPECT_NEAR(x[0], 1.0, 1e-12);
    EXPECT_NEAR(x[1], 3.0, 1e-12);
}

TEST(Lu, RequiresPivoting)
{
    // Zero on the leading diagonal forces a row swap.
    Matrix a(2, 2);
    a(0, 0) = 0.0;
    a(0, 1) = 1.0;
    a(1, 0) = 1.0;
    a(1, 1) = 0.0;
    LuSolver lu(a);
    auto x = lu.solve({3.0, 7.0});
    EXPECT_NEAR(x[0], 7.0, 1e-12);
    EXPECT_NEAR(x[1], 3.0, 1e-12);
}

TEST(Lu, IdentitySolveIsIdentity)
{
    LuSolver lu(Matrix::identity(5));
    std::vector<double> b = {1, 2, 3, 4, 5};
    auto x = lu.solve(b);
    for (std::size_t i = 0; i < b.size(); ++i)
        EXPECT_DOUBLE_EQ(x[i], b[i]);
}

TEST(Lu, SolveInPlaceMatchesSolve)
{
    Rng rng(1);
    Matrix a(4, 4);
    for (std::size_t r = 0; r < 4; ++r) {
        for (std::size_t c = 0; c < 4; ++c)
            a(r, c) = rng.uniform(-1.0, 1.0);
        a(r, r) += 5.0;
    }
    LuSolver lu(a);
    std::vector<double> b = {1.0, -2.0, 0.5, 3.0};
    auto x1 = lu.solve(b);
    auto x2 = b;
    lu.solveInPlace(x2);
    for (std::size_t i = 0; i < b.size(); ++i)
        EXPECT_DOUBLE_EQ(x1[i], x2[i]);
}

TEST(Lu, InverseColumnsAreUnitSolves)
{
    // Column j of the inverse carries the bits of a solve of e_j (the
    // Woodbury capacitance inverses rely on it), and A A^{-1} = I.
    Rng rng(2);
    const std::size_t n = 5;
    Matrix a(n, n);
    for (std::size_t r = 0; r < n; ++r) {
        for (std::size_t c = 0; c < n; ++c)
            a(r, c) = rng.uniform(-1.0, 1.0);
        a(r, r) += 4.0;
    }
    LuSolver lu(a);
    const Matrix inv = lu.inverse();
    ASSERT_EQ(inv.rows(), n);
    ASSERT_EQ(inv.cols(), n);
    for (std::size_t j = 0; j < n; ++j) {
        std::vector<double> e(n, 0.0);
        e[j] = 1.0;
        lu.solveInPlace(e);
        for (std::size_t i = 0; i < n; ++i) {
            EXPECT_EQ(inv(i, j), e[i]) << "row " << i << " col " << j;
            double ai = 0.0;
            for (std::size_t k = 0; k < n; ++k)
                ai += a(i, k) * inv(k, j);
            EXPECT_NEAR(ai, i == j ? 1.0 : 0.0, 1e-12);
        }
    }
}

TEST(LuDeath, SingularMatrixPanics)
{
    Matrix a(2, 2, 0.0);
    a(0, 0) = 1.0;
    a(0, 1) = 2.0;
    a(1, 0) = 2.0;
    a(1, 1) = 4.0;  // rank 1
    EXPECT_DEATH(LuSolver lu(a), "singular");
}

TEST(LuDeath, NonSquareIsFatal)
{
    Matrix a(2, 3, 1.0);
    EXPECT_EXIT(LuSolver lu(a), ::testing::ExitedWithCode(1),
                "square");
}

TEST(LuDeath, WrongRhsSizePanics)
{
    LuSolver lu(Matrix::identity(3));
    std::vector<double> b = {1.0, 2.0};
    EXPECT_DEATH(lu.solve(b), "rhs size");
}

/** Property sweep: random diagonally-dominant systems solve to
 *  machine-precision residuals across sizes. */
class LuResidual : public ::testing::TestWithParam<int>
{
};

TEST_P(LuResidual, RandomSystemResidualIsTiny)
{
    int n = GetParam();
    Rng rng(static_cast<std::uint64_t>(n) * 7919u);
    Matrix a(static_cast<std::size_t>(n), static_cast<std::size_t>(n));
    for (int r = 0; r < n; ++r) {
        for (int c = 0; c < n; ++c)
            a(static_cast<std::size_t>(r),
              static_cast<std::size_t>(c)) = rng.uniform(-1.0, 1.0);
        a(static_cast<std::size_t>(r), static_cast<std::size_t>(r)) +=
            n;
    }
    std::vector<double> x_true(static_cast<std::size_t>(n));
    for (auto &v : x_true)
        v = rng.uniform(-10.0, 10.0);
    auto b = a.multiply(x_true);

    LuSolver lu(a);
    auto x = lu.solve(b);
    auto b_check = a.multiply(x);
    double scale = 0.0;
    for (double v : b)
        scale = std::max(scale, std::fabs(v));
    for (int i = 0; i < n; ++i)
        EXPECT_NEAR(b_check[static_cast<std::size_t>(i)],
                    b[static_cast<std::size_t>(i)],
                    1e-10 * std::max(1.0, scale));
}

INSTANTIATE_TEST_SUITE_P(Sizes, LuResidual,
                         ::testing::Values(1, 2, 3, 5, 8, 16, 33, 64,
                                           129));

} // namespace
} // namespace tg
