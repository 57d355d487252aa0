/**
 * @file
 * Bit-identity tests of the lockstep batching layer: DoubleBatch lane
 * semantics, the batched/multi-RHS sparse solves against the scalar
 * solver, and DomainPdn::transientWindowBatch against the scalar
 * transient window — all compared with EXPECT_EQ on doubles, because
 * the batched paths promise the *same bits*, not just the same values.
 * The window batch takes both of its lane forms: written-out cycle
 * rows and rank-2 lanes, each pinned to the scalar window written out.
 */

#include <cstddef>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/matrix.hh"
#include "common/rng.hh"
#include "common/simd.hh"
#include "common/sparse.hh"
#include "floorplan/floorplan.hh"
#include "floorplan/power8.hh"
#include "pdn/domain_pdn.hh"
#include "vreg/design.hh"

namespace tg {
namespace {

// ---- DoubleBatch lane semantics -----------------------------------------

TEST(DoubleBatch, LanesAreIndependentScalarOps)
{
    double a[4] = {1.5, -2.25, 3.0e-7, 8.75e12};
    double b[4] = {-0.5, 7.125, -1.0e3, 2.5e-9};
    auto ba = DoubleBatch<4>::load(a);
    auto bb = DoubleBatch<4>::load(b);
    for (int l = 0; l < 4; ++l) {
        EXPECT_EQ((ba + bb)[l], a[l] + b[l]);
        EXPECT_EQ((ba - bb)[l], a[l] - b[l]);
        EXPECT_EQ((ba * bb)[l], a[l] * b[l]);
        EXPECT_EQ((ba / bb)[l], a[l] / b[l]);
        EXPECT_EQ((ba * 3.25)[l], a[l] * 3.25);
        EXPECT_EQ((3.25 * ba)[l], a[l] * 3.25);
        EXPECT_EQ((ba / 3.25)[l], a[l] / 3.25);
        EXPECT_EQ(DoubleBatch<4>::max(ba, bb)[l],
                  std::max(a[l], b[l]));
    }
}

TEST(DoubleBatch, BroadcastLoadStoreRoundTrip)
{
    auto c = DoubleBatch<8>::broadcast(0.1);
    for (int l = 0; l < 8; ++l)
        EXPECT_EQ(c[l], 0.1);
    double src[8] = {0, 1, 2, 3, 4, 5, 6, 7};
    double dst[8] = {};
    DoubleBatch<8>::load(src).store(dst);
    for (int l = 0; l < 8; ++l)
        EXPECT_EQ(dst[l], src[l]);
}

TEST(DoubleBatch, CompoundOpsMatchBinaryOps)
{
    double a[2] = {1.0 / 3.0, -7.5};
    double b[2] = {2.0 / 7.0, 0.125};
    auto x = DoubleBatch<2>::load(a);
    x += DoubleBatch<2>::load(b);
    for (int l = 0; l < 2; ++l)
        EXPECT_EQ(x[l], a[l] + b[l]);
    x = DoubleBatch<2>::load(a);
    x *= DoubleBatch<2>::load(b);
    for (int l = 0; l < 2; ++l)
        EXPECT_EQ(x[l], a[l] * b[l]);
}

// ---- Batched sparse solves ----------------------------------------------

/** PDN-like SPD grid matrix: Laplacian plus a few diagonal boosts. */
SparseMatrix
gridSpd(int w, int h)
{
    auto node = [&](int r, int c) {
        return static_cast<std::size_t>(r * w + c);
    };
    std::vector<Triplet> t;
    for (int r = 0; r < h; ++r)
        for (int c = 0; c < w; ++c) {
            if (c + 1 < w) {
                t.push_back({node(r, c), node(r, c), 2.0});
                t.push_back({node(r, c + 1), node(r, c + 1), 2.0});
                t.push_back({node(r, c), node(r, c + 1), -2.0});
                t.push_back({node(r, c + 1), node(r, c), -2.0});
            }
            if (r + 1 < h) {
                t.push_back({node(r, c), node(r, c), 0.7});
                t.push_back({node(r + 1, c), node(r + 1, c), 0.7});
                t.push_back({node(r, c), node(r + 1, c), -0.7});
                t.push_back({node(r + 1, c), node(r, c), -0.7});
            }
        }
    std::size_t n = static_cast<std::size_t>(w * h);
    for (std::size_t i = 0; i < n; i += 5)
        t.push_back({i, i, 3.1});
    t.push_back({0, 0, 1.0});  // pin: strictly SPD
    return SparseMatrix::fromTriplets(n, n, std::move(t));
}

class BatchSolveTest : public ::testing::Test
{
  protected:
    BatchSolveTest() : a(gridSpd(13, 9)), solver(a) {}

    /** Deterministic pseudo-random right-hand side number k. */
    std::vector<double>
    rhs(int k) const
    {
        Rng rng(mixSeed(0x51u, static_cast<std::uint64_t>(k)));
        std::vector<double> b(a.rows());
        for (double &v : b)
            v = rng.uniform(-2.0, 2.0);
        return b;
    }

    SparseMatrix a;
    SparseLdltSolver solver;
};

TEST_F(BatchSolveTest, BatchLanesMatchScalarBitwise)
{
    std::size_t n = solver.size();
    for (std::size_t width : {1u, 2u, 3u, 4u, 5u, 8u}) {
        // Scalar references first, then the batched solve — and once
        // more in the opposite order, so neither path's scratch
        // warm-up can mask a mismatch.
        for (int order = 0; order < 2; ++order) {
            std::vector<std::vector<double>> ref;
            for (std::size_t l = 0; l < width; ++l) {
                ref.push_back(rhs(static_cast<int>(l)));
                solver.solveInPlace(ref.back());
            }
            std::vector<double> lanes(n * width);
            for (std::size_t l = 0; l < width; ++l) {
                auto b = rhs(static_cast<int>(l));
                for (std::size_t i = 0; i < n; ++i)
                    lanes[i * width + l] = b[i];
            }
            solver.solveBatchInPlace(lanes.data(), width);
            for (std::size_t l = 0; l < width; ++l)
                for (std::size_t i = 0; i < n; ++i)
                    ASSERT_EQ(lanes[i * width + l], ref[l][i])
                        << "width " << width << " lane " << l
                        << " row " << i;
        }
    }
}

TEST_F(BatchSolveTest, MultiRhsMatrixSolveMatchesScalarBitwise)
{
    std::size_t n = solver.size();
    for (std::size_t k : {1u, 2u, 4u, 7u}) {
        Matrix bx(n, k, 0.0);
        std::vector<std::vector<double>> ref;
        for (std::size_t j = 0; j < k; ++j) {
            auto b = rhs(static_cast<int>(j) + 100);
            for (std::size_t i = 0; i < n; ++i)
                bx(i, j) = b[i];
            ref.push_back(std::move(b));
            solver.solveInPlace(ref.back());
        }
        solver.solveInPlace(bx);
        for (std::size_t j = 0; j < k; ++j)
            for (std::size_t i = 0; i < n; ++i)
                ASSERT_EQ(bx(i, j), ref[j][i])
                    << "cols " << k << " col " << j << " row " << i;
    }
}

TEST_F(BatchSolveTest, BatchSolvesTheSystem)
{
    // Sanity beyond self-consistency: the batched result actually
    // satisfies A x = b.
    std::size_t n = solver.size();
    std::size_t width = 4;
    std::vector<std::vector<double>> bs;
    std::vector<double> lanes(n * width);
    for (std::size_t l = 0; l < width; ++l) {
        bs.push_back(rhs(static_cast<int>(l) + 200));
        for (std::size_t i = 0; i < n; ++i)
            lanes[i * width + l] = bs[l][i];
    }
    solver.solveBatchInPlace(lanes.data(), width);
    for (std::size_t l = 0; l < width; ++l) {
        std::vector<double> x(n);
        for (std::size_t i = 0; i < n; ++i)
            x[i] = lanes[i * width + l];
        auto ax = a.multiply(x);
        for (std::size_t i = 0; i < n; ++i)
            ASSERT_NEAR(ax[i], bs[l][i], 1e-9) << "lane " << l;
    }
}

// ---- Lockstep transient windows -----------------------------------------

class WindowBatchTest : public ::testing::Test
{
  protected:
    WindowBatchTest()
        : chip(floorplan::buildPower8Chip()),
          dp(chip, 0, vreg::fivrDesign(), {})
    {
    }

    std::vector<Amperes>
    domainLoad(Watts per_block) const
    {
        std::vector<Watts> bp(chip.plan.blocks().size(), 0.0);
        for (int b : chip.plan.domains()[0].blocks)
            bp[static_cast<std::size_t>(b)] = per_block;
        return dp.nodeCurrents(bp);
    }

    /** Node currents of the domain's logic (or memory) blocks only. */
    std::vector<Amperes>
    unitLoad(Watts per_block, bool logic) const
    {
        std::vector<Watts> bp(chip.plan.blocks().size(), 0.0);
        for (int b : chip.plan.domains()[0].blocks)
            if (floorplan::isLogicUnit(
                    chip.plan.blocks()[static_cast<std::size_t>(b)].kind) ==
                logic)
                bp[static_cast<std::size_t>(b)] = per_block;
        return dp.nodeCurrents(bp);
    }

    /**
     * Flat window w: load stepping from `low` to `high` at midway,
     * with levels varied per window so every lane solves a different
     * problem.
     */
    std::vector<Amperes>
    makeWindow(int w, std::size_t cycles) const
    {
        double low = 0.3 + 0.1 * w;
        double high = 1.2 + 0.15 * w;
        auto l = domainLoad(low);
        auto h = domainLoad(high);
        std::size_t n = static_cast<std::size_t>(dp.nodeCount());
        std::vector<Amperes> win(cycles * n);
        for (std::size_t c = 0; c < cycles; ++c) {
            const auto &src = c < cycles / 2 ? l : h;
            std::copy(src.begin(), src.end(),
                      win.begin() + static_cast<std::ptrdiff_t>(c * n));
        }
        return win;
    }

    /**
     * Rank-2 window w: logic and memory node currents, a per-cycle
     * logic multiplier (a load step plus a seeded ripple) and the
     * damped memory one, and the same window written out row by row
     * in the expression the kernel forms.
     */
    struct Rank2Window
    {
        std::vector<Amperes> logic, mem;
        std::vector<double> ml, mm;
        std::vector<Amperes> rows;  //!< cycles x nodes, written out

        pdn::DomainPdn::WindowLane
        lane() const
        {
            return {logic.data(), mem.data(), ml.data(), mm.data()};
        }
    };

    Rank2Window
    makeRank2(int w, std::size_t cycles) const
    {
        Rank2Window r;
        r.logic = unitLoad(0.8 + 0.1 * w, true);
        r.mem = unitLoad(0.3 + 0.05 * w, false);
        Rng rng(mixSeed(0x7a2u, static_cast<std::uint64_t>(w)));
        for (std::size_t c = 0; c < cycles; ++c) {
            const double step = c < cycles / 2 ? 0.6 : 1.3 + 0.05 * w;
            r.ml.push_back(step + rng.uniform(-0.05, 0.05));
            r.mm.push_back(1.0 + 0.35 * (r.ml.back() - 1.0));
        }
        std::size_t n = static_cast<std::size_t>(dp.nodeCount());
        r.rows.resize(cycles * n);
        for (std::size_t c = 0; c < cycles; ++c)
            for (std::size_t i = 0; i < n; ++i)
                r.rows[c * n + i] =
                    r.logic[i] * r.ml[c] + r.mem[i] * r.mm[c];
        return r;
    }

    /** Every field of `got` carries the bits of `ref`. */
    static void
    expectSameBits(const pdn::NoiseResult &got,
                   const pdn::NoiseResult &ref, const std::string &what)
    {
        EXPECT_EQ(got.maxNoiseFrac, ref.maxNoiseFrac) << what;
        EXPECT_EQ(got.emergencyCycles, ref.emergencyCycles) << what;
        EXPECT_EQ(got.analysedCycles, ref.analysedCycles) << what;
        ASSERT_EQ(got.trace.size(), ref.trace.size()) << what;
        for (std::size_t c = 0; c < ref.trace.size(); ++c)
            ASSERT_EQ(got.trace[c], ref.trace[c]) << what << " cycle " << c;
    }

    floorplan::Chip chip;
    pdn::DomainPdn dp;
};

TEST_F(WindowBatchTest, BatchMatchesScalarAtEveryCount)
{
    // Both lane forms, written-out windows and rank-2 lanes, at every
    // count: 8/4/2 chunks and both ragged tails (scalar kernel for a
    // written-out window, a self-paired two-lane batch for rank-2).
    const std::size_t cycles = 160;
    const int warmup = 40;
    std::size_t n = static_cast<std::size_t>(dp.nodeCount());

    std::vector<std::vector<Amperes>> wins;
    std::vector<Rank2Window> r2;
    for (int w = 0; w < 8; ++w) {
        wins.push_back(makeWindow(w, cycles));
        r2.push_back(makeRank2(w, cycles));
    }

    for (int count = 1; count <= 8; ++count) {
        std::vector<pdn::DomainPdn::WindowSpec> specs;
        std::vector<pdn::DomainPdn::WindowLane> lanes;
        for (int w = 0; w < count; ++w) {
            specs.push_back(
                {wins[static_cast<std::size_t>(w)].data(), n});
            lanes.push_back(r2[static_cast<std::size_t>(w)].lane());
        }
        std::vector<pdn::NoiseResult> out(
            static_cast<std::size_t>(count));
        std::vector<pdn::NoiseResult> out2(
            static_cast<std::size_t>(count));
        dp.transientWindowBatch(specs.data(), count, cycles, warmup,
                                true, out.data());
        dp.transientWindowBatch(lanes.data(), count, cycles, warmup,
                                true, out2.data());
        for (int w = 0; w < count; ++w) {
            const std::size_t uw = static_cast<std::size_t>(w);
            const std::string what = "count " + std::to_string(count) +
                                     " window " + std::to_string(w);
            expectSameBits(out[uw],
                           dp.transientWindow(wins[uw].data(), cycles, n,
                                              warmup, true),
                           what);
            expectSameBits(out2[uw],
                           dp.transientWindow(r2[uw].rows.data(), cycles,
                                              n, warmup, true),
                           "rank-2 " + what);
        }
    }
}

TEST_F(WindowBatchTest, BatchMatchesScalarOnWoodburySubsets)
{
    // An active subset exercises the rank-r correction inside every
    // batched solve; a singleton drives the deepest downdate.
    const std::size_t cycles = 120;
    const int warmup = 30;
    std::size_t n = static_cast<std::size_t>(dp.nodeCount());
    std::vector<std::vector<Amperes>> wins;
    std::vector<Rank2Window> r2;
    for (int w = 0; w < 4; ++w) {
        wins.push_back(makeWindow(w, cycles));
        r2.push_back(makeRank2(w, cycles));
    }

    for (const auto &set :
         std::vector<std::vector<int>>{{0, 4, 8}, {3}}) {
        dp.setActive(set);
        std::vector<pdn::DomainPdn::WindowSpec> specs;
        for (const auto &w : wins)
            specs.push_back({w.data(), n});
        std::vector<pdn::DomainPdn::WindowLane> lanes;
        for (const auto &w : r2)
            lanes.push_back(w.lane());
        std::vector<pdn::NoiseResult> out(wins.size());
        std::vector<pdn::NoiseResult> out2(r2.size());
        dp.transientWindowBatch(specs.data(),
                                static_cast<int>(wins.size()), cycles,
                                warmup, false, out.data());
        dp.transientWindowBatch(lanes.data(),
                                static_cast<int>(r2.size()), cycles,
                                warmup, false, out2.data());
        for (std::size_t w = 0; w < wins.size(); ++w) {
            const std::string what = "set size " +
                                     std::to_string(set.size()) +
                                     " window " + std::to_string(w);
            expectSameBits(out[w],
                           dp.transientWindow(wins[w].data(), cycles, n,
                                              warmup, false),
                           what);
            expectSameBits(out2[w],
                           dp.transientWindow(r2[w].rows.data(), cycles, n,
                                              warmup, false),
                           "rank-2 " + what);
        }
    }
}

TEST_F(WindowBatchTest, RepeatedBatchedWindowIsIdempotent)
{
    // Scratch reuse across calls must not leak state between runs.
    const std::size_t cycles = 100;
    std::size_t n = static_cast<std::size_t>(dp.nodeCount());
    auto win = makeWindow(2, cycles);
    pdn::DomainPdn::WindowSpec specs[4] = {
        {win.data(), n}, {win.data(), n}, {win.data(), n},
        {win.data(), n}};
    pdn::NoiseResult out[4];
    dp.transientWindowBatch(specs, 4, cycles, 20, false, out);
    // All four lanes solved the same window: identical bits.
    for (int w = 1; w < 4; ++w)
        EXPECT_EQ(out[w].maxNoiseFrac, out[0].maxNoiseFrac);
    double first = out[0].maxNoiseFrac;
    dp.transientWindowBatch(specs, 4, cycles, 20, false, out);
    EXPECT_EQ(out[0].maxNoiseFrac, first);

    // The same for rank-2 lanes, with a written-out batch between
    // two calls.
    auto r2 = makeRank2(2, cycles);
    pdn::DomainPdn::WindowLane lanes[4] = {r2.lane(), r2.lane(),
                                           r2.lane(), r2.lane()};
    dp.transientWindowBatch(lanes, 4, cycles, 20, false, out);
    for (int w = 1; w < 4; ++w)
        EXPECT_EQ(out[w].maxNoiseFrac, out[0].maxNoiseFrac);
    double first2 = out[0].maxNoiseFrac;
    dp.transientWindowBatch(specs, 4, cycles, 20, false, out);
    dp.transientWindowBatch(lanes, 4, cycles, 20, false, out);
    EXPECT_EQ(out[0].maxNoiseFrac, first2);
}

TEST_F(WindowBatchTest, DeathOnBadBatchInputs)
{
    std::size_t n = static_cast<std::size_t>(dp.nodeCount());
    auto win = makeWindow(0, 10);
    pdn::DomainPdn::WindowSpec spec = {win.data(), n};
    pdn::NoiseResult out;
    EXPECT_DEATH(
        dp.transientWindowBatch(&spec, 0, 10, 2, false, &out),
        "empty window batch");
    EXPECT_DEATH(
        dp.transientWindowBatch(&spec, 1, 10, 10, false, &out),
        "warmup");
    pdn::DomainPdn::WindowSpec bad = {win.data(), n - 1};
    EXPECT_DEATH(
        dp.transientWindowBatch(&bad, 1, 10, 2, false, &out),
        "stride");

    auto r2 = makeRank2(0, 10);
    pdn::DomainPdn::WindowLane lane = r2.lane();
    EXPECT_DEATH(
        dp.transientWindowBatch(&lane, 0, 10, 2, false, &out),
        "empty window batch");
    EXPECT_DEATH(
        dp.transientWindowBatch(&lane, 1, 10, 10, false, &out),
        "warmup");
    pdn::DomainPdn::WindowLane lanes[2] = {lane, lane};
    lanes[1].memScale = nullptr;
    EXPECT_DEATH(
        dp.transientWindowBatch(lanes, 2, 10, 2, false, &out),
        "rank-2 lane");
}

} // namespace
} // namespace tg
