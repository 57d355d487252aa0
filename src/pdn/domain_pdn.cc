#include "pdn/domain_pdn.hh"

#include <algorithm>
#include <cmath>
#include <limits>
#include <type_traits>

#include "cache/fingerprint.hh"
#include "cache/store.hh"
#include "common/fields.hh"
#include "common/logging.hh"
#include "common/simd.hh"

namespace tg {
namespace pdn {

namespace {

/**
 * Cached construction product of one DomainPdn: the two all-branch
 * base factorisations plus the transfer-resistance matrix (whose
 * n+m batched unit solves dominate construction). The artifact is
 * immutable; each DomainPdn COPIES the solvers out of it, because a
 * SparseLdltSolver carries mutable per-instance solve scratch that
 * must not be shared across threads — the copy reuses the factor
 * numerics (the expensive part) and gets fresh scratch.
 */
struct PdnBaseArtifact
{
    SparseLdltSolver steady;
    SparseLdltSolver transient;
    Matrix transferR;
};

std::size_t
solverBytes(const SparseLdltSolver &s)
{
    // factor envelope + diag + permutation/pointer arrays
    return sizeof(double) * (s.profileNonZeros() + s.size()) +
           4 * sizeof(std::size_t) * s.size();
}

/**
 * Everything the base factors and transfer resistances depend on:
 * this domain's slice of the chip, the VR sites in use, the
 * electrical design values the PDN reads, and the grid parameters.
 */
cache::Fingerprint
pdnBaseKey(const floorplan::Chip &chip, int domain,
           const vreg::VrDesign &design, const PdnParams &prm,
           const std::vector<floorplan::Rect> &sites)
{
    // A new VrDesign member fails the build until the chain takes it.
    static_assert(fields::memberCount<vreg::VrDesign>() == 8);
    cache::Hasher h;
    h.str("tg.key.pdn-base.v1");
    h.fp(cache::chipFingerprint(chip));
    h.i64(domain);
    h.str(design.name)
        .u64(static_cast<std::uint64_t>(design.topology))
        .f64(design.curve.peakCurrent())
        .f64(design.curve.peakEta())
        .f64(design.areaMm2)
        .f64(design.iMax)
        .f64(design.responseTime)
        .f64(design.outputResistance)
        .f64(design.outputInductance);
    cache::hashPdnParams(h, prm);
    h.u64(sites.size());
    for (const auto &r : sites)
        h.f64(r.x).f64(r.y).f64(r.w).f64(r.h);
    return h.digest();
}

/**
 * The lockstep kernel's row sources: where W lanes' load currents
 * come from. cycle(c) selects a cycle and at(i) gives node i's
 * currents across the lanes in that cycle.
 */
template <int W, class Lane>
struct LaneRows;

/** Written-out windows: lane l's cycle c is the row at
 *  `currents + c * stride`, gathered node by node. */
template <int W>
struct LaneRows<W, DomainPdn::WindowSpec>
{
    LaneRows(const DomainPdn::WindowSpec *w, std::size_t,
             std::vector<double> &)
        : windows(w)
    {
    }
    void cycle(std::size_t c)
    {
        for (int l = 0; l < W; ++l)
            row[l] = windows[l].currents + c * windows[l].stride;
    }
    DoubleBatch<W> at(std::size_t i) const
    {
        double cur[W];
        for (int l = 0; l < W; ++l)
            cur[l] = row[l][i];
        return DoubleBatch<W>::load(cur);
    }

    const DomainPdn::WindowSpec *windows;
    const Amperes *row[W] = {};
};

/**
 * Rank-2 lanes: the lanes' logic and memory node currents are
 * interleaved once per batch (node i of lane l at i * W + l), a
 * cycle's two scale rows are gathered once per cycle, and each
 * current is the scalar expression logic[i] * ml + mem[i] * mm
 * evaluated lane-wise.
 */
template <int W>
struct LaneRows<W, DomainPdn::WindowLane>
{
    LaneRows(const DomainPdn::WindowLane *l, std::size_t n,
             std::vector<double> &scratch)
        : lanes(l)
    {
        scratch.resize(2 * n * W);
        logic = scratch.data();
        mem = logic + n * W;
        for (std::size_t i = 0; i < n; ++i)
            for (int k = 0; k < W; ++k) {
                logic[i * W + k] = lanes[k].logic[i];
                mem[i * W + k] = lanes[k].mem[i];
            }
    }
    void cycle(std::size_t c)
    {
        double a[W], b[W];
        for (int l = 0; l < W; ++l) {
            a[l] = lanes[l].logicScale[c];
            b[l] = lanes[l].memScale[c];
        }
        ml = DoubleBatch<W>::load(a);
        mm = DoubleBatch<W>::load(b);
    }
    DoubleBatch<W> at(std::size_t i) const
    {
        return DoubleBatch<W>::load(logic + i * W) * ml +
               DoubleBatch<W>::load(mem + i * W) * mm;
    }

    const DomainPdn::WindowLane *lanes;
    double *logic = nullptr;
    double *mem = nullptr;
    DoubleBatch<W> ml, mm;
};

} // namespace

DomainPdn::DomainPdn(const floorplan::Chip &chip, int domain,
                     const vreg::VrDesign &design, PdnParams params,
                     std::vector<floorplan::Rect> custom_vr_sites)
    : chipRef(chip), domain(domain), design(design), prm(params),
      vrSites(std::move(custom_vr_sites))
{
    const auto &domains = chip.plan.domains();
    if (domain < 0 || domain >= static_cast<int>(domains.size()))
        fatal("bad domain id ", domain);
    const auto &dom = domains[static_cast<std::size_t>(domain)];
    if (vrSites.empty()) {
        for (int v : dom.vrs)
            vrSites.push_back(
                chip.plan.vrs()[static_cast<std::size_t>(v)].rect);
    } else if (vrSites.size() != dom.vrs.size()) {
        fatal("custom VR site count ", vrSites.size(),
              " != domain VR count ", dom.vrs.size());
    }
    buildTopology();
    if (vrCount() > 64)
        fatal("factorisation cache keys active sets as a 64-bit mask; "
              "domain has ", vrCount(), " VRs");

    // Base factors + transfer resistances are a pure function of the
    // key below, so fresh instances (one per sweep worker, one per
    // bench process iteration) clone the cached artifact instead of
    // re-factoring and re-solving the n+m transfer columns.
    const cache::Fingerprint key =
        pdnBaseKey(chip, domain, design, prm, vrSites);
    if (auto hit = cache::store().get<PdnBaseArtifact>(
            cache::ArtifactKind::PdnBase, key)) {
        steadyBase = std::make_unique<SparseLdltSolver>(hit->steady);
        transientBase =
            std::make_unique<SparseLdltSolver>(hit->transient);
        transferR = hit->transferR;
    } else {
        buildBaseFactors();
        buildTransferResistances();
        auto made = std::make_shared<const PdnBaseArtifact>(
            PdnBaseArtifact{*steadyBase, *transientBase, transferR});
        cache::store().put<PdnBaseArtifact>(
            cache::ArtifactKind::PdnBase, key, made,
            solverBytes(made->steady) + solverBytes(made->transient) +
                sizeof(double) * made->transferR.rows() *
                    made->transferR.cols());
    }

    // Default: everything on.
    std::vector<int> all(vrNodes.size());
    for (std::size_t i = 0; i < all.size(); ++i)
        all[i] = static_cast<int>(i);
    setActive(all);
}

void
DomainPdn::buildTopology()
{
    const auto &plan = chipRef.plan;
    const auto &dom =
        plan.domains()[static_cast<std::size_t>(domain)];

    // Domain bounding box [mm].
    double x0 = std::numeric_limits<double>::infinity();
    double y0 = x0;
    double x1 = -x0;
    double y1 = -x0;
    for (int b : dom.blocks) {
        const auto &r = plan.blocks()[static_cast<std::size_t>(b)].rect;
        x0 = std::min(x0, r.x);
        y0 = std::min(y0, r.y);
        x1 = std::max(x1, r.x + r.w);
        y1 = std::max(y1, r.y + r.h);
    }
    originX = x0;
    originY = y0;
    pitchMm = prm.nodePitch * 1e3;
    gridW = std::max(2, static_cast<int>(std::round((x1 - x0) /
                                                    pitchMm)));
    gridH = std::max(2, static_cast<int>(std::round((y1 - y0) /
                                                    pitchMm)));
    nNodes = gridW * gridH;
    cellW = (x1 - x0) / gridW;  // actual pitch after rounding
    cellH = (y1 - y0) / gridH;
    double cell_w = cellW;
    double cell_h = cellH;

    auto node_at = [&](int r, int c) { return r * gridW + c; };

    // R-mesh conductances, stamped as triplets and assembled in CSR.
    std::vector<Triplet> stamps;
    stamps.reserve(static_cast<std::size_t>(nNodes) * 8);
    auto couple = [&](int a, int b, double cond) {
        std::size_t ua = static_cast<std::size_t>(a);
        std::size_t ub = static_cast<std::size_t>(b);
        stamps.push_back({ua, ua, cond});
        stamps.push_back({ub, ub, cond});
        stamps.push_back({ua, ub, -cond});
        stamps.push_back({ub, ua, -cond});
    };
    for (int r = 0; r < gridH; ++r) {
        for (int c = 0; c < gridW; ++c) {
            if (c + 1 < gridW)
                couple(node_at(r, c), node_at(r, c + 1),
                       (cell_w / cell_h) / prm.sheetResistance);
            if (r + 1 < gridH)
                couple(node_at(r, c), node_at(r + 1, c),
                       (cell_h / cell_w) / prm.sheetResistance);
        }
    }
    gGrid = SparseMatrix::fromTriplets(static_cast<std::size_t>(nNodes),
                                       static_cast<std::size_t>(nNodes),
                                       std::move(stamps));

    // Decap per node.
    decap.assign(static_cast<std::size_t>(nNodes),
                 prm.decapPerMm2 * cell_w * cell_h);

    // Attach each of the domain's VRs to the nearest mesh node.
    vrNodes.clear();
    for (const auto &site : vrSites) {
        int c = std::clamp(
            static_cast<int>((site.cx() - originX) / cell_w), 0,
            gridW - 1);
        int r = std::clamp(
            static_cast<int>((site.cy() - originY) / cell_h), 0,
            gridH - 1);
        vrNodes.push_back(node_at(r, c));
    }

    // Per-VR loop inductance: output inductance plus grid loop
    // inductance growing with the distance to the logic centroid
    // (the domain's current hot spot).
    {
        double cx = 0.0;
        double cy = 0.0;
        double wsum = 0.0;
        for (int b : dom.blocks) {
            const auto &blk = plan.blocks()[static_cast<std::size_t>(b)];
            if (!floorplan::isLogicUnit(blk.kind))
                continue;
            double w = blk.rect.area();
            cx += w * blk.rect.cx();
            cy += w * blk.rect.cy();
            wsum += w;
        }
        if (wsum == 0.0) {
            // Memory-only domain (L3 bank): centre of the domain box.
            cx = originX + 0.5 * gridW * cell_w;
            cy = originY + 0.5 * gridH * cell_h;
        } else {
            cx /= wsum;
            cy /= wsum;
        }
        vrLoopL.clear();
        for (const auto &site : vrSites) {
            double dx = (site.cx() - cx) * 1e-3;
            double dy = (site.cy() - cy) * 1e-3;
            double dist = std::sqrt(dx * dx + dy * dy);
            vrLoopL.push_back(design.outputInductance +
                              prm.gridInductancePerM * dist);
        }
    }

    // Map each domain block onto mesh nodes by rectangle overlap.
    blockNodes.assign(plan.blocks().size(), {});
    loadNode.assign(static_cast<std::size_t>(nNodes), false);
    for (int b : dom.blocks) {
        const auto &rect =
            plan.blocks()[static_cast<std::size_t>(b)].rect;
        double total = 0.0;
        auto &list = blockNodes[static_cast<std::size_t>(b)];
        for (int r = 0; r < gridH; ++r) {
            for (int c = 0; c < gridW; ++c) {
                double nx0 = originX + c * cell_w;
                double ny0 = originY + r * cell_h;
                double ox = std::max(
                    0.0, std::min(rect.x + rect.w, nx0 + cell_w) -
                             std::max(rect.x, nx0));
                double oy = std::max(
                    0.0, std::min(rect.y + rect.h, ny0 + cell_h) -
                             std::max(rect.y, ny0));
                double w = ox * oy;
                if (w > 0.0) {
                    list.push_back({node_at(r, c), w});
                    total += w;
                }
            }
        }
        TG_ASSERT(total > 0.0, "domain block maps to no PDN node");
        for (auto &[node, w] : list) {
            w /= total;
            loadNode[static_cast<std::size_t>(node)] = true;
        }
    }
    loadIdx.clear();
    for (int i = 0; i < nNodes; ++i)
        if (loadNode[static_cast<std::size_t>(i)])
            loadIdx.push_back(i);
}

void
DomainPdn::buildBaseFactors()
{
    std::size_t n = static_cast<std::size_t>(nNodes);
    double dt = prm.cycleTime;
    double r_out = design.outputResistance;

    // Reduced matrices with EVERY branch connected: eliminating the
    // branch row of VR k folds it into a diagonal conductance 1/R_k
    // at its attach node (R_k = R_out steady, L_k/dt + R_out
    // transient).
    std::vector<Triplet> steady;
    steady.reserve(gGrid.nonZeros() + vrNodes.size());
    for (std::size_t r = 0; r < n; ++r)
        for (std::size_t p = gGrid.rowPtr()[r]; p < gGrid.rowPtr()[r + 1];
             ++p)
            steady.push_back({r, gGrid.colIdx()[p], gGrid.values()[p]});
    std::vector<Triplet> transient(steady);
    for (std::size_t i = 0; i < n; ++i)
        transient.push_back({i, i, decap[i] / dt});
    for (std::size_t k = 0; k < vrNodes.size(); ++k) {
        std::size_t node = static_cast<std::size_t>(vrNodes[k]);
        steady.push_back({node, node, 1.0 / r_out});
        transient.push_back({node, node,
                             1.0 / (vrLoopL[k] / dt + r_out)});
    }
    steadyBase = std::make_unique<SparseLdltSolver>(
        SparseMatrix::fromTriplets(n, n, std::move(steady)));
    transientBase = std::make_unique<SparseLdltSolver>(
        SparseMatrix::fromTriplets(n, n, std::move(transient)));
}

DomainPdn::Downdate
DomainPdn::makeDowndate(const SparseLdltSolver &base,
                        const std::vector<int> &removed,
                        const std::vector<double> &removed_r) const
{
    std::size_t n = static_cast<std::size_t>(nNodes);
    std::size_t r = removed.size();
    Downdate dd;
    dd.nodes.reserve(r);
    for (int k : removed)
        dd.nodes.push_back(vrNodes[static_cast<std::size_t>(k)]);
    if (r == 0)
        return dd;

    // W = M0^{-1} E: all removed-branch columns advance through one
    // multi-RHS envelope traversal, each column bit-identical to the
    // per-column scalar solves this replaces.
    dd.w = Matrix(n, r, 0.0);
    for (std::size_t j = 0; j < r; ++j)
        dd.w(static_cast<std::size_t>(dd.nodes[j]), j) = 1.0;
    base.solveInPlace(dd.w);

    // Capacitance matrix (D^{-1} - E^T W), inverted once; it is r x r
    // with r <= vrCount, so a dense LU is cheap.
    Matrix cap(r, r, 0.0);
    for (std::size_t i = 0; i < r; ++i)
        for (std::size_t j = 0; j < r; ++j)
            cap(i, j) = (i == j ? removed_r[i] : 0.0) -
                        dd.w(static_cast<std::size_t>(dd.nodes[i]), j);
    LuSolver lu(cap);
    dd.capInverse = Matrix(r, r, 0.0);
    std::vector<double> unit(r);
    for (std::size_t j = 0; j < r; ++j) {
        std::fill(unit.begin(), unit.end(), 0.0);
        unit[j] = 1.0;
        lu.solveInPlace(unit);
        for (std::size_t i = 0; i < r; ++i)
            dd.capInverse(i, j) = unit[i];
    }
    return dd;
}

void
DomainPdn::solveReduced(const SparseLdltSolver &base, const Downdate &dd,
                        std::vector<double> &x) const
{
    base.solveInPlace(x);
    std::size_t r = dd.nodes.size();
    if (r == 0)
        return;
    // Woodbury correction: x += W capInverse (E^T x).
    std::size_t n = static_cast<std::size_t>(nNodes);
    smallScratch.resize(2 * r);
    double *s = smallScratch.data();
    double *u = s + r;
    for (std::size_t a = 0; a < r; ++a)
        s[a] = x[static_cast<std::size_t>(dd.nodes[a])];
    for (std::size_t a = 0; a < r; ++a) {
        const double *ca = dd.capInverse.row(a);
        double acc = 0.0;
        for (std::size_t b = 0; b < r; ++b)
            acc += ca[b] * s[b];
        u[a] = acc;
    }
    for (std::size_t i = 0; i < n; ++i) {
        const double *wi = dd.w.row(i);
        double acc = 0.0;
        for (std::size_t a = 0; a < r; ++a)
            acc += wi[a] * u[a];
        x[i] += acc;
    }
}

void
DomainPdn::setActive(const std::vector<int> &active_local)
{
    TG_ASSERT(!active_local.empty(),
              "a domain must keep at least one VR active");
    for (int k : active_local)
        TG_ASSERT(k >= 0 && k < vrCount(), "bad local VR index ", k);
    std::vector<int> sorted(active_local);
    std::sort(sorted.begin(), sorted.end());
    sorted.erase(std::unique(sorted.begin(), sorted.end()),
                 sorted.end());
    if (current != nullptr && sorted == activeSet)
        return;  // unchanged configuration: keep the factorisation
    activeSet = std::move(sorted);

    std::uint64_t key = 0;
    for (int k : activeSet)
        key |= std::uint64_t{1} << k;
    auto hit = cacheMap.find(key);
    if (hit != cacheMap.end()) {
        ++cacheHits;
        cacheList.splice(cacheList.begin(), cacheList, hit->second);
        current = &cacheList.front().second;
        return;
    }

    ++cacheMisses;
    double dt = prm.cycleTime;
    double r_out = design.outputResistance;
    std::vector<int> removed;
    std::vector<double> r_steady;
    std::vector<double> r_transient;
    for (int k = 0; k < vrCount(); ++k) {
        if (std::binary_search(activeSet.begin(), activeSet.end(), k))
            continue;
        removed.push_back(k);
        r_steady.push_back(r_out);
        r_transient.push_back(
            vrLoopL[static_cast<std::size_t>(k)] / dt + r_out);
    }
    Factorization f;
    f.steady = makeDowndate(*steadyBase, removed, r_steady);
    f.transient = makeDowndate(*transientBase, removed, r_transient);
    cacheList.emplace_front(key, std::move(f));
    cacheMap[key] = cacheList.begin();
    current = &cacheList.front().second;

    while (cacheList.size() > kFactorCacheCapacity) {
        cacheMap.erase(cacheList.back().first);
        cacheList.pop_back();
    }
}

void
DomainPdn::clearFactorCache()
{
    cacheList.clear();
    cacheMap.clear();
    current = nullptr;
}

std::vector<Amperes>
DomainPdn::nodeCurrents(const std::vector<Watts> &block_power) const
{
    std::vector<Amperes> out;
    nodeCurrentsInto(block_power, out);
    return out;
}

void
DomainPdn::nodeCurrentsInto(const std::vector<Watts> &block_power,
                            std::vector<Amperes> &out) const
{
    TG_ASSERT(block_power.size() == blockNodes.size(),
              "block power size mismatch");
    out.assign(static_cast<std::size_t>(nNodes), 0.0);
    double vdd = chipRef.params.vdd;
    for (std::size_t b = 0; b < blockNodes.size(); ++b) {
        if (blockNodes[b].empty() || block_power[b] == 0.0)
            continue;
        double i = block_power[b] / vdd;
        for (const auto &[node, w] : blockNodes[b])
            out[static_cast<std::size_t>(node)] += w * i;
    }
}

std::vector<Volts>
DomainPdn::steadyVoltages(const std::vector<Amperes> &node_currents) const
{
    TG_ASSERT(static_cast<int>(node_currents.size()) == nNodes,
              "node current size mismatch");
    TG_ASSERT(current != nullptr, "setActive() must precede solves");
    std::size_t n = static_cast<std::size_t>(nNodes);
    // Reduced rhs: f + B R^{-1} g with g_k = Vdd for every active
    // branch.
    std::vector<double> v(n);
    for (std::size_t i = 0; i < n; ++i)
        v[i] = -node_currents[i];
    double inj = chipRef.params.vdd / design.outputResistance;
    for (int k : activeSet)
        v[static_cast<std::size_t>(
            vrNodes[static_cast<std::size_t>(k)])] += inj;
    solveReduced(*steadyBase, current->steady, v);
    return v;
}

double
DomainPdn::steadyMaxNoise(const std::vector<Amperes> &node_currents) const
{
    auto v = steadyVoltages(node_currents);
    double vdd = chipRef.params.vdd;
    double worst = 0.0;
    for (std::size_t i = 0; i < v.size(); ++i)
        if (loadNode[i])
            worst = std::max(worst, (vdd - v[i]) / vdd);
    return worst;
}

NoiseResult
DomainPdn::transientWindow(const Amperes *currents, std::size_t cycles,
                           std::size_t stride, int warmup,
                           bool keep_trace) const
{
    TG_ASSERT(cycles > 0, "empty transient window");
    TG_ASSERT(stride >= static_cast<std::size_t>(nNodes),
              "cycle stride below node count");
    TG_ASSERT(warmup >= 0 && warmup < static_cast<int>(cycles),
              "warmup must leave analysis cycles");
    TG_ASSERT(current != nullptr, "setActive() must precede solves");

#ifdef TG_DEBUG_CHECKS
    for (std::size_t cyc = 0; cyc < cycles; ++cyc)
        for (int i = 0; i < nNodes; ++i)
            TG_DEBUG_ASSERT(
                std::isfinite(currents[cyc * stride +
                                       static_cast<std::size_t>(i)]),
                "non-finite load current at cycle ", cyc, " node ", i);
#endif

    std::size_t n = static_cast<std::size_t>(nNodes);
    std::size_t m = activeSet.size();
    double vdd = chipRef.params.vdd;
    double dt = prm.cycleTime;
    double r_out = design.outputResistance;

    // Per-branch transient resistance R_k = L_k/dt + R_out.
    branchR.resize(m);
    for (std::size_t k = 0; k < m; ++k)
        branchR[k] =
            vrLoopL[static_cast<std::size_t>(activeSet[k])] / dt + r_out;

    // Initial condition: steady state at the first cycle's load; the
    // branch currents follow from Vdd = V_node + R_out I.
    voltScratch.resize(n);
    for (std::size_t i = 0; i < n; ++i)
        voltScratch[i] = -currents[i];
    for (std::size_t k = 0; k < m; ++k)
        voltScratch[static_cast<std::size_t>(
            vrNodes[static_cast<std::size_t>(activeSet[k])])] +=
            vdd / r_out;
    solveReduced(*steadyBase, current->steady, voltScratch);
    branchScratch.resize(m);
    for (std::size_t k = 0; k < m; ++k)
        branchScratch[k] =
            (vdd - voltScratch[static_cast<std::size_t>(
                       vrNodes[static_cast<std::size_t>(
                           activeSet[k])])]) /
            r_out;

    NoiseResult res;
    if (keep_trace)
        res.trace.reserve(cycles);

    // Implicit Euler in reduced form:
    //   (C/dt + G + sum 1/R_k) V' = C/dt V - I_load + sum g_k/R_k e_k
    //   I'_k = (g_k - V'_{node_k}) / R_k,  g_k = L_k/dt I_k + Vdd.
    rhsScratch.resize(n);
    branchRhs.resize(m);
    for (std::size_t cyc = 0; cyc < cycles; ++cyc) {
        const Amperes *load = currents + cyc * stride;
        for (std::size_t i = 0; i < n; ++i)
            rhsScratch[i] = decap[i] / dt * voltScratch[i] - load[i];
        for (std::size_t k = 0; k < m; ++k) {
            branchRhs[k] =
                vrLoopL[static_cast<std::size_t>(activeSet[k])] / dt *
                    branchScratch[k] +
                vdd;
            rhsScratch[static_cast<std::size_t>(
                vrNodes[static_cast<std::size_t>(activeSet[k])])] +=
                branchRhs[k] / branchR[k];
        }
        solveReduced(*transientBase, current->transient, rhsScratch);
        voltScratch.swap(rhsScratch);
        for (std::size_t k = 0; k < m; ++k)
            branchScratch[k] =
                (branchRhs[k] -
                 voltScratch[static_cast<std::size_t>(
                     vrNodes[static_cast<std::size_t>(activeSet[k])])]) /
                branchR[k];

        double droop = 0.0;
        for (int i : loadIdx)
            droop = std::max(
                droop,
                (vdd - voltScratch[static_cast<std::size_t>(i)]) / vdd);
        if (keep_trace)
            res.trace.push_back(droop);
        if (static_cast<int>(cyc) >= warmup) {
            ++res.analysedCycles;
            res.maxNoiseFrac = std::max(res.maxNoiseFrac, droop);
            if (droop > prm.emergencyFrac)
                ++res.emergencyCycles;
        }
    }
    TG_DEBUG_ASSERT(std::isfinite(res.maxNoiseFrac),
                    "non-finite max droop from transient window");
    return res;
}

/**
 * Woodbury-corrected solve for W interleaved lanes (lane l of row i
 * at x[i*W + l]): one batched base solve, then the rank-r correction
 * applied lane-wise in the exact scalar operation order.
 */
template <int W>
void
DomainPdn::solveReducedBatch(const SparseLdltSolver &base,
                             const Downdate &dd, double *x) const
{
    base.solveBatchInPlace(x, W);
    std::size_t r = dd.nodes.size();
    if (r == 0)
        return;
    using B = DoubleBatch<W>;
    std::size_t n = static_cast<std::size_t>(nNodes);
    smallScratch.resize(2 * r * W);
    double *s = smallScratch.data();
    double *u = s + r * W;
    for (std::size_t a = 0; a < r; ++a)
        B::load(x + static_cast<std::size_t>(dd.nodes[a]) * W)
            .store(s + a * W);
    for (std::size_t a = 0; a < r; ++a) {
        const double *ca = dd.capInverse.row(a);
        B acc = B::broadcast(0.0);
        for (std::size_t b = 0; b < r; ++b)
            acc += B::load(s + b * W) * ca[b];
        acc.store(u + a * W);
    }
    for (std::size_t i = 0; i < n; ++i) {
        const double *wi = dd.w.row(i);
        B acc = B::broadcast(0.0);
        for (std::size_t a = 0; a < r; ++a)
            acc += B::load(u + a * W) * wi[a];
        (B::load(x + i * W) + acc).store(x + i * W);
    }
}

/**
 * Fixed-width lockstep transient kernel: W independent windows
 * advance through the shared factorisation, one lane each, reading
 * their load currents from the Lane type's row source. Every
 * per-cycle step mirrors the scalar transientWindow() loop with the
 * lane dimension innermost, so lane l's floating-point op sequence —
 * rhs assembly, solve, branch update, droop max — is the scalar
 * sequence exactly. Aligned like SparseLdltSolver::solveInPlace, so
 * its speed does not follow unrelated code's size.
 */
template <int W, class Lane>
__attribute__((aligned(64))) void
DomainPdn::transientWindowLockstep(const Lane *lanes,
                                   std::size_t cycles, int warmup,
                                   bool keep_trace,
                                   NoiseResult *out) const
{
    using B = DoubleBatch<W>;
    std::size_t n = static_cast<std::size_t>(nNodes);
    std::size_t m = activeSet.size();
    double vdd = chipRef.params.vdd;
    double dt = prm.cycleTime;
    double r_out = design.outputResistance;
    LaneRows<W, Lane> rows(lanes, n, batchLoad);

    branchR.resize(m);
    for (std::size_t k = 0; k < m; ++k)
        branchR[k] =
            vrLoopL[static_cast<std::size_t>(activeSet[k])] / dt + r_out;

    // Initial condition per lane: steady state at the lane's first
    // cycle, branch currents from Vdd = V_node + R_out I.
    batchVolt.resize(n * W);
    rows.cycle(0);
    for (std::size_t i = 0; i < n; ++i) {
        double cur[W];
        rows.at(i).store(cur);
        for (int l = 0; l < W; ++l)
            batchVolt[i * W + l] = -cur[l];
    }
    for (std::size_t k = 0; k < m; ++k) {
        std::size_t node = static_cast<std::size_t>(
            vrNodes[static_cast<std::size_t>(activeSet[k])]);
        for (int l = 0; l < W; ++l)
            batchVolt[node * W + l] += vdd / r_out;
    }
    solveReducedBatch<W>(*steadyBase, current->steady,
                         batchVolt.data());
    batchBranch.resize(m * W);
    for (std::size_t k = 0; k < m; ++k) {
        std::size_t node = static_cast<std::size_t>(
            vrNodes[static_cast<std::size_t>(activeSet[k])]);
        for (int l = 0; l < W; ++l)
            batchBranch[k * W + l] =
                (vdd - batchVolt[node * W + l]) / r_out;
    }

    for (int l = 0; l < W; ++l) {
        out[l].maxNoiseFrac = 0.0;
        out[l].emergencyCycles = 0;
        out[l].analysedCycles = 0;
        out[l].trace.clear();
        if (keep_trace)
            out[l].trace.reserve(cycles);
    }

    batchRhs.resize(n * W);
    batchBranchRhs.resize(m * W);
    for (std::size_t cyc = 0; cyc < cycles; ++cyc) {
        rows.cycle(cyc);
        for (std::size_t i = 0; i < n; ++i) {
            const double g = decap[i] / dt;
            // Lane l: g * volt - current, the scalar rhs expression
            // (batch * scalar multiplies lane-first, bit-commutative).
            (B::load(batchVolt.data() + i * W) * g - rows.at(i))
                .store(batchRhs.data() + i * W);
        }
        for (std::size_t k = 0; k < m; ++k) {
            const double l_dt =
                vrLoopL[static_cast<std::size_t>(activeSet[k])] / dt;
            std::size_t node = static_cast<std::size_t>(
                vrNodes[static_cast<std::size_t>(activeSet[k])]);
            B g_k = B::load(batchBranch.data() + k * W) * l_dt +
                    B::broadcast(vdd);
            g_k.store(batchBranchRhs.data() + k * W);
            (B::load(batchRhs.data() + node * W) + g_k / branchR[k])
                .store(batchRhs.data() + node * W);
        }
        solveReducedBatch<W>(*transientBase, current->transient,
                             batchRhs.data());
        batchVolt.swap(batchRhs);
        for (std::size_t k = 0; k < m; ++k) {
            std::size_t node = static_cast<std::size_t>(
                vrNodes[static_cast<std::size_t>(activeSet[k])]);
            ((B::load(batchBranchRhs.data() + k * W) -
              B::load(batchVolt.data() + node * W)) /
             branchR[k])
                .store(batchBranch.data() + k * W);
        }

        B droop = B::broadcast(0.0);
        for (int i : loadIdx) {
            B v = B::load(batchVolt.data() +
                          static_cast<std::size_t>(i) * W);
            droop = B::max(droop, (B::broadcast(vdd) - v) / vdd);
        }
        for (int l = 0; l < W; ++l) {
            const double d = droop[l];
            if (keep_trace)
                out[l].trace.push_back(d);
            if (static_cast<int>(cyc) >= warmup) {
                ++out[l].analysedCycles;
                out[l].maxNoiseFrac = std::max(out[l].maxNoiseFrac, d);
                if (d > prm.emergencyFrac)
                    ++out[l].emergencyCycles;
            }
        }
    }
}

template <class Lane>
void
DomainPdn::solveLanes(const Lane *lanes, int count, std::size_t cycles,
                      int warmup, bool keep_trace, NoiseResult *out) const
{
    constexpr bool kRank2 = std::is_same_v<Lane, WindowLane>;
    TG_ASSERT(count > 0, "empty window batch");
    TG_ASSERT(cycles > 0, "empty transient window");
    TG_ASSERT(warmup >= 0 && warmup < static_cast<int>(cycles),
              "warmup must leave analysis cycles");
    TG_ASSERT(current != nullptr, "setActive() must precede solves");
    for (int i = 0; i < count; ++i) {
        if constexpr (kRank2)
            TG_ASSERT(lanes[i].logic && lanes[i].mem &&
                          lanes[i].logicScale && lanes[i].memScale,
                      "rank-2 lane without a current profile or scale row");
        else
            TG_ASSERT(lanes[i].stride >= static_cast<std::size_t>(nNodes),
                      "cycle stride below node count");
    }

    // Chunk into the widest fixed kernels. Any chunking yields the
    // same bits: lanes never interact.
    int done = 0;
    while (count - done >= 2) {
        const int left = count - done;
        if (left >= 8) {
            transientWindowLockstep<8>(lanes + done, cycles, warmup,
                                       keep_trace, out + done);
            done += 8;
        } else if (left >= 4) {
            transientWindowLockstep<4>(lanes + done, cycles, warmup,
                                       keep_trace, out + done);
            done += 4;
        } else {
            transientWindowLockstep<2>(lanes + done, cycles, warmup,
                                       keep_trace, out + done);
            done += 2;
        }
    }
    // The ragged tail: a written-out window runs the scalar kernel; a
    // rank-2 lane runs as a two-lane batch with itself, whose lane 0
    // is the scalar result.
    if (done < count) {
        if constexpr (kRank2) {
            const WindowLane pair[2] = {lanes[done], lanes[done]};
            NoiseResult res[2];
            transientWindowLockstep<2>(pair, cycles, warmup, keep_trace,
                                       res);
            out[done] = std::move(res[0]);
        } else {
            out[done] = transientWindow(lanes[done].currents, cycles,
                                        lanes[done].stride, warmup,
                                        keep_trace);
        }
    }

#ifdef TG_DEBUG_CHECKS
    for (int i = 0; i < count; ++i)
        TG_DEBUG_ASSERT(std::isfinite(out[i].maxNoiseFrac),
                        "non-finite max droop from window batch lane ",
                        i);
#endif
}

void
DomainPdn::transientWindowBatch(const WindowSpec *windows, int count,
                                std::size_t cycles, int warmup,
                                bool keep_trace,
                                NoiseResult *out) const
{
    solveLanes(windows, count, cycles, warmup, keep_trace, out);
}

void
DomainPdn::transientWindowBatch(const WindowLane *lanes, int count,
                                std::size_t cycles, int warmup,
                                bool keep_trace,
                                NoiseResult *out) const
{
    solveLanes(lanes, count, cycles, warmup, keep_trace, out);
}

std::pair<double, double>
DomainPdn::nodePosition(int node) const
{
    TG_ASSERT(node >= 0 && node < nNodes, "bad node index");
    int r = node / gridW;
    int c = node % gridW;
    return {originX + (c + 0.5) * cellW, originY + (r + 0.5) * cellH};
}

void
DomainPdn::buildTransferResistances()
{
    std::size_t n = static_cast<std::size_t>(nNodes);
    std::size_t m = vrNodes.size();
    transferR = Matrix(n, m, 0.0);
    double r_out = design.outputResistance;

    // transferR(j, k) is the droop at node j per ampere drawn there
    // when VR k alone is active: with rhs (-e_j, Vdd) the bordered
    // solve gives Vdd - v_j = (M_k^{-1})_{jj} for the single-branch
    // reduced matrix M_k (G 1 = 0 makes Vdd*1 absorb the source
    // term). M_k is the all-branches base M0 minus the other m-1
    // branch conductances, so every column is a Woodbury downdate of
    // shared work: one base factorisation, n solves for
    // diag(M0^{-1}), and m solves for the branch columns Z — instead
    // of the m full factorisations and n*m solves of the dense path.
    // diag(M0^{-1}): n unit solves advanced kMaxWindowBatch lanes at
    // a time through one envelope traversal per chunk (the dominant
    // construction cost; per-lane bit-identical to scalar solves).
    std::vector<double> d0(n);
    {
        constexpr std::size_t kW =
            static_cast<std::size_t>(kMaxWindowBatch);
        std::vector<double> cols(n * kW);
        for (std::size_t j0 = 0; j0 < n; j0 += kW) {
            std::size_t w = std::min(kW, n - j0);
            std::fill(cols.begin(),
                      cols.begin() + static_cast<std::ptrdiff_t>(n * w),
                      0.0);
            for (std::size_t l = 0; l < w; ++l)
                cols[(j0 + l) * w + l] = 1.0;
            steadyBase->solveBatchInPlace(cols.data(), w);
            for (std::size_t l = 0; l < w; ++l)
                d0[j0 + l] = cols[(j0 + l) * w + l];
        }
    }
    // Branch columns Z = M0^{-1} E, one multi-RHS traversal.
    Matrix z(n, m, 0.0);
    for (std::size_t k = 0; k < m; ++k)
        z(static_cast<std::size_t>(vrNodes[k]), k) = 1.0;
    if (m > 0)
        steadyBase->solveInPlace(z);

    std::vector<std::size_t> others(m > 0 ? m - 1 : 0);
    for (std::size_t k = 0; k < m; ++k) {
        std::size_t r = 0;
        for (std::size_t i = 0; i < m; ++i)
            if (i != k)
                others[r++] = i;
        if (r == 0) {
            for (std::size_t j = 0; j < n; ++j)
                transferR(j, k) = d0[j];
            continue;
        }
        // (M_k^{-1})_{jj} = d0[j] + w_j^T cap^{-1} w_j with
        // w_j[a] = z(j, others[a]) and cap = R_out I - E^T Z_others.
        Matrix cap(r, r, 0.0);
        for (std::size_t a = 0; a < r; ++a)
            for (std::size_t b = 0; b < r; ++b)
                cap(a, b) =
                    (a == b ? r_out : 0.0) -
                    z(static_cast<std::size_t>(vrNodes[others[a]]),
                      others[b]);
        LuSolver lu(cap);
        Matrix cap_inv(r, r, 0.0);
        std::vector<double> unit(r);
        for (std::size_t b = 0; b < r; ++b) {
            std::fill(unit.begin(), unit.end(), 0.0);
            unit[b] = 1.0;
            lu.solveInPlace(unit);
            for (std::size_t a = 0; a < r; ++a)
                cap_inv(a, b) = unit[a];
        }
        for (std::size_t j = 0; j < n; ++j) {
            double quad = 0.0;
            for (std::size_t a = 0; a < r; ++a) {
                const double *ca = cap_inv.row(a);
                double acc = 0.0;
                for (std::size_t b = 0; b < r; ++b)
                    acc += ca[b] * z(j, others[b]);
                quad += z(j, others[a]) * acc;
            }
            transferR(j, k) = d0[j] + quad;
        }
    }
}

double
DomainPdn::transferResistance(int node, int vr_local) const
{
    double r = transferR.at(static_cast<std::size_t>(node),
                            static_cast<std::size_t>(vr_local));
    TG_ASSERT(r > -1e-12, "negative transfer resistance at node ",
              node, " vr ", vr_local);
    // Floor to keep 1/r finite for callers; see kTransferRFloor.
    return std::max(r, kTransferRFloor);
}

} // namespace pdn
} // namespace tg
