/**
 * @file
 * Per-Vdd-domain power-delivery-network model (the VoltSpot stand-in).
 *
 * Each Vdd-domain's local power grid is an R-mesh of nodes with
 * decoupling capacitance; the load circuit blocks are current sinks
 * spread over the mesh by footprint overlap; each *active* VR is an
 * ideal source behind its output resistance and inductance attached
 * to the nearest mesh node. Gated VRs are disconnected entirely.
 *
 * Two solvers share the topology:
 *  - a steady-state solve giving the IR-drop map for a constant load
 *    (used for initial conditions and the policy-facing estimates);
 *  - a cycle-resolution transient solve (implicit Euler at the core
 *    clock) giving the droop waveform the noise figures report. The
 *    inductive branch is what makes load steps ring: a buck phase's
 *    ~1.5 nH output inductor produces the large droops of Fig. 11,
 *    while the LDO's near-resistive output explains the Fig. 15
 *    advantage.
 *
 * Solver structure: the bordered systems [[G, -B], [B^T, R]] are
 * never assembled. Eliminating the m branch rows reduces them to the
 * n-node SPD system (G + B R^{-1} B^T) V = f + B R^{-1} g, i.e. the
 * grid Laplacian with a diagonal conductance boost at each active
 * VR's attach node. The grid block is factored ONCE per domain (all
 * branches in, sparse envelope LDL^T under an RCM ordering); a
 * specific active set is then a low-rank diagonal downdate handled
 * with the Woodbury identity, so setActive() never refactors the
 * grid. The per-active-set Woodbury data (a handful of solved
 * columns plus a tiny dense capacitance-matrix inverse) is kept in
 * an LRU cache keyed by the active-set bitmask: a governor flipping
 * among a small set of configurations pays the build cost once.
 *
 * Voltage noise is reported as the paper reports it: the maximum of
 * (Vdd - V_node)/Vdd over the domain's load nodes, with a voltage
 * emergency flagged when it exceeds 10% of nominal.
 *
 * Solves reuse internal scratch buffers (no per-cycle heap
 * allocation), so one DomainPdn must not be driven concurrently from
 * multiple threads; the sweep engine builds one Simulation — hence
 * one PDN set — per worker.
 */

#ifndef TG_PDN_DOMAIN_PDN_HH
#define TG_PDN_DOMAIN_PDN_HH

#include <cstdint>
#include <list>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/matrix.hh"
#include "common/sparse.hh"
#include "common/units.hh"
#include "floorplan/power8.hh"
#include "vreg/design.hh"

namespace tg {
namespace pdn {

/** Electrical parameters of a domain's local grid. */
struct PdnParams
{
    Metres nodePitch = 0.9e-3;   //!< mesh node pitch [m]
    double sheetResistance = 0.008; //!< grid sheet resistance [ohm/sq]
    double decapPerMm2 = 4e-9;   //!< decoupling capacitance [F/mm^2]
    /**
     * Loop inductance per metre of separation between a VR and the
     * domain's logic centroid [H/m]: supplying the load from farther
     * away closes a larger current loop through the grid, which is
     * the transient analogue of the IR-drop distance penalty that
     * makes thermally-driven (memory-side) selections noisy.
     */
    double gridInductancePerM = 2.5e-7;
    Seconds cycleTime = 0.25e-9; //!< transient step = clock period [s]
    double emergencyFrac = 0.10; //!< voltage-emergency threshold
};

/** Result of one transient noise window. */
struct NoiseResult
{
    double maxNoiseFrac = 0.0; //!< max droop as a fraction of Vdd
    int emergencyCycles = 0;   //!< analysed cycles above threshold
    int analysedCycles = 0;    //!< cycles contributing to the stats
    /** Per-cycle max droop fraction (only when requested). */
    std::vector<double> trace;
};

/**
 * The PDN of one Vdd-domain.
 *
 * setActive() selects the active-VR configuration; the solvers then
 * run against it. Local VR indices are positions within the domain's
 * VR list (0 .. vrCount()-1).
 */
class DomainPdn
{
  public:
    /**
     * Transfer resistances are bounded below by the VR output
     * resistance (~1e-2 ohm); this floor only guards a degenerate
     * entry from being divided to infinity where a caller sums 1/r
     * (OracV's parallel-path droop scan, core/policies.cc).
     */
    static constexpr double kTransferRFloor = 1e-9;

    /**
     * @param custom_vr_sites when non-empty, overrides the floorplan
     *        VR positions of this domain (same count required) —
     *        used by the placement optimiser to evaluate candidate
     *        layouts without rebuilding the floorplan
     */
    DomainPdn(const floorplan::Chip &chip, int domain,
              const vreg::VrDesign &design, PdnParams params = {},
              std::vector<floorplan::Rect> custom_vr_sites = {});

    int nodeCount() const { return nNodes; }
    int vrCount() const { return static_cast<int>(vrNodes.size()); }
    int domainId() const { return domain; }

    /**
     * Map per-block power [W] (indexed like Floorplan::blocks()) to
     * per-node load current [A] for this domain's blocks.
     */
    std::vector<Amperes>
    nodeCurrents(const std::vector<Watts> &block_power) const;

    /** nodeCurrents() into a caller-owned (resized) buffer. */
    void nodeCurrentsInto(const std::vector<Watts> &block_power,
                          std::vector<Amperes> &out) const;

    /**
     * Select the active VR set (local indices; duplicates are
     * collapsed). Reuses a cached factorisation when this
     * configuration was seen recently, and short-circuits entirely
     * when the set is unchanged.
     */
    void setActive(const std::vector<int> &active_local);

    /** Currently active local VR indices (sorted, unique). */
    const std::vector<int> &active() const { return activeSet; }

    /** Active-set factorisations served from the LRU cache. */
    std::uint64_t factorCacheHits() const { return cacheHits; }
    /** Active-set factorisations built from scratch. */
    std::uint64_t factorCacheMisses() const { return cacheMisses; }
    /** Drop all cached factorisations (benchmarks / tests). */
    void clearFactorCache();

    /** Steady-state node voltages for constant node currents [V]. */
    std::vector<Volts>
    steadyVoltages(const std::vector<Amperes> &node_currents) const;

    /** Steady-state max droop fraction for constant node currents. */
    double steadyMaxNoise(const std::vector<Amperes> &node_currents) const;

    /**
     * Transient window over a flat row-major cycle buffer: the load
     * currents of cycle c are the `nodeCount()` values starting at
     * `currents + c * stride` (stride >= nodeCount()). The first
     * `warmup` cycles settle the state (initialised from the steady
     * solution of cycle 0) and are excluded from the statistics.
     */
    NoiseResult transientWindow(const Amperes *currents,
                                std::size_t cycles, std::size_t stride,
                                int warmup,
                                bool keep_trace = false) const;

    /** One window of a lockstep batch: a flat strided cycle buffer. */
    struct WindowSpec
    {
        const Amperes *currents = nullptr; //!< cycle-major load rows
        std::size_t stride = 0;            //!< row stride >= nodeCount()
    };

    /**
     * One rank-2 window of a lockstep batch: the load current of
     * cycle c at node i is logic[i] * logicScale[c] + mem[i] *
     * memScale[c], formed inside the kernel. A window costs
     * 2 * (nodeCount() + cycles) doubles instead of the
     * cycles * nodeCount() of its written-out WindowSpec form.
     */
    struct WindowLane
    {
        const Amperes *logic = nullptr;     //!< nodeCount() currents
        const Amperes *mem = nullptr;       //!< nodeCount() currents
        const double *logicScale = nullptr; //!< one per cycle
        const double *memScale = nullptr;   //!< one per cycle
    };

    /** Widest lockstep kernel instantiated (see common/simd.hh). */
    static constexpr int kMaxWindowBatch = 8;

    /**
     * Active-set factorisations kept alive (LRU). The governor flips
     * among a handful of configurations per domain, so a small cache
     * removes nearly all Woodbury rebuilds; each entry costs a few
     * n-vectors of memory.
     */
    static constexpr std::size_t kFactorCacheCapacity = 16;

    /**
     * Advance `count` independent transient windows through the
     * current factorisation in SIMD lockstep: per-cycle base solve,
     * Woodbury rank-r correction, branch update, and droop scan all
     * execute once per cycle for the whole batch, with each window
     * occupying one lane. Lane arithmetic preserves the exact scalar
     * operation order, so out[i] is bit-identical to
     * transientWindow(windows[i].currents, cycles, windows[i].stride,
     * warmup, keep_trace) at every batch width. `count` is chunked
     * internally into fixed widths (8/4/2) with a scalar ragged
     * tail; all windows share cycles/warmup. No heap allocation
     * after the first call at a given width (trace buffers aside).
     */
    void transientWindowBatch(const WindowSpec *windows, int count,
                              std::size_t cycles, int warmup,
                              bool keep_trace, NoiseResult *out) const;

    /**
     * transientWindowBatch() over rank-2 lanes, through the same
     * kernel body: out[i] is bit-identical to transientWindow() of
     * lane i written out as rows of logic[j] * logicScale[c] +
     * mem[j] * memScale[c]. A leftover single lane runs as a two-lane
     * batch with itself.
     */
    void transientWindowBatch(const WindowLane *lanes, int count,
                              std::size_t cycles, int warmup,
                              bool keep_trace, NoiseResult *out) const;

    /**
     * Steady-state transfer resistance from mesh node `node` to VR
     * `vr_local` [ohm]: the droop at `node` per ampere drawn there
     * when `vr_local` is the only active VR (includes the VR output
     * resistance). OracV finds its worst-droop node and ranks VRs
     * by these without a transient solve. Values are floored at
     * kTransferRFloor so callers may divide freely.
     */
    double transferResistance(int node, int vr_local) const;

    /** Mesh node nearest to a VR site (local VR index). */
    int vrAttachNode(int vr_local) const { return vrNodes[vr_local]; }

    /** Branch loop inductance of a VR [H] (tests / benches). */
    double branchInductance(int vr_local) const
    {
        return vrLoopL[static_cast<std::size_t>(vr_local)];
    }

    /** Mesh conductance matrix G (tests / dense reference). */
    const SparseMatrix &gridConductance() const { return gGrid; }

    /** Per-node decoupling capacitance [F] (tests / benches). */
    const std::vector<double> &nodeDecaps() const { return decap; }

    /** Centre of mesh node `node` in floorplan coordinates [mm]. */
    std::pair<double, double> nodePosition(int node) const;

    /** VR sites in use (floorplan or custom override). */
    const std::vector<floorplan::Rect> &sites() const
    {
        return vrSites;
    }

    const PdnParams &params() const { return prm; }

  private:
    const floorplan::Chip &chipRef;
    int domain;
    vreg::VrDesign design;
    PdnParams prm;
    std::vector<floorplan::Rect> vrSites;  //!< VR positions in use

    int gridW = 0;
    int gridH = 0;
    int nNodes = 0;
    double cellW = 0.0;  //!< mesh cell width [mm]
    double cellH = 0.0;  //!< mesh cell height [mm]
    double originX = 0.0;  //!< domain bounding box origin [mm]
    double originY = 0.0;
    double pitchMm = 0.0;

    SparseMatrix gGrid;               //!< mesh conductances (n x n)
    std::vector<double> decap;        //!< per-node capacitance [F]
    std::vector<int> vrNodes;         //!< attach node per local VR
    std::vector<double> vrLoopL;      //!< per-VR branch inductance [H]
    std::vector<bool> loadNode;       //!< nodes with load current
    std::vector<int> loadIdx;         //!< load nodes, ascending
    /** Per block: (node, weight) pairs, weights summing to 1. */
    std::vector<std::vector<std::pair<int, double>>> blockNodes;

    /**
     * Base factorisations with EVERY branch connected: the reduced
     * steady matrix G + sum_k (1/R_out) e_k e_k^T and the reduced
     * implicit-Euler matrix G + C/dt + sum_k (1/(L_k/dt + R_out))
     * e_k e_k^T. Factored once; active subsets are downdates.
     */
    std::unique_ptr<SparseLdltSolver> steadyBase;
    std::unique_ptr<SparseLdltSolver> transientBase;

    /**
     * Woodbury downdate removing the inactive branches from a base
     * factorisation: M_S = M0 - E D E^T with E the attach-node
     * columns and D the removed branch conductances. A solve against
     * M_S is one base solve plus a rank-r correction through the
     * precomputed capacitance-matrix inverse:
     *   M_S^{-1} x = t + W (D^{-1} - E^T W)^{-1} E^T t,
     * where t = M0^{-1} x and W = M0^{-1} E.
     */
    struct Downdate
    {
        std::vector<int> nodes; //!< attach nodes of removed branches
        Matrix w;               //!< n x r solved columns M0^{-1} E
        Matrix capInverse;      //!< r x r (D^{-1} - E^T W)^{-1}
    };

    /** Cached per-active-set solver state. */
    struct Factorization
    {
        Downdate steady;
        Downdate transient;
    };

    /** LRU cache of factorisations keyed by active-set bitmask. */
    std::list<std::pair<std::uint64_t, Factorization>> cacheList;
    std::unordered_map<
        std::uint64_t,
        std::list<std::pair<std::uint64_t, Factorization>>::iterator>
        cacheMap;
    const Factorization *current = nullptr;
    std::uint64_t cacheHits = 0;
    std::uint64_t cacheMisses = 0;

    std::vector<int> activeSet;

    Matrix transferR;  //!< nodeCount x vrCount transfer resistances

    // Reusable solve workspaces (see thread-safety note above).
    mutable std::vector<double> voltScratch;   //!< node voltages
    mutable std::vector<double> rhsScratch;    //!< reduced-system rhs
    mutable std::vector<double> branchScratch; //!< branch currents
    mutable std::vector<double> branchRhs;     //!< branch rhs g_k
    mutable std::vector<double> branchR;       //!< branch R (L/dt+R)
    mutable std::vector<double> smallScratch;  //!< rank-r correction
    mutable std::vector<double> batchVolt;     //!< n x W lane voltages
    mutable std::vector<double> batchRhs;      //!< n x W lane rhs
    mutable std::vector<double> batchBranch;   //!< m x W lane currents
    mutable std::vector<double> batchBranchRhs; //!< m x W lane g_k
    mutable std::vector<double> batchLoad;  //!< 2 x n x W rank-2 lanes

    void buildTopology();
    void buildBaseFactors();
    void buildTransferResistances();
    Downdate makeDowndate(const SparseLdltSolver &base,
                          const std::vector<int> &removed,
                          const std::vector<double> &removed_r) const;
    void solveReduced(const SparseLdltSolver &base, const Downdate &dd,
                      std::vector<double> &x) const;
    template <int W>
    void solveReducedBatch(const SparseLdltSolver &base,
                           const Downdate &dd, double *x) const;
    /** Both transientWindowBatch() forms: checks, chunking, tail. */
    template <class Lane>
    void solveLanes(const Lane *lanes, int count, std::size_t cycles,
                    int warmup, bool keep_trace, NoiseResult *out) const;
    template <int W, class Lane>
    void transientWindowLockstep(const Lane *lanes, std::size_t cycles,
                                 int warmup, bool keep_trace,
                                 NoiseResult *out) const;
};

} // namespace pdn
} // namespace tg

#endif // TG_PDN_DOMAIN_PDN_HH
