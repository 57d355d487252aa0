#include "workload/cycles.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace tg {
namespace workload {

std::vector<double>
synthesizeCycleMultipliers(double didt, std::size_t n_cycles, Rng &rng)
{
    std::vector<double> out;
    synthesizeCycleMultipliersInto(didt, n_cycles, rng, out);
    return out;
}

// Pinned to a 64-byte line like SparseLdltSolver::solveInPlace: its
// speed otherwise moves with the size of unrelated code linked ahead.
__attribute__((aligned(64))) void
synthesizeCycleMultipliersInto(double didt, std::size_t n_cycles,
                               Rng &rng, std::vector<double> &out)
{
    TG_ASSERT(didt >= 0.0 && didt <= 1.0, "didt outside [0, 1]");
    TG_ASSERT(n_cycles > 0, "empty cycle window");

    out.resize(n_cycles);

    // Rare Poisson load-step events ride on a small AR(1) ripple.
    // Event *depth* is randomised so the noise is heavy-tailed in
    // time: typical droops stay moderate, the deepest few events set
    // the window maximum, and only their first ringing cycles cross
    // the 10% emergency threshold — which is what keeps emergency
    // residency below 1% of cycles (paper Table 2) even where the
    // maximum noise is well above threshold (Fig. 11).
    double event_rate = (0.30 + 0.30 * didt) / 1000.0;  // per cycle
    double depth_max = 0.26 + 0.20 * didt;              // deepest stall
    // Probability that an event is a *major* one (full-depth pipeline
    // flush / barrier release); grows superlinearly with di/dt
    // activity so the emergency-residency ordering of Table 2 tracks
    // the benchmarks' di/dt character.
    double deep_prob = 0.008 + 0.03 * didt * didt;

    const double rho = 0.85;
    double ripple_sigma = 0.010 + 0.012 * didt;
    double ripple = 0.0;

    double level = 1.0;      // current event level offset target
    std::size_t remain = 0;  // cycles left in the current event

    for (std::size_t c = 0; c < n_cycles; ++c) {
        if (remain > 0) {
            --remain;
            if (remain == 0)
                level = 1.0;  // step back up: the recovery edge
        } else if (rng.bernoulli(event_rate)) {
            double depth = rng.bernoulli(deep_prob)
                               ? depth_max
                               : 0.18 * rng.uniform() * depth_max;
            bool stall = rng.bernoulli(0.70);
            level = stall ? 1.0 - depth : 1.0 + 0.5 * depth;
            remain = 8 + static_cast<std::size_t>(
                             -60.0 * std::log(1.0 - rng.uniform()));
        }
        ripple = rho * ripple + std::sqrt(1.0 - rho * rho) *
                                    rng.gaussian(0.0, ripple_sigma);
        out[c] = std::max(0.0, level + ripple);
    }
}

} // namespace workload
} // namespace tg
