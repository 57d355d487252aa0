/**
 * @file
 * Precomputed per-run dynamic-power trace.
 *
 * The governor loop needs every frame's dynamic power twice: once in
 * the per-frame thermal/efficiency accounting and once aggregated per
 * decision epoch (the provisioning input of the gating policies).
 * Recomputing density * area * activity per consumer doubles the
 * work and allocates a vector per frame; a PowerTrace instead maps
 * the whole activity trace through the power model ONCE into a flat
 * row-major `frames x blocks` buffer and reduces the per-epoch mean
 * and peak rows at build time. The run loop then only reads rows.
 *
 * Determinism: every stored value is produced by the exact
 * expressions the per-frame path used (PowerModel::dynamicFrameInto
 * and the mean/peak fold in frame order), so replacing on-the-fly
 * evaluation with trace reads is bit-identical.
 */

#ifndef TG_POWER_TRACE_HH
#define TG_POWER_TRACE_HH

#include <vector>

#include "common/units.hh"
#include "power/model.hh"
#include "uarch/activity.hh"

namespace tg {
namespace power {

/** Flat dynamic-power trace with per-epoch reductions. */
class PowerTrace
{
  public:
    PowerTrace() = default;

    /** Build for a whole activity trace; see rebuild(). */
    PowerTrace(const PowerModel &pm,
               const uarch::ActivityTrace &activity,
               int frames_per_epoch)
    {
        rebuild(pm, activity, frames_per_epoch);
    }

    /**
     * (Re)build from an activity trace, reusing the existing buffers
     * where possible. Runs never rebuild: every policy of a benchmark
     * row shares one const trace from the artifact store.
     *
     * @param frames_per_epoch frames per gating decision epoch; the
     *        last epoch may be partial and is reduced over the frames
     *        it actually has
     */
    void rebuild(const PowerModel &pm,
                 const uarch::ActivityTrace &activity,
                 int frames_per_epoch);

    std::size_t frames() const { return nFrames; }
    std::size_t blocks() const { return nBlocks; }
    long epochs() const { return nEpochs; }
    int framesPerEpoch() const { return fpe; }

    /** Per-block dynamic power of frame `f` [W] (row of `blocks()`). */
    const Watts *frame(std::size_t f) const
    {
        return dyn.data() + f * nBlocks;
    }

    /** Per-block mean dynamic power over epoch `e` [W]. */
    const Watts *epochMean(long e) const
    {
        return meanRows.data() +
               static_cast<std::size_t>(e) * nBlocks;
    }

    /** Per-block peak dynamic power over epoch `e` [W]. */
    const Watts *epochPeak(long e) const
    {
        return peakRows.data() +
               static_cast<std::size_t>(e) * nBlocks;
    }

    /**
     * Per-block provisioning row of epoch `e` [W]: the average of the
     * epoch mean and the epoch peak, so the gating policies provision
     * n_on for the epoch's demand excursions, not just its mean.
     */
    const Watts *epochDynamic(long e) const
    {
        return provisionRows.data() +
               static_cast<std::size_t>(e) * nBlocks;
    }

  private:
    std::size_t nFrames = 0;
    std::size_t nBlocks = 0;
    long nEpochs = 0;
    int fpe = 1;

    std::vector<Watts> dyn;           //!< nFrames x nBlocks row-major
    std::vector<Watts> meanRows;      //!< nEpochs x nBlocks
    std::vector<Watts> peakRows;      //!< nEpochs x nBlocks
    std::vector<Watts> provisionRows; //!< nEpochs x nBlocks
};

} // namespace power
} // namespace tg

#endif // TG_POWER_TRACE_HH
