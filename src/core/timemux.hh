/**
 * @file
 * Partial time-multiplexing of larger networks (paper Section II
 * and the "Time-Multiplexing add-ons" of Fig 3).
 *
 * Networks that do not fit the physical array are executed by
 * treating every logical neuron as part of one large layer and
 * mapping it, pass by pass, onto the physical hidden-layer
 * neurons:
 *
 *  - up to `hidden` logical neurons run per pass;
 *  - a neuron whose fan-in exceeds the physical input count is
 *    split into input chunks; the pre-activation chunk sums are
 *    collected through the added output latches and accumulated in
 *    key logic, and the final sum is fed back through the array
 *    (weight 1.0 is exact in Q6.10) so the physical activation unit
 *    produces the neuron output;
 *  - weight rows are reloaded through the DMA write path before
 *    every pass.
 *
 * A defect in a physical neuron therefore affects every logical
 * neuron mapped onto it — the paper's point that time-multiplexing
 * "effectively multiplies the number of defects by the
 * multiplexing factor". Pass and weight-reload counters feed the
 * cost model.
 */

#ifndef DTANN_CORE_TIMEMUX_HH
#define DTANN_CORE_TIMEMUX_HH

#include "core/deep_mux.hh"

namespace dtann {

/**
 * Run one logical layer (neurons sharing a fan-in) on the physical
 * array for 1 to kMaxLanes input rows, batching neurons over the
 * physical hidden row and chunking oversized fan-ins through the
 * key-logic accumulator. Each pass loads its weight rows once and
 * evaluates every row through the accelerator's lane-batched hidden
 * layer. This is the engine of DeepMuxedNetwork and so of
 * TimeMuxedMlp.
 *
 * The loads are hoisted across rows, so callers give several rows
 * only when accel.batchPure() holds: every faulty operator is then a
 * pure function and clean latch stores are idempotent, so each row's
 * outputs are those of a one-row call. With stateful faulty units
 * the hoisted reload sequence would diverge; callers pass one row at
 * a time instead.
 *
 * @param accel physical array
 * @param rows quantized weight rows, [neuron][fanin + 1], bias last
 * @param inputs one input activation vector per row (size = fanin)
 * @return [row][neuron] activations
 */
std::vector<std::vector<Fix16>> muxRunLayerBatch(
    Accelerator &accel, const std::vector<std::vector<Fix16>> &rows,
    const std::vector<std::vector<Fix16>> &inputs);

/** Array passes muxRunLayerBatch() needs for this geometry. */
size_t muxLayerPasses(const AcceleratorConfig &cfg, int neurons,
                      int fanin);

/** ForwardModel running an oversized MLP on a physical array: the
 *  two-stage DeepMuxedNetwork. */
class TimeMuxedMlp : public DeepMuxedNetwork
{
  public:
    /**
     * @param accel physical array (defects may be injected into it)
     * @param logical network dimensions; may exceed the array's
     */
    TimeMuxedMlp(Accelerator &accel, MlpTopology logical);

    /** Weight words written per input row (reload traffic). */
    size_t weightWordsPerRow() const;

    /** Logical neurons mapped to the busiest physical neuron. */
    int muxFactor() const;
};

} // namespace dtann

#endif // DTANN_CORE_TIMEMUX_HH
