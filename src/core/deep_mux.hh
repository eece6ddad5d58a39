/**
 * @file
 * Deep networks on the physical array (paper future work: "we want
 * to increase the size of the neural networks that can be mapped
 * ... in order to efficiently tackle very large networks, such as
 * Deep Networks").
 *
 * Every layer of the stack is executed by the time-multiplexing
 * engine (muxRunLayerBatch(), core/timemux.hh): neurons batched over
 * the physical hidden row, oversized fan-ins chunked through the
 * key-logic accumulator. Defects injected into the physical array
 * therefore touch every logical layer mapped across it. The 2-layer
 * TimeMuxedMlp is the two-stage case of this model: both take the
 * one DeepWeights stack every ForwardModel installs.
 */

#ifndef DTANN_CORE_DEEP_MUX_HH
#define DTANN_CORE_DEEP_MUX_HH

#include "core/accelerator.hh"

namespace dtann {

/** Accelerator-backed deep-network ForwardModel. */
class DeepMuxedNetwork : public ForwardModel
{
  public:
    /**
     * @param accel physical array (any logical mapping)
     * @param topo layer stack to execute
     */
    DeepMuxedNetwork(Accelerator &accel, DeepTopology topo);

    DeepTopology topology() const override { return topo; }

    /** Quantize all stages; rows reload per pass. */
    void setWeights(const DeepWeights &w) override;

    /**
     * Run the stack over chunks of rows, each chunk through every
     * stage before the next chunk starts. When every faulty unit is
     * a pure function (accel.batchPure()) a chunk is up to
     * batchLaneWidth() rows (64/256/512), so each pass's weight
     * reloads are hoisted across the chunk. Otherwise a chunk is one
     * row: stateful faulty units and faulty latches see the exact
     * per-row load/run sequence. Outputs are bit-identical either
     * way.
     */
    void forwardBatchInto(std::span<const std::vector<double>> inputs,
                          std::span<Activations> out) override;

    /** Work counters of the backing accelerator's faulty units. */
    SimCounters simCounters() const override
    {
        return accel.simCounters();
    }

    /** Array passes per input row over the whole stack. */
    size_t passesPerRow() const;

  protected:
    Accelerator &accel;

  private:
    DeepTopology topo;
    /** Quantized rows per stage: [stage][neuron][fanin + 1]. */
    std::vector<std::vector<std::vector<Fix16>>> stageRows;
};

} // namespace dtann

#endif // DTANN_CORE_DEEP_MUX_HH
