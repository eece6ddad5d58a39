/**
 * @file
 * Fixed-point MLP forward model with hardware-exact semantics.
 *
 * Weights and activations are Q6.10; per-synapse products use
 * hwMul (truncating), neuron accumulation uses the 24-bit adder
 * tree (Acc24) with saturation into the activation unit, and the
 * activation is the 16-segment PWL sigmoid. A clean FixedMlp is
 * bit-identical to the accelerator model with zero defects.
 */

#ifndef DTANN_ANN_FIXED_MLP_HH
#define DTANN_ANN_FIXED_MLP_HH

#include "ann/mlp.hh"
#include "common/fixed_point.hh"

namespace dtann {

/** Fixed-point forward model (paper Section IV semantics). */
class FixedMlp : public ForwardModel
{
  public:
    explicit FixedMlp(MlpTopology topo);

    DeepTopology topology() const override { return topo; }

    /** Quantize and install a two-stage stack. */
    void setWeights(const DeepWeights &w) override;

    /** Native arithmetic, one row at a time through forwardFix(). */
    void forwardBatchInto(std::span<const std::vector<double>> inputs,
                          std::span<Activations> out) override;

    /** Forward on already-quantized inputs (used by tests). */
    std::vector<Fix16> forwardFix(std::span<const Fix16> input);

    /** The quantized hidden-layer weight matrix. @{ */
    Fix16 hidWeight(int j, int i) const;
    Fix16 outWeight(int k, int j) const;
    /** @} */

  private:
    MlpTopology topo;
    std::vector<Fix16> hiddenW; // [hidden][inputs+1], bias last
    std::vector<Fix16> outputW; // [outputs][hidden+1], bias last
    std::vector<Fix16> hiddenAct;
    /** forwardBatchInto()'s quantized row, reused across rows. */
    std::vector<Fix16> fixIn;
};

} // namespace dtann

#endif // DTANN_ANN_FIXED_MLP_HH
