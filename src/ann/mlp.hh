/**
 * @file
 * Multi-layer perceptron: topology, weight storage, and the
 * double-precision reference forward model.
 *
 * The paper's network is a 2-layer MLP (one hidden layer, sigmoid
 * activations); the Section VII extensions stack more layers. Each
 * neuron has a bias, modelled as one extra synapse whose input is
 * the constant 1. One model hierarchy serves both shapes: every
 * ForwardModel produces the full layer stack of activations, and
 * batched evaluation is the canonical entry point.
 */

#ifndef DTANN_ANN_MLP_HH
#define DTANN_ANN_MLP_HH

#include <span>
#include <vector>

#include "circuit/sim_counters.hh"
#include "common/logging.hh"
#include "common/rng.hh"

namespace dtann {

/** Layer sizes of a 2-layer MLP. */
struct MlpTopology
{
    int inputs;
    int hidden;
    int outputs;

    bool operator==(const MlpTopology &o) const = default;
};

/** Layer widths, input first, output last (>= 3 entries). */
struct DeepTopology
{
    std::vector<int> layers;

    int inputs() const { return layers.front(); }
    int outputs() const { return layers.back(); }
    /** Number of weight matrices (= layers.size() - 1). */
    size_t stages() const { return layers.size() - 1; }

    bool operator==(const DeepTopology &o) const = default;
};

/** View a 2-layer topology as a layer stack. */
DeepTopology toLayerTopology(MlpTopology t);

/**
 * Dense weight storage: hidden weights are [hidden][inputs + 1]
 * (bias last), output weights are [outputs][hidden + 1].
 */
class MlpWeights
{
  public:
    MlpWeights() = default;
    explicit MlpWeights(MlpTopology topo);

    const MlpTopology &topology() const { return topo; }

    /** Hidden-layer weight from input @p i (or bias when i ==
     *  inputs) to hidden neuron @p j. @{ */
    double &
    hid(int j, int i)
    {
        dtann_assert(j >= 0 && j < topo.hidden && i >= 0 &&
                         i <= topo.inputs,
                     "hid(%d, %d) out of range", j, i);
        return hiddenW[static_cast<size_t>(j) *
                           static_cast<size_t>(topo.inputs + 1) +
                       static_cast<size_t>(i)];
    }
    double hid(int j, int i) const
    {
        return const_cast<MlpWeights *>(this)->hid(j, i);
    }
    /** @} */

    /** Output-layer weight from hidden @p j (bias when j ==
     *  hidden) to output neuron @p k. @{ */
    double &
    out(int k, int j)
    {
        dtann_assert(k >= 0 && k < topo.outputs && j >= 0 &&
                         j <= topo.hidden,
                     "out(%d, %d) out of range", k, j);
        return outputW[static_cast<size_t>(k) *
                           static_cast<size_t>(topo.hidden + 1) +
                       static_cast<size_t>(j)];
    }
    double out(int k, int j) const
    {
        return const_cast<MlpWeights *>(this)->out(k, j);
    }
    /** @} */

    /** The hidden and output weight arrays, row-major with the bias
     *  last in each row (the layout hid()/out() index). @{ */
    std::span<const double> hidStage() const { return hiddenW; }
    std::span<const double> outStage() const { return outputW; }
    /** @} */

    /** Uniform random initialization in [-range, range]. */
    void initRandom(Rng &rng, double range = 0.5);

    /** Total number of weights (including biases). */
    size_t count() const { return hiddenW.size() + outputW.size(); }

  private:
    MlpTopology topo{0, 0, 0};
    std::vector<double> hiddenW;
    std::vector<double> outputW;
};

/** Dense weights: stage s maps layer s to layer s+1, bias last. */
class DeepWeights
{
  public:
    DeepWeights() = default;
    explicit DeepWeights(DeepTopology topo);

    const DeepTopology &topology() const { return topo; }

    /** Weight from unit @p i of layer @p s (bias when i equals
     *  that layer's width) to unit @p j of layer s+1. @{ */
    double &
    at(size_t s, int j, int i)
    {
        dtann_assert(s < topo.stages(), "stage out of range");
        dtann_assert(j >= 0 && j < topo.layers[s + 1] && i >= 0 &&
                         i <= topo.layers[s],
                     "weight index out of range");
        return stages_[s][static_cast<size_t>(j) *
                              static_cast<size_t>(topo.layers[s] + 1) +
                          static_cast<size_t>(i)];
    }
    double at(size_t s, int j, int i) const
    {
        return const_cast<DeepWeights *>(this)->at(s, j, i);
    }
    /** @} */

    /** Stage @p s as one array, row-major with the bias last in
     *  each row (the layout at() indexes). */
    std::span<const double>
    stage(size_t s) const
    {
        dtann_assert(s < topo.stages(), "stage out of range");
        return stages_[s];
    }

    void initRandom(Rng &rng, double range = 0.5);

    size_t count() const;

  private:
    DeepTopology topo;
    std::vector<std::vector<double>> stages_;
};

/** View 2-layer weights as a 2-stage stack (exact value copy). */
DeepWeights toLayerWeights(const MlpWeights &w);

/** Collapse a 2-stage stack to 2-layer weights (exact value copy). */
MlpWeights toMlpWeights(const DeepWeights &w);

/**
 * Post-activation values of every layer after the input:
 * layers.front() is the first hidden layer, layers.back() the
 * output layer. 2-layer models produce exactly two entries.
 */
struct Activations
{
    std::vector<std::vector<double>> layers;

    Activations() = default;

    /** Allocate a 2-layer record (hidden + output). */
    Activations(size_t hidden_size, size_t output_size)
        : layers{std::vector<double>(hidden_size),
                 std::vector<double>(output_size)}
    {
    }

    /** Output-layer values. @{ */
    std::vector<double> &output() { return layers.back(); }
    const std::vector<double> &output() const { return layers.back(); }
    /** @} */

    /** The hidden layer feeding the output (the only hidden layer
     *  of a 2-layer model). @{ */
    std::vector<double> &hidden() { return layers[layers.size() - 2]; }
    const std::vector<double> &hidden() const
    {
        return layers[layers.size() - 2];
    }
    /** @} */
};

/**
 * Abstract forward path.
 *
 * Training runs on a companion core holding float weights (the
 * Trainer); the forward activations may come from the float
 * reference, the fixed-point model, or the (possibly defective)
 * hardware accelerator model. This is how retraining "factors in
 * the faulty elements".
 *
 * forwardBatch() is the canonical evaluation entry point: campaign
 * test sweeps hand whole datasets to the model so faulty operators
 * can be evaluated up to 64, 256 or 512 rows per gate-level sweep
 * (the DTANN_LANES width). The scalar forward() is defined in terms
 * of it, which is all the hardware models use; native models with a
 * cheaper scalar path override forward() and may implement
 * forwardBatch() with rowLoopBatch(). A concrete model must override
 * at least one of the two.
 */
class ForwardModel
{
  public:
    virtual ~ForwardModel() = default;

    /** Network dimensions, collapsed to the 2-layer view
     *  {inputs, width of the layer feeding the output, outputs}
     *  (exact for 2-layer models). */
    virtual MlpTopology topology() const = 0;

    /** Full layer stack; the default is the 2-layer topology(). */
    virtual DeepTopology layerTopology() const;

    /** Install 2-layer weights (hardware models quantize/write
     *  latches). The default wraps them into a 2-stage stack and
     *  calls setLayerWeights(). */
    virtual void setWeights(const MlpWeights &w);

    /** Install a full weight stack. The default requires a 2-stage
     *  stack and calls setWeights(). */
    virtual void setLayerWeights(const DeepWeights &w);

    /** Run one input row; the default evaluates a 1-row batch. */
    virtual Activations forward(std::span<const double> input);

    /**
     * Run a batch of input rows — the canonical entry point.
     * Results are semantically identical to calling forward() on
     * each row in order; hardware models push rows through their
     * faulty operators up to 64, 256 or 512 lanes per gate-level
     * sweep.
     */
    virtual std::vector<Activations>
    forwardBatch(std::span<const std::vector<double>> inputs) = 0;

    /** Gate-evaluation work of any underlying faulty-operator
     *  simulations (zero for native models). Wrapper models report
     *  their backing Accelerator's counters. */
    virtual SimCounters simCounters() const { return {}; }

  protected:
    /** Row-at-a-time batch for native models whose forward() is
     *  already the fastest path. */
    std::vector<Activations>
    rowLoopBatch(std::span<const std::vector<double>> inputs);

  private:
    /** The default forward()'s one-row batch, reused across calls
     *  so a training step copies its row without allocating. */
    std::vector<std::vector<double>> oneRow;
};

/** Double-precision reference MLP (exact sigmoid). */
class FloatMlp : public ForwardModel
{
  public:
    explicit FloatMlp(MlpTopology topo) : topo(topo), weights(topo) {}

    MlpTopology topology() const override { return topo; }
    void setWeights(const MlpWeights &w) override;
    Activations forward(std::span<const double> input) override;
    std::vector<Activations> forwardBatch(
        std::span<const std::vector<double>> inputs) override
    {
        return rowLoopBatch(inputs); // native arithmetic: a row loop
                                     // is already the fastest path
    }

  private:
    MlpTopology topo;
    MlpWeights weights;
};

} // namespace dtann

#endif // DTANN_ANN_MLP_HH
