/**
 * @file
 * Multi-layer perceptron: topology, weight storage, and the
 * double-precision reference forward model.
 *
 * The paper's network is a 2-layer MLP (one hidden layer, sigmoid
 * activations); the Section VII extensions stack more layers. Each
 * neuron has a bias, modelled as one extra synapse whose input is
 * the constant 1. One weight type (DeepWeights, a stack of stages)
 * and one model hierarchy serve both shapes: the 2-layer network is
 * the two-stage stack, every ForwardModel produces the full layer
 * stack of activations, and batched evaluation is the canonical
 * entry point.
 */

#ifndef DTANN_ANN_MLP_HH
#define DTANN_ANN_MLP_HH

#include <span>
#include <vector>

#include "circuit/sim_counters.hh"
#include "common/logging.hh"
#include "common/rng.hh"

namespace dtann {

struct DeepTopology;

/**
 * Layer sizes of a 2-layer MLP: the shape of the physical array's
 * logical mapping (backends map exactly one hidden and one output
 * layer). Converts implicitly to the equivalent 3-entry layer stack.
 */
struct MlpTopology
{
    int inputs;
    int hidden;
    int outputs;

    bool operator==(const MlpTopology &o) const = default;

    /** The layer stack {inputs, hidden, outputs}. */
    operator DeepTopology() const;
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

inline MlpTopology::operator DeepTopology() const
{
    return DeepTopology{{inputs, hidden, outputs}};
}

/** A stack equals a 2-layer topology when it is that topology's
 *  3-entry stack (compared without building one). */
inline bool
operator==(const DeepTopology &d, const MlpTopology &m)
{
    return d.layers.size() == 3 && d.layers[0] == m.inputs &&
        d.layers[1] == m.hidden && d.layers[2] == m.outputs;
}

/**
 * Dense weights, the one weight store for every layer count: stage
 * s maps layer s to layer s+1 as a [width][fanin + 1] matrix with
 * the bias last in each row. A 2-layer network has two stages.
 */
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
     *  each row (the layout at() indexes). @{ */
    std::span<double>
    stage(size_t s)
    {
        dtann_assert(s < topo.stages(), "stage out of range");
        return stages_[s];
    }
    std::span<const double> stage(size_t s) const
    {
        return const_cast<DeepWeights *>(this)->stage(s);
    }
    /** @} */

    /** Uniform random initialization in [-range, range], stage by
     *  stage. */
    void initRandom(Rng &rng, double range = 0.5);

    /** Total number of weights (including biases). */
    size_t count() const;

  private:
    DeepTopology topo;
    std::vector<std::vector<double>> stages_;
};

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
 * A model has one topology (its layer stack), one weight setter
 * taking that stack, and one evaluation entry point,
 * forwardBatch(): campaign test sweeps hand whole datasets to the
 * model so faulty operators can be evaluated up to 64, 256 or 512
 * rows per gate-level sweep (the DTANN_LANES width). The scalar
 * forward() defaults to a one-row batch, which is all the hardware
 * models use; native models with a cheaper scalar path override
 * forward() and implement forwardBatch() with rowLoopBatch().
 *
 * forwardBatchInto() is the same evaluation into caller-owned
 * records. The hardware backends implement it, and their
 * forwardBatch() is a wrapper over it. forwardRow() runs one row
 * into a record the model keeps and reuses across calls, so a
 * training step on a backend allocates nothing.
 */
class ForwardModel
{
  public:
    virtual ~ForwardModel() = default;

    /** The layer stack the model evaluates, input first. */
    virtual DeepTopology topology() const = 0;

    /** Install weights for topology() (hardware models quantize
     *  and write latches). */
    virtual void setWeights(const DeepWeights &w) = 0;

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

    /**
     * forwardBatch() into @p out, one record per input row. A record
     * that already has the model's layer widths keeps its storage.
     * The default moves forwardBatch()'s records in.
     */
    virtual void forwardBatchInto(std::span<const std::vector<double>> inputs,
                                  std::span<Activations> out);

    /**
     * Run one row into the model's reused one-row record (the
     * training step's forward). The reference stays valid until the
     * next forwardRow() or forward() call.
     */
    const Activations &forwardRow(const std::vector<double> &input);

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
    /** The default forward()'s copy of its row, reused across
     *  calls. */
    std::vector<double> oneRow;
    /** forwardRow()'s record, reused across calls. */
    Activations rowAct;
};

/** Double-precision reference network over any layer stack (exact
 *  sigmoid); a 2-layer MlpTopology converts to its 3-entry stack. */
class FloatMlp : public ForwardModel
{
  public:
    explicit FloatMlp(DeepTopology topo)
        : topo(std::move(topo)), weights(this->topo)
    {
    }

    DeepTopology topology() const override { return topo; }
    void setWeights(const DeepWeights &w) override;
    Activations forward(std::span<const double> input) override;
    std::vector<Activations> forwardBatch(
        std::span<const std::vector<double>> inputs) override
    {
        return rowLoopBatch(inputs); // native arithmetic: a row loop
                                     // is already the fastest path
    }

  private:
    DeepTopology topo;
    DeepWeights weights;
};

} // namespace dtann

#endif // DTANN_ANN_MLP_HH
