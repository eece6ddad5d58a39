#include "ann/mlp.hh"

#include "ann/sigmoid.hh"
#include "common/logging.hh"

namespace dtann {

DeepTopology
toLayerTopology(MlpTopology t)
{
    return DeepTopology{{t.inputs, t.hidden, t.outputs}};
}

MlpWeights::MlpWeights(MlpTopology t)
    : topo(t),
      hiddenW(static_cast<size_t>(t.hidden) *
              static_cast<size_t>(t.inputs + 1)),
      outputW(static_cast<size_t>(t.outputs) *
              static_cast<size_t>(t.hidden + 1))
{
    dtann_assert(t.inputs >= 1 && t.hidden >= 1 && t.outputs >= 1,
                 "degenerate topology");
}

void
MlpWeights::initRandom(Rng &rng, double range)
{
    for (double &w : hiddenW)
        w = rng.nextDouble(-range, range);
    for (double &w : outputW)
        w = rng.nextDouble(-range, range);
}

DeepWeights::DeepWeights(DeepTopology t) : topo(std::move(t))
{
    dtann_assert(topo.layers.size() >= 3,
                 "deep topology needs input, >=1 hidden, output");
    for (int width : topo.layers)
        dtann_assert(width >= 1, "degenerate layer");
    stages_.resize(topo.stages());
    for (size_t s = 0; s < topo.stages(); ++s)
        stages_[s].assign(
            static_cast<size_t>(topo.layers[s + 1]) *
                static_cast<size_t>(topo.layers[s] + 1),
            0.0);
}

void
DeepWeights::initRandom(Rng &rng, double range)
{
    for (auto &stage : stages_)
        for (double &w : stage)
            w = rng.nextDouble(-range, range);
}

size_t
DeepWeights::count() const
{
    size_t total = 0;
    for (const auto &stage : stages_)
        total += stage.size();
    return total;
}

DeepWeights
toLayerWeights(const MlpWeights &w)
{
    const MlpTopology &t = w.topology();
    DeepWeights layered(toLayerTopology(t));
    for (int j = 0; j < t.hidden; ++j)
        for (int i = 0; i <= t.inputs; ++i)
            layered.at(0, j, i) = w.hid(j, i);
    for (int k = 0; k < t.outputs; ++k)
        for (int j = 0; j <= t.hidden; ++j)
            layered.at(1, k, j) = w.out(k, j);
    return layered;
}

MlpWeights
toMlpWeights(const DeepWeights &w)
{
    const DeepTopology &t = w.topology();
    dtann_assert(t.stages() == 2,
                 "only a 2-stage stack collapses to MlpWeights");
    MlpTopology topo{t.layers[0], t.layers[1], t.layers[2]};
    MlpWeights flat(topo);
    for (int j = 0; j < topo.hidden; ++j)
        for (int i = 0; i <= topo.inputs; ++i)
            flat.hid(j, i) = w.at(0, j, i);
    for (int k = 0; k < topo.outputs; ++k)
        for (int j = 0; j <= topo.hidden; ++j)
            flat.out(k, j) = w.at(1, k, j);
    return flat;
}

DeepTopology
ForwardModel::layerTopology() const
{
    return toLayerTopology(topology());
}

void
ForwardModel::setWeights(const MlpWeights &w)
{
    setLayerWeights(toLayerWeights(w));
}

void
ForwardModel::setLayerWeights(const DeepWeights &w)
{
    setWeights(toMlpWeights(w));
}

Activations
ForwardModel::forward(std::span<const double> input)
{
    oneRow.resize(1);
    oneRow[0].assign(input.begin(), input.end());
    std::vector<Activations> acts = forwardBatch(oneRow);
    return std::move(acts.front());
}

std::vector<Activations>
ForwardModel::rowLoopBatch(std::span<const std::vector<double>> inputs)
{
    std::vector<Activations> out;
    out.reserve(inputs.size());
    for (const auto &row : inputs)
        out.push_back(forward(row));
    return out;
}

void
FloatMlp::setWeights(const MlpWeights &w)
{
    dtann_assert(w.topology() == topo, "weight topology mismatch");
    weights = w;
}

Activations
FloatMlp::forward(std::span<const double> input)
{
    dtann_assert(static_cast<int>(input.size()) == topo.inputs,
                 "input arity mismatch");
    Activations act(static_cast<size_t>(topo.hidden),
                    static_cast<size_t>(topo.outputs));
    for (int j = 0; j < topo.hidden; ++j) {
        double o = weights.hid(j, topo.inputs); // bias
        for (int i = 0; i < topo.inputs; ++i)
            o += weights.hid(j, i) * input[static_cast<size_t>(i)];
        act.hidden()[static_cast<size_t>(j)] = logistic(o);
    }
    for (int k = 0; k < topo.outputs; ++k) {
        double o = weights.out(k, topo.hidden); // bias
        for (int j = 0; j < topo.hidden; ++j)
            o += weights.out(k, j) * act.hidden()[static_cast<size_t>(j)];
        act.output()[static_cast<size_t>(k)] = logistic(o);
    }
    return act;
}

} // namespace dtann
