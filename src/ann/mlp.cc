#include "ann/mlp.hh"

#include "ann/sigmoid.hh"
#include "common/logging.hh"

namespace dtann {

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

std::vector<Activations>
ForwardModel::forwardBatch(std::span<const std::vector<double>> inputs)
{
    std::vector<Activations> acts(inputs.size());
    forwardBatchInto(inputs, acts);
    return acts;
}

const Activations &
ForwardModel::forwardRow(const std::vector<double> &input)
{
    forwardBatchInto({&input, 1}, {&rowAct, 1});
    return rowAct;
}

Activations
ForwardModel::forward(std::span<const double> input)
{
    oneRow.assign(input.begin(), input.end());
    return forwardRow(oneRow);
}

void
FloatMlp::setWeights(const DeepWeights &w)
{
    dtann_assert(w.topology() == topo, "weight topology mismatch");
    weights = w;
}

void
FloatMlp::forwardBatchInto(std::span<const std::vector<double>> inputs,
                           std::span<Activations> out)
{
    dtann_assert(out.size() == inputs.size(),
                 "one activation record per input row");
    for (size_t r = 0; r < inputs.size(); ++r) {
        const std::vector<double> &input = inputs[r];
        dtann_assert(static_cast<int>(input.size()) == topo.inputs(),
                     "input arity mismatch");
        Activations &act = out[r];
        act.resize(topo);
        std::span<const double> below = input;
        for (size_t s = 0; s < topo.stages(); ++s) {
            int fanin = topo.layers[s];
            std::vector<double> &layer = act.layers[s];
            for (size_t j = 0; j < layer.size(); ++j) {
                int n = static_cast<int>(j);
                double o = weights.at(s, n, fanin); // bias
                for (int i = 0; i < fanin; ++i)
                    o += weights.at(s, n, i) * below[static_cast<size_t>(i)];
                layer[j] = logistic(o);
            }
            below = layer;
        }
    }
}

} // namespace dtann
