#include "ann/train_core.hh"

#include <numeric>

#include "common/logging.hh"

namespace dtann {

int
argmax(std::span<const double> values)
{
    dtann_assert(!values.empty(), "argmax of empty span");
    size_t best = 0;
    for (size_t i = 1; i < values.size(); ++i)
        if (values[i] > values[best])
            best = i;
    return static_cast<int>(best);
}

double
evalAccuracy(ForwardModel &model, const Dataset &test_set)
{
    if (test_set.size() == 0)
        return 0.0;
    size_t correct = 0;
    // Test sweeps have no feedback into the weights, so rows go
    // through the batched forward path (64, 256 or 512 rows per
    // gate-level sweep on faulty hardware); training cannot do this,
    // as it updates weights after every sample.
    std::span<const std::vector<double>> rows(test_set.rows);
    std::vector<Activations> acts = model.forwardBatch(rows);
    for (size_t n = 0; n < acts.size(); ++n) {
        // Restrict the prediction to the classes the task uses (the
        // physical network may have spare outputs).
        std::span<const double> outs(
            acts[n].output().data(),
            static_cast<size_t>(test_set.numClasses));
        if (argmax(outs) == test_set.labels[n])
            ++correct;
    }
    return static_cast<double>(correct) /
        static_cast<double>(test_set.size());
}

double
evalMse(ForwardModel &model, const Dataset &test_set)
{
    if (test_set.size() == 0)
        return 0.0;
    double total = 0.0;
    int outputs = model.topology().outputs();
    std::span<const std::vector<double>> rows(test_set.rows);
    std::vector<Activations> acts = model.forwardBatch(rows);
    for (size_t n = 0; n < acts.size(); ++n) {
        for (int k = 0; k < outputs; ++k) {
            double t =
                k == test_set.labels[n] ? 1.0 : 0.0;
            double e = t - acts[n].output()[static_cast<size_t>(k)];
            total += e * e;
        }
    }
    return total / (static_cast<double>(test_set.size()) * outputs);
}

void
runTrainingEpochs(ForwardModel &model, const Dataset &train_set,
                  Rng &rng, int epochs,
                  const std::function<void(size_t)> &step)
{
    DeepTopology topo = model.topology();
    dtann_assert(topo.inputs() == train_set.numAttributes,
                 "dataset arity mismatch");
    dtann_assert(topo.outputs() >= train_set.numClasses,
                 "too few outputs for dataset classes");

    std::vector<size_t> order(train_set.size());
    std::iota(order.begin(), order.end(), 0);
    for (int epoch = 0; epoch < epochs; ++epoch) {
        rng.shuffle(order);
        for (size_t n : order)
            step(n);
    }
}

} // namespace dtann
