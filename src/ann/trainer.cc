#include "ann/trainer.hh"

#include "ann/sigmoid.hh"
#include "common/logging.hh"

namespace dtann {

DeepWeights
Trainer::train(ForwardModel &model, const Dataset &train_set, Rng &rng,
               const DeepWeights *init) const
{
    // runTrainingEpochs() checks the stack against train_set.
    DeepTopology topo = model.topology();
    DeepWeights w(topo);
    if (init) {
        dtann_assert(init->topology() == topo,
                     "init weight topology mismatch");
        w = *init;
    } else {
        w.initRandom(rng);
    }
    DeepWeights delta(topo); // momentum memory, zero-initialized

    // Pruned synapses stay at exactly zero: cleared out of the
    // warm start, and re-cleared after every update so neither the
    // gradient step nor the momentum memory can revive them.
    auto applyPruneMask = [&] {
        for (const PrunedSynapse &p : prune) {
            dtann_assert(p.stage < topo.stages() && p.neuron >= 0 &&
                             p.neuron < topo.layers[p.stage + 1] &&
                             p.input >= 0 &&
                             p.input <= topo.layers[p.stage],
                         "prune mask out of topology range");
            w.at(p.stage, p.neuron, p.input) = 0.0;
            delta.at(p.stage, p.neuron, p.input) = 0.0;
        }
    };
    applyPruneMask();
    model.setWeights(w);

    // Per-layer gradient buffers.
    std::vector<std::vector<double>> grad(topo.stages());
    for (size_t s = 0; s < topo.stages(); ++s)
        grad[s].resize(static_cast<size_t>(topo.layers[s + 1]));

    runTrainingEpochs(
        model, train_set, rng, hyper.epochs, [&](size_t n) {
            const auto &x = train_set.rows[n];
            Activations act = model.forward(x);
            const auto &acts = act.layers;

            // Output-layer gradients from post-activation values.
            size_t last = topo.stages() - 1;
            for (int k = 0; k < topo.outputs(); ++k) {
                double y = acts[last][static_cast<size_t>(k)];
                double t = k == train_set.labels[n] ? 1.0 : 0.0;
                grad[last][static_cast<size_t>(k)] =
                    logisticDerivFromY(y) * (t - y);
            }
            // Back-propagate through the hidden stages.
            for (size_t s = last; s-- > 0;) {
                int width = topo.layers[s + 1];
                int above = topo.layers[s + 2];
                for (int j = 0; j < width; ++j) {
                    double back = 0.0;
                    for (int k = 0; k < above; ++k)
                        back += grad[s + 1][static_cast<size_t>(k)] *
                            w.at(s + 1, k, j);
                    grad[s][static_cast<size_t>(j)] =
                        logisticDerivFromY(
                            acts[s][static_cast<size_t>(j)]) *
                        back;
                }
            }
            // Updates with momentum; layer s's input is acts[s-1]
            // (or the row itself for s = 0).
            for (size_t s = 0; s < topo.stages(); ++s) {
                int fanin = topo.layers[s];
                int width = topo.layers[s + 1];
                for (int j = 0; j < width; ++j) {
                    double g = grad[s][static_cast<size_t>(j)];
                    for (int i = 0; i < fanin; ++i) {
                        double in_val = s == 0
                            ? x[static_cast<size_t>(i)]
                            : acts[s - 1][static_cast<size_t>(i)];
                        double d = hyper.learningRate * g * in_val +
                            hyper.momentum * delta.at(s, j, i);
                        delta.at(s, j, i) = d;
                        w.at(s, j, i) += d;
                    }
                    double db = hyper.learningRate * g +
                        hyper.momentum * delta.at(s, j, fanin);
                    delta.at(s, j, fanin) = db;
                    w.at(s, j, fanin) += db;
                }
            }
            applyPruneMask();
            model.setWeights(w);
        });
    return w;
}

} // namespace dtann
