#include "ann/trainer.hh"

#include <utility>
#include <vector>

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
    // gradient step nor the momentum memory can revive them. The
    // mask is checked once; each step clears its words in place.
    std::vector<std::pair<double *, double *>> pruned;
    pruned.reserve(prune.size());
    for (const PrunedSynapse &p : prune) {
        dtann_assert(p.stage < topo.stages() && p.neuron >= 0 &&
                         p.neuron < topo.layers[p.stage + 1] &&
                         p.input >= 0 && p.input <= topo.layers[p.stage],
                     "prune mask out of topology range");
        pruned.emplace_back(&w.at(p.stage, p.neuron, p.input),
                            &delta.at(p.stage, p.neuron, p.input));
    }
    auto applyPruneMask = [&] {
        for (auto [wp, dp] : pruned)
            *wp = *dp = 0.0;
    };
    applyPruneMask();
    model.setWeights(w);

    // Per-layer gradient buffers.
    size_t stages = topo.stages();
    std::vector<std::vector<double>> grad(stages);
    for (size_t s = 0; s < stages; ++s)
        grad[s].resize(static_cast<size_t>(topo.layers[s + 1]));
    const double lr = hyper.learningRate, mom = hyper.momentum;

    runTrainingEpochs(
        model, train_set, rng, hyper.epochs, [&](size_t n) {
            const std::vector<double> &x = train_set.rows[n];
            const auto &acts = model.forwardRow(x).layers;

            // Output-layer gradients from post-activation values.
            size_t last = stages - 1;
            const double *y_out = acts[last].data();
            double *g_out = grad[last].data();
            for (int k = 0; k < topo.outputs(); ++k) {
                double y = y_out[k];
                double t = k == train_set.labels[n] ? 1.0 : 0.0;
                g_out[k] = logisticDerivFromY(y) * (t - y);
            }
            // Back-propagate through the hidden stages.
            for (size_t s = last; s-- > 0;) {
                int width = topo.layers[s + 1];
                int above = topo.layers[s + 2];
                // Row k of stage s + 1 starts at k * (width + 1).
                size_t stride = static_cast<size_t>(width + 1);
                const double *w_above = w.stage(s + 1).data();
                const double *g_above = grad[s + 1].data();
                const double *y_s = acts[s].data();
                double *g = grad[s].data();
                for (int j = 0; j < width; ++j) {
                    double back = 0.0;
                    for (int k = 0; k < above; ++k)
                        back += g_above[k] *
                            w_above[static_cast<size_t>(k) * stride +
                                    static_cast<size_t>(j)];
                    g[j] = logisticDerivFromY(y_s[j]) * back;
                }
            }
            // Updates with momentum; layer s's input is acts[s-1]
            // (or the row itself for s = 0).
            for (size_t s = 0; s < stages; ++s) {
                int fanin = topo.layers[s];
                int width = topo.layers[s + 1];
                const double *in = s == 0 ? x.data() : acts[s - 1].data();
                const double *g = grad[s].data();
                double *wr = w.stage(s).data();
                double *dr = delta.stage(s).data();
                for (int j = 0; j < width; ++j) {
                    double gj = g[j];
                    for (int i = 0; i < fanin; ++i) {
                        double d = lr * gj * in[i] + mom * dr[i];
                        dr[i] = d;
                        wr[i] += d;
                    }
                    double db = lr * gj + mom * dr[fanin];
                    dr[fanin] = db;
                    wr[fanin] += db;
                    wr += fanin + 1;
                    dr += fanin + 1;
                }
            }
            applyPruneMask();
            model.setWeights(w);
        });
    return w;
}

} // namespace dtann
