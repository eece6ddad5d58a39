#include "ann/crossval.hh"

#include "common/logging.hh"

namespace dtann {

CrossValResult
crossValidate(ForwardModel &model, const Dataset &ds, int k,
              const Trainer &trainer, Rng &rng, const DeepWeights *init)
{
    dtann_assert(k >= 2, "need at least 2 folds");
    auto folds = kFoldIndices(ds.size(), k);

    RunningStat stat;
    for (size_t f = 0; f < folds.size(); ++f) {
        Dataset train_set = complementSubset(ds, folds, f);
        Dataset test_set = subset(ds, folds[f]);
        trainer.train(model, train_set, rng, init);
        stat.add(evalAccuracy(model, test_set));
    }
    return {stat.mean(), stat.stddev(), k};
}

} // namespace dtann
