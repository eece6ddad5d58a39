/**
 * @file
 * k-fold cross-validation (the paper uses 10-fold everywhere).
 */

#ifndef DTANN_ANN_CROSSVAL_HH
#define DTANN_ANN_CROSSVAL_HH

#include "ann/trainer.hh"
#include "common/stats.hh"

namespace dtann {

/** Cross-validation outcome. */
struct CrossValResult
{
    double meanAccuracy = 0.0;
    double stddev = 0.0;
    int folds = 0;
};

/**
 * k-fold cross-validate @p model on @p ds.
 *
 * The model is retrained per fold (its injected defects, if any,
 * persist across folds, matching the paper's protocol where "the N
 * defects of a network remain the same while the network is
 * re-trained and tested").
 *
 * @param model the forward path (re-trained in place per fold)
 * @param ds full dataset (will be used fold-wise)
 * @param k number of folds
 * @param trainer training configuration
 * @param rng randomness for shuffling/initialization
 * @param init warm-start weights per fold (retraining scenario)
 */
CrossValResult crossValidate(ForwardModel &model, const Dataset &ds,
                             int k, const Trainer &trainer, Rng &rng,
                             const DeepWeights *init = nullptr);

} // namespace dtann

#endif // DTANN_ANN_CROSSVAL_HH
