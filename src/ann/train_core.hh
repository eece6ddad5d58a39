/**
 * @file
 * The one batch-first evaluation/training core shared by the
 * Trainer (whatever model it drives) and every campaign (Fig
 * 5/10/11, ablations, mitigation).
 *
 * Evaluation hands the whole dataset to ForwardModel::forwardBatch
 * so faulty operators run up to 64, 256 or 512 rows (the DTANN_LANES
 * width) per gate-level sweep;
 * training cannot batch (weights change after every sample), so the
 * epoch loop dispatches one sample at a time and the Trainer
 * supplies only its per-sample forward/backward/install step.
 */

#ifndef DTANN_ANN_TRAIN_CORE_HH
#define DTANN_ANN_TRAIN_CORE_HH

#include <functional>

#include "ann/mlp.hh"
#include "data/dataset.hh"

namespace dtann {

/** Index of the largest output (class prediction). */
int argmax(std::span<const double> values);

/** Classification accuracy of @p model on @p test_set (batched
 *  forward sweep; predictions restricted to the task's classes). */
double evalAccuracy(ForwardModel &model, const Dataset &test_set);

/** Mean squared error of @p model on @p test_set (batched forward
 *  sweep, one-hot targets). */
double evalMse(ForwardModel &model, const Dataset &test_set);

/**
 * The shared epoch loop: asserts @p model fits @p train_set,
 * re-shuffles the visit order with @p rng every epoch, and calls
 * @p step(row_index) once per sample. The step closure runs the
 * sample forward, back-propagates, and installs updated weights.
 */
void runTrainingEpochs(ForwardModel &model, const Dataset &train_set,
                       Rng &rng, int epochs,
                       const std::function<void(size_t)> &step);

} // namespace dtann

#endif // DTANN_ANN_TRAIN_CORE_HH
