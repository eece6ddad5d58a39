/**
 * @file
 * Quickstart: train a classifier on the accelerator, inject
 * defects, retrain, and compare accuracy.
 *
 * Build & run:
 *   cmake -B build -G Ninja && cmake --build build
 *   ./build/examples/quickstart
 */

#include <cstdio>

#include "ann/trainer.hh"
#include "core/accelerator.hh"
#include "core/injector.hh"
#include "data/synth_uci.hh"

using namespace dtann;

int
main()
{
    // 1. A classification task: the robot failure-detection
    //    stand-in (90 attributes, 5 classes) -- it fills the
    //    array's 90 inputs completely.
    Rng rng(42);
    Dataset ds = makeSyntheticTask(uciTask("robot"), rng, 240);
    std::printf("dataset: %s, %zu rows, %d attributes, %d classes\n",
                ds.name.c_str(), ds.size(), ds.numAttributes,
                ds.numClasses);

    // 2. The physical array: the paper's 90-10-10 spatially
    //    expanded accelerator. The logical 4-8-3 task network is
    //    mapped onto its top-left corner.
    AcceleratorConfig cfg; // 90 inputs, 10 hidden, 10 outputs
    MlpTopology logical{90, 6, 5};
    Accelerator accel(cfg, logical);

    // 3. Off-line training on a companion core, forward passes
    //    through the (bit-exact fixed-point) hardware.
    Trainer trainer({6, 120, 0.2, 0.1});
    DeepWeights weights = trainer.train(accel, ds, rng);
    std::printf("clean accuracy      : %.3f\n",
                evalAccuracy(accel, ds));

    // 4. Silicon happens: a dozen random transistor-level defects
    //    in the input and hidden layers (operators and latches
    //    drawn uniformly, as in the paper).
    DefectInjector injector(accel, SitePool::inputAndHidden(),
                            SiteWeighting::Uniform);
    auto records = injector.inject(12, rng);
    std::printf("injected defects:\n");
    for (const auto &r : records)
        std::printf("  %s\n", r.what.c_str());
    std::printf("accuracy w/ defects : %.3f (no retraining)\n",
                evalAccuracy(accel, ds));

    // 5. Retrain through the faulty hardware: back-propagation
    //    silences the faulty elements.
    Trainer retrainer({6, 40, 0.2, 0.1});
    retrainer.train(accel, ds, rng, &weights);
    std::printf("accuracy retrained  : %.3f\n",
                evalAccuracy(accel, ds));
    return 0;
}
