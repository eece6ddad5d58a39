/**
 * @file
 * Running an MNIST-class network (784 inputs) on the 90-input
 * array via partial time-multiplexing.
 *
 * The paper's Fig 2 argument: 90 inputs cover >90% of UCI tasks;
 * for the rest, the spatially expanded array doubles as a
 * sub-network that a controller time-multiplexes. This example
 * shows the functional path, the pass/traffic accounting, and the
 * defect-multiplication effect.
 */

#include <algorithm>
#include <cstdio>

#include "ann/trainer.hh"
#include "core/cost_model.hh"
#include "core/injector.hh"
#include "core/timemux.hh"

using namespace dtann;

namespace {

/** A synthetic 784-input two-class task (digit-like blobs). */
Dataset
makeDigitsLike(Rng &rng, size_t rows)
{
    Dataset ds;
    ds.name = "digits784";
    ds.numAttributes = 784;
    ds.numClasses = 2;
    for (size_t r = 0; r < rows; ++r) {
        int label = static_cast<int>(r % 2);
        std::vector<double> row(784);
        for (size_t i = 0; i < row.size(); ++i) {
            bool on = static_cast<int>((i / 28 + i % 28) % 2) == label;
            double base = on ? 0.7 : 0.3;
            row[i] = std::clamp(base + rng.nextGauss(0.0, 0.15), 0.0, 1.0);
        }
        ds.rows.push_back(std::move(row));
        ds.labels.push_back(label);
    }
    return ds;
}

} // namespace

int
main()
{
    Rng rng(11);
    Dataset ds = makeDigitsLike(rng, 80);

    AcceleratorConfig cfg; // physical 90-10-10
    Accelerator accel(cfg, {90, 10, 10});
    MlpTopology logical{784, 10, 2};
    TimeMuxedMlp mux(accel, logical);

    std::printf("logical network %d-%d-%d on the 90-10-10 array:\n",
                logical.inputs, logical.hidden, logical.outputs);
    std::printf("  passes per row      : %zu\n", mux.passesPerRow());
    std::printf("  weight words per row: %zu\n",
                mux.weightWordsPerRow());
    std::printf("  mux factor          : %d\n", mux.muxFactor());

    CostModel cm(cfg);
    double row_ns = cm.accelerator().latencyNs *
        static_cast<double>(mux.passesPerRow()) / 2.0;
    std::printf("  est. row latency    : %.1f ns (vs %.2f ns "
                "spatially expanded)\n",
                row_ns, cm.accelerator().latencyNs);

    Trainer trainer({10, 12, 0.3, 0.1});
    trainer.train(mux, ds, rng);
    std::printf("accuracy after training   : %.3f\n",
                evalAccuracy(mux, ds));

    // Defect multiplication: one faulty physical activation is
    // shared by every logical neuron that rides it.
    DefectInjector injector(accel, SitePool::inputAndHidden());
    injector.inject(2, rng);
    std::printf("accuracy with 2 defects   : %.3f (mux factor "
                "multiplies their reach)\n",
                evalAccuracy(mux, ds));
    return 0;
}
