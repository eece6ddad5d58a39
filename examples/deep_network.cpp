/**
 * @file
 * Deep networks on the array — the paper's future-work direction
 * ("efficiently tackle very large networks, such as Deep
 * Networks").
 *
 * Trains a 3-hidden-layer stack entirely through the physical
 * 90-10-10 array's time-multiplexed execution, then injects
 * defects and retrains.
 */

#include <cstdio>

#include "ann/trainer.hh"
#include "core/deep_mux.hh"
#include "core/injector.hh"
#include "data/synth_uci.hh"

using namespace dtann;

int
main()
{
    Rng rng(21);
    const UciTaskSpec &spec = uciTask("vehicle");
    Dataset ds = makeSyntheticTask(spec, rng, 240);

    AcceleratorConfig cfg; // the paper's physical 90-10-10 array
    Accelerator accel(cfg, {90, 10, 10});

    // An 18-12-10-8-4 stack: three hidden layers, time-multiplexed
    // over the 10 physical neurons.
    DeepTopology topo{{spec.attributes, 12, 10, 8, spec.classes}};
    DeepMuxedNetwork deep(accel, topo);
    std::printf("deep stack");
    for (int w : topo.layers)
        std::printf(" %d", w);
    std::printf(" on the 90-10-10 array: %zu passes per row\n",
                deep.passesPerRow());

    Trainer trainer({10, 60, 0.3, 0.3});
    DeepWeights init(topo);
    init.initRandom(rng, 1.2);
    DeepWeights w = trainer.train(deep, ds, rng, &init);
    std::printf("clean accuracy        : %.3f\n",
                evalAccuracy(deep, ds));

    DefectInjector injector(accel, SitePool::inputAndHidden(),
                            SiteWeighting::Uniform);
    injector.inject(6, rng);
    std::printf("with 6 defects        : %.3f (every logical layer "
                "shares the faulty units)\n",
                evalAccuracy(deep, ds));

    Trainer retrainer({10, 20, 0.3, 0.3});
    retrainer.train(deep, ds, rng, &w);
    std::printf("after retraining      : %.3f\n",
                evalAccuracy(deep, ds));
    return 0;
}
