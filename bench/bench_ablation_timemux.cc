/**
 * @file
 * Ablation: spatial expansion vs partial time-multiplexing
 * (paper Section II and the Fig 3 add-ons).
 *
 * Two claims are quantified: (1) a time-multiplexed mapping
 * multiplies the effective defect count by the multiplexing
 * factor; (2) larger-than-array networks pay a pass-count latency
 * and weight-reload traffic penalty.
 */

#include "ann/fixed_mlp.hh"
#include "bench_util.hh"
#include "common/json.hh"
#include "core/campaign.hh"
#include "core/cost_model.hh"
#include "core/injector.hh"
#include "core/timemux.hh"

using namespace dtann;

namespace {

/** Fraction of random rows whose outputs deviate from clean. */
double
deviationRate(ForwardModel &model, ForwardModel &ref, int inputs,
              Rng &rng, int rows = 60)
{
    int deviating = 0;
    for (int t = 0; t < rows; ++t) {
        std::vector<double> in(static_cast<size_t>(inputs));
        for (double &v : in)
            v = rng.nextDouble();
        if (model.forward(in).output() != ref.forward(in).output())
            ++deviating;
    }
    return static_cast<double>(deviating) / rows;
}

} // namespace

int
main()
{
    benchBanner("Ablation: spatial expansion vs time-multiplexing",
                "Temam, ISCA 2012, Section II");

    std::string mappings_json;

    // Latency/traffic penalty of time-multiplexing (MNIST-class
    // 784-input network on the 90-input array).
    {
        AcceleratorConfig cfg; // 90-10-10
        Accelerator accel(cfg, {90, 10, 10});
        TextTable t({"logical network", "passes/row", "weight words/row",
                     "mux factor"});
        for (MlpTopology topo :
             {MlpTopology{90, 10, 10}, MlpTopology{90, 40, 10},
              MlpTopology{784, 10, 10}, MlpTopology{784, 40, 10}}) {
            TimeMuxedMlp mux(accel, topo);
            char name[32];
            std::snprintf(name, sizeof(name), "%d-%d-%d", topo.inputs,
                          topo.hidden, topo.outputs);
            t.addRow({name, std::to_string(mux.passesPerRow()),
                      std::to_string(mux.weightWordsPerRow()),
                      std::to_string(mux.muxFactor())});
            if (!mappings_json.empty())
                mappings_json += ",";
            mappings_json += std::string("{\"network\":") +
                jsonString(name) + ",\"passes_per_row\":" +
                std::to_string(mux.passesPerRow()) +
                ",\"weight_words_per_row\":" +
                std::to_string(mux.weightWordsPerRow()) +
                ",\"mux_factor\":" + std::to_string(mux.muxFactor()) +
                "}";
        }
        t.print(std::cout);
        std::printf("(spatially expanded fit = 2 passes; paper: a "
                    "network N times larger needs at least N times "
                    "the row delay)\n\n");
    }

    // Defect multiplication: same physical defect, spatial vs
    // time-multiplexed mapping.
    {
        int reps = scaled(60, 20);
        Rng rng(experimentSeed());
        AcceleratorConfig small;
        small.inputs = 12;
        small.hidden = 4;
        small.outputs = 3;

        MlpTopology fit{12, 4, 3};    // spatial: 1 logical per phys
        MlpTopology big{12, 12, 3};   // mux factor (12+3)/4 = 4

        RunningStat spatial_rate, mux_rate;
        for (int r = 0; r < reps; ++r) {
            DeepWeights wfit(fit);
            DeepWeights wbig(big);
            Rng wr = rng.split();
            wfit.initRandom(wr, 1.0);
            wbig.initRandom(wr, 1.0);

            Accelerator a1(small, fit);
            a1.setWeights(wfit);
            FixedMlp ref1(fit);
            ref1.setWeights(wfit);
            DefectInjector inj1(a1, SitePool::inputAndHidden());
            Rng ir = rng.split();
            inj1.inject(3, ir);
            Rng dr = rng.split();
            spatial_rate.add(deviationRate(a1, ref1, 12, dr));

            Accelerator a2(small, {12, 4, 3});
            TimeMuxedMlp mux(a2, big);
            mux.setWeights(wbig);
            FixedMlp ref2(big);
            ref2.setWeights(wbig);
            DefectInjector inj2(a2, SitePool::inputAndHidden());
            Rng ir2 = rng.split();
            inj2.inject(3, ir2);
            Rng dr2 = rng.split();
            mux_rate.add(deviationRate(mux, ref2, 12, dr2));
        }
        std::printf("row-deviation rate with 3 physical defects "
                    "(%d repetitions):\n",
                    reps);
        std::printf("  spatially expanded mapping : %.3f\n",
                    spatial_rate.mean());
        std::printf("  time-multiplexed (factor 4): %.3f\n",
                    mux_rate.mean());
        std::printf("(paper: a defect at a hardware neuron affects "
                    "all application neurons mapped to it, "
                    "multiplying the effective defect count)\n");
        maybeWriteJson(
            "ablation_timemux",
            campaignEnvelope(
                "ablation_timemux",
                "{\"repetitions\":" + std::to_string(reps) +
                    ",\"defects\":3}",
                experimentSeed(), SimCounters(),
                "{\"mappings\":[" + mappings_json +
                    "],\"deviation\":{\"spatial\":" +
                    jsonNumber(spatial_rate.mean()) +
                    ",\"time_muxed\":" + jsonNumber(mux_rate.mean()) +
                    "}}"));
    }
    return 0;
}
