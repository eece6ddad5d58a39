/**
 * @file
 * Ablation: spare output neurons (paper Section VI-C mitigation).
 *
 * Single heavy defects in the output layer's activation/adders are
 * the accelerator's weak spot (Fig 11). This bench compares the
 * post-retraining accuracy of plain networks against networks with
 * pairwise-redundant output neurons, and reports the area cost of
 * the sparing.
 */

#include "ann/crossval.hh"
#include "bench_util.hh"
#include "common/json.hh"
#include "core/campaign.hh"
#include "core/cost_model.hh"
#include "core/injector.hh"
#include "core/row_map.hh"
#include "data/synth_uci.hh"

using namespace dtann;

int
main()
{
    benchBanner("Ablation: spare (redundant) output neurons",
                "Temam, ISCA 2012, Section VI-C");

    int reps = scaled(40, 8);
    Rng rng(experimentSeed());

    const UciTaskSpec &spec = uciTask("iris");
    Dataset ds = makeSyntheticTask(spec, rng, fullScale() ? 0 : 240);

    AcceleratorConfig cfg;
    cfg.inputs = 16;
    cfg.hidden = 8;
    cfg.outputs = 9; // 3 logical x 3 copies (median voter)
    MlpTopology logical{spec.attributes, 8, spec.classes};
    constexpr int copies = 3;

    Hyper hyper{8, scaled(100, 40), 0.2, 0.1};
    Hyper retrain = hyper;
    retrain.epochs = std::max(10, hyper.epochs / 3);

    RunningStat plain_acc, spared_acc, plain_worst, spared_worst;
    for (int rep = 0; rep < reps; ++rep) {
        uint64_t defect_seed = rng.nextWord();

        // Plain network.
        Accelerator a1(cfg, logical);
        Rng t1 = rng.split();
        DeepWeights w1 = Trainer(hyper).train(a1, ds, t1);
        {
            Rng ir(defect_seed);
            DefectInjector inj(a1, SitePool::outputCritical());
            inj.inject(1, ir);
            // Make the single unit badly broken (heavy defect).
            UnitSite s = a1.faultySites().front();
            a1.injectDefects(s, 15, ir);
        }
        Rng c1 = rng.split();
        CrossValResult r1 =
            crossValidate(a1, ds, scaled(10, 2), Trainer(retrain), c1,
                          &w1);
        plain_acc.add(r1.meanAccuracy);
        plain_worst.add(r1.meanAccuracy);

        // Spared network, same defect seed against its primary
        // output stage.
        Accelerator a2(cfg, fullRowTopology(logical, cfg));
        RowMappedMlp spared(a2, logical, sparePlan(logical, copies));
        Rng t2 = rng.split();
        DeepWeights w2 = Trainer(hyper).train(spared, ds, t2);
        {
            Rng ir(defect_seed);
            DefectInjector inj(a2, SitePool::outputCritical());
            inj.inject(1, ir);
            UnitSite s = a2.faultySites().front();
            a2.injectDefects(s, 15, ir);
        }
        Rng c2 = rng.split();
        CrossValResult r2 = crossValidate(spared, ds, scaled(10, 2),
                                          Trainer(retrain), c2, &w2);
        spared_acc.add(r2.meanAccuracy);
        spared_worst.add(r2.meanAccuracy);
    }

    TextTable t({"configuration", "mean accuracy", "worst accuracy"});
    t.addRow({"plain outputs", fmtDouble(plain_acc.mean(), 3),
              fmtDouble(plain_worst.min(), 3)});
    t.addRow({"3-copy median outputs", fmtDouble(spared_acc.mean(), 3),
              fmtDouble(spared_worst.min(), 3)});
    t.print(std::cout);

    CostModel cm(cfg);
    double area_cost =
        100.0 * (copies - 1) * cm.outputCriticalAreaFraction();
    maybeWriteJson(
        "ablation_spare",
        campaignEnvelope(
            "ablation_spare",
            "{\"repetitions\":" + std::to_string(reps) +
                ",\"copies\":" + std::to_string(copies) + "}",
            experimentSeed(), SimCounters(),
            "{\"plain\":{\"mean_accuracy\":" +
                jsonNumber(plain_acc.mean()) + ",\"worst_accuracy\":" +
                jsonNumber(plain_worst.min()) +
                "},\"spared\":{\"mean_accuracy\":" +
                jsonNumber(spared_acc.mean()) + ",\"worst_accuracy\":" +
                jsonNumber(spared_worst.min()) +
                "},\"area_cost_percent\":" + jsonNumber(area_cost) +
                "}"));
    std::printf("\narea cost of sparing: output layer replicated "
                "x%d, i.e. about +%.2f%% of total array area\n",
                copies, area_cost);
    std::printf("(paper: key-logic hardening is preferable while the "
                "critical fraction is small; sparing wins as "
                "technology scales)\n");
    return 0;
}
