/**
 * @file
 * Key-logic sensitivity: one transistor defect in the weight-write
 * decoder vs one in the array.
 *
 * The paper's Section II rationale in an experiment: array defects
 * are silenced by retraining, but "a faulty transistor within this
 * control logic would wreck the accelerator" — and retraining
 * cannot help, because every weight write keeps being misrouted.
 */

#include "ann/crossval.hh"
#include "bench_util.hh"
#include "core/injector.hh"
#include "core/keylogic.hh"
#include "data/synth_uci.hh"

using namespace dtann;

namespace {

/** ForwardModel whose weight writes pass through a decoder. */
class DecodedAccelerator : public ForwardModel
{
  public:
    DecodedAccelerator(Accelerator &a, WriteDecoder &d)
        : accel(a), decoder(d)
    {
    }

    DeepTopology topology() const override { return accel.topology(); }

    void
    setWeights(const DeepWeights &w) override
    {
        writeWeightsThroughDecoder(accel, w, decoder);
    }

    Activations
    forward(std::span<const double> input) override
    {
        return accel.forward(input);
    }

    std::vector<Activations>
    forwardBatch(std::span<const std::vector<double>> inputs) override
    {
        return accel.forwardBatch(inputs);
    }

  private:
    Accelerator &accel;
    WriteDecoder &decoder;
};

} // namespace

int
main()
{
    benchBanner("Key-logic sensitivity: decoder vs array defects",
                "Temam, ISCA 2012, Section II");

    int reps = scaled(60, 12);
    Rng rng(experimentSeed());

    const UciTaskSpec &spec = uciTask("iris");
    Dataset ds = makeSyntheticTask(spec, rng, fullScale() ? 0 : 240);

    AcceleratorConfig cfg;
    cfg.inputs = 16;
    cfg.hidden = 6;
    cfg.outputs = 3;
    MlpTopology logical{spec.attributes, 6, spec.classes};
    Hyper hyper{6, scaled(100, 40), 0.2, 0.1};
    Hyper retrain = hyper;
    retrain.epochs = std::max(10, hyper.epochs / 3);

    RunningStat clean_acc, array_acc, decoder_acc;
    int decoder_wrecked = 0;
    for (int rep = 0; rep < reps; ++rep) {
        // Clean reference.
        Accelerator a0(cfg, logical);
        WriteDecoder d0(cfg.hidden + cfg.outputs);
        DecodedAccelerator m0(a0, d0);
        Rng t0 = rng.split();
        DeepWeights w0 = Trainer(hyper).train(m0, ds, t0);
        Rng c0 = rng.split();
        clean_acc.add(
            crossValidate(m0, ds, 2, Trainer(retrain), c0, &w0)
                .meanAccuracy);

        // One transistor defect in the ARRAY, retrained.
        Accelerator a1(cfg, logical);
        WriteDecoder d1(cfg.hidden + cfg.outputs);
        DecodedAccelerator m1(a1, d1);
        Rng t1 = rng.split();
        DeepWeights w1 = Trainer(hyper).train(m1, ds, t1);
        Rng i1 = rng.split();
        DefectInjector inj(a1, SitePool::inputAndHidden());
        inj.inject(1, i1);
        Rng c1 = rng.split();
        array_acc.add(
            crossValidate(m1, ds, 2, Trainer(retrain), c1, &w1)
                .meanAccuracy);

        // One transistor defect in the write DECODER, retrained
        // (through the broken write path, as it would be on die).
        Accelerator a2(cfg, logical);
        WriteDecoder d2(cfg.hidden + cfg.outputs);
        DecodedAccelerator m2(a2, d2);
        Rng t2 = rng.split();
        DeepWeights w2 = Trainer(hyper).train(m2, ds, t2);
        Rng i2 = rng.split();
        d2.inject(1, i2);
        Rng c2 = rng.split();
        double acc =
            crossValidate(m2, ds, 2, Trainer(retrain), c2, &w2)
                .meanAccuracy;
        decoder_acc.add(acc);
        if (acc < 0.9 * clean_acc.mean())
            ++decoder_wrecked;
    }

    TextTable t({"configuration", "mean accuracy", "min accuracy"});
    t.addRow({"clean", fmtDouble(clean_acc.mean(), 3),
              fmtDouble(clean_acc.min(), 3)});
    t.addRow({"1 array defect + retrain", fmtDouble(array_acc.mean(), 3),
              fmtDouble(array_acc.min(), 3)});
    t.addRow({"1 decoder defect + retrain",
              fmtDouble(decoder_acc.mean(), 3),
              fmtDouble(decoder_acc.min(), 3)});
    t.print(std::cout);
    std::printf("\ndecoder defects wrecking the accelerator "
                "(accuracy < 90%% of clean): %d/%d\n",
                decoder_wrecked, reps);
    std::printf("(this is why the interface/decoder is 'key logic' "
                "that must be defect-free — it is only %.1f%% of the "
                "area, so hardening it is cheap)\n", 0.6);
    return 0;
}
