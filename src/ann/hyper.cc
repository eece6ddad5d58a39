#include "ann/hyper.hh"

#include "common/logging.hh"

namespace dtann {

HyperSpace
HyperSpace::paperTableI()
{
    HyperSpace s;
    for (int h = 2; h <= 16; h += 2)
        s.hidden.push_back(h);
    for (int e = 100; e <= 3200; e *= 2)
        s.epochs.push_back(e);
    for (int i = 1; i <= 9; ++i) {
        s.learningRate.push_back(0.1 * i);
        s.momentum.push_back(0.1 * i);
    }
    return s;
}

HyperSpace
HyperSpace::reduced()
{
    HyperSpace s;
    s.hidden = {4, 10, 16};
    s.epochs = {80, 250};
    s.learningRate = {0.1, 0.3, 0.9};
    s.momentum = {0.1, 0.5};
    return s;
}

HyperResult
gridSearch(const Dataset &ds, const HyperSpace &space, int folds,
           Rng &rng)
{
    dtann_assert(space.size() > 0, "empty hyper-parameter space");
    HyperResult result;
    for (int h : space.hidden) {
        for (int e : space.epochs) {
            for (double lr : space.learningRate) {
                for (double mom : space.momentum) {
                    Hyper hp{h, e, lr, mom};
                    FloatMlp model(
                        {{ds.numAttributes, h, ds.numClasses}});
                    Rng fold_rng = rng.split();
                    CrossValResult cv = crossValidate(
                        model, ds, folds, Trainer(hp), fold_rng);
                    ++result.evaluated;
                    if (cv.meanAccuracy > result.accuracy) {
                        result.accuracy = cv.meanAccuracy;
                        result.best = hp;
                    }
                }
            }
        }
    }
    return result;
}

} // namespace dtann
