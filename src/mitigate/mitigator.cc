#include "mitigate/mitigator.hh"

#include <algorithm>
#include <set>
#include <tuple>

#include "ann/crossval.hh"
#include "common/logging.hh"

namespace dtann {

const std::vector<Strategy> &
allStrategies()
{
    static const std::vector<Strategy> all = {
        Strategy::NoOp,          Strategy::RetrainOnly,
        Strategy::BypassFaulty,  Strategy::RemapToSpares,
        Strategy::ClampActivations, Strategy::ReplicateCritical,
    };
    return all;
}

const char *
strategyName(Strategy s)
{
    switch (s) {
      case Strategy::NoOp: return "noop";
      case Strategy::RetrainOnly: return "retrain";
      case Strategy::BypassFaulty: return "bypass";
      case Strategy::RemapToSpares: return "remap";
      case Strategy::ClampActivations: return "clamp";
      case Strategy::ReplicateCritical: return "replicate";
    }
    panic("bad strategy");
}

bool
strategyFromName(const std::string &name, Strategy &out)
{
    for (Strategy s : allStrategies()) {
        if (name == strategyName(s)) {
            out = s;
            return true;
        }
    }
    return false;
}

std::string
strategyNameList()
{
    std::string list;
    for (Strategy s : allStrategies()) {
        if (!list.empty())
            list += ", ";
        list += strategyName(s);
    }
    return list;
}

bool
strategySupported(Strategy s, BackendKind backend)
{
    if (backend == BackendKind::Spatial)
        return true;
    return s != Strategy::RemapToSpares &&
        s != Strategy::ReplicateCritical;
}

std::vector<PrunedSynapse>
pruneMaskForBypasses(const HardwareBackend &accel, MlpTopology logical)
{
    const AcceleratorConfig &cfg = accel.config();
    bool systolic = accel.backendKind() == BackendKind::Systolic;
    std::set<std::tuple<size_t, int, int>> mask;

    // Map a physical synapse index to its logical input index:
    // indices below the logical fan-in map directly, the physical
    // bias column maps to the logical bias, everything else is an
    // unused zero-weight synapse.
    auto logicalInput = [](int index, int phys_fanin,
                           int logical_fanin) {
        if (index < logical_fanin)
            return index;
        if (index == phys_fanin)
            return logical_fanin; // bias synapse
        return -1;
    };

    // Prune the synapses that bypassed unit @p s zeroes when it
    // executes logical stage @p stage. On the spatial array a unit
    // serves exactly one stage; a systolic grid unit is shared by
    // both passes and gets one view per pass it participates in.
    auto applyView = [&](const UnitSite &s, size_t stage) {
        int width = stage == 0 ? logical.hidden : logical.outputs;
        int fanin = stage == 0 ? logical.inputs : logical.hidden;
        int phys_fanin = stage == 0 ? cfg.inputs : cfg.hidden;
        if (s.neuron >= width)
            return; // unused physical row/column

        switch (s.kind) {
          case UnitKind::Multiplier:
          case UnitKind::WeightLatch: {
            int i = logicalInput(s.index, phys_fanin, fanin);
            if (i >= 0)
                mask.insert({stage, s.neuron, i});
            break;
          }
          case UnitKind::AdderStage: {
            // Stage t accumulates the product of synapse t+1 (the
            // chain starts from synapse 0's product); skipping the
            // stage drops exactly that product.
            int i = logicalInput(s.index + 1, phys_fanin, fanin);
            if (i >= 0)
                mask.insert({stage, s.neuron, i});
            break;
          }
          case UnitKind::Activation: {
            // A silenced hidden neuron feeds constant zero into the
            // output layer: prune every synapse reading it so
            // back-propagation stops steering gradients through the
            // dead connection. (Activations that produce network
            // outputs are never bypassed — see
            // BypassFaultyMitigator.)
            if (stage == 0 && s.neuron < logical.hidden)
                for (int k = 0; k < logical.outputs; ++k)
                    mask.insert({1, k, s.neuron});
            break;
          }
        }
    };

    for (const UnitSite &s : accel.bypassedSites()) {
        if (!systolic) {
            applyView(s, s.layer == Layer::Hidden ? 0 : 1);
            continue;
        }
        // Hidden-canonical grid site: the unit participates in a
        // pass when its row position lies inside that pass's
        // physical fan-in (see SystolicBackend's mapping).
        auto inPass = [&](size_t stage) {
            int phys_fanin = stage == 0 ? cfg.inputs : cfg.hidden;
            switch (s.kind) {
              case UnitKind::Multiplier:
              case UnitKind::WeightLatch:
                return s.index <= phys_fanin;
              case UnitKind::AdderStage:
                return s.index < phys_fanin;
              case UnitKind::Activation:
                return true;
            }
            return false;
        };
        for (size_t stage = 0; stage < 2; ++stage)
            if (inPass(stage))
                applyView(s, stage);
    }

    std::vector<PrunedSynapse> out;
    out.reserve(mask.size());
    for (const auto &[stage, neuron, input] : mask)
        out.push_back({stage, neuron, input});
    return out;
}

namespace {

/** Retrain through @p model and cross-validate (shared tail). */
double
retrainedAccuracy(ForwardModel &model, const MitigationSetup &setup,
                  Rng &rng, const Trainer &retrainer)
{
    return crossValidate(model, setup.ds, setup.folds, retrainer, rng,
                         &setup.baseline)
        .meanAccuracy;
}

double
retrainedAccuracy(ForwardModel &model, const MitigationSetup &setup,
                  Rng &rng)
{
    return retrainedAccuracy(model, setup, rng,
                             Trainer(setup.retrain));
}

class NoOpMitigator : public Mitigator
{
  public:
    Strategy kind() const override { return Strategy::NoOp; }

    MitigationOutcome
    run(const MitigationSetup &setup,
        const std::function<void(HardwareBackend &)> &inject,
        Rng &) override
    {
        auto accel =
            makeBackend(setup.backend, setup.array, setup.logical);
        inject(*accel);
        accel->setWeights(setup.baseline);
        MitigationOutcome out;
        out.accuracy = evalAccuracy(*accel, setup.ds);
        out.sim = accel->simCounters();
        return out;
    }
};

class RetrainOnlyMitigator : public Mitigator
{
  public:
    Strategy kind() const override { return Strategy::RetrainOnly; }

    MitigationOutcome
    run(const MitigationSetup &setup,
        const std::function<void(HardwareBackend &)> &inject,
        Rng &rng) override
    {
        auto accel =
            makeBackend(setup.backend, setup.array, setup.logical);
        inject(*accel);
        MitigationOutcome out;
        out.accuracy = retrainedAccuracy(*accel, setup, rng);
        out.sim = accel->simCounters();
        return out;
    }
};

class BypassFaultyMitigator : public Mitigator
{
  public:
    Strategy kind() const override { return Strategy::BypassFaulty; }

    MitigationOutcome
    run(const MitigationSetup &setup,
        const std::function<void(HardwareBackend &)> &inject,
        Rng &rng) override
    {
        auto accel =
            makeBackend(setup.backend, setup.array, setup.logical);
        inject(*accel);

        DefectMap map;
        DiagnosisReport report =
            diagnose(*accel, setup.bist, rng, &map);
        for (const UnitSite &s : map.suspects()) {
            // An activation that produces a network output cannot
            // be disconnected — its class would never be predicted
            // — so retraining has to cope with those (the Fig 11
            // weak spot that RemapToSpares addresses instead). On
            // the spatial array that is the output layer; on the
            // systolic grid the shared activation at column c
            // produces output c whenever c is an output column.
            bool output_act = s.kind == UnitKind::Activation &&
                (setup.backend == BackendKind::Systolic
                     ? s.neuron < setup.array.outputs
                     : s.layer == Layer::Output);
            if (output_act)
                continue;
            accel->bypassUnit(s);
        }

        // Fault-aware pruning: the trainer's shadow weights at the
        // bypassed synapses are frozen to zero, keeping back-
        // propagation consistent with the hardware's zeroed
        // forward path.
        Trainer retrainer(setup.retrain);
        retrainer.setPruneMask(
            pruneMaskForBypasses(*accel, setup.logical));

        MitigationOutcome out;
        out.coverage = report.coverage();
        out.diagnosed = static_cast<int>(map.size());
        out.mitigatedUnits =
            static_cast<int>(accel->bypassedSites().size());
        out.accuracy =
            retrainedAccuracy(*accel, setup, rng, retrainer);
        out.sim = accel->simCounters();
        return out;
    }
};

/** Clamp-profiling margin: one-sixteenth of a value unit beyond
 *  the observed clean range, so quantization wobble at the window
 *  edge never clips a healthy activation. */
constexpr double kClampMargin = 1.0 / 16.0;

class ClampActivationsMitigator : public Mitigator
{
  public:
    Strategy kind() const override
    {
        return Strategy::ClampActivations;
    }

    MitigationOutcome
    run(const MitigationSetup &setup,
        const std::function<void(HardwareBackend &)> &inject,
        Rng &rng) override
    {
        auto accel =
            makeBackend(setup.backend, setup.array, setup.logical);
        inject(*accel);

        // Learn the per-layer windows by profiling the clean
        // reference network over the task data (deterministic — no
        // diagnosis, no randomness), Liu-Cheng style: the filter
        // bounds come from what healthy activations actually span.
        FloatMlp ref(setup.logical);
        ref.setWeights(setup.baseline);
        double lo[2] = {1e300, 1e300};
        double hi[2] = {-1e300, -1e300};
        for (const Activations &act : ref.forwardBatch(setup.ds.rows))
            for (size_t layer = 0; layer < 2; ++layer)
                for (double v : act.layers[layer]) {
                    lo[layer] = std::min(lo[layer], v);
                    hi[layer] = std::max(hi[layer], v);
                }
        for (Layer layer : {Layer::Hidden, Layer::Output})
            accel->setActivationClamp(
                layer,
                Fix16::fromDouble(
                    lo[static_cast<size_t>(layer)] - kClampMargin),
                Fix16::fromDouble(
                    hi[static_cast<size_t>(layer)] + kClampMargin));

        // Retrain through the clamped array so the weights adapt to
        // the filtered forward path.
        MitigationOutcome out;
        out.accuracy = retrainedAccuracy(*accel, setup, rng);
        // Blind strategy: no diagnosis, nothing missed by its own
        // contract. Every activation unit that feeds the datapath
        // gets a comparator pair — one per pass position, since the
        // clamp windows are configured per pass.
        out.mitigatedUnits = setup.array.hidden + setup.array.outputs;
        out.sim = accel->simCounters();
        return out;
    }
};

/**
 * RemapToSpares and ReplicateCritical: diagnose, plan the output
 * rows from the defect map, and retrain through the row-mapped
 * array. The plan is the only step that depends on the strategy.
 */
class SpareRowMitigator : public Mitigator
{
  public:
    explicit SpareRowMitigator(Strategy s) : strategy(s) {}

    Strategy kind() const override { return strategy; }

    MitigationOutcome
    run(const MitigationSetup &setup,
        const std::function<void(HardwareBackend &)> &inject,
        Rng &rng) override
    {
        dtann_assert(strategySupported(strategy, setup.backend),
                     "%s requires the spatial backend",
                     strategyName(strategy));
        // Map the array with every physical output row addressable
        // so spare rows can serve diagnosed-faulty ones.
        Accelerator accel(setup.array,
                          fullRowTopology(setup.logical, setup.array));
        inject(accel);

        DefectMap map;
        DiagnosisReport report = diagnose(accel, setup.bist, rng, &map);
        RowMappedMlp mapped(
            accel, setup.logical,
            strategy == Strategy::RemapToSpares
                ? planOutputRemap(map, setup.logical, setup.array)
                : planOutputReplication(map, setup.logical, setup.array));

        MitigationOutcome out;
        out.coverage = report.coverage();
        out.diagnosed = static_cast<int>(map.size());
        out.mitigatedUnits = mapped.spareRowsUsed();
        out.accuracy = retrainedAccuracy(mapped, setup, rng);
        out.sim = accel.simCounters();
        return out;
    }

  private:
    Strategy strategy;
};

/**
 * The spare-row scan both plans share: logical output k keeps row
 * k, and a diagnosed-faulty row recruits up to @p recruits clean
 * spare rows, taken in ascending order, each used once.
 */
RowPlan
recruitSpares(const DefectMap &map, MlpTopology logical,
              const AcceleratorConfig &cfg, int recruits)
{
    std::vector<int> bad = map.suspectNeurons(Layer::Output);
    auto row_faulty = [&](int row) {
        return std::binary_search(bad.begin(), bad.end(), row);
    };

    RowPlan plan(static_cast<size_t>(logical.outputs));
    int next_spare = logical.outputs;
    for (int k = 0; k < logical.outputs; ++k) {
        std::vector<int> &group = plan[static_cast<size_t>(k)];
        group.push_back(k);
        if (!row_faulty(k))
            continue;
        for (int c = 0; c < recruits; ++c) {
            while (next_spare < cfg.outputs && row_faulty(next_spare))
                ++next_spare;
            if (next_spare >= cfg.outputs)
                break;
            group.push_back(next_spare++);
        }
    }
    return plan;
}

} // namespace

std::unique_ptr<Mitigator>
makeMitigator(Strategy s)
{
    switch (s) {
      case Strategy::NoOp:
        return std::make_unique<NoOpMitigator>();
      case Strategy::RetrainOnly:
        return std::make_unique<RetrainOnlyMitigator>();
      case Strategy::BypassFaulty:
        return std::make_unique<BypassFaultyMitigator>();
      case Strategy::RemapToSpares:
      case Strategy::ReplicateCritical:
        return std::make_unique<SpareRowMitigator>(s);
      case Strategy::ClampActivations:
        return std::make_unique<ClampActivationsMitigator>();
    }
    panic("bad strategy");
}

RowPlan
planOutputRemap(const DefectMap &map, MlpTopology logical,
                const AcceleratorConfig &cfg)
{
    // A recruited spare replaces the faulty row outright.
    RowPlan plan = recruitSpares(map, logical, cfg, 1);
    for (std::vector<int> &group : plan)
        group.erase(group.begin(), group.end() - 1);
    return plan;
}

RowPlan
planOutputReplication(const DefectMap &map, MlpTopology logical,
                      const AcceleratorConfig &cfg)
{
    return recruitSpares(map, logical, cfg, 2);
}

} // namespace dtann
