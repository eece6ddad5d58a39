#include "core/accelerator.hh"

#include "circuit/lane_plane.hh"
#include "common/logging.hh"
#include "core/injector.hh"

namespace dtann {

SpatialBackend::SpatialBackend(const AcceleratorConfig &config,
                               MlpTopology logical_topo)
    : HardwareBackend(config, logical_topo),
      hidW(static_cast<size_t>(config.hidden) *
           static_cast<size_t>(config.inputs + 1)),
      outW(static_cast<size_t>(config.outputs) *
           static_cast<size_t>(config.hidden + 1)),
      hiddenAct(static_cast<size_t>(config.hidden)),
      hidSums(static_cast<size_t>(config.hidden))
{
}

Fix16 &
SpatialBackend::hidWAt(int j, int i)
{
    return hidW[static_cast<size_t>(j) *
                    static_cast<size_t>(cfg.inputs + 1) +
                static_cast<size_t>(i)];
}

Fix16 &
SpatialBackend::outWAt(int k, int j)
{
    return outW[static_cast<size_t>(k) *
                    static_cast<size_t>(cfg.hidden + 1) +
                static_cast<size_t>(j)];
}

int
SpatialBackend::unitCount(UnitKind kind) const
{
    int hid_syn = cfg.hidden * (cfg.inputs + 1);
    int out_syn = cfg.outputs * (cfg.hidden + 1);
    switch (kind) {
      case UnitKind::WeightLatch:
      case UnitKind::Multiplier:
        return hid_syn + out_syn;
      case UnitKind::AdderStage:
        // A chain of N additions per neuron for N+1 products.
        return cfg.hidden * cfg.inputs + cfg.outputs * cfg.hidden;
      case UnitKind::Activation:
        return cfg.hidden + cfg.outputs;
      default:
        panic("bad unit kind");
    }
}

std::vector<UnitSite>
SpatialBackend::enumerateSites(const SitePool &pool) const
{
    return dtann::enumerateSites(cfg, pool);
}

void
SpatialBackend::setWeights(const MlpWeights &w)
{
    storeWeights(w, hidW.data(), outW.data());
}

void
SpatialBackend::forwardLayer(Layer layer, std::span<const Fix16> in,
                             std::span<Fix16> out)
{
    bool hid = layer == Layer::Hidden;
    runLayer(layer, hid ? hidW.data() : outW.data(), in, out,
             hid ? hidSums.data() : nullptr);
}

void
SpatialBackend::forwardLayerLanes(Layer layer,
                                  const std::vector<const Fix16 *> &in,
                                  const std::vector<Fix16 *> &out,
                                  size_t lanes)
{
    // The per-lane hidden sums feed the time-multiplexed batch
    // path's key-logic accumulation.
    bool hid = layer == Layer::Hidden;
    if (hid)
        hidSumsLanes.resize(lanes * static_cast<size_t>(cfg.hidden));
    runLayerLanes(layer, hid ? hidW.data() : outW.data(), in, out, lanes,
                  hid ? hidSums.data() : nullptr,
                  hid ? hidSumsLanes.data() : nullptr);
}

void
SpatialBackend::loadPhysicalHiddenRow(int phys_neuron,
                                      std::span<const Fix16> weights)
{
    dtann_assert(phys_neuron >= 0 && phys_neuron < cfg.hidden,
                 "physical neuron index out of range");
    dtann_assert(static_cast<int>(weights.size()) == cfg.inputs + 1,
                 "weight row arity mismatch");
    for (int i = 0; i <= cfg.inputs; ++i)
        hidWAt(phys_neuron, i) = storeWeight(
            Layer::Hidden, phys_neuron, i, weights[static_cast<size_t>(i)]);
}

void
SpatialBackend::loadPhysicalOutputRow(int phys_neuron,
                                      std::span<const Fix16> weights)
{
    dtann_assert(phys_neuron >= 0 && phys_neuron < cfg.outputs,
                 "physical neuron index out of range");
    dtann_assert(static_cast<int>(weights.size()) == cfg.hidden + 1,
                 "weight row arity mismatch");
    for (int j = 0; j <= cfg.hidden; ++j)
        outWAt(phys_neuron, j) = storeWeight(
            Layer::Output, phys_neuron, j, weights[static_cast<size_t>(j)]);
}

void
SpatialBackend::runHiddenLayerLanes(const std::vector<const Fix16 *> &in,
                                    const std::vector<Fix16 *> &out,
                                    size_t lanes)
{
    dtann_assert(in.size() >= lanes && out.size() >= lanes,
                 "lane pointer arity mismatch");
    forwardLayerLanes(Layer::Hidden, in, out, lanes);
}

std::vector<Fix16>
SpatialBackend::runHiddenLayer(std::span<const Fix16> physical_input)
{
    dtann_assert(static_cast<int>(physical_input.size()) == cfg.inputs,
                 "physical input arity mismatch");
    forwardLayer(Layer::Hidden, physical_input, hiddenAct);
    return {hiddenAct.begin(), hiddenAct.end()};
}

std::vector<Fix16>
SpatialBackend::forwardFix(std::span<const Fix16> physical_input)
{
    dtann_assert(static_cast<int>(physical_input.size()) == cfg.inputs,
                 "physical input arity mismatch");
    forwardLayer(Layer::Hidden, physical_input, hiddenAct);
    std::vector<Fix16> out(static_cast<size_t>(cfg.outputs));
    forwardLayer(Layer::Output, hiddenAct, out);
    return out;
}

Activations
SpatialBackend::forward(std::span<const double> input)
{
    dtann_assert(static_cast<int>(input.size()) == logical.inputs,
                 "logical input arity mismatch");
    std::vector<Fix16> phys(static_cast<size_t>(cfg.inputs));
    for (size_t i = 0; i < input.size(); ++i)
        phys[i] = Fix16::fromDouble(input[i]);
    std::vector<Fix16> out = forwardFix(phys);

    Activations act(static_cast<size_t>(logical.hidden),
                    static_cast<size_t>(logical.outputs));
    for (int j = 0; j < logical.hidden; ++j)
        act.hidden()[static_cast<size_t>(j)] =
            hiddenAct[static_cast<size_t>(j)].toDouble();
    for (int k = 0; k < logical.outputs; ++k)
        act.output()[static_cast<size_t>(k)] =
            out[static_cast<size_t>(k)].toDouble();
    return act;
}

std::vector<Activations>
SpatialBackend::forwardBatch(std::span<const std::vector<double>> inputs)
{
    size_t rows = inputs.size();
    std::vector<std::vector<Fix16>> phys(
        rows, std::vector<Fix16>(static_cast<size_t>(cfg.inputs)));
    for (size_t r = 0; r < rows; ++r) {
        dtann_assert(static_cast<int>(inputs[r].size()) ==
                         logical.inputs,
                     "logical input arity mismatch");
        for (size_t i = 0; i < inputs[r].size(); ++i)
            phys[r][i] = Fix16::fromDouble(inputs[r][i]);
    }

    std::vector<std::vector<Fix16>> hid(
        rows, std::vector<Fix16>(static_cast<size_t>(cfg.hidden)));
    std::vector<std::vector<Fix16>> outv(
        rows, std::vector<Fix16>(static_cast<size_t>(cfg.outputs)));
    size_t width = batchLaneWidth();
    for (size_t pos = 0; pos < rows; pos += width) {
        size_t lanes = std::min(width, rows - pos);
        std::vector<const Fix16 *> inPtr(lanes);
        std::vector<const Fix16 *> hidIn(lanes);
        std::vector<Fix16 *> hidPtr(lanes), outPtr(lanes);
        for (size_t l = 0; l < lanes; ++l) {
            inPtr[l] = phys[pos + l].data();
            hidIn[l] = hid[pos + l].data();
            hidPtr[l] = hid[pos + l].data();
            outPtr[l] = outv[pos + l].data();
        }
        forwardLayerLanes(Layer::Hidden, inPtr, hidPtr, lanes);
        forwardLayerLanes(Layer::Output, hidIn, outPtr, lanes);
    }

    std::vector<Activations> acts(rows);
    for (size_t r = 0; r < rows; ++r) {
        Activations &act = acts[r];
        act = Activations(static_cast<size_t>(logical.hidden),
                          static_cast<size_t>(logical.outputs));
        for (int j = 0; j < logical.hidden; ++j)
            act.hidden()[static_cast<size_t>(j)] =
                hid[r][static_cast<size_t>(j)].toDouble();
        for (int k = 0; k < logical.outputs; ++k)
            act.output()[static_cast<size_t>(k)] =
                outv[r][static_cast<size_t>(k)].toDouble();
    }
    // Mirror per-row forward(): the activation scratch holds the
    // last processed row.
    if (rows > 0)
        hiddenAct = hid[rows - 1];
    return acts;
}

} // namespace dtann
