#include "core/systolic.hh"

#include <algorithm>

#include "circuit/lane_plane.hh"
#include "common/logging.hh"

namespace dtann {

SystolicBackend::SystolicBackend(const AcceleratorConfig &config,
                                 MlpTopology logical_topo)
    : HardwareBackend(config, logical_topo),
      rows(std::max(config.inputs, config.hidden) + 1),
      cols(std::max(config.hidden, config.outputs)),
      cell(config.faStyle),
      hidW(static_cast<size_t>(config.hidden) *
           static_cast<size_t>(config.inputs + 1)),
      outW(static_cast<size_t>(config.outputs) *
           static_cast<size_t>(config.hidden + 1)),
      hiddenAct(static_cast<size_t>(config.hidden)),
      hidSums(static_cast<size_t>(config.hidden))
{
}

int
SystolicBackend::unitCount(UnitKind kind) const
{
    switch (kind) {
      case UnitKind::WeightLatch:
      case UnitKind::Multiplier:
        return rows * cols;
      case UnitKind::AdderStage:
        // A chain of N stages per column for N+1 products.
        return (rows - 1) * cols;
      case UnitKind::Activation:
        return cols; // one unit per column foot
      default:
        panic("bad unit kind");
    }
}

bool
SystolicBackend::usedBy(const SitePool &pool, UnitKind kind, int r,
                        int c) const
{
    auto used = [&](int fanin, int neurons) {
        if (c >= neurons)
            return false;
        switch (kind) {
          case UnitKind::WeightLatch:
          case UnitKind::Multiplier:
            return r <= fanin; // bias row last
          case UnitKind::AdderStage:
            return r < fanin;
          case UnitKind::Activation:
            return true;
          default:
            panic("bad unit kind");
        }
    };
    return (pool.hiddenLayer && used(cfg.inputs, cfg.hidden)) ||
        (pool.outputLayer && used(cfg.hidden, cfg.outputs));
}

std::vector<UnitSite>
SystolicBackend::enumerateSites(const SitePool &pool) const
{
    std::vector<UnitSite> sites;
    for (int c = 0; c < cols; ++c) {
        if (pool.latches || pool.multipliers) {
            for (int r = 0; r < rows; ++r) {
                if (pool.latches &&
                    usedBy(pool, UnitKind::WeightLatch, r, c))
                    sites.push_back(
                        {UnitKind::WeightLatch, Layer::Hidden, c, r});
                if (pool.multipliers &&
                    usedBy(pool, UnitKind::Multiplier, r, c))
                    sites.push_back(
                        {UnitKind::Multiplier, Layer::Hidden, c, r});
            }
        }
        if (pool.adders)
            for (int s = 0; s < rows - 1; ++s)
                if (usedBy(pool, UnitKind::AdderStage, s, c))
                    sites.push_back(
                        {UnitKind::AdderStage, Layer::Hidden, c, s});
        if (pool.activations &&
            usedBy(pool, UnitKind::Activation, 0, c))
            sites.push_back(
                {UnitKind::Activation, Layer::Hidden, c, 0});
    }
    return sites;
}

const DeviationProbe &
SystolicBackend::probe(const UnitSite &site) const
{
    // A physical unit serves both passes; its observable deviation
    // record is the two pass-keyed streams folded together. The
    // merge is order-independent, so the result does not depend on
    // how the passes interleaved.
    mergedProbe = DeviationProbe();
    for (Layer pass : {Layer::Hidden, Layer::Output}) {
        auto it = probes.find(
            {site.kind, pass, site.neuron, site.index});
        if (it != probes.end())
            mergedProbe.amplitude.merge(it->second.amplitude);
    }
    return mergedProbe;
}

void
SystolicBackend::setWeights(const MlpWeights &w)
{
    // Hidden-pass stationary weights go into the top-left of the
    // grid, bias row last; the output pass reloads the same PE
    // latches. Each store goes through the PE's (possibly faulty)
    // latch, hidden pass first.
    storeWeights(w, hidW.data(), outW.data());
}

void
SystolicBackend::forwardPass(Layer pass, std::span<const Fix16> in,
                             std::span<Fix16> out)
{
    // Column n: the input streams down the rows, each PE multiplying
    // by its stationary weight and folding the product into the
    // partial sum — the same multiply/add chain as a spatial neuron,
    // executed on shared silicon.
    bool hid = pass == Layer::Hidden;
    runLayer(pass, hid ? hidW.data() : outW.data(), in, out,
             hid ? hidSums.data() : nullptr);
}

void
SystolicBackend::forwardPassLanes(Layer pass,
                                  const std::vector<const Fix16 *> &in,
                                  const std::vector<Fix16 *> &out,
                                  size_t lanes)
{
    bool hid = pass == Layer::Hidden;
    runLayerLanes(pass, hid ? hidW.data() : outW.data(), in, out, lanes,
                  hid ? hidSums.data() : nullptr, nullptr);
}

Activations
SystolicBackend::forward(std::span<const double> input)
{
    dtann_assert(static_cast<int>(input.size()) == logical.inputs,
                 "logical input arity mismatch");
    std::vector<Fix16> phys(static_cast<size_t>(cfg.inputs));
    for (size_t i = 0; i < input.size(); ++i)
        phys[i] = Fix16::fromDouble(input[i]);

    forwardPass(Layer::Hidden, phys, hiddenAct);
    std::vector<Fix16> out(static_cast<size_t>(cfg.outputs));
    forwardPass(Layer::Output, hiddenAct, out);

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
SystolicBackend::forwardBatch(std::span<const std::vector<double>> inputs)
{
    // A stateful faulty PE observes a different operation order
    // when the two passes are chunked (all hidden sweeps, then all
    // output sweeps) than when rows run one at a time (passes
    // interleaved per row) — the PE is shared between the passes,
    // unlike the spatial array's dedicated units. Batch only when
    // every faulty simulation is a pure function; otherwise keep
    // the exact per-row schedule.
    if (!batchPure())
        return rowLoopBatch(inputs);

    size_t nrows = inputs.size();
    std::vector<std::vector<Fix16>> phys(
        nrows, std::vector<Fix16>(static_cast<size_t>(cfg.inputs)));
    for (size_t r = 0; r < nrows; ++r) {
        dtann_assert(static_cast<int>(inputs[r].size()) ==
                         logical.inputs,
                     "logical input arity mismatch");
        for (size_t i = 0; i < inputs[r].size(); ++i)
            phys[r][i] = Fix16::fromDouble(inputs[r][i]);
    }

    std::vector<std::vector<Fix16>> hid(
        nrows, std::vector<Fix16>(static_cast<size_t>(cfg.hidden)));
    std::vector<std::vector<Fix16>> outv(
        nrows, std::vector<Fix16>(static_cast<size_t>(cfg.outputs)));
    size_t width = batchLaneWidth();
    for (size_t pos = 0; pos < nrows; pos += width) {
        size_t lanes = std::min(width, nrows - pos);
        std::vector<const Fix16 *> inPtr(lanes);
        std::vector<const Fix16 *> hidIn(lanes);
        std::vector<Fix16 *> hidPtr(lanes), outPtr(lanes);
        for (size_t l = 0; l < lanes; ++l) {
            inPtr[l] = phys[pos + l].data();
            hidIn[l] = hid[pos + l].data();
            hidPtr[l] = hid[pos + l].data();
            outPtr[l] = outv[pos + l].data();
        }
        forwardPassLanes(Layer::Hidden, inPtr, hidPtr, lanes);
        forwardPassLanes(Layer::Output, hidIn, outPtr, lanes);
    }

    std::vector<Activations> acts(nrows);
    for (size_t r = 0; r < nrows; ++r) {
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
    if (nrows > 0)
        hiddenAct = hid[nrows - 1];
    return acts;
}

} // namespace dtann
