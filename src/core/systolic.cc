#include "core/systolic.hh"

#include <algorithm>

#include "common/logging.hh"

namespace dtann {

SystolicBackend::SystolicBackend(const AcceleratorConfig &config,
                                 MlpTopology logical_topo)
    : HardwareBackend(config, logical_topo, true),
      rows(std::max(config.inputs, config.hidden) + 1),
      cols(std::max(config.hidden, config.outputs)),
      cell(config.faStyle)
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

} // namespace dtann
