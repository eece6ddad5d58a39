#include "core/accelerator.hh"

#include "common/logging.hh"
#include "core/injector.hh"

namespace dtann {

SpatialBackend::SpatialBackend(const AcceleratorConfig &config,
                               MlpTopology logical_topo)
    : HardwareBackend(config, logical_topo, false)
{
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

std::vector<Fix16>
SpatialBackend::forwardFix(std::span<const Fix16> physical_input)
{
    dtann_assert(static_cast<int>(physical_input.size()) == cfg.inputs,
                 "physical input arity mismatch");
    std::vector<Fix16> hid(static_cast<size_t>(cfg.hidden));
    std::vector<Fix16> out(static_cast<size_t>(cfg.outputs));
    runLayerLanes(Layer::Hidden, {physical_input.data()}, {hid.data()}, 1);
    runLayerLanes(Layer::Output, {hid.data()}, {out.data()}, 1);
    return out;
}

} // namespace dtann
