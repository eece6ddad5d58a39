#include "core/deep_mux.hh"

#include <algorithm>

#include "circuit/lane_plane.hh"
#include "common/logging.hh"
#include "core/timemux.hh"

namespace dtann {

DeepMuxedNetwork::DeepMuxedNetwork(Accelerator &a, DeepTopology t)
    : accel(a), topo(std::move(t))
{
    dtann_assert(topo.layers.size() >= 3,
                 "deep topology needs input, >=1 hidden, output");
}

void
DeepMuxedNetwork::setWeights(const DeepWeights &w)
{
    dtann_assert(w.topology() == topo, "weight topology mismatch");
    stageRows.assign(topo.stages(), {});
    for (size_t s = 0; s < topo.stages(); ++s) {
        int fanin = topo.layers[s];
        int width = topo.layers[s + 1];
        auto &rows = stageRows[s];
        rows.assign(static_cast<size_t>(width), {});
        for (int j = 0; j < width; ++j) {
            auto &row = rows[static_cast<size_t>(j)];
            row.resize(static_cast<size_t>(fanin + 1));
            for (int i = 0; i <= fanin; ++i)
                row[static_cast<size_t>(i)] =
                    Fix16::fromDouble(w.at(s, j, i));
        }
    }
}

std::vector<Activations>
DeepMuxedNetwork::forwardBatch(std::span<const std::vector<double>> inputs)
{
    dtann_assert(!stageRows.empty(), "setWeights() before forward()");
    size_t width = accel.batchPure() ? batchLaneWidth() : 1;
    size_t rows = inputs.size();
    std::vector<Activations> acts(rows);
    std::vector<std::vector<Fix16>> current;
    for (size_t pos = 0; pos < rows; pos += width) {
        size_t lanes = std::min(width, rows - pos);
        current.assign(lanes, {});
        for (size_t l = 0; l < lanes; ++l) {
            const std::vector<double> &row = inputs[pos + l];
            dtann_assert(static_cast<int>(row.size()) == topo.inputs(),
                         "input arity mismatch");
            for (double v : row)
                current[l].push_back(Fix16::fromDouble(v));
        }
        for (size_t s = 0; s < topo.stages(); ++s) {
            current = muxRunLayerBatch(accel, stageRows[s], current);
            for (size_t l = 0; l < lanes; ++l) {
                std::vector<double> &out =
                    acts[pos + l].layers.emplace_back(current[l].size());
                for (size_t j = 0; j < out.size(); ++j)
                    out[j] = current[l][j].toDouble();
            }
        }
    }
    return acts;
}

size_t
DeepMuxedNetwork::passesPerRow() const
{
    size_t passes = 0;
    for (size_t s = 0; s < topo.stages(); ++s)
        passes += muxLayerPasses(accel.config(), topo.layers[s + 1],
                                 topo.layers[s]);
    return passes;
}

} // namespace dtann
