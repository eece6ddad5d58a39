#include "core/timemux.hh"

#include <algorithm>

#include "circuit/lane_plane.hh"
#include "common/logging.hh"

namespace dtann {

TimeMuxedMlp::TimeMuxedMlp(Accelerator &a, MlpTopology logical)
    : DeepMuxedNetwork(a, logical)
{
    dtann_assert(logical.inputs >= 1 && logical.hidden >= 1 &&
                     logical.outputs >= 1,
                 "degenerate topology");
}

std::vector<std::vector<Fix16>>
muxRunLayerBatch(Accelerator &accel,
                 const std::vector<std::vector<Fix16>> &rows,
                 const std::vector<std::vector<Fix16>> &inputs)
{
    const AcceleratorConfig &cfg = accel.config();
    int P = cfg.inputs;          // physical fan-in per pass
    int B = cfg.hidden;          // physical neurons per pass
    size_t lanes = inputs.size();
    dtann_assert(lanes >= 1 && lanes <= kMaxLanes,
                 "lane count out of range");
    int fanin = static_cast<int>(inputs[0].size());
    int chunks = (fanin + P - 1) / P;

    std::vector<std::vector<Fix16>> result(
        lanes, std::vector<Fix16>(rows.size()));
    std::vector<Fix16> phys_row(static_cast<size_t>(P + 1));
    std::vector<std::vector<Fix16>> phys_in(
        lanes, std::vector<Fix16>(static_cast<size_t>(P)));
    std::vector<std::vector<Fix16>> acts(
        lanes, std::vector<Fix16>(static_cast<size_t>(B)));
    std::vector<const Fix16 *> inPtr(lanes);
    std::vector<Fix16 *> actPtr(lanes);
    for (size_t l = 0; l < lanes; ++l) {
        inPtr[l] = phys_in[l].data();
        actPtr[l] = acts[l].data();
    }
    std::vector<Acc24> totals;

    for (size_t batch = 0; batch < rows.size();
         batch += static_cast<size_t>(B)) {
        size_t in_batch =
            std::min<size_t>(static_cast<size_t>(B), rows.size() - batch);
        totals.assign(lanes * in_batch, Acc24());
        for (int c = 0; c < chunks; ++c) {
            int base = c * P;
            int span = std::min(P, fanin - base);
            bool last = c == chunks - 1;
            for (size_t p = 0; p < in_batch; ++p) {
                const auto &row = rows[batch + p];
                std::fill(phys_row.begin(), phys_row.end(), Fix16());
                for (int i = 0; i < span; ++i)
                    phys_row[static_cast<size_t>(i)] =
                        row[static_cast<size_t>(base + i)];
                if (last)
                    phys_row[static_cast<size_t>(P)] = row.back(); // bias
                accel.loadPhysicalRow(Layer::Hidden, static_cast<int>(p),
                                      phys_row);
            }
            for (size_t l = 0; l < lanes; ++l) {
                auto &in = phys_in[l];
                std::fill(in.begin(), in.end(), Fix16());
                for (int i = 0; i < span; ++i)
                    in[static_cast<size_t>(i)] =
                        inputs[l][static_cast<size_t>(base + i)];
            }
            accel.runLayerLanes(Layer::Hidden, inPtr, actPtr, lanes);
            if (chunks == 1)
                break; // fits in one pass: the activations are final
            // Oversized fan-in: accumulate per-lane chunk sums in key
            // logic.
            const std::vector<Acc24> &sums = accel.hiddenSumsLanes();
            for (size_t l = 0; l < lanes; ++l)
                for (size_t p = 0; p < in_batch; ++p)
                    totals[l * in_batch + p] = Acc24::hwAdd(
                        totals[l * in_batch + p],
                        sums[l * static_cast<size_t>(B) + p]);
        }
        if (chunks > 1) {
            // Final activation pass: feed each neuron's saturated sum
            // back on its own input line with an exact weight of 1.0
            // so the physical activation unit produces the neuron
            // output — one identity load for all lanes.
            for (size_t p = 0; p < in_batch; ++p) {
                std::fill(phys_row.begin(), phys_row.end(), Fix16());
                phys_row[p] = Fix16::fromDouble(1.0);
                accel.loadPhysicalRow(Layer::Hidden, static_cast<int>(p),
                                      phys_row);
            }
            for (size_t l = 0; l < lanes; ++l) {
                auto &in = phys_in[l];
                std::fill(in.begin(), in.end(), Fix16());
                for (size_t p = 0; p < in_batch; ++p)
                    in[p] = totals[l * in_batch + p].toFix16Sat();
            }
            accel.runLayerLanes(Layer::Hidden, inPtr, actPtr, lanes);
        }
        for (size_t l = 0; l < lanes; ++l)
            for (size_t p = 0; p < in_batch; ++p)
                result[l][batch + p] = acts[l][p];
    }
    return result;
}

size_t
muxLayerPasses(const AcceleratorConfig &cfg, int neurons, int fanin)
{
    size_t batches = static_cast<size_t>(
        (neurons + cfg.hidden - 1) / cfg.hidden);
    size_t chunks = static_cast<size_t>(
        (fanin + cfg.inputs - 1) / cfg.inputs);
    size_t per_batch = chunks == 1 ? 1 : chunks + 1; // + activation pass
    return batches * per_batch;
}

size_t
TimeMuxedMlp::weightWordsPerRow() const
{
    // Every pass reloads a full physical weight row per busy
    // neuron.
    const AcceleratorConfig &cfg = accel.config();
    return passesPerRow() * static_cast<size_t>(cfg.hidden) *
        static_cast<size_t>(cfg.inputs + 1);
}

int
TimeMuxedMlp::muxFactor() const
{
    const AcceleratorConfig &cfg = accel.config();
    DeepTopology logical = topology();
    int total = logical.layers[1] + logical.outputs();
    int phys = cfg.hidden;
    return (total + phys - 1) / phys;
}

} // namespace dtann
