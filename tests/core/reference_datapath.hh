/**
 * @file
 * Reference datapath and weight install for the hardware backends
 * (tests only).
 *
 * The backends compute a synapse natively when its multiplier and
 * the adder stage that folds it in are both clean, and skip it when
 * its stored weight is zero; a neuron with every unit clean and no
 * non-zero word below the bias is computed once per bias word; and
 * a clean activation unit runs inline (DESIGN.md §14). This subclass
 * keeps the path those rules replaced: every synapse of every neuron
 * goes through unitMulLanes() and unitAddLanes(), and every neuron
 * through unitActLanes() and the clamp, clean or not. The backends
 * have one per-neuron path, run one row per call by forward() and a
 * chunk of rows by forwardBatch(), so this one override is the
 * oracle for both; the differential suite holds the native rules to
 * it on both backends.
 *
 * The backends install weights by writing the task's logical block
 * and replaying a cached list of the faulty or bypassed latches
 * (DESIGN.md §14). ReferenceWeightLoad keeps the install that
 * replaced: one sweep over every latch site of the array, padding
 * included, in pass order. It writes the stored words itself, so it
 * reports each row to storedRowChanged(), as the backends' raw row
 * load does.
 */

#ifndef DTANN_TESTS_CORE_REFERENCE_DATAPATH_HH
#define DTANN_TESTS_CORE_REFERENCE_DATAPATH_HH

#include <algorithm>
#include <array>

#include "circuit/lane_plane.hh"
#include "core/backend.hh"

namespace dtann {

/** @p Backend with the all-units neuron path. */
template <class Backend>
class ReferenceDatapath : public Backend
{
  public:
    using Backend::Backend;

  protected:
    void
    neuronLanes(Layer layer, int neuron, const Fix16 *w,
                const std::vector<const Fix16 *> &in, Acc24 *acc,
                const std::vector<Fix16 *> &out, size_t lanes) override
    {
        const Fix16 one = Fix16::fromDouble(1.0);
        int fanin = this->fanIn(layer);
        std::array<Fix16, kMaxLanes> x, p;
        std::array<Acc24, kMaxLanes> addend;
        for (size_t l = 0; l < lanes; ++l)
            x[l] = in[l][0];
        this->unitMulLanes(layer, neuron, 0, w[0], x.data(), p.data(),
                           lanes);
        for (size_t l = 0; l < lanes; ++l)
            acc[l] = Acc24::fromFix16(p[l]);
        for (int i = 1; i <= fanin; ++i) {
            for (size_t l = 0; l < lanes; ++l)
                x[l] = i < fanin ? in[l][i] : one;
            this->unitMulLanes(layer, neuron, i, w[i], x.data(),
                               p.data(), lanes);
            for (size_t l = 0; l < lanes; ++l)
                addend[l] = Acc24::fromFix16(p[l]);
            this->unitAddLanes(layer, neuron, i - 1, acc, addend.data(),
                               lanes);
        }
        for (size_t l = 0; l < lanes; ++l)
            x[l] = acc[l].toFix16Sat();
        this->unitActLanes(layer, neuron, x.data(), p.data(), lanes);
        for (size_t l = 0; l < lanes; ++l)
            out[l][static_cast<size_t>(neuron)] =
                this->clampValue(layer, p[l]);
    }
};

/** @p Backend with the full-array weight install. */
template <class Backend>
class ReferenceWeightLoad : public Backend
{
  public:
    using Backend::Backend;

    void
    setWeights(const DeepWeights &w) override
    {
        const MlpTopology &t = this->logical;
        dtann_assert(w.topology() == t, "weight topology mismatch");
        for (Layer layer : {Layer::Hidden, Layer::Output}) {
            bool h = layer == Layer::Hidden;
            int neurons = h ? this->cfg.hidden : this->cfg.outputs;
            int used = h ? t.hidden : t.outputs;
            int fanin = this->fanIn(layer);
            int used_fanin = h ? t.inputs : t.hidden;
            Fix16 *dst = h ? this->hidW.data() : this->outW.data();
            for (int n = 0; n < neurons; ++n) {
                for (int i = 0; i <= fanin; ++i) {
                    // Padding sites store zero; the bias synapse is
                    // last in both the logical and the physical row.
                    Fix16 q;
                    if (n < used && (i < used_fanin || i == fanin)) {
                        int li = std::min(i, used_fanin);
                        q = Fix16::fromDouble(h ? w.at(0, n, li)
                                                : w.at(1, n, li));
                    }
                    *dst++ = this->unitClean(UnitKind::WeightLatch, layer,
                                             n, i)
                        ? q
                        : this->unitLatchStore(layer, n, i, q);
                }
                this->storedRowChanged(layer, n);
            }
        }
    }
};

} // namespace dtann

#endif // DTANN_TESTS_CORE_REFERENCE_DATAPATH_HH
