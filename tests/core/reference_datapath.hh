/**
 * @file
 * All-units reference datapath for the hardware backends (tests
 * only).
 *
 * The backends compute a synapse natively when its multiplier and
 * the adder stage that folds it in are both clean, and skip it when
 * its stored weight is zero (DESIGN.md §14). This subclass keeps the
 * chain that rule replaced: every synapse of every neuron goes
 * through unitMulLanes() and unitAddLanes(), clean or not. The
 * backends have one chain, run one row per call by forward() and a
 * chunk of rows by forwardBatch(), so this one override is the
 * oracle for both; the differential suite holds the native rule to
 * it on both backends.
 */

#ifndef DTANN_TESTS_CORE_REFERENCE_DATAPATH_HH
#define DTANN_TESTS_CORE_REFERENCE_DATAPATH_HH

#include <array>

#include "circuit/lane_plane.hh"
#include "core/backend.hh"

namespace dtann {

/** @p Backend with the all-units neuron chain. */
template <class Backend>
class ReferenceDatapath : public Backend
{
  public:
    using Backend::Backend;

  protected:
    void
    neuronSumLanes(Layer layer, int neuron, const Fix16 *w,
                   const std::vector<const Fix16 *> &in, Acc24 *acc,
                   size_t lanes) override
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
    }
};

} // namespace dtann

#endif // DTANN_TESTS_CORE_REFERENCE_DATAPATH_HH
