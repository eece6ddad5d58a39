/**
 * @file
 * All-units reference datapath for the hardware backends (tests
 * only).
 *
 * The backends compute a synapse natively when its multiplier and
 * the adder stage that folds it in are both clean, and skip it when
 * its stored weight is zero (DESIGN.md §14). This subclass keeps the
 * chain that rule replaced: every synapse of every neuron goes
 * through unitMul() and unitAdd(), clean or not. The differential
 * suite holds the native rule to it on both backends, per row and
 * lane-batched.
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
    Acc24
    neuronSum(Layer layer, int neuron, const Fix16 *w,
              std::span<const Fix16> in) override
    {
        const Fix16 one = Fix16::fromDouble(1.0);
        int fanin = this->fanIn(layer);
        Acc24 acc = Acc24::fromFix16(
            this->unitMul(layer, neuron, 0, w[0], in[0]));
        for (int i = 1; i <= fanin; ++i) {
            Fix16 x = i < fanin ? in[static_cast<size_t>(i)] : one;
            Fix16 p = this->unitMul(layer, neuron, i, w[i], x);
            acc = this->unitAdd(layer, neuron, i - 1, acc,
                                Acc24::fromFix16(p));
        }
        return acc;
    }

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
