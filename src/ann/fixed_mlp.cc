#include "ann/fixed_mlp.hh"

#include "ann/sigmoid.hh"
#include "common/logging.hh"

namespace dtann {

FixedMlp::FixedMlp(MlpTopology t)
    : topo(t),
      hiddenW(static_cast<size_t>(t.hidden) *
              static_cast<size_t>(t.inputs + 1)),
      outputW(static_cast<size_t>(t.outputs) *
              static_cast<size_t>(t.hidden + 1)),
      hiddenAct(static_cast<size_t>(t.hidden))
{
}

void
FixedMlp::setWeights(const DeepWeights &w)
{
    dtann_assert(w.topology() == topo, "weight topology mismatch");
    // Both stages share the stores' layout: row-major, bias last.
    std::span<const double> hid = w.stage(0), out = w.stage(1);
    for (size_t n = 0; n < hiddenW.size(); ++n)
        hiddenW[n] = Fix16::fromDouble(hid[n]);
    for (size_t n = 0; n < outputW.size(); ++n)
        outputW[n] = Fix16::fromDouble(out[n]);
}

Fix16
FixedMlp::hidWeight(int j, int i) const
{
    return hiddenW[static_cast<size_t>(j) *
                       static_cast<size_t>(topo.inputs + 1) +
                   static_cast<size_t>(i)];
}

Fix16
FixedMlp::outWeight(int k, int j) const
{
    return outputW[static_cast<size_t>(k) *
                       static_cast<size_t>(topo.hidden + 1) +
                   static_cast<size_t>(j)];
}

std::vector<Fix16>
FixedMlp::forwardFix(std::span<const Fix16> input)
{
    dtann_assert(static_cast<int>(input.size()) == topo.inputs,
                 "input arity mismatch");
    const Fix16 one = Fix16::fromDouble(1.0);

    for (int j = 0; j < topo.hidden; ++j) {
        Acc24 acc;
        for (int i = 0; i < topo.inputs; ++i)
            acc = Acc24::hwAdd(
                acc, Acc24::fromFix16(Fix16::hwMul(
                         hidWeight(j, i), input[static_cast<size_t>(i)])));
        acc = Acc24::hwAdd(
            acc,
            Acc24::fromFix16(Fix16::hwMul(hidWeight(j, topo.inputs), one)));
        hiddenAct[static_cast<size_t>(j)] =
            logisticPwlFix(acc.toFix16Sat());
    }

    std::vector<Fix16> out(static_cast<size_t>(topo.outputs));
    for (int k = 0; k < topo.outputs; ++k) {
        Acc24 acc;
        for (int j = 0; j < topo.hidden; ++j)
            acc = Acc24::hwAdd(
                acc, Acc24::fromFix16(Fix16::hwMul(
                         outWeight(k, j), hiddenAct[static_cast<size_t>(j)])));
        acc = Acc24::hwAdd(
            acc,
            Acc24::fromFix16(Fix16::hwMul(outWeight(k, topo.hidden), one)));
        out[static_cast<size_t>(k)] = logisticPwlFix(acc.toFix16Sat());
    }
    return out;
}

void
FixedMlp::forwardBatchInto(std::span<const std::vector<double>> inputs,
                           std::span<Activations> out)
{
    dtann_assert(out.size() == inputs.size(),
                 "one activation record per input row");
    for (size_t r = 0; r < inputs.size(); ++r) {
        const std::vector<double> &input = inputs[r];
        fixIn.resize(input.size());
        for (size_t i = 0; i < input.size(); ++i)
            fixIn[i] = Fix16::fromDouble(input[i]);
        std::vector<Fix16> o = forwardFix(fixIn);

        Activations &act = out[r];
        act.resize(hiddenAct.size(), o.size());
        for (size_t j = 0; j < hiddenAct.size(); ++j)
            act.hidden()[j] = hiddenAct[j].toDouble();
        for (size_t k = 0; k < o.size(); ++k)
            act.output()[k] = o[k].toDouble();
    }
}

} // namespace dtann
