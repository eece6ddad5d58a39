#include "rtl/operator_netlists.hh"

#include "rtl/adder.hh"
#include "rtl/latch.hh"
#include "rtl/multiplier.hh"
#include "rtl/sigmoid_unit.hh"

namespace dtann {

namespace {

std::shared_ptr<const Netlist>
share(Netlist nl)
{
    return std::make_shared<const Netlist>(std::move(nl));
}

OperatorNetlists
buildSet(FaStyle style)
{
    static const std::shared_ptr<const Netlist> latch =
        share(buildLatchRegister(16));
    return {share(buildMultiplierSigned(16, style)),
            share(buildRippleAdder(24, style, false)), latch,
            share(buildSigmoidUnit(logisticPwlTable(), style))};
}

} // namespace

const OperatorNetlists &
operatorNetlists(FaStyle style)
{
    // Function-local statics: built once, on first use of each
    // style, under the language's thread-safe initialisation.
    if (style == FaStyle::Nand9) {
        static const OperatorNetlists nand9 = buildSet(FaStyle::Nand9);
        return nand9;
    }
    static const OperatorNetlists mirror = buildSet(FaStyle::Mirror);
    return mirror;
}

} // namespace dtann
