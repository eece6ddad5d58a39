#include "rtl/pe_cell.hh"

#include "rtl/operator_netlists.hh"

namespace dtann {

PeCell::PeCell(FaStyle style)
    : latchNl(operatorNetlists(style).latch),
      multNl(operatorNetlists(style).multiplier),
      addNl(operatorNetlists(style).adder)
{
}

PeCellCensus
PeCell::census() const
{
    PeCellCensus c;
    c.latchTransistors = latchNl->transistorCount();
    c.multiplierTransistors = multNl->transistorCount();
    c.adderTransistors = addNl->transistorCount();
    return c;
}

} // namespace dtann
