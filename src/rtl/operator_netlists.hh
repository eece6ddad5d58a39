/**
 * @file
 * The operator netlists every accelerator backend instantiates,
 * built once per process.
 *
 * A backend, a systolic PE cell and the cost model all use the same
 * four operators: the Q6.10 signed multiplier, the 24-bit partial-sum
 * adder, the 16-bit weight latch and the PWL sigmoid unit. Netlists
 * are immutable once built (their cell index included), so one set
 * per full-adder style is shared by every instance and thread.
 */

#ifndef DTANN_RTL_OPERATOR_NETLISTS_HH
#define DTANN_RTL_OPERATOR_NETLISTS_HH

#include <memory>

#include "rtl/builder.hh"

namespace dtann {

/** One full-adder style's operator netlists. */
struct OperatorNetlists
{
    /** buildMultiplierSigned(16, style). */
    std::shared_ptr<const Netlist> multiplier;
    /** buildRippleAdder(24, style, false). */
    std::shared_ptr<const Netlist> adder;
    /** buildLatchRegister(16) (no adder; one for both styles). */
    std::shared_ptr<const Netlist> latch;
    /** buildSigmoidUnit(logisticPwlTable(), style). */
    std::shared_ptr<const Netlist> sigmoid;
};

/**
 * The operator netlists of @p style, built on first use (thread
 * safe) and shared for the life of the process.
 */
const OperatorNetlists &operatorNetlists(FaStyle style);

} // namespace dtann

#endif // DTANN_RTL_OPERATOR_NETLISTS_HH
