/**
 * @file
 * Activation functions: exact logistic sigmoid and its 16-segment
 * piecewise-linear approximation (the hardware's Fig 4 unit). The
 * logistic and the PWL coefficient table live with that unit in
 * rtl/sigmoid_unit.hh, which this header includes.
 */

#ifndef DTANN_ANN_SIGMOID_HH
#define DTANN_ANN_SIGMOID_HH

#include "common/fixed_point.hh"
#include "rtl/sigmoid_unit.hh"

namespace dtann {

/** Derivative of the logistic expressed via its output y. */
inline double logisticDerivFromY(double y) { return y * (1.0 - y); }

/** Evaluate the PWL approximation in double precision. */
double logisticPwl(double x);

/**
 * Evaluate the PWL approximation with the hardware's exact Q6.10
 * semantics (what a clean activation unit computes).
 */
Fix16 logisticPwlFix(Fix16 x);

} // namespace dtann

#endif // DTANN_ANN_SIGMOID_HH
