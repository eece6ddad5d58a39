#include "ann/sigmoid.hh"

namespace dtann {

double
logisticPwl(double x)
{
    return logisticPwlFix(Fix16::fromDouble(x)).toDouble();
}

Fix16
logisticPwlFix(Fix16 x)
{
    return sigmoidUnitRef(logisticPwlTable(), x);
}

} // namespace dtann
