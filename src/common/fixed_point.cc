#include "common/fixed_point.hh"

namespace dtann {

Fix16
Fix16::satAdd(Fix16 a, Fix16 b)
{
    int32_t s = static_cast<int32_t>(a.value) + static_cast<int32_t>(b.value);
    if (s > rawMax)
        s = rawMax;
    if (s < rawMin)
        s = rawMin;
    return Fix16(static_cast<int16_t>(s));
}

Fix16
Fix16::satMul(Fix16 a, Fix16 b)
{
    int32_t p = static_cast<int32_t>(a.value) * static_cast<int32_t>(b.value);
    int32_t s = p >> fracBits;
    if (s > rawMax)
        s = rawMax;
    if (s < rawMin)
        s = rawMin;
    return Fix16(static_cast<int16_t>(s));
}

} // namespace dtann
