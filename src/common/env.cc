#include "common/env.hh"

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <cstring>

#include "common/logging.hh"

namespace dtann {

namespace {

/**
 * Parse @p v as a non-negative decimal integer. Returns false (and
 * leaves @p out untouched) on empty strings, trailing garbage,
 * negative values, or overflow — the callers fall back to their
 * defaults with a warning rather than silently misparsing.
 */
bool
parseNonNegative(const char *v, unsigned long &out)
{
    if (v == nullptr || *v == '\0')
        return false;
    const char *p = v;
    while (std::isspace(static_cast<unsigned char>(*p)))
        ++p;
    if (*p == '-' || *p == '+')
        return false; // signs rejected: strtoul would wrap negatives
    char *end = nullptr;
    errno = 0;
    unsigned long n = std::strtoul(p, &end, 10);
    if (end == p || *end != '\0' || errno == ERANGE)
        return false;
    out = n;
    return true;
}

} // namespace

bool
fullScale()
{
    const char *v = std::getenv("DTANN_FULL");
    return v != nullptr && std::strcmp(v, "1") == 0;
}

int
scaled(int full, int quick)
{
    return fullScale() ? full : quick;
}

unsigned long
experimentSeed()
{
    const char *v = std::getenv("DTANN_SEED");
    if (v == nullptr)
        return 20120609UL; // ISCA 2012 conference date.
    unsigned long n = 0;
    if (!parseNonNegative(v, n)) {
        warn("ignoring invalid DTANN_SEED='%s' (expected a "
             "non-negative integer); using default seed 20120609",
             v);
        return 20120609UL;
    }
    return n;
}

int
threadCount()
{
    const char *v = std::getenv("DTANN_THREADS");
    if (v == nullptr || *v == '\0')
        return 0;
    unsigned long n = 0;
    if (!parseNonNegative(v, n) || n > 4096) {
        warn("ignoring invalid DTANN_THREADS='%s' (expected an "
             "integer in [0, 4096]); using automatic thread count",
             v);
        return 0;
    }
    return static_cast<int>(n);
}

std::string
jsonOutDir()
{
    const char *v = std::getenv("DTANN_JSON_OUT");
    return v != nullptr ? std::string(v) : std::string();
}

namespace {

/** Shared parser for the 0/1 opt-out knobs. */
bool
boolKnob(const char *name)
{
    const char *v = std::getenv(name);
    if (v == nullptr || *v == '\0' || std::strcmp(v, "0") == 0)
        return false;
    if (std::strcmp(v, "1") == 0)
        return true;
    warn("ignoring invalid %s='%s' (expected 0 or 1); knob off",
         name, v);
    return false;
}

} // namespace

bool
noBatch()
{
    return boolKnob("DTANN_NO_BATCH");
}

int
laneConfig()
{
    const char *v = std::getenv("DTANN_LANES");
    if (v == nullptr || *v == '\0')
        return 0;
    unsigned long n = 0;
    if (!parseNonNegative(v, n) ||
        (n != 0 && n != 64 && n != 256 && n != 512)) {
        warn("ignoring invalid DTANN_LANES='%s' (expected 64, 256, "
             "512, or 0 for auto); using automatic lane width",
             v);
        return 0;
    }
    return static_cast<int>(n);
}

namespace env {

void
dump()
{
    auto raw = [](const char *name) {
        const char *v = std::getenv(name);
        return v != nullptr ? v : "(unset)";
    };
    inform("DTANN knobs: DTANN_FULL=%s (scale=%s) DTANN_SEED=%s "
           "(seed=%lu) DTANN_THREADS=%s (threads=%d) "
           "DTANN_JSON_OUT=%s DTANN_NO_BATCH=%s (batch=%s) "
           "DTANN_LANES=%s (lanes=%d)",
           raw("DTANN_FULL"), fullScale() ? "full" : "quick",
           raw("DTANN_SEED"), experimentSeed(), raw("DTANN_THREADS"),
           threadCount(), raw("DTANN_JSON_OUT"),
           raw("DTANN_NO_BATCH"), noBatch() ? "off" : "on",
           raw("DTANN_LANES"), laneConfig());
}

} // namespace env

} // namespace dtann
