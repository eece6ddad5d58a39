#include "transistor/switch_network.hh"

#include <array>

#include "common/logging.hh"

namespace dtann {

namespace {

/** Shorthand switch constructors. */
Switch
nmos(uint8_t a, uint8_t b, uint8_t in)
{
    return Switch{a, b, in, false};
}

Switch
pmos(uint8_t a, uint8_t b, uint8_t in)
{
    return Switch{a, b, in, true};
}

/** Build the schematic table once. */
std::array<GateSchematic, static_cast<size_t>(GateKind::NumKinds)>
buildSchematics()
{
    std::array<GateSchematic, static_cast<size_t>(GateKind::NumKinds)> t{};
    auto set = [&t](GateKind k, ChannelNetwork p, ChannelNetwork n) {
        auto &s = t[static_cast<size_t>(k)];
        s.kind = k;
        s.p = std::move(p);
        s.n = std::move(n);
    };

    // NOT: single complementary pair.
    set(GateKind::Not,
        {2, {pmos(0, 1, 0)}},
        {2, {nmos(1, 0, 0)}});

    // NAND2: P parallel, N series.
    set(GateKind::Nand2,
        {2, {pmos(0, 1, 0), pmos(0, 1, 1)}},
        {3, {nmos(1, 2, 0), nmos(2, 0, 1)}});

    // NAND3.
    set(GateKind::Nand3,
        {2, {pmos(0, 1, 0), pmos(0, 1, 1), pmos(0, 1, 2)}},
        {4, {nmos(1, 2, 0), nmos(2, 3, 1), nmos(3, 0, 2)}});

    // NOR2: P series, N parallel.
    set(GateKind::Nor2,
        {3, {pmos(0, 2, 0), pmos(2, 1, 1)}},
        {2, {nmos(1, 0, 0), nmos(1, 0, 1)}});

    // NOR3.
    set(GateKind::Nor3,
        {4, {pmos(0, 2, 0), pmos(2, 3, 1), pmos(3, 1, 2)}},
        {2, {nmos(1, 0, 0), nmos(1, 0, 1), nmos(1, 0, 2)}});

    // AOI21: out = !((a & b) | c).
    // N: (a series b) parallel c; P: (a parallel b) series c.
    set(GateKind::Aoi21,
        {3, {pmos(0, 2, 0), pmos(0, 2, 1), pmos(2, 1, 2)}},
        {3, {nmos(1, 2, 0), nmos(2, 0, 1), nmos(1, 0, 2)}});

    // AOI22: out = !((a & b) | (c & d)).
    set(GateKind::Aoi22,
        {3, {pmos(0, 2, 0), pmos(0, 2, 1), pmos(2, 1, 2), pmos(2, 1, 3)}},
        {4, {nmos(1, 2, 0), nmos(2, 0, 1), nmos(1, 3, 2), nmos(3, 0, 3)}});

    // OAI21: out = !((a | b) & c).
    set(GateKind::Oai21,
        {3, {pmos(0, 2, 0), pmos(2, 1, 1), pmos(0, 1, 2)}},
        {3, {nmos(1, 2, 0), nmos(1, 2, 1), nmos(2, 0, 2)}});

    // OAI22: out = !((a | b) & (c | d)).
    set(GateKind::Oai22,
        {4, {pmos(0, 2, 0), pmos(2, 1, 1), pmos(0, 3, 2), pmos(3, 1, 3)}},
        {3, {nmos(1, 2, 0), nmos(1, 2, 1), nmos(2, 0, 2), nmos(2, 0, 3)}});

    // Mirror-adder carry: out = !((a & b) | (c & (a | b))).
    // Self-dual majority: P topology mirrors N.
    set(GateKind::CarryN,
        {4, {pmos(0, 2, 0), pmos(2, 1, 1),
             pmos(0, 3, 2), pmos(3, 1, 0), pmos(3, 1, 1)}},
        {4, {nmos(1, 2, 0), nmos(2, 0, 1),
             nmos(1, 3, 2), nmos(3, 0, 0), nmos(3, 0, 1)}});

    // Mirror-adder sum: out = !((a & b & c) | (d & (a | b | c))).
    // Also self-dual.
    set(GateKind::MirrorSumN,
        {5, {pmos(0, 2, 0), pmos(2, 3, 1), pmos(3, 1, 2),
             pmos(0, 4, 3), pmos(4, 1, 0), pmos(4, 1, 1), pmos(4, 1, 2)}},
        {5, {nmos(1, 2, 0), nmos(2, 3, 1), nmos(3, 0, 2),
             nmos(1, 4, 3), nmos(4, 0, 0), nmos(4, 0, 1), nmos(4, 0, 2)}});

    return t;
}

const auto schematicTable = buildSchematics();

} // namespace

const GateSchematic &
schematicFor(GateKind kind)
{
    dtann_assert(hasSchematic(kind), "%s has no transistor schematic",
                 gateName(kind));
    return schematicTable[static_cast<size_t>(kind)];
}

} // namespace dtann
